"""Benchmark of ladderforge's extract, train, ladder and compare commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src. The
inputs are synthetic and made from --seed; every output is checked. The
last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: at the default thread count a
# 1080p plane costs twice the CPU for no gain in wall time, and the wall
# time itself wanders.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5       # set-ups per run; setup_s is their median plus the one-off prepare
# setup_s is reported in seconds of a machine on which the reference loop
# takes this long (its typical time here), so that drift cancels as in
# wall_per_unit while the unit stays seconds
REF_NOMINAL_S = 0.1
MIN_ROUNDS = 3   # timed rounds per run, even when one round outlasts --seconds


def import_package() -> None:
    """Import ladderforge from this checkout's src, never from elsewhere."""
    if not (SRC / "ladderforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no ladderforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ladderforge

    if Path(ladderforge.__file__).resolve().parent != SRC / "ladderforge":
        raise SystemExit(f"error: ladderforge imported from {ladderforge.__file__}")


def usage() -> tuple[float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS in MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def reference_loop() -> float:
    """Seconds taken by a fixed loop of interpreter work and small-array numpy.

    Set-ups and rounds are reported in multiples of this loop, timed
    before and after each of them in the same process: the machine's speed
    drifts by more than 10% between runs, and the ratio cancels most of
    that drift.
    """
    import numpy as np

    small = np.arange(2000.0)
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(500_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for i in range(15_000):
        float((small[i % 50:i % 50 + 1000] * 1.5).sum())
    return time.perf_counter() - start


def timed_round(workload) -> tuple[float, float]:
    """(wall seconds per unit, CPU seconds per unit) of one round."""
    cpu0, _ = usage()
    start = time.perf_counter()
    units = workload.round()
    wall = time.perf_counter() - start
    cpu1, _ = usage()
    return wall / units, (cpu1 - cpu0) / units


def run(workload, seconds: float, trace: bool, spec: dict) -> tuple[bool, dict]:
    import layers
    from checks import CheckFailed

    setup_tracer, round_tracer = layers.Tracer(), layers.Tracer()
    # Every set-up and every round is scaled by the mean of the reference
    # loops on either side of it. A traced run alternates untraced and
    # traced rounds, so the overhead of tracing is measured under the same
    # conditions as the layers.
    plain, traced = [], []
    ref = reference_loop()

    def set_up(step) -> tuple[float, float]:
        nonlocal ref
        start = time.perf_counter()
        if trace:
            with layers.traced(setup_tracer):
                step()
        else:
            step()
        elapsed = time.perf_counter() - start
        ref_after = reference_loop()
        scaled = elapsed / ((ref + ref_after) / 2.0)
        ref = ref_after
        return scaled, elapsed

    prepared = set_up(workload.prepare)
    setups = [set_up(workload.setup) for _ in range(SETUPS)]

    start = time.perf_counter()
    while (len(plain) < MIN_ROUNDS or (trace and len(traced) < MIN_ROUNDS)
           or time.perf_counter() - start < seconds):
        is_traced = trace and len(traced) < len(plain)
        workload.clear()
        if is_traced:
            with layers.traced(round_tracer):
                wall, cpu = timed_round(workload)
        else:
            wall, cpu = timed_round(workload)
        ref_after = reference_loop()
        scale = (ref + ref_after) / 2.0
        (traced if is_traced else plain).append((wall / scale, cpu / scale, wall, ref))
        ref = ref_after
    _, peak_rss = usage()

    try:
        for path in workload.outputs():
            if not path.is_file():
                raise CheckFailed(f"the last round wrote no {path.name}")
        workload.check()
        correct = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    wall = statistics.median(r[0] for r in plain)
    if trace:
        metrics = layers.layer_metrics(setup_tracer.merged(round_tracer), round_tracer,
                                       len(traced))
        metrics["trace.overhead_ref_per_unit"] = statistics.median(r[0] for r in traced) - wall
    else:
        setup = prepared[0] + statistics.median(r for r, _ in setups)
        metrics = {
            "wall_per_unit": wall,
            "cpu_per_unit": statistics.median(r[1] for r in plain),
            "peak_rss_mib": peak_rss,
            "setup_s": setup * REF_NOMINAL_S,
        }
    # everything above the result line is diagnostics for perfbench/spread.py
    print(json.dumps({"workload": workload.name, "unit_of_work": workload.unit,
                      "prepare_s": prepared[1], "setup_s": [s for _, s in setups],
                      "rounds": [dict(zip(("wall_ref", "cpu_ref", "wall_s", "ref_s"), r))
                                 for r in plain]}))
    kind = "per_layer" if trace else "end_to_end"
    return correct, {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                     for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        correct, metrics = run(workload, args.seconds, bool(args.trace), spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
