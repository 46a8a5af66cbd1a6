"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --workload train-corpus --seeds 1-10 \
        [--compare perfbench/results/old.json]

Runs one untraced benchmark process at a time from the repository root,
each for BENCHMARK.json's run_seconds, and saves every result line to
perfbench/results/<workload>-<time>.json.
For each metric it prints the median, the quartiles from
statistics.quantiles(n=4), the quartile spread as a share of the median
and the bound from BENCHMARK.json. With --compare it also prints how far
each median moved from an earlier results file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["detail"] = json.loads(lines[-2]) if len(lines) > 1 else None
    return result


def summarize(results: list[dict], bounds: dict, previous: list[dict] | None) -> None:
    names = list(results[0]["metrics"])
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          + (f" {'moved':>8}" if previous else ""))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        line = (f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                f"{bound if bound is not None else '-':>6}")
        if previous:
            before = statistics.median(r["metrics"][name]["value"] for r in previous)
            line += f" {(med - before) / before if before else float('nan'):8.4f}"
        print(line)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"failed {failed} of {attempted} operations; correct in "
          f"{sum(r['correct'] for r in results)} of {len(results)} runs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", type=Path, help="earlier results file, one workload")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload:
        results = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            results.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s", flush=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = out_dir / f"{workload}-{stamp}.json"
        path.write_text(json.dumps(results, indent=1) + "\n")
        previous = json.loads(args.compare.read_text()) if args.compare else None
        print(f"\n{workload} ({len(results)} runs, {seconds} s each) -> {path}")
        summarize(results, bounds, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
