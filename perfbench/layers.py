"""Per-layer timing from outside the program.

The traced run replaces package functions with timing wrappers for the
length of a round and puts the originals back afterwards; nothing inside
ladderforge changes. Each wrapper records the inclusive time of its
calls and their self time (inclusive minus the time of wrapped calls
nested inside), the number of calls, and an optional count of work such
as frames read or nodes grown.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from ladderforge import cli, feature_assembly, gsm_vif, ladder, media_io, regressor

_APPROACH_OF_WIDTH = {w: a for a, w in feature_assembly.APPROACH_FEATURE_LENGTHS.items()}


class Tracer:
    def __init__(self):
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._children: list[float] = []

    def wrap(self, name, fn, count=None):
        """Time every call of fn under name (a string, or a function of the args)."""
        def timed(*args, **kwargs):
            label = name(*args) if callable(name) else name
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.incl[label] += elapsed
                self.self_time[label] += elapsed - nested
                self.calls[label] += 1
            if count is not None:
                for key, n in count(label, args, result):
                    self.counts[key] += n
            return result
        return timed

    def merged(self, other: "Tracer") -> "Tracer":
        out = Tracer()
        for src in (self, other):
            for field in ("incl", "self_time", "calls", "counts"):
                for key, value in getattr(src, field).items():
                    getattr(out, field)[key] += value
        return out


def _grow_label(X, *_):
    return f"grow.a{_APPROACH_OF_WIDTH.get(X.shape[1], 0)}"


# (module, attribute, span name, work counter); a counter maps
# (label, args, result) to (count name, amount) pairs
SPANS = (
    (media_io, "_read_frame_record", "read",
     lambda _l, _a, frame: [("frames_read", frame is not None)]),
    (gsm_vif, "frame_diff", "diff", None),
    (gsm_vif, "mean_abs_luma_diff", "motion", None),
    (gsm_vif, "frame_vif_features", "plane", None),
    (gsm_vif, "build_scale_stack", "stack", None),
    (gsm_vif, "subband_decompose", "subbands", None),
    (gsm_vif, "extract_block_vectors", "blocks", None),
    (gsm_vif, "_fit_eigen", "covariance", None),
    (gsm_vif, "jacobi_eigh", "eigh", None),
    (gsm_vif, "estimate_multipliers", "multipliers", None),
    (gsm_vif, "subband_information", "information", None),
    (cli, "build_training_matrix", "build_matrix", None),
    (regressor, "_grow_tree", _grow_label,
     lambda label, _a, tree: [("nodes." + label.split(".")[1], len(tree.feature))]),
    (cli, "save_model", "save",
     lambda _l, args, _r: [("model_bytes", Path(args[1]).stat().st_size)]),
    (cli, "load_model", "load", None),
    (cli, "predict_batch", "predict", lambda _l, args, _r: [("rows_predicted", len(args[1]))]),
    (ladder, "predict_batch", "predict", lambda _l, args, _r: [("rows_predicted", len(args[1]))]),
    (feature_assembly, "assemble", "assemble", None),
    (ladder, "assemble", "assemble", None),
    (cli, "parse_features_csv", "parse_features", None),
    (cli, "parse_encode_log", "parse_encode_log", None),
    (ladder, "predict_quality_grid", "grid", None),
    (ladder, "realize_ladder", "realize", None),
    (cli, "reference_ladder", "reference", None),
    (cli, "compare_curves", "compare", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in SPANS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(every: Tracer, rounds: Tracer, n_rounds: int) -> dict[str, float]:
    """Per-layer figures: times per unit of layer work, counts per round.

    Times come from every traced call (prepare and set-up included, which
    is where the ladder workload grows its trees); counts come from the
    traced rounds only, so they repeat exactly for a given seed. A layer
    the workload never reaches reads 0.
    """
    t, s, c, n = every.incl, every.self_time, every.calls, every.counts
    planes = c["plane"]
    titles = c["grid"]
    ms, us = 1e3, 1e6
    return {
        "media_io.read_ms_per_frame": ms * _ratio(t["read"], n["frames_read"]),
        "media_io.diff_ms_per_frame": ms * _ratio(t["diff"] + t["motion"], c["diff"]),
        "pyramid.stack_ms_per_plane": ms * _ratio(t["stack"], planes),
        "pyramid.subbands_ms_per_plane": ms * _ratio(t["subbands"], planes),
        "gsm_vif.blocks_ms_per_plane": ms * _ratio(t["blocks"], planes),
        "gsm_vif.covariance_ms_per_plane": ms * _ratio(s["covariance"], planes),
        "gsm_vif.multipliers_ms_per_plane": ms * _ratio(t["multipliers"], planes),
        "gsm_vif.information_ms_per_plane": ms * _ratio(t["information"], planes),
        "gsm_vif.eigh_us_per_call": us * _ratio(t["eigh"], c["eigh"]),
        "gsm_vif.eigh_calls": _ratio(rounds.calls["eigh"], n_rounds),
        "gsm_vif.plane_ms": ms * _ratio(t["plane"], planes),
        "gsm_vif.planes": _ratio(rounds.calls["plane"], n_rounds),
        "dataset.build_matrix_ms": ms * _ratio(t["build_matrix"], c["build_matrix"]),
        "regressor.grow_us_per_node.a8": us * _ratio(t["grow.a8"], n["nodes.a8"]),
        "regressor.grow_us_per_node.a9": us * _ratio(t["grow.a9"], n["nodes.a9"]),
        "regressor.nodes.a8": _ratio(rounds.counts["nodes.a8"], n_rounds),
        "regressor.nodes.a9": _ratio(rounds.counts["nodes.a9"], n_rounds),
        "regressor.save_ms": ms * _ratio(t["save"], c["save"]),
        "regressor.model_bytes": _ratio(rounds.counts["model_bytes"], n_rounds),
        "regressor.load_ms": ms * _ratio(t["load"], c["load"]),
        "regressor.predict_us_per_row": us * _ratio(t["predict"], n["rows_predicted"]),
        "feature_assembly.assemble_us_per_row": us * _ratio(t["assemble"], c["assemble"]),
        "cli.parse_features_ms": ms * _ratio(t["parse_features"], c["parse_features"]),
        "dataset.parse_encode_log_ms": ms * _ratio(t["parse_encode_log"], c["parse_encode_log"]),
        "ladder.grid_ms_per_title": ms * _ratio(t["grid"], titles),
        "ladder.realize_ms_per_title": ms * _ratio(t["realize"], titles),
        "ladder.reference_ms_per_title": ms * _ratio(s["reference"], titles),
        "bd_metrics.compare_us_per_pair": us * _ratio(t["compare"], c["compare"]),
    }
