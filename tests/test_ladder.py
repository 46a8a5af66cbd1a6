import itertools
import math

import numpy as np
import pytest

from ladderforge import dataset, feature_assembly, ladder, regressor
from ladderforge.errors import SchemaError

from helpers import is_monotone, rung_resolutions
from test_feature_assembly import make_tensor

R2160 = (3840, 2160)
R1440 = (2560, 1440)
R1080 = (1920, 1080)
R720 = (1280, 720)
R540 = (960, 540)
R432 = (768, 432)


def rec(w, h, crf, bps, vmaf, vid="v"):
    return dataset.EncodeRecord(vid, w, h, crf, float(bps), float(vmaf))


def sweep_log(resolutions, rungs, vmaf_fn, vid="v"):
    """One record per (resolution, rung) at exactly the rung bitrate."""
    records = []
    for res in resolutions:
        for crf, bps in enumerate(rungs, start=18):
            records.append(rec(*res, crf, bps, vmaf_fn(res, bps), vid))
    return records


def train_toy_model(targets_fn=None, n_trees=10, seed=3):
    rng = np.random.default_rng(0)
    X = np.array([rng.random(7) for _ in range(60)])
    y = [0.5 if targets_fn is None else float(targets_fn(x)) for x in X]
    return regressor.train(X, y, 1, n_trees=n_trees, seed=seed)


# ---------------------------------------------------------------------------
# rung validation
# ---------------------------------------------------------------------------

def test_default_rungs_are_valid_and_twelve():
    rungs = ladder.validate_rungs(ladder.DEFAULT_RUNG_BPS)
    assert len(rungs) == 12
    assert rungs[0] == 250_000.0 and rungs[-1] == 10_500_000.0


@pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0], [1.0, 1.0], [2.0, 1.0]])
def test_bad_rung_lists_rejected(bad):
    with pytest.raises(SchemaError, match="rung list is empty|must be finite and > 0|strictly increasing"):
        ladder.validate_rungs(bad)


# ---------------------------------------------------------------------------
# predict_quality_grid
# ---------------------------------------------------------------------------

def test_grid_shape_eight_by_twelve():
    model = train_toy_model()
    tensor = make_tensor(frames=3, seed=1)
    grid = ladder.predict_quality_grid(
        model, tensor, ladder.DEFAULT_RESOLUTIONS, ladder.DEFAULT_RUNG_BPS
    )
    assert grid.shape == (8, 12)
    assert grid.size == 96


def test_constant_model_gives_constant_grid():
    model = train_toy_model(targets_fn=None)  # every target 0.5
    tensor = make_tensor(frames=3, seed=1)
    grid = ladder.predict_quality_grid(
        model, tensor, ladder.DEFAULT_RESOLUTIONS, ladder.DEFAULT_RUNG_BPS
    )
    assert np.all(grid == 0.5)


def test_grid_matches_looped_single_predictions():
    model = train_toy_model(targets_fn=lambda x: x[0] + 0.2 * x[5])
    tensor = make_tensor(frames=3, seed=2)
    resolutions = [R1080, R720, R540]
    rungs = [500_000, 2_000_000, 8_000_000]
    grid = ladder.predict_quality_grid(model, tensor, resolutions, rungs)
    for i, (w, h) in enumerate(resolutions):
        for j, bps in enumerate(rungs):
            X = feature_assembly.assemble(1, [tensor], [bps], [w], [h])
            assert grid[i, j] == regressor.predict_batch(model, X)[0]


def test_grid_rejects_empty_resolutions():
    model = train_toy_model()
    with pytest.raises(SchemaError, match="^resolution list is empty$"):
        ladder.predict_quality_grid(model, make_tensor(), [], [1e6])


# ---------------------------------------------------------------------------
# select_ladder
# ---------------------------------------------------------------------------

def test_dominant_resolution_wins_every_rung():
    resolutions = list(ladder.DEFAULT_RESOLUTIONS)
    rungs = list(ladder.DEFAULT_RUNG_BPS)
    grid = np.full((8, 12), 0.2)
    grid[0, :] = 0.9  # 2160p row dominates
    choices = ladder.select_ladder(grid, resolutions, rungs)
    assert choices == [R2160] * 12


def test_exact_tie_breaks_to_smaller_resolution():
    resolutions = [R540, R432]
    rungs = [1e6, 2e6]
    grid = np.array([[0.5, 0.7], [0.5, 0.3]])
    choices = ladder.select_ladder(grid, resolutions, rungs)
    assert choices[0] == R432  # tie at rung 0
    assert choices[1] == R540


def test_select_matches_bruteforce_argmax():
    rng = np.random.default_rng(7)
    resolutions = list(ladder.DEFAULT_RESOLUTIONS)
    rungs = list(ladder.DEFAULT_RUNG_BPS)
    for _ in range(50):
        grid = rng.random((8, 12))
        choices = ladder.select_ladder(grid, resolutions, rungs)
        for j in range(12):
            best = max(
                range(8),
                key=lambda i: (grid[i, j], -resolutions[i][0] * resolutions[i][1]),
            )
            assert choices[j] == resolutions[best]


def test_select_invariant_under_increasing_transform():
    rng = np.random.default_rng(11)
    resolutions = list(ladder.DEFAULT_RESOLUTIONS)
    rungs = list(ladder.DEFAULT_RUNG_BPS)
    grid = rng.random((8, 12))
    base = ladder.select_ladder(grid, resolutions, rungs)
    assert ladder.select_ladder(3.0 * grid + 1.0, resolutions, rungs) == base
    assert ladder.select_ladder(np.arctan(grid), resolutions, rungs) == base


# ---------------------------------------------------------------------------
# monotonic_correct
# ---------------------------------------------------------------------------

def test_correction_example_from_scan_rule():
    # low -> high bitrate choices; scan from the top: 1080 keeps,
    # 1440 capped to 1080, 720 keeps
    out = ladder.monotonic_correct([R720, R1440, R1080])
    assert out == [R720, R1080, R1080]


def test_monotone_input_is_fixed_point():
    choices = [R540, R720, R720, R1080]
    assert ladder.monotonic_correct(choices) == choices


def test_all_equal_unchanged():
    assert ladder.monotonic_correct([R720] * 5 ) == [R720] * 5


def test_correction_idempotent_and_never_increases():
    rng = np.random.default_rng(23)
    pool = list(ladder.DEFAULT_RESOLUTIONS)
    for _ in range(200):
        raw = [pool[i] for i in rng.integers(0, len(pool), size=12)]
        once = ladder.monotonic_correct(raw)
        pix = [w * h for w, h in once]
        assert pix == sorted(pix)
        assert ladder.monotonic_correct(once) == once
        assert all(
            ladder.pixel_count(c) <= ladder.pixel_count(r)
            for c, r in zip(once, raw)
        )
        assert once[-1] == raw[-1]


# ---------------------------------------------------------------------------
# realize_ladder
# ---------------------------------------------------------------------------

def test_closest_point_log_domain_example():
    records = [rec(*R1080, 30, 1_900_000, 70.0), rec(*R1080, 28, 2_200_000, 75.0)]
    target = 2_000_000
    # log2 distances: |log2(1.9/2)| = 0.0740, |log2(2.2/2)| = 0.1375
    d_low = abs(math.log2(1_900_000) - math.log2(target))
    d_high = abs(math.log2(2_200_000) - math.log2(target))
    assert d_low == pytest.approx(0.0740, abs=5e-5)
    assert d_high == pytest.approx(0.1375, abs=5e-5)
    chosen = ladder.closest_point(records, target)
    assert chosen.bitrate_bps == 1_900_000


def test_exact_bitrate_match_chosen():
    records = [rec(*R720, 30, bps, 60.0) for bps in (1e6, 2e6, 4e6)]
    assert ladder.closest_point(records, 2e6).bitrate_bps == 2e6


def test_log_equidistant_tie_takes_lower_bitrate():
    # 1 and 4 Mbps are both exactly one octave from 2 Mbps
    records = [rec(*R720, 36, 4e6, 80.0), rec(*R720, 40, 1e6, 55.0)]
    assert ladder.closest_point(records, 2e6).bitrate_bps == 1e6


def test_realize_ladder_missing_resolution_names_rung():
    log = [rec(*R720, 30, 2e6, 60.0)]
    with pytest.raises(SchemaError, match="no points at 1920x1080"):
        ladder.realize_ladder([R720, R1080], [1e6, 2e6], log)


def test_realized_ladder_fields():
    rungs = [1e6, 2e6]
    log = [
        rec(*R720, 32, 0.9e6, 55.0),
        rec(*R720, 30, 2.1e6, 62.0),
        rec(*R1080, 29, 2.05e6, 71.0),
    ]
    out = ladder.realize_ladder([R720, R1080], rungs, log)
    assert [r.rung_bps for r in out] == rungs
    assert out[0].realized_bps == 0.9e6
    assert out[1].vmaf == 71.0
    assert is_monotone(out)


# ---------------------------------------------------------------------------
# reference_ladder
# ---------------------------------------------------------------------------

def test_reference_single_dominant_resolution():
    rungs = list(ladder.DEFAULT_RUNG_BPS)
    resolutions = [R1080, R720, R540]

    def vmaf_fn(res, bps):
        return 80.0 if res == R720 else 50.0

    log = sweep_log(resolutions, rungs, vmaf_fn)
    out = ladder.reference_ladder(log, rungs)
    assert rung_resolutions(out) == [R720] * 12


def test_reference_single_resolution_log():
    rungs = [1e6, 2e6, 4e6]
    log = sweep_log([R540], rungs, lambda res, bps: 60.0)
    out = ladder.reference_ladder(log, rungs)
    assert rung_resolutions(out) == [R540] * 3


def test_reference_tie_prefers_smaller_resolution():
    rungs = [1e6]
    log = sweep_log([R540, R432], rungs, lambda res, bps: 55.0)
    out = ladder.reference_ladder(log, rungs)
    assert rung_resolutions(out) == [R432]


def exhaustive_monotone_best(vmaf_grid, resolutions):
    """All non-decreasing assignments, max total quality; unique by design."""
    n_res, n_rungs = vmaf_grid.shape
    order = sorted(range(n_res), key=lambda i: ladder.pixel_count(resolutions[i]))
    best_total, best_assign = -math.inf, None
    for combo in itertools.combinations_with_replacement(order, n_rungs):
        total = sum(vmaf_grid[i, j] for j, i in enumerate(combo))
        if total > best_total:
            best_total, best_assign = total, combo
    return [resolutions[i] for i in best_assign]


def make_crossover_log(rng, resolutions, rungs):
    """Log whose per-rung best resolution is already monotone.

    A random non-decreasing assignment is planted with a clear margin,
    so greedy per-rung argmax, correction, and the global optimum all
    coincide.
    """
    n_res, n_rungs = len(resolutions), len(rungs)
    planted = sorted(
        rng.integers(0, n_res, size=n_rungs),
        key=lambda i: ladder.pixel_count(resolutions[i]),
    )
    vmaf_grid = rng.uniform(20.0, 60.0, size=(n_res, n_rungs))
    for j, i in enumerate(planted):
        vmaf_grid[i, j] = rng.uniform(70.0, 95.0)
    records = []
    for i, res in enumerate(resolutions):
        for j, bps in enumerate(rungs):
            records.append(rec(*res, 18 + j, bps, vmaf_grid[i, j]))
    return records, vmaf_grid, [resolutions[i] for i in planted]


def test_reference_matches_exhaustive_oracle_on_crossover_logs():
    rng = np.random.default_rng(5)
    resolutions = [R1080, R720, R540, R432]
    rungs = [0.5e6, 1e6, 2e6, 4e6, 8e6]
    for _ in range(20):
        log, vmaf_grid, planted = make_crossover_log(rng, resolutions, rungs)
        out = ladder.reference_ladder(log, rungs)
        oracle = exhaustive_monotone_best(vmaf_grid, resolutions)
        assert rung_resolutions(out) == oracle == planted


def test_reference_dominates_any_choice_per_rung_before_correction():
    rng = np.random.default_rng(9)
    resolutions = [R1080, R720, R540]
    rungs = [1e6, 2e6, 4e6, 8e6]
    log = sweep_log(
        resolutions, rungs, lambda res, bps: float(rng.uniform(30, 90))
    )
    ref = ladder.reference_ladder(log, rungs, correct=False)
    for _ in range(10):
        picks = [resolutions[i] for i in rng.integers(0, 3, size=len(rungs))]
        other = ladder.realize_ladder(picks, rungs, log)
        for a, b in zip(ref, other):
            assert a.vmaf >= b.vmaf


# ---------------------------------------------------------------------------
# fixed_ladder
# ---------------------------------------------------------------------------

def test_fixed_ladder_exact_match_row():
    table = [(6_000_000, R1080)]
    log = [rec(*R1080, 27, 6_000_000, 88.0), rec(*R1080, 30, 3_000_000, 80.0)]
    out = ladder.fixed_ladder(table, log)
    assert out[0].realized_bps == 6_000_000
    assert out[0].vmaf == 88.0


def test_fixed_ladder_empty_config():
    # a config file's empty table is refused when the config loads; a
    # library call with one meets the rung rule of realize_ladder
    with pytest.raises(SchemaError, match="^rung list is empty$"):
        ladder.fixed_ladder((), [rec(*R720, 30, 2e6, 60.0)])


def test_fixed_ladder_missing_resolution_names_rung():
    table = [(2_000_000, R1440)]
    log = [rec(*R720, 30, 2e6, 60.0)]
    with pytest.raises(SchemaError, match="no points at 2560x1440 for rung 2e\\+06"):
        ladder.fixed_ladder(table, log)


# ---------------------------------------------------------------------------
# predicted ladder end to end over a toy model
# ---------------------------------------------------------------------------

def test_predicted_ladder_is_monotone_and_realized():
    model = train_toy_model(targets_fn=lambda x: x[0])
    tensor = make_tensor(frames=3, seed=4)
    rungs = [0.5e6, 1e6, 2e6, 4e6]
    resolutions = [R1080, R720, R540]
    log = sweep_log(resolutions, rungs, lambda res, bps: 50.0)
    grid = ladder.predict_quality_grid(model, tensor, resolutions, rungs)
    out = ladder.ladder_from_grid(grid, resolutions, rungs, log)
    assert is_monotone(out)
    assert len(out) == 4
    raw = ladder.ladder_from_grid(grid, resolutions, rungs, log, correct=False)
    assert [r.rung_bps for r in raw] == [r.rung_bps for r in out]


# ---------------------------------------------------------------------------
# CSV and summary
# ---------------------------------------------------------------------------

def test_ladder_csv_round_trip(tmp_path):
    rungs = [1e6, 2e6]
    log = [rec(*R720, 32, 0.95e6, 55.5), rec(*R1080, 29, 2.1e6, 71.25)]
    out = ladder.realize_ladder([R720, R1080], rungs, log)
    path = tmp_path / "ladder.csv"
    path.write_text(ladder.ladder_csv_text(out))
    assert ladder.parse_ladder_csv(path) == out


def test_ladder_csv_header():
    log = [rec(*R720, 32, 1e6, 55.0)]
    text = ladder.ladder_csv_text(ladder.realize_ladder([R720], [1e6], log))
    assert text.splitlines()[0] == "rung_bps,width,height,crf,realized_bps,vmaf"


def test_parse_ladder_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        ladder.parse_ladder_csv(path)


def test_parse_ladder_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("rung_bps,width,height,crf,realized_bps,vmaf\n")
    with pytest.raises(SchemaError):
        ladder.parse_ladder_csv(path)


def test_summary_text_mentions_monotonicity():
    log = [rec(*R720, 32, 1e6, 55.0), rec(*R540, 34, 0.5e6, 40.0)]
    mono = ladder.realize_ladder([R540, R720], [0.5e6, 1e6], log)
    text = ladder.ladder_summary_text("predicted", mono)
    assert "monotone: yes" in text
    assert "provenance: predicted" in text
    broken = ladder.realize_ladder([R720, R540], [0.5e6, 1e6], log)
    assert "monotone: no" in ladder.ladder_summary_text("fixed", broken)
