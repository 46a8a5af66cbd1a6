"""Acceptance suite: one test per shipping criterion.

Each test carries an `acceptance` marker; the conftest hook prints one
pass/fail line per criterion at the end of the run. Oracles here lean on
numpy.linalg deliberately, as an independent second route to the package's
own linear algebra.
"""

import math
import time

import numpy as np
import pytest

from ladderforge import bd_metrics, cli, dataset, feature_assembly, gsm_vif, ladder, regressor
from ladderforge.media_io import LumaFrame

from helpers import write_y4m
from test_ladder import exhaustive_monotone_best, make_crossover_log

# ---------------------------------------------------------------------------
# information-feature identities
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="vif-identities")
def test_vif_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(200):
        h = int(rng.integers(16, 129))
        w = int(rng.integers(16, 129))
        feats = gsm_vif.frame_vif_features(rng.random((h, w)))
        flat = feats.flatten()
        per_eig = flat[:72].reshape(4, 2, 9)
        per_band = flat[72:80].reshape(4, 2)
        per_scale = flat[80:84]
        assert np.abs(per_band - per_eig.sum(axis=2)).max() <= 1e-9
        assert np.abs(per_scale - 0.5 * per_band.sum(axis=1)).max() <= 1e-9

    const = gsm_vif.frame_vif_features(np.full((48, 64), 0.42))
    assert np.all(const.flatten() == 0.0)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# scale-mixture multiplier estimation vs direct likelihood search
# ---------------------------------------------------------------------------

def _likelihood_grid_search(quad, block_dim, lo=1e-6, hi=1e4, stages=8, points=61):
    """Per-block argmin of -2 log N(0, s2 C), refined by zooming the grid.

    With q = z^T C^-1 z fixed, the objective is block_dim*log(s2) + q/s2;
    each stage re-grids between the neighbours of the current best point.
    """
    n = quad.shape[0]
    lo = np.full(n, lo)
    hi = np.full(n, hi)
    best = None
    for _ in range(stages):
        ratio = hi / lo
        grid = lo[:, None] * ratio[:, None] ** np.linspace(0.0, 1.0, points)[None, :]
        nll = block_dim * np.log(grid) + quad[:, None] / grid
        idx = nll.argmin(axis=1)
        rows = np.arange(n)
        best = grid[rows, idx]
        lo = grid[rows, np.maximum(idx - 1, 0)]
        hi = grid[rows, np.minimum(idx + 1, points - 1)]
    return best


@pytest.mark.acceptance(name="gsm-multiplier-oracle")
def test_gsm_multiplier_grid_search_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(23)
    n, dim = 1000, gsm_vif.BLOCK_DIM

    root = rng.normal(size=(dim, dim))
    cov = root @ root.T / dim + 0.05 * np.eye(dim)
    scale = np.linalg.cholesky(cov)
    s2_true = rng.lognormal(mean=0.0, sigma=0.7, size=n)
    vectors = rng.normal(size=(n, dim)) @ scale.T * np.sqrt(s2_true)[:, None]

    estimated = gsm_vif.estimate_multipliers(vectors, cov)

    centered = vectors - vectors.mean(axis=0)
    quad = np.einsum("ij,ij->i", centered, np.linalg.solve(cov, centered.T).T)
    searched = _likelihood_grid_search(quad, dim)

    deviation = np.abs(estimated - searched)
    assert np.median(deviation) <= 1e-6
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# eigen decomposition vs numpy
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="eigen-oracle")
def test_jacobi_matches_reference_solver():
    start = time.monotonic()
    rng = np.random.default_rng(37)
    for trial in range(500):
        rank = (3, 6, 9)[trial % 3]
        factor = rng.normal(size=(9, rank)) * 10.0 ** rng.uniform(-3.0, 3.0)
        matrix = factor @ factor.T
        mine = np.sort(gsm_vif.jacobi_eigh(matrix)[0])
        reference = np.sort(np.linalg.eigvalsh(matrix))
        scale = max(reference[-1], np.finfo(float).tiny)
        assert np.abs(mine - reference).max() <= 1e-8 * scale
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# per-approach feature widths
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="feature-vector-lengths")
def test_every_approach_vector_length():
    rng = np.random.default_rng(41)
    frames = [LumaFrame(rng.random((32, 32))) for _ in range(2)]
    tensor = gsm_vif.video_features(frames)
    lengths = [
        feature_assembly.assemble(a, [tensor], [2e6], [1920], [1080]).shape[1] for a in range(1, 10)
    ]
    assert lengths == [7, 11, 75, 8, 12, 76, 12, 20, 148]
    assert lengths == [feature_assembly.APPROACH_FEATURE_LENGTHS[a] for a in range(1, 10)]


# ---------------------------------------------------------------------------
# rate-quality deltas in closed form
# ---------------------------------------------------------------------------

def _smooth_curve(rates, q_lo, q_hi):
    rates = list(rates)
    qs = []
    for i in range(len(rates)):
        u = i / (len(rates) - 1)
        qs.append(q_lo + (q_hi - q_lo) * (3 * u * u - 2 * u ** 3))
    return bd_metrics.RqCurve.from_points(zip(rates, qs))


@pytest.mark.acceptance(name="bd-closed-forms")
def test_bd_closed_form_oracle():
    rates = [0.3e6, 0.7e6, 1.6e6, 3.5e6, 8e6]
    base = _smooth_curve(rates, 35.0, 92.0)

    assert abs(bd_metrics.bd_rate(base, base)) <= 1e-9
    assert abs(bd_metrics.bd_quality(base, base)) <= 1e-9

    doubled = _smooth_curve([r * 2 for r in rates], 35.0, 92.0)
    halved = _smooth_curve([r / 2 for r in rates], 35.0, 92.0)
    assert abs(bd_metrics.bd_rate(doubled, base) - 100.0) <= 0.01
    assert abs(bd_metrics.bd_rate(halved, base) + 50.0) <= 0.01

    lifted = _smooth_curve(rates, 40.0, 97.0)
    assert abs(bd_metrics.bd_quality(lifted, base) - 5.0) <= 1e-6

    other = _smooth_curve([0.4e6, 1.1e6, 2.4e6, 5e6, 11e6], 30.0, 88.0)
    forward = bd_metrics.bd_rate(base, other)
    backward = bd_metrics.bd_rate(other, base)
    assert abs((1 + forward / 100.0) * (1 + backward / 100.0) - 1.0) <= 1e-9
    assert abs(bd_metrics.bd_quality(base, other) + bd_metrics.bd_quality(other, base)) <= 1e-9


# ---------------------------------------------------------------------------
# ladder construction invariants
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="ladder-invariants")
def test_ladder_invariants_on_random_grids():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        n_res = int(rng.integers(2, 9))
        n_rungs = int(rng.integers(2, 13))
        picks = rng.choice(len(ladder.DEFAULT_RESOLUTIONS), size=n_res, replace=False)
        resolutions = [ladder.DEFAULT_RESOLUTIONS[i] for i in picks]
        rungs = list(np.cumsum(rng.uniform(0.1e6, 2e6, size=n_rungs)))
        grid = rng.uniform(0.0, 100.0, size=(n_res, n_rungs))

        choices = ladder.select_ladder(grid, resolutions, rungs)
        for j in range(n_rungs):
            best = max(grid[:, j])
            winners = [resolutions[i] for i in range(n_res) if grid[i, j] == best]
            assert choices[j] == min(winners, key=ladder.pixel_count)

        corrected = ladder.monotonic_correct(choices)
        pixels = [ladder.pixel_count(res) for res in corrected]
        assert all(a <= b for a, b in zip(pixels, pixels[1:]))
        assert ladder.monotonic_correct(corrected) == corrected

    for _ in range(6):
        rungs = list(ladder.DEFAULT_RUNG_BPS)
        resolutions = list(ladder.DEFAULT_RESOLUTIONS)
        log, vmaf_grid, planted = make_crossover_log(rng, resolutions, rungs)
        built = ladder.reference_ladder(log, rungs)
        built_resolutions = [(r.width, r.height) for r in built]
        assert built_resolutions == exhaustive_monotone_best(vmaf_grid, resolutions)


# ---------------------------------------------------------------------------
# desk-scale end-to-end run on a planted quality surface
# ---------------------------------------------------------------------------

E2E_RESOLUTIONS = ((1920, 1080), (1280, 720), (960, 540), (640, 360))
E2E_RES_FLAG = "1920x1080,1280x720,960x540,640x360"
E2E_RUNGS_MBPS = "0.25,0.4,0.65,1.0,1.6,2.6,4.2,6.7"
E2E_RUNG_BPS = tuple(m * 1e6 for m in (0.25, 0.4, 0.65, 1.0, 1.6, 2.6, 4.2, 6.7))
_P1080 = 1920 * 1080


def quality_cap(width, height):
    return 100.0 * (0.75 + 0.25 * (width * height / _P1080) ** 0.35)


def rate_midpoint(width, height, complexity):
    return math.log2(0.9e6 * (width * height / _P1080) ** 0.8) + 1.2 * complexity


def planted_quality(width, height, complexity, bitrate_bps):
    """Saturating quality surface with resolution crossovers.

    Small resolutions saturate early but at a lower ceiling, so the best
    resolution moves upward as the bitrate budget grows.
    """
    x = (math.log2(bitrate_bps) - rate_midpoint(width, height, complexity)) / 1.1
    return quality_cap(width, height) / (1.0 + math.exp(-x))


def clip_records(video_id, complexity):
    records = []
    for width, height in E2E_RESOLUTIONS:
        base = 0.65e6 * (width * height / _P1080) ** 0.9
        for crf in range(18, 41, 2):
            bitrate = base * 2.0 ** ((38 - crf) / 4.0 + 0.3 * complexity)
            quality = planted_quality(width, height, complexity, bitrate)
            records.append(
                dataset.EncodeRecord(video_id, width, height, crf, bitrate, quality)
            )
    return records


def procedural_clip(path, seed, complexity, frames=16, size=96):
    """Moving sinusoidal pattern mixed with per-clip noise energy.

    The noise share tracks the planted complexity, so extracted features
    carry the same content signal the quality surface depends on.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(size) / size
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    planes = []
    for t in range(frames):
        phase = 2.0 * math.pi * t / frames
        base = 0.5 + 0.3 * np.sin(2.0 * math.pi * (3.0 * xx + yy) + phase)
        plane = (1.0 - complexity) * base + complexity * rng.random((size, size))
        planes.append(np.clip(np.rint(plane * 255.0), 0, 255).astype(np.int64))
    return write_y4m(path, planes)


def inverted_fixed_choices():
    """Deliberately misconfigured table: largest resolutions at the lowest rungs."""
    per_res = len(E2E_RUNG_BPS) // len(E2E_RESOLUTIONS)
    return [E2E_RESOLUTIONS[j // per_res] for j in range(len(E2E_RUNG_BPS))]


@pytest.mark.acceptance(name="end-to-end-desk-scale")
def test_end_to_end_desk_scale(tmp_path):
    start = time.monotonic()
    complexities = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85,
                    0.30, 0.50, 0.60, 0.70]
    names = [f"clip{i:02d}" for i in range(12)]
    clips = [
        procedural_clip(tmp_path / f"{name}.y4m", seed=100 + i, complexity=c)
        for i, (name, c) in enumerate(zip(names, complexities))
    ]

    features = tmp_path / "features.csv"
    assert cli.main(["extract", *map(str, clips), "--out", str(features)]) == 0

    per_clip = {name: clip_records(name, c) for name, c in zip(names, complexities)}
    log = tmp_path / "encodes.csv"
    log.write_text(dataset.encode_log_text([r for rs in per_clip.values() for r in rs]))

    split_path = tmp_path / "split.json"
    dataset.save_split(dataset.SplitManifest(0, tuple(names[:8]), (), tuple(names[8:])), split_path)

    models = {}
    for approach in (1, 8):
        out = tmp_path / f"model_a{approach}.txt"
        code = cli.main([
            "train", "--features", str(features), "--encode-log", str(log),
            "--split", str(split_path), "--approach", str(approach),
            "--out", str(out),
        ])
        assert code == 0
        models[approach] = out

    for name in names[8:]:
        reference = ladder.reference_ladder(per_clip[name], E2E_RUNG_BPS)
        ref_curve = bd_metrics.RqCurve.from_ladder(reference)
        misconfigured = ladder.realize_ladder(
            inverted_fixed_choices(), E2E_RUNG_BPS, per_clip[name]
        )
        bad_curve = bd_metrics.RqCurve.from_ladder(misconfigured)
        for approach in (1, 8):
            out = tmp_path / f"{name}_a{approach}.csv"
            code = cli.main([
                "ladder", "--model", str(models[approach]),
                "--features", str(features), "--video", name,
                "--encode-log", str(log), "--rungs", E2E_RUNGS_MBPS,
                "--resolutions", E2E_RES_FLAG, "--out", str(out),
            ])
            assert code == 0
            pred_curve = bd_metrics.RqCurve.from_ladder(ladder.parse_ladder_csv(out))
            loss = bd_metrics.bd_rate(pred_curve, ref_curve)
            assert loss <= 10.0, f"{name} approach {approach}: loss {loss}"
            against_fixed = bd_metrics.bd_rate(pred_curve, bad_curve)
            assert against_fixed < 0.0, f"{name} approach {approach}: {against_fixed}"

    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# determinism of the full pipeline
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="deterministic-artifacts")
def test_repeat_runs_byte_identical(tmp_path):
    per_clip = {name: clip_records(name, c)
                for name, c in (("a", 0.4), ("b", 0.6), ("c", 0.5))}

    def run(workdir):
        workdir.mkdir()
        clips = [
            procedural_clip(workdir / f"{name}.y4m", seed=7 + i, complexity=c, frames=4)
            for i, (name, c) in enumerate((("a", 0.4), ("b", 0.6), ("c", 0.5)))
        ]
        features = workdir / "features.csv"
        assert cli.main(["extract", *map(str, clips), "--out", str(features)]) == 0
        log = workdir / "encodes.csv"
        log.write_text(dataset.encode_log_text([r for rs in per_clip.values() for r in rs]))
        model = workdir / "model.txt"
        assert cli.main([
            "train", "--features", str(features), "--encode-log", str(log),
            "--n-trees", "30", "--seed", "5", "--out", str(model),
        ]) == 0
        out = workdir / "ladder.csv"
        assert cli.main([
            "ladder", "--model", str(model), "--features", str(features),
            "--video", "a", "--encode-log", str(log), "--rungs", E2E_RUNGS_MBPS,
            "--resolutions", E2E_RES_FLAG, "--out", str(out),
        ]) == 0
        return [(features.name, features.read_bytes()),
                (log.name, log.read_bytes()),
                (model.name, model.read_bytes()),
                (out.name, out.read_bytes())]

    assert run(tmp_path / "first") == run(tmp_path / "second")


# ---------------------------------------------------------------------------
# regression engine sanity
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(name="regressor-sanity")
def test_regressor_recovers_noiseless_function():
    rng = np.random.default_rng(61)

    def f(x):
        return (6.0 * x[:, 0] + 2.0 * x[:, 1] * x[:, 2] + 3.0 * np.sin(math.pi * x[:, 3])
                + 2.0 * x[:, 4] ** 2 - x[:, 5] + 0.5 * x[:, 6])

    X_train = rng.random((4000, 7))
    X_test = rng.random((400, 7))
    model = regressor.train(X_train, f(X_train), 1, seed=0)
    preds = regressor.predict_batch(model, X_test)
    assert regressor.r2_score(f(X_test), preds) >= 0.95
