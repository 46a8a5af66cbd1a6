"""SVG and CSV twin bytes of `plot` pinned as sha256 digests.

The digests were computed once, with an earlier version of the package.
Other tests check the number of bars or polylines and that a plot repeats
within one version; these catch any change to the chart frame, the tick
labels, the Freedman-Diaconis bins or the hull overlay that moves output
bytes across versions.
"""

import hashlib

import numpy as np
import pytest

from ladderforge.cli import EXIT_OK, main

REPORT_HEADER = ("video_id,pair,bd_rate_percent,bd_vmaf,quality_lo,quality_hi,"
                 "log2_rate_lo,log2_rate_hi,warnings\n")
LADDER_HEADER = "rung_bps,width,height,crf,realized_bps,vmaf\n"

FROZEN_REPORT = {
    "seeded-bd_rate": (
        "87afd1305e41bee38849decfde60cd18980b16b65453f77964010b2fd950ab23",
        "5b6b744be99e1ce11b84c662f52b9a9946541aa0d78aad4d23a57a4b90f54919",
    ),
    "seeded-bd_vmaf": (
        "048e70025e318ebde97917d90230dbac35fdece1a187e50db5b56ddb87ec1ede",
        "d4ee9b848ed3e6306b932d5d999f3117c53dae4ed019669b028c7f2454941d33",
    ),
    "equal-bd_rate": (
        "e5eddea0d16b4685eed94019664a8df94afff4d87a45491874f699df9aefa619",
        "736e403f3a212d7b83868f73d7a5bd3eb16c9c74cc6eaaf3f8a71b7ba313551a",
    ),
}
FROZEN_LADDERS = {
    3: (
        "f39323706c973f0a8812299f8c9db2e2a3d62d515ee3d25b50a746a0e9686fc5",
        "47f88b90c23996aec44b12ccfb1d935ca3b0f045a8aff70447664c66825ac138",
    ),
    8: (
        "daf51b315beba1192863b7a423e4508b93c4ebb85849c7d9f51d9d92dceea27c",
        "764d82124c2c04685b40c4b038ff3e99059bd538990c96dcdedec3685bfa0628",
    ),
}


def digests(svg):
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (svg, svg.with_suffix(".csv")))


def write_report(path, kind):
    """Forty seeded rows and one warning row, or twelve rows of one value."""
    if kind == "equal":
        rows = [(2.5, -0.75)] * 12
    else:
        rng = np.random.default_rng(16)
        rows = zip(rng.normal(-8.0, 6.0, 40), rng.normal(1.5, 0.8, 40))
    path.write_text(REPORT_HEADER + "".join(
        f"v{i:02d},p,{float(rate)!r},{float(vmaf)!r},40.0,60.0,19.0,21.0,\n"
        for i, (rate, vmaf) in enumerate(rows)
    ) + 'v99,p,,,,,,,"curves share no quality interval: [61.0, 58.0]"\n')


@pytest.mark.parametrize("kind, metric", [("seeded", "bd_rate"), ("seeded", "bd_vmaf"),
                                          ("equal", "bd_rate")])
def test_report_histogram_matches_frozen_digests(tmp_path, kind, metric):
    write_report(tmp_path / "report.csv", kind)
    out = tmp_path / "hist.svg"
    assert main(["plot", "--report", str(tmp_path / "report.csv"), "--metric", metric,
                 "--out", str(out)]) == EXIT_OK
    assert digests(out) == FROZEN_REPORT[f"{kind}-{metric}"]


@pytest.mark.parametrize("n_ladders", sorted(FROZEN_LADDERS))
def test_ladder_hulls_match_frozen_digests(tmp_path, n_ladders):
    # eight ladders pass the six-colour palette, so curves 7 and 8 are dashed
    rng = np.random.default_rng(n_ladders)
    paths = []
    for k in range(n_ladders):
        n_rungs = int(rng.integers(1, 6))
        rates = np.sort(rng.uniform(2e5, 1.2e7, n_rungs))
        vmafs = np.sort(rng.uniform(30.0, 98.0, n_rungs))
        path = tmp_path / f"ladder{k}.csv"
        path.write_text(LADDER_HEADER + "".join(
            f"{float(1e6 * (i + 1))!r},1280,720,30,{float(r)!r},{float(q)!r}\n"
            for i, (r, q) in enumerate(zip(rates, vmafs))
        ))
        paths.append(str(path))
    out = tmp_path / "hulls.svg"
    assert main(["plot", "--ladders", *paths, "--title", "predicted <vs> fixed & reference",
                 "--out", str(out)]) == EXIT_OK
    assert digests(out) == FROZEN_LADDERS[n_ladders]
