"""Model and metrics bytes of a seeded train run pinned as sha256 digests.

The digests were computed once, with an earlier version of the package.
Other tests check that a run repeats within one version; these catch a
change that moves model bytes across versions, as a last-bit change in
one feature column would. The lowest
encodes of three clips sit at 104703, 107177 and 110806 bps, where
numpy's log2 and math.log2 round differently.
"""

import hashlib

import numpy as np
import pytest

from ladderforge.cli import EXIT_OK, FEATURE_ID_COLUMNS, main
from ladderforge.gsm_vif import TENSOR_VALUE_COUNT, feature_column_names

LOW_RATES = (104703, 107177, 110806)

FROZEN = {
    1: (
        "58ba716709cab5fad3dba99a2861c60c82309f6950b3c588d94bcceecae3568e",
        "7359054d2c7dbf4e2d1d207f8256f344df420cc72d6479aea2af7281ccbb0896",
    ),
    8: (
        "c4059700853d4cce3038d29346402b41e7ff38b2230f770dd6a36b6b876c060e",
        "e58a4ec887b8a79491dcf3e4536cda87b12af6bc7a0d671d5b66da37a6a13896",
    ),
    9: (
        "0f76740c01698ebd03f580588097f3b5f5bcc14e1a17753ec3db57ead16d14c9",
        "dc49d68ad0619a54ac789746c644da1950a3316013b7ac21f9ab025effca0ec4",
    ),
}


def write_corpus(root):
    """Features and an encode log of 12 clips, every field a repr of a seeded draw."""
    rng = np.random.default_rng(2024)
    ids = [f"clip{i:02d}" for i in range(12)]
    features = [",".join(feature_column_names() + list(FEATURE_ID_COLUMNS))]
    log = ["video_id,width,height,crf,bitrate_bps,vmaf"]
    for i, vid in enumerate(ids):
        values = rng.random(TENSOR_VALUE_COUNT)
        features.append(",".join([repr(float(v)) for v in values] + [vid, "1280", "720", "8", "3"]))
        for w, h in ((1280, 720), (640, 360)):
            for crf in range(20, 44, 4):
                bps = int(rng.integers(200_000, 20_000_000))
                if (w, crf) == (640, 40) and i < len(LOW_RATES):
                    bps = LOW_RATES[i]
                vmaf = 90.0 - 1.5 * (crf - 20) - (8.0 if w == 640 else 0.0) + 8.0 * values[i]
                log.append(f"{vid},{w},{h},{crf},{float(bps)!r},{float(vmaf)!r}")
    (root / "features.csv").write_text("\n".join(features) + "\n")
    (root / "encodes.csv").write_text("\n".join(log) + "\n")


@pytest.mark.parametrize("approach", sorted(FROZEN))
def test_seeded_train_run_matches_frozen_digests(tmp_path, approach):
    write_corpus(tmp_path)
    model = tmp_path / "model.txt"
    assert main(["train", "--features", str(tmp_path / "features.csv"),
                 "--encode-log", str(tmp_path / "encodes.csv"), "--approach", str(approach),
                 "--n-trees", "6", "--seed", "5", "--out", str(model)]) == EXIT_OK
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest(model), digest(tmp_path / "model.txt.metrics.json")) == FROZEN[approach]
