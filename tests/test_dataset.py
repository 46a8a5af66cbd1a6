import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import dataset, feature_assembly as fa
from ladderforge.errors import (
    DuplicateKey,
    MissingTensor,
    RangeError,
    SchemaError,
    TooFewVideos,
)

from test_feature_assembly import make_tensor

RESOLUTIONS = [
    (3840, 2160), (2560, 1440), (1920, 1080), (1280, 720),
    (960, 540), (768, 432), (640, 360), (512, 288),
]


def sample_records(video_ids=("a",), crfs=range(18, 51)):
    records = []
    for vid in video_ids:
        for w, h in RESOLUTIONS:
            for crf in crfs:
                bitrate = (w * h) * 40.0 / (crf - 10)
                vmaf = min(100.0, 110.0 - crf - 2e6 / (w * h))
                records.append(dataset.EncodeRecord(vid, w, h, crf, bitrate, max(vmaf, 0.0)))
    return records


def test_full_grid_round_trip(tmp_path):
    records = sample_records()
    assert len(records) == 8 * 33 == 264
    path = tmp_path / "log.csv"
    dataset.write_encode_log(records, path)
    parsed = dataset.parse_encode_log(path)
    assert parsed == records


def test_emitted_log_round_trips_bit_identically(tmp_path):
    records = sample_records(("a", "b"))
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    dataset.write_encode_log(records, p1)
    dataset.write_encode_log(dataset.parse_encode_log(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _write(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_text(text)
    return path


def test_header_must_match_schema(tmp_path):
    bad = "video,width,height,crf,bitrate_bps,vmaf\na,640,360,20,1000,50\n"
    with pytest.raises(SchemaError):
        dataset.parse_encode_log(_write(tmp_path, bad))


def test_non_numeric_field(tmp_path):
    bad = ("video_id,width,height,crf,bitrate_bps,vmaf\n"
           "a,640,360,twenty,1000,50\n")
    with pytest.raises(SchemaError):
        dataset.parse_encode_log(_write(tmp_path, bad))


def test_short_row(tmp_path):
    bad = "video_id,width,height,crf,bitrate_bps,vmaf\na,640,360,20,1000\n"
    with pytest.raises(SchemaError):
        dataset.parse_encode_log(_write(tmp_path, bad))


@pytest.mark.parametrize("crf,bitrate,vmaf", [
    (17, 1000, 50),    # crf below range
    (51, 1000, 50),    # crf above range
    (20, 0, 50),       # nonpositive bitrate
    (20, -10, 50),
    (20, 1000, -0.5),  # vmaf below range
    (20, 1000, 100.5),
])
def test_out_of_range_fields(tmp_path, crf, bitrate, vmaf):
    text = ("video_id,width,height,crf,bitrate_bps,vmaf\n"
            f"a,640,360,{crf},{bitrate},{vmaf}\n")
    with pytest.raises(RangeError):
        dataset.parse_encode_log(_write(tmp_path, text))


def test_non_finite_bitrate_rejected(tmp_path):
    rows = ["a,640,360,20,nan,50", "a,640,360,22,inf,48"]
    for order in (rows, rows[::-1]):
        text = "video_id,width,height,crf,bitrate_bps,vmaf\n" + "\n".join(order) + "\n"
        with pytest.raises(RangeError, match="line 2: bitrate"):
            dataset.parse_encode_log(_write(tmp_path, text))


def test_crf_bounds_inclusive(tmp_path):
    text = ("video_id,width,height,crf,bitrate_bps,vmaf\n"
            "a,640,360,18,1000,0\n"
            "a,640,360,50,900,100\n")
    records = dataset.parse_encode_log(_write(tmp_path, text))
    assert [r.crf for r in records] == [18, 50]


def test_duplicate_key(tmp_path):
    text = ("video_id,width,height,crf,bitrate_bps,vmaf\n"
            "a,640,360,20,1000,50\n"
            "a,640,360,20,1100,51\n")
    with pytest.raises(DuplicateKey):
        dataset.parse_encode_log(_write(tmp_path, text))


def test_resolution_set_enforced_when_given(tmp_path):
    text = ("video_id,width,height,crf,bitrate_bps,vmaf\n"
            "a,644,362,20,1000,50\n")
    path = _write(tmp_path, text)
    # permissive without a configured set
    assert len(dataset.parse_encode_log(path)) == 1
    with pytest.raises(RangeError):
        dataset.parse_encode_log(path, resolutions=RESOLUTIONS)


def test_split_sizes_ten_videos():
    ids = [f"v{i}" for i in range(10)]
    split = dataset.make_split(ids, seed=1)
    assert (len(split.train), len(split.validation), len(split.test)) == (7, 1, 2)


def test_split_sizes_hundred_videos():
    ids = [f"v{i:03d}" for i in range(100)]
    split = dataset.make_split(ids, seed=9)
    assert (len(split.train), len(split.validation), len(split.test)) == (70, 10, 20)


def test_split_remainder_goes_to_train():
    ids = [f"v{i}" for i in range(11)]
    split = dataset.make_split(ids, seed=2)
    # floors are (7, 1, 2); the leftover video lands in train
    assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 2)


def test_split_deterministic_and_seed_sensitive():
    ids = [f"v{i}" for i in range(20)]
    a = dataset.make_split(ids, seed=5)
    b = dataset.make_split(ids, seed=5)
    assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)
    different = [dataset.make_split(ids, seed=s).train for s in range(6)]
    assert len({tuple(t) for t in different}) > 1


def test_split_order_of_input_does_not_matter():
    ids = [f"v{i}" for i in range(15)]
    a = dataset.make_split(ids, seed=3)
    b = dataset.make_split(list(reversed(ids)), seed=3)
    assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_split_partitions_corpus(n, seed):
    ids = [f"v{i}" for i in range(n)]
    split = dataset.make_split(ids, seed=seed)
    parts = [set(split.train), set(split.validation), set(split.test)]
    assert parts[0] | parts[1] | parts[2] == set(ids)
    assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
    assert len(split.train) >= int(0.7 * n)


def test_split_too_few():
    with pytest.raises(TooFewVideos):
        dataset.make_split(["a", "b"], seed=0)


def test_split_duplicate_ids_rejected():
    with pytest.raises(TooFewVideos):
        dataset.make_split(["a", "b", "b"], seed=0)


def test_manifest_round_trip(tmp_path):
    split = dataset.make_split([f"v{i}" for i in range(12)], seed=77)
    path = tmp_path / "split.json"
    dataset.save_split(split, path)
    loaded = dataset.load_split(path)
    assert loaded == split
    assert loaded.seed == 77


def test_manifest_overlap_rejected(tmp_path):
    split = dataset.make_split([f"v{i}" for i in range(12)], seed=77)
    path = tmp_path / "split.json"
    dataset.save_split(split, path)
    text = path.read_text().replace(split.test[0], split.train[0])
    path.write_text(text)
    with pytest.raises(SchemaError):
        dataset.load_split(path)


def test_build_training_matrix_targets_and_order():
    records = sample_records(("a", "b"), crfs=[20, 30])
    tensors = {"a": make_tensor(seed=1), "b": make_tensor(seed=2)}
    rows = dataset.build_training_matrix(records, tensors, approach=8)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        vec, target = row
        assert target == record.vmaf / 100.0
        assert vec.approach == 8
        assert vec.values[-3] == np.log2(record.bitrate_bps)


def test_build_training_matrix_missing_tensor():
    records = sample_records(("a", "mystery"), crfs=[20])
    with pytest.raises(MissingTensor):
        dataset.build_training_matrix(records, {"a": make_tensor()}, approach=1)
