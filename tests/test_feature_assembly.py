import math

import numpy as np
import pytest

from ladderforge import feature_assembly as fa
from ladderforge import gsm_vif
from ladderforge.errors import SchemaError

from helpers import split_plane


def make_tensor(frames=2, seed=0):
    rng = np.random.default_rng(seed)
    frame_list = [rng.random(84) for _ in range(frames)]
    diff_list = [rng.random(84) for _ in range(frames - 1)]
    motions = list(rng.random(max(frames - 1, 0)))
    return gsm_vif.pool_video(frame_list, diff_list, motions)


EXPECTED_LENGTHS = {1: 7, 2: 11, 3: 75, 4: 8, 5: 12, 6: 76, 7: 12, 8: 20, 9: 148}


def test_documented_lengths():
    assert fa.APPROACH_FEATURE_LENGTHS == EXPECTED_LENGTHS


def assemble_one(approach, tensor, bps=1_000_000, width=960, height=540):
    """The single row of a one-encode design matrix."""
    X = fa.assemble(approach, [tensor], [bps], [width], [height])
    assert X.shape == (1, EXPECTED_LENGTHS[approach]) and X.dtype == np.float64
    return X[0]


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_assembled_length_matches_table(approach):
    tensor = make_tensor()
    row = assemble_one(approach, tensor, 2_000_000, 1920, 1080)
    assert row.shape == (EXPECTED_LENGTHS[approach],)
    assert len(fa.column_names(approach)) == EXPECTED_LENGTHS[approach]


def test_meta_columns_values():
    row = assemble_one(1, make_tensor(), 2_000_000, 1920, 1080)
    assert row[-3] == pytest.approx(math.log(2_000_000, 2), abs=1e-12)
    assert row[-2] == 0.5
    assert row[-1] == pytest.approx(1080 / 3840, abs=1e-15)


def test_meta_columns_power_of_two():
    row = assemble_one(1, make_tensor(), 2_097_152, 3840, 2160)
    assert row[-3] == 21.0
    assert row[-2] == 1.0
    assert row[-1] == 0.5625


@pytest.mark.parametrize("bps", [104703, 107177, 110806])
def test_log2_column_is_math_log2_bit_for_bit(bps):
    """np.log2 rounds these rates differently; the column must not follow it."""
    X = fa.assemble(8, [make_tensor()] * 2, [bps, float(bps)], [960, 960], [540, 540])
    assert X[0, -3].tobytes() == X[1, -3].tobytes() == np.float64(math.log2(bps)).tobytes()


def test_metadata_occupies_final_three_slots():
    tensor = make_tensor()
    for approach in range(1, 10):
        row = assemble_one(approach, tensor, 2_097_152, 1920, 1080)
        assert row[-3] == 21.0
        assert row[-2] == 0.5
        assert row[-1] == pytest.approx(0.28125)
        names = fa.column_names(approach)
        assert names[-3:] == ["log2_bitrate", "width_scaled", "height_scaled"]


def test_approach1_is_per_scale_plus_meta():
    tensor = make_tensor()
    row = assemble_one(1, tensor)
    _, _, per_scale = split_plane(tensor.values[:84])
    assert np.array_equal(row[:4], per_scale)


def test_approach8_block_order():
    tensor = make_tensor()
    row = assemble_one(8, tensor)
    _, frame_band, _ = split_plane(tensor.values[:84])
    _, diff_band, _ = split_plane(tensor.values[84:168])
    assert np.array_equal(row[:8], frame_band.ravel())
    assert row[8] == tensor.values[168]
    assert np.array_equal(row[9:17], diff_band.ravel())


def test_approach9_block_order():
    tensor = make_tensor()
    row = assemble_one(9, tensor)
    frame_eig, _, _ = split_plane(tensor.values[:84])
    diff_eig, _, _ = split_plane(tensor.values[84:168])
    assert np.array_equal(row[:72], frame_eig.ravel())
    assert row[72] == tensor.values[168]
    assert np.array_equal(row[73:145], diff_eig.ravel())


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_matrix_rows_are_the_encodes_in_order(approach):
    tensors = [make_tensor(frames=3, seed=s) for s in range(4)]
    bitrates, widths, heights = [3e5, 1e6, 2.5e6, 8e6], [640, 960, 1280, 1920], [360, 540, 720, 1080]
    X = fa.assemble(approach, tensors, bitrates, widths, heights)
    names = gsm_vif.feature_column_names()
    positions = [names.index(c) for c in fa.column_names(approach)[:-3]]
    expected = [list(t.values[positions]) + [math.log2(b), w / 3840, h / 3840]
                for t, b, w, h in zip(tensors, bitrates, widths, heights)]
    assert np.array_equal(X, expected)


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_no_encodes_give_an_empty_matrix(approach):
    X = fa.assemble(approach, [], [], [], [])
    assert X.shape == (0, EXPECTED_LENGTHS[approach]) and X.dtype == np.float64


@pytest.mark.parametrize("approach", [4, 5, 6, 7, 8, 9])
def test_single_frame_video_lacks_diff_features(approach):
    tensor = make_tensor(frames=1)
    with pytest.raises(SchemaError, match="needs frame-difference features"):
        assemble_one(approach, tensor)
    # one still video among moving ones fails the whole matrix
    with pytest.raises(SchemaError, match="video has 1 frame"):
        fa.assemble(approach, [make_tensor(), tensor], [1e6] * 2, [960] * 2, [540] * 2)


@pytest.mark.parametrize("approach", [1, 2, 3])
def test_single_frame_video_fine_for_frame_only_approaches(approach):
    tensor = make_tensor(frames=1)
    row = assemble_one(approach, tensor)
    assert row.shape == (EXPECTED_LENGTHS[approach],)


@pytest.mark.parametrize("approach", [0, 10, -3])
def test_unknown_approach(approach):
    tensor = make_tensor()
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        fa.assemble(approach, [tensor], [1_000_000], [960], [540])
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        fa.assemble(approach, [], [], [], [])
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        fa.column_names(approach)


def test_nonpositive_bitrate():
    with pytest.raises(SchemaError, match="bitrate must be > 0 bps, got 0"):
        assemble_one(1, make_tensor(), 0)
    with pytest.raises(SchemaError, match="bitrate must be > 0 bps, got -5"):
        fa.assemble(1, [make_tensor()] * 2, [1e6, -5], [960] * 2, [540] * 2)


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_approach_is_a_pick_of_feature_columns(approach):
    """One layout: an approach's names and values are features-CSV columns at the same positions."""
    # a tensor whose every value is its own column index shows the positions used
    marker = gsm_vif.VifFeatureTensor(np.arange(169.0), 3)
    positions = assemble_one(approach, marker)[:-3].astype(int)
    assert len(set(positions)) == len(positions)
    csv_names = gsm_vif.feature_column_names()
    assert fa.column_names(approach)[:-3] == [csv_names[i] for i in positions]
    tensor = make_tensor(frames=3, seed=4)
    assert np.array_equal(assemble_one(approach, tensor)[:-3], tensor.values[positions])
