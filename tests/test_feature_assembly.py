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


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_assembled_length_matches_table(approach):
    tensor = make_tensor()
    meta = fa.EncodeMeta(2_000_000, 1920, 1080)
    vec = fa.assemble(approach, tensor, meta)
    assert vec.values.shape == (EXPECTED_LENGTHS[approach],)
    assert len(fa.column_names(approach)) == EXPECTED_LENGTHS[approach]


def test_normalize_meta_values():
    meta = fa.EncodeMeta(2_000_000, 1920, 1080)
    out = fa.normalize_meta(meta)
    assert out[0] == pytest.approx(math.log(2_000_000, 2), abs=1e-12)
    assert out[1] == 0.5
    assert out[2] == pytest.approx(1080 / 3840, abs=1e-15)


def test_normalize_meta_power_of_two():
    out = fa.normalize_meta(fa.EncodeMeta(2_097_152, 3840, 2160))
    assert out[0] == 21.0
    assert out[1] == 1.0
    assert out[2] == 0.5625


def test_metadata_occupies_final_three_slots():
    tensor = make_tensor()
    meta = fa.EncodeMeta(2_097_152, 1920, 1080)
    for approach in range(1, 10):
        vec = fa.assemble(approach, tensor, meta)
        assert vec.values[-3] == 21.0
        assert vec.values[-2] == 0.5
        assert vec.values[-1] == pytest.approx(0.28125)
        names = fa.column_names(approach)
        assert names[-3:] == ["log2_bitrate", "width_scaled", "height_scaled"]


def test_approach1_is_per_scale_plus_meta():
    tensor = make_tensor()
    vec = fa.assemble(1, tensor, fa.EncodeMeta(1_000_000, 960, 540))
    _, _, per_scale = split_plane(tensor.values[:84])
    assert np.array_equal(vec.values[:4], per_scale)


def test_approach8_block_order():
    tensor = make_tensor()
    vec = fa.assemble(8, tensor, fa.EncodeMeta(1_000_000, 960, 540))
    _, frame_band, _ = split_plane(tensor.values[:84])
    _, diff_band, _ = split_plane(tensor.values[84:168])
    assert np.array_equal(vec.values[:8], frame_band.ravel())
    assert vec.values[8] == tensor.values[168]
    assert np.array_equal(vec.values[9:17], diff_band.ravel())


def test_approach9_block_order():
    tensor = make_tensor()
    vec = fa.assemble(9, tensor, fa.EncodeMeta(1_000_000, 960, 540))
    frame_eig, _, _ = split_plane(tensor.values[:84])
    diff_eig, _, _ = split_plane(tensor.values[84:168])
    assert np.array_equal(vec.values[:72], frame_eig.ravel())
    assert vec.values[72] == tensor.values[168]
    assert np.array_equal(vec.values[73:145], diff_eig.ravel())


@pytest.mark.parametrize("approach", [4, 5, 6, 7, 8, 9])
def test_single_frame_video_lacks_diff_features(approach):
    tensor = make_tensor(frames=1)
    with pytest.raises(SchemaError, match="needs frame-difference features"):
        fa.assemble(approach, tensor, fa.EncodeMeta(1_000_000, 960, 540))


@pytest.mark.parametrize("approach", [1, 2, 3])
def test_single_frame_video_fine_for_frame_only_approaches(approach):
    tensor = make_tensor(frames=1)
    vec = fa.assemble(approach, tensor, fa.EncodeMeta(1_000_000, 960, 540))
    assert vec.values.shape == (EXPECTED_LENGTHS[approach],)


@pytest.mark.parametrize("approach", [0, 10, -3])
def test_unknown_approach(approach):
    tensor = make_tensor()
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        fa.assemble(approach, tensor, fa.EncodeMeta(1_000_000, 960, 540))
    with pytest.raises(SchemaError, match="approach must be 1..9"):
        fa.column_names(approach)


def test_nonpositive_bitrate():
    with pytest.raises(SchemaError, match="bitrate must be > 0 bps, got 0"):
        fa.normalize_meta(fa.EncodeMeta(0, 960, 540))
    with pytest.raises(SchemaError, match="bitrate must be > 0 bps, got -5"):
        fa.assemble(1, make_tensor(), fa.EncodeMeta(-5, 960, 540))


def test_feature_vector_validates_length():
    with pytest.raises(SchemaError, match="approach must be 1..9, got 11"):
        fa.FeatureVector(11, np.zeros(7))
    with pytest.raises(ValueError):
        fa.FeatureVector(1, np.zeros(9))


@pytest.mark.parametrize("approach", sorted(EXPECTED_LENGTHS))
def test_approach_is_a_pick_of_feature_columns(approach):
    """One layout: an approach's names and values are features-CSV columns at the same positions."""
    meta = fa.EncodeMeta(1_000_000, 960, 540)
    # a tensor whose every value is its own column index shows the positions used
    marker = gsm_vif.VifFeatureTensor(np.arange(169.0), 3)
    positions = fa.assemble(approach, marker, meta).values[:-3].astype(int)
    assert len(set(positions)) == len(positions)
    csv_names = gsm_vif.feature_column_names()
    assert fa.column_names(approach)[:-3] == [csv_names[i] for i in positions]
    tensor = make_tensor(frames=3, seed=4)
    assert np.array_equal(fa.assemble(approach, tensor, meta).values[:-3], tensor.values[positions])
