import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderforge import regressor
from ladderforge.errors import SchemaError


def make_rows(n, seed=0, fn=None):
    """(X, y) over the 7-column layout of approach 1."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 7))
    if fn is None:
        fn = lambda x: 0.3 * x[0] + 0.1 * x[1]
    return X, np.array([float(fn(x)) for x in X])


def predict(model, x):
    """The ensemble's prediction for one feature row."""
    return float(regressor.predict_batch(model, x[None, :])[0])


def test_constant_target_collapses_to_leaves():
    X, _ = make_rows(50)
    model = regressor.train(X, np.full(50, 0.42), 1, n_trees=10, seed=1)
    for tree in model.trees:
        assert len(tree.feature) == 1 and tree.feature[0] == -1
    for x in X[:5]:
        assert predict(model, x) == 0.42


def test_noiseless_linear_function_r2():
    X, y = make_rows(500, seed=1)
    X_test, truth = make_rows(200, seed=2)
    model = regressor.train(X, y, 1, seed=3)
    preds = [predict(model, x) for x in X_test]
    assert regressor.r2_score(truth, preds) >= 0.95


def test_predictions_within_training_target_range():
    X, targets = make_rows(200, seed=4, fn=lambda x: np.sin(8 * x[0]) + 0.2 * x[2])
    model = regressor.train(X, targets, 1, n_trees=20, seed=5)
    query, _ = make_rows(100, seed=6)
    for x in query:
        p = predict(model, x)
        assert min(targets) <= p <= max(targets)


def test_min_samples_leaf_honoured():
    X, y = make_rows(120, seed=7)
    model = regressor.train(
        X, y, 1, n_trees=5, min_samples_leaf=5, seed=8
    )
    for tree in model.trees:
        counts = np.zeros(len(tree.feature), dtype=int)
        for x in X:
            i = 0
            while tree.feature[i] >= 0:
                i = i + 1 if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
            counts[i] += 1
        leaf_mask = tree.feature == -1
        assert np.all(counts[leaf_mask] >= 5)


def test_training_is_deterministic(tmp_path):
    X, y = make_rows(80, seed=9)
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    regressor.save_model(regressor.train(X, y, 1, n_trees=12, seed=10), a)
    regressor.save_model(regressor.train(X, y, 1, n_trees=12, seed=10), b)
    assert a.read_bytes() == b.read_bytes()


def test_row_order_does_not_matter(tmp_path):
    X, y = make_rows(80, seed=11)
    shuffled = np.random.default_rng(0).permutation(len(y))
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    regressor.save_model(regressor.train(X, y, 1, n_trees=8, seed=12), a)
    regressor.save_model(regressor.train(X[shuffled], y[shuffled], 1, n_trees=8, seed=12), b)
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_model(tmp_path):
    X, y = make_rows(80, seed=13)
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    regressor.save_model(regressor.train(X, y, 1, n_trees=4, seed=1), a)
    regressor.save_model(regressor.train(X, y, 1, n_trees=4, seed=2), b)
    assert a.read_bytes() != b.read_bytes()


def test_per_tree_seeds_share_prefix():
    X, targets = make_rows(60, seed=14)
    small = regressor.train(X, targets, 1, n_trees=6, seed=20)
    grown = regressor.train(X, targets, 1, n_trees=7, seed=20)
    for ta, tb in zip(small.trees, grown.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.value, tb.value)
    # ensemble mean moves by at most (max - min) / n_trees when a tree joins
    spread = max(targets) - min(targets)
    for x in X[:10]:
        delta = abs(predict(grown, x) - predict(small, x))
        assert delta <= spread / 7 + 1e-12


def assert_tree_follows_the_rules(tree, X, y, min_leaf):
    """Walk the training rows down the tree and check every node against them."""
    members = {0: np.arange(len(y))}
    for i in range(len(tree.feature)):
        rows = members.pop(i)
        if tree.feature[i] >= 0:
            xs = X[rows, tree.feature[i]]
            assert xs.min() < tree.threshold[i] < xs.max()
            goes_left = xs <= tree.threshold[i]
            assert min(goes_left.sum(), (~goes_left).sum()) >= min_leaf
            members[i + 1] = rows[goes_left]  # pre-order
            members[tree.right[i]] = rows[~goes_left]
        elif y[rows].min() == y[rows].max():
            assert tree.value[i] == y[rows][0]
        else:
            # with one-row leaves allowed, every in-range threshold splits
            assert min_leaf > 1 or np.all(X[rows] == X[rows][0])
            assert tree.value[i] == pytest.approx(y[rows].mean(), rel=1e-12)
    assert not members


@pytest.mark.parametrize("min_leaf", [1, 3])
def test_every_node_follows_the_growth_rules(min_leaf):
    X, y = make_rows(150, seed=21, fn=lambda x: np.sin(6 * x[0]) + x[3])
    # repeated rows: nodes whose features are all constant
    X, y = np.concatenate([X, X[:20]]), np.concatenate([y, y[:20]])
    model = regressor.train(
        X, y, 1, n_trees=4, min_samples_leaf=min_leaf, seed=22
    )
    for tree in model.trees:
        assert_tree_follows_the_rules(tree, X, y, min_leaf)


def pending_stack_children(feature):
    """Left and right children by a stack walk over the pre-order nodes.

    The oracle for regressor._right_children: each split waits on the
    stack for its left child, then for its right child.
    """
    left = np.full(len(feature), -1)
    right = np.full(len(feature), -1)
    pending = []  # [split, next slot is left?]
    for node, f in enumerate(feature):
        if pending:
            parent, want_left = pending[-1]
            if want_left:
                left[parent] = node
                pending[-1][1] = False
            else:
                right[parent] = node
                pending.pop()
        elif node:
            raise ValueError("dangling node outside any branch")
        if f >= 0:
            pending.append([node, True])
    if pending:
        raise ValueError("tree truncated mid-branch")
    return left, right


def random_preorder_tree(rng, n_splits):
    """Features of a random whole tree: a leaf that becomes a split with two
    leaf children is, in pre-order, one node replaced by three."""
    feature = [-1]
    for _ in range(n_splits):
        i = rng.choice(np.flatnonzero(np.array(feature) < 0))
        feature[i:i + 1] = [int(rng.integers(0, 20)), -1, -1]
    return np.array(feature, dtype=np.int32)


def test_right_children_match_the_stack_walk_on_whole_trees():
    rng = np.random.default_rng(30)
    for n_splits in [0, 1, 2, 3, 5, 8, 13, 40, 200] * 5:
        feature = random_preorder_tree(rng, n_splits)
        left, right = pending_stack_children(feature)
        got = regressor._right_children(feature)
        assert got.dtype == np.int32
        assert np.array_equal(got, right)
        assert np.array_equal(left[feature >= 0], np.flatnonzero(feature >= 0) + 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=30))
def test_right_children_reject_what_the_stack_walk_rejects(splits):
    feature = np.where(splits, 3, -1).astype(np.int32)
    try:
        _, want = pending_stack_children(feature)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            regressor._right_children(feature)
    else:
        assert np.array_equal(regressor._right_children(feature), want)


def test_equal_cost_splits_take_the_lowest_feature():
    # columns 4-6 copy columns 0-2, so a copy splits every node exactly as
    # its original does; with all seven features drawn, the two always tie
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, size=(200, 4)).astype(float)
    X = np.column_stack([bits, bits[:, :3]])
    y = bits @ [0.4, 0.3, 0.2, 0.1] + 0.01 * rng.random(200)
    model = regressor.train(X, y, 1, n_trees=10, k_features=7, seed=24)
    used = {int(f) for tree in model.trees for f in tree.feature if f >= 0}
    assert used == {0, 1, 2, 3}


def test_distinct_rows_are_predicted_exactly():
    X, y = make_rows(300, seed=25, fn=lambda x: x[0] * x[1] + x[2])
    model = regressor.train(X, y, 1, n_trees=5, seed=26)
    assert np.array_equal(regressor.predict_batch(model, X), y)


def tree_by_tree_predictions(model, X):
    """Each tree walked on its own, then the votes added in tree order.

    The oracle for regressor.predict_batch, which walks every tree at once.
    """
    votes = []
    for tree in model.trees:
        idx = np.zeros(len(X), dtype=np.int64)
        active = np.flatnonzero(tree.feature[idx] >= 0)
        while active.size:
            cur = idx[active]
            go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
            nxt = np.where(go_left, cur + 1, tree.right[cur])
            idx[active] = nxt
            active = active[tree.feature[nxt] >= 0]
        votes.append(tree.value[idx])
    total = np.zeros(len(X))
    for vote in votes:
        total += vote
    return np.clip(total / len(votes), np.min(votes, axis=0), np.max(votes, axis=0))


def test_trees_walked_at_once_predict_what_each_walked_alone_does():
    X, y = make_rows(200, seed=43, fn=lambda x: x[0] - x[3] * x[5])
    model = regressor.train(X, y, 1, n_trees=30, seed=44)
    queries = np.random.default_rng(45).random((96, 7))
    queries[:5] = X[:5]
    for rows in (queries, queries[:1], queries[:0]):
        want = tree_by_tree_predictions(model, rows)
        assert regressor.predict_batch(model, rows).tobytes() == want.tobytes()


def test_model_bytes_repeat_in_a_separate_process(tmp_path):
    script = (
        "import sys\n"
        "from test_regressor import make_rows\n"
        "from ladderforge import regressor\n"
        "model = regressor.train(*make_rows(120, seed=27), 1, "
        "n_trees=6, seed=28)\n"
        "regressor.save_model(model, sys.argv[1])\n"
    )
    here = tmp_path / "here.model"
    there = tmp_path / "there.model"
    model = regressor.train(*make_rows(120, seed=27), 1, n_trees=6, seed=28)
    regressor.save_model(model, here)
    paths = [Path(regressor.__file__).parents[1], Path(__file__).parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    subprocess.run([sys.executable, "-c", script, str(there)], check=True, env=env)
    assert here.read_bytes() == there.read_bytes()


def test_save_load_round_trip(tmp_path):
    model = regressor.train(*make_rows(100, seed=15), 1, n_trees=10, seed=16)
    path = tmp_path / "m.model"
    regressor.save_model(model, path)
    loaded = regressor.load_model(path)
    assert loaded.approach == model.approach
    assert loaded.columns == model.columns
    query, _ = make_rows(30, seed=17)
    for x in query:
        assert predict(loaded, x) == predict(model, x)
    # byte-stable re-save
    path2 = tmp_path / "m2.model"
    regressor.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_version_mismatch(tmp_path):
    model = regressor.train(*make_rows(30), 1, n_trees=2, seed=0)
    path = tmp_path / "m.model"
    regressor.save_model(model, path)
    text = path.read_text().replace("extra-trees v1", "extra-trees v9", 1)
    path.write_text(text)
    with pytest.raises(SchemaError, match="found 'ladderforge-extra-trees v9'"):
        regressor.load_model(path)


def test_corrupt_model_checksum(tmp_path):
    model = regressor.train(*make_rows(30), 1, n_trees=2, seed=0)
    path = tmp_path / "m.model"
    regressor.save_model(model, path)
    data = path.read_bytes()
    tampered = data.replace(b"l ", b"l 9", 1)
    path.write_bytes(tampered)
    with pytest.raises(SchemaError, match="body checksum mismatch"):
        regressor.load_model(path)


def test_truncated_model(tmp_path):
    model = regressor.train(*make_rows(30), 1, n_trees=2, seed=0)
    path = tmp_path / "m.model"
    regressor.save_model(model, path)
    path.write_bytes(path.read_bytes()[:-60])
    with pytest.raises(SchemaError, match="body checksum mismatch"):
        regressor.load_model(path)


def test_empty_training_set():
    with pytest.raises(SchemaError, match="no training rows"):
        regressor.train(np.empty((0, 7)), np.empty(0), 1, seed=0)


def test_train_rejects_fewer_than_one_tree():
    # the rule and message load_model and validate_config apply to the same field
    X, y = make_rows(5)
    for n_trees in (0, -1):
        with pytest.raises(SchemaError, match=f"^n_trees must be >= 1, got {n_trees}$"):
            regressor.train(X, y, 1, n_trees=n_trees, seed=0)


@pytest.mark.parametrize("where, value", [("X", np.nan), ("X", np.inf), ("X", -np.inf),
                                          ("y", np.nan), ("y", -np.inf)])
def test_train_rejects_values_that_are_not_finite(where, value):
    X, y = make_rows(10, seed=7)
    if where == "X":
        X[4, 2] = value
    else:
        y[4] = value
    with pytest.raises(SchemaError, match=f"^{where} holds a value that is not finite$"):
        regressor.train(X, y, 1, n_trees=2, seed=0)


def test_inconsistent_layout():
    X, y = make_rows(10, seed=18)
    # an approach-4 width, a target short, a column matrix for the targets
    for bad_X, bad_y in [(np.hstack([X, X[:, :1]]), y), (X, y[:-1]), (X, y[:, None])]:
        with pytest.raises(SchemaError, match=r"approach 1 takes an \(n, 7\) X and an \(n,\) y"):
            regressor.train(bad_X, bad_y, 1, seed=0)
    with pytest.raises(SchemaError, match="approach must be 1..9, got 11"):
        regressor.train(X, y, 11, seed=0)


def test_layout_mismatch_on_predict():
    model = regressor.train(*make_rows(30), 1, n_trees=2, seed=0)
    with pytest.raises(SchemaError, match=r"expected \(n, 7\) query, got shape \(1, 8\)"):
        predict(model, np.zeros(8))


def test_default_k_is_ceil_third():
    model = regressor.train(*make_rows(40, seed=19), 1, n_trees=2, seed=0)
    assert model.k_features == 3  # ceil(7 / 3)


def test_r2_and_spearman_helpers():
    y = [1.0, 2.0, 3.0, 4.0]
    assert regressor.r2_score(y, y) == 1.0
    assert regressor.r2_score(y, [2.5] * 4) == 0.0
    assert regressor.spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert regressor.spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
    # monotone but nonlinear is still a perfect rank correlation
    assert regressor.spearman_rho([1, 2, 3, 4], [1, 8, 27, 64]) == pytest.approx(1.0)
    # tied values share the mean of the ranks they span
    assert regressor._average_ranks(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1, 2.5, 2.5, 4]
    assert regressor._average_ranks(np.array([3.0, 2.0, 1.0, 2.0])).tolist() == [4, 2.5, 1, 2.5]
    assert regressor._average_ranks(np.array([5.0, 5.0, 5.0])).tolist() == [2, 2, 2]
