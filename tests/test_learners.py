import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from asbench import learners, selectors
from asbench.learners import KNN, Forest, KMeans, _join, fit_forest, fit_forests, fit_kmeans, rng_stream
from asbench.selectors import (
    Hyperparameters,
    Preprocess,
    TrainingSet,
    fit_pairwise,
    fit_regression,
    fit_stacking,
)

from oracles import (
    grow_tree,
    oracle_grow_tree,
    oracle_kmeans_assign,
    oracle_knn_neighbors,
    oracle_pairwise_classifiers,
    oracle_regression_forests,
    oracle_stacking,
    oracle_tree_predict,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)
FOREST_ARRAYS = ("roots", "feature", "threshold", "left", "right", "value", "dist")


class TestRngStream:
    def test_reproducible_and_independent(self):
        a = rng_stream(7, 1, 2).random(4)
        b = rng_stream(7, 1, 2).random(4)
        c = rng_stream(7, 1, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_known_value(self):
        # pins the Philox keying so determinism breaks loudly, not silently
        assert rng_stream(0).random() == pytest.approx(0.08357029531240678)


class TestTree:
    def test_interpolates_distinct_points(self):
        rng = np.random.default_rng(0)
        X = rng.random((50, 3))
        y = X @ np.array([1.0, -2.0, 0.5])
        tree = grow_tree(X, y, rng_stream(0, 9))
        assert np.max(np.abs(oracle_tree_predict(tree, X) - y)) < 1e-12

    def test_single_point_is_constant(self):
        tree = grow_tree(np.array([[1.0, 2.0]]), np.array([5.0]), rng_stream(0))
        assert oracle_tree_predict(tree, np.array([[9.0, -9.0]]))[0] == 5.0

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 1))
        y = rng.random(30)
        tree = grow_tree(X, y, rng_stream(0), min_leaf=10)
        # every leaf mean comes from >= 10 samples: the tree has <= 3 leaves
        assert (tree.feature == -1).sum() <= 3

    def test_classification_rule(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        tree = grow_tree(X, y, rng_stream(0, 1), n_classes=2)
        preds = np.argmax(oracle_tree_predict(tree, X), axis=1)
        assert (preds == y).all()


def assert_same_tree(got, want):
    """The two forests (one-tree ones, as a rule) have the same class count,
    and every array the same dtype, shape and bytes."""
    assert got.n_classes == want.n_classes
    for name in FOREST_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


@st.composite
def growth_cases(draw):
    """(X, y, n_classes, features_per_split). X sits on a coarse grid, so
    values tie; rows repeat, as in a bootstrap sample; some columns are
    constant. Regression targets mix integers, which tie and sum exactly,
    tenths, which tie but round by summation order, and floats."""
    d = draw(st.integers(0, 5))
    levels = draw(st.sampled_from([2, 3, 8]))
    cell = st.integers(0, levels - 1)
    distinct = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=20))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    X = 0.3 * np.array([distinct[r] for r in rows], dtype=np.float64).reshape(len(rows), d)
    X[:, draw(st.lists(st.booleans(), min_size=d, max_size=d))] = 1.5
    n = X.shape[0]
    n_classes = draw(st.sampled_from([None, 2, 3, 4, 5, 9]))
    if n_classes is None:
        target = st.one_of(
            st.integers(-3, 3).map(float),
            st.integers(-30, 30).map(lambda k: k / 10),
            st.floats(-1e3, 1e3, allow_nan=False),
        )
        y = np.array(draw(st.lists(target, min_size=n, max_size=n)), dtype=np.float64)
    else:
        labels = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
        y = np.array(draw(labels), dtype=np.int64)
    per_split = draw(st.sampled_from([None, 1, max(d - 1, 1), max(d, 1), d + 1]))
    return X, y, n_classes, per_split


def _case(X, y, n_classes=None, per_split=None):
    return np.asarray(X, dtype=np.float64), np.asarray(y), n_classes, per_split


@SETTINGS
@given(case=growth_cases(), min_leaf=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(case=_case([[0.5, 1.0]], [2.0]), min_leaf=1, seed=0)  # n = 1
@example(case=_case([[0.5, 1.0]], [1], n_classes=2), min_leaf=1, seed=0)
@example(case=_case(np.zeros((6, 0)), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), min_leaf=1, seed=0)  # d = 0
@example(case=_case(np.zeros((4, 0)), [0, 1, 2, 1], n_classes=3), min_leaf=1, seed=0)
@example(case=_case([[0.0], [1.0], [2.0]], [1.0, 2.0, 3.0]), min_leaf=2, seed=0)  # n < 2 min_leaf
@example(case=_case([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1, 0], 2), min_leaf=3, seed=0)
# all-equal X with distinct y: no valid split anywhere
@example(case=_case(np.full((5, 3), 0.7), [1.0, 2.0, 3.0, 4.0, 5.0], None, 2), min_leaf=1, seed=0)
@example(case=_case(np.full((5, 3), 0.7), [0, 1, 2, 3, 4], 5), min_leaf=1, seed=0)
def test_grow_tree_matches_the_reference(case, min_leaf, seed):
    X, y, n_classes, per_split = case
    got = grow_tree(X, y, rng_stream(seed, 1), min_leaf, per_split, n_classes)
    want = oracle_grow_tree(X, y, rng_stream(seed, 1), min_leaf, per_split, n_classes)
    assert_same_tree(got, want)


_PARTING_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    from asbench.learners import rng_stream
    from oracles import grow_tree, oracle_grow_tree

    b = 1 + 2**-51
    pairs = [(float(np.nextafter(b, 0)), b), (1.7e308, 1.79e308), (-1.79e308, -1.7e308)]
    out = []
    for a, b in pairs:
        X = np.array([[a], [b]])
        for grow in (grow_tree, oracle_grow_tree):
            for n_classes, y in ((None, np.array([0.0, 1.0])), (2, np.array([0, 1]))):
                tree = grow(X, y, rng_stream(0, 1), n_classes=n_classes)
                leaves = tree.value[1:] if n_classes is None else tree.dist[1:].argmax(axis=1)
                out.append([a, b, tree.feature.tolist(), float(tree.threshold[0]), leaves.tolist()])
    print(json.dumps(out))
    """
)


def test_grow_tree_parts_adjacent_and_huge_doubles():
    # 0.5 * (a + b) rounds to b for adjacent doubles and overflows for huge
    # ones, so every sample went left and growth never ended; the threshold
    # falls back to a. A hang fails this test through the timeout.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(
        [sys.executable, "-c", _PARTING_SCRIPT], env=env, capture_output=True, text=True, timeout=10
    )
    assert done.returncode == 0, done.stderr
    trees = json.loads(done.stdout)
    assert len(trees) == 12
    for a, b, feature, threshold, leaves in trees:
        assert feature == [0, -1, -1]  # one split, two leaves
        assert threshold == a
        assert leaves == [0, 1]  # {a} left, {b} right


@pytest.mark.parametrize("n_classes", [None, 3])
def test_fit_forest_matches_the_reference(n_classes, monkeypatch):
    # bootstrap samples of 60 rows repeat rows; the grid makes values tie
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(60, 5)) * 0.25
    y = rng.integers(0, 3, size=60) if n_classes else rng.normal(size=60)
    hp = Hyperparameters(n_trees=3, seed=13, min_leaf=2)
    forest = fit_forest(X, y, hp, stream=(6, 1), n_classes=n_classes)
    assert len(forest.trees) == 3
    for t, tree in enumerate(forest.trees):
        rng_t = rng_stream(hp.seed, 6, 1, t)
        boot = rng_t.integers(0, 60, size=60)
        assert np.unique(boot).size < 60
        mtry = 3  # ceil(sqrt(5 features))
        want = oracle_grow_tree(X[boot], y[boot], rng_t, hp.min_leaf, mtry, n_classes)
        assert_same_tree(tree, want)
        # the batched grower keeps each tree to its own sample and generator
        rng_t = rng_stream(hp.seed, 6, 1, t)
        assert np.array_equal(rng_t.integers(0, 60, size=60), boot)
        alone = grow_tree(X[boot], y[boot], rng_t, hp.min_leaf, mtry, n_classes)
        assert_same_tree(tree, alone)
    # growing more trees beside them leaves the first ones as they were
    wider = fit_forest(X, y, replace(hp, n_trees=5), stream=(6, 1), n_classes=n_classes)
    assert len(wider.trees) == 5
    for tree, same in zip(forest.trees, wider.trees):
        assert_same_tree(same, tree)
    # and so does growing them in groups of two, as large forests grow
    monkeypatch.setattr(learners, "_GROW_CELLS", 2 * 60 * 6)
    grouped = fit_forest(X, y, replace(hp, n_trees=5), stream=(6, 1), n_classes=n_classes)
    for tree, same in zip(wider.trees, grouped.trees):
        assert_same_tree(same, tree)
    # each job of a shared call is the forest its own call fits: row sets of
    # several sizes, as a slice, a mask and unsorted, repeating indices
    mask = X[:, 0] > 0.3
    jobs = [
        (slice(None), y, (6, 1)),
        (np.arange(0, 60, 2), y[::2], (6, 2)),
        (mask, y[mask], (7,)),
        (np.arange(59, 29, -1), y[59:29:-1], (6, 3)),
        (np.array([3, 3, 8, 1, 8, 3]), y[[3, 3, 8, 1, 8, 3]], (6, 4)),
    ]
    shared = fit_forests(X, jobs, replace(hp, n_trees=5), n_classes=n_classes)
    assert len(shared) == len(jobs)
    for (rows, y_rows, stream), forest in zip(jobs, shared):
        alone = fit_forest(X[rows], y_rows, replace(hp, n_trees=5), stream, n_classes)
        assert_same_forest(forest, alone)


def assert_same_forest(got, want):
    assert_same_tree(got, want)  # the packed arrays
    assert len(got.trees) == len(want.trees)
    for tree, same in zip(want.trees, got.trees):
        assert_same_tree(same, tree)


def _training_set(X, costs):
    n, k = costs.shape
    d = X.shape[1]
    return TrainingSet(
        instances=tuple(f"i{j}" for j in range(n)),
        algorithms=tuple(f"A{a}" for a in range(k)),
        feature_groups=("g",),
        X=X,
        costs=costs,
        solved=np.ones((n, k), dtype=bool),
        pre=Preprocess(tuple(range(d)), (0.0,) * d, (0.0,) * d, (1.0,) * d, (True,) * d),
    )


@st.composite
def training_sets(draw):
    """A training set of 1 to 23 instances, so the stacking folds often
    differ in size (and n < 5 takes fewer folds), 2 to 4 algorithms and 0
    to 3 kept feature columns. Features sit on a coarse grid, so values tie;
    costs are tied integers or lognormal floats."""
    n, k, d = draw(st.integers(1, 23)), draw(st.integers(2, 4)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n, d)) * 0.5
    if draw(st.booleans()):
        return _training_set(X, rng.integers(1, 4, size=(n, k)) * 10.0)
    return _training_set(X, rng.lognormal(size=(n, k)))


def _hp(n_trees, seed, min_leaf=1, features_per_split=None):
    return Hyperparameters(n_trees, min_leaf, features_per_split, seed=seed)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    train=training_sets(),
    hp=st.builds(
        _hp,
        n_trees=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        min_leaf=st.integers(1, 2),
        features_per_split=st.sampled_from([None, 1]),
    ),
    cells=st.sampled_from([None, 1, 60, 300]),
)
# one instance: its one fold fits on itself
@example(train=_training_set(np.array([[0.5]]), np.array([[1.0, 2.0]])), hp=_hp(3, 0), cells=None)
# no feature columns
@example(train=_training_set(np.zeros((3, 0)), np.array([[1.0, 2, 3], [3, 2, 1], [2, 2, 2]])),
         hp=_hp(2, 5), cells=None)
# folds of 2, 2, 1, 1 and 1 instances, one tree per grower call
@example(train=_training_set(np.arange(14.0).reshape(7, 2) % 3, np.arange(28.0).reshape(7, 4) % 5),
         hp=_hp(7, 9), cells=1)
def test_shared_grower_calls_match_per_forest_fits(train, hp, cells):
    # the fitters' shared fit_forests calls, with groups cut small by a
    # patched bound (splitting jobs), against one fit_forest call per forest
    want_regression = oracle_regression_forests(train, hp)
    want_pairwise = oracle_pairwise_classifiers(train, hp)
    want_oof, want_combiner, want_forests = oracle_stacking(train, hp)
    with mock.patch.object(learners, "_GROW_CELLS", cells or learners._GROW_CELLS):
        regression = fit_regression(train, hp).payload
        pairwise = fit_pairwise(train, hp).payload
        stacking = fit_stacking(train, hp).payload
        oof = selectors._out_of_fold(train, hp, min(5, len(train.instances)))
    for got, want in zip(regression["forests"], want_regression, strict=True):
        assert_same_forest(got, want)
    for got, want in zip(pairwise["forests"], want_pairwise, strict=True):
        assert_same_forest(got, want)
    assert (oof.dtype, oof.shape, oof.tobytes()) == (
        want_oof.dtype, want_oof.shape, want_oof.tobytes()
    )
    assert_same_forest(stacking["combiner"], want_combiner)
    for got, want in zip(stacking["forests"], want_forests, strict=True):
        assert_same_forest(got, want)


@pytest.mark.parametrize("features_per_split", [None, 2])
def test_block_planning_never_changes_a_tree(features_per_split):
    # one node per block, and every node of a depth in one block, against the
    # default bound: each node's split is scored on its own padded row
    rng = np.random.default_rng(21)
    train = _training_set(rng.integers(0, 40, size=(150, 4)) * 0.25, rng.lognormal(size=(150, 3)))
    hp = _hp(4, 17, features_per_split=features_per_split)

    def forests():
        fits = [fit(train, hp).payload for fit in (fit_regression, fit_pairwise, fit_stacking)]
        return [f for p in fits for f in p["forests"]] + [fits[2]["combiner"]]

    want = forests()
    assert {f.n_classes for f in want} >= {None, 2}  # regression and classification forests
    for bound in (1, 1 << 40):
        with mock.patch.object(learners, "_BLOCK_MAX", bound):
            got = forests()
        for a, b in zip(got, want, strict=True):
            assert_same_forest(a, b)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sizes=st.lists(st.integers(2, 3000), min_size=1, max_size=200), unit=st.integers(1, 64))
def test_size_blocks_are_maximal_runs_of_ascending_size(sizes, unit):
    size = np.array(sizes, dtype=np.int64)
    blocks = learners._size_blocks(size, unit)
    order = np.concatenate(blocks)
    # every node once, in ascending size, equal sizes in node order
    assert order.tolist() == np.argsort(size, kind="stable").tolist()
    for b, after in zip(blocks, blocks[1:] + [None]):
        padded = b.size * int(size[b].max()) * unit
        assert b.size == 1 or padded <= learners._BLOCK_MAX
        if after is not None:  # the next node would not fit
            assert (b.size + 1) * int(size[after[0]]) * unit > learners._BLOCK_MAX


@st.composite
def packed_forest_cases(draw):
    """(trees, n_classes, X): hand-built one-tree forests whose splits each
    turn a leaf into a split, the newest leaf (a chain) or any, so one forest
    mixes root leaves, bushy trees and deep ones. Thresholds and X share a
    grid, so rows land on thresholds."""
    d = draw(st.integers(0, 4))
    n_classes = draw(st.sampled_from([None, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trees = []
    # past 8 trees numpy's pairwise sum would reorder a one-row total
    for _ in range(draw(st.integers(1, 12))):
        feature, threshold, left, right = [-1], [0.0], [-1], [-1]
        chain = rng.random() < 0.5
        for _ in range(rng.integers(0, 13) if d else 0):
            leaves = [i for i, f in enumerate(feature) if f < 0]
            i = leaves[-1] if chain else rng.choice(leaves)
            feature[i], threshold[i] = rng.integers(d), rng.integers(5) / 2
            left[i], right[i] = len(feature), len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
        leaves = rng.normal(scale=1e3, size=(len(feature), n_classes or 1))
        trees.append(Forest(
            n_classes=n_classes,
            roots=np.zeros(1, dtype=np.int64),
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            **({"value": leaves[:, 0]} if n_classes is None else {"dist": abs(leaves)}),
        ))
    return trees, n_classes, rng.integers(0, 5, size=(draw(st.integers(1, 8)), d)) / 2


def _chain_tree(depth, n_classes):
    """A one-tree forest, a chain of ``depth`` splits: the split at depth k
    sends rows with ``x[0] <= k / 2`` left, to a leaf, and the rest right, to
    the next."""
    m = 2 * depth + 1
    split = np.arange(m) % 2 == 0
    split[-1] = False
    ids = np.arange(m)
    return Forest(
        n_classes=n_classes,
        roots=np.zeros(1, dtype=np.int64),
        feature=np.where(split, 0, -1),
        threshold=np.where(split, ids / 4, 0.0),
        left=np.where(split, ids + 1, -1),
        right=np.where(split, ids + 2, -1),
        dist=np.eye(n_classes)[ids % n_classes],
    )


@SETTINGS
@given(packed_forest_cases())
@example((  # a root leaf, a chain of depth 20 and a one-split tree
    [_chain_tree(0, 2), _chain_tree(20, 2), _chain_tree(1, 2)],
    2,
    np.arange(12, dtype=np.float64)[:, None],
))
def test_packed_forest_matches_the_per_tree_walk(case):
    trees, n_classes, X = case
    forest = _join(trees)
    # the per-tree walks, summed in tree order
    total = oracle_tree_predict(trees[0], X)
    for tree in trees[1:]:
        total = total + oracle_tree_predict(tree, X)
    mean = total / len(trees)
    want = mean if n_classes is None else np.argmax(mean, axis=1)
    assert forest.predict_dist(X).tobytes() == mean.tobytes()
    assert forest.predict(X).tobytes() == want.tobytes()
    for i in range(len(X)):
        assert forest.predict_dist(X[i : i + 1]).tobytes() == mean[i : i + 1].tobytes()
    # the trees read back as views of the packed arrays
    assert len(forest.trees) == len(trees)
    for view, tree in zip(forest.trees, trees):
        assert_same_tree(view, tree)
        assert np.shares_memory(view.left, forest.left)


class TestForest:
    def test_noiseless_linear_training_fit(self):
        # binary design duplicated 25x: every bootstrap sees all four cells,
        # so each tree partitions them exactly and the forest interpolates
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        X = np.repeat(corners, 25, axis=0)
        y = X @ np.array([2.0, 3.0])
        hp = Hyperparameters(n_trees=100, seed=3)
        forest = fit_forest(X, y, hp, stream=(0,))
        mse = float(np.mean((forest.predict(X) - y) ** 2))
        assert mse < 1e-6

    def test_single_training_point(self):
        forest = fit_forest(np.array([[0.5]]), np.array([4.0]), Hyperparameters(n_trees=5), (1,))
        assert forest.predict(np.array([[123.0]]))[0] == 4.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 3))
        y = rng.random(40)
        probe = rng.random((10, 3))
        a = fit_forest(X, y, Hyperparameters(seed=11, n_trees=20), (5,)).predict(probe)
        b = fit_forest(X, y, Hyperparameters(seed=11, n_trees=20), (5,)).predict(probe)
        c = fit_forest(X, y, Hyperparameters(seed=12, n_trees=20), (5,)).predict(probe)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_classification_ties_take_lowest_label(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([0, 1])
        forest = fit_forest(X, y, Hyperparameters(n_trees=2, seed=0), (2,), n_classes=2)
        # nothing separates the points; distributions tie at 0.5 and argmax
        # must come out stable
        assert forest.predict(np.array([[0.0]]))[0] in (0, 1)
        dist = forest.predict_dist(np.array([[0.0]]))[0]
        assert dist.sum() == pytest.approx(1.0)

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            fit_forest(np.zeros((0, 2)), np.zeros(0), Hyperparameters(), (0,))


class TestKnn:
    def test_k1_recovers_training_label(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = KNN(X=X, k=1)
        assert model.neighbors(np.array([[1.0, 1.0]])).tolist() == [[1]]

    def test_duplicate_points_resolve_by_index(self):
        X = np.zeros((4, 2))
        model = KNN(X=X, k=2)
        assert model.neighbors(np.zeros((1, 2))).tolist() == [[0, 1]]

    def test_zero_width_features(self):
        model = KNN(X=np.zeros((5, 0)), k=2)
        assert model.neighbors(np.zeros((1, 0))).tolist() == [[0, 1]]


@st.composite
def knn_cases(draw):
    """Training rows drawn, with repeats, from a few distinct points of a
    coarse grid, and queries from the same grid, so that many distances tie
    at the k-th smallest; some coordinates are huge (their squares overflow
    to inf) or infinite (inf - inf is a NaN distance)."""
    d = draw(st.integers(0, 3))
    cell = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.sampled_from([1e200, np.inf, -np.inf])
    )
    point = st.lists(cell, min_size=d, max_size=d)
    distinct = draw(st.lists(point, min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    X = np.array([distinct[r] for r in rows], dtype=np.float64).reshape(len(rows), d)
    Q = np.array(draw(st.lists(point, min_size=0, max_size=12)), dtype=np.float64)
    k = draw(st.integers(1, len(rows) + 2))
    return X, Q.reshape(len(Q), d), k


def _knn_case(X, Q, k):
    X, Q = np.asarray(X, dtype=np.float64), np.asarray(Q, dtype=np.float64)
    return X, Q, k


@SETTINGS
@given(case=knn_cases(), cells=st.sampled_from([1, 5, 64, learners._KNN_CELLS]))
@example(case=_knn_case([[0.0], [1.0], [1.0], [1.0], [2.0]], [[1.0]], 1), cells=1)  # k = 1
@example(case=_knn_case([[1.0], [0.0], [1.0], [3.0], [1.0]], [[0.0]], 2), cells=64)  # tie at k
@example(case=_knn_case([[1.0], [2.0]], [[0.0], [5.0]], 7), cells=1)  # k >= n
@example(case=_knn_case(np.zeros((4, 0)), np.zeros((3, 0)), 2), cells=5)  # d = 0
@example(case=_knn_case([[np.inf], [0.0], [1e200]], [[np.inf]], 2), cells=64)  # NaN, inf
def test_knn_matches_the_per_query_argsort(case, cells):
    X, Q, k = case
    with mock.patch.object(learners, "_KNN_CELLS", cells), np.errstate(invalid="ignore"):
        got = KNN(X=X, k=k).neighbors(Q)
        want = [oracle_knn_neighbors(X, k, q).tolist() for q in Q]
    assert got.shape == (len(Q), min(k, len(X)))
    assert got.tolist() == want


@st.composite
def kmeans_cases(draw):
    """Rows and centroids drawn, with repeats, from a few distinct points of
    a coarse grid each, so that distances tie and sum exactly in any order; a
    few coordinates are NaN, infinite or huge (their squares overflow to
    inf). Up to 10 columns, past the 8 at which numpy's sum pairs terms."""
    d = draw(st.integers(0, 10))
    cell = st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0])
    X, C = [], []
    for rows in (X, C):
        distinct = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=1, max_size=6))
        for _ in range(draw(st.integers(0, 2)) if d else 0):
            point = draw(st.sampled_from(distinct))
            point[draw(st.integers(0, d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200]))
        rows += draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    X, C = (np.array(rows).reshape(len(rows), d) for rows in (X, C))
    return X[: draw(st.integers(0, len(X)))], C


@SETTINGS
@given(case=kmeans_cases())
@example(case=(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])))  # ties
@example(case=(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0], [1.0, 1.0]])))  # nearer in squares only
@example(case=(np.array([[np.nan, 0.0], [np.inf, 0.0]]), np.array([[0.0, 0.0], [np.inf, 0.0]])))
@example(case=(np.zeros((3, 0)), np.zeros((2, 0))))  # d = 0
def test_kmeans_assign_matches_the_broadcast(case):
    X, C = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = KMeans(C).assign(X)
        want = oracle_kmeans_assign(C, X)
    assert got.tolist() == want.tolist()


@st.composite
def distance_cases(draw):
    """Row and centroid matrices of finite floats of any scale, up to 12 columns."""
    d = draw(st.integers(0, 12))
    value = st.floats(-1e100, 1e100, allow_nan=False)
    rows = st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=8)
    return tuple(np.array(r, dtype=np.float64).reshape(len(r), d) for r in (draw(rows), draw(rows)))


@SETTINGS
@given(case=distance_cases())
def test_cdist_distances_lie_within_a_few_ulps_of_the_oracles(case):
    """``cdist`` adds a pair's squared differences in column order; the
    oracles' broadcast (``oracle_kmeans_assign``) and per-row einsum
    (``oracle_knn_neighbors``) add the same terms in other orders. Terms are
    never negative, so each sum lies within d - 1 rounding steps of the exact
    one, and any two within 2d ulps of each other."""
    Q, X = case
    got = cdist(Q, X, "sqeuclidean")
    broadcast = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    per_row = np.array([np.einsum("ij,ij->i", X - q, X - q) for q in Q]).reshape(got.shape)
    for want in (broadcast, per_row):
        np.testing.assert_array_max_ulp(got, want, maxulp=max(1, 2 * Q.shape[1]))


class TestKMeans:
    def test_separates_two_blobs(self):
        rng = np.random.default_rng(4)
        left = rng.normal(loc=-5, scale=0.3, size=(30, 2))
        right = rng.normal(loc=5, scale=0.3, size=(30, 2))
        X = np.vstack([left, right])
        km = fit_kmeans(X, 2, rng_stream(0, 7))
        assign = km.assign(X)
        assert len(set(assign[:30])) == 1
        assert len(set(assign[30:])) == 1
        assert assign[0] != assign[30]

    def test_k_capped_at_sample_count(self):
        X = np.array([[0.0], [1.0]])
        km = fit_kmeans(X, 10, rng_stream(0, 8))
        assert km.centroids.shape[0] <= 2

    def test_duplicate_points_stable(self):
        X = np.zeros((6, 2))
        km = fit_kmeans(X, 3, rng_stream(0, 9))
        assert km.assign(X).tolist() == [0] * 6
