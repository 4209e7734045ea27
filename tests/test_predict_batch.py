"""The batched prediction path against the per-row reference, and forest
averages that do not depend on the other rows of a call."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from asbench import Hyperparameters, fit_system, predict_batch, save_model
from asbench.learners import fit_forest

from gen import learnable_scenario, random_scenario
from oracles import feature_vectors, oracle_predict, schedule_map

KINDS = ("regression", "pairwise", "cluster", "stacking", "sunny")


def blank_one(scen, instance):
    """The scenario with every feature value of ``instance`` missing."""
    features = feature_vectors(scen)
    features[instance] = (None,) * len(scen.feature_names)
    return replace(scen, features=features)


def runtime_scenario(seed):
    scen = learnable_scenario(n_train=40, n_test=12, seed=seed)
    return blank_one(scen, scen.splits[0].test[3])


def quality_scenario(seed, direction):
    scen = random_scenario(seed, n_algos=3, n_insts=30, objective="quality")
    scen = replace(scen, direction=direction)
    return blank_one(scen, scen.splits[0].test[0])


def grid_scenario(seed):
    """A runtime scenario whose feature values lie on a coarse integer grid,
    so that many sunny neighbourhoods tie at their k-th distance."""
    scen = random_scenario(seed, n_insts=60)
    rng = np.random.default_rng(seed)
    d = len(scen.feature_names)
    features = {i: tuple(rng.integers(0, 3, size=d).astype(float).tolist()) for i in scen.instances}
    return blank_one(replace(scen, features=features), scen.splits[0].test[0])


SCENARIOS = {
    "runtime-presolve": lambda: runtime_scenario(21),
    "runtime-random": lambda: blank_one(random_scenario(9, n_insts=30), "i4"),
    "runtime-ties": lambda: grid_scenario(13),
    "quality-minimize": lambda: quality_scenario(5, "minimize"),
    "quality-maximize": lambda: quality_scenario(6, "maximize"),
}


def recorded(fn):
    """Call ``fn``; return its result and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught]


@pytest.mark.parametrize("n_trees", [1, 4, 7])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_batch_matches_the_per_row_reference(name, kind, n_trees):
    scen = SCENARIOS[name]()
    split = scen.splits[0]
    hp = Hyperparameters(n_trees=n_trees, seed=4)
    model, _ = recorded(lambda: fit_system(scen, split.train, kind, hp, mode="oasc2017"))
    if name == "runtime-presolve":
        assert model.presolve
    test = scen.instances if name in ("runtime-random", "runtime-ties") else split.test
    got, got_warnings = recorded(lambda: predict_batch(model, scen, test))
    want, want_warnings = recorded(lambda: {i: oracle_predict(model, scen, i) for i in test})
    assert list(schedule_map(got).items()) == list(want.items())
    assert got_warnings == want_warnings
    assert len(got_warnings) == 1 and "falling back" in got_warnings[0]


@pytest.mark.parametrize("n_classes", [None, 2, 3])
def test_forest_rows_do_not_depend_on_the_batch(n_classes):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, n_classes, size=60) if n_classes else rng.uniform(1, 1000, size=60)
    forest = fit_forest(X, y, Hyperparameters(n_trees=12, seed=3), (9,), n_classes=n_classes)
    probe = rng.normal(size=(40, 3))
    whole, whole_dist = forest.predict(probe), forest.predict_dist(probe)
    for i in range(len(probe)):
        assert forest.predict(probe[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()
        assert forest.predict_dist(probe[i : i + 1]).tobytes() == whole_dist[i : i + 1].tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_schedules_do_not_depend_on_the_batch(kind):
    scen = learnable_scenario(n_train=60, n_test=30, seed=17, flip=0.2)
    split = scen.splits[0]
    model = fit_system(scen, split.train, kind, Hyperparameters(n_trees=12, seed=8), mode="icon2015")
    whole = schedule_map(predict_batch(model, scen, split.test))
    assert list(whole) == list(split.test)
    assert {i: schedule_map(predict_batch(model, scen, [i]))[i] for i in split.test} == whole
    backwards = schedule_map(predict_batch(model, scen, split.test[::-1]))
    assert list(backwards) == list(split.test[::-1])
    assert backwards == whole
    # a repeated instance keeps one schedule, where it is first named; no instances, no schedules
    three = split.test[2::-1]
    for batch, first_seen in ((three * 2 + split.test[1:2], three), ((), ())):
        got = predict_batch(model, scen, batch)
        assert got.instances == tuple(first_seen)
        assert schedule_map(got) == {i: whole[i] for i in first_seen}
        assert got.kind.size == sum(len(whole[i]) for i in first_seen)


def test_nan_and_none_are_the_same_missing_value(tmp_path):
    scen = learnable_scenario(n_train=40, n_test=10, seed=3)
    split = scen.splits[0]
    holes = (split.train[0], split.train[5], split.test[2])

    def punched(missing):
        features = feature_vectors(scen)
        for inst in holes:
            features[inst] = (missing,) + features[inst][1:]
        return replace(scen, features=features)

    with_none, with_nan = punched(None), punched(float("nan"))
    for kind in KINDS:
        hp = Hyperparameters(n_trees=3, seed=1)
        a = fit_system(with_none, split.train, kind, hp, mode="icon2015")
        b = fit_system(with_nan, split.train, kind, hp, mode="icon2015")
        save_model(a, tmp_path / "none.json")
        save_model(b, tmp_path / "nan.json")
        assert (tmp_path / "none.json").read_bytes() == (tmp_path / "nan.json").read_bytes()
        assert schedule_map(predict_batch(a, with_nan, split.test)) == schedule_map(predict_batch(a, with_none, split.test))
