"""Scenario builders shared by the test modules."""

from __future__ import annotations

import numpy as np

from asbench import FeatureGroup, RunRecord, Scenario, Split
from asbench.evaluation import FeatureStep, SolverStep
from oracles import feature_vector


def build_scenario(
    runs,
    algorithms,
    instances,
    cutoff=5000.0,
    objective="runtime",
    direction="minimize",
    features=None,
    feature_names=None,
    groups=None,
    splits=(),
    scenario_id="scen",
):
    """Assemble a scenario from plain dicts; runs maps (inst, algo) to either
    a value (status ok) or a (value, status) pair."""
    algorithms = tuple(algorithms)
    instances = tuple(instances)
    run_records = {}
    for pair, spec in runs.items():
        if isinstance(spec, RunRecord):
            run_records[pair] = spec
        elif isinstance(spec, tuple):
            run_records[pair] = RunRecord(value=float(spec[0]), status=spec[1])
        else:
            run_records[pair] = RunRecord(value=float(spec), status="ok")
    if features is None:
        features = {inst: (float(i),) for i, inst in enumerate(instances)}
        feature_names = ("f0",)
    if feature_names is None:
        d = len(next(iter(features.values())))
        feature_names = tuple(f"f{i}" for i in range(d))
    if groups is None:
        cost = {inst: 0.0 for inst in instances}
        groups = (
            FeatureGroup(
                name="all",
                feature_indices=tuple(range(len(feature_names))),
                cost=None if objective == "quality" else cost,
            ),
        )
    return Scenario(
        id=scenario_id,
        objective=objective,
        direction=direction,
        cutoff=cutoff if objective == "runtime" else None,
        algorithms=algorithms,
        instances=instances,
        runs=run_records,
        features={i: tuple(v) for i, v in features.items()},
        feature_names=tuple(feature_names),
        feature_groups=tuple(groups),
        splits=tuple(splits),
    )


def tutorial_scenario():
    """Small runtime scenario: 3 algorithms, 5 instances, 2 feature groups."""
    algorithms = ("A1", "A2", "A3")
    instances = tuple(f"i{k}" for k in range(1, 6))
    runs = {
        ("i1", "A1"): 300.0,
        ("i1", "A2"): (5000.0, "timeout"),
        ("i1", "A3"): 1200.0,
        ("i2", "A1"): (5000.0, "timeout"),
        ("i2", "A2"): 80.0,
        ("i2", "A3"): (900.0, "memout"),
        ("i3", "A1"): 2500.0,
        ("i3", "A2"): 1000.0,
        ("i3", "A3"): (5000.0, "timeout"),
        ("i4", "A1"): 40.0,
        ("i4", "A2"): 45.0,
        ("i4", "A3"): 60.0,
        ("i5", "A1"): (5000.0, "timeout"),
        ("i5", "A2"): (5000.0, "timeout"),
        ("i5", "A3"): 4200.0,
    }
    features = {
        "i1": (0.5, 1.0, 3.0),
        "i2": (1.5, 0.0, 2.0),
        "i3": (2.5, None, 1.0),
        "i4": (3.5, 2.0, 0.0),
        "i5": (4.5, 3.0, 1.0),
    }
    groups = (
        FeatureGroup("base", (0, 1), cost={i: 10.0 for i in instances}),
        FeatureGroup("probing", (2,), cost={i: 100.0 for i in instances}),
    )
    splits = (
        Split(split_id=0, train=("i1", "i2", "i3"), test=("i4", "i5")),
        Split(split_id=1, train=("i3", "i4", "i5"), test=("i1", "i2")),
    )
    return build_scenario(
        runs,
        algorithms,
        instances,
        features=features,
        feature_names=("f_a", "f_b", "f_c"),
        groups=groups,
        splits=splits,
        scenario_id="tutorial",
    )


def random_scenario(seed, n_algos=None, n_insts=None, objective="runtime", with_splits=True):
    """Random but valid scenario for property tests."""
    rng = np.random.default_rng(seed)
    k = n_algos or int(rng.integers(2, 5))
    n = n_insts or int(rng.integers(4, 9))
    algorithms = tuple(f"A{j}" for j in range(k))
    instances = tuple(f"i{j}" for j in range(n))
    cutoff = float(rng.integers(100, 2000))
    runs = {}
    for inst in instances:
        for algo in algorithms:
            u = rng.random()
            if objective == "quality":
                runs[(inst, algo)] = RunRecord(value=float(rng.random() * 10), status="ok")
            elif u < 0.2:
                runs[(inst, algo)] = RunRecord(value=cutoff, status="timeout")
            elif u < 0.3:
                status = ("memout", "crash", "other")[int(rng.integers(0, 3))]
                runs[(inst, algo)] = RunRecord(value=float(rng.random() * cutoff), status=status)
            else:
                runs[(inst, algo)] = RunRecord(value=float(rng.random() * cutoff), status="ok")
    d = int(rng.integers(2, 5))
    features = {}
    for inst in instances:
        vec = [float(x) for x in rng.normal(size=d)]
        if rng.random() < 0.2:
            vec[int(rng.integers(0, d))] = None
        features[inst] = tuple(vec)
    n_groups = 1 if d < 2 else int(rng.integers(1, min(d, 3) + 1))
    bounds = sorted(set([0, d] + [int(x) for x in rng.integers(1, d, size=n_groups - 1)]))
    groups = []
    for gi in range(len(bounds) - 1):
        idx = tuple(range(bounds[gi], bounds[gi + 1]))
        cost = None
        if objective == "runtime":
            cost = {inst: float(rng.random() * cutoff * 0.02) for inst in instances}
        groups.append(FeatureGroup(f"g{gi}", idx, cost=cost))
    splits = ()
    if with_splits:
        perm = rng.permutation(n)
        cut = max(1, n // 3)
        splits = (
            Split(
                split_id=0,
                train=tuple(instances[i] for i in sorted(perm[cut:].tolist())),
                test=tuple(instances[i] for i in sorted(perm[:cut].tolist())),
            ),
        )
    return build_scenario(
        runs,
        algorithms,
        instances,
        cutoff=cutoff,
        objective=objective,
        features=features,
        groups=tuple(groups),
        splits=splits,
        scenario_id=f"random{seed}",
    )


def random_schedule(rng, scenario):
    """Legal random schedule: some feature steps, 1..3 solver steps."""
    if scenario.objective == "quality":
        algo = scenario.algorithms[int(rng.integers(0, len(scenario.algorithms)))]
        return (SolverStep(algorithm=algo, budget=0.0),)
    steps = []
    for group in scenario.feature_groups:
        if rng.random() < 0.4:
            steps.append(FeatureStep(group=group.name))
    for _ in range(int(rng.integers(1, 4))):
        algo = scenario.algorithms[int(rng.integers(0, len(scenario.algorithms)))]
        budget = float(rng.random() * scenario.cutoff) + 1.0
        steps.append(SolverStep(algorithm=algo, budget=budget))
    return tuple(steps)


def learnable_scenario(n_train=500, n_test=200, seed=7, flip=0.0):
    """Scenario whose best algorithm is a function of the first two features.

    Rule: feature0 < 0 picks A0, else feature1 < 0 picks A1, else A2. The
    best algorithm solves quickly; the others are 20x slower, which usually
    means a timeout at the 1000s cutoff. ``flip`` adds label noise.
    """
    rng = np.random.default_rng(seed)
    cutoff = 1000.0
    algorithms = ("A0", "A1", "A2")
    n = n_train + n_test
    instances = tuple(f"x{j}" for j in range(n))
    features = {}
    runs = {}
    for inst in instances:
        f0, f1 = rng.uniform(-1, 1, size=2)
        noise = rng.normal(size=2)
        features[inst] = (float(f0), float(f1), float(noise[0]), float(noise[1]))
        best = 0 if f0 < 0 else (1 if f1 < 0 else 2)
        if flip and rng.random() < flip:
            best = int(rng.integers(0, 3))
        fast = float(rng.uniform(10, 100))
        for a, algo in enumerate(algorithms):
            if a == best:
                runs[(inst, algo)] = RunRecord(value=fast, status="ok")
            else:
                slow = fast * 20
                if slow <= cutoff:
                    runs[(inst, algo)] = RunRecord(value=slow, status="ok")
                else:
                    runs[(inst, algo)] = RunRecord(value=cutoff, status="timeout")
    groups = (
        FeatureGroup("all", (0, 1, 2, 3), cost={inst: 1.0 for inst in instances}),
    )
    splits = (Split(split_id=0, train=instances[:n_train], test=instances[n_train:]),)
    return build_scenario(
        runs,
        algorithms,
        instances,
        cutoff=cutoff,
        features=features,
        feature_names=("informative_a", "informative_b", "noise_a", "noise_b"),
        groups=groups,
        splits=splits,
        scenario_id="synthetic-learnable",
    )


def best_algorithm_truth(scenario, instance):
    """Ground-truth label for ``learnable_scenario`` instances."""
    f0, f1 = feature_vector(scenario, instance)[:2]
    return 0 if f0 < 0 else (1 if f1 < 0 else 2)
