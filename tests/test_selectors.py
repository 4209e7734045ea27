import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from asbench import (
    Hyperparameters,
    build_presolver,
    build_training_set,
    fit_cluster,
    fit_pairwise,
    fit_regression,
    fit_stacking,
    fit_sunny,
    fit_system,
    load_model,
    predict_batch,
    save_model,
    sbs,
    selectors,
    simulate,
    write_predictions,
)
from asbench.evaluation import FeatureStep, SolverStep
from asbench.scenario import STATUS_CODE, Runs
from asbench.learners import Forest
from asbench.selectors import SELECTOR_KINDS, SelectorModel, raw_features, select_algorithms

from gen import best_algorithm_truth, build_scenario, learnable_scenario, random_scenario
from oracles import _oracle_check_schedule, feature_vectors, oracle_simulate, records, run_record, schedule_map

FAST = Hyperparameters(n_trees=25, seed=1)
# bare selector, no presolving prefix: for accuracy-style checks
BARE = Hyperparameters(n_trees=25, seed=1, presolve_budget_fraction=0.0)


def dominant_scenario():
    """A0 is fastest on every instance; features are informative noise."""
    rng = np.random.default_rng(0)
    instances = [f"i{j}" for j in range(20)]
    runs = {}
    for inst in instances:
        base = float(rng.uniform(5, 50))
        runs[(inst, "A0")] = base
        runs[(inst, "A1")] = base * 3
        runs[(inst, "A2")] = base * 5
    return build_scenario(
        runs,
        ["A0", "A1", "A2"],
        instances,
        cutoff=1000.0,
        features={i: tuple(map(float, rng.normal(size=2))) for i in instances},
    )


def selection_accuracy(model, scenario, instances):
    hits = 0
    for inst in instances:
        schedule = schedule_map(predict_batch(model, scenario, [inst]))[inst]
        # the model's own pick is the solver step after any presolve prefix
        chosen = [s for s in schedule if isinstance(s, SolverStep)][-1].algorithm
        if chosen == scenario.algorithms[best_algorithm_truth(scenario, inst)]:
            hits += 1
    return hits / len(instances)


class TestTrainingSet:
    def test_imputation_and_standardization(self, tutorial):
        train = build_training_set(tutorial, tutorial.instances)
        assert not np.isnan(train.X).any()
        assert train.X.shape[0] == 5
        # f_c never varies jointly? all columns kept have unit variance
        assert np.allclose(train.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(train.X.std(axis=0), 1.0, atol=1e-12)

    def test_constant_columns_dropped(self):
        scen = build_scenario(
            {("i0", "A0"): 1.0, ("i1", "A0"): 2.0},
            ["A0"],
            ["i0", "i1"],
            features={"i0": (5.0, 1.0), "i1": (5.0, 2.0)},
        )
        train = build_training_set(scen, scen.instances)
        assert train.X.shape[1] == 1

    def test_unknown_group_rejected(self, tutorial):
        with pytest.raises(ValueError, match="unknown feature groups"):
            build_training_set(tutorial, tutorial.instances, feature_groups=["nope"])

    def test_repeated_group_rejected(self, tutorial):
        # one schedule computes a group once, so scoring would charge a repeat twice
        split = tutorial.splits[0]
        with pytest.raises(ValueError, match="^feature group 'base' named more than once$"):
            build_training_set(tutorial, tutorial.instances, feature_groups=["base", "probing", "base"])
        with pytest.raises(ValueError, match="'probing' named more than once"):
            fit_system(tutorial, split.train, "regression", FAST, feature_groups=["probing", "probing"])
        model = fit_system(tutorial, split.train, "regression", FAST, feature_groups=["base"])
        with pytest.raises(ValueError, match="'base' named more than once"):
            predict_batch(replace(model, feature_groups=("base", "base")), tutorial, split.test)

    def test_empty_instance_list_rejected(self, tutorial):
        with pytest.raises(ValueError, match="empty training set"):
            build_training_set(tutorial, [])

    def test_costs_are_par10(self, tutorial):
        train = build_training_set(tutorial, ("i1",))
        assert train.costs[0].tolist() == [300.0, 50000.0, 1200.0]
        assert train.solved[0].tolist() == [True, False, True]


class TestHyperparameters:
    def test_from_pairs(self):
        hp = Hyperparameters.from_pairs(["n_trees=7", "presolve_budget_fraction=0.25", "seed=9"])
        assert hp.n_trees == 7
        assert hp.presolve_budget_fraction == 0.25
        assert hp.seed == 9

    def test_rejects_unknown_and_invalid(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            Hyperparameters.from_pairs(["depth=3"])
        with pytest.raises(ValueError, match="positive"):
            Hyperparameters(n_trees=0)
        with pytest.raises(ValueError):
            Hyperparameters(presolve_budget_fraction=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [("sunny_k", 2.5), ("sunny_k", True), ("seed", "0"), ("features_per_split", 2.0),
         ("n_trees", None), ("presolve_budget_fraction", False), ("presolve_budget_fraction", "0.1")],
    )
    def test_rejects_values_of_the_wrong_type(self, field, value):
        with pytest.raises(TypeError, match=field):
            Hyperparameters(**{field: value})

    def test_accepts_numpy_scalars(self):
        hp = Hyperparameters(n_trees=np.int64(3), presolve_budget_fraction=np.float64(0.2))
        assert (hp.n_trees, hp.presolve_budget_fraction) == (3, 0.2)


@pytest.mark.parametrize("kind", SELECTOR_KINDS)
def test_model_sbs_is_the_scenario_sbs(kind):
    # B's costs are A's in reverse, so the totals tie and A wins; numpy's
    # column means of the two differ in the last bit and put B first
    n = 31
    instances = [f"i{j}" for j in range(n)]
    runs = {}
    for j, inst in enumerate(instances):
        runs[(inst, "A")] = 1 / (n - j)
        runs[(inst, "B")] = 1 / (j + 1)
    scen = build_scenario(runs, ["A", "B"], instances)
    model = fit_system(scen, scen.instances, kind, Hyperparameters(n_trees=2, seed=0, presolve_budget_fraction=0.0))
    assert model.sbs_algorithm == sbs(scen, scen.instances) == "A"


def test_unknown_selector_kind_rejected(tutorial):
    with pytest.raises(ValueError, match="unknown selector kind 'nope'"):
        fit_system(tutorial, tutorial.instances, "nope", FAST)


class TestRegression:
    def test_dominant_algorithm_selected_everywhere(self):
        scen = dominant_scenario()
        model = fit_regression(build_training_set(scen, scen.instances), FAST)
        for inst in scen.instances:
            steps = [s for s in schedule_map(predict_batch(model, scen, [inst]))[inst] if isinstance(s, SolverStep)]
            assert steps[0].algorithm == "A0"

    def test_constant_features_reduce_to_sbs(self):
        runs = {}
        instances = [f"i{j}" for j in range(10)]
        for j, inst in enumerate(instances):
            runs[(inst, "A0")] = 50.0
            runs[(inst, "A1")] = 10.0 if j else 90.0  # A1 wins on total
        scen = build_scenario(
            runs,
            ["A0", "A1"],
            instances,
            features={i: (1.0,) for i in instances},
        )
        model = fit_regression(build_training_set(scen, scen.instances), FAST)
        expected = sbs(scen, scen.instances)
        for inst in scen.instances:
            steps = [s for s in schedule_map(predict_batch(model, scen, [inst]))[inst] if isinstance(s, SolverStep)]
            assert steps[0].algorithm == expected

    def test_learns_the_synthetic_rule(self):
        scen = learnable_scenario(n_train=500, n_test=200, seed=7)
        split = scen.splits[0]
        model = fit_system(scen, split.train, "regression", BARE)
        assert selection_accuracy(model, scen, split.test) >= 0.9

    def test_argmin_invariance_under_constant_shift(self):
        scen = dominant_scenario()
        train = build_training_set(scen, scen.instances)
        model = fit_regression(train, FAST)
        shifted_forests = [replace(f, value=f.value + 123.0) for f in model.payload["forests"]]
        shifted = replace(model, payload={"forests": shifted_forests})
        X = model.pre.transform(raw_features(scen, scen.instances, model.pre.columns))
        assert select_algorithms(model, X).tolist() == select_algorithms(shifted, X).tolist()


class TestPairwise:
    def test_two_algorithms_use_a_single_classifier(self):
        scen = dominant_scenario()
        train = build_training_set(
            scen, scen.instances
        )
        two = build_scenario(
            {k: v for k, v in records(scen).items() if k[1] != "A2"},
            ["A0", "A1"],
            scen.instances,
            cutoff=scen.cutoff,
            features=feature_vectors(scen),
        )
        model = fit_pairwise(build_training_set(two, two.instances), FAST)
        assert len(model.payload["forests"]) == 1
        for inst in two.instances:
            steps = [s for s in schedule_map(predict_batch(model, two, [inst]))[inst] if isinstance(s, SolverStep)]
            assert steps[0].algorithm == "A0"

    def test_single_algorithm_rejected(self):
        scen = build_scenario({("i0", "A0"): 1.0}, ["A0"], ["i0"])
        with pytest.raises(ValueError):
            fit_pairwise(build_training_set(scen, scen.instances), FAST)

    def test_vote_count_is_all_pairs(self):
        scen = random_scenario(5, n_algos=4, n_insts=8)
        model = fit_pairwise(build_training_set(scen, scen.instances), FAST)
        assert len(model.payload["forests"]) == 4 * 3 // 2

    def test_tie_broken_by_training_cost(self):
        # hand-built constant classifiers forcing a three-way vote tie
        def constant_classifier(label):
            dist = np.zeros((1, 2))
            dist[0, label] = 1.0
            return Forest(
                n_classes=2,
                roots=np.array([0]),
                feature=np.array([-1]),
                threshold=np.array([0.0]),
                left=np.array([-1]),
                right=np.array([-1]),
                dist=dist,
            )

        model = SelectorModel(
            kind="pairwise",
            algorithms=("A0", "A1", "A2"),
            feature_groups=(),
            pre=None,
            sbs_algorithm="A1",
            payload={
                "forests": [  # pairs (0, 1), (0, 2), (1, 2)
                    constant_classifier(1),  # A0 beats A1
                    constant_classifier(0),  # A2 beats A0
                    constant_classifier(1),  # A1 beats A2
                ],
                "mean_costs": np.array([30.0, 10.0, 20.0]),
            },
        )
        # votes are (1, 1, 1) on every row; A1 has the lowest mean training cost
        assert select_algorithms(model, np.zeros((3, 1))).tolist() == [1, 1, 1]

    def test_learns_the_synthetic_rule(self):
        scen = learnable_scenario(n_train=500, n_test=200, seed=8)
        split = scen.splits[0]
        model = fit_system(scen, split.train, "pairwise", BARE)
        assert selection_accuracy(model, scen, split.test) >= 0.9


class TestCluster:
    def test_one_cluster_degenerates_to_sbs(self):
        scen = dominant_scenario()
        hp = Hyperparameters(k_clusters=1, n_trees=2, seed=0)
        model = fit_cluster(build_training_set(scen, scen.instances), hp)
        expected = sbs(scen, scen.instances)
        for inst in scen.instances:
            steps = [s for s in schedule_map(predict_batch(model, scen, [inst]))[inst] if isinstance(s, SolverStep)]
            assert steps[0].algorithm == expected

    def test_two_blobs_recover_their_champions(self):
        rng = np.random.default_rng(1)
        instances = [f"i{j}" for j in range(40)]
        runs = {}
        features = {}
        for j, inst in enumerate(instances):
            left = j < 20
            center = -5.0 if left else 5.0
            features[inst] = tuple(map(float, rng.normal(loc=center, scale=0.3, size=2)))
            runs[(inst, "A0")] = 10.0 if left else 500.0
            runs[(inst, "A1")] = 500.0 if left else 10.0
        scen = build_scenario(runs, ["A0", "A1"], instances, features=features)
        hp = Hyperparameters(k_clusters=2, n_trees=2, seed=0)
        model = fit_cluster(build_training_set(scen, scen.instances), hp)
        chosen = set()
        for inst in instances:
            steps = [s for s in schedule_map(predict_batch(model, scen, [inst]))[inst] if isinstance(s, SolverStep)]
            chosen.add(steps[0].algorithm)
            expected = "A0" if inst in instances[:20] else "A1"
            assert steps[0].algorithm == expected
        assert chosen == {"A0", "A1"}

    def test_more_clusters_than_instances_warns_and_reduces(self):
        scen = dominant_scenario()
        train = build_training_set(scen, scen.instances[:3])
        with pytest.warns(UserWarning, match="reducing clusters"):
            model = fit_cluster(train, Hyperparameters(k_clusters=10, n_trees=2))
        assert np.asarray(model.payload["centroids"]).shape[0] <= 3


class TestStacking:
    def test_single_algorithm_is_constant(self):
        scen = build_scenario(
            {(f"i{j}", "A0"): float(j + 1) for j in range(8)},
            ["A0"],
            [f"i{j}" for j in range(8)],
            features={f"i{j}": (float(j),) for j in range(8)},
        )
        model = fit_stacking(build_training_set(scen, scen.instances), FAST)
        for inst in scen.instances:
            steps = [s for s in schedule_map(predict_batch(model, scen, [inst]))[inst] if isinstance(s, SolverStep)]
            assert steps[0].algorithm == "A0"

    def test_close_to_regression_on_the_synthetic_rule(self):
        scen = learnable_scenario(n_train=300, n_test=120, seed=9)
        split = scen.splits[0]
        reg = fit_system(scen, split.train, "regression", BARE)
        stack = fit_system(scen, split.train, "stacking", BARE)
        reg_acc = selection_accuracy(reg, scen, split.test)
        stack_acc = selection_accuracy(stack, scen, split.test)
        assert stack_acc >= reg_acc - 0.05


class TestSunny:
    def sunny_fixture(self, runs, instances, cutoff, k=None):
        scen = build_scenario(
            runs,
            sorted({a for _, a in runs}),
            instances,
            cutoff=cutoff,
            features={i: (float(j), 0.0) for j, i in enumerate(instances)},
        )
        hp = Hyperparameters(sunny_k=k or len(instances), n_trees=2, seed=0)
        model = fit_sunny(build_training_set(scen, scen.instances), hp)
        return scen, model

    def test_proportional_slices(self):
        instances = ["t0", "t1", "t2", "t3"]
        runs = {}
        for j, inst in enumerate(instances):
            solved_by_a0 = j < 3
            runs[(inst, "A0")] = 10.0 if solved_by_a0 else (4000.0, "timeout")
            runs[(inst, "A1")] = (4000.0, "timeout") if solved_by_a0 else 10.0
        scen, model = self.sunny_fixture(runs, instances, cutoff=4000.0)
        schedule = schedule_map(predict_batch(model, scen, ["t0"]))["t0"]
        solver_steps = [s for s in schedule if isinstance(s, SolverStep)]
        assert [s.algorithm for s in solver_steps] == ["A0", "A1"]
        assert [s.budget for s in solver_steps] == [3000.0, 1000.0]

    def test_only_solver_gets_everything(self):
        instances = ["t0", "t1", "t2", "t3"]
        runs = {}
        for j, inst in enumerate(instances):
            runs[(inst, "A0")] = (4000.0, "timeout")
            runs[(inst, "A1")] = 10.0 if j < 2 else (4000.0, "timeout")
            runs[(inst, "A2")] = (4000.0, "timeout")
        scen, model = self.sunny_fixture(runs, instances, cutoff=4000.0)
        schedule = schedule_map(predict_batch(model, scen, ["t0"]))["t0"]
        solver_steps = [s for s in schedule if isinstance(s, SolverStep)]
        assert len(solver_steps) == 1
        assert solver_steps[0].algorithm == "A1"
        assert solver_steps[0].budget == pytest.approx(4000.0)

    def test_schedule_walk_matches_oracle(self):
        scen = learnable_scenario(n_train=60, n_test=20, seed=11)
        split = scen.splits[0]
        model = fit_system(scen, split.train, "sunny", Hyperparameters(sunny_k=16, n_trees=2))
        for inst in split.test[:10]:
            schedule = schedule_map(predict_batch(model, scen, [inst]))[inst]
            got = simulate(scen, inst, schedule)
            solved, time_used = oracle_simulate(scen, inst, schedule)
            assert got.solved[0] == solved
            assert got.time_used[0] == pytest.approx(time_used, abs=1e-9)

    def test_slices_never_exceed_cutoff(self):
        for seed in range(12):
            scen = random_scenario(seed, n_insts=8)
            split = scen.splits[0]
            model = fit_system(
                scen, split.train, "sunny", Hyperparameters(sunny_k=4, n_trees=2, seed=seed)
            )
            for inst in split.test:
                schedule = schedule_map(predict_batch(model, scen, [inst]))[inst]
                total = math.fsum(s.budget for s in schedule if isinstance(s, SolverStep))
                assert total <= scen.cutoff + 1e-9


class TestPresolver:
    def presolve_scenario(self):
        instances = [f"i{j}" for j in range(10)]
        runs = {}
        for j, inst in enumerate(instances):
            # A0 dispatches 40% of instances within 30s (budget is 500s)
            runs[(inst, "A0")] = 30.0 if j < 4 else (5000.0, "timeout")
            runs[(inst, "A1")] = 400.0
        return build_scenario(runs, ["A0", "A1"], instances, cutoff=5000.0)

    def test_fast_dispatcher_is_selected(self):
        scen = self.presolve_scenario()
        prefix = build_presolver(scen.instances, scen, Hyperparameters())
        assert len(prefix) == 1
        assert prefix[0].algorithm == "A0"
        assert prefix[0].budget == pytest.approx(30.0)
        # greedy oracle: nothing offers a better solved-per-second rate
        budget = 0.1 * scen.cutoff
        best_rate = 0.0
        for algo in scen.algorithms:
            for inst in scen.instances:
                rec = run_record(scen, inst, algo)
                if rec.status != "ok" or not 0 < rec.value <= budget:
                    continue
                t = rec.value
                solved = sum(
                    1
                    for other in scen.instances
                    if run_record(scen, other, algo).status == "ok" and run_record(scen, other, algo).value <= t
                )
                best_rate = max(best_rate, solved / t)
        assert 4 / 30.0 == pytest.approx(best_rate)

    def test_nothing_solvable_within_budget(self):
        scen = build_scenario(
            {("i0", "A0"): 4000.0, ("i1", "A0"): 4500.0},
            ["A0"],
            ["i0", "i1"],
            cutoff=5000.0,
        )
        assert build_presolver(scen.instances, scen, Hyperparameters()) == ()

    def test_zero_budget_fraction(self):
        scen = self.presolve_scenario()
        hp = Hyperparameters(presolve_budget_fraction=0.0)
        assert build_presolver(scen.instances, scen, hp) == ()

    def test_2017_mode_can_chain_steps(self):
        instances = [f"i{j}" for j in range(9)]
        runs = {}
        for j, inst in enumerate(instances):
            runs[(inst, "A0")] = 10.0 if j < 3 else (1000.0, "timeout")
            runs[(inst, "A1")] = 20.0 if 3 <= j < 6 else (1000.0, "timeout")
        scen = build_scenario(runs, ["A0", "A1"], instances, cutoff=1000.0)
        hp = Hyperparameters(presolve_budget_fraction=0.1)
        one = build_presolver(scen.instances, scen, hp, max_steps=1)
        three = build_presolver(scen.instances, scen, hp, max_steps=3)
        assert len(one) == 1
        assert [s.algorithm for s in three] == ["A0", "A1"]

    def test_presolved_instances_removed_before_fitting(self):
        scen = self.presolve_scenario()
        model = fit_system(scen, scen.instances, "sunny", Hyperparameters(n_trees=2))
        assert model.presolve
        # the four instances A0 dispatches in 30s are gone from the store
        assert np.asarray(model.payload["X"]).shape[0] == 6

    def test_quality_scenarios_never_presolve(self):
        scen = random_scenario(2, objective="quality")
        model = fit_system(scen, scen.instances, "regression", FAST)
        assert model.presolve == ()


class TestPredictSchedules:
    def test_runtime_schedule_shape(self, tutorial):
        model = fit_system(tutorial, tutorial.splits[0].train, "regression", FAST)
        schedule = schedule_map(predict_batch(model, tutorial, ["i4"]))["i4"]
        _oracle_check_schedule(tutorial, schedule)
        kinds = [type(s).__name__ for s in schedule]
        n_presolve = len(model.presolve)
        assert kinds[n_presolve:-1] == ["FeatureStep", "FeatureStep"]
        assert isinstance(schedule[-1], SolverStep)
        total_budget = math.fsum(s.budget for s in schedule if isinstance(s, SolverStep))
        assert total_budget <= tutorial.cutoff + 1e-9

    def test_quality_schedule_is_one_step(self):
        scen = random_scenario(4, objective="quality")
        model = fit_system(scen, scen.splits[0].train, "regression", FAST)
        for inst in scen.splits[0].test:
            schedule = schedule_map(predict_batch(model, scen, [inst]))[inst]
            assert len(schedule) == 1
            assert isinstance(schedule[0], SolverStep)
            _oracle_check_schedule(scen, schedule)

    def test_missing_features_fall_back_to_sbs_with_warning(self):
        scen = learnable_scenario(n_train=40, n_test=5, seed=3)
        blank = scen.splits[0].test[0]
        features = feature_vectors(scen)
        features[blank] = (None, None, None, None)
        scen = replace(scen, features=features)
        model = fit_system(scen, scen.splits[0].train, "regression", FAST)
        with pytest.warns(UserWarning, match="falling back"):
            schedule = schedule_map(predict_batch(model, scen, [blank]))[blank]
        solver_steps = [s for s in schedule if isinstance(s, SolverStep)]
        assert solver_steps[-1].algorithm == model.sbs_algorithm
        assert not any(isinstance(s, FeatureStep) for s in schedule)

    def test_feature_subset_discipline(self):
        # a model is declared on group "base" only; mangling the other
        # group's values must not change a single prediction
        scen = learnable_scenario(n_train=80, n_test=30, seed=5)
        from asbench import FeatureGroup

        groups = (
            FeatureGroup("base", (0, 1), cost={i: 1.0 for i in scen.instances}),
            FeatureGroup("extra", (2, 3), cost={i: 1.0 for i in scen.instances}),
        )
        scen = replace(scen, feature_groups=groups)
        split = scen.splits[0]
        model = fit_system(scen, split.train, "regression", FAST, feature_groups=["base"])
        assert model.feature_groups == ("base",)
        mangled = replace(
            scen,
            features={
                inst: (vec[0], vec[1], 999.0, -999.0) for inst, vec in feature_vectors(scen).items()
            },
        )
        for inst in split.test:
            assert schedule_map(predict_batch(model, scen, [inst]))[inst] == schedule_map(predict_batch(model, mangled, [inst]))[inst]
        schedule = schedule_map(predict_batch(model, scen, [split.test[0]]))[split.test[0]]
        feature_steps = [s for s in schedule if isinstance(s, FeatureStep)]
        assert [s.group for s in feature_steps] == ["base"]

    def test_model_of_another_portfolio_is_refused(self):
        scen = learnable_scenario(n_train=40, n_test=5, seed=6)
        split = scen.splits[0]
        model = fit_system(scen, split.train, "regression", FAST)
        renamed = replace(model, algorithms=("Z0", "Z1", "Z2"))
        shorter = replace(model, algorithms=model.algorithms[:2])
        for foreign in (renamed, shorter):
            with pytest.raises(ValueError, match="portfolio"):
                predict_batch(foreign, scen, split.test)

    def test_model_of_other_feature_columns_is_refused(self):
        scen = learnable_scenario(n_train=40, n_test=5, seed=6)
        from asbench import FeatureGroup

        def grouped(base, extra):
            cost = {i: 1.0 for i in scen.instances}
            groups = (FeatureGroup("base", base, cost=cost), FeatureGroup("extra", extra, cost=cost))
            return replace(scen, feature_groups=groups)

        split = scen.splits[0]
        model = fit_system(scen, split.train, "regression", FAST, feature_groups=["all"])
        with pytest.raises(ValueError, match="unknown feature groups"):
            predict_batch(model, grouped((0, 1), (2, 3)), split.test)
        model = fit_system(grouped((0, 1), (2, 3)), split.train, "regression", FAST, ["base"])
        with pytest.raises(ValueError, match="other columns"):
            predict_batch(model, grouped((2, 3), (0, 1)), split.test)

    def test_all_kinds_emit_legal_schedules(self):
        scen = learnable_scenario(n_train=50, n_test=10, seed=6)
        split = scen.splits[0]
        for kind in ("regression", "pairwise", "cluster", "stacking", "sunny"):
            model = fit_system(scen, split.train, kind, Hyperparameters(n_trees=5, seed=2))
            for inst in split.test:
                _oracle_check_schedule(scen, schedule_map(predict_batch(model, scen, [inst]))[inst])


def payload_arrays(payload) -> dict:
    """Every value of a payload by its path, forests opened into their
    fields, and arrays as (dtype, shape, bytes)."""
    out = {}

    def walk(path, value):
        if isinstance(value, Forest):
            value = vars(value)
        if isinstance(value, dict):
            for key, v in value.items():
                walk(f"{path}.{key}", v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{path}[{i}]", v)
        elif isinstance(value, np.ndarray):
            out[path] = (value.dtype, value.shape, value.tobytes())
        else:
            out[path] = value

    walk("payload", payload)
    return out


def constant_features(scen):
    """The scenario with one value per feature column on every instance."""
    return replace(scen, features={i: (1.0,) * len(scen.feature_names) for i in scen.instances})


# case: (scenario factory, hyperparameters, mode)
ROUND_TRIPS = {
    "learnable": (
        lambda: learnable_scenario(n_train=40, n_test=10, seed=4),
        Hyperparameters(n_trees=5, seed=3),
        "icon2015",
    ),
    "quality-maximize": (
        lambda: replace(
            random_scenario(6, n_algos=3, n_insts=30, objective="quality"), direction="maximize"
        ),
        Hyperparameters(n_trees=5, seed=3),
        "icon2015",
    ),
    "constant-features": (
        lambda: constant_features(learnable_scenario(n_train=40, n_test=10, seed=4)),
        Hyperparameters(n_trees=5, seed=3),
        "icon2015",
    ),
    "one-tree": (
        lambda: learnable_scenario(n_train=40, n_test=10, seed=4),
        Hyperparameters(n_trees=1, seed=3),
        "icon2015",
    ),
    "oasc2017-presolver": (
        lambda: learnable_scenario(n_train=40, n_test=10, seed=4),
        Hyperparameters(n_trees=5, seed=3, presolve_budget_fraction=0.2),
        "oasc2017",
    ),
}


class TestDeterminismAndSerialization:
    def test_same_seed_same_artifact_bytes(self, tmp_path):
        scen = learnable_scenario(n_train=60, n_test=10, seed=2)
        split = scen.splits[0]
        paths = []
        for run in ("a", "b"):
            model = fit_system(scen, split.train, "regression", Hyperparameters(n_trees=10, seed=5))
            path = tmp_path / f"model_{run}.json"
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_the_model(self, tmp_path):
        scen = learnable_scenario(n_train=60, n_test=10, seed=2)
        split = scen.splits[0]
        a = fit_system(scen, split.train, "regression", Hyperparameters(n_trees=10, seed=5))
        b = fit_system(scen, split.train, "regression", Hyperparameters(n_trees=10, seed=6))
        save_model(a, tmp_path / "a.json")
        save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "kind, case",
        [
            pytest.param(kind, case, id=kind if case == "learnable" else f"{kind}-{case}")
            for case in ROUND_TRIPS
            for kind in ("regression", "pairwise", "cluster", "stacking", "sunny")
        ],
    )
    def test_round_trip_preserves_behavior(self, tmp_path, kind, case):
        make, hp, mode = ROUND_TRIPS[case]
        scen = make()
        split = scen.splits[0]
        model = fit_system(scen, split.train, kind, hp, mode=mode)
        if case == "constant-features":
            assert not any(model.pre.kept)
        if case == "oasc2017-presolver":
            assert len(model.presolve) > 1
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert payload_arrays(loaded.payload) == payload_arrays(model.payload)
        for tag, m in (("fitted", model), ("loaded", loaded)):
            write_predictions(predict_batch(m, scen, split.test), scen, tmp_path / f"{tag}.csv")
        assert (tmp_path / "fitted.csv").read_bytes() == (tmp_path / "loaded.csv").read_bytes()
        again = tmp_path / "again.json"
        save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("mode", ["icon2015", "oasc2017"])
    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    def test_blinding_the_test_rows_changes_no_byte(self, tmp_path, kind, mode):
        """No selector reads a test row's runs: with the test rows set to
        value 0 and status ok, as a withheld test set is, the model and the
        prediction file keep every byte."""
        scen = learnable_scenario(n_train=120, n_test=60, seed=5)
        split = scen.splits[0]
        value, status = scen.runs.value.copy(), scen.runs.status.copy()
        rows = [scen.row[i] for i in split.test]
        value[rows], status[rows] = 0.0, STATUS_CODE["ok"]
        blind = replace(scen, runs=Runs(value, status))
        assert (blind.cost[rows] != scen.cost[rows]).any()
        hp = Hyperparameters(n_trees=5, seed=1, presolve_budget_fraction=0.1)
        blobs = []
        for tag, s in (("plain", scen), ("blind", blind)):
            model = fit_system(s, split.train, kind, hp, mode=mode)
            save_model(model, tmp_path / f"{tag}.json")
            write_predictions(predict_batch(model, s, split.test), s, tmp_path / f"{tag}.csv")
            blobs.append(((tmp_path / f"{tag}.json").read_bytes(), (tmp_path / f"{tag}.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_load_rejects_other_files(self, tmp_path):
        bad = tmp_path / "not_a_model.json"
        for text in ('{"hello": 1}', "[1, 2]"):
            bad.write_text(text)
            with pytest.raises(ValueError, match="not a selector model"):
                load_model(bad)
        scen = learnable_scenario(n_train=40, n_test=5, seed=4)
        good = tmp_path / "model.json"
        save_model(fit_system(scen, scen.splits[0].train, "cluster", FAST), good)
        doc = json.loads(good.read_text())
        for key in ("payload", "preprocess", "kind"):
            bad.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
            with pytest.raises(ValueError, match=re.escape(f"{bad}: model document has no {key!r}")):
                load_model(bad)
        bad.write_text(json.dumps({**doc, "kind": "oracle"}))
        with pytest.raises(ValueError, match="unknown selector kind 'oracle'"):
            load_model(bad)
        no_medians = {k: v for k, v in doc["preprocess"].items() if k != "medians"}
        leftover = {**doc["hyperparameters"], "k_neighbors": 32}
        for field, value, key in (
            ("preprocess", no_medians, "medians"),
            ("hyperparameters", leftover, "k_neighbors"),
        ):
            bad.write_text(json.dumps({**doc, field: value}))
            message = re.escape(f"{bad}: model field {field!r} does not fit: ") + f".*'{key}'"
            with pytest.raises(ValueError, match=message):
                load_model(bad)

    @pytest.mark.parametrize("kind", SELECTOR_KINDS)
    def test_round_trip_keeps_each_array_bit_for_bit(self, tmp_path, kind):
        """Every payload array loads with the dtype, shape and bytes it was
        saved with: NaN, ±inf and -0.0 in float arrays, and a bool ``solved``."""
        scen = learnable_scenario(n_train=40, n_test=10, seed=4)
        model = fit_system(scen, scen.splits[0].train, kind, Hyperparameters(n_trees=3, seed=3))
        payload = with_special_floats(model.payload)
        if kind == "sunny":
            assert payload["solved"].dtype == bool
        path = tmp_path / "model.json"
        save_model(replace(model, payload=payload), path)
        assert payload_arrays(load_model(path).payload) == payload_arrays(payload)

    @pytest.mark.parametrize("shape", [(0, 4), (0,), (3, 0), ()])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, bool])
    def test_codec_round_trips_empty_and_scalar_arrays(self, shape, dtype):
        array = np.zeros(shape, dtype=dtype)
        got = selectors._decode(json.loads(json.dumps(selectors._encode(array))))
        assert (got.dtype, got.shape, got.tobytes()) == (array.dtype, array.shape, array.tobytes())

    @pytest.mark.parametrize("kind, field", [("cluster", "centroids"), ("sunny", "X")])
    def test_store_of_no_rows_is_refused(self, tmp_path, kind, field):
        """A store of no rows (0 centroids, 0 neighbours) leaves prediction
        nothing to pick from; fitting never makes one, and loading refuses it."""
        scen = learnable_scenario(n_train=40, n_test=10, seed=4)
        model = fit_system(scen, scen.splits[0].train, kind, Hyperparameters(n_trees=3, seed=3))
        path = tmp_path / "model.json"
        save_model(replace(model, payload={name: a[:0] for name, a in model.payload.items()}), path)
        with pytest.raises(ValueError, match=f"'{field}' is not an array .* with at least one row"):
            load_model(path)

    @pytest.mark.parametrize(
        "block, message",
        [
            ({"array": "<i4", "shape": [1], "data": "AAAAAA=="}, "dtype '<i4': not ("),
            ({"array": "<f8", "shape": [1], "data": "AAAAAAAAAAA=", "order": "C"}, "'order', 'shape']"),
            ({"array": "<f8", "shape": [2], "data": "AAAAAAAAAAA="}, "of size 1 into shape (2,)"),
            ({"array": "<f8", "shape": [], "data": "AAAAAA=="}, "multiple of element size"),
            ({"array": "<f8", "shape": [1], "data": "AAAAAAAAA*A="}, "base64"),
            ({"array": "<f8", "shape": [1], "data": "AAAAAAAAAAA"}, "padding"),
            ({"array": "<f8", "shape": [-1, -1], "data": "AAAAAAAAAAA="}, "not a list of integers >= 0"),
            ({"array": "<f8", "shape": [1.0], "data": "AAAAAAAAAAA="}, "not a list of integers >= 0"),
            ({"array": "|b1", "shape": [True], "data": "AQ=="}, "not a list of integers >= 0"),
            ({"array": "<f8", "shape": 1, "data": "AAAAAAAAAAA="}, "not a list of integers >= 0"),
        ],
    )
    def test_decode_refuses_malformed_blocks(self, block, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            selectors._decode(block)

    def test_encode_refuses_arrays_it_cannot_type(self):
        for array in (np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.float32), np.array(["a"])):
            with pytest.raises(TypeError, match="cannot store"):
                selectors._encode(array)
        big_endian = np.arange(3, dtype=">i8")
        assert selectors._encode(big_endian) == selectors._encode(np.arange(3))


def with_special_floats(value):
    """``value`` with NaN, inf, -inf and -0.0 written over the first entries
    of each of its float arrays, forests opened into their arrays."""
    if isinstance(value, Forest):
        return Forest(**{name: with_special_floats(v) for name, v in vars(value).items()})
    if isinstance(value, dict):
        return {name: with_special_floats(v) for name, v in value.items()}
    if isinstance(value, list):
        return [with_special_floats(v) for v in value]
    if isinstance(value, np.ndarray) and value.dtype == np.float64:
        value = value.copy()
        flat = value.reshape(-1)
        flat[: min(4, flat.size)] = [math.nan, math.inf, -math.inf, -0.0][: flat.size]
        return value
    return value
