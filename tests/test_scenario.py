import math
import struct
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asbench import (
    RunRecord,
    improvement_factor,
    parse_scenario,
    sbs,
    validate,
    vbs_cost,
    write_scenario,
)
from asbench.evaluation import SolverStep, simulate
from asbench.scenario import Features, collapse_repetitions
from asbench.selectors import raw_features

from gen import build_scenario, random_scenario
from oracles import feature_vector, feature_vectors, oracle_raw_features, oracle_sbs, oracle_vbs_cost, records


def test_tutorial_is_valid(tutorial):
    assert validate(tutorial) == []


def test_missing_run_is_reported(tutorial):
    runs = records(tutorial)
    del runs[("i3", "A2")]
    from dataclasses import replace

    broken = replace(tutorial, runs=runs)
    violations = validate(broken)
    assert any(v.code == "missing_run" and v.entity == "i3/A2" for v in violations)


def test_ok_value_over_cutoff_is_reported():
    scen = build_scenario(
        {("i0", "A0"): 6000.0, ("i1", "A0"): 10.0},
        ["A0"],
        ["i0", "i1"],
        cutoff=5000.0,
    )
    violations = validate(scen)
    assert any(v.code == "value_exceeds_cutoff" and "i0" in v.entity for v in violations)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_reported(tutorial, bad):
    runs = {**records(tutorial), ("i1", "A1"): RunRecord(bad, "ok")}
    base, probing = tutorial.feature_groups
    costly = replace(base, cost={**base.cost, "i2": bad})
    broken = {
        "i1/A1": replace(tutorial, runs=runs),
        "base": replace(tutorial, feature_groups=(costly, probing)),
        "tutorial": replace(tutorial, cutoff=bad),
    }
    for entity, scen in broken.items():
        found = [v for v in validate(scen) if v.code == "non_finite_value"]
        assert [(v.entity, v.severity) for v in found] == [(entity, "error")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_feature_values_are_reported(tutorial, bad):
    features = {**feature_vectors(tutorial), "i2": (1.5, bad, 2.0)}
    found = [v for v in validate(replace(tutorial, features=features)) if v.code == "non_finite_value"]
    assert [(v.entity, v.severity) for v in found] == [("i2", "error")]
    assert "f_b" in found[0].detail


def test_validate_flags_split_and_group_problems(tutorial):
    from dataclasses import replace

    from asbench import FeatureGroup, Split

    scen = replace(
        tutorial,
        feature_groups=(
            FeatureGroup("base", (0, 1), cost={i: 10.0 for i in tutorial.instances}),
            FeatureGroup("probing", (1, 2), cost={i: -1.0 for i in tutorial.instances}),
        ),
        splits=(Split(split_id=0, train=("i1",), test=()),),
    )
    codes = {v.code for v in validate(scen)}
    assert {"feature_in_two_groups", "negative_cost", "empty_test_set"} <= codes


def test_duplicate_group_names_are_reported(tutorial):
    from dataclasses import replace

    from asbench import FeatureGroup

    scen = replace(
        tutorial,
        feature_groups=(
            FeatureGroup("base", (0, 1), cost={i: 1.0 for i in tutorial.instances}),
            FeatureGroup("base", (2,), cost={i: 1.0 for i in tutorial.instances}),
        ),
    )
    assert any(v.code == "duplicate_group" for v in validate(scen))


def test_missing_cost_table_is_warning_only(tutorial):
    from dataclasses import replace

    from asbench import FeatureGroup

    scen = replace(
        tutorial,
        feature_groups=(FeatureGroup("all", (0, 1, 2), cost=None),),
    )
    violations = validate(scen)
    assert violations and all(v.severity == "warning" for v in violations)


def test_collapse_repetitions_mean_and_worst_status():
    rec = collapse_repetitions(
        [RunRecord(10.0, "ok"), RunRecord(20.0, "ok"), RunRecord(30.0, "crash")]
    )
    assert rec.value == pytest.approx(20.0)
    assert rec.status == "crash"
    # fsum overflows on these: the mean is taken exactly, or is NaN for inf with -inf
    big, inf = 1.7976931348623157e308, math.inf
    for values, mean in (
        ([1e308, 1e308], 1e308),
        ([big, big, big], big),
        ([-big, -big, 5.0], float((-2 * Fraction(big) + 5) / 3)),
        ([big, big, inf], inf),
        ([big, big, -inf], -inf),
    ):
        assert collapse_repetitions([RunRecord(v, "ok") for v in values]).value == mean
    for values in ([inf, -inf], [-inf, 1.0, inf], [big, big, inf, -inf]):
        assert math.isnan(collapse_repetitions([RunRecord(v, "ok") for v in values]).value)


def test_effective_cost_penalizes_any_non_ok_status():
    scen = build_scenario(
        {("i0", "A0"): (1.0, "crash"), ("i0", "A1"): 1.0},
        ["A0", "A1"],
        ["i0"],
        cutoff=100.0,
    )
    assert scen.cost.tolist() == [[1000.0, 1.0]]


class TestVbsCost:
    def test_simple_min(self):
        scen = build_scenario(
            {("i0", "A0"): 10.0, ("i0", "A1"): 100.0}, ["A0", "A1"], ["i0"], cutoff=5000.0
        )
        assert vbs_cost(scen, "i0") == 10.0

    def test_all_timeouts_hit_the_penalty(self):
        scen = build_scenario(
            {("i0", "A0"): (5000.0, "timeout"), ("i0", "A1"): (5000.0, "timeout")},
            ["A0", "A1"],
            ["i0"],
            cutoff=5000.0,
        )
        assert vbs_cost(scen, "i0") == 50000.0

    def test_unknown_instance(self, tutorial):
        with pytest.raises(ValueError):
            vbs_cost(tutorial, "nope")

    def test_matches_bruteforce_on_random_scenarios(self):
        for seed in range(40):
            scen = random_scenario(seed)
            for inst in scen.instances:
                assert vbs_cost(scen, inst) == oracle_vbs_cost(scen, inst)

    def test_lower_bounds_every_algorithm(self):
        for seed in range(25):
            scen = random_scenario(seed)
            for inst in scen.instances:
                assert (vbs_cost(scen, inst) <= scen.cost[scen.row[inst]]).all()


class TestSbs:
    def test_dominant_algorithm_wins(self):
        runs = {("i0", "A0"): 1.0, ("i0", "A1"): 2.0, ("i1", "A0"): 1.0, ("i1", "A1"): 2.0}
        scen = build_scenario(runs, ["A0", "A1"], ["i0", "i1"])
        assert sbs(scen, scen.instances) == "A0"

    def test_tie_breaks_by_portfolio_order(self):
        runs = {("i0", "A0"): 5.0, ("i0", "A1"): 5.0}
        scen = build_scenario(runs, ["A0", "A1"], ["i0"])
        assert sbs(scen, ["i0"]) == "A0"
        flipped = build_scenario(runs={("i0", "B"): 5.0, ("i0", "A0"): 5.0},
                                 algorithms=["B", "A0"], instances=["i0"])
        assert sbs(flipped, ["i0"]) == "B"

    def test_empty_training_set(self, tutorial):
        with pytest.raises(ValueError):
            sbs(tutorial, [])

    def test_matches_exhaustive_totals(self):
        for seed in range(40):
            scen = random_scenario(seed, n_insts=5, n_algos=4)
            assert sbs(scen, scen.instances) == oracle_sbs(scen, scen.instances)

    def test_invariant_under_common_rescaling(self):
        for seed in range(10):
            scen = random_scenario(seed)
            factor = 3.5
            scaled = build_scenario(
                {
                    pair: (rec.value * factor, rec.status)
                    for pair, rec in records(scen).items()
                },
                scen.algorithms,
                scen.instances,
                cutoff=scen.cutoff * factor,
                features=feature_vectors(scen),
                feature_names=scen.feature_names,
                groups=scen.feature_groups,
            )
            assert sbs(scen, scen.instances) == sbs(scaled, scaled.instances)


class TestImprovementFactor:
    def test_ratio(self):
        runs = {}
        for j, inst in enumerate(["i0", "i1", "i2", "i3"]):
            runs[(inst, "A0")] = 120.0
            runs[(inst, "A1")] = 10.0 if j < 2 else 2000.0
            runs[(inst, "A2")] = 2000.0 if j < 2 else 10.0
        scen = build_scenario(runs, ["A0", "A1", "A2"], ["i0", "i1", "i2", "i3"])
        assert improvement_factor(scen) == pytest.approx(12.0)

    def test_single_algorithm_portfolio(self):
        scen = build_scenario({("i0", "A0"): 10.0, ("i1", "A0"): 20.0}, ["A0"], ["i0", "i1"])
        assert improvement_factor(scen) == pytest.approx(1.0)

    def test_all_timeout_instances_are_excluded(self):
        runs = {
            ("i0", "A0"): 100.0,
            ("i0", "A1"): 400.0,
            ("i1", "A0"): (5000.0, "timeout"),
            ("i1", "A1"): (5000.0, "timeout"),
        }
        scen = build_scenario(runs, ["A0", "A1"], ["i0", "i1"])
        # only i0 counts: SBS = A0 with 100, VBS 100
        assert improvement_factor(scen) == pytest.approx(1.0)

    def test_degenerate_scenario(self):
        runs = {("i0", "A0"): (5000.0, "timeout")}
        scen = build_scenario(runs, ["A0"], ["i0"])
        with pytest.raises(ValueError):
            improvement_factor(scen)

    @pytest.mark.parametrize(
        "runs, objective, direction",
        [
            # every instance's best run takes 0.0 s: the VBS mean is 0
            ({("i0", "A0"): 0.0, ("i0", "A1"): 5.0, ("i1", "A0"): 3.0, ("i1", "A1"): 0.0}, "runtime", "minimize"),
            # SBS A0 has mean 0; the VBS mean is (2 - 1.5) / 2
            ({("i0", "A0"): 2.0, ("i0", "A1"): -1.0, ("i1", "A0"): -2.0, ("i1", "A1"): -1.5}, "quality", "maximize"),
            # the VBS takes -1 on i0 and 1 on i1: mean 0
            ({("i0", "A0"): 1.0, ("i0", "A1"): -1.0, ("i1", "A0"): 1.0, ("i1", "A1"): 5.0}, "quality", "minimize"),
            # the VBS beats the SBS in both, yet the ratio of the negative
            # means would read below 1: SBS A0 mean -5.0 (A1 -5.5), VBS -3.5 ...
            ({("i0", "A0"): -4.0, ("i0", "A1"): -8.0, ("i1", "A0"): -6.0, ("i1", "A1"): -3.0}, "quality", "maximize"),
            # ... and SBS A0 mean -5.5 (A1 -4.5), VBS -7.0
            ({("i0", "A0"): -4.0, ("i0", "A1"): -7.0, ("i1", "A0"): -7.0, ("i1", "A1"): -2.0}, "quality", "minimize"),
        ],
        ids=["runtime-vbs-zero", "maximize-sbs-zero", "minimize-vbs-zero", "maximize-negative", "minimize-negative"],
    )
    def test_undefined_without_two_positive_means(self, runs, objective, direction):
        scen = build_scenario(runs, ["A0", "A1"], ["i0", "i1"], objective=objective, direction=direction)
        assert improvement_factor(scen) is None

    def test_maximize_quality_bruteforce(self):
        runs = {
            ("i0", "A0"): 0.80,
            ("i1", "A0"): 0.84,
            ("i0", "A1"): 0.83,
            ("i1", "A1"): 0.80,
        }
        scen = build_scenario(
            runs, ["A0", "A1"], ["i0", "i1"], objective="quality", direction="maximize"
        )
        # exhaustive: SBS is A0 (mean 0.82 vs 0.815); VBS mean is (0.83 + 0.84) / 2
        expected = ((0.83 + 0.84) / 2) / 0.82
        got = improvement_factor(scen)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(1.0183, abs=5e-4)

    def test_minimize_quality_by_hand(self):
        runs = {("i0", "A0"): 3.0, ("i1", "A0"): 2.0, ("i0", "A1"): 1.0, ("i1", "A1"): 6.0}
        scen = build_scenario(runs, ["A0", "A1"], ["i0", "i1"], cutoff=None, objective="quality")
        # SBS is A0 (mean 2.5 against 3.5); the VBS takes 1.0 on i0 and 2.0 on i1, mean 1.5
        assert improvement_factor(scen) == 2.5 / 1.5

    def test_at_least_one_on_random_scenarios(self):
        for seed in range(25):
            scen = random_scenario(seed)
            try:
                factor = improvement_factor(scen)
            except ValueError:
                continue
            assert factor >= 1.0 - 1e-12


def test_best_ok_time_caps_at_cutoff():
    scen = build_scenario(
        {("i0", "A0"): (5000.0, "timeout"), ("i0", "A1"): (300.0, "crash")},
        ["A0", "A1"],
        ["i0"],
        cutoff=5000.0,
    )
    assert scen.capped[0].min() == 5000.0
    # no algorithm solves i0, so even a timed-out system loses nothing to the best
    out = simulate(scen, "i0", (SolverStep("A0", 5000.0),))
    assert (out.solved[0], out.time_used[0]) == (False, 5000.0)
    assert out.mcp[0] == 0.0


# The stored feature table: arrays aligned to the instances.

FEATURE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, -1.7976931348623157e308])


def _bits(v):
    return None if v is None else struct.pack("<d", v)


@st.composite
def feature_scenarios(draw, cell=st.none() | st.floats()):
    """(scenario, vectors): a one-algorithm scenario built from a dict of
    ``vectors``, whose cells may be None, NaN (any payload) or infinite."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    instances = [f"i{j}" for j in range(n)]
    vectors = {i: tuple(draw(st.lists(cell, min_size=d, max_size=d))) for i in instances}
    scen = build_scenario(
        {(i, "A0"): 1.0 for i in instances},
        ["A0"],
        instances,
        features=vectors,
        feature_names=[f"f{j}" for j in range(d)],
        groups=() if d == 0 else None,
    )
    return scen, vectors


@FEATURE_SETTINGS
@given(data=st.data(), spec=feature_scenarios())
def test_raw_features_match_the_per_row_walk(data, spec):
    scen, _ = spec
    n, d = scen.features.matrix.shape
    rows = data.draw(st.lists(st.sampled_from(scen.instances), max_size=2 * n), label="rows")
    columns = data.draw(st.lists(st.integers(0, d - 1), max_size=6) if d else st.just([]), label="columns")
    got, want = raw_features(scen, rows, columns), oracle_raw_features(scen, rows, columns)
    assert got.dtype == want.dtype and got.shape == want.shape == (len(rows), len(columns))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.isnan(got), np.isnan(want))


def test_raw_features_of_no_columns_and_no_rows(tutorial):
    assert raw_features(tutorial, tutorial.instances, ()).shape == (5, 0)
    assert raw_features(tutorial, (), (0, 2)).shape == (0, 2)
    assert np.isnan(raw_features(tutorial, ["i3", "i1"], [1, 1])[0]).all()


@FEATURE_SETTINGS
@given(spec=feature_scenarios())
def test_from_vectors_stores_every_vector_bit_for_bit(spec):
    scen, vectors = spec
    assert scen.instances == tuple(vectors)
    for r, (inst, vec) in enumerate(vectors.items()):
        back = feature_vector(scen, inst)
        assert type(back) is tuple and all(v is None or type(v) is float for v in back)
        assert list(map(_bits, back)) == list(map(_bits, vec))
        # a missing value reads as NaN, marked missing
        assert scen.features.missing[r].tolist() == [v is None for v in vec]
        assert all(math.isnan(x) for x, v in zip(scen.features.matrix[r].tolist(), vec) if v is None)
    assert feature_vectors(scen).keys() == vectors.keys()


@FEATURE_SETTINGS
@given(spec=feature_scenarios(cell=st.none() | FINITE))
@example(spec=(build_scenario({("i0", "A0"): 1.0}, ["A0"], ["i0"], features={"i0": (-0.0, None, 0.0)}), {"i0": (-0.0, None, 0.0)}))
def test_feature_table_round_trips_through_a_bundle(spec):
    scen, vectors = spec
    with tempfile.TemporaryDirectory() as tmp:
        write_scenario(scen, Path(tmp) / "b")
        back = parse_scenario(Path(tmp) / "b")
    assert back == scen
    assert back.features.matrix.tobytes() == scen.features.matrix.tobytes()
    assert {i: list(map(_bits, feature_vector(back, i))) for i in vectors} == {
        i: list(map(_bits, vec)) for i, vec in vectors.items()
    }


def test_feature_table_is_read_only_and_kept_by_replace(tutorial):
    features = tutorial.features
    assert isinstance(features, Features)
    assert features.matrix.shape == features.missing.shape == (5, 3)
    assert features.missing.tolist()[2] == [False, True, False] and math.isnan(features.matrix[2, 1])
    for array in (features.matrix, features.missing):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    assert replace(tutorial, cutoff=4000.0).features is features
    assert feature_vector(tutorial, "i3") == (2.5, None, 1.0)
    # the table is its arrays, not the dict it was built from
    vectors = feature_vectors(tutorial)
    assert Features.from_vectors(vectors, tutorial.instances, 3) == features
    assert features != vectors and vectors != features


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda f: {**f, "i9": (1.0, 2.0, 3.0)}, "'i9'"),
        (lambda f: {**f, "i2": (1.0, 2.0)}, "'i2'"),
        (lambda f: {i: v for i, v in f.items() if i != "i4"}, "'i4'"),
    ],
    ids=["unknown-instance", "wrong-length", "missing-row"],
)
def test_vectors_the_table_cannot_hold_are_refused(tutorial, edit, named):
    with pytest.raises(ValueError, match=named):
        replace(tutorial, features=edit(feature_vectors(tutorial)))


def test_feature_cost_array_reads_the_group_tables(tutorial):
    base, probing = tutorial.feature_groups
    scen = replace(
        tutorial,
        feature_groups=(replace(base, cost={"i2": 7.5, "i4": -0.0}), replace(probing, cost=None)),
    )
    assert scen.feature_cost.shape == (5, 2)
    assert scen.feature_cost.tolist() == [[0.0, 0.0], [7.5, 0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, 0.0]]
    assert math.copysign(1.0, scen.feature_cost[3, 0]) == -1.0
    with pytest.raises(ValueError):
        scen.feature_cost[0, 0] = 1.0
    assert tutorial.feature_cost.tolist() == [[10.0, 100.0]] * 5
