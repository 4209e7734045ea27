"""The dense run table against per-pair recomputations and the oracles.

Runtimes are drawn on a coarse grid, so many runs, rates and totals tie,
and zero-second ok runs exercise the presolver's zero-time rule. The grid
reaches one step past the cutoff: an ok run over the cutoff is unsolved.
"""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asbench import (
    Hyperparameters,
    Split,
    build_presolver,
    build_training_set,
    sbs,
    score_system,
    vbs_cost,
)
from asbench.evaluation import RULES, Schedules, SolverStep, simulate
from asbench.scenario import RUN_STATUSES, RunRecord, Runs
from asbench.scenario_io import deobfuscate, obfuscate
from asbench.selectors import prepare_training

from gen import build_scenario, random_scenario
from oracles import (
    oracle_presolved_instances,
    oracle_presolver,
    oracle_sbs,
    oracle_simulate,
    oracle_vbs_cost,
    records,
    run_record,
)

CUTOFF = 100.0
STEP = 5.0
STATUSES = ("ok", "ok", "ok", "timeout", "memout", "crash", "other")
KINDS = (("runtime", "minimize"), ("quality", "minimize"), ("quality", "maximize"))

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def specs(draw):
    """(grid, train): grid[i][a] is (steps of STEP seconds, status); train
    indexes instances and may repeat them, as a bootstrap split does."""
    k = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, int(CUTOFF / STEP) + 1), st.sampled_from(STATUSES))
    grid = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=8))
    train = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=2 * len(grid)))
    return grid, train


def make(grid, train, objective="runtime", direction="minimize"):
    algorithms = [f"A{a}" for a in range(len(grid[0]))]
    instances = [f"i{i}" for i in range(len(grid))]
    runs = {
        (instances[i], algorithms[a]): (steps * STEP, status)
        for i, row in enumerate(grid)
        for a, (steps, status) in enumerate(row)
    }
    scen = build_scenario(
        runs, algorithms, instances, cutoff=CUTOFF, objective=objective, direction=direction
    )
    return scen, [instances[i] for i in train]


# zero-second runs only: the candidate time becomes the whole budget
ZERO_TIMES = ([[(0, "ok"), (20, "timeout")], [(0, "ok"), (20, "timeout")]], [0, 1])
# A0 solves one in 5 s, A1 two in 10 s: equal rates, the shorter time wins
RATE_TIE = ([[(1, "ok"), (2, "ok")], [(20, "timeout"), (2, "ok")]], [0, 1])
# A0 solves one in 5 s and both in 10 s: equal rates, the shorter time wins
SHORTER_TIME = ([[(1, "ok")], [(2, "ok")]], [0, 1])
# identical columns: equal rate and time, the earlier algorithm wins
FULL_TIE = ([[(1, "ok"), (1, "ok")], [(3, "ok"), (3, "ok")], [(0, "ok"), (0, "ok")]], [0, 1, 2, 2])


@SETTINGS
@given(
    spec=specs(),
    fraction=st.sampled_from([0.05, 0.1, 0.3, 0.6, 0.95]),
    mode=st.sampled_from(tuple(RULES)),
)
@example(spec=ZERO_TIMES, fraction=0.1, mode="icon2015")
@example(spec=RATE_TIE, fraction=0.3, mode="oasc2017")
@example(spec=SHORTER_TIME, fraction=0.3, mode="icon2015")
@example(spec=FULL_TIE, fraction=0.3, mode="oasc2017")
def test_presolver_matches_the_reference_search(spec, fraction, mode):
    scen, train = make(*spec)
    hp = Hyperparameters(presolve_budget_fraction=fraction)
    got = build_presolver(train, scen, hp, mode)
    assert got == oracle_presolver(train, scen, hp, max_steps=RULES[mode]["presolve_steps"])
    assert all(type(step.budget) is float for step in got)


def test_presolver_tie_rules():
    def steps(spec, mode):
        scen, train = make(*spec)
        hp = Hyperparameters(presolve_budget_fraction=0.3)  # a 30 s budget
        return [(s.algorithm, s.budget) for s in build_presolver(train, scen, hp, mode)]

    assert steps(ZERO_TIMES, "icon2015") == [("A0", 30.0)]
    assert steps(RATE_TIE, "icon2015") == [("A0", 5.0)]
    assert steps(SHORTER_TIME, "icon2015") == [("A0", 5.0)]
    assert steps(FULL_TIE, "oasc2017") == [("A0", 5.0), ("A0", 15.0)]


# i0 twice and i2 in a bootstrap sample: A0's 5 s step dispatches both copies of i0
REPEATED = ([[(1, "ok"), (4, "ok")], [(20, "timeout"), (3, "ok")], [(2, "ok"), (9, "ok")]], [0, 2, 0])
# A0's 5 s step dispatches every training instance: training keeps all, behind no prefix
ALL_DISPATCHED = ([[(1, "ok"), (3, "ok")], [(1, "ok"), (20, "timeout")]], [0, 1, 1])


@SETTINGS
@given(
    spec=specs(),
    fraction=st.sampled_from([0.05, 0.1, 0.3, 0.9, 0.999999]),
    mode=st.sampled_from(tuple(RULES)),
)
@example(spec=REPEATED, fraction=0.05, mode="icon2015")
@example(spec=ALL_DISPATCHED, fraction=0.1, mode="oasc2017")
@example(spec=RATE_TIE, fraction=0.999999, mode="oasc2017")
def test_training_keeps_what_the_prefix_leaves(spec, fraction, mode):
    scen, train = make(*spec)
    hp = Hyperparameters(presolve_budget_fraction=fraction)
    prefix, ts = prepare_training(scen, train, hp, mode)
    full = oracle_presolver(train, scen, hp, max_steps=RULES[mode]["presolve_steps"])
    dispatched = oracle_presolved_instances(full, scen, train)
    left = tuple(i for i in train if i not in dispatched)
    if left:
        assert (prefix, ts.instances) == (full, left)
    else:  # the fallback: a selector for every instance, behind no prefix
        assert (prefix, ts.instances) == ((), tuple(train))


@SETTINGS
@given(spec=specs(), kind=st.sampled_from(KINDS))
def test_sbs_and_vbs_match_the_oracles(spec, kind):
    scen, train = make(*spec, *kind)
    assert sbs(scen, train) == oracle_sbs(scen, train)
    for inst in scen.instances:
        got = vbs_cost(scen, inst)
        assert type(got) is float
        assert got == oracle_vbs_cost(scen, inst)


@SETTINGS
@given(spec=specs(), kind=st.sampled_from(KINDS))
def test_training_set_matches_per_pair_recomputation(spec, kind):
    scen, train = make(*spec, *kind)
    ts = build_training_set(scen, train)
    assert ts.costs.shape == ts.solved.shape == (len(train), len(scen.algorithms))
    for r, inst in enumerate(train):
        for c, algo in enumerate(scen.algorithms):
            rec = run_record(scen, inst, algo)
            if scen.objective == "runtime":
                solved = rec.status == "ok" and rec.value <= scen.cutoff
                cost = rec.value if solved else 10 * scen.cutoff
            else:
                solved = rec.status == "ok"
                cost = -rec.value if scen.direction == "maximize" else rec.value
            assert ts.solved[r, c] == solved
            assert ts.costs[r, c] == cost
            assert scen.cost[scen.row[inst], c] == cost


# A0 is the single best solver: a memout (15 s) and a crash (10 s) die
# before the cutoff, and A1's 105 s ok run lies over it
EARLY_DEATHS = ([[(3, "memout"), (21, "ok")], [(1, "ok"), (20, "timeout")], [(2, "crash"), (4, "ok")]], [0, 1, 2])


@SETTINGS
@given(spec=specs(), kind=st.sampled_from(KINDS))
@example(spec=EARLY_DEATHS, kind=KINDS[0])
def test_sbs_scores_match_oracle_replays(spec, kind):
    scen, train = make(*spec, *kind)
    test = scen.instances
    algo = oracle_sbs(scen, train)
    n = len(test)

    def mean(xs):
        return math.fsum(xs) / n

    if scen.objective == "quality":
        schedules = {i: (SolverStep(scen.algorithms[-1], 0.0),) for i in test}
        report = score_system(scen, Split(0, tuple(train), test), Schedules.from_steps(scen, schedules.items()))
        assert report.metrics["quality"].sbs == mean(run_record(scen, i, algo).value for i in test)
        return
    # the system runs the last algorithm for half the cutoff, then the first
    system = (SolverStep(scen.algorithms[-1], CUTOFF / 2), SolverStep(scen.algorithms[0], CUTOFF))
    report = score_system(scen, Split(0, tuple(train), test), Schedules.from_steps(scen, [(i, system) for i in test]))
    best = [min(oracle_vbs_cost(scen, i), CUTOFF) for i in test]
    for metric, schedule in (("sbs", (SolverStep(algo, CUTOFF),)), ("value", system)):
        replays = [oracle_simulate(scen, i, schedule) for i in test]
        par10 = mean(t if ok else 10 * CUTOFF for ok, t in replays)
        mcp = mean(min(t, CUTOFF) - b for (_, t), b in zip(replays, best))
        solved = mean(float(ok) for ok, _ in replays)
        got = {name: getattr(report.metrics[name], metric) for name in ("par10", "mcp", "solved")}
        assert got == {"par10": par10, "mcp": mcp, "solved": solved}


def test_table_is_cached_read_only_and_in_scenario_order(tutorial):
    arrays = tutorial.solved, tutorial.cost, tutorial.capped
    assert all(a is b for a, b in zip(arrays, (tutorial.solved, tutorial.cost, tutorial.capped)))
    assert list(tutorial.row) == list(tutorial.instances)
    for array in arrays:
        assert array.shape == (len(tutorial.instances), len(tutorial.algorithms))
        with pytest.raises(ValueError):
            array[0, 0] = 0
    row = tutorial.row["i2"]
    # i2: A1 timed out, A2 took 80 s, A3 hit a memout
    assert tutorial.solved[row].tolist() == [False, True, False]
    assert tutorial.capped[row].min() == 80.0
    # A1 times out in its 20 s slice, then A2 solves at 100 s
    out = simulate(tutorial, "i2", (SolverStep("A1", 20.0), SolverStep("A2", 4980.0)))
    assert (out.solved[0], out.time_used[0]) == (True, 100.0)
    assert out.mcp.tolist() == [20.0]


@st.composite
def record_tables(draw):
    """(instances, algorithms, records): any float, NaN, infinities and -0.0
    included, under any status; about one pair in four has no record."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    instances, algorithms = [f"i{j}" for j in range(n)], [f"A{j}" for j in range(k)]
    table = {
        (i, a): RunRecord(draw(st.floats()), draw(st.sampled_from(RUN_STATUSES)))
        for i in instances
        for a in algorithms
        if draw(st.integers(0, 3))
    }
    return instances, algorithms, table


@SETTINGS
@given(spec=record_tables())
def test_from_records_stores_every_record_bit_for_bit(spec):
    instances, algorithms, table = spec
    scen = build_scenario(table, algorithms, instances)
    back = records(scen)
    assert list(back) == list(table)
    for (inst, algo), rec in table.items():
        assert struct.pack("<d", back[inst, algo].value) == struct.pack("<d", rec.value)
        assert back[inst, algo].status == rec.status
    for r, inst in enumerate(instances):
        for c, algo in enumerate(algorithms):
            if (inst, algo) not in table:
                assert run_record(scen, inst, algo) is None
                assert scen.runs.status[r, c] == -1 and math.isnan(scen.runs.value[r, c])


def test_runs_are_read_only_arrays_kept_by_replace(tutorial):
    runs = tutorial.runs
    assert runs.value.shape == runs.status.shape == (5, 3)
    for array in (runs.value, runs.status):
        with pytest.raises(ValueError):
            array[0, 0] = 0
    assert replace(tutorial, cutoff=4000.0).runs is runs
    table = records(tutorial)
    assert list(table) == [(i, a) for i in tutorial.instances for a in tutorial.algorithms]
    assert run_record(tutorial, "i2", "A3") == RunRecord(900.0, "memout")
    # the table is its arrays, not the dict it was built from
    assert Runs.from_records(table, tutorial.instances, tutorial.algorithms) == runs
    assert runs != table and table != runs
    # a pair without a record reads as status -1 and NaN
    del table[("i3", "A2")]
    holed = replace(tutorial, runs=table)
    assert holed.runs.status[2, 1] == -1 and math.isnan(holed.runs.value[2, 1])
    assert run_record(holed, "i3", "A2") is None and records(holed) == table


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), objective=st.sampled_from(("runtime", "quality")))
def test_labels_index_the_tables_and_renaming_keeps_them(seed, objective):
    scen = random_scenario(seed, objective=objective)
    assert scen.row == {i: scen.instances.index(i) for i in scen.instances}
    assert scen.col == {a: scen.algorithms.index(a) for a in scen.algorithms}
    assert scen.row is scen.row and scen.col is scen.col
    hidden, name_map = obfuscate(scen, seed=seed)
    # the tables are positional: renaming moves only the labels
    assert hidden.runs is scen.runs and hidden.features is scen.features
    assert {name_map["instances"][i]: r for i, r in hidden.row.items()} == scen.row
    assert {name_map["algorithms"][a]: c for a, c in hidden.col.items()} == scen.col
    assert deobfuscate(hidden, name_map) == scen


def test_a_table_of_another_shape_is_refused(tutorial):
    # (5, 3) runs and features, 3 feature names
    cases = [
        (dict(instances=tutorial.instances[:3]), "run table has shape (5, 3), expected (3, 3)"),
        (dict(algorithms=tutorial.algorithms + ("A4",)), "run table has shape (5, 3), expected (5, 4)"),
        (dict(runs=Runs(tutorial.runs.value[:, :2], tutorial.runs.status[:, :2])),
         "run table has shape (5, 2), expected (5, 3)"),
        (dict(feature_names=tutorial.feature_names[:2]), "feature table has shape (5, 3), expected (5, 2)"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError) as info:
            replace(tutorial, **fields)
        assert str(info.value) == message


def test_records_the_table_cannot_hold_are_refused(tutorial):
    for pair, rec in ((("i9", "A1"), RunRecord(1.0)), (("i1", "A9"), RunRecord(1.0)), (("i1", "A1"), RunRecord(1.0, "lost"))):
        with pytest.raises(ValueError):
            replace(tutorial, runs={**records(tutorial), pair: rec})


def test_table_follows_the_cutoff_of_a_replaced_scenario(tutorial):
    assert tutorial.solved[tutorial.row["i3"]].tolist() == [True, True, False]
    tighter = replace(tutorial, cutoff=2000.0)
    assert tighter.runs is tutorial.runs
    # i3: A1 took 2,500 s, over the new cutoff
    assert tighter.solved[tighter.row["i3"]].tolist() == [False, True, False]
    assert tighter.cost[tighter.row["i3"], 0] == 20000.0
