"""The batch replay and the column-wise prediction parser against the
one-at-a-time code they replaced (``tests/oracles.py``)."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asbench import FeatureGroup, ParseError, RunRecord, parse_predictions, score_system, simulate, write_predictions
from asbench.evaluation import FeatureStep, Schedules, SolverStep, simulate_batch
from asbench.scenario import RUN_STATUSES

from gen import build_scenario, random_scenario, random_schedule, tutorial_scenario
from oracles import _oracle_check_schedule, oracle_parse_predictions, oracle_replay, run_record, schedule_map


# half the runs are ok, the rest spread over every status
STATUSES = st.sampled_from(("ok",) * 4 + RUN_STATUSES[1:])


def _bits(x) -> bytes:
    return struct.pack("<d", x)


def _best_time(scen, inst) -> float:
    """The instance's fastest solving run, the cutoff if no run solves it."""
    runs = [run_record(scen, inst, a) for a in scen.algorithms]
    times = [r.value for r in runs if r is not None and r.status == "ok" and r.value <= scen.cutoff]
    return min(times, default=scen.cutoff)


@st.composite
def replay_cases(draw):
    """A scenario, (instance, schedule) pairs for some of its instances, one
    of them sometimes scheduled twice, and a replay order of pair positions.

    Run values cluster on the cutoff, on halves and thirds of it and on the
    budgets, so slices end exactly on a run as often as not; some pairs have
    no run, and some feature groups have no cost table or no cost for an
    instance.
    """
    objective = draw(st.sampled_from(["runtime", "quality"]))
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    algorithms = [f"a{j}" for j in range(k)]
    instances = [f"i{j}" for j in range(n)]
    cutoff = draw(st.floats(1.0, 1000.0)) if objective == "runtime" else None
    ref = cutoff or 10.0
    times = st.floats(0.0, 2 * ref) | st.sampled_from([0.0, ref, ref / 2, ref / 3, 0.1 * ref])
    runs = {}
    for pair in ((i, a) for i in instances for a in algorithms):
        if draw(st.integers(0, 7)):  # about one pair in 8 has no run
            runs[pair] = RunRecord(draw(times), draw(STATUSES))
    groups = []
    for g in range(draw(st.integers(0, 3))):
        cost = None
        if objective == "runtime" and draw(st.booleans()):
            cost = {i: draw(times) for i in instances if draw(st.integers(0, 2))}
        groups.append(FeatureGroup(f"g{g}", (0,), cost=cost))
    scen = build_scenario(
        runs, algorithms, instances, cutoff=cutoff, objective=objective, groups=tuple(groups)
    )
    budgets = st.floats(1e-3, 2 * ref) | st.sampled_from([ref, ref / 2, ref / 3, math.inf])
    drawn = draw(st.lists(st.sampled_from(instances), unique=True, min_size=1))
    if draw(st.integers(0, 3)) == 0:  # one instance scheduled a second time
        drawn.insert(draw(st.integers(0, len(drawn))), draw(st.sampled_from(drawn)))
    pairs = []
    for inst in drawn:
        if objective == "quality":
            pairs.append((inst, (SolverStep(draw(st.sampled_from(algorithms)), 0.0),)))
            continue
        steps = [FeatureStep(g.name) for g in groups if draw(st.booleans())]
        steps += [SolverStep(draw(st.sampled_from(algorithms)), draw(budgets)) for _ in range(draw(st.integers(0, 5)))]
        pairs.append((inst, tuple(draw(st.permutations(steps)))))
    order = draw(st.permutations(range(len(pairs))))
    return scen, pairs, order


class TestSimulateBatch:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(replay_cases())
    def test_matches_the_one_instance_walk_bit_for_bit(self, case):
        scen, pairs, order = case
        stored = Schedules.from_steps(scen, pairs)
        assert list(zip(stored.instances, stored.values())) == pairs
        expected = {}
        for p in order:
            try:
                expected[p] = oracle_replay(scen, *pairs[p])
            except KeyError as exc:  # the walk reached a pair with no run
                expected[p] = exc
        lost = [p for p in order if isinstance(expected[p], KeyError)]
        if lost:
            with pytest.raises(KeyError) as info:
                simulate_batch(scen, stored, order)
            assert info.value.args == expected[lost[0]].args
        replayed = [p for p in order if p not in lost]
        want = [expected[p] for p in replayed]
        got = simulate_batch(scen, stored, replayed)
        assert got.solved.tolist() == [o.solved for o in want]
        assert got.solving_step.tolist() == [o.solving_step or 0 for o in want]
        if scen.objective == "runtime":
            cutoff = scen.cutoff
            assert list(map(_bits, got.time_used.tolist())) == [_bits(o.time_used) for o in want]
            assert list(map(_bits, got.par10.tolist())) == [_bits(o.time_used if o.solved else 10 * cutoff) for o in want]
            mcp = [min(o.time_used, cutoff) - _best_time(scen, pairs[p][0]) for o, p in zip(want, replayed)]
            assert list(map(_bits, got.mcp.tolist())) == list(map(_bits, mcp))
            assert np.isnan(got.achieved_value).all()
        else:
            assert list(map(_bits, got.achieved_value.tolist())) == [_bits(o.achieved_value) for o in want]
            assert np.isnan(np.column_stack([got.time_used, got.par10, got.mcp])).all()
        for k, p in enumerate(replayed):  # the one-row replay is the batch's row
            one = simulate(scen, *pairs[p])
            for field in dataclasses.fields(got):
                assert _bits(getattr(one, field.name)[0]) == _bits(getattr(got, field.name)[k])

    def test_invalid_schedules_raise_what_the_reference_check_raises(self, tutorial):
        cases = [
            ({"i1": (SolverStep("Z", 1.0),)}, "unknown algorithm 'Z'"),
            ({"i1": (FeatureStep("nope"),)}, "unknown feature group 'nope'"),
            ({"i1": (FeatureStep("base"), FeatureStep("base"))}, "'base' scheduled twice"),
            ({"i1": (SolverStep("A1", 0.0),)}, "must be positive, got 0.0"),
            ({"i1": (SolverStep("A1", math.nan),)}, "must be positive, got nan"),
            ({"i1": ("A1",)}, "unknown step type str"),
            ({"i1": (), "zz": ()}, "unknown instance 'zz'"),
            # the pairs' order picks the schedule whose error is raised
            ({"i4": (SolverStep("A1", -1.0),), "i1": (SolverStep("Z", 1.0),)}, "got -1.0"),
        ]
        for schedules, message in cases:
            with pytest.raises(ValueError, match=message):
                Schedules.from_steps(tutorial, schedules.items())
        quality = random_scenario(1, objective="quality")
        a0 = quality.algorithms[0]
        for schedule in ((), (SolverStep(a0, 0.0),) * 2):
            with pytest.raises(ValueError, match="exactly one solver step"):
                Schedules.from_steps(quality, [(quality.instances[0], schedule)])

    def test_a_group_without_a_cost_for_the_instance_costs_nothing(self):
        groups = (FeatureGroup("none", (0,), cost=None), FeatureGroup("part", (0,), cost={"i1": 2.0}))
        scen = build_scenario({("i0", "a"): 3.0, ("i1", "a"): 3.0}, ["a"], ["i0", "i1"], cutoff=10.0, groups=groups)
        steps = (FeatureStep("none"), FeatureStep("part"), SolverStep("a", 10.0))
        got = simulate_batch(scen, Schedules.from_steps(scen, [("i0", steps), ("i1", steps)]), [0, 1])
        assert got.time_used.tolist() == [3.0, 5.0]

    def test_an_empty_schedule_leaves_the_instance_unsolved(self, tutorial):
        stored = Schedules.from_steps(tutorial, [("i1", ()), ("i2", (SolverStep("A2", 5000.0),))])
        got = simulate_batch(tutorial, stored, [0, 1])
        assert got.solved.tolist() == [False, True]
        assert got.time_used[0] == tutorial.cutoff
        assert got.solving_step.tolist() == [0, 1]


class TestOneSchedulePerInstance:
    """A batch may schedule an instance twice; a prediction file and a score may not."""

    @staticmethod
    def twice(tutorial):  # split 0 tests i4 and i5; i4 is scheduled twice
        steps = [("i4", (SolverStep("A1", 5000.0),)), ("i5", (SolverStep("A3", 5000.0),)), ("i4", (SolverStep("A2", 5000.0),))]
        return Schedules.from_steps(tutorial, steps)

    def test_write_predictions_refuses_it(self, tmp_path, tutorial):
        with pytest.raises(ValueError, match="more than one schedule for instance 'i4'"):
            write_predictions(self.twice(tutorial), tutorial, tmp_path / "p.csv")
        assert not (tmp_path / "p.csv").exists()

    def test_score_system_refuses_it(self, tutorial):
        with pytest.raises(ValueError, match="more than one schedule for instance 'i4'"):
            score_system(tutorial, tutorial.splits[0], self.twice(tutorial))


# Prediction files: written from random legal schedules, then corrupted.
SCENARIOS = (tutorial_scenario(), random_scenario(3), random_scenario(1, objective="quality"))
JUNK = ["", "x", "1.5", "0", "-1", "nan", "inf", "1e999", "Z", "feature", "solver", "i1", "base", "A1", "2"]


@st.composite
def prediction_files(draw):
    scen = draw(st.sampled_from(SCENARIOS))
    groups = [g.name for g in scen.feature_groups]
    rows = []
    for inst in draw(st.lists(st.sampled_from(scen.instances), unique=True)):
        if scen.objective == "quality":
            steps = [("solver", draw(st.sampled_from(scen.algorithms)), "0.0")]
        else:
            steps = [("feature", g, "0.0") for g in groups if draw(st.booleans())]
            budget = st.sampled_from([repr(scen.cutoff), "1.5", "1e9", "0.25"])
            steps += [("solver", draw(st.sampled_from(scen.algorithms)), draw(budget)) for _ in range(draw(st.integers(1, 3)))]
        rows += [[inst, str(o), *step] for o, step in enumerate(steps, 1)]
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if rows:
            rows = mutation(draw, rows)
    quoted = draw(st.integers(0, 3)) == 0  # some cells quoted, so csv.reader reads the file
    cell = (lambda t: '"' + t.replace('"', '""') + '"' if draw(st.booleans()) else t) if quoted else (lambda t: t)
    lines = ["instance_id,step,kind,name,budget"] + [",".join(map(cell, row)) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "", "", "  "])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    cover = draw(st.none() | st.lists(st.sampled_from(scen.instances), unique=True, max_size=4))
    return scen, text, cover


def _pick(draw, rows):
    return draw(st.integers(0, len(rows) - 1))


def _set(draw, rows, column, values):
    row = rows[_pick(draw, rows)]
    if column < len(row):
        row[column] = draw(st.sampled_from(values))
    return rows


def _shuffle(draw, rows):
    return draw(st.permutations(rows))


def _pad(draw, rows):
    row = rows[_pick(draw, rows)]
    j = draw(st.integers(0, len(row) - 1))
    row[j] = draw(st.sampled_from([" ", "  ", "\t"])) + row[j] + " "
    return rows


def _renumber(draw, rows):  # duplicate, skipped or out-of-range ordinals
    return _set(draw, rows, 1, ["0", "1", "2", "3", "5", "-1", "99999999999999999999", "-99999999999999999999"])


def _repeat(draw, rows):  # the same step again, as the schedule's next one
    row = list(rows[_pick(draw, rows)])
    if len(row) > 1:
        row[1] = str(1 + sum(r[0] == row[0] for r in rows))
    return rows + [row]


def _budget(draw, rows):
    return _set(draw, rows, 4, ["0.0", "-0.0", "-2", "nan", "inf", "x", ""])


def _junk(draw, rows):
    return _set(draw, rows, draw(st.integers(0, 4)), JUNK)


def _columns(draw, rows):
    i = _pick(draw, rows)
    rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["x"]
    return rows


# a wrong column count hides every other error, so it comes up less often
MUTATIONS = (_shuffle, _pad, _renumber, _repeat, _budget, _junk) * 2 + (_columns,)


def _step_bits(step):
    return (step.group,) if isinstance(step, FeatureStep) else (step.algorithm, _bits(step.budget))


def _parse(parse, path, scen, cover):
    """The schedules with budgets as bits (a NaN budget is legal on quality
    scenarios), or the ParseError's location and reason."""
    try:
        schedules = parse(path, scen, require_cover=cover)
        if not isinstance(schedules, dict):
            schedules = schedule_map(schedules)
        return "ok", {inst: tuple(map(_step_bits, steps)) for inst, steps in schedules.items()}
    except ParseError as exc:
        return "error", exc.file, exc.line, exc.reason


class TestParsePredictions:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(prediction_files())
    def test_matches_the_row_parser(self, tmp_path_factory, case):
        scen, text, cover = case
        path = tmp_path_factory.mktemp("pred") / "pred.csv"
        path.write_bytes(text.encode())
        assert _parse(parse_predictions, path, scen, cover) == _parse(oracle_parse_predictions, path, scen, cover)

    @pytest.mark.parametrize("ordinal", ["0", "-1", "2", "1.0", " 1", "99999999999999999999", "-99999999999999999999"])
    def test_ordinals_past_any_intp_fail_like_the_row_parser(self, tmp_path, tutorial, ordinal):
        path = tmp_path / "pred.csv"
        path.write_text(f"instance_id,step,kind,name,budget\ni1,{ordinal},solver,A1,1.0\n")
        assert _parse(parse_predictions, path, tutorial, None) == _parse(oracle_parse_predictions, path, tutorial, None)

    def test_written_schedules_read_back_equal(self, tmp_path):
        rng = np.random.default_rng(5)
        for scen in SCENARIOS:
            schedules = {i: random_schedule(rng, scen) for i in scen.instances[::2]}
            write_predictions(Schedules.from_steps(scen, schedules.items()), scen, tmp_path / "p.csv")
            got = parse_predictions(tmp_path / "p.csv", scen)
            assert isinstance(got, Schedules)
            assert schedule_map(got) == schedules
            assert list(got.instances) == [i for i in scen.instances if i in schedules]


# Schedules breaking the schedule rules: from_steps and the prediction
# parser must refuse them with the reference check's messages.
@st.composite
def faulty_mappings(draw):
    """A scenario and a mapping of 1-3 instances to legal schedules, into
    which 0-3 violations of mixed rules are inserted at drawn positions."""
    scen = draw(st.sampled_from(SCENARIOS))
    groups = [g.name for g in scen.feature_groups]
    algorithm = st.sampled_from(scen.algorithms)
    violations = st.one_of(
        # an unknown group, or a known one again (on quality, any feature step)
        st.builds(FeatureStep, st.sampled_from(["nope", *groups])),
        # an unknown algorithm, a budget that is not positive, both, or one
        # more legal solver step (on quality, a second solver step)
        st.builds(
            SolverStep, st.sampled_from(["Z", *scen.algorithms]), st.sampled_from([0.0, -0.0, -1.0, math.nan, 0, 1.0])
        ),
        st.sampled_from(["A1", None, 3]),  # not a step
    )
    instances = draw(st.lists(st.sampled_from(scen.instances + ("zz",)), unique=True, min_size=1, max_size=3))
    schedules = {}
    for inst in instances:
        if scen.objective == "quality":
            steps = [SolverStep(draw(algorithm), 0.0)]
        else:
            steps = [FeatureStep(g) for g in groups if draw(st.booleans())]
            steps += [SolverStep(draw(algorithm), scen.cutoff) for _ in range(draw(st.integers(0, 2)))]
        for _ in range(draw(st.integers(0, 3))):
            steps.insert(draw(st.integers(0, len(steps))), draw(violations))
        if scen.objective == "quality" and draw(st.integers(0, 5)) == 0:
            steps = []
        schedules[inst] = tuple(steps)
    return scen, schedules


def _reference_error(scen, schedules):
    """The reference message for the first schedule, in the mapping's order,
    whose instance is unknown or which breaks a rule, with its instance."""
    for inst, schedule in schedules.items():
        if inst not in scen.instances:
            return inst, f"unknown instance {inst!r}"
        try:
            _oracle_check_schedule(scen, schedule)
        except ValueError as exc:
            return inst, str(exc)
    return None, None


class TestScheduleRules:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(faulty_mappings())
    def test_messages_match_the_reference_check(self, tmp_path_factory, case):
        scen, schedules = case
        inst, want = _reference_error(scen, schedules)
        try:
            Schedules.from_steps(scen, schedules.items())
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want

        steps = [step for schedule in schedules.values() for step in schedule]
        if not all(isinstance(step, (FeatureStep, SolverStep)) for step in steps):
            return  # a non-step object cannot be written to a file
        rows = ["instance_id,step,kind,name,budget"]
        for name, schedule in schedules.items():
            for o, step in enumerate(schedule, 1):
                if isinstance(step, FeatureStep):
                    rows.append(f"{name},{o},feature,{step.group},0.0")
                else:
                    rows.append(f"{name},{o},solver,{step.algorithm},{step.budget!r}")
        path = tmp_path_factory.mktemp("pred") / "pred.csv"
        path.write_text("\n".join(rows) + "\n")
        got = _parse(parse_predictions, path, scen, None)
        assert got == _parse(oracle_parse_predictions, path, scen, None)
        # with every instance and name known, every budget a float (the file reads 0 as
        # 0.0) and no schedule empty (a file cannot hold one), the file is
        # refused for the same schedule with the same text
        names = {(s.group if isinstance(s, FeatureStep) else s.algorithm) for s in steps}
        known = names <= {*scen.algorithms, *(g.name for g in scen.feature_groups)}
        floats = all(type(getattr(s, "budget", 0.0)) is float for s in steps)
        if want is not None and "zz" not in schedules and known and floats and all(schedules.values()):
            assert got[3] == f"invalid schedule for {inst!r}: {want}"
