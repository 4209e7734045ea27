"""Replay simulator and the metric stack.

Nothing here runs a real solver. A schedule is replayed against the recorded
data of a scenario: feature steps consume the recorded feature-computation
cost, solver steps consume recorded runtimes, and an instance counts as
solved once a scheduled algorithm's successful run fits inside its time
slice. Schedules are kept as a batch of step arrays read by position
(:class:`Schedules`), and one replay walks a batch at once. On top of the
per-instance outcomes sit PAR10, the misclassification penalty, the solved
fraction, and the normalized gap between the single best solver (gap 1) and
the virtual best solver (gap 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import PAR10_FACTOR, STATUS_CODE, Scenario, Split, sbs

GAP_EPS = 1e-12

_OK = STATUS_CODE["ok"]


@dataclass(frozen=True)
class FeatureStep:
    """Compute one feature group, paying its recorded per-instance cost."""

    group: str


@dataclass(frozen=True)
class SolverStep:
    """Run one algorithm for at most ``budget`` seconds."""

    algorithm: str
    budget: float


# The code of each step kind in ``Schedules.kind``, by its name in prediction files.
STEP_KIND = {"solver": 0, "feature": 1}
_SOLVER, _FEATURE = STEP_KIND.values()

# The schedule rules, by the code :meth:`Schedules.faults` gives a schedule that
# breaks one, with the message naming the step at fault (the last rule names none).
SCHEDULE_FAULTS = {
    1: lambda step: f"unknown step type {type(step).__name__}",
    2: lambda step: f"unknown feature group {step.group!r}",
    3: lambda step: f"feature group {step.group!r} scheduled twice",
    4: lambda step: f"unknown algorithm {step.algorithm!r}",
    5: lambda step: f"solver budget must be positive, got {step.budget}",
    6: lambda step: "quality scenarios take exactly one solver step and nothing else",
}


class Schedules:
    """A batch of schedules as flat step arrays, read by position.

    Schedule ``p``, of ``instances[p]`` (run-table row ``row[p]``), is the
    slice ``starts[p]:starts[p + 1]`` of the step arrays ``kind`` (a code of
    ``STEP_KIND``), ``index`` (algorithm column or feature-group index) and
    ``budget``. A batch may hold several schedules of one instance.
    ``predict_batch`` builds one in the order its instances are given, the
    prediction parser in scenario row order, and :meth:`from_steps` in the
    order of its pairs (both refusing it when :meth:`faults` marks a schedule).
    """

    __slots__ = ("instances", "starts", "row", "kind", "index", "budget", "_names")

    def __init__(self, scenario: Scenario, rows, lengths, kind, index, budget):
        self.row = np.asarray(rows, dtype=np.intp)
        self.instances = tuple(scenario.instances[r] for r in self.row.tolist())
        self.starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
        self.kind = np.asarray(kind, dtype=np.int8)
        self.index = np.asarray(index, dtype=np.intp)
        self.budget = np.asarray(budget, dtype=np.float64)
        self._names = (scenario.algorithms, tuple(g.name for g in scenario.feature_groups))

    @classmethod
    def from_steps(cls, scenario: Scenario, pairs) -> Schedules:
        """Store (instance, sequence of steps) pairs, in their order, coding a
        non-step as kind -1 and an unknown name as index -1. The first
        schedule in that order whose instance is unknown or which
        :meth:`faults` marks raises ValueError."""
        instances, schedules = zip(*pairs) if (pairs := list(pairs)) else ((), ())
        steps = [step for schedule in schedules for step in schedule]
        kind = [_FEATURE if isinstance(s, FeatureStep) else _SOLVER if isinstance(s, SolverStep) else -1 for s in steps]
        groups, cols = {g.name: j for j, g in enumerate(scenario.feature_groups)}, scenario.col
        index = [
            groups.get(s.group, -1) if k == _FEATURE else cols.get(s.algorithm, -1) if k == _SOLVER else -1
            for s, k in zip(steps, kind)
        ]
        budget = [s.budget if k == _SOLVER else 0.0 for s, k in zip(steps, kind)]
        lengths = list(map(len, schedules))
        rows = [scenario.row.get(inst) for inst in instances]
        known = rows.index(None) if None in rows else len(rows)  # the schedules before an unknown instance
        n = sum(lengths[:known])
        out = cls(scenario, rows[:known], lengths[:known], kind[:n], index[:n], budget[:n])
        fault, at = out.faults(scenario.objective)
        if fault.any():
            p = int(np.flatnonzero(fault)[0])
            raise ValueError(SCHEDULE_FAULTS[fault[p]](steps[at[p]] if at[p] >= 0 else None))
        if known < len(rows):
            raise ValueError(f"unknown instance {instances[known]!r}")
        return out

    def faults(self, objective: str) -> tuple[np.ndarray, np.ndarray]:
        """Each schedule's code in ``SCHEDULE_FAULTS`` for the first rule it
        breaks (0 if none), and the position in the step arrays of the step
        at fault (-1 if none). The steps are checked as one batch, each
        schedule's in step order; then a quality schedule must be one solver
        step. The budget rule holds on runtime scenarios only."""
        n, lengths = self.row.size, np.diff(self.starts)
        owner = np.arange(n).repeat(lengths)
        solver, feature, known = self.kind == _SOLVER, self.kind == _FEATURE, self.index >= 0
        groups = np.flatnonzero(feature & known)
        repeated = np.zeros(self.kind.size, dtype=bool)  # each computation of a group after its first
        if groups.size > 1:
            keys = owner[groups] * len(self._names[1]) + self.index[groups]
            repeated[np.delete(groups, np.unique(keys, return_index=True)[1])] = True
        unpaid = solver & ~(self.budget > 0) if objective == "runtime" else False
        rules = [~(solver | feature), feature & ~known, repeated, solver & ~known, unpaid]
        step_fault = np.zeros(self.kind.size, dtype=np.int8)
        for code in range(len(rules), 0, -1):  # the first rule a step breaks names it
            step_fault[rules[code - 1]] = code
        fault, at = np.zeros(n, dtype=np.int8), np.full(n, -1, dtype=np.intp)
        bad = np.flatnonzero(step_fault)
        if bad.size:
            owners, first = np.unique(owner[bad], return_index=True)  # each schedule's first faulty step
            fault[owners], at[owners] = step_fault[bad[first]], bad[first]
        if objective == "quality":
            shapeless = (lengths != 1) | (np.bincount(owner[solver], minlength=n) != 1)
            fault[shapeless & (fault == 0)] = max(SCHEDULE_FAULTS)
        return fault, at

    def positions(self, scenario: Scenario) -> np.ndarray:
        """Each scenario row's schedule position in the batch, -1 where it has
        none; ValueError names the first instance the batch schedules twice."""
        twice = np.flatnonzero(np.bincount(self.row)[self.row] > 1)
        if twice.size:
            raise ValueError(f"more than one schedule for instance {self.instances[twice[0]]!r}")
        pos = np.full(len(scenario.instances), -1, dtype=np.intp)
        pos[self.row] = np.arange(self.row.size)
        return pos

    def values(self) -> list[tuple]:
        """Each schedule's steps as a tuple of :class:`FeatureStep` and
        :class:`SolverStep`, in batch order; the one place step objects are built."""
        algorithms, groups = self._names
        cells = zip(self.kind.tolist(), self.index.tolist(), self.budget.tolist())
        steps = [FeatureStep(groups[i]) if k else SolverStep(algorithms[i], b) for k, i, b in cells]
        starts = self.starts.tolist()
        return [tuple(steps[a:b]) for a, b in zip(starts, starts[1:])]


@dataclass(frozen=True)
class BatchOutcome:
    """Outcomes of a batch replay, one entry per replayed schedule.

    ``par10`` is the time used if solved, else ten times the cutoff; ``mcp``
    (the misclassification penalty) is the time used, capped at the cutoff
    and not 10x penalized, over the instance's best recorded time. Those two
    and ``time_used`` are NaN on quality scenarios, ``achieved_value`` on
    runtime ones; ``solving_step`` is 0 where no step solved the instance.
    """

    solved: np.ndarray
    time_used: np.ndarray
    achieved_value: np.ndarray
    solving_step: np.ndarray
    par10: np.ndarray
    mcp: np.ndarray


def simulate_batch(scenario: Scenario, schedules: Schedules, at) -> BatchOutcome:
    """Replay the schedules at positions ``at`` of the batch against their
    instances' recorded runs; row ``k`` of the outcome is schedule ``at[k]``.

    Runtime scenarios walk the steps with a running clock, all schedules at
    once. A solver step gets a slice of min(budget, time left before the
    cutoff); it solves the instance if its recorded run was ok and fits in
    the slice. Runs that died early (memout/crash/other, faster than the
    slice) give their time back; everything else eats the whole slice.
    Reaching the cutoff means unsolved with time_used pinned at the cutoff.
    Each schedule gets the float operations of a walk of its own, in the
    same order, so its outcome does not depend on the batch.

    Quality scenarios return the recorded value of the single scheduled
    algorithm; feature costs never count against quality. A reached step
    whose run was never recorded raises KeyError.
    """
    runs = scenario.runs
    pos = np.asarray(at, dtype=np.intp)
    n = pos.size
    rows = schedules.row[pos][:, None]
    first = schedules.starts[pos]
    if scenario.objective == "quality":  # one solver step each
        col = schedules.index[first][:, None]
        status = runs.status[rows, col]
        _raise_missing(scenario, schedules, pos, status < 0, col)
        value = runs.value[rows, col][:, 0]
        time_used, par10, mcp = np.full((3, n), np.nan)
        return BatchOutcome(status[:, 0] == _OK, time_used, value, np.ones(n, dtype=np.intp), par10, mcp)

    # pad the schedules into (n, m) step arrays
    length = schedules.starts[pos + 1] - first
    m = int(length.max(initial=0))
    has = np.arange(m) < length[:, None]
    slot = np.where(has, first[:, None] + np.arange(m), 0)
    solver = has & (schedules.kind[slot] == _SOLVER)
    index = schedules.index[slot]
    col = np.where(solver, index, 0)
    value = runs.value[rows, col]
    status = np.where(solver, runs.status[rows, col], _OK)
    budget = schedules.budget[slot]
    cost = np.zeros((n, m))
    feature = has & ~solver
    if feature.any():
        cost[feature] = scenario.feature_cost[rows[:, 0][np.nonzero(feature)[0]], index[feature]]
    # memout, crash and other rank from memout on; missing (-1) and ok do not
    ok, dies = status == _OK, status >= STATUS_CODE["memout"]

    cutoff = scenario.cutoff
    t = np.zeros(n)
    time_used = np.full(n, cutoff)
    step = np.zeros(n, dtype=np.intp)
    walked = np.zeros(n, dtype=np.intp)
    walking = np.ones(n, dtype=bool)
    for j in range(m):
        on = walking & has[:, j]
        if not on.any():
            break
        walked[on] = j + 1
        left = cutoff - t
        slice_ = np.where(left < budget[:, j], left, budget[:, j])
        v = value[:, j]
        hit = on & solver[:, j] & ok[:, j] & (v <= slice_)
        time_used[hit] = (t + v)[hit]
        step[hit] = j + 1
        spent = np.where(solver[:, j], np.where(dies[:, j] & (v < slice_), v, slice_), cost[:, j])
        t = np.where(on & ~hit, t + spent, t)
        walking &= ~hit & ~(on & (t >= cutoff))
    _raise_missing(scenario, schedules, pos, (status < 0) & (np.arange(m) < walked[:, None]), col)
    solved = step > 0
    par10 = np.where(solved, time_used, PAR10_FACTOR * cutoff)
    best = scenario.capped[rows[:, 0]].min(axis=1)  # the cutoff if nothing solves
    mcp = np.where(cutoff < time_used, cutoff, time_used) - best  # min(time_used, cutoff) - best
    return BatchOutcome(solved, time_used, np.full(n, np.nan), step, par10, mcp)


def _raise_missing(scenario: Scenario, schedules: Schedules, pos, lost: np.ndarray, col: np.ndarray) -> None:
    """KeyError for the first schedule (of batch positions ``pos``) whose walk
    reached a step with no recorded run (``lost``, aligned with ``col``)."""
    if lost.any():
        i = int(np.flatnonzero(lost.any(axis=1))[0])
        raise KeyError((schedules.instances[pos[i]], scenario.algorithms[col[i, lost[i].argmax()]]))


def simulate(scenario: Scenario, instance: str, schedule) -> BatchOutcome:
    """Replay one schedule on one instance: the one-row :func:`simulate_batch`."""
    return simulate_batch(scenario, Schedules.from_steps(scenario, [(instance, schedule)]), [0])


@dataclass(frozen=True)
class MetricScore:
    """One metric with its baseline references.

    ``gap`` places the system between the virtual best solver (0) and the
    single best solver (1); ``None`` marks a degenerate case where the two
    baselines coincide and the gap is undefined.
    """

    value: float
    sbs: float
    vbs: float
    gap: float | None


@dataclass(frozen=True)
class ScoreReport:
    """Scores of one system on one split of one scenario."""

    system: str
    scenario_id: str
    split_id: int
    objective: str
    metrics: dict[str, MetricScore]

    @property
    def undefined_gaps(self) -> tuple[str, ...]:
        return tuple(name for name, m in self.metrics.items() if m.gap is None)


def _gap(value: float, sbs_ref: float, vbs_ref: float) -> float | None:
    denom = sbs_ref - vbs_ref
    if abs(denom) < GAP_EPS:
        return None
    return (value - vbs_ref) / denom


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def score_system(scenario: Scenario, split: Split, schedules: Schedules, system: str = "system") -> ScoreReport:
    """Score one system's schedules on a split's test instances.

    This is the one check that a batch (as ``predict_batch`` or the
    prediction parser returns it) covers a split: a test instance without a
    schedule raises ValueError naming the split and the instances (and one
    scheduled twice, naming that instance). The test schedules are replayed
    in one :func:`simulate_batch`. Each metric is one entry of per-instance columns:
    the system's outcome, the single best solver's (picked on the split's
    training instances and replayed as a bare full-cutoff run) and the
    virtual best solver's, straight from the recorded data. Its value and
    references are the columns' ``math.fsum`` means, and its gap compares
    what the metric minimizes: the unsolved fraction, and quality values as
    costs (negated when maximized).
    """
    test = list(split.test)
    rows = [scenario.row[i] for i in test]
    at = schedules.positions(scenario)[rows]
    if missing := [i for i, p in zip(test, at.tolist()) if p < 0]:
        raise ValueError(f"split {split.split_id}: missing predictions for test instances {missing[:5]!r}")
    sbs_col = scenario.col[sbs(scenario, split.train)]
    cost = scenario.cost[rows]
    out = simulate_batch(scenario, schedules, at)
    if scenario.objective == "runtime":
        # a bare full-cutoff run of the single best solver replays as the
        # scenario's own solved flag, PAR10 and capped runtime
        capped, solved = scenario.capped[rows], scenario.solved[rows]
        columns = {  # metric: system, SBS and VBS columns, and what the gap minimizes of their means
            "par10": (out.par10, cost[:, sbs_col], cost.min(axis=1), lambda m: m),
            "mcp": (out.mcp, capped[:, sbs_col] - capped.min(axis=1), np.zeros(len(rows)), lambda m: m),
            "solved": (out.solved.astype(float), solved[:, sbs_col], solved.any(axis=1), lambda m: 1.0 - m),
        }
    else:
        sign = -1.0 if scenario.direction == "maximize" else 1.0
        value = scenario.runs.value[rows]
        columns = {"quality": (out.achieved_value, value[:, sbs_col], sign * cost.min(axis=1), lambda m: sign * m)}
    metrics = {}
    for name, (*refs, minimized) in columns.items():
        means = [_mean(column.tolist()) for column in refs]
        metrics[name] = MetricScore(*means, _gap(*map(minimized, means)))
    return ScoreReport(system, scenario.id, split.split_id, scenario.objective, metrics)


# Each competition's rules: the metrics whose gaps its headline gap averages
# (a report holds only those of its objective: par10, mcp and solved, or
# quality), the most steps its static pre-solver may take, and the splits
# ``evaluate`` scores: "one" from one prediction file, or "all" from a
# directory with one file per split. Every function that takes a ``mode``
# looks it up here; an unknown mode is a KeyError.
RULES = {
    "icon2015": {"gap_metrics": ("par10", "mcp", "solved", "quality"), "presolve_steps": 1, "splits": "all"},
    "oasc2017": {"gap_metrics": ("par10", "quality"), "presolve_steps": 3, "splits": "one"},
}


def report_rows(reports):
    """The rows of a report file, as (system, scenario, split, metric, value):
    each metric's value, then its ``gap_<metric>`` where the gap is defined."""
    for rep in reports:
        key = (rep.system, rep.scenario_id, rep.split_id)
        for name, m in rep.metrics.items():
            yield (*key, name, m.value)
            if m.gap is not None:
                yield (*key, f"gap_{name}", m.gap)


def headline_gaps(rows, mode: str, use: str = "gap") -> dict[tuple[str, str], float]:
    """Each (system, scenario)'s headline score from report rows.

    The 2015 rule averages the gaps of all three runtime metrics; the 2017
    rule uses the PAR10 gap alone (the quality gap on quality scenarios).
    Each split's designated gaps are averaged, then the split means, so
    every split weighs the same. Undefined gaps have no row; a pair with no
    designated row has no entry. ``use="value"`` averages the metric values
    instead. A row repeated across the inputs raises ValueError.
    """
    designated = {("gap_" if use == "gap" else "") + m for m in RULES[mode]["gap_metrics"]}
    seen, cells = set(), {}
    for system, scen, split, metric, value in rows:
        if (key := (system, scen, split, metric)) in seen:
            raise ValueError(f"report row {key!r} appears more than once; give each system its own --system name")
        seen.add(key)
        if metric in designated:
            cells.setdefault((system, scen), {}).setdefault(split, []).append(value)
    return {pair: _mean([_mean(vs) for vs in splits.values()]) for pair, splits in cells.items()}


def report_gap(report: ScoreReport, mode: str) -> float | None:
    """The mode's headline gap for one report; ``None`` means no designated
    gap was defined."""
    return headline_gaps(report_rows([report]), mode).get((report.system, report.scenario_id))


def aggregate(reports, mode: str, use: str = "gap") -> float:
    """Cascade of unweighted means over one system's reports: metrics, then
    splits (both in :func:`headline_gaps`), then scenarios.

    With ``use="value"`` the raw metric values are averaged, not the gaps.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    per_scenario = headline_gaps(report_rows(reports), mode, use)
    if not per_scenario:
        raise ValueError("every gap was undefined; nothing to aggregate")
    return _mean(list(per_scenario.values()))


def report_to_dict(report: ScoreReport) -> dict:
    """JSON-shaped summary of one report."""
    return {
        "system": report.system,
        "scenario": report.scenario_id,
        "split": report.split_id,
        "objective": report.objective,
        "metrics": {
            name: {"value": m.value, "sbs": m.sbs, "vbs": m.vbs, "gap": m.gap}
            for name, m in report.metrics.items()
        },
        "undefined_gaps": list(report.undefined_gaps),
    }
