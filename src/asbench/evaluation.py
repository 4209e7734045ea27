"""Replay simulator and the metric stack.

Nothing here runs a real solver. A schedule is replayed against the recorded
data of a scenario: feature steps consume the recorded feature-computation
cost, solver steps consume recorded runtimes, and an instance counts as
solved once a scheduled algorithm's successful run fits inside its time
slice. Schedules are kept as step arrays (:class:`Schedules`), and one
batch replay walks the schedules of every instance at once. On top of the
per-instance outcomes sit PAR10, the misclassification penalty, the solved
fraction, and the normalized gap between the single best solver (gap 1) and
the virtual best solver (gap 0).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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


class Schedules(Mapping):
    """Per-instance schedules as flat step arrays, read as a mapping from
    instance to a tuple of :class:`FeatureStep`/:class:`SolverStep`.

    The steps of every schedule lie in ``row`` (the instance's row in the
    scenario's run table), ``kind`` (a code of ``STEP_KIND``), ``index``
    (algorithm column or feature-group index) and ``budget``; schedule
    ``p``, of ``instances[p]``, is the slice ``starts[p]:starts[p + 1]``, in
    step order. Step objects are built only when a schedule is looked up.
    ``predict_batch`` builds one in the order its instances are given, the
    prediction parser in scenario row order, and :meth:`from_mapping` in the
    mapping's order (both refusing it when :meth:`faults` marks a schedule).
    """

    __slots__ = ("instances", "starts", "row", "kind", "index", "budget", "_names", "_pos")

    def __init__(self, scenario: Scenario, rows, lengths, kind, index, budget):
        rows = np.asarray(rows, dtype=np.intp)
        self.instances = tuple(map(scenario.instances.__getitem__, rows.tolist()))
        self.starts = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
        self.row = np.repeat(rows, lengths)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.index = np.asarray(index, dtype=np.intp)
        self.budget = np.asarray(budget, dtype=np.float64)
        self._names = (scenario.algorithms, tuple(g.name for g in scenario.feature_groups))
        self._pos = {inst: p for p, inst in enumerate(self.instances)}

    @classmethod
    def from_mapping(cls, scenario: Scenario, schedules: Mapping) -> Schedules:
        """Store a mapping of instance to a sequence of steps, in the
        mapping's order, coding a non-step as kind -1 and an unknown name as
        index -1. The first schedule in that order whose instance is unknown
        or which :meth:`faults` marks raises ValueError."""
        steps = [step for schedule in schedules.values() for step in schedule]
        kind = [_FEATURE if isinstance(s, FeatureStep) else _SOLVER if isinstance(s, SolverStep) else -1 for s in steps]
        groups, cols = {g.name: j for j, g in enumerate(scenario.feature_groups)}, scenario.col
        index = [
            groups.get(s.group, -1) if k == _FEATURE else cols.get(s.algorithm, -1) if k == _SOLVER else -1
            for s, k in zip(steps, kind)
        ]
        budget = [s.budget if k == _SOLVER else 0.0 for s, k in zip(steps, kind)]
        lengths = [len(schedule) for schedule in schedules.values()]
        rows = [scenario.row.get(inst) for inst in schedules]
        known = rows.index(None) if None in rows else len(rows)  # the schedules before an unknown instance
        n = sum(lengths[:known])
        out = cls(scenario, rows[:known], lengths[:known], kind[:n], index[:n], budget[:n])
        fault, at = out.faults(scenario.objective)
        if fault.any():
            p = int(np.flatnonzero(fault)[0])
            raise ValueError(SCHEDULE_FAULTS[fault[p]](steps[at[p]] if at[p] >= 0 else None))
        if known < len(rows):
            raise ValueError(f"unknown instance {list(schedules)[known]!r}")
        return out

    def faults(self, objective: str) -> tuple[np.ndarray, np.ndarray]:
        """Each schedule's code in ``SCHEDULE_FAULTS`` for the first rule it
        breaks (0 if none), and the position in the step arrays of the step
        at fault (-1 if none). The steps are checked as one batch, each
        schedule's in step order; then a quality schedule must be one solver
        step. The budget rule holds on runtime scenarios only."""
        n, lengths = len(self.instances), self.starts[1:] - self.starts[:-1]
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

    def __getitem__(self, instance) -> tuple:
        p = self._pos[instance]
        algorithms, groups = self._names
        span = slice(self.starts[p], self.starts[p + 1])
        steps = zip(self.kind[span].tolist(), self.index[span].tolist(), self.budget[span].tolist())
        return tuple(
            FeatureStep(group=groups[i]) if k else SolverStep(algorithm=algorithms[i], budget=b)
            for k, i, b in steps
        )

    def __contains__(self, instance) -> bool:
        return instance in self._pos

    def __iter__(self):
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class BatchOutcome:
    """Outcomes of a batch replay, one entry per instance.

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


def simulate_batch(scenario: Scenario, schedules: Schedules, instances) -> BatchOutcome:
    """Replay the schedules of ``instances`` against their recorded runs.

    Runtime scenarios walk the steps with a running clock, all instances at
    once. A solver step gets a slice of min(budget, time left before the
    cutoff); it solves the instance if its recorded run was ok and fits in
    the slice. Runs that died early (memout/crash/other, faster than the
    slice) give their time back; everything else eats the whole slice.
    Reaching the cutoff means unsolved with time_used pinned at the cutoff.
    Each instance gets the float operations of a walk of its own, in the
    same order, so its outcome does not depend on the batch.

    Quality scenarios return the recorded value of the single scheduled
    algorithm; feature costs never count against quality. A reached step
    whose run was never recorded raises KeyError.
    """
    runs = scenario.runs
    n = len(instances)
    rows = np.array([scenario.row[i] for i in instances], dtype=np.intp)[:, None]
    pos = np.array([schedules._pos[i] for i in instances], dtype=np.intp)
    first = schedules.starts[pos]
    if scenario.objective == "quality":  # one solver step each
        col = schedules.index[first][:, None]
        status = runs.status[rows, col]
        _raise_missing(scenario, instances, status < 0, col)
        value = runs.value[rows, col][:, 0]
        time_used, par10, mcp = np.full((3, n), np.nan)
        return BatchOutcome(status[:, 0] == _OK, time_used, value, np.ones(n, dtype=np.intp), par10, mcp)

    # pad the schedules into (n, m) step arrays
    length = schedules.starts[pos + 1] - first
    m = int(length.max(initial=0))
    has = np.arange(m) < length[:, None]
    at = np.where(has, first[:, None] + np.arange(m), 0)
    solver = has & (schedules.kind[at] == _SOLVER)
    index = schedules.index[at]
    col = np.where(solver, index, 0)
    value = runs.value[rows, col]
    status = np.where(solver, runs.status[rows, col], _OK)
    budget = schedules.budget[at]
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
    _raise_missing(scenario, instances, (status < 0) & (np.arange(m) < walked[:, None]), col)
    solved = step > 0
    par10 = np.where(solved, time_used, PAR10_FACTOR * cutoff)
    best = scenario.capped[rows[:, 0]].min(axis=1)  # the cutoff if nothing solves
    mcp = np.where(cutoff < time_used, cutoff, time_used) - best  # min(time_used, cutoff) - best
    return BatchOutcome(solved, time_used, np.full(n, np.nan), step, par10, mcp)


def _raise_missing(scenario: Scenario, instances, lost: np.ndarray, col: np.ndarray) -> None:
    """KeyError for the first instance whose walk reached a step with no
    recorded run (``lost``, aligned with the algorithm columns ``col``)."""
    if lost.any():
        i = int(np.flatnonzero(lost.any(axis=1))[0])
        raise KeyError((instances[i], scenario.algorithms[col[i, lost[i].argmax()]]))


def simulate(scenario: Scenario, instance: str, schedule) -> BatchOutcome:
    """Replay one schedule on one instance: the one-row :func:`simulate_batch`."""
    return simulate_batch(scenario, Schedules.from_mapping(scenario, {instance: schedule}), [instance])


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


def score_system(scenario: Scenario, split: Split, schedules, system: str = "system") -> ScoreReport:
    """Score one system's schedules on a split's test instances.

    ``schedules`` is a :class:`Schedules` (as ``predict_batch`` returns it)
    or a mapping of instance to steps, whose test schedules
    :meth:`Schedules.from_mapping` converts first; the test schedules are
    replayed in one :func:`simulate_batch`. The single best solver is picked
    on the split's training instances and replayed as a bare full-cutoff
    run; the virtual best solver references come straight from the recorded
    data. The solved metric enters its gap as an unsolved fraction and
    maximize-direction quality values as negated costs, so every gap is a
    ratio of minimized quantities.
    """
    test = list(split.test)
    missing = [i for i in test if i not in schedules]
    if missing:
        raise ValueError(f"missing predictions for test instances {missing[:5]!r}")
    sbs_col = scenario.algorithms.index(sbs(scenario, split.train))
    rows = [scenario.row[i] for i in test]
    vbs = scenario.cost[rows].min(axis=1).tolist()
    if not isinstance(schedules, Schedules):
        schedules = Schedules.from_mapping(scenario, {i: schedules[i] for i in test})
    out = simulate_batch(scenario, schedules, test)

    if scenario.objective == "runtime":
        # a bare full-cutoff run of the single best solver replays as the
        # scenario's own solved flag, PAR10 and capped runtime
        capped = scenario.capped[rows]
        best = capped.min(axis=1)

        par10_s = _mean(out.par10.tolist())
        par10_b = _mean(scenario.cost[rows, sbs_col].tolist())
        par10_v = _mean(vbs)

        mcp_s = _mean(out.mcp.tolist())
        mcp_b = _mean((capped[:, sbs_col] - best).tolist())

        solved_s = _mean(out.solved.astype(float).tolist())
        solved_b = _mean(scenario.solved[rows, sbs_col].tolist())
        solved_v = _mean(scenario.solved[rows].any(axis=1).tolist())

        metrics = {
            "par10": MetricScore(par10_s, par10_b, par10_v, _gap(par10_s, par10_b, par10_v)),
            "mcp": MetricScore(mcp_s, mcp_b, 0.0, _gap(mcp_s, mcp_b, 0.0)),
            "solved": MetricScore(
                solved_s, solved_b, solved_v, _gap(1.0 - solved_s, 1.0 - solved_b, 1.0 - solved_v)
            ),
        }
    else:
        sign = -1.0 if scenario.direction == "maximize" else 1.0
        value_s = _mean(out.achieved_value.tolist())
        value_b = _mean(scenario.runs.value[rows, sbs_col].tolist())
        value_v = _mean([sign * v for v in vbs])
        metrics = {
            "quality": MetricScore(
                value_s, value_b, value_v, _gap(sign * value_s, sign * value_b, sign * value_v)
            )
        }
    return ScoreReport(
        system=system,
        scenario_id=scenario.id,
        split_id=split.split_id,
        objective=scenario.objective,
        metrics=metrics,
    )


# The metrics whose gaps a mode averages into its headline gap; a report
# holds only those of its objective (par10, mcp and solved, or quality).
GAP_METRICS = {
    "icon2015": ("par10", "mcp", "solved", "quality"),
    "oasc2017": ("par10", "quality"),
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
    designated = {("gap_" if use == "gap" else "") + m for m in GAP_METRICS[mode]}
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


def aggregate(reports, mode: str = "icon2015", use: str = "gap") -> float:
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
