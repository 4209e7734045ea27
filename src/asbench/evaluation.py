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


@dataclass(frozen=True)
class EvaluationOutcome:
    """Result of replaying one schedule on one instance."""

    solved: bool
    time_used: float | None = None
    achieved_value: float | None = None
    solving_step: int | None = None


def validate_schedule(scenario: Scenario, schedule) -> None:
    """Raise ValueError unless the schedule is legal for the scenario."""
    groups = {g.name for g in scenario.feature_groups}
    algos = set(scenario.algorithms)
    seen_groups = set()
    n_solver = 0
    for step in schedule:
        if isinstance(step, FeatureStep):
            if step.group not in groups:
                raise ValueError(f"unknown feature group {step.group!r}")
            if step.group in seen_groups:
                raise ValueError(f"feature group {step.group!r} scheduled twice")
            seen_groups.add(step.group)
        elif isinstance(step, SolverStep):
            if step.algorithm not in algos:
                raise ValueError(f"unknown algorithm {step.algorithm!r}")
            if scenario.objective == "runtime" and not step.budget > 0:
                raise ValueError(f"solver budget must be positive, got {step.budget}")
            n_solver += 1
        else:
            raise ValueError(f"unknown step type {type(step).__name__}")
    if scenario.objective == "quality":
        if n_solver != 1 or len(schedule) != 1:
            raise ValueError("quality scenarios take exactly one solver step and nothing else")


# The code of each step kind in ``Schedules.kind``, by its name in prediction files.
STEP_KIND = {"solver": 0, "feature": 1}
_SOLVER, _FEATURE = STEP_KIND.values()


class Schedules(Mapping):
    """Per-instance schedules as flat step arrays, read as a mapping from
    instance to a tuple of :class:`FeatureStep`/:class:`SolverStep`.

    The steps of every schedule lie in ``row`` (the instance's row in the
    scenario's run table), ``kind`` (a code of ``STEP_KIND``), ``index``
    (algorithm column or feature-group index) and ``budget``; schedule
    ``p``, of ``instances[p]``, is the slice ``starts[p]:starts[p + 1]``, in
    step order. Step objects are built only when a schedule is looked up.
    ``predict_batch`` builds one in the order its instances are given, the
    prediction parser in scenario row order (refusing it when :meth:`faults`
    marks a schedule), and :meth:`from_mapping` in the mapping's order.
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
        mapping's order; the first unknown instance or invalid schedule
        raises ValueError, the latter as :func:`validate_schedule` does."""
        row_of = scenario.runs.row
        for inst, schedule in schedules.items():
            if inst not in row_of:
                raise ValueError(f"unknown instance {inst!r}")
            validate_schedule(scenario, schedule)
        steps = [step for schedule in schedules.values() for step in schedule]
        kind = [_FEATURE if isinstance(s, FeatureStep) else _SOLVER for s in steps]
        groups, cols = {g.name: j for j, g in enumerate(scenario.feature_groups)}, scenario.runs.col
        index = [groups[s.group] if k else cols[s.algorithm] for s, k in zip(steps, kind)]
        budget = [0.0 if k else s.budget for s, k in zip(steps, kind)]
        lengths = [len(schedule) for schedule in schedules.values()]
        return cls(scenario, [row_of[inst] for inst in schedules], lengths, kind, index, budget)

    def faults(self, objective: str) -> np.ndarray:
        """The mask of the schedules that fail :func:`validate_schedule`,
        given that every name is known: a quality schedule is one solver
        step; a runtime schedule gives each solver a positive budget and
        computes no feature group twice. The steps are checked as one batch,
        and sorted into schedules only when a step fails."""
        solver = self.kind == _SOLVER
        if objective == "quality":
            out, bad = np.diff(self.starts) != 1, ~solver
        else:
            out, bad = np.zeros(len(self.instances), dtype=bool), solver & ~(self.budget > 0)
            groups = (self.row * len(self._names[1]) + self.index)[~solver]
            if groups.size > 1 and np.unique(groups).size < groups.size:  # mark each repeat of a group
                bad[np.delete(np.flatnonzero(~solver), np.unique(groups, return_index=True)[1])] = True
        if not bad.any():
            return out
        owner = np.repeat(np.arange(out.size), np.diff(self.starts))
        return out | (np.bincount(owner[bad], minlength=out.size) > 0)

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

    ``time_used`` is NaN on quality scenarios and ``achieved_value`` on
    runtime ones; ``solving_step`` is 0 where no step solved the instance.
    """

    solved: np.ndarray
    time_used: np.ndarray
    achieved_value: np.ndarray
    solving_step: np.ndarray


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
    rows = np.array([runs.row[i] for i in instances], dtype=np.intp)[:, None]
    pos = np.array([schedules._pos[i] for i in instances], dtype=np.intp)
    first = schedules.starts[pos]
    if scenario.objective == "quality":  # one solver step each
        col = schedules.index[first][:, None]
        status = runs.status[rows, col]
        _raise_missing(scenario, instances, status < 0, col)
        value = runs.value[rows, col][:, 0]
        return BatchOutcome(status[:, 0] == _OK, np.full(n, np.nan), value, np.ones(n, dtype=np.intp))

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
    return BatchOutcome(step > 0, time_used, np.full(n, np.nan), step)


def _raise_missing(scenario: Scenario, instances, lost: np.ndarray, col: np.ndarray) -> None:
    """KeyError for the first instance whose walk reached a step with no
    recorded run (``lost``, aligned with the algorithm columns ``col``)."""
    if lost.any():
        i = int(np.flatnonzero(lost.any(axis=1))[0])
        raise KeyError((instances[i], scenario.algorithms[col[i, lost[i].argmax()]]))


def simulate(scenario: Scenario, instance: str, schedule) -> EvaluationOutcome:
    """Replay one schedule on one instance: :func:`simulate_batch` of one."""
    out = simulate_batch(scenario, Schedules.from_mapping(scenario, {instance: schedule}), [instance])
    solved, used, value, step = (
        a[0].item() for a in (out.solved, out.time_used, out.achieved_value, out.solving_step)
    )
    if scenario.objective == "quality":
        return EvaluationOutcome(solved, achieved_value=value, solving_step=step)
    return EvaluationOutcome(solved, time_used=used, solving_step=step or None)


def par10(outcome: EvaluationOutcome, cutoff: float) -> float:
    """Penalized runtime: the time used if solved, ten times the cutoff if not."""
    if outcome.time_used is None:
        raise ValueError("PAR10 is defined for runtime outcomes only")
    return outcome.time_used if outcome.solved else PAR10_FACTOR * cutoff


def mcp(outcome: EvaluationOutcome, scenario: Scenario, instance: str) -> float:
    """Misclassification penalty: extra time over the per-instance best
    algorithm, with unsolved instances contributing the cutoff (no 10x
    penalty, which would double-count the timeout)."""
    if scenario.objective != "runtime":
        raise ValueError("the misclassification penalty is defined for runtime scenarios only")
    if outcome.time_used is None:
        raise ValueError("runtime outcome required")
    best = float(scenario.capped[scenario.runs.row[instance]].min())  # the cutoff if none solved
    return min(outcome.time_used, scenario.cutoff) - best


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
    n = len(test)
    rows = [scenario.runs.row[i] for i in test]
    vbs = scenario.cost[rows].min(axis=1).tolist()
    if not isinstance(schedules, Schedules):
        schedules = Schedules.from_mapping(scenario, {i: schedules[i] for i in test})
    out = simulate_batch(scenario, schedules, test)

    if scenario.objective == "runtime":
        cutoff = scenario.cutoff
        # a bare full-cutoff run of the single best solver replays as the
        # scenario's own solved flag, PAR10 and capped runtime
        capped = scenario.capped[rows]
        best = capped.min(axis=1)

        def mean(xs):
            return math.fsum(xs) / n

        par10_s = mean(np.where(out.solved, out.time_used, PAR10_FACTOR * cutoff).tolist())
        par10_b = mean(scenario.cost[rows, sbs_col].tolist())
        par10_v = mean(vbs)

        used = np.where(cutoff < out.time_used, cutoff, out.time_used)  # min(time_used, cutoff)
        mcp_s = mean((used - best).tolist())
        mcp_b = mean((capped[:, sbs_col] - best).tolist())

        solved_s = mean(out.solved.astype(float).tolist())
        solved_b = mean(scenario.solved[rows, sbs_col].tolist())
        solved_v = mean(scenario.solved[rows].any(axis=1).tolist())

        metrics = {
            "par10": MetricScore(par10_s, par10_b, par10_v, _gap(par10_s, par10_b, par10_v)),
            "mcp": MetricScore(mcp_s, mcp_b, 0.0, _gap(mcp_s, mcp_b, 0.0)),
            "solved": MetricScore(
                solved_s, solved_b, solved_v, _gap(1.0 - solved_s, 1.0 - solved_b, 1.0 - solved_v)
            ),
        }
    else:
        sign = -1.0 if scenario.direction == "maximize" else 1.0
        value_s = math.fsum(out.achieved_value.tolist()) / n
        value_b = math.fsum(scenario.runs.value[rows, sbs_col].tolist()) / n
        value_v = math.fsum(sign * v for v in vbs) / n
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


def report_gap(report: ScoreReport, mode: str) -> float | None:
    """The mode's headline gap for one report.

    The 2015 rule averages the gaps of all three runtime metrics; the 2017
    rule uses the PAR10 gap alone (the quality gap on quality scenarios).
    Undefined gaps are skipped; ``None`` means nothing was defined.
    """
    names = _designated(report, mode)
    gaps = [report.metrics[m].gap for m in names if report.metrics[m].gap is not None]
    if not gaps:
        return None
    return math.fsum(gaps) / len(gaps)


def _designated(report: ScoreReport, mode: str) -> tuple[str, ...]:
    return tuple(m for m in GAP_METRICS[mode] if m in report.metrics)


def aggregate(reports, mode: str = "icon2015", use: str = "gap") -> float:
    """Cascade of unweighted means: metrics, then splits, then scenarios.

    With ``use="value"`` the raw metric values are averaged, not the gaps.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    per_scenario: dict[str, dict[int, list[float]]] = {}
    for rep in reports:
        if use == "gap":
            v = report_gap(rep, mode)
            if v is None:
                continue
        else:
            vals = [rep.metrics[m].value for m in _designated(rep, mode)]
            v = math.fsum(vals) / len(vals)
        per_scenario.setdefault(rep.scenario_id, {}).setdefault(rep.split_id, []).append(v)
    if not per_scenario:
        raise ValueError("every gap was undefined; nothing to aggregate")
    scenario_means = [mean_of_split_means(scen) for scen in per_scenario.values()]
    return math.fsum(scenario_means) / len(scenario_means)


def mean_of_split_means(per_split: dict[int, list[float]]) -> float:
    """Average each split's values, then the split means, so every split
    weighs the same whatever its number of values."""
    split_means = [math.fsum(vs) / len(vs) for vs in per_split.values()]
    return math.fsum(split_means) / len(split_means)


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
