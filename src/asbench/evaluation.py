"""Replay simulator and the metric stack.

Nothing here runs a real solver. A schedule is replayed against the recorded
data of a scenario: feature steps consume the recorded feature-computation
cost, solver steps consume recorded runtimes, and an instance counts as
solved once a scheduled algorithm's successful run fits inside its time
slice. On top of the per-instance outcomes sit PAR10, the misclassification
penalty, the solved fraction, and the normalized gap between the single best
solver (gap 1) and the virtual best solver (gap 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import PAR10_FACTOR, STATUS_CODE, Scenario, Split, sbs

GAP_EPS = 1e-12

_OK = STATUS_CODE["ok"]
# runs that may die before their slice ends and give the rest of it back
_DIES_EARLY = {STATUS_CODE[s] for s in ("memout", "crash", "other")}


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


def simulate(scenario: Scenario, instance: str, schedule) -> EvaluationOutcome:
    """Replay a schedule against the recorded runs of one instance.

    Runtime scenarios walk the steps with a running clock. A solver step
    gets a slice of min(budget, time left before the cutoff); it solves the
    instance if its recorded run was ok and fits in the slice. Runs that
    died early (memout/crash/other, faster than the slice) give their time
    back; everything else eats the whole slice. Reaching the cutoff means
    unsolved with time_used pinned at the cutoff.

    Quality scenarios return the recorded value of the single scheduled
    algorithm; feature costs never count against quality.
    """
    runs = scenario.runs
    if instance not in runs.row:
        raise ValueError(f"unknown instance {instance!r}")
    validate_schedule(scenario, schedule)
    r = runs.row[instance]

    def record(algorithm):
        c = runs.col[algorithm]
        status = int(runs.status[r, c])
        if status < 0:
            raise KeyError((instance, algorithm))
        return float(runs.values[r, c]), status

    if scenario.objective == "quality":
        value, status = record(schedule[0].algorithm)
        return EvaluationOutcome(solved=status == _OK, achieved_value=value, solving_step=1)

    cutoff = scenario.cutoff
    groups = {g.name: g for g in scenario.feature_groups}
    t = 0.0
    for ordinal, step in enumerate(schedule, start=1):
        if isinstance(step, FeatureStep):
            cost = groups[step.group].cost
            t += cost.get(instance, 0.0) if cost else 0.0
        else:
            value, status = record(step.algorithm)
            slice_ = min(step.budget, cutoff - t)
            if status == _OK and value <= slice_:
                return EvaluationOutcome(solved=True, time_used=t + value, solving_step=ordinal)
            if status in _DIES_EARLY and value < slice_:
                t += value
            else:
                t += slice_
        if t >= cutoff:
            return EvaluationOutcome(solved=False, time_used=cutoff)
    return EvaluationOutcome(solved=False, time_used=cutoff)


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
    table = scenario.table
    best = float(table.capped[table.row[instance]].min())  # the cutoff if none solved
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

    The single best solver is picked on the split's training instances and
    replayed as a bare full-cutoff run; the virtual best solver references
    come straight from the recorded data. The solved metric enters its gap
    as an unsolved fraction and maximize-direction quality values as negated
    costs, so every gap is a ratio of minimized quantities.
    """
    test = list(split.test)
    missing = [i for i in test if i not in schedules]
    if missing:
        raise ValueError(f"missing predictions for test instances {missing[:5]!r}")
    sbs_col = scenario.algorithms.index(sbs(scenario, split.train))
    n = len(test)
    table = scenario.table
    rows = [table.row[i] for i in test]
    vbs = table.cost[rows].min(axis=1).tolist()

    if scenario.objective == "runtime":
        cutoff = scenario.cutoff
        outcomes = [simulate(scenario, i, schedules[i]) for i in test]
        # a bare full-cutoff run of the single best solver replays as the
        # table's own solved flag, PAR10 and capped runtime
        capped = table.capped[rows]

        def mean(xs):
            return math.fsum(xs) / n

        par10_s = mean(par10(o, cutoff) for o in outcomes)
        par10_b = mean(table.cost[rows, sbs_col].tolist())
        par10_v = mean(vbs)

        mcp_s = mean(mcp(o, scenario, i) for o, i in zip(outcomes, test))
        mcp_b = mean((capped[:, sbs_col] - capped.min(axis=1)).tolist())

        solved_s = mean(float(o.solved) for o in outcomes)
        solved_b = mean(table.solved[rows, sbs_col].tolist())
        solved_v = mean(table.solved[rows].any(axis=1).tolist())

        metrics = {
            "par10": MetricScore(par10_s, par10_b, par10_v, _gap(par10_s, par10_b, par10_v)),
            "mcp": MetricScore(mcp_s, mcp_b, 0.0, _gap(mcp_s, mcp_b, 0.0)),
            "solved": MetricScore(
                solved_s, solved_b, solved_v, _gap(1.0 - solved_s, 1.0 - solved_b, 1.0 - solved_v)
            ),
        }
    else:
        sign = -1.0 if scenario.direction == "maximize" else 1.0
        values = [simulate(scenario, i, schedules[i]).achieved_value for i in test]
        value_s = math.fsum(values) / n
        value_b = math.fsum(table.values[rows, sbs_col].tolist()) / n
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


def aggregate(reports, mode: str = "icon2015", use: str = "gap", weights=None) -> float:
    """Cascade of unweighted means: metrics, then splits, then scenarios.

    With ``use="value"`` the raw metric values are averaged instead of the
    gaps. ``weights`` optionally reweights scenarios (same order as their
    first appearance); splits and metrics always average unweighted.
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
    if weights is None:
        return math.fsum(scenario_means) / len(scenario_means)
    if len(weights) != len(scenario_means):
        raise ValueError("one weight per scenario required")
    total = math.fsum(weights)
    return math.fsum(w * m for w, m in zip(weights, scenario_means)) / total


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
