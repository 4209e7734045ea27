"""In-memory model of an algorithm-selection scenario.

A scenario records, for a fixed portfolio of algorithms and a fixed set of
problem instances, the outcome of every (instance, algorithm) run, the
per-instance feature vectors, the cost of computing each feature group, and
the train/test splits used for selector evaluation. Everything downstream
(simulation, scoring, selector training) reads from this model and never
mutates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

OBJECTIVES = ("runtime", "quality")
DIRECTIONS = ("minimize", "maximize")
RUN_STATUSES = ("ok", "timeout", "memout", "crash", "other")

# Severity order used when collapsing repeated runs: keep the worst status.
_STATUS_RANK = {s: i for i, s in enumerate(RUN_STATUSES)}

PAR10_FACTOR = 10.0


@dataclass(frozen=True)
class RunRecord:
    """Outcome of running one algorithm on one instance.

    For runtime scenarios ``value`` is seconds; any status other than ``ok``
    means the instance counts as unsolved no matter what the value says.
    For quality scenarios ``value`` is the achieved score.
    """

    value: float
    status: str = "ok"


@dataclass(frozen=True)
class FeatureGroup:
    """A set of features computed together, with a shared per-instance cost.

    ``cost`` maps instance id to seconds; ``None`` means no cost table was
    recorded (allowed for quality scenarios, where feature cost is ignored).
    """

    name: str
    feature_indices: tuple[int, ...]
    cost: dict[str, float] | None = None


@dataclass(frozen=True)
class Split:
    """One train/test partition of the instance set."""

    split_id: int
    train: tuple[str, ...]
    test: tuple[str, ...]
    from_bootstrap: bool = False


@dataclass(frozen=True)
class Scenario:
    """A complete, immutable algorithm-selection benchmark scenario.

    ``runs`` is a dense table: exactly one record per (instance, algorithm)
    pair. ``features`` maps each instance to a vector aligned with
    ``feature_names``; missing values are ``None``, never silently zero.
    """

    id: str
    objective: str
    direction: str
    cutoff: float | None
    algorithms: tuple[str, ...]
    instances: tuple[str, ...]
    runs: dict[tuple[str, str], RunRecord]
    features: dict[str, tuple[float | None, ...]]
    feature_names: tuple[str, ...]
    feature_groups: tuple[FeatureGroup, ...]
    splits: tuple[Split, ...] = ()

    @cached_property
    def table(self) -> RunTable:
        """The runs as dense instance x algorithm arrays, built on first use."""
        return RunTable.build(self)


@dataclass(frozen=True)
class RunTable:
    """Dense view of a scenario's runs: one row per instance, in
    ``Scenario.instances`` order, and one column per algorithm, in portfolio
    order (ASlib's performance-matrix layout). The arrays are read-only.

    ``solved`` is the one solved predicate: status ``ok`` and, for runtime
    scenarios, a value within the cutoff. ``cost`` is what selection
    minimizes: PAR10 for runtime scenarios, the value (negated under the
    maximize direction) for quality ones. ``capped`` is the unpenalized
    runtime, the cutoff for an unsolved run; quality scenarios keep the raw
    values there.
    """

    row: dict[str, int]
    values: np.ndarray
    solved: np.ndarray
    cost: np.ndarray
    capped: np.ndarray

    @classmethod
    def build(cls, scenario: Scenario) -> RunTable:
        shape = (len(scenario.instances), len(scenario.algorithms))
        records = [scenario.runs[(i, a)] for i in scenario.instances for a in scenario.algorithms]
        values = np.array([r.value for r in records], dtype=np.float64).reshape(shape)
        solved = np.array([r.status == "ok" for r in records], dtype=bool).reshape(shape)
        if scenario.objective == "runtime":
            solved &= values <= scenario.cutoff
            cost = np.where(solved, values, PAR10_FACTOR * scenario.cutoff)
            capped = np.where(solved, values, scenario.cutoff)
        else:
            cost = -values if scenario.direction == "maximize" else values
            capped = values
        for array in (values, solved, cost, capped):
            array.flags.writeable = False
        row = {inst: r for r, inst in enumerate(scenario.instances)}
        return cls(row=row, values=values, solved=solved, cost=cost, capped=capped)


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by :func:`validate`."""

    code: str
    entity: str
    detail: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} ({self.entity}): {self.detail}"


def collapse_repetitions(records: list[RunRecord]) -> RunRecord:
    """Merge repeated runs of one pair: mean value, worst observed status."""
    if len(records) == 1:
        return records[0]
    value = math.fsum(r.value for r in records) / len(records)
    status = max((r.status for r in records), key=lambda s: _STATUS_RANK[s])
    return RunRecord(value=value, status=status)


def validate(scenario: Scenario) -> list[Violation]:
    """Check every model invariant; violations are returned, never raised."""
    out: list[Violation] = []
    err = lambda code, entity, detail: out.append(Violation(code, entity, detail))
    warn = lambda code, entity, detail: out.append(
        Violation(code, entity, detail, severity="warning")
    )

    if scenario.objective not in OBJECTIVES:
        err("bad_objective", scenario.id, f"objective {scenario.objective!r}")
    if scenario.direction not in DIRECTIONS:
        err("bad_direction", scenario.id, f"direction {scenario.direction!r}")
    runtime = scenario.objective == "runtime"
    if runtime and scenario.cutoff is not None and not math.isfinite(scenario.cutoff):
        err("non_finite_value", scenario.id, f"cutoff {scenario.cutoff}")
    elif runtime and (scenario.cutoff is None or scenario.cutoff <= 0):
        err("bad_cutoff", scenario.id, f"runtime scenario needs cutoff > 0, got {scenario.cutoff}")
    if not runtime and scenario.cutoff is not None:
        err("bad_cutoff", scenario.id, "quality scenario must not carry a cutoff")

    if len(set(scenario.algorithms)) != len(scenario.algorithms):
        err("duplicate_algorithm", scenario.id, "algorithm ids are not unique")
    if len(set(scenario.instances)) != len(scenario.instances):
        err("duplicate_instance", scenario.id, "instance ids are not unique")

    inst_set = set(scenario.instances)
    algo_set = set(scenario.algorithms)

    # Dense run matrix: exactly one record per pair, nothing extra.
    for inst in scenario.instances:
        for algo in scenario.algorithms:
            rec = scenario.runs.get((inst, algo))
            if rec is None:
                err("missing_run", f"{inst}/{algo}", "no run record for pair")
                continue
            if rec.status not in RUN_STATUSES:
                err("bad_status", f"{inst}/{algo}", f"status {rec.status!r}")
            if not math.isfinite(rec.value):
                err("non_finite_value", f"{inst}/{algo}", f"run value {rec.value}")
                continue
            if runtime and rec.value < 0:
                err("negative_value", f"{inst}/{algo}", f"runtime {rec.value} < 0")
            if runtime and rec.status == "ok" and scenario.cutoff is not None and rec.value > scenario.cutoff:
                err(
                    "value_exceeds_cutoff",
                    f"{inst}/{algo}",
                    f"ok run took {rec.value} > cutoff {scenario.cutoff}",
                )
    for inst, algo in scenario.runs:
        if inst not in inst_set or algo not in algo_set:
            err("unknown_run", f"{inst}/{algo}", "run for unknown instance or algorithm")

    d = len(scenario.feature_names)
    for inst in scenario.instances:
        vec = scenario.features.get(inst)
        if vec is None:
            err("missing_features", inst, "no feature vector")
        elif len(vec) != d:
            err("bad_feature_length", inst, f"vector has {len(vec)} values, expected {d}")
        else:
            for v in vec:
                if v is not None and not math.isfinite(v):
                    name = scenario.feature_names[vec.index(v)]
                    err("non_finite_value", inst, f"feature {name} value {v}")
                    break  # one report per instance; index() finds this first one
    for inst in scenario.features:
        if inst not in inst_set:
            err("unknown_feature_row", inst, "feature vector for unknown instance")

    group_names = [g.name for g in scenario.feature_groups]
    if len(set(group_names)) != len(group_names):
        err("duplicate_group", scenario.id, "feature group names are not unique")

    # Each feature index belongs to exactly one group.
    owners: dict[int, str] = {}
    for group in scenario.feature_groups:
        for idx in group.feature_indices:
            if not 0 <= idx < d:
                err("bad_feature_index", group.name, f"index {idx} outside [0, {d})")
            elif idx in owners:
                err("feature_in_two_groups", group.name, f"index {idx} also in {owners[idx]!r}")
            else:
                owners[idx] = group.name
        if group.cost is None:
            if runtime:
                warn("missing_cost_table", group.name, "no cost table; costs treated as 0")
        else:
            for inst, cost in group.cost.items():
                if inst not in inst_set:
                    err("unknown_cost_row", group.name, f"cost for unknown instance {inst!r}")
                elif not math.isfinite(cost):
                    err("non_finite_value", group.name, f"cost {cost} for {inst!r}")
                elif cost < 0:
                    err("negative_cost", group.name, f"cost {cost} for {inst!r}")
            for inst in scenario.instances:
                if inst not in group.cost:
                    warn("missing_cost", group.name, f"no cost for {inst!r}; treated as 0")
    for idx in range(d):
        if idx not in owners:
            err("ungrouped_feature", scenario.feature_names[idx], f"index {idx} in no group")

    seen_split_ids = set()
    for split in scenario.splits:
        sid = f"split {split.split_id}"
        if split.split_id in seen_split_ids:
            err("duplicate_split", sid, "split id repeated")
        seen_split_ids.add(split.split_id)
        for name, part in (("train", split.train), ("test", split.test)):
            unknown = [i for i in part if i not in inst_set]
            if unknown:
                err("unknown_split_instance", sid, f"{name} contains {unknown[:3]!r}")
        if not split.test:
            err("empty_test_set", sid, "test set is empty")
        overlap = set(split.train) & set(split.test)
        if overlap and not split.from_bootstrap:
            err("split_overlap", sid, f"train/test share {sorted(overlap)[:3]!r}")
    return out


def effective_cost(scenario: Scenario, instance: str, algorithm: str) -> float:
    """Cost of running one algorithm alone on one instance, as minimized.

    Runtime scenarios use the PAR10 transform: the recorded time if the run
    finished ok within the cutoff, otherwise ten times the cutoff. Quality
    scenarios return the value itself (negated for maximize direction).
    """
    table = scenario.table
    return float(table.cost[table.row[instance], scenario.algorithms.index(algorithm)])


def best_ok_time(scenario: Scenario, instance: str) -> float:
    """Fastest successful recorded runtime on an instance, cutoff if none."""
    assert scenario.objective == "runtime" and scenario.cutoff is not None
    table = scenario.table
    return float(table.capped[table.row[instance]].min())


def vbs_cost(scenario: Scenario, instance: str) -> float:
    """Cost of the virtual best solver on one instance: the per-instance
    minimum effective cost, with zero overhead for feature computation."""
    table = scenario.table
    if instance not in table.row:
        raise ValueError(f"unknown instance {instance!r}")
    return float(table.cost[table.row[instance]].min())


def sbs(scenario: Scenario, train_instances) -> str:
    """Single best solver: the algorithm with the lowest total effective cost
    over the given training instances. Ties go to the earlier portfolio slot."""
    table = scenario.table
    rows = [table.row[i] for i in train_instances]
    if not rows:
        raise ValueError("cannot pick a single best solver from an empty training set")
    totals = [math.fsum(column) for column in table.cost[rows].T.tolist()]
    return scenario.algorithms[totals.index(min(totals))]


def baseline_means(scenario: Scenario, rows) -> tuple[float, float]:
    """Means of the single best solver, picked on every instance, and of the
    virtual best solver over the given table rows (an index array or slice).

    Runtime scenarios average unpenalized runtimes capped at the cutoff;
    quality scenarios average the raw values.
    """
    table = scenario.table
    capped = table.capped[rows]
    # the virtual best solver runs each row's cheapest algorithm
    vbs = capped[np.arange(len(capped)), table.cost[rows].argmin(axis=1)]
    sbs_col = scenario.algorithms.index(sbs(scenario, scenario.instances))
    n = len(capped)
    return math.fsum(capped[:, sbs_col].tolist()) / n, math.fsum(vbs.tolist()) / n


def improvement_factor(scenario: Scenario) -> float:
    """How many times better the virtual best solver is than the single best.

    Runtime scenarios compare mean unpenalized runtimes capped at the cutoff,
    skipping instances that no algorithm solved. Quality scenarios compare
    mean values over all instances, with the ratio oriented so that a better
    VBS yields a factor above 1 for either direction.
    """
    if scenario.objective == "runtime":
        rows = np.flatnonzero(scenario.table.solved.any(axis=1))
        if not len(rows):
            raise ValueError("degenerate scenario: every algorithm failed on every instance")
        sbs_mean, vbs_mean = baseline_means(scenario, rows)
        return sbs_mean / vbs_mean
    sbs_mean, vbs_mean = baseline_means(scenario, slice(None))
    if scenario.direction == "maximize":
        return vbs_mean / sbs_mean
    return sbs_mean / vbs_mean
