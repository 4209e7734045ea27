"""In-memory model of an algorithm-selection scenario.

A scenario records, for a fixed portfolio of algorithms and a fixed set of
problem instances, the outcome of every (instance, algorithm) run, the
per-instance feature vectors, the cost of computing each feature group, and
the train/test splits used for selector evaluation. Everything downstream
(simulation, scoring, selector training) reads from this model and never
mutates it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

OBJECTIVES = ("runtime", "quality")
DIRECTIONS = ("minimize", "maximize")
RUN_STATUSES = ("ok", "timeout", "memout", "crash", "other")

# A status's index in RUN_STATUSES: its int8 code in ``Runs.status`` and its
# severity rank when repeated runs collapse to the worst status.
STATUS_CODE = {s: i for i, s in enumerate(RUN_STATUSES)}

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


class Runs:
    """The stored run data of a scenario, as ASlib's performance matrix.

    ``value[n,k]`` (float64) and ``status[n,k]`` (int8) are read-only
    arrays. They hold no labels: row r is the scenario's instance r and
    column c its algorithm c, so a table of the same shape is taken
    positionally. A status is an index into ``RUN_STATUSES``, whose order
    is the severity rank; -1 marks a pair without a record, whose value is
    NaN.
    """

    __slots__ = ("value", "status")

    def __init__(self, value: np.ndarray, status: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.status = np.asarray(status, dtype=np.int8).reshape(self.value.shape)
        self.value.flags.writeable = False
        self.status.flags.writeable = False

    @classmethod
    def from_records(cls, records: dict, instances, algorithms) -> Runs:
        """Store a dict of ``(instance, algorithm)`` to :class:`RunRecord`
        in the order of ``instances`` and ``algorithms``.

        Raises ValueError for a record the table cannot hold: one for an
        unknown instance or algorithm, or with an unknown status.
        """
        inst_set, algo_set = set(instances), set(algorithms)
        for inst, algo in records:
            if inst not in inst_set or algo not in algo_set:
                raise ValueError(f"run {inst}/{algo} is for an unknown instance or algorithm")
        cells = [records.get(pair) for pair in itertools.product(instances, algorithms)]
        try:
            status = [-1 if rec is None else STATUS_CODE[rec.status] for rec in cells]
        except KeyError as exc:
            raise ValueError(f"unknown run status {exc.args[0]!r}") from None
        values = [math.nan if rec is None else rec.value for rec in cells]
        return cls(np.reshape(values, (len(instances), len(algorithms))), status)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Runs):
            return NotImplemented
        return np.array_equal(self.status, other.status) and np.array_equal(self.value, other.value, equal_nan=True)


class Features:
    """The stored feature vectors of a scenario.

    ``matrix[n,d]`` (float64, NaN at a missing cell) and ``missing[n,d]``
    (bool) are read-only arrays. They hold no labels: row r is the
    scenario's instance r and column j its feature j, so a table of the
    same shape is taken positionally.
    """

    __slots__ = ("matrix", "missing")

    def __init__(self, matrix: np.ndarray, missing: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.missing = np.asarray(missing, dtype=bool).reshape(self.matrix.shape)
        self.matrix.flags.writeable = False
        self.missing.flags.writeable = False

    @classmethod
    def from_vectors(cls, vectors: dict, instances, d: int) -> Features:
        """Store a dict of instance to a vector of ``d`` values (``None``
        where missing) in the order of ``instances``.

        Raises ValueError for a dict the table cannot hold: one with a
        vector for an unknown instance, of another length, or none at all.
        """
        instances = tuple(instances)
        known = set(instances)
        for inst in vectors:
            if inst not in known:
                raise ValueError(f"feature vector for unknown instance {inst!r}")
        cells = []
        for inst in instances:
            vec = vectors.get(inst)
            if vec is None:
                raise ValueError(f"no feature vector for instance {inst!r}")
            if len(vec) != d:
                raise ValueError(f"feature vector of {inst!r} has {len(vec)} values, expected {d}")
            cells.extend(vec)
        shape = (len(instances), d)
        missing = np.array([v is None for v in cells], dtype=bool).reshape(shape)
        values = np.array([math.nan if v is None else v for v in cells], dtype=np.float64).reshape(shape)
        return cls(values, missing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Features):
            return NotImplemented
        return np.array_equal(self.missing, other.missing) and np.array_equal(self.matrix, other.matrix, equal_nan=True)


@dataclass(frozen=True)
class Scenario:
    """A complete, immutable algorithm-selection benchmark scenario.

    The labels live here only: ``row`` and ``col`` map an instance and an
    algorithm to its position in ``instances`` and ``algorithms``. ``runs``
    is the stored run table (:class:`Runs`), one row per instance and one
    column per algorithm; a valid scenario has a record for every pair. A
    dict of ``(instance, algorithm)`` to :class:`RunRecord` is accepted
    instead and stored once, at construction. ``features`` is the stored
    feature table (:class:`Features`), one row per instance and one column
    per feature name, with a missing value marked, never silently zero. A
    dict of each instance to its vector, ``None`` where a value is missing,
    is accepted instead and stored once, at construction. A table is taken
    by position, so renaming labels keeps it as it is; one of another shape
    is refused with a ValueError.

    ``solved``, ``cost`` and ``capped`` are read-only arrays aligned to
    ``runs``, derived from it and the objective, direction and cutoff on
    first use.
    """

    id: str
    objective: str
    direction: str
    cutoff: float | None
    algorithms: tuple[str, ...]
    instances: tuple[str, ...]
    runs: Runs
    features: Features
    feature_names: tuple[str, ...]
    feature_groups: tuple[FeatureGroup, ...]
    splits: tuple[Split, ...] = ()

    def __post_init__(self):
        n, d = len(self.instances), len(self.feature_names)
        if not isinstance(self.runs, Runs):
            object.__setattr__(self, "runs", Runs.from_records(self.runs, self.instances, self.algorithms))
        if not isinstance(self.features, Features):
            object.__setattr__(self, "features", Features.from_vectors(self.features, self.instances, d))
        for name, shape, expected in (
            ("run table", self.runs.value.shape, (n, len(self.algorithms))),
            ("feature table", self.features.matrix.shape, (n, d)),
        ):
            if shape != expected:
                raise ValueError(f"{name} has shape {shape}, expected {expected}")

    @cached_property
    def row(self) -> dict[str, int]:
        """Each instance's row in the run and feature tables."""
        return {inst: r for r, inst in enumerate(self.instances)}

    @cached_property
    def col(self) -> dict[str, int]:
        """Each algorithm's column in the run table."""
        return {algo: c for c, algo in enumerate(self.algorithms)}

    @cached_property
    def solved(self) -> np.ndarray:
        """The one solved predicate: status ``ok`` and, for runtime
        scenarios, a value within the cutoff."""
        solved = self.runs.status == STATUS_CODE["ok"]
        if self.objective == "runtime":
            solved &= self.runs.value <= self.cutoff
        return _read_only(solved)

    @cached_property
    def cost(self) -> np.ndarray:
        """What selection minimizes: PAR10 for runtime scenarios, the value
        (negated under the maximize direction) for quality ones."""
        values = self.runs.value
        if self.objective == "runtime":
            return _read_only(np.where(self.solved, values, PAR10_FACTOR * self.cutoff))
        return _read_only(-values) if self.direction == "maximize" else values

    @cached_property
    def capped(self) -> np.ndarray:
        """The unpenalized runtime, the cutoff for an unsolved run; quality
        scenarios keep the raw values."""
        if self.objective == "runtime":
            return _read_only(np.where(self.solved, self.runs.value, self.cutoff))
        return self.runs.value

    @cached_property
    def feature_cost(self) -> np.ndarray:
        """Each feature group's cost per instance, read-only, one row per
        instance and one column per group; 0 where no cost is recorded."""
        n = len(self.instances)
        columns = [
            [0.0] * n if g.cost is None else [g.cost.get(i, 0.0) for i in self.instances]
            for g in self.feature_groups
        ]
        return _read_only(np.array(columns, dtype=np.float64).reshape(len(columns), n).T)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    """Merge repeated runs of one pair: mean value, worst observed status.

    The mean is ``math.fsum``'s. Where fsum's partial sums overflow it is
    taken exactly, since a mean of finite doubles is finite; ``inf`` with
    ``-inf`` has no mean and gives NaN, which ``validate`` flags.
    """
    if len(records) == 1:
        return records[0]
    values = [r.value for r in records]
    try:
        value = math.fsum(values) / len(values)
    except ValueError:  # inf with -inf
        value = math.nan
    except OverflowError:  # the finite values sum past the largest double
        finite = [v for v in values if math.isfinite(v)]
        special = sum(v for v in values if not math.isfinite(v))  # 0, inf, -inf or NaN
        value = float(sum(map(Fraction, finite)) / len(values)) + special
    status = max((r.status for r in records), key=lambda s: STATUS_CODE[s])
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
    if scenario.objective == "quality" and scenario.cutoff is not None:
        err("bad_cutoff", scenario.id, "quality scenario must not carry a cutoff")

    if len(set(scenario.algorithms)) != len(scenario.algorithms):
        err("duplicate_algorithm", scenario.id, "algorithm ids are not unique")
    if len(set(scenario.instances)) != len(scenario.instances):
        err("duplicate_instance", scenario.id, "instance ids are not unique")

    inst_set = set(scenario.instances)

    # Dense run matrix: exactly one record per pair. The stored table holds
    # no record for an unknown pair or with an unknown status, so only its
    # cells can break an invariant; details are built for flagged cells only.
    values, status = scenario.runs.value, scenario.runs.status
    missing = status < 0
    finite = np.isfinite(values)
    flagged = missing | ~finite
    if runtime:
        flagged |= values < 0
        if scenario.cutoff is not None:
            flagged |= (status == STATUS_CODE["ok"]) & (values > scenario.cutoff)
    for r, c in zip(*np.nonzero(flagged)):
        entity = f"{scenario.instances[r]}/{scenario.algorithms[c]}"
        value = float(values[r, c])
        if missing[r, c]:
            err("missing_run", entity, "no run record for pair")
            continue
        if not finite[r, c]:
            err("non_finite_value", entity, f"run value {value}")
            continue
        if runtime and value < 0:
            err("negative_value", entity, f"runtime {value} < 0")
        if runtime and status[r, c] == STATUS_CODE["ok"] and scenario.cutoff is not None and value > scenario.cutoff:
            err("value_exceeds_cutoff", entity, f"ok run took {value} > cutoff {scenario.cutoff}")

    # The stored feature table holds one vector of the right length per
    # instance, so only its values can break an invariant: the first
    # non-finite one of each instance is reported.
    d = len(scenario.feature_names)
    features = scenario.features
    flagged = ~(np.isfinite(features.matrix) | features.missing)
    for r in np.flatnonzero(flagged.any(axis=1)).tolist():
        c = int(flagged[r].argmax())
        value = float(features.matrix[r, c])
        err("non_finite_value", scenario.instances[r], f"feature {scenario.feature_names[c]} value {value}")

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
            # a bootstrap sample may draw a training instance more than once
            if name == "test" or not split.from_bootstrap:
                repeated = [i for i, count in Counter(part).items() if count > 1]
                if repeated:
                    err("duplicate_split_instance", sid, f"{name} lists {repeated[:3]!r} more than once")
        if not split.test:
            err("empty_test_set", sid, "test set is empty")
        overlap = set(split.train) & set(split.test)
        if overlap and not split.from_bootstrap:
            err("split_overlap", sid, f"train/test share {sorted(overlap)[:3]!r}")
    return out


def vbs_cost(scenario: Scenario, instance: str) -> float:
    """Cost of the virtual best solver on one instance: the per-instance
    minimum cost, with zero overhead for feature computation."""
    row = scenario.row.get(instance)
    if row is None:
        raise ValueError(f"unknown instance {instance!r}")
    return float(scenario.cost[row].min())


def sbs(scenario: Scenario, train_instances) -> str:
    """Single best solver: the algorithm with the lowest total cost
    over the given training instances. Ties go to the earlier portfolio slot."""
    rows = [scenario.row[i] for i in train_instances]
    if not rows:
        raise ValueError("cannot pick a single best solver from an empty training set")
    return scenario.algorithms[_cheapest_column(scenario.cost[rows])]


def _cheapest_column(costs: np.ndarray) -> int:
    """The single best solver rule, which the fitted selectors share: the cost
    column with the lowest ``math.fsum`` total, ties to the earlier column."""
    totals = [math.fsum(column) for column in costs.T.tolist()]
    return totals.index(min(totals))


def baseline_means(scenario: Scenario, rows) -> tuple[float, float]:
    """Means of the single best solver, picked on every instance, and of the
    virtual best solver over the given table rows (an index array or slice).

    Runtime scenarios average unpenalized runtimes capped at the cutoff;
    quality scenarios average the raw values.
    """
    capped = scenario.capped[rows]
    # the virtual best solver runs each row's cheapest algorithm
    vbs = capped[np.arange(len(capped)), scenario.cost[rows].argmin(axis=1)]
    sbs_col = scenario.algorithms.index(sbs(scenario, scenario.instances))
    n = len(capped)
    return math.fsum(capped[:, sbs_col].tolist()) / n, math.fsum(vbs.tolist()) / n


def improvement_factor(scenario: Scenario) -> float | None:
    """How many times better the virtual best solver is than the single best.

    Runtime scenarios compare mean unpenalized runtimes capped at the cutoff,
    skipping instances that no algorithm solved. Quality scenarios compare
    mean values over all instances, with the ratio oriented so that a better
    VBS yields a factor above 1 for either direction. A ratio only orders
    two positive means, so the factor is undefined (``None``) unless both
    are above 0.
    """
    if scenario.objective == "runtime":
        rows = np.flatnonzero(scenario.solved.any(axis=1))
        if not len(rows):
            raise ValueError("degenerate scenario: every algorithm failed on every instance")
        num, den = baseline_means(scenario, rows)  # SBS mean over VBS mean
    else:
        num, den = baseline_means(scenario, slice(None))
        if scenario.direction == "maximize":
            num, den = den, num
    return num / den if num > 0 and den > 0 else None
