"""Trainable selection systems.

Five families are provided, all sitting on the learners module:

* ``regression``: one random-forest runtime model per algorithm, pick the
  predicted minimum.
* ``pairwise``: one binary forest per algorithm pair, pick the algorithm
  with the most "is better" votes.
* ``cluster``: k-means over the feature space, each cluster champions the
  algorithm with the lowest summed cost inside it.
* ``stacking``: per-algorithm regressors whose out-of-fold predictions feed
  a classification forest.
* ``sunny``: a per-instance schedule built from the k nearest training
  instances, slicing the cutoff proportionally to neighborhood solve counts.

Any of them can carry a static pre-solving prefix that runs before feature
computation. Fitted models are immutable, deterministic in (data, hyper-
parameters, seed), and serialize to a versioned JSON artifact.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .evaluation import STEP_KIND, Schedules, SolverStep
from .learners import KNN, Forest, KMeans, fit_forest, fit_forests, fit_kmeans, rng_stream
from .scenario import Scenario, _cheapest_column

SELECTOR_KINDS = ("regression", "pairwise", "cluster", "stacking", "sunny")

# Fixed stream tags so sibling submodels never share a substream.
_S_REGRESSION, _S_PAIRWISE, _S_CLUSTER, _S_STACK_L1, _S_STACK_L2, _S_FOLDS = range(1, 7)

# The row index of a forest job that trains on every training instance.
_ALL_ROWS = slice(None)

MODEL_FORMAT = "asbench-model"
MODEL_VERSION = 4
_BLOCK_DTYPES = ("<f8", "<i8", "|b1")  # the dtypes a model's array blocks hold: float64, int64, bool


@dataclass(frozen=True)
class Hyperparameters:
    """Tuning knobs shared by all selector families.

    These defaults are this library's own; pass ``key=value`` strings from
    the command line to override any of them.
    """

    n_trees: int = 100
    min_leaf: int = 1
    features_per_split: int | None = None  # None: ceil(sqrt(n_features))
    k_clusters: int = 10
    sunny_k: int = 16
    presolve_budget_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            fraction = name == "presolve_budget_fraction"
            kind, what = (numbers.Real, "a number") if fraction else (numbers.Integral, "an integer")
            unset = value is None and name == "features_per_split"
            if not (unset or isinstance(value, kind) and not isinstance(value, bool)):
                raise TypeError(f"{name} must be {what}, got {value!r}")
        for name in ("n_trees", "min_leaf", "k_clusters", "sunny_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be positive")
        if not 0 <= self.presolve_budget_fraction < 1:
            raise ValueError("presolve_budget_fraction must lie in [0, 1)")

    @classmethod
    def from_pairs(cls, pairs) -> Hyperparameters:
        """Build from CLI-style ``key=value`` strings."""
        kwargs = {}
        for pair in pairs:
            if "=" not in pair:
                raise ValueError(f"expected key=value, got {pair!r}")
            key, value = pair.split("=", 1)
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"unknown hyperparameter {key!r}")
            kind = float if key == "presolve_budget_fraction" else int
            try:
                kwargs[key] = kind(value)
            except ValueError:
                raise ValueError(f"hyperparameter {key!r} expects {kind.__name__}, got {value!r}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class Preprocess:
    """Feature pipeline fitted on training data: select the used groups'
    columns, impute per-column medians, z-standardize, drop constants."""

    columns: tuple[int, ...]
    medians: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    kept: tuple[bool, ...]

    @classmethod
    def fit(cls, raw: np.ndarray, columns) -> Preprocess:
        """Fit on a raw training matrix (NaN where a value is missing)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            medians = np.nanmedian(raw, axis=0)
        medians = np.where(np.isnan(medians), 0.0, medians)
        filled = np.where(np.isnan(raw), medians[None, :], raw)
        means = filled.mean(axis=0)
        stds = filled.std(axis=0)
        kept = stds > 0
        return cls(
            columns=tuple(columns),
            medians=tuple(medians.tolist()),
            means=tuple(means.tolist()),
            stds=tuple(np.where(kept, stds, 1.0).tolist()),
            kept=tuple(bool(k) for k in kept),
        )

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Impute, standardize and drop the constant columns of a raw matrix."""
        filled = np.where(np.isnan(raw), np.asarray(self.medians)[None, :], raw)
        X = (filled - np.asarray(self.means)[None, :]) / np.asarray(self.stds)[None, :]
        return X[:, np.asarray(self.kept, dtype=bool)]


def raw_features(scenario: Scenario, instances, columns) -> np.ndarray:
    """The instances x columns feature matrix, NaN where a value is missing."""
    rows = np.array([scenario.row[i] for i in instances], dtype=np.intp)
    return scenario.features.matrix[rows[:, None], np.array(columns, dtype=np.intp)]


def _group_columns(scenario: Scenario, feature_groups) -> tuple[int, ...]:
    """Positions in the scenario's feature vectors of the named groups'
    columns, group by group."""
    by_name = {g.name: g for g in scenario.feature_groups}
    unknown = [g for g in feature_groups if g not in by_name]
    if unknown:
        raise ValueError(f"unknown feature groups {unknown!r}")
    # a schedule computes each group once, so a repeat would be charged twice
    repeated = [g for i, g in enumerate(feature_groups) if g in feature_groups[:i]]
    if repeated:
        raise ValueError(f"feature group {repeated[0]!r} named more than once")
    return tuple(idx for name in feature_groups for idx in by_name[name].feature_indices)


@dataclass(frozen=True)
class TrainingSet:
    """Preprocessed training data: one row per instance, one cost column per
    portfolio algorithm (PAR10 for runtime scenarios), plus a matching
    matrix of solved flags."""

    instances: tuple[str, ...]
    algorithms: tuple[str, ...]
    feature_groups: tuple[str, ...]
    X: np.ndarray
    costs: np.ndarray
    solved: np.ndarray
    pre: Preprocess


def build_training_set(scenario: Scenario, instances, feature_groups=None) -> TrainingSet:
    """Assemble a training set from a scenario's recorded data.

    ``feature_groups`` restricts the model to those groups (and only their
    columns are ever read afterwards); the default uses every group.
    """
    instances = tuple(instances)
    if not instances:
        raise ValueError("empty training set")
    if feature_groups is None:
        feature_groups = [g.name for g in scenario.feature_groups]
    feature_groups = tuple(feature_groups)
    columns = _group_columns(scenario, feature_groups)
    raw = raw_features(scenario, instances, columns)
    pre = Preprocess.fit(raw, columns)
    rows = [scenario.row[i] for i in instances]
    return TrainingSet(
        instances=instances,
        algorithms=scenario.algorithms,
        feature_groups=feature_groups,
        X=pre.transform(raw),
        costs=scenario.cost[rows],
        solved=scenario.solved[rows],
        pre=pre,
    )


@dataclass(frozen=True)
class SelectorModel:
    """A fitted selector plus everything needed to emit schedules."""

    kind: str
    algorithms: tuple[str, ...]
    feature_groups: tuple[str, ...]
    pre: Preprocess
    sbs_algorithm: str
    payload: dict
    presolve: tuple[SolverStep, ...] = ()
    hp: Hyperparameters = field(default_factory=Hyperparameters)


def _mean_costs(train: TrainingSet) -> np.ndarray:
    return train.costs.mean(axis=0)


def fit_regression(train: TrainingSet, hp: Hyperparameters) -> SelectorModel:
    """One runtime-predicting forest per algorithm; selection is the argmin
    of the predictions, ties resolved by portfolio order."""
    k = len(train.algorithms)
    jobs = [(_ALL_ROWS, train.costs[:, a], (_S_REGRESSION, a)) for a in range(k)]
    return _model("regression", train, hp, {"forests": fit_forests(train.X, jobs, hp)})


def fit_pairwise(train: TrainingSet, hp: Hyperparameters) -> SelectorModel:
    """One "does a beat b" classifier per algorithm pair ``(a, b)``, in
    ``itertools.combinations`` order; selection is by vote count, ties going
    to the lower mean training cost, then portfolio order."""
    k = len(train.algorithms)
    if k < 2:
        raise ValueError("pairwise selection needs at least two algorithms")
    jobs = [
        (_ALL_ROWS, (train.costs[:, a] < train.costs[:, b]).astype(np.int64), (_S_PAIRWISE, a, b))
        for a, b in itertools.combinations(range(k), 2)
    ]
    payload = {"forests": fit_forests(train.X, jobs, hp, n_classes=2), "mean_costs": _mean_costs(train)}
    return _model("pairwise", train, hp, payload)


def fit_cluster(train: TrainingSet, hp: Hyperparameters) -> SelectorModel:
    """k-means over the training features; each cluster is championed by the
    algorithm with the lowest summed cost among its members."""
    n = len(train.instances)
    k = hp.k_clusters
    if k > n:
        warnings.warn(f"only {n} training instances; reducing clusters from {k} to {n}")
        k = n
    km = fit_kmeans(train.X, k, rng_stream(hp.seed, _S_CLUSTER))
    assign = km.assign(train.X)
    mean_costs = _mean_costs(train)
    champions = []
    for c in range(km.centroids.shape[0]):
        members = assign == c
        totals = train.costs[members].sum(axis=0) if members.any() else mean_costs
        champions.append(int(np.argmin(totals)))
    payload = {"centroids": km.centroids, "champions": np.array(champions)}
    return _model("cluster", train, hp, payload)


def fit_stacking(train: TrainingSet, hp: Hyperparameters) -> SelectorModel:
    """Per-algorithm regressors stacked under a classification forest.

    The combiner trains on out-of-fold level-1 predictions (5 internal
    folds) so it sees honest inputs; the level-1 models are then refit on
    the full training set.
    """
    n, k = train.costs.shape
    n_folds = min(5, n)
    level1_oof = _out_of_fold(train, hp, n_folds)
    best_label = np.argmin(train.costs, axis=1)
    combiner = fit_forest(level1_oof, best_label, hp, (_S_STACK_L2,), n_classes=k)
    jobs = [(_ALL_ROWS, train.costs[:, a], (_S_STACK_L1, n_folds, a)) for a in range(k)]
    payload = {"forests": fit_forests(train.X, jobs, hp), "combiner": combiner}
    return _model("stacking", train, hp, payload)


def _out_of_fold(train: TrainingSet, hp: Hyperparameters, n_folds: int) -> np.ndarray:
    """Each training instance's level-1 predictions by the regressors fitted
    without its fold; with one instance, its one fold fits on itself."""
    n, k = train.costs.shape
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[rng_stream(hp.seed, _S_FOLDS).permutation(n)] = np.arange(n) % n_folds
    holds = [fold_of == f for f in range(n_folds)]
    fits = [~hold if (~hold).any() else hold for hold in holds]
    jobs = [
        (fit, train.costs[fit, a], (_S_STACK_L1, f, a))
        for f, fit in enumerate(fits)
        for a in range(k)
    ]
    level1_oof = np.zeros((n, k))
    for j, forest in enumerate(fit_forests(train.X, jobs, hp)):
        hold = holds[j // k]
        level1_oof[hold, j % k] = forest.predict(train.X[hold])
    return level1_oof


def fit_sunny(train: TrainingSet, hp: Hyperparameters) -> SelectorModel:
    """Store the training set for neighborhood lookups at prediction time."""
    payload = {"X": train.X, "costs": train.costs, "solved": train.solved}
    return _model("sunny", train, hp, payload)


def _model(kind, train, hp, payload) -> SelectorModel:
    return SelectorModel(
        kind=kind,
        algorithms=train.algorithms,
        feature_groups=train.feature_groups,
        pre=train.pre,
        sbs_algorithm=train.algorithms[_cheapest_column(train.costs)],
        payload=payload,
        hp=hp,
    )


# ---------------------------------------------------------------------------
# selection and schedules


def select_algorithms(model: SelectorModel, X: np.ndarray) -> np.ndarray:
    """Index of the algorithm the model picks for each row of a transformed
    feature matrix. The kind was checked where the model was fitted or
    loaded, so the last branch is sunny's."""
    kind = model.kind
    p = model.payload
    if kind == "regression":
        return np.argmin(np.column_stack([f.predict(X) for f in p["forests"]]), axis=1)
    if kind == "pairwise":
        k = len(model.algorithms)
        votes = np.zeros((X.shape[0], k), dtype=np.int64)
        rows = np.arange(X.shape[0])
        for (a, b), forest in zip(itertools.combinations(range(k), 2), p["forests"]):
            votes[rows, np.where(forest.predict(X) == 1, a, b)] += 1
        # a vote tie goes to the lower mean training cost, then portfolio order
        rank = np.empty(k, dtype=np.int64)
        rank[np.argsort(p["mean_costs"], kind="stable")] = np.arange(k)
        tied = votes == votes.max(axis=1, keepdims=True)
        return np.argmin(np.where(tied, rank, k), axis=1)
    if kind == "cluster":
        return p["champions"][KMeans(p["centroids"]).assign(X)]
    if kind == "stacking":
        return p["combiner"].predict(np.column_stack([f.predict(X) for f in p["forests"]]))
    return np.argmin(_sunny_neighborhoods(model, X)[0].mean(axis=1), axis=1)


def _sunny_neighborhoods(model: SelectorModel, X: np.ndarray):
    """The (rows, k, algorithms) costs and solved flags of each row's k
    nearest training instances, nearest first."""
    p = model.payload
    idx = KNN(X=p["X"], k=model.hp.sunny_k).neighbors(X)
    return p["costs"][idx], p["solved"][idx]


def _sunny_schedules(model: SelectorModel, X: np.ndarray, budget: float):
    """Per row, solver steps slicing ``budget`` proportionally to
    neighborhood solve counts, as (rows, algorithms + 1) arrays of algorithm
    columns, budgets and a mask of the steps each row runs.

    Neighborhood instances that nobody solves contribute their share to a
    backup slice for the algorithm with the best mean cost nearby; slices
    run in order of decreasing solve count, ties broken by mean cost, then
    portfolio order.
    """
    costs, solved = _sunny_neighborhoods(model, X)
    counts = solved.sum(axis=1).astype(np.float64)
    mean_costs = costs.mean(axis=1)
    denoms = counts.sum(axis=1) + (~solved.any(axis=2)).sum(axis=1)
    shares = budget * counts / denoms[:, None]  # 0.0 for an algorithm that solves no neighbor
    remainder = budget - np.array([math.fsum(row) for row in shares.tolist()])
    rows, backup = np.arange(len(X)), np.argmin(mean_costs, axis=1)
    # Absorbing the remainder into a backup that has a slice also soaks up
    # float dust, keeping the slice total at exactly the allocated budget.
    absorbed = counts[rows, backup] > 0
    shares[rows[absorbed], backup[absorbed]] += remainder[absorbed]
    order = np.lexsort((mean_costs, -counts))
    budgets = np.column_stack([np.take_along_axis(shares, order, axis=1), remainder])
    taken = np.column_stack([np.take_along_axis(counts, order, axis=1) > 0, ~absorbed & (remainder > 0)])
    return np.column_stack([order, backup]), budgets, taken


def predict_batch(model: SelectorModel, scenario: Scenario, instances) -> Schedules:
    """Emit each instance's schedule, as :class:`Schedules` in the order first given.

    Runtime schedules are presolve prefix, then the model's feature groups,
    then solver steps filling the cutoff left after presolving. Quality
    schedules are a single solver step. Instances with no feature values at
    all fall back to the stored single best solver, with a warning. A model
    whose portfolio or feature columns differ from the scenario's is refused.
    """
    if model.algorithms != scenario.algorithms:
        raise ValueError(
            f"model portfolio {list(model.algorithms)} differs from the scenario's "
            f"{list(scenario.algorithms)}"
        )
    if _group_columns(scenario, model.feature_groups) != model.pre.columns:
        raise ValueError("model feature groups sit at other columns in this scenario")
    instances = tuple(dict.fromkeys(instances))
    raw = raw_features(scenario, instances, model.pre.columns)
    blank = np.isnan(raw).all(axis=1) & (raw.shape[1] > 0)
    for inst in itertools.compress(instances, blank.tolist()):
        warnings.warn(f"no features for {inst!r}; falling back to the single best solver")
    X = model.pre.transform(raw[~blank])
    quality = scenario.objective == "quality"
    prefix = () if quality else model.presolve
    remaining = 0.0 if quality else scenario.cutoff - math.fsum(s.budget for s in prefix)
    if model.kind == "sunny" and not quality:
        cols, budgets, taken = _sunny_schedules(model, X, remaining)
    else:
        cols = select_algorithms(model, X)[:, None]
        budgets, taken = np.full(cols.shape, remaining), np.ones(cols.shape, dtype=bool)
    group_of = {g.name: j for j, g in enumerate(scenario.feature_groups)}
    groups = [] if quality else [group_of[g] for g in model.feature_groups]
    col, n_prefix, n_head = scenario.col, len(prefix), len(prefix) + len(groups)

    def columns(head, tail, fallback):
        """Each row's steps padded into columns: ``head`` (the prefix, then the
        feature groups), then ``tail``, or ``fallback`` on rows without features."""
        full = np.zeros((len(instances), tail.shape[1]), tail.dtype)
        full[:, 0], full[~blank] = fallback, tail
        return np.hstack([np.broadcast_to(np.array(head, tail.dtype), (len(full), n_head)), full])

    # rows without features skip the feature groups and run the single best solver
    on = columns(np.arange(n_head) < np.where(blank, n_prefix, n_head)[:, None], taken, True)
    feature = columns(np.arange(n_head) >= n_prefix, np.zeros_like(taken), False)[on]
    index = columns([col[s.algorithm] for s in prefix] + groups, cols, col[model.sbs_algorithm])[on]
    budget = columns([s.budget for s in prefix] + [0.0] * len(groups), budgets, remaining)[on]
    kind = np.where(feature, STEP_KIND["feature"], STEP_KIND["solver"])
    return Schedules(scenario, [scenario.row[i] for i in instances], on.sum(axis=1), kind, index, budget)


# ---------------------------------------------------------------------------
# static pre-solving


def _solved_times(scenario: Scenario, instances) -> np.ndarray:
    """Instances x algorithms recorded runtimes, +inf where a run is unsolved.

    A prefix step (a, t) dispatches exactly the instances whose time in
    column a is at most t: its budget stays below the cutoff, so "ok within
    t" and "solved within t" agree.
    """
    rows = [scenario.row[i] for i in instances]
    return np.where(scenario.solved[rows], scenario.runs.value[rows], np.inf)


def build_presolver(train_instances, scenario: Scenario, hp: Hyperparameters, max_steps: int = 1):
    """Greedy static prefix run before any feature computation.

    Each round picks the (algorithm, time) pair that solves the most
    remaining training instances per allocated second, with times drawn from
    the recorded runtimes that fit the remaining budget. Stops when nothing
    solves, the budget is gone, or ``max_steps`` rounds were taken.
    """
    if scenario.objective != "runtime" or hp.presolve_budget_fraction <= 0:
        return ()
    budget = hp.presolve_budget_fraction * scenario.cutoff
    times = _solved_times(scenario, train_instances)  # rows: the instances left so far
    prefix: list[SolverStep] = []
    for _ in range(max_steps):
        if budget <= 0 or not len(times):
            break
        best = None  # (rate, time, algo_idx)
        for ai in range(times.shape[1]):
            column = np.sort(times[:, ai])
            candidates = np.unique(column[(column > 0) & (column <= budget)])
            if not len(candidates) and (column == 0).any():
                candidates = np.array([budget])
            if not len(candidates):
                continue
            rates = np.searchsorted(column, candidates, side="right") / candidates
            j = int(np.argmax(rates))  # the first maximum is the shortest time
            rate, t = float(rates[j]), float(candidates[j])
            if best is None or rate > best[0] or (rate == best[0] and t < best[1]):
                best = (rate, t, ai)
        if best is None or best[0] <= 0:
            break
        _, t, ai = best
        prefix.append(SolverStep(algorithm=scenario.algorithms[ai], budget=t))
        times = times[times[:, ai] > t]
        budget -= t
    return tuple(prefix)


def prepare_training(
    scenario: Scenario, train_instances, hp: Hyperparameters, mode="icon2015", feature_groups=None
):
    """The seed-independent half of :func:`fit_system`: build the presolver,
    drop the training instances it dispatches, and assemble the training
    set of the rest. Returns ``(prefix, train)``. Of ``hp`` only
    ``presolve_budget_fraction`` is read, so one preparation serves the
    fits of every seed.

    2015 rules allow a single pre-solver step; 2017 rules allow a greedy
    schedule of up to three.
    """
    train_instances = tuple(train_instances)
    prefix = build_presolver(
        train_instances, scenario, hp, max_steps=1 if mode == "icon2015" else 3
    )
    times = _solved_times(scenario, train_instances)
    cols = [scenario.algorithms.index(s.algorithm) for s in prefix]
    left = (times[:, cols] > [s.budget for s in prefix]).all(axis=1)
    kept = tuple(i for i, keep in zip(train_instances, left.tolist()) if keep)
    if not kept:  # the prefix already cleans up the whole training set
        prefix = ()
        kept = train_instances
    return prefix, build_training_set(scenario, kept, feature_groups)


def fit_prepared(prefix, train: TrainingSet, kind: str, hp: Hyperparameters) -> SelectorModel:
    """Fit the requested selector family on a prepared training set (see
    :func:`prepare_training`), behind the presolver ``prefix``."""
    fitters = {
        "regression": fit_regression,
        "pairwise": fit_pairwise,
        "cluster": fit_cluster,
        "stacking": fit_stacking,
        "sunny": fit_sunny,
    }
    if kind not in fitters:
        raise ValueError(f"unknown selector kind {kind!r}; choose from {SELECTOR_KINDS}")
    return replace(fitters[kind](train, hp), presolve=prefix)


def fit_system(
    scenario: Scenario,
    train_instances,
    kind: str,
    hp: Hyperparameters,
    mode: str = "icon2015",
    feature_groups=None,
) -> SelectorModel:
    """Full training pipeline: build the presolver, drop the training
    instances it dispatches, then fit the requested selector family
    (:func:`prepare_training`, then :func:`fit_prepared`)."""
    prefix, train = prepare_training(scenario, train_instances, hp, mode, feature_groups)
    return fit_prepared(prefix, train, kind, hp)


# ---------------------------------------------------------------------------
# model serialization


def _encode(obj):
    """JSON-ready form of a payload: an array becomes a block of its dtype (``_BLOCK_DTYPES``),
    shape and base64 bytes, a forest a dict of its class count and arrays; containers recurse."""
    if isinstance(obj, np.ndarray):
        dtype = obj.dtype.newbyteorder("<").str
        if dtype not in _BLOCK_DTYPES:
            raise TypeError(f"cannot store a {obj.dtype} array")
        data = base64.b64encode(obj.astype(dtype).tobytes()).decode()
        return {"array": dtype, "shape": list(obj.shape), "data": data}
    if isinstance(obj, Forest):
        arrays = {name: _encode(a) for name, a in vars(obj).items() if isinstance(a, np.ndarray)}
        return {"n_classes": obj.n_classes, **arrays}
    if isinstance(obj, dict):
        return {key: _encode(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    """Inverse of :func:`_encode`, except that forests stay dicts for :func:`_check_forests` to
    build. A block decodes read-only, refused unless its dtype is in ``_BLOCK_DTYPES``, its shape
    integers >= 0 and its ``data`` strict base64 of prod(shape) items (as ``reshape`` checks)."""
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if "array" not in obj:
        return {key: _decode(value) for key, value in obj.items()}
    if set(obj) != {"array", "shape", "data"} or obj["array"] not in _BLOCK_DTYPES:
        raise ValueError(f"array block of keys {sorted(obj)} and dtype {obj['array']!r}: not {_BLOCK_DTYPES}")
    if not isinstance(obj["shape"], list) or not all(type(s) is int and s >= 0 for s in obj["shape"]):
        raise ValueError(f"array shape {obj['shape']!r} is not a list of integers >= 0")
    return np.frombuffer(base64.b64decode(obj["data"], validate=True), obj["array"]).reshape(obj["shape"])


def save_model(model: SelectorModel, path) -> None:
    """Serialize to a versioned JSON artifact with stable bytes."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind,
        "algorithms": model.algorithms,
        "feature_groups": model.feature_groups,
        "sbs_algorithm": model.sbs_algorithm,
        "presolve": [(s.algorithm, s.budget) for s in model.presolve],
        "preprocess": asdict(model.pre),
        "hyperparameters": asdict(model.hp),
        "payload": model.payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        # one json.dumps runs the C encoder; json.dump to a file would not
        fh.write(json.dumps(_encode(doc), sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path) -> SelectorModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a selector model artifact")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(
            f"{path}: model version {doc.get('version')} is not supported (this asbench reads "
            f"version {MODEL_VERSION}); retrain the model"
        )
    try:
        kind = doc["kind"]
        if kind not in SELECTOR_KINDS:
            raise ValueError(f"{path}: unknown selector kind {kind!r}")
        algorithms = _read(path, "algorithms", tuple, doc["algorithms"])
        pre = _read(path, "preprocess", _preprocess, doc["preprocess"])
        d, k = sum(pre.kept), len(algorithms)
        return SelectorModel(
            kind=kind,
            algorithms=algorithms,
            feature_groups=_read(path, "feature_groups", tuple, doc["feature_groups"]),
            pre=pre,
            sbs_algorithm=_read(path, "sbs_algorithm", lambda v: _member(v, algorithms), doc["sbs_algorithm"]),
            payload=_read(path, "payload", lambda v: _payload(kind, v, d, k), doc["payload"]),
            presolve=_read(path, "presolve", lambda v: _presolve(v, algorithms), doc["presolve"]),
            hp=_read(path, "hyperparameters", lambda v: Hyperparameters(**v), doc["hyperparameters"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: model document has no {exc.args[0]!r}") from None


def _read(path, field, convert, value):
    """``convert(value)``, with a value of the wrong shape or type (a missing
    or unknown key, a list where an object belongs, a number where a list
    does) reported as invalid input that names the file and the field."""
    try:
        return convert(value)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: model field {field!r} does not fit: {exc}") from None


def _preprocess(doc) -> Preprocess:
    pre = {name: tuple(values) for name, values in doc.items()}
    pre["kept"] = tuple(map(bool, pre["kept"]))
    if len(set(map(len, pre.values()))) > 1:
        raise ValueError("its lists are not of one length")
    return Preprocess(**pre)


# What a payload field must decode to, and the check of it.
_FIELD_TYPES = {
    "an array": lambda v: isinstance(v, np.ndarray),
    "a forest": lambda v: isinstance(v, dict),
    "a list of forests": lambda v: isinstance(v, list) and all(isinstance(f, dict) for f in v),
}
_ARRAY, _FOREST, _FORESTS = _FIELD_TYPES

# Each kind's payload fields and what they decode to.
_PAYLOAD_FIELDS = {
    "regression": {"forests": _FORESTS},
    "pairwise": {"forests": _FORESTS, "mean_costs": _ARRAY},
    "cluster": {"centroids": _ARRAY, "champions": _ARRAY},
    "stacking": {"forests": _FORESTS, "combiner": _FOREST},
    "sunny": {"X": _ARRAY, "costs": _ARRAY, "solved": _ARRAY},
}


def _payload(kind, doc, d, k) -> dict:
    """The decoded payload of a ``kind`` model over ``d`` feature columns and
    ``k`` algorithms, refused where prediction would follow an index out of
    range (a tree's walk, a feature column, an algorithm)."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected an object, got {type(doc).__name__}")
    p = {}
    for name, expected in _PAYLOAD_FIELDS[kind].items():
        try:
            p[name] = _decode(doc.get(name))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name!r}: {exc}") from None
        if not _FIELD_TYPES[expected](p[name]):
            raise ValueError(f"{name!r} is not {expected}")
    if kind in ("regression", "stacking"):  # one regressor per algorithm
        p["forests"] = _check_forests("forests", p["forests"], d, count=k)
    if kind == "stacking":
        (p["combiner"],) = _check_forests("combiner", [p["combiner"]], k, n_classes=k)
    if kind == "pairwise":  # one classifier per algorithm pair
        p["forests"] = _check_forests("forests", p["forests"], d, n_classes=2, count=k * (k - 1) // 2)
        _check_shape("mean_costs", p["mean_costs"], (k,))
    if kind == "cluster":
        c = p["centroids"].shape[:1]
        _check_shape("centroids", p["centroids"], (*c, d))
        _check_shape("champions", p["champions"], c, np.int64)
        if not ((0 <= p["champions"]) & (p["champions"] < k)).all():
            raise ValueError(f"'champions' names an algorithm outside [0, {k})")
    if kind == "sunny":
        n = p["X"].shape[:1]
        for name, shape, dtype in (("X", (*n, d), float), ("costs", (*n, k), float), ("solved", (*n, k), bool)):
            _check_shape(name, p[name], shape, dtype)
    return p


def _check_shape(name, array, shape, dtype=np.float64) -> None:
    if array.shape != shape or array.dtype != dtype or shape[:1] == (0,):
        raise ValueError(f"{name!r} is not an array of {np.dtype(dtype)} of shape {shape} with at least one row")


def _check_forests(name, forests, d, n_classes=None, count=1) -> list[Forest]:
    """The ``count`` decoded ``forests``, built once no walk could leave its
    tree or run forever: each holds ``n_classes`` and exactly the arrays of a
    :class:`Forest`, of one node count n, with integer ids and float values;
    its ``roots`` rise from 0 below n, its features lie in [-1, ``d``), and
    each split's children come after it in its tree."""
    leaf = "value" if n_classes is None else "dist"
    fields = ("roots", "feature", "left", "right", "threshold", leaf)
    if len(forests) != count:
        raise ValueError(f"{name!r} holds {len(forests)} forests, not {count}")
    built = []
    for f in forests:
        if f.get("n_classes") != n_classes or set(f) != {"n_classes", *fields}:
            raise ValueError(f"{name!r} holds a forest not of {n_classes} classes with arrays {fields}")
        roots, feature, left, right, threshold, payload = (f[field] for field in fields)
        nodes, n = (feature, left, right, threshold, payload), np.size(feature)
        typed = all(isinstance(a, np.ndarray) for a in nodes) and [a.dtype.kind for a in nodes] == list("iiiff")
        shapes = [(n,)] * 4 + [(n,) if n_classes is None else (n, n_classes)]
        if not typed or [a.shape for a in nodes] != shapes:
            raise ValueError(f"{name!r} holds forest arrays not of one length, with integer ids and float values")
        int_list = isinstance(roots, np.ndarray) and roots.dtype.kind == "i" and roots.ndim == 1 and roots.size
        if not int_list or roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n:
            raise ValueError(f"{name!r} holds a forest whose roots are not integers rising from 0 below {n}")
        if ((feature < -1) | (feature >= d)).any():
            raise ValueError(f"{name!r} holds a tree that reads a feature outside [-1, {d})")
        sizes = np.diff(np.append(roots, n))
        size = np.repeat(sizes, sizes)  # the node count of each node's tree
        node = np.arange(n) - np.repeat(roots, sizes)  # id within its tree
        for side, child in (("left", left), ("right", right)):
            if ((feature >= 0) & ((child <= node) | (child >= size))).any():
                raise ValueError(f"{name!r} holds a split whose {side} child is not after it in its tree")
        built.append(Forest(n_classes, roots, feature, threshold, left, right, **{leaf: payload}))
    return built


def _member(name, algorithms):
    if name not in algorithms:
        raise ValueError(f"{name!r} is not in the portfolio")
    return name


def _presolve(doc, algorithms) -> tuple[SolverStep, ...]:
    """Presolve steps, each naming a portfolio algorithm with a finite budget above 0."""
    steps = tuple(SolverStep(algorithm=_member(a, algorithms), budget=b) for a, b in doc)
    for step in steps:
        if type(step.budget) not in (int, float) or not 0 < step.budget < math.inf:
            raise ValueError(f"{step} has no finite budget above 0")
    return steps
