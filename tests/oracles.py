"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
semantics, with exact Fraction arithmetic where it matters, and never calls
into the code paths it verifies.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from asbench.evaluation import FeatureStep, MetricScore, ScoreReport, SolverStep, _gap, _mean, simulate_batch
from asbench.learners import Forest, _grow_trees, fit_forest, rng_stream
from asbench.scenario import (
    DIRECTIONS,
    OBJECTIVES,
    RUN_STATUSES,
    STATUS_CODE,
    FeatureGroup,
    RunRecord,
    Scenario,
    Split,
    Violation,
    collapse_repetitions,
    sbs,
)
from asbench.scenario_io import (
    COSTS_FILE,
    DESCRIPTION_FILE,
    FEATURES_FILE,
    MISSING_MARK,
    PREDICTIONS_HEADER,
    REPORT_HEADER,
    RUNS_FILE,
    SPLITS_FILE,
    ParseError,
    ViolationsError,
)
from asbench.selectors import _S_FOLDS, _S_PAIRWISE, _S_REGRESSION, _S_STACK_L1, _S_STACK_L2


def run_record(scenario, instance, algorithm) -> RunRecord | None:
    """The recorded run of one pair, None where the table holds none: one
    cell of the stored ``value`` and ``status`` arrays, never of the arrays
    ``Scenario`` derives from them."""
    runs = scenario.runs
    r, c = scenario.row[instance], scenario.col[algorithm]
    code = int(runs.status[r, c])
    return None if code < 0 else RunRecord(float(runs.value[r, c]), RUN_STATUSES[code])


def records(scenario) -> dict:
    """Every recorded run keyed by ``(instance, algorithm)``, in row-major
    order: the dict a scenario is built from."""
    pairs = itertools.product(scenario.instances, scenario.algorithms)
    return {pair: rec for pair in pairs if (rec := run_record(scenario, *pair)) is not None}


def feature_vector(scenario, instance) -> tuple:
    """One instance's stored feature values, ``None`` at the holes."""
    r = scenario.row[instance]
    values, holes = scenario.features.matrix[r].tolist(), scenario.features.missing[r].tolist()
    return tuple(None if hole else v for v, hole in zip(values, holes))


def feature_vectors(scenario) -> dict:
    """Every instance's feature vector: the dict a scenario is built from."""
    return {inst: feature_vector(scenario, inst) for inst in scenario.instances}


def schedule_map(schedules) -> dict:
    """A batch's schedules keyed by instance, in batch order, each a tuple of
    ``FeatureStep``/``SolverStep``, for tests that compare schedules by
    instance. A batch holding two schedules of one instance raises ValueError."""
    if len(set(schedules.instances)) < len(schedules.instances):
        raise ValueError("the batch holds more than one schedule of an instance")
    return dict(zip(schedules.instances, schedules.values()))


def oracle_simulate(scenario, instance, schedule):
    """Exact step walk. Returns (solved, time_used) for runtime scenarios.

    This walk and the float walk of ``asbench.evaluation.simulate`` can
    differ where a slice rounds at the last ulp."""
    cutoff = Fraction(scenario.cutoff)
    clock = Fraction(0)
    costs = {g.name: g.cost for g in scenario.feature_groups}
    for step in schedule:
        if isinstance(step, FeatureStep):
            table = costs[step.group]
            clock = clock + Fraction(table.get(instance, 0.0) if table else 0.0)
        elif isinstance(step, SolverStep):
            rec = run_record(scenario, instance, step.algorithm)
            run_time = Fraction(rec.value)
            slice_left = min(Fraction(step.budget), cutoff - clock)
            if rec.status == "ok":
                if run_time <= slice_left:
                    return True, float(clock + run_time)
                clock = clock + slice_left
            elif rec.status == "timeout":
                clock = clock + slice_left
            else:  # memout / crash / other: the run may die before the slice ends
                clock = clock + min(run_time, slice_left)
        if clock >= cutoff:
            return False, float(cutoff)
    return False, float(cutoff)


def oracle_vbs_cost(scenario, instance):
    """Brute-force minimum PAR10 (or quality cost) over the portfolio."""
    best = None
    for algo in scenario.algorithms:
        rec = run_record(scenario, instance, algo)
        if scenario.objective == "runtime":
            if rec.status == "ok" and rec.value <= scenario.cutoff:
                cost = rec.value
            else:
                cost = 10.0 * scenario.cutoff
        else:
            cost = -rec.value if scenario.direction == "maximize" else rec.value
        if best is None or cost < best:
            best = cost
    return best


def oracle_sbs(scenario, instances):
    """Exhaustive totals; first portfolio slot wins ties."""
    totals = []
    for algo in scenario.algorithms:
        total = 0.0
        for inst in instances:
            rec = run_record(scenario, inst, algo)
            if scenario.objective == "runtime":
                if rec.status == "ok" and rec.value <= scenario.cutoff:
                    total += rec.value
                else:
                    total += 10.0 * scenario.cutoff
            else:
                total += -rec.value if scenario.direction == "maximize" else rec.value
        totals.append(total)
    best = min(totals)
    return scenario.algorithms[totals.index(best)]


def oracle_presolver(train_instances, scenario, hp, max_steps=1):
    """Greedy static prefix, the original per-pair search kept as the reference.

    Each round picks the (algorithm, time) pair that solves the most
    remaining training instances per allocated second, with times drawn from
    the recorded runtimes that fit the remaining budget. Stops when nothing
    solves, the budget is gone, or ``max_steps`` rounds were taken.
    """
    if scenario.objective != "runtime" or hp.presolve_budget_fraction <= 0:
        return ()
    budget = hp.presolve_budget_fraction * scenario.cutoff
    remaining = list(train_instances)
    prefix: list[SolverStep] = []
    for _ in range(max_steps):
        if budget <= 0 or not remaining:
            break
        best = None  # (rate, time, algo_idx)
        for ai, algo in enumerate(scenario.algorithms):
            times = sorted(
                {
                    run_record(scenario, i, algo).value
                    for i in remaining
                    if run_record(scenario, i, algo).status == "ok"
                    and 0 < run_record(scenario, i, algo).value <= budget
                }
            )
            if not times and any(
                run_record(scenario, i, algo).status == "ok" and run_record(scenario, i, algo).value == 0
                for i in remaining
            ):
                times = [budget]
            for t in times:
                solved = sum(
                    1
                    for i in remaining
                    if run_record(scenario, i, algo).status == "ok" and run_record(scenario, i, algo).value <= t
                )
                rate = solved / t
                if best is None or rate > best[0] or (rate == best[0] and t < best[1]):
                    best = (rate, t, ai)
        if best is None or best[0] <= 0:
            break
        _, t, ai = best
        algo = scenario.algorithms[ai]
        prefix.append(SolverStep(algorithm=algo, budget=t))
        remaining = [
            i
            for i in remaining
            if not (run_record(scenario, i, algo).status == "ok" and run_record(scenario, i, algo).value <= t)
        ]
        budget -= t
    return tuple(prefix)


def oracle_presolved_instances(prefix, scenario, instances):
    """Training instances the prefix alone already solves, one replay each:
    the dispatch ``prepare_training`` made before it read the run table."""
    if not prefix:
        return set()
    solved = set()
    for inst in instances:
        if oracle_replay(scenario, inst, tuple(prefix)).solved:
            solved.add(inst)
    return solved


# The CART grower before presorting, one node at a time: one argsort and one
# cumsum chain per node per candidate feature, breadth first, with the same
# per-depth feature draws. ``grow_tree`` must reproduce its trees bit for bit.


def grow_tree(X, y, rng, min_leaf=1, features_per_split=None, n_classes=None) -> Forest:
    """One tree on the whole sample, as a one-tree forest from a one-tree call
    of the library's grower: the path under test, not a reference."""
    X = np.asarray(X, dtype=np.float64)
    boot = np.arange(X.shape[0])[None]
    Y = np.asarray(y)[None]
    return _grow_trees(X, Y, boot, [rng], min_leaf, features_per_split, n_classes)


def _oracle_best_split(X, y, target_sq, feat_order, min_leaf, one_hot):
    """Lowest-impurity split over the candidate features, or None.

    Impurity is the summed squared error for regression and the weighted
    Gini index for classification (``one_hot`` given). Ties keep the first
    candidate feature, which makes the search order part of the contract.
    """
    n = y.shape[0]
    best = None
    for f in feat_order:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        pos = np.arange(min_leaf - 1, n - min_leaf)
        if pos.size == 0:
            continue
        valid = xs[pos] < xs[pos + 1]
        if not valid.any():
            continue
        pos = pos[valid]
        n_left = pos + 1.0
        n_right = n - n_left
        if one_hot is None:
            ys = y[order]
            csum = np.cumsum(ys)
            csq = np.cumsum(target_sq[order])
            s_left, q_left = csum[pos], csq[pos]
            s_right = csum[-1] - s_left
            q_right = csq[-1] - q_left
            cost = (q_left - s_left**2 / n_left) + (q_right - s_right**2 / n_right)
        else:
            cum = np.cumsum(one_hot[order], axis=0)
            c_left = cum[pos]
            c_right = cum[-1] - c_left
            gini_left = n_left - (c_left**2).sum(axis=1) / n_left
            gini_right = n_right - (c_right**2).sum(axis=1) / n_right
            cost = gini_left + gini_right
        j = int(np.argmin(cost))
        if best is None or cost[j] < best[0]:
            a, b = float(xs[pos[j]]), float(xs[pos[j] + 1])
            thr = 0.5 * (a + b)
            if not a <= thr < b:  # adjacent or huge doubles: keep a, which parts them
                thr = a
            best = (float(cost[j]), int(f), thr)
    return best


def oracle_grow_tree(X, y, rng, min_leaf=1, features_per_split=None, n_classes=None) -> Forest:
    """Grow a CART tree to purity (no depth cap), breadth first, as a one-tree
    forest.

    ``n_classes`` switches to classification with Gini splits; otherwise
    splits minimize variance. ``features_per_split`` caps how many features
    each node may consider: at each depth the tree draws one row of feature
    orders per splittable node, in node order.
    """
    n, d = X.shape
    classify = n_classes is not None
    one_hot_all = np.eye(n_classes, dtype=np.float64)[y] if classify else None
    target_sq = None if classify else y * y
    draw = features_per_split is not None and features_per_split < d

    feature = []
    threshold = []
    left = []
    right = []
    payload = []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        payload.append(None)
        return len(feature) - 1

    level = [(np.arange(n), new_node())]
    while level:
        splittable = [
            idx.size >= 2 * min_leaf and not np.all(y[idx] == y[idx][0]) for idx, _ in level
        ]
        if draw:
            rows = np.tile(np.arange(d), (sum(splittable), 1))
            orders = iter(rng.permuted(rows, axis=1)[:, :features_per_split])
        next_level = []
        for (idx, slot), splits in zip(level, splittable):
            ys = y[idx]
            split = None
            if splits:
                feat_order = next(orders) if draw else np.arange(d)
                split = _oracle_best_split(
                    X[idx],
                    ys,
                    None if classify else target_sq[idx],
                    feat_order,
                    min_leaf,
                    one_hot_all[idx] if classify else None,
                )
            if split is None:
                if classify:
                    counts = np.bincount(ys, minlength=n_classes).astype(np.float64)
                    payload[slot] = counts / counts.sum()
                else:
                    payload[slot] = float(np.add.reduceat(ys, [0])[0] / ys.size)
                continue
            _, f, thr = split
            feature[slot] = f
            threshold[slot] = thr
            mask = X[idx, f] <= thr
            left[slot] = new_node()
            right[slot] = new_node()
            next_level.append((idx[mask], left[slot]))
            next_level.append((idx[~mask], right[slot]))
        level = next_level

    m = len(feature)
    tree = Forest(
        n_classes=n_classes,
        roots=np.zeros(1, dtype=np.int64),
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
    )
    if classify:
        dist = np.zeros((m, n_classes), dtype=np.float64)
        for i, p in enumerate(payload):
            if p is not None:
                dist[i] = p
        tree.dist = dist
    else:
        tree.value = np.asarray([0.0 if p is None else p for p in payload], dtype=np.float64)
    return tree


def oracle_regression_forests(train, hp):
    """``fit_regression``'s forests, one ``fit_forest`` call each.

    This and the next two are the selector fitters' per-forest loops from
    before forests shared grower calls. ``fit_forest``, a one-job
    ``fit_forests`` call, is itself checked against ``oracle_grow_tree``."""
    forests = [
        fit_forest(train.X, train.costs[:, a], hp, (_S_REGRESSION, a))
        for a in range(len(train.algorithms))
    ]
    return forests


def oracle_pairwise_classifiers(train, hp):
    """``fit_pairwise``'s forests, one per algorithm pair (a, b) with a < b
    in ``itertools.combinations`` order, one ``fit_forest`` call each."""
    k = len(train.algorithms)
    forests = []
    for a in range(k):
        for b in range(a + 1, k):
            labels = (train.costs[:, a] < train.costs[:, b]).astype(np.int64)
            forests.append(fit_forest(train.X, labels, hp, (_S_PAIRWISE, a, b), n_classes=2))
    return forests


def oracle_stacking(train, hp):
    """``fit_stacking``'s out-of-fold level-1 matrix, combiner and level-1
    forests, one ``fit_forest`` call per forest."""
    n, k = train.costs.shape
    best_label = np.argmin(train.costs, axis=1)
    n_folds = min(5, n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[rng_stream(hp.seed, _S_FOLDS).permutation(n)] = np.arange(n) % n_folds

    level1_oof = np.zeros((n, k))
    for f in range(n_folds):
        hold = fold_of == f
        fit_rows = ~hold
        if not fit_rows.any():
            fit_rows = hold
        for a in range(k):
            forest = fit_forest(
                train.X[fit_rows], train.costs[fit_rows, a], hp, (_S_STACK_L1, f, a)
            )
            level1_oof[hold, a] = forest.predict(train.X[hold])

    combiner = fit_forest(level1_oof, best_label, hp, (_S_STACK_L2,), n_classes=k)
    forests = [
        fit_forest(train.X, train.costs[:, a], hp, (_S_STACK_L1, n_folds, a)) for a in range(k)
    ]
    return level1_oof, combiner, forests


def _oracle_transform(pre, raw_vector):
    """One raw feature vector through a fitted ``Preprocess``; None if every
    value is missing."""
    vals = [raw_vector[c] for c in pre.columns]
    if all(v is None for v in vals) and pre.columns:
        return None
    x = np.array(
        [m if v is None else float(v) for v, m in zip(vals, pre.medians)], dtype=np.float64
    )
    x = (x - np.asarray(pre.means)) / np.asarray(pre.stds)
    return x[np.asarray(pre.kept, dtype=bool)]


def oracle_raw_features(scenario, instances, columns):
    """The instances x columns feature matrix, NaN where a value is missing:
    the library's walk of each instance's feature vector, one row at a time."""
    columns = tuple(columns)
    rows = [
        [np.nan if v is None else v for v in (vec[c] for c in columns)]
        for vec in (feature_vector(scenario, i) for i in instances)
    ]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))


def oracle_tree_predict(tree, X):
    """One tree's leaf payload for every row of ``X``: the library's walk of
    one tree at a time, from before forests were packed."""
    n = X.shape[0]
    idx = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        node = idx[active]
        feat = tree.feature[node]
        inner = feat >= 0
        if not inner.any():
            break
        sel = active[inner]
        node = idx[sel]
        go_left = X[sel, tree.feature[node]] <= tree.threshold[node]
        idx[sel] = np.where(go_left, tree.left[node], tree.right[node])
        active = sel
    if tree.value is not None:
        return tree.value[idx]
    return tree.dist[idx]


def _oracle_forest_predict(forest, X):
    """A forest's prediction as ``np.mean`` over the stacked tree outputs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if forest.n_classes is None:
        return np.mean([oracle_tree_predict(t, X) for t in forest.trees], axis=0)
    dist = np.mean([oracle_tree_predict(t, X) for t in forest.trees], axis=0)
    return np.argmax(dist, axis=1)


def _oracle_select(model, x):
    """Index of the algorithm the model picks for one transformed vector."""
    kind = model.kind
    p = model.payload
    if kind == "regression":
        preds = np.array([_oracle_forest_predict(f, x[None, :])[0] for f in p["forests"]])
        return int(np.argmin(preds))
    if kind == "pairwise":
        votes = np.zeros(len(model.algorithms))
        pairs = itertools.combinations(range(len(model.algorithms)), 2)
        for (a, b), forest in zip(pairs, p["forests"], strict=True):
            winner = a if _oracle_forest_predict(forest, x[None, :])[0] == 1 else b
            votes[winner] += 1
        best = votes.max()
        tied = np.flatnonzero(votes == best)
        if len(tied) > 1:
            mean_costs = np.asarray(p["mean_costs"])
            tied = tied[np.argsort(mean_costs[tied], kind="stable")]
        return int(tied[0])
    if kind == "cluster":
        centroids = np.asarray(p["centroids"])
        d = ((centroids - x[None, :]) ** 2).sum(axis=1)
        return int(p["champions"][int(np.argmin(d))])
    if kind == "stacking":
        level1 = np.array([[_oracle_forest_predict(f, x[None, :])[0] for f in p["forests"]]])
        return int(_oracle_forest_predict(p["combiner"], level1)[0])
    if kind == "sunny":
        costs = _oracle_sunny_neighborhood(model, x)[1]
        return int(np.argmin(costs.mean(axis=0)))
    raise ValueError(f"unknown selector kind {kind!r}")


def _oracle_sunny_neighborhood(model, x):
    p = model.payload
    X = np.asarray(p["X"])
    d = X - np.asarray(x, dtype=np.float64)
    dist = np.einsum("ij,ij->i", d, d) if X.shape[1] else np.zeros(X.shape[0])
    idx = np.argsort(dist, kind="stable")[: min(model.hp.sunny_k, X.shape[0])]
    return idx, np.asarray(p["costs"])[idx], np.asarray(p["solved"])[idx]


def _oracle_sunny_schedule(model, x, budget):
    _, costs, solved = _oracle_sunny_neighborhood(model, x)
    counts = solved.sum(axis=0).astype(np.float64)
    mean_costs = costs.mean(axis=0)
    unsolved = int((~solved.any(axis=1)).sum())
    backup = int(np.argmin(mean_costs))

    denom = counts.sum() + unsolved
    if denom <= 0:
        return ((backup, budget),)
    order = sorted(
        (a for a in range(len(counts)) if counts[a] > 0),
        key=lambda a: (-counts[a], mean_costs[a], a),
    )
    slices = {a: budget * counts[a] / denom for a in order}
    remainder = budget - math.fsum(slices.values())
    if backup in slices:
        slices[backup] += remainder
    elif remainder > 0:
        order.append(backup)
        slices[backup] = remainder
    return tuple((a, slices[a]) for a in order)


def oracle_knn_neighbors(X, k, x):
    """The k nearest training rows of one query ``x``, by one full stable
    argsort of its distances: ``KNN.neighbors`` before it took a matrix."""
    k = min(k, X.shape[0])
    d = X - np.asarray(x, dtype=np.float64)
    dist = np.einsum("ij,ij->i", d, d) if X.shape[1] else np.zeros(X.shape[0])
    return np.argsort(dist, kind="stable")[:k]


def oracle_kmeans_assign(centroids, X):
    """Each row's nearest centroid by the (n x k x d) broadcast:
    ``KMeans.assign`` before one ``cdist`` call gave its distances."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if centroids.shape[1] == 0:
        return np.zeros(X.shape[0], dtype=np.int64)
    d = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d, axis=1)


def oracle_predict(model, scenario, instance):
    """The schedule for one instance, one feature vector and one forest
    query per row at a time: the original per-row prediction path."""
    x = _oracle_transform(model.pre, feature_vector(scenario, instance))
    if scenario.objective == "quality":
        if x is None:
            warnings.warn(f"no features for {instance!r}; falling back to the single best solver")
            return (SolverStep(algorithm=model.sbs_algorithm, budget=0.0),)
        return (SolverStep(algorithm=model.algorithms[_oracle_select(model, x)], budget=0.0),)

    cutoff = scenario.cutoff
    prefix = tuple(model.presolve)
    remaining = cutoff - math.fsum(s.budget for s in prefix)
    if x is None:
        warnings.warn(f"no features for {instance!r}; falling back to the single best solver")
        return prefix + (SolverStep(algorithm=model.sbs_algorithm, budget=remaining),)
    steps: list = [FeatureStep(group=g) for g in model.feature_groups]
    if model.kind == "sunny":
        for a, budget in _oracle_sunny_schedule(model, x, remaining):
            steps.append(SolverStep(algorithm=model.algorithms[a], budget=budget))
    else:
        chosen = model.algorithms[_oracle_select(model, x)]
        steps.append(SolverStep(algorithm=chosen, budget=remaining))
    return prefix + tuple(steps)


def oracle_rank_table(scores):
    """``rank_table``'s ranks as scipy's ``rankdata`` gives them, row by row."""
    from scipy.stats import rankdata

    return np.vstack([rankdata(row) for row in scores])


def oracle_friedman_statistic(score_rows):
    """Hand evaluation of the Friedman formula with exact rationals.

    ``score_rows`` is a list of per-row score lists (lower is better).
    Returns the chi-square statistic as a Fraction.
    """
    n = len(score_rows)
    k = len(score_rows[0])
    rank_rows = []
    for row in score_rows:
        ranks = []
        for j, value in enumerate(row):
            less = sum(1 for v in row if v < value)
            equal = sum(1 for v in row if v == value)
            # average of the rank positions the tie block occupies
            ranks.append(Fraction(2 * less + equal + 1, 2))
        rank_rows.append(ranks)
    avg = [sum((rank_rows[i][j] for i in range(n)), Fraction(0)) / n for j in range(k)]
    total_sq = sum((r * r for r in avg), Fraction(0))
    return Fraction(12 * n, k * (k + 1)) * (total_sq - Fraction(k * (k + 1) ** 2, 4))


def oracle_friedman_permutation_p(score_rows, observed_stat):
    """Exact permutation distribution of the Friedman statistic.

    Under the null every within-row ranking is equally likely, so enumerate
    all assignments of rank permutations to rows and count how often the
    statistic reaches the observed one.
    """
    from itertools import permutations, product

    n = len(score_rows)
    k = len(score_rows[0])
    base = list(range(1, k + 1))
    hits = 0
    total = 0
    observed = Fraction(observed_stat).limit_denominator(10**9)
    for combo in product(permutations(base), repeat=n):
        avg = [Fraction(sum(row[j] for row in combo), n) for j in range(k)]
        total_sq = sum((r * r for r in avg), Fraction(0))
        stat = Fraction(12 * n, k * (k + 1)) * (total_sq - Fraction(k * (k + 1) ** 2, 4))
        total += 1
        if stat >= observed - Fraction(1, 10**6):
            hits += 1
    return hits / total


def oracle_range_quantile(k, alpha):
    """Quantile of the range of k iid standard normals, divided by sqrt(2).

    P(range <= q) = k * integral phi(z) (Phi(z) - Phi(z - q))^(k-1) dz,
    which is the studentized range CDF at infinite degrees of freedom.
    """
    import math

    from scipy.integrate import quad
    from scipy.optimize import brentq
    from scipy.stats import norm

    def cdf(q):
        integrand = lambda z: norm.pdf(z) * (norm.cdf(z) - norm.cdf(z - q)) ** (k - 1)
        value, _ = quad(integrand, -9, 9, limit=200)
        return k * value

    q = brentq(lambda x: cdf(x) - (1 - alpha), 0.1, 10.0, xtol=1e-10)
    return q / math.sqrt(2.0)

# The table reader before it split plain text itself: every file through
# ``csv.reader``, returned as rows. ``_read_table`` must give the same header,
# the same rows as columns (a row of another width than the header blanked
# and flagged) and the same line numbers, or the same ParseError.


def oracle_read_table(path: Path, header: list[str] | None = None, comments: bool = False):
    """Read a CSV file whole: (header, rows, line numbers), blank rows
    skipped, each row numbered by the physical line it starts on. The header
    is checked when given. With ``comments``, the lines after the first that
    are blank or start with ``#`` are skipped unread."""
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = list(enumerate(fh, 1))
    if comments:
        numbered = [(n, t) for n, t in numbered if n == 1 or t.strip() and not t.startswith("#")]
    reader = csv.reader(t for _, t in numbered)
    try:
        head = next(reader)
    except StopIteration:
        raise ParseError(path.name, 1, "file is empty, header row required") from None
    if header is not None and head != header:
        raise ParseError(path.name, 1, f"bad header {head!r}, expected {header!r}")
    rows, lines = [], []
    while reader.line_num < len(numbered):  # a record starts on the first line not yet read
        lines.append(numbered[reader.line_num][0])
        rows.append(next(reader))
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    return head, rows, lines


# The bundle parser and validate before the columnar parser and the array
# checks: one RunRecord per runs.csv row, collapsed per pair, then a walk over
# every (instance, algorithm) pair. ``parse_scenario`` and ``validate`` must
# give equal scenarios, the same ParseError and the same violation list.


def _oracle_read_csv(path: Path, header: list[str] | None = None):
    """Yield (line_number, row) pairs, checking the header when given; a row
    is numbered by the physical line it starts on."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        head = next(reader)
    except StopIteration:
        raise ParseError(path.name, 1, "file is empty, header row required") from None
    if header is not None and head != header:
        raise ParseError(path.name, 1, f"bad header {head!r}, expected {header!r}")
    yield 1, head
    while reader.line_num < len(lines):
        lineno = reader.line_num + 1
        row = next(reader)
        if row:
            yield lineno, row


def _oracle_id(token: str, file: str, line: int, what: str) -> str:
    """An id as README's "Scenario bundles" states it: stripped of
    surrounding whitespace, not empty, and holding none of ``,;:="`` and
    no line break."""
    token = token.strip()
    if token == "" or any(ch in ',;:="\r\n' for ch in token):
        raise ParseError(file, line, f"bad {what} id {token!r}")
    return token


def _oracle_float(text: str, file: str, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(file, line, f"bad {what} {text!r}, expected a number") from None


_ORACLE_KEYS = ("scenario_id", "objective", "direction", "cutoff", "algorithms", "feature_groups")


def _oracle_parse_description(path: Path):
    """description.txt as README's "Scenario bundles" states it: one
    ``key: value`` per line (CR, LF or CRLF ends a line), blank lines skipped
    but counted, each key at most once and all but ``cutoff`` required. A
    fault in a line names that line; a fault in a value names line 1."""
    name = path.name
    fields: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip() == "":
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(name, lineno, f"expected 'key: value', got {line!r}")
        key = key.strip()
        if key not in _ORACLE_KEYS:
            raise ParseError(name, lineno, f"unknown key {key!r}")
        if key in fields:
            raise ParseError(name, lineno, f"duplicate key {key!r}")
        fields[key] = value.strip()
    for key in _ORACLE_KEYS:
        if key != "cutoff" and key not in fields:
            raise ParseError(name, 1, f"missing key {key!r}")

    cutoff = _oracle_float(fields["cutoff"], name, 1, "cutoff") if "cutoff" in fields else None
    algorithms = tuple(_oracle_id(t, name, 1, "algorithm") for t in fields["algorithms"].split(","))
    groups = []
    # name=cost_column:index,index,... joined by ';'; an empty value is no group
    for part in fields["feature_groups"].split(";") if fields["feature_groups"] else []:
        group, eq, rest = part.partition("=")
        cost_column, colon, index_text = rest.partition(":")
        if not (eq and colon):
            raise ParseError(name, 1, f"bad feature group {part!r}, expected name=cost_column:indices")
        group = _oracle_id(group, name, 1, "feature group")
        cost_column = _oracle_id(cost_column, name, 1, "cost column")
        indices = []
        for token in index_text.split(","):
            if token.strip() == "":
                continue
            try:
                indices.append(int(token))
            except ValueError:
                raise ParseError(name, 1, f"bad index list {index_text!r}") from None
        if not indices:
            raise ParseError(name, 1, f"feature group {group!r} has no indices")
        groups.append((group, cost_column, tuple(indices)))
    return fields["scenario_id"], fields["objective"], fields["direction"], cutoff, algorithms, groups


def oracle_parse_scenario(path, check: bool = True) -> Scenario:
    """The row parser before the columnar one: one ``RunRecord`` per row.

    With ``check`` (the default) the scenario must come back clean from
    :func:`asbench.scenario.validate`; error-level violations raise
    :class:`ViolationsError`, warnings are tolerated.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"scenario directory {root} does not exist")
    for required in (DESCRIPTION_FILE, RUNS_FILE, FEATURES_FILE, SPLITS_FILE):
        if not (root / required).exists():
            raise ParseError(required, 0, "required file missing from bundle")

    scenario_id, objective, direction, cutoff, algorithms, group_specs = _oracle_parse_description(
        root / DESCRIPTION_FILE
    )

    # features.csv fixes the instance order; one row per instance.
    feature_names: tuple[str, ...] = ()
    instances: list[str] = []
    features: dict[str, tuple[float | None, ...]] = {}
    for lineno, row in _oracle_read_csv(root / FEATURES_FILE):
        if lineno == 1:
            if not row or row[0] != "instance_id":
                raise ParseError(FEATURES_FILE, 1, "first column must be instance_id")
            feature_names = tuple(row[1:])
            continue
        if len(row) != 1 + len(feature_names):
            raise ParseError(
                FEATURES_FILE, lineno, f"expected {1 + len(feature_names)} columns, got {len(row)}"
            )
        inst = _oracle_id(row[0], FEATURES_FILE, lineno, "instance")
        if inst in features:
            raise ParseError(FEATURES_FILE, lineno, f"duplicate instance row {inst!r}")
        vec = tuple(
            None if tok.strip() == MISSING_MARK else _oracle_float(tok, FEATURES_FILE, lineno, "feature")
            for tok in row[1:]
        )
        instances.append(inst)
        features[inst] = vec
    inst_set = set(instances)
    algo_set = set(algorithms)

    reps: dict[tuple[str, str], list[RunRecord]] = {}
    for lineno, row in _oracle_read_csv(root / RUNS_FILE, ["instance_id", "algorithm_id", "value", "status"]):
        if lineno == 1:
            continue
        if len(row) != 4:
            raise ParseError(RUNS_FILE, lineno, f"expected 4 columns, got {len(row)}")
        inst, algo, value_text, status = (t.strip() for t in row)
        if inst not in inst_set:
            raise ParseError(RUNS_FILE, lineno, f"unknown instance {inst!r}")
        if algo not in algo_set:
            raise ParseError(RUNS_FILE, lineno, f"unknown algorithm {algo!r}")
        if status not in RUN_STATUSES:
            raise ParseError(RUNS_FILE, lineno, f"unknown status {status!r}")
        value = _oracle_float(value_text, RUNS_FILE, lineno, "value")
        reps.setdefault((inst, algo), []).append(RunRecord(value=value, status=status))
    runs = {pair: collapse_repetitions(records) for pair, records in reps.items()}

    cost_tables: dict[str, dict[str, float]] = {}
    cost_path = root / COSTS_FILE
    if cost_path.exists():
        cost_cols: list[str] = []
        for lineno, row in _oracle_read_csv(cost_path):
            if lineno == 1:
                if not row or row[0] != "instance_id":
                    raise ParseError(COSTS_FILE, 1, "first column must be instance_id")
                cost_cols = row[1:]
                if len(set(cost_cols)) != len(cost_cols):
                    raise ParseError(COSTS_FILE, 1, "duplicate cost column")
                for col in cost_cols:
                    cost_tables[col] = {}
                continue
            if len(row) != 1 + len(cost_cols):
                raise ParseError(COSTS_FILE, lineno, f"expected {1 + len(cost_cols)} columns, got {len(row)}")
            inst = row[0].strip()
            if inst not in inst_set:
                raise ParseError(COSTS_FILE, lineno, f"unknown instance {inst!r}")
            if cost_cols and inst in cost_tables[cost_cols[0]]:
                raise ParseError(COSTS_FILE, lineno, f"duplicate instance row {inst!r}")
            for col, tok in zip(cost_cols, row[1:]):
                cost_tables[col][inst] = _oracle_float(tok, COSTS_FILE, lineno, "cost")
    elif objective == "runtime":
        raise ParseError(COSTS_FILE, 0, "runtime scenario requires a feature cost table")

    # A group whose cost column is absent simply has no recorded costs;
    # validate() downgrades that to a warning for runtime scenarios.
    groups = [
        FeatureGroup(name=name, feature_indices=indices, cost=cost_tables.get(cost_col))
        for name, cost_col, indices in group_specs
    ]

    splits = _oracle_parse_splits(root / SPLITS_FILE, inst_set)

    scenario = Scenario(
        id=scenario_id,
        objective=objective,
        direction=direction,
        cutoff=cutoff,
        algorithms=algorithms,
        instances=tuple(instances),
        runs=runs,
        features=features,
        feature_names=feature_names,
        feature_groups=tuple(groups),
        splits=splits,
    )
    if check:
        problems = [v for v in oracle_validate(scenario) if v.severity == "error"]
        if problems:
            raise ViolationsError(problems)
    return scenario


def _oracle_parse_splits(path: Path, inst_set: set[str]) -> tuple[Split, ...]:
    rows: dict[int, dict[str, list[str]]] = {}
    modes: dict[int, str] = {}
    for lineno, row in _oracle_read_csv(path, ["split_id", "mode", "role", "instance_id"]):
        if lineno == 1:
            continue
        if len(row) != 4:
            raise ParseError(SPLITS_FILE, lineno, f"expected 4 columns, got {len(row)}")
        sid_text, mode, role, inst = (t.strip() for t in row)
        try:
            sid = int(sid_text)
        except ValueError:
            raise ParseError(SPLITS_FILE, lineno, f"bad split id {sid_text!r}") from None
        if mode not in ("bootstrap", "holdout", "custom"):
            raise ParseError(SPLITS_FILE, lineno, f"unknown split mode {mode!r}")
        if role not in ("train", "test"):
            raise ParseError(SPLITS_FILE, lineno, f"unknown role {role!r}")
        if inst not in inst_set:
            raise ParseError(SPLITS_FILE, lineno, f"unknown instance {inst!r}")
        if sid in modes and modes[sid] != mode:
            raise ParseError(SPLITS_FILE, lineno, f"split {sid} mixes modes")
        modes[sid] = mode
        rows.setdefault(sid, {"train": [], "test": []})[role].append(inst)
    return tuple(
        Split(
            split_id=sid,
            train=tuple(parts["train"]),
            test=tuple(parts["test"]),
            from_bootstrap=modes[sid] == "bootstrap",
        )
        for sid, parts in sorted(rows.items())
    )


def oracle_validate(scenario: Scenario) -> list[Violation]:
    """The record-walking ``validate`` before the array checks."""
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

    # Dense run matrix: exactly one record per pair.
    for inst in scenario.instances:
        for algo in scenario.algorithms:
            rec = run_record(scenario, inst, algo)
            if rec is None:
                err("missing_run", f"{inst}/{algo}", "no run record for pair")
                continue
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

    d = len(scenario.feature_names)
    for inst in scenario.instances:
        vec = feature_vector(scenario, inst)
        for v in vec:
            if v is not None and not math.isfinite(v):
                name = scenario.feature_names[vec.index(v)]
                err("non_finite_value", inst, f"feature {name} value {v}")
                break  # one report per instance; index() finds this first one

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
            if name == "test" or not split.from_bootstrap:
                repeated = [i for i in dict.fromkeys(part) if part.count(i) > 1]
                if repeated:
                    err("duplicate_split_instance", sid, f"{name} lists {repeated[:3]!r} more than once")
        if not split.test:
            err("empty_test_set", sid, "test set is empty")
        overlap = set(split.train) & set(split.test)
        if overlap and not split.from_bootstrap:
            err("split_overlap", sid, f"train/test share {sorted(overlap)[:3]!r}")
    return out


# The report reader before it read through the bundle parser's table reader:
# raw lines, each parsed on its own, with no check of the split or value.


def oracle_read_report_csv(path):
    """Rows of (system, scenario, split, metric, value), footer skipped."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw.startswith("#") or not raw.strip():
                continue
            row = next(csv.reader([raw]))
            if lineno == 1:
                if row != REPORT_HEADER:
                    raise ValueError(f"{path}: bad report header {row!r}")
                continue
            if len(row) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns")
            rows.append((row[0], row[1], int(row[2]), row[3], float(row[4])))
    return rows


# The replay and the prediction-file parser before they kept schedules as
# step arrays: one schedule validated and walked at a time, and one row at a
# time. ``simulate_batch`` must give the same outcomes bit for bit, and
# ``parse_predictions`` an equal mapping or the same ParseError.

_OK = STATUS_CODE["ok"]
_DIES_EARLY = {STATUS_CODE[s] for s in ("memout", "crash", "other")}


def _oracle_check_schedule(scenario: Scenario, schedule) -> None:
    """Raise ValueError, with the library's messages, for the first illegal
    step of a schedule walked in order, then for a quality schedule that is
    not exactly one solver step."""
    group_names = [g.name for g in scenario.feature_groups]
    computed = []
    for step in schedule:
        if isinstance(step, FeatureStep):
            if step.group not in group_names:
                raise ValueError(f"unknown feature group {step.group!r}")
            if step.group in computed:
                raise ValueError(f"feature group {step.group!r} scheduled twice")
            computed.append(step.group)
        elif isinstance(step, SolverStep):
            if step.algorithm not in scenario.algorithms:
                raise ValueError(f"unknown algorithm {step.algorithm!r}")
            if scenario.objective == "runtime" and not step.budget > 0:
                raise ValueError(f"solver budget must be positive, got {step.budget}")
        else:
            raise ValueError(f"unknown step type {type(step).__name__}")
    if scenario.objective == "quality" and (len(schedule) != 1 or not isinstance(schedule[0], SolverStep)):
        raise ValueError("quality scenarios take exactly one solver step and nothing else")


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying one schedule on one instance."""

    solved: bool
    time_used: float | None = None
    achieved_value: float | None = None
    solving_step: int | None = None


def oracle_replay(scenario: Scenario, instance: str, schedule) -> ReplayOutcome:
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
    if instance not in scenario.row:
        raise ValueError(f"unknown instance {instance!r}")
    _oracle_check_schedule(scenario, schedule)
    r = scenario.row[instance]

    def record(algorithm):
        c = scenario.col[algorithm]
        status = int(runs.status[r, c])
        if status < 0:
            raise KeyError((instance, algorithm))
        return float(runs.value[r, c]), status

    if scenario.objective == "quality":
        value, status = record(schedule[0].algorithm)
        return ReplayOutcome(solved=status == _OK, achieved_value=value, solving_step=1)

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
                return ReplayOutcome(solved=True, time_used=t + value, solving_step=ordinal)
            if status in _DIES_EARLY and value < slice_:
                t += value
            else:
                t += slice_
        if t >= cutoff:
            return ReplayOutcome(solved=False, time_used=cutoff)
    return ReplayOutcome(solved=False, time_used=cutoff)


def oracle_parse_predictions(path, scenario: Scenario):
    """Read a prediction file into per-instance schedules."""
    fname = Path(path).name
    inst_set = set(scenario.instances)
    algo_set = set(scenario.algorithms)
    group_set = {g.name for g in scenario.feature_groups}

    staged: dict[str, list[tuple[int, object]]] = {}
    lines: dict[str, int] = {}
    for lineno, row in itertools.islice(_oracle_read_csv(Path(path), PREDICTIONS_HEADER), 1, None):
        if len(row) != 5:
            raise ParseError(fname, lineno, f"expected 5 columns, got {len(row)}")
        inst, ordinal_text, kind, name, budget_text = (t.strip() for t in row)
        if inst not in inst_set:
            raise ParseError(fname, lineno, f"unknown instance {inst!r}")
        try:
            ordinal = int(ordinal_text)
        except ValueError:
            raise ParseError(fname, lineno, f"bad step ordinal {ordinal_text!r}") from None
        budget = _oracle_float(budget_text, fname, lineno, "budget")
        if kind == "solver":
            if name not in algo_set:
                raise ParseError(fname, lineno, f"unknown algorithm {name!r}")
            step = SolverStep(algorithm=name, budget=budget)
        elif kind == "feature":
            if name not in group_set:
                raise ParseError(fname, lineno, f"unknown feature group {name!r}")
            step = FeatureStep(group=name)
        else:
            raise ParseError(fname, lineno, f"unknown step kind {kind!r}")
        staged.setdefault(inst, []).append((ordinal, step))
        lines[inst] = lineno

    schedules = {}
    for inst, steps in staged.items():
        steps.sort(key=lambda pair: pair[0])
        ordinals = [o for o, _ in steps]
        if ordinals != list(range(1, len(steps) + 1)):
            raise ParseError(
                fname, lines[inst], f"step ordinals for {inst!r} are not contiguous from 1: {ordinals}"
            )
        schedule = tuple(step for _, step in steps)
        try:
            _oracle_check_schedule(scenario, schedule)
        except ValueError as exc:
            raise ParseError(fname, lines[inst], f"invalid schedule for {inst!r}: {exc}") from None
        schedules[inst] = schedule
    return schedules


# The scorer before it read each metric's system, SBS and VBS columns from one
# table: eleven means spelled out one by one. ``score_system`` must give the
# same report bit for bit, and refuse a batch that misses a test instance for
# the same instances.


def oracle_score_system(scenario: Scenario, split: Split, schedules, system: str = "system") -> ScoreReport:
    """Score one system's schedules on a split's test instances.

    ``schedules`` (as ``predict_batch`` or the prediction parser returns
    it) holds one schedule of each test instance, found by its row, and
    those are replayed in one :func:`simulate_batch`; a missing test
    instance or a second schedule of an instance raises ValueError. The
    single best solver is picked on the split's training instances and
    replayed as a bare full-cutoff run; the virtual best solver references
    come straight from the recorded data. The solved metric enters its gap
    as an unsolved fraction and maximize-direction quality values as negated
    costs, so every gap is a ratio of minimized quantities.
    """
    test = list(split.test)
    rows = [scenario.row[i] for i in test]
    at = schedules.positions(scenario)[rows]
    if missing := [i for i, p in zip(test, at.tolist()) if p < 0]:
        raise ValueError(f"missing predictions for test instances {missing[:5]!r}")
    sbs_col = scenario.algorithms.index(sbs(scenario, split.train))
    vbs = scenario.cost[rows].min(axis=1).tolist()
    out = simulate_batch(scenario, schedules, at)

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
