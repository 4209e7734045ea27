"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
semantics, with exact Fraction arithmetic where it matters, and never calls
into the code paths it verifies.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

from asbench.evaluation import FeatureStep, SolverStep
from asbench.learners import Tree


def oracle_simulate(scenario, instance, schedule):
    """Exact step walk. Returns (solved, time_used) for runtime scenarios."""
    cutoff = Fraction(scenario.cutoff)
    clock = Fraction(0)
    costs = {g.name: g.cost for g in scenario.feature_groups}
    for step in schedule:
        if isinstance(step, FeatureStep):
            table = costs[step.group]
            clock = clock + Fraction(table.get(instance, 0.0) if table else 0.0)
        elif isinstance(step, SolverStep):
            rec = scenario.runs[(instance, step.algorithm)]
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
        rec = scenario.runs[(instance, algo)]
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
            rec = scenario.runs[(inst, algo)]
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
                    scenario.runs[(i, algo)].value
                    for i in remaining
                    if scenario.runs[(i, algo)].status == "ok"
                    and 0 < scenario.runs[(i, algo)].value <= budget
                }
            )
            if not times and any(
                scenario.runs[(i, algo)].status == "ok" and scenario.runs[(i, algo)].value == 0
                for i in remaining
            ):
                times = [budget]
            for t in times:
                solved = sum(
                    1
                    for i in remaining
                    if scenario.runs[(i, algo)].status == "ok" and scenario.runs[(i, algo)].value <= t
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
            if not (scenario.runs[(i, algo)].status == "ok" and scenario.runs[(i, algo)].value <= t)
        ]
        budget -= t
    return tuple(prefix)


# The CART grower before presorting: one argsort and one cumsum chain per
# node per candidate feature. ``grow_tree`` must reproduce its trees bit for bit.


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
            thr = 0.5 * (xs[pos[j]] + xs[pos[j] + 1])
            best = (float(cost[j]), int(f), thr)
    return best


def oracle_grow_tree(X, y, rng, min_leaf=1, features_per_split=None, n_classes=None) -> Tree:
    """Grow a CART tree to purity (no depth cap).

    ``n_classes`` switches to classification with Gini splits; otherwise
    splits minimize variance. ``features_per_split`` caps how many features
    each node may consider, drawn fresh per node from ``rng``.
    """
    n, d = X.shape
    classify = n_classes is not None
    one_hot_all = np.eye(n_classes, dtype=np.float64)[y] if classify else None
    target_sq = None if classify else y * y

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

    stack = [(np.arange(n), new_node())]
    while stack:
        idx, slot = stack.pop()
        ys = y[idx]
        pure = ys.size < 2 * min_leaf or np.all(ys == ys[0])
        split = None
        if not pure:
            if features_per_split is None or features_per_split >= d:
                feat_order = np.arange(d)
            else:
                feat_order = rng.permutation(d)[:features_per_split]
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
                payload[slot] = float(ys.mean())
            continue
        _, f, thr = split
        feature[slot] = f
        threshold[slot] = thr
        mask = X[idx, f] <= thr
        left[slot] = new_node()
        right[slot] = new_node()
        stack.append((idx[mask], left[slot]))
        stack.append((idx[~mask], right[slot]))

    m = len(feature)
    tree = Tree(
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


def _oracle_forest_predict(forest, X):
    """A forest's prediction as ``np.mean`` over the stacked tree outputs."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if forest.n_classes is None:
        return np.mean([t.predict(X) for t in forest.trees], axis=0)
    dist = np.mean([t.predict(X) for t in forest.trees], axis=0)
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
        for a, b, forest in p["classifiers"]:
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


def oracle_predict(model, scenario, instance):
    """The schedule for one instance, one feature vector and one forest
    query per row at a time: the original per-row prediction path."""
    x = _oracle_transform(model.pre, scenario.features[instance])
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
