"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from scratch against the documented
semantics, with exact Fraction arithmetic where it matters, and never calls
into the code paths it verifies.
"""

from __future__ import annotations

from fractions import Fraction

from asbench.evaluation import FeatureStep, SolverStep


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
