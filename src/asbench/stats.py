"""Multi-system comparison: average ranks, the Friedman test with the
Nemenyi post-hoc critical distance, empirical CDFs for seed-robustness
studies, and the virtual best selector over a set of systems."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import chdtrc

# Critical values q_alpha(k) for the Nemenyi test: studentized range
# quantiles at infinite degrees of freedom divided by sqrt(2), k = 2..20.
# Regenerate with:
#   from scipy.stats import studentized_range
#   studentized_range.ppf(1 - alpha, k, 1e8) / sqrt(2)
_Q_CRIT = {
    0.05: (
        1.9600, 2.3437, 2.5690, 2.7278, 2.8497, 2.9483, 3.0309, 3.1017, 3.1637,
        3.2187, 3.2680, 3.3127, 3.3536, 3.3912, 3.4260, 3.4584, 3.4887, 3.5171,
        3.5438,
    ),
    0.10: (
        1.6449, 2.0523, 2.2913, 2.4595, 2.5885, 2.6927, 2.7799, 2.8546, 2.9199,
        2.9778, 3.0297, 3.0767, 3.1197, 3.1592, 3.1957, 3.2297, 3.2615, 3.2912,
        3.3192,
    ),
}


def rank_table(scores) -> np.ndarray:
    """Per-row ranks of a (rows x systems) score matrix, ties averaged.

    Rank 1 is the best system in a row: the lowest score, as for gaps and
    runtimes. A score's rank is the count of lower scores in its row plus
    (the count of equal scores, itself included, + 1) / 2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError("need a nonempty 2-d score matrix")
    if np.isnan(scores).any():
        raise ValueError("score matrix has missing cells")
    lower = (scores[:, None, :] < scores[:, :, None]).sum(axis=2)
    equal = (scores[:, None, :] == scores[:, :, None]).sum(axis=2)
    return lower + (equal + 1) / 2.0


def friedman_test(ranks) -> tuple[float, float]:
    """Friedman chi-square statistic and p-value from a rank matrix.

    Uses tie-averaged ranks directly:
    chi2 = 12N / (k (k+1)) * (sum_j Rbar_j^2 - k (k+1)^2 / 4).
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    n, k = ranks.shape
    if k < 2 or n < 2:
        raise ValueError("the Friedman test needs at least 2 systems and 2 rows")
    rbar = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * (float((rbar**2).sum()) - k * (k + 1) ** 2 / 4.0)
    stat = max(stat, 0.0)  # guard float dust when all ranks tie
    p = float(chdtrc(k - 1, stat))  # the chi-square survival function
    return float(stat), p


def check_alpha(alpha: float) -> None:
    """Refuse a significance level with no tabulated critical values."""
    if alpha not in _Q_CRIT:
        raise ValueError(f"alpha must be one of {sorted(_Q_CRIT)}, got {alpha}")


def nemenyi_cd(k: int, n: int, alpha: float = 0.05) -> float:
    """Critical distance between average ranks: q_alpha(k) sqrt(k(k+1)/(6N))."""
    check_alpha(alpha)
    if not 2 <= k <= 20:
        raise ValueError(f"tabulated critical values cover 2..20 systems, got {k}")
    if n < 1:
        raise ValueError("need at least one row")
    return _Q_CRIT[alpha][k - 2] * math.sqrt(k * (k + 1) / (6.0 * n))


def cd_diagram_data(systems, avg_ranks, critical_distance: float) -> dict:
    """The systems sorted by average rank, and the cliques of a
    critical-distance diagram, as plain data.

    Cliques are the maximal runs of rank-sorted systems whose average ranks
    span at most the critical distance (the "thick lines" in such plots).
    """
    avg_ranks = np.asarray(avg_ranks, dtype=np.float64)
    order = np.argsort(avg_ranks, kind="stable")
    sorted_sys = [systems[i] for i in order]
    sorted_rank = avg_ranks[order]
    cliques = []
    for i in range(len(order)):
        j = i
        while j + 1 < len(order) and sorted_rank[j + 1] - sorted_rank[i] <= critical_distance:
            j += 1
        if j > i:
            cliques.append((i, j))
    maximal = [c for c in cliques if not any(o[0] <= c[0] and c[1] <= o[1] and o != c for o in cliques)]
    return {
        "systems": [{"name": s, "avg_rank": float(r)} for s, r in zip(sorted_sys, sorted_rank)],
        "cliques": [[sorted_sys[i] for i in range(a, b + 1)] for a, b in maximal],
    }


def ecdf(samples, query: float) -> float:
    """Empirical CDF of ``samples`` at ``query``: the fraction <= query."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample")
    return float(np.count_nonzero(samples <= query)) / samples.size


def ecdf_points(samples) -> list[tuple[float, float]]:
    """Sorted (x, F(x)) support points for plotting the step function."""
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    n = samples.size
    if n == 0:
        raise ValueError("empty sample")
    return [(float(x), (i + 1) / n) for i, x in enumerate(samples)]


def virtual_best_selector(scores) -> tuple[np.ndarray, float]:
    """Per-row minimum of a (rows x systems) score matrix and its mean:
    what a perfect per-scenario choice among the systems would score."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty score matrix")
    mins = scores.min(axis=1)
    return mins, float(mins.mean())
