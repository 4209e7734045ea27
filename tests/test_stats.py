import math

import numpy as np
import pytest

from asbench.stats import (
    cd_diagram_data,
    compare_systems,
    ecdf,
    ecdf_points,
    friedman_test,
    nemenyi_cd,
    rank_table,
    virtual_best_selector,
)

from oracles import (
    oracle_friedman_permutation_p,
    oracle_friedman_statistic,
    oracle_range_quantile,
)

# 2017 quality-scenario row with two exact ties (published per-scenario gaps)
CAMILLA_ROW = [0.025, 0.025, 0.894, 1.475, 3.218, 3.218, 1.974, 2.289]

# 4 rows x 3 systems, one tie; chi-square approximation is close to the
# exact permutation p here, which the oracle test certifies
FRIEDMAN_SCORES = [
    [19.0, 28.0, 23.0],
    [4.0, 2.0, 26.0],
    [12.0, 2.0, 14.0],
    [12.0, 13.0, 13.0],
]


class TestRankTable:
    def test_published_row_with_ties(self):
        ranks = rank_table([CAMILLA_ROW])
        assert ranks[0].tolist() == [1.5, 1.5, 3.0, 4.0, 7.5, 7.5, 5.0, 6.0]

    def test_all_equal_scores(self):
        ranks = rank_table([[3.0] * 5])
        assert ranks[0].tolist() == [3.0] * 5

    def test_rank_sums_are_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            scores = rng.integers(0, 4, size=(6, k)).astype(float)
            ranks = rank_table(scores)
            expected = k * (k + 1) / 2
            assert np.allclose(ranks.sum(axis=1), expected)

    def test_missing_cells_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            rank_table([[1.0, float("nan")]])

    @pytest.mark.parametrize("scores", [[], [[]], [1.0, 2.0]], ids=["empty", "no-columns", "one-dimensional"])
    def test_shapeless_matrix_rejected(self, scores):
        with pytest.raises(ValueError, match="need a nonempty 2-d score matrix"):
            rank_table(scores)


class TestFriedman:
    def test_identical_scores_give_zero_statistic(self):
        ranks = rank_table([[1.0, 1.0, 1.0]] * 4)
        stat, p = friedman_test(ranks)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_matches_hand_formula_to_1e6(self):
        ranks = rank_table(FRIEDMAN_SCORES)
        stat, _ = friedman_test(ranks)
        assert stat == pytest.approx(float(oracle_friedman_statistic(FRIEDMAN_SCORES)), abs=1e-6)
        assert stat == pytest.approx(2.625, abs=1e-9)

    def test_p_value_close_to_exact_permutation_oracle(self):
        ranks = rank_table(FRIEDMAN_SCORES)
        stat, p = friedman_test(ranks)
        exact = oracle_friedman_permutation_p(FRIEDMAN_SCORES, stat)
        assert p == pytest.approx(exact, abs=0.02)

    def test_invariant_under_monotone_transform_per_row(self):
        rng = np.random.default_rng(1)
        scores = rng.random((5, 4))
        stat_a, _ = friedman_test(rank_table(scores))
        warped = np.array([np.exp(3 * row) + i for i, row in enumerate(scores)])
        stat_b, _ = friedman_test(rank_table(warped))
        assert stat_a == pytest.approx(stat_b)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            friedman_test(np.ones((1, 3)))
        with pytest.raises(ValueError):
            friedman_test(np.ones((3, 1)))


class TestNemenyi:
    def test_two_systems_formula(self):
        # k=2: CD = q * sqrt(2*3 / (6N)) = q / sqrt(N)
        for n in (5, 10, 50):
            assert nemenyi_cd(2, n) == pytest.approx(1.96 * math.sqrt(1.0 / n), abs=1e-3)

    @pytest.mark.parametrize("k", [2, 5, 10, 20])
    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    def test_table_against_integral_oracle(self, k, alpha):
        q_table = nemenyi_cd(k, 6, alpha) / math.sqrt(k * (k + 1) / 36.0)
        assert q_table == pytest.approx(oracle_range_quantile(k, alpha), abs=2e-4)

    def test_doubling_rows_shrinks_cd_by_sqrt2(self):
        assert nemenyi_cd(8, 22) == pytest.approx(nemenyi_cd(8, 11) / math.sqrt(2))

    def test_more_rows_means_smaller_cd(self):
        assert nemenyi_cd(8, 10**8) < 2e-3
        assert nemenyi_cd(8, 10**10) < nemenyi_cd(8, 10**8) < nemenyi_cd(8, 10)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            nemenyi_cd(8, 11, alpha=0.01)
        with pytest.raises(ValueError):
            nemenyi_cd(25, 11)
        with pytest.raises(ValueError):
            nemenyi_cd(8, 0)


class TestCompareSystems:
    def test_identical_systems_are_never_significant(self):
        scores = np.tile(np.arange(6.0)[:, None], (1, 2))
        analysis = compare_systems(["a", "b"], scores)
        assert analysis.avg_ranks[0] == analysis.avg_ranks[1]
        assert cd_diagram_data(analysis)["cliques"] == [["a", "b"]]

    def test_cd_diagram_lists_sorted_systems_and_cliques(self):
        scores = np.array(
            [
                [0.1, 0.2, 0.9],
                [0.1, 0.2, 0.8],
                [0.2, 0.3, 0.9],
                [0.1, 0.25, 0.7],
            ]
        )
        analysis = compare_systems(["good", "mid", "bad"], scores)
        doc = cd_diagram_data(analysis)
        names = [s["name"] for s in doc["systems"]]
        assert names == ["good", "mid", "bad"]
        ranks = [s["avg_rank"] for s in doc["systems"]]
        assert ranks == sorted(ranks)
        for clique in doc["cliques"]:
            assert len(clique) >= 2


class TestEcdf:
    def test_query_below_minimum(self):
        assert ecdf([1.0, 2.0, 3.0], 0.5) == 0.0

    def test_query_at_maximum(self):
        samples = np.random.default_rng(3).random(101)
        assert ecdf(samples, samples.max()) == 1.0

    def test_median_sits_near_half(self):
        samples = np.arange(1, 102, dtype=float)
        assert ecdf(samples, float(np.median(samples))) == pytest.approx(0.5, abs=1.0 / 101)

    def test_lucky_seed_mechanics(self):
        # 1500 seeds, exactly 7 at or below the query score
        rng = np.random.default_rng(4)
        samples = np.concatenate([np.full(7, 0.02), 0.5 + 0.4 * rng.random(1493)])
        quantile = ecdf(samples, 0.025)
        assert quantile == pytest.approx(7 / 1500)
        assert quantile == pytest.approx(0.00467, abs=1e-3)

    def test_points_are_a_nondecreasing_cdf(self):
        samples = np.random.default_rng(5).random(50)
        points = ecdf_points(samples)
        xs = [x for x, _ in points]
        fs = [f for _, f in points]
        assert xs == sorted(xs)
        assert fs == sorted(fs)
        assert fs[-1] == 1.0
        assert all(0 < f <= 1 for f in fs)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ecdf([], 1.0)
        with pytest.raises(ValueError, match="empty sample"):
            ecdf_points([])


class TestVirtualBestSelector:
    def test_single_system_is_its_own_mean(self):
        mins, mean = virtual_best_selector([[0.2], [0.4]])
        assert mins.tolist() == [0.2, 0.4]
        assert mean == pytest.approx(0.3)

    def test_dominates_every_system(self):
        rng = np.random.default_rng(6)
        scores = rng.random((9, 4))
        _, mean = virtual_best_selector(scores)
        assert (mean <= scores.mean(axis=0) + 1e-12).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            virtual_best_selector(np.zeros((0, 2)))
