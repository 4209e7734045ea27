import math

import numpy as np
import pytest

from asbench import (
    MetricScore,
    Schedules,
    ScoreReport,
    aggregate,
    score_system,
    simulate,
    vbs_cost,
)
from asbench.evaluation import FeatureStep, SolverStep
from asbench.scenario import Split
from asbench.scenario_io import read_report_csv, write_report_csv

from gen import build_scenario, random_scenario, random_schedule
from oracles import feature_vectors, oracle_simulate, records, run_record


def three_step_fixture():
    runs = {
        ("i0", "A1"): 2500.0,
        ("i0", "A2"): 1000.0,
        ("i0", "A3"): 300.0,
    }
    from asbench import FeatureGroup

    return build_scenario(
        runs,
        ["A1", "A2", "A3"],
        ["i0"],
        cutoff=5000.0,
        features={"i0": (1.0,)},
        groups=(FeatureGroup("g1", (0,), cost={"i0": 100.0}),),
    )


class TestSimulate:
    def test_single_step_solves(self, tutorial):
        out = simulate(tutorial, "i1", (SolverStep(algorithm="A1", budget=5000.0),))
        assert out.solved[0] and out.time_used[0] == 300.0 and out.solving_step[0] == 1

    def test_interleaved_walk(self):
        scen = three_step_fixture()
        schedule = (
            FeatureStep(group="g1"),
            SolverStep(algorithm="A1", budget=2000.0),
            SolverStep(algorithm="A2", budget=2900.0),
        )
        out = simulate(scen, "i0", schedule)
        assert out.solved[0]
        assert out.time_used[0] == pytest.approx(100.0 + 2000.0 + 1000.0)
        assert out.solving_step[0] == 3

    def test_every_step_fails(self, tutorial):
        schedule = (
            SolverStep(algorithm="A1", budget=2500.0),
            SolverStep(algorithm="A2", budget=2500.0),
        )
        out = simulate(tutorial, "i5", schedule)
        assert not out.solved[0]
        assert out.time_used[0] == 5000.0

    def test_crashed_run_returns_unused_slice(self, tutorial):
        # i2/A3 dies of memout after 900s; A2 then still has time to finish
        schedule = (
            SolverStep(algorithm="A3", budget=4990.0),
            SolverStep(algorithm="A2", budget=4990.0),
        )
        out = simulate(tutorial, "i2", schedule)
        assert out.solved[0]
        assert out.time_used[0] == pytest.approx(900.0 + 80.0)

    def test_feature_cost_can_exhaust_the_cutoff(self):
        from asbench import FeatureGroup

        scen = build_scenario(
            {("i0", "A0"): 1.0},
            ["A0"],
            ["i0"],
            cutoff=50.0,
            features={"i0": (1.0,)},
            groups=(FeatureGroup("g", (0,), cost={"i0": 60.0}),),
        )
        out = simulate(scen, "i0", (FeatureStep(group="g"), SolverStep(algorithm="A0", budget=50.0)))
        assert not out.solved[0]
        assert out.time_used[0] == 50.0

    def test_quality_returns_recorded_value(self):
        scen = random_scenario(2, objective="quality")
        inst = scen.instances[0]
        algo = scen.algorithms[0]
        out = simulate(scen, inst, (SolverStep(algorithm=algo, budget=0.0),))
        assert out.achieved_value[0] == run_record(scen, inst, algo).value

    def test_schedule_validation(self, tutorial):
        with pytest.raises(ValueError, match="unknown algorithm"):
            simulate(tutorial, "i1", (SolverStep(algorithm="Z", budget=10.0),))
        with pytest.raises(ValueError, match="twice"):
            simulate(
                tutorial,
                "i1",
                (FeatureStep(group="base"), FeatureStep(group="base"), SolverStep("A1", 10.0)),
            )
        with pytest.raises(ValueError, match="positive"):
            Schedules.from_steps(tutorial, [("i1", (SolverStep(algorithm="A1", budget=0.0),))])

    def test_matches_exact_oracle_on_random_draws(self):
        rng = np.random.default_rng(42)
        for seed in range(60):
            scen = random_scenario(seed)
            for _ in range(5):
                inst = scen.instances[int(rng.integers(0, len(scen.instances)))]
                schedule = random_schedule(rng, scen)
                got = simulate(scen, inst, schedule)
                solved, time_used = oracle_simulate(scen, inst, schedule)
                assert got.solved[0] == solved
                assert got.time_used[0] == pytest.approx(time_used, abs=1e-9)

    def test_outcome_invariants_hold_on_random_draws(self):
        # solved runs end at or before the cutoff; unsolved ones sit on it
        rng = np.random.default_rng(7)
        for seed in range(30):
            scen = random_scenario(seed)
            for _ in range(4):
                inst = scen.instances[int(rng.integers(0, len(scen.instances)))]
                out = simulate(scen, inst, random_schedule(rng, scen))
                if out.solved[0]:
                    assert out.time_used[0] <= scen.cutoff
                    assert out.solving_step[0] > 0
                else:
                    assert out.time_used[0] == scen.cutoff
                    assert out.solving_step[0] == 0


class TestPar10:
    def test_solved(self):
        out = simulate_outcome(True, 3000.0, 5000.0)
        assert out.par10[0] == 3000.0

    @pytest.mark.parametrize("cutoff", [1.0, 1200.0, 5000.0])
    def test_unsolved_is_ten_times_cutoff(self, cutoff):
        out = simulate_outcome(False, cutoff, cutoff)
        assert out.par10[0] == 10.0 * cutoff

    def test_quality_outcome_has_none(self):
        scen = random_scenario(1, objective="quality")
        out = simulate(scen, scen.instances[0], (SolverStep(scen.algorithms[0], 0.0),))
        assert np.isnan(out.par10[0])


def simulate_outcome(solved, time_used, cutoff):
    """The one-row replay of a single full-cutoff run that ends at
    ``time_used``, ok or timed out."""
    scen = build_scenario({("i0", "A0"): (time_used, "ok" if solved else "timeout")}, ["A0"], ["i0"], cutoff=cutoff)
    out = simulate(scen, "i0", (SolverStep(algorithm="A0", budget=cutoff),))
    assert (out.solved[0], out.time_used[0]) == (solved, time_used)
    return out


class TestMcp:
    def test_hand_walked_example(self):
        scen = three_step_fixture()
        out = simulate(
            scen,
            "i0",
            (
                FeatureStep(group="g1"),
                SolverStep(algorithm="A1", budget=2000.0),
                SolverStep(algorithm="A2", budget=2900.0),
            ),
        )
        assert out.mcp[0] == pytest.approx(3100.0 - 300.0)

    def test_picking_the_best_costs_nothing(self):
        scen = three_step_fixture()
        out = simulate(scen, "i0", (SolverStep(algorithm="A3", budget=5000.0),))
        assert out.mcp[0] == 0.0

    def test_unsolved_contributes_cutoff_not_penalty(self):
        scen = build_scenario(
            {("i0", "A0"): 10.0, ("i0", "A1"): (5000.0, "timeout")},
            ["A0", "A1"],
            ["i0"],
            cutoff=5000.0,
        )
        out = simulate(scen, "i0", (SolverStep(algorithm="A1", budget=5000.0),))
        assert out.mcp[0] == pytest.approx(4990.0)

    def test_empty_schedule_costs_the_cutoff_over_the_best(self):
        out = simulate(three_step_fixture(), "i0", ())
        assert out.mcp[0] == 5000.0 - 300.0

    def test_quality_scenario_has_none(self):
        scen = random_scenario(1, objective="quality")
        out = simulate(scen, scen.instances[0], (SolverStep(scen.algorithms[0], 0.0),))
        assert np.isnan(out.mcp[0])

    def test_cap_holds_a_clock_that_rounds_past_the_cutoff(self):
        from asbench import FeatureGroup

        # after the feature step, cutoff - cost = 3 - 2**-52 rounds to 3.0, so
        # A's 3.0 s run fits its slice; t + 3.0 then rounds to one ulp past the
        # cutoff, and the cap holds the MCP at cutoff - 3.0, not 2**-50
        cutoff = math.nextafter(3.0, 4.0)
        scen = build_scenario(
            {("i0", "A"): 3.0},
            ["A"],
            ["i0"],
            cutoff=cutoff,
            groups=(FeatureGroup("g", (0,), cost={"i0": float.fromhex("0x1.8p-51")}),),
        )
        out = simulate(scen, "i0", (FeatureStep(group="g"), SolverStep(algorithm="A", budget=cutoff)))
        assert out.solved[0]
        assert out.time_used[0] == float.fromhex("0x1.8000000000002p+1") == math.nextafter(cutoff, 4.0)
        assert out.mcp[0] == cutoff - 3.0 == 2.0**-51


def scoring_fixture():
    runs = {
        ("p", "A"): 10.0,
        ("p", "B"): 40.0,
        ("q", "A"): (100.0, "timeout"),
        ("q", "B"): 20.0,
        ("r", "A"): 30.0,
        ("r", "B"): (5.0, "crash"),
        ("s", "A"): (100.0, "timeout"),
        ("s", "B"): (100.0, "timeout"),
    }
    from asbench import FeatureGroup

    instances = ("p", "q", "r", "s")
    scen = build_scenario(
        runs,
        ["A", "B"],
        instances,
        cutoff=100.0,
        features={i: (float(k),) for k, i in enumerate(instances)},
        groups=(FeatureGroup("all", (0,), cost={i: 2.0 for i in instances}),),
        splits=(Split(split_id=0, train=instances, test=instances),),
    )
    return scen


class TestScoreSystem:
    def test_hand_computed_gaps(self):
        scen = scoring_fixture()
        split = scen.splits[0]
        schedules = {
            i: (FeatureStep(group="all"), SolverStep(algorithm="B", budget=100.0))
            for i in split.test
        }
        report = score_system(scen, split, Schedules.from_steps(scen, schedules.items()), system="always-B")
        par = report.metrics["par10"]
        assert par.value == pytest.approx((42 + 22 + 1000 + 1000) / 4)
        assert par.sbs == pytest.approx((10 + 1000 + 30 + 1000) / 4)
        assert par.vbs == pytest.approx((10 + 20 + 30 + 1000) / 4)
        assert par.gap == pytest.approx((516 - 265) / (510 - 265))
        pen = report.metrics["mcp"]
        assert pen.value == pytest.approx(26.0)
        assert pen.sbs == pytest.approx(20.0)
        assert pen.vbs == 0.0
        assert pen.gap == pytest.approx(1.3)
        sol = report.metrics["solved"]
        assert sol.value == 0.5
        assert sol.sbs == 0.5
        assert sol.vbs == 0.75
        assert sol.gap == pytest.approx(1.0)

    def test_sbs_schedule_scores_gap_one_exactly(self):
        for seed in range(10):
            scen = random_scenario(seed)
            split = scen.splits[0]
            from asbench import sbs

            best = sbs(scen, split.train)
            schedules = {i: (SolverStep(algorithm=best, budget=scen.cutoff),) for i in split.test}
            report = score_system(scen, split, Schedules.from_steps(scen, schedules.items()))
            for name, metric in report.metrics.items():
                if metric.gap is not None:
                    assert metric.gap == 1.0, name

    def test_oracle_schedule_scores_gap_zero_exactly(self):
        defined = 0
        for seed in range(10):
            scen = random_scenario(seed)
            split = scen.splits[0]
            schedules = {}
            for i in split.test:
                best = min(
                    scen.algorithms,
                    key=lambda a: (
                        run_record(scen, i, a).value
                        if run_record(scen, i, a).status == "ok" and run_record(scen, i, a).value <= scen.cutoff
                        else 10 * scen.cutoff
                    ),
                )
                schedules[i] = (SolverStep(algorithm=best, budget=scen.cutoff),)
            report = score_system(scen, split, Schedules.from_steps(scen, schedules.items()))
            gap = report.metrics["par10"].gap
            if gap is not None:  # None means SBS == VBS on this draw
                assert gap == 0.0
                defined += 1
        assert defined >= 5

    def test_missing_prediction_is_an_error(self, tutorial):
        split = tutorial.splits[0]
        with pytest.raises(ValueError, match="missing predictions"):
            score_system(tutorial, split, Schedules.from_steps(tutorial, []))

    def test_degenerate_gap_is_undefined_not_poisoned(self):
        runs = {("i0", "A"): 10.0, ("i1", "A"): 20.0}
        scen = build_scenario(
            runs,
            ["A"],
            ["i0", "i1"],
            cutoff=100.0,
            splits=(Split(split_id=0, train=("i0",), test=("i1",)),),
        )
        schedules = {"i1": (SolverStep(algorithm="A", budget=100.0),)}
        report = score_system(scen, scen.splits[0], Schedules.from_steps(scen, schedules.items()))
        assert report.metrics["par10"].gap is None
        assert "par10" in report.undefined_gaps

    def test_quality_maximize_gap_uses_negated_costs(self):
        runs = {
            ("i0", "A"): 0.5,
            ("i0", "B"): 0.9,
            ("i1", "A"): 0.6,
            ("i1", "B"): 0.4,
        }
        scen = build_scenario(
            runs,
            ["A", "B"],
            ["i0", "i1"],
            objective="quality",
            direction="maximize",
            splits=(Split(split_id=0, train=("i0", "i1"), test=("i0", "i1")),),
        )
        # SBS: A has mean 0.55 vs B 0.65 -> SBS is B; VBS mean is (0.9 + 0.6) / 2
        schedules = {
            "i0": (SolverStep(algorithm="A", budget=0.0),),
            "i1": (SolverStep(algorithm="A", budget=0.0),),
        }
        report = score_system(scen, scen.splits[0], Schedules.from_steps(scen, schedules.items()))
        q = report.metrics["quality"]
        assert q.value == pytest.approx(0.55)
        assert q.sbs == pytest.approx(0.65)
        assert q.vbs == pytest.approx(0.75)
        assert q.gap == pytest.approx((-0.55 + 0.75) / (-0.65 + 0.75))

    def test_gap_invariant_under_common_rescaling(self):
        scen = scoring_fixture()
        factor = 7.0
        scaled = build_scenario(
            {pair: (rec.value * factor, rec.status) for pair, rec in records(scen).items()},
            scen.algorithms,
            scen.instances,
            cutoff=scen.cutoff * factor,
            features=feature_vectors(scen),
            groups=tuple(
                type(g)(g.name, g.feature_indices, {i: c * factor for i, c in g.cost.items()})
                for g in scen.feature_groups
            ),
            splits=scen.splits,
        )
        schedules = {
            i: (FeatureStep(group="all"), SolverStep(algorithm="B", budget=100.0))
            for i in scen.splits[0].test
        }
        scaled_schedules = {
            i: (FeatureStep(group="all"), SolverStep(algorithm="B", budget=100.0 * factor))
            for i in scen.splits[0].test
        }
        a = score_system(scen, scen.splits[0], Schedules.from_steps(scen, schedules.items()))
        b = score_system(scaled, scaled.splits[0], Schedules.from_steps(scaled, scaled_schedules.items()))
        for name in a.metrics:
            assert a.metrics[name].gap == pytest.approx(b.metrics[name].gap)

    def test_extending_a_failing_schedule_never_hurts(self):
        rng = np.random.default_rng(0)
        checked = 0
        for seed in range(40):
            scen = random_scenario(seed)
            inst = scen.instances[0]
            schedule = random_schedule(rng, scen)
            base = simulate(scen, inst, schedule)
            if base.solved[0]:
                continue
            for algo in scen.algorithms:
                extended = schedule + (SolverStep(algorithm=algo, budget=scen.cutoff),)
                after = simulate(scen, inst, extended)
                assert after.par10[0] <= base.par10[0]
                checked += 1
        assert checked > 20

    def test_stored_gap_equals_its_own_normalization(self):
        # every reported gap must be recomputable, bit for bit, from the
        # stored system/SBS/VBS references
        rng = np.random.default_rng(9)
        for seed in range(12):
            for objective in ("runtime", "quality"):
                scen = random_scenario(seed, objective=objective)
                split = scen.splits[0]
                algo = scen.algorithms[int(rng.integers(0, len(scen.algorithms)))]
                budget = scen.cutoff if objective == "runtime" else 0.0
                schedules = {i: (SolverStep(algorithm=algo, budget=budget),) for i in split.test}
                report = score_system(scen, split, Schedules.from_steps(scen, schedules.items()))
                sign = -1.0 if scen.direction == "maximize" else 1.0
                for name, m in report.metrics.items():
                    if m.gap is None:
                        continue
                    if name == "solved":
                        expected = ((1.0 - m.value) - (1.0 - m.vbs)) / ((1.0 - m.sbs) - (1.0 - m.vbs))
                    elif name == "quality":
                        expected = (sign * m.value - sign * m.vbs) / (sign * m.sbs - sign * m.vbs)
                    else:
                        expected = (m.value - m.vbs) / (m.sbs - m.vbs)
                    assert m.gap == expected, name

    def test_gap_preserves_cost_order(self):
        # the gap transform is affine with a positive denominator, so a
        # system with a lower mean cost never gets a larger gap
        for seed in range(15):
            scen = random_scenario(seed)
            split = scen.splits[0]
            reports = []
            for algo in scen.algorithms:
                schedules = {i: (SolverStep(algorithm=algo, budget=scen.cutoff),) for i in split.test}
                reports.append(score_system(scen, split, Schedules.from_steps(scen, schedules.items()), system=algo))
            for name in ("par10", "mcp"):
                pairs = [
                    (r.metrics[name].value, r.metrics[name].gap)
                    for r in reports
                    if r.metrics[name].gap is not None
                ]
                pairs.sort()
                gaps = [g for _, g in pairs]
                assert gaps == sorted(gaps)

    def test_simulated_par10_dominates_vbs(self):
        rng = np.random.default_rng(1)
        for seed in range(50):
            scen = random_scenario(seed)
            for _ in range(3):
                inst = scen.instances[int(rng.integers(0, len(scen.instances)))]
                out = simulate(scen, inst, random_schedule(rng, scen))
                assert out.par10[0] >= vbs_cost(scen, inst) - 1e-9


def gap_report(scenario_id, gap, split=0, metric="par10"):
    return ScoreReport(
        system="sys",
        scenario_id=scenario_id,
        split_id=split,
        objective="runtime" if metric == "par10" else "quality",
        metrics={metric: MetricScore(value=0.0, sbs=1.0, vbs=0.0, gap=gap)},
    )


def value_report(scenario_id, value):
    return ScoreReport(
        system="sys",
        scenario_id=scenario_id,
        split_id=0,
        objective="runtime",
        metrics={"par10": MetricScore(value=value, sbs=0.0, vbs=0.0, gap=None)},
    )


class TestAggregate:
    def test_published_2017_winner_column(self):
        gaps = [0.239, 0.025, 0.412, 0.492, 0.495, 0.167, 0.950, 0.302, 0.650, 0.324, 0.154]
        reports = [gap_report(f"scen{k}", g) for k, g in enumerate(gaps)]
        assert aggregate(reports, mode="oasc2017") == pytest.approx(0.383, abs=5e-4)

    def test_published_2015_par10_column(self):
        values = [537, 6582, 3524, 2599, 5324, 9339, 17436, 13418, 9495, 964, 4370, 2754, 3139]
        reports = [value_report(f"scen{k}", float(v)) for k, v in enumerate(values)]
        assert aggregate(reports, mode="oasc2017", use="value") == pytest.approx(6114, abs=1)

    def test_identical_reports_average_to_themselves(self):
        reports = [gap_report("s", 0.4, split=k) for k in range(10)]
        assert aggregate(reports) == pytest.approx(0.4)

    def test_metric_then_split_order_equals_flat_mean(self):
        # unweighted means commute, so both averaging orders coincide
        rng = np.random.default_rng(3)
        reports = []
        flat = []
        for split in range(4):
            gaps = rng.random(3)
            flat.extend(gaps.tolist())
            reports.append(
                ScoreReport(
                    system="sys",
                    scenario_id="s",
                    split_id=split,
                    objective="runtime",
                    metrics={
                        name: MetricScore(0.0, 1.0, 0.0, g)
                        for name, g in zip(("par10", "mcp", "solved"), gaps)
                    },
                )
            )
        assert aggregate(reports, mode="icon2015") == pytest.approx(float(np.mean(flat)))

    def test_undefined_gaps_are_excluded(self):
        reports = [gap_report("a", 0.5), gap_report("b", None)]
        assert aggregate(reports) == pytest.approx(0.5)

    def test_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_every_gap_undefined(self):
        with pytest.raises(ValueError, match="every gap was undefined"):
            aggregate([gap_report("a", None), gap_report("b", None, split=1)])


class TestReportCsv:
    def test_round_trip_with_footer(self, tmp_path):
        scen = scoring_fixture()
        split = scen.splits[0]
        schedules = {i: (SolverStep(algorithm="A", budget=100.0),) for i in split.test}
        report = score_system(scen, split, Schedules.from_steps(scen, schedules.items()), system="always-A")
        path = tmp_path / "report.csv"
        write_report_csv([report], path)
        rows = read_report_csv(path)
        by_metric = {(r[3]): r[4] for r in rows}
        assert by_metric["par10"] == pytest.approx(report.metrics["par10"].value)
        assert by_metric["gap_par10"] == pytest.approx(report.metrics["par10"].gap)
        text = path.read_text()
        assert text.splitlines()[0] == "system,scenario,split,metric,value"

    def test_undefined_gap_lands_in_footer(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv([gap_report("z", None)], path)
        text = path.read_text()
        assert "# undefined_gap: sys,z,0,par10" in text
        rows = read_report_csv(path)
        assert [r[3] for r in rows] == ["par10"]
