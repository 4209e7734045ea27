import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asbench import ParseError, parse_predictions, parse_scenario, sbs, selectors, write_scenario
from asbench.cli import _atomic_write, build_comparison, main
from asbench.evaluation import RULES, MetricScore, ScoreReport
from asbench.scenario_io import read_report_csv, write_report_csv
from asbench.selectors import Hyperparameters

from gen import build_scenario, learnable_scenario, random_scenario
from oracles import oracle_parse_scenario, run_record


@pytest.fixture(scope="module")
def learnable_bundle(tmp_path_factory):
    scen = learnable_scenario(n_train=60, n_test=15, seed=13)
    path = tmp_path_factory.mktemp("scen") / "learnable"
    write_scenario(scen, path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def _array_edit(forests, field, edit):
    """A copy of encoded ``forests`` whose first forest has ``edit`` applied
    to the decoded array of its ``field``, written back through the codec."""
    forests = copy.deepcopy(forests)
    forests[0][field] = selectors._encode(edit(selectors._decode(forests[0][field])))
    return forests


def _root_edit(forests, field, value):
    """A copy of encoded ``forests`` with the first tree's root ``field`` set
    to ``value``: node 0 of the first forest."""
    return _array_edit(forests, field, lambda a: np.concatenate([[value], a[1:]]))


def _block_edit(forests, field, **block):
    """A copy of encoded ``forests`` whose first forest's ``field`` block has
    the entries ``block`` in place of its own."""
    forests = copy.deepcopy(forests)
    forests[0][field] = {**forests[0][field], **block}
    return forests


class TestValidate:
    def test_valid_bundle_exits_zero(self, tutorial_bundle, capsys):
        assert run_cli("validate", "--scenario", tutorial_bundle) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_corrupted_file_exits_two_with_line(self, tutorial_bundle, capsys):
        runs = tutorial_bundle / "runs.csv"
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok", "i1,A1,banana,ok"))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        err = capsys.readouterr().err
        assert "runs.csv:2" in err

    def test_warning_only_exits_zero(self, tutorial_bundle, capsys):
        costs = tutorial_bundle / "feature_costs.csv"
        lines = costs.read_text().splitlines()
        costs.write_text("\n".join(lines[:-1]) + "\n")  # drop one instance row
        assert run_cli("validate", "--scenario", tutorial_bundle) == 0
        out = capsys.readouterr().out
        assert "warning" in out and "missing_cost" in out

    def test_violation_exits_two(self, tutorial_bundle, capsys):
        runs = tutorial_bundle / "runs.csv"
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok", "i1,A1,300000.0,ok"))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert "value_exceeds_cutoff" in capsys.readouterr().out


    def test_description_faults_are_listed_with_the_other_violations(self, tutorial_bundle, capsys):
        desc = tutorial_bundle / "description.txt"
        desc.write_text(desc.read_text().replace("objective: runtime", "objective: runtim"))
        runs = tutorial_bundle / "runs.csv"
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok\n", ""))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        out = capsys.readouterr().out
        assert "bad_objective (tutorial)" in out and "missing_run (i1/A1)" in out
        # an unknown objective is neither runtime nor quality, so no cutoff rule applies
        assert "bad_cutoff" not in out

    def test_repeated_split_instance_exits_two(self, tutorial_bundle, capsys):
        # a test instance listed twice would be scored twice
        splits = tutorial_bundle / "splits.csv"
        lines = splits.read_text().splitlines()
        test_row = next(line for line in lines if ",test," in line)
        splits.write_text("\n".join(lines + [test_row]) + "\n")
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert "duplicate_split_instance (split 0)" in capsys.readouterr().out

    def test_non_finite_run_value_exits_two(self, tutorial_bundle, capsys):
        runs = tutorial_bundle / "runs.csv"
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok", "i1,A1,nan,ok"))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert "non_finite_value (i1/A1)" in capsys.readouterr().out
        # every other command refuses the bundle before computing anything
        assert run_cli("baselines", "--scenario", tutorial_bundle) == 2
        assert "non_finite_value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, code", [(("inf", "-inf"), "non_finite_value"), (("1e308", "1e308"), "value_exceeds_cutoff")]
    )
    def test_repeats_past_fsum_exit_two(self, tutorial_bundle, capsys, values, code):
        # math.fsum fails on both pairs; the collapsed run is validated like any other
        runs = tutorial_bundle / "runs.csv"
        repeats = "\n".join(f"i1,A1,{v},ok" for v in values)
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok", repeats))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert f"{code} (i1/A1)" in capsys.readouterr().out

    def test_non_finite_feature_value_exits_two(self, learnable_bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli("train", "--scenario", learnable_bundle, "--selector", "regression",
                       "--hp", "n_trees=2", "--out", model) == 0
        broken = tmp_path / "broken"
        write_scenario(parse_scenario(learnable_bundle), broken)
        features = broken / "features.csv"
        lines = features.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)
        features.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("validate", "--scenario", broken) == 2
        assert "non_finite_value" in capsys.readouterr().out
        preds = tmp_path / "preds.csv"
        assert run_cli("predict", "--scenario", broken, "--model", model, "--out", preds) == 2
        assert "non_finite_value" in capsys.readouterr().err
        assert not preds.exists()


def _unclosed_quote(lines):
    """Line 3 opens a quote that never closes, and the rows after it make the
    quoted field longer than csv's field limit."""
    return [*lines[:2], lines[2].replace(",", ',"', 1), *lines[3:], *[lines[1]] * 12_000]


def _long_field(lines):
    """Line 3 with a 200,000-character first field."""
    return [*lines[:2], "x" * 200_000 + lines[2][lines[2].index(","):], *lines[3:]]


def _quoted_long_field(lines):
    """Line 3 with a 200,000-character first field, quoted."""
    return [*lines[:2], '"' + "x" * 200_000 + '"' + lines[2][lines[2].index(","):], *lines[3:]]


class TestBrokenText:
    """Broken quoting, a field past csv's limit and an undecodable byte each
    exit 2 with the file and line, in a bundle and in a prediction file."""

    @pytest.mark.parametrize("edit", [_unclosed_quote, _long_field, _quoted_long_field])
    def test_bundle_file(self, tutorial_bundle, capsys, edit):
        runs = tutorial_bundle / "runs.csv"
        runs.write_text("\n".join(edit(runs.read_text().splitlines())) + "\n")
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        limit = csv.field_size_limit()
        assert f"error: runs.csv:3: malformed CSV: field larger than field limit ({limit})" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [_unclosed_quote, _long_field, _quoted_long_field])
    def test_prediction_file(self, learnable_bundle, tmp_path, capsys, edit):
        scen = parse_scenario(learnable_bundle)
        best = sbs(scen, scen.splits[0].train)
        rows = [f"{inst},1,solver,{best},{scen.cutoff}" for inst in scen.splits[0].test]
        pred = tmp_path / "pred.csv"
        pred.write_text("\n".join(edit(["instance_id,step,kind,name,budget", *rows])) + "\n")
        argv = ["evaluate", "--scenario", learnable_bundle, "--predictions", pred, "--system", "s", "--out", tmp_path / "r"]
        assert run_cli(*argv) == 2
        limit = csv.field_size_limit()
        assert f"error: pred.csv:3: malformed CSV: field larger than field limit ({limit})" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line", [("runs.csv", 4), ("description.txt", 2), ("splits.csv", 2)])
    def test_undecodable_byte(self, tutorial_bundle, capsys, name, line):
        path = tutorial_bundle / name
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:3] + b"\xe9" + lines[line - 1][3:]
        path.write_bytes(b"\n".join(lines))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert f"error: {name}:{line}: byte 0xe9 is not UTF-8 text" in capsys.readouterr().err

    def test_undecodable_byte_in_a_prediction_file(self, tutorial_bundle, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_bytes(b"instance_id,step,kind,name,budget\ni1,1,solver,A1,1.0\ni2,1,solver,A\xe9,1.0\n")
        argv = ["evaluate", "--scenario", tutorial_bundle, "--predictions", pred, "--system", "s", "--out", tmp_path / "r"]
        assert run_cli(*argv) == 2
        assert "error: pred.csv:3: byte 0xe9 is not UTF-8 text" in capsys.readouterr().err


def _edit(name, old, new):
    """An edit of one bundle file: ``old`` replaced by ``new`` once."""
    return lambda root: (root / name).write_text((root / name).read_text().replace(old, new, 1))


class TestBundleRejects:
    """Each bundle reject exits ``validate`` with 2 and ``file:line: reason``;
    the CSV ones fail alike in the row parser (``tests/oracles.py``)."""

    GROUPS = "feature_groups: base=base:0,1;probing=probing:2"

    @pytest.mark.parametrize(
        "edit, error",
        [
            (_edit("description.txt", "direction: minimize\n", "direction minimize\n"),
             "description.txt:3: expected 'key: value', got 'direction minimize'"),
            (_edit("description.txt", "cutoff: 5000.0\n", "cutoff: 5000.0\nobjective: quality\n"),
             "description.txt:5: duplicate key 'objective'"),
            (_edit("description.txt", "direction: minimize\n", ""), "description.txt:1: missing key 'direction'"),
            (_edit("description.txt", "cutoff: 5000.0", "cutoff: soon"),
             "description.txt:1: bad cutoff 'soon', expected a number"),
            (_edit("description.txt", GROUPS, "feature_groups: base:0,1;probing=probing:2"),
             "description.txt:1: bad feature group 'base:0,1', expected name=cost_column:indices"),
            (_edit("description.txt", GROUPS, "feature_groups: base=base:0,x;probing=probing:2"),
             "description.txt:1: bad index list '0,x'"),
            (_edit("description.txt", GROUPS, "feature_groups: base=base:0,1;probing=probing:"),
             "description.txt:1: feature group 'probing' has no indices"),
            (_edit("features.csv", "instance_id,", "inst,"), "features.csv:1: first column must be instance_id"),
            (_edit("feature_costs.csv", "instance_id,", "inst,"),
             "feature_costs.csv:1: first column must be instance_id"),
            (_edit("feature_costs.csv", "base,probing", "base,base"), "feature_costs.csv:1: duplicate cost column"),
            (lambda root: (root / "feature_costs.csv").unlink(),
             "feature_costs.csv:0: runtime scenario requires a feature cost table"),
        ],
        ids=["no-colon", "repeated-key", "missing-key", "bad-cutoff", "group-grammar", "index-list", "no-indices",
             "features-first-column", "costs-first-column", "repeated-cost-column", "no-cost-table"],
    )
    def test_exits_two_with_file_and_line(self, tutorial_bundle, capsys, edit, error):
        edit(tutorial_bundle)
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {error}"
        with pytest.raises(ParseError) as exc:
            oracle_parse_scenario(tutorial_bundle)
        assert str(exc.value) == error

    def test_blank_description_lines_are_skipped(self, tutorial, tutorial_bundle, capsys):
        desc = tutorial_bundle / "description.txt"
        desc.write_text("\n" + desc.read_text().replace("\n", "\n  \n", 2))
        assert run_cli("validate", "--scenario", tutorial_bundle) == 0
        assert parse_scenario(tutorial_bundle) == tutorial
        # the blank lines still count: a bad key on the last line names line 10
        desc.write_text(desc.read_text() + "surprise: 1\n")
        assert run_cli("validate", "--scenario", tutorial_bundle) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: description.txt:10: unknown key 'surprise'"

    def test_quality_bundle_without_costs_replaces_a_stale_cost_table(self, tutorial_bundle):
        quality = random_scenario(3, objective="quality")
        quality = replace(quality, feature_groups=tuple(replace(g, cost=None) for g in quality.feature_groups))
        assert (tutorial_bundle / "feature_costs.csv").exists()
        write_scenario(quality, tutorial_bundle)
        assert not (tutorial_bundle / "feature_costs.csv").exists()
        assert parse_scenario(tutorial_bundle) == quality
        assert run_cli("validate", "--scenario", tutorial_bundle) == 0


class TestCommandRejects:
    """Each command reject exits 2 with its message on the last stderr line."""

    def test_file_splits_on_a_bundle_without_splits(self, tutorial_bundle, tmp_path, capsys):
        (tutorial_bundle / "splits.csv").write_text("split_id,mode,role,instance_id\n")
        argv = ["train", "--scenario", tutorial_bundle, "--selector", "cluster", "--out", tmp_path / "m.json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: scenario bundle has no stored splits; use --splits bootstrap:N"
        )

    def test_unknown_split_id(self, tutorial_bundle, tmp_path, capsys):
        argv = ["train", "--scenario", tutorial_bundle, "--selector", "cluster", "--split-id", "7",
                "--out", tmp_path / "m.json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: no split with id 7; have [0, 1]"
        assert not (tmp_path / "m.json").exists()

    def test_repeated_feature_group(self, tutorial_bundle, tmp_path, capsys):
        # the schedule would compute the group once and scoring would charge it twice
        model = tmp_path / "m.json"
        argv = ["train", "--scenario", tutorial_bundle, "--selector", "regression", "--hp", "n_trees=3", "--out", model]
        assert run_cli(*argv, "--feature-groups", "base,base") == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: feature group 'base' named more than once"
        assert not model.exists()
        assert run_cli(*argv, "--feature-groups", "base") == 0
        doc = json.loads(model.read_text())
        model.write_text(json.dumps({**doc, "feature_groups": ["base", "base"]}))
        preds = tmp_path / "p.csv"
        assert run_cli("predict", "--scenario", tutorial_bundle, "--model", model, "--out", preds) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: feature group 'base' named more than once"
        assert not preds.exists()

    def test_icon2015_evaluate_without_a_split_file(self, tutorial_bundle, tmp_path, capsys):
        preds = tmp_path / "preds"
        preds.mkdir()
        (preds / "predictions_split0.csv").write_text(
            "instance_id,step,kind,name,budget\ni4,1,solver,A1,5000.0\ni5,1,solver,A1,5000.0\n"
        )
        argv = ["evaluate", "--scenario", tutorial_bundle, "--mode", "icon2015", "--predictions", preds,
                "--out", tmp_path / "r"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: missing prediction file {preds / 'predictions_split1.csv'}"
        )
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("kind", ["directory", "absent"])
    def test_oasc2017_evaluate_of_no_prediction_file(self, tutorial_bundle, tmp_path, capsys, kind):
        preds = tmp_path / "preds"
        if kind == "directory":
            preds.mkdir()
        argv = ["evaluate", "--scenario", tutorial_bundle, "--predictions", preds, "--out", tmp_path / "r"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: missing prediction file {preds}"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("mode", tuple(RULES))
    def test_evaluate_of_a_prediction_file_that_misses_a_test_instance(self, tutorial_bundle, tmp_path, capsys, mode):
        # split 0 tests i4 and i5, split 1 tests i1 and i2: the one file
        # scored lacks i5, or the directory's file of split 1 lacks i2
        one = RULES[mode]["splits"] == "one"
        preds = tmp_path / "preds"
        preds.mkdir()
        for split_id, insts in ((0, ["i4"] if one else ["i4", "i5"]), (1, ["i1"])):
            rows = "".join(f"{inst},1,solver,A1,5000.0\n" for inst in insts)
            (preds / f"predictions_split{split_id}.csv").write_text("instance_id,step,kind,name,budget\n" + rows)
        taken, split_id, missing = (preds / "predictions_split0.csv", 0, "i5") if one else (preds, 1, "i2")
        argv = ["evaluate", "--scenario", tutorial_bundle, "--mode", mode, "--predictions", taken,
                "--out", tmp_path / "r", "--json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: split {split_id}: missing predictions for test instances ['{missing}']"
        )
        assert not (tmp_path / "r.csv").exists()

    def test_compare_with_every_system_out_of_competition(self, tmp_path, capsys):
        report = tmp_path / "a.csv"
        report.write_text("system,scenario,split,metric,value\nalpha,s1,0,gap_par10,0.1\nbeta,s1,0,gap_par10,0.2\n")
        argv = ["compare", report, "--ooc", "alpha", "--ooc", "beta", "--out", tmp_path / "cmp", "--json"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: every system is out of competition; nothing to rank"
        assert not (tmp_path / "cmp.json").exists()

    def test_seed_study_where_the_single_best_is_the_virtual_best(self, tutorial_bundle, tmp_path, capsys):
        # A1 solves every instance in 1 s, so the SBS is the VBS and no gap is defined
        runs = tutorial_bundle / "runs.csv"
        runs.write_text("\n".join(
            line.split(",")[0] + ",A1,1.0,ok" if ",A1," in line else line for line in runs.read_text().splitlines()
        ) + "\n")
        argv = ["seed-study", "--scenario", tutorial_bundle, "--selector", "cluster", "--hp", "n_trees=2",
                "--hp", "k_clusters=2", "--n-seeds", "2", "--out", tmp_path / "study"]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: gap undefined on this scenario (SBS equals VBS)"
        assert not list(tmp_path.glob("study*"))


class TestAtomicWrite:
    def test_failed_writer_leaves_the_directory_as_it_was(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old\n")

        def broken(tmp):
            tmp.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError):
            _atomic_write(target, broken)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_text() == "old\n"

    def test_temp_names_are_unique_and_mode_is_plain(self, tmp_path):
        plain = tmp_path / "plain"
        open(plain, "w").close()
        used = []

        def writer(tmp):
            used.append(tmp)
            with open(tmp, "w") as fh:
                fh.write("new\n")

        _atomic_write(tmp_path / "out", writer)
        _atomic_write(tmp_path / "out", writer)
        assert used[0] != used[1]
        assert all(p.parent == tmp_path for p in used)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "plain"]
        assert (tmp_path / "out").read_text() == "new\n"
        assert os.stat(tmp_path / "out").st_mode == os.stat(plain).st_mode


class TestBaselines:
    def test_tutorial_row(self, tutorial_bundle, capsys):
        assert run_cli("baselines", "--scenario", tutorial_bundle) == 0
        out = capsys.readouterr().out
        assert "algorithms: 3" in out
        assert "instances: 5" in out
        assert "features: 3" in out
        assert "sbs: A2" in out
        # hand total: SBS capped mean 2225, VBS mean 1124
        assert "improvement_factor: 1.980" in out

    def test_json_output(self, tutorial_bundle, capsys):
        assert run_cli("baselines", "--scenario", tutorial_bundle, "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sbs"] == "A2"
        assert doc["sbs_mean"] == pytest.approx(2225.0)
        assert doc["vbs_mean"] == pytest.approx(1124.0)
        assert doc["improvement_factor"] == pytest.approx(2225.0 / 1124.0)

    @pytest.mark.parametrize(
        "runs, objective, direction",
        [
            ({("i0", "A0"): 0.0, ("i0", "A1"): 5.0, ("i1", "A0"): 3.0, ("i1", "A1"): 0.0}, "runtime", "minimize"),
            ({("i0", "A0"): 2.0, ("i0", "A1"): -1.0, ("i1", "A0"): -2.0, ("i1", "A1"): -1.5}, "quality", "maximize"),
            ({("i0", "A0"): -4.0, ("i0", "A1"): -8.0, ("i1", "A0"): -6.0, ("i1", "A1"): -3.0}, "quality", "maximize"),
            ({("i0", "A0"): -4.0, ("i0", "A1"): -7.0, ("i1", "A0"): -7.0, ("i1", "A1"): -2.0}, "quality", "minimize"),
        ],
        ids=["runtime-vbs-zero", "maximize-sbs-zero", "maximize-negative", "minimize-negative"],
    )
    def test_undefined_factor_prints_undefined(self, tmp_path, capsys, runs, objective, direction):
        bundle = tmp_path / "undefined"
        scen = build_scenario(runs, ["A0", "A1"], ["i0", "i1"], objective=objective, direction=direction)
        write_scenario(scen, bundle)
        assert run_cli("baselines", "--scenario", bundle) == 0
        assert "improvement_factor: undefined" in capsys.readouterr().out.splitlines()
        assert run_cli("baselines", "--scenario", bundle, "--json") == 0
        assert json.loads(capsys.readouterr().out)["improvement_factor"] is None

    def test_internal_failure_exits_one(self, tutorial_bundle, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("baselines broke")

        monkeypatch.setattr("asbench.cli.baseline_means", fail)
        assert run_cli("baselines", "--scenario", tutorial_bundle) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "failure: baselines broke"


class TestTrainPredictEvaluate:
    def test_full_pipeline_and_determinism(self, learnable_bundle, tmp_path, capsys):
        scen = parse_scenario(learnable_bundle)
        outputs = {}
        for tag in ("one", "two"):
            model = tmp_path / f"model_{tag}.json"
            preds = tmp_path / f"preds_{tag}.csv"
            report = tmp_path / f"report_{tag}"
            assert run_cli(
                "train", "--scenario", learnable_bundle, "--selector", "regression",
                "--hp", "n_trees=10", "--seed", "3", "--out", model,
            ) == 0
            assert run_cli(
                "predict", "--scenario", learnable_bundle, "--model", model,
                "--seed", "3", "--out", preds,
            ) == 0
            assert run_cli(
                "evaluate", "--scenario", learnable_bundle, "--predictions", preds,
                "--system", "reg", "--seed", "3", "--out", report, "--json",
            ) == 0
            outputs[tag] = (
                model.read_bytes(),
                preds.read_bytes(),
                report.with_suffix(".csv").read_bytes(),
                report.with_suffix(".json").read_bytes(),
            )
        assert outputs["one"] == outputs["two"]
        schedules = parse_predictions(tmp_path / "preds_one.csv", scen)
        assert set(schedules.instances) == set(scen.splits[0].test)
        summary = json.loads((tmp_path / "report_one.json").read_text())
        assert summary["aggregate_gap"] <= 0.5

    def test_sbs_predictions_score_gap_one(self, learnable_bundle, tmp_path, capsys):
        scen = parse_scenario(learnable_bundle)
        split = scen.splits[0]
        best = sbs(scen, split.train)
        pred = tmp_path / "sbs.csv"
        rows = ["instance_id,step,kind,name,budget"]
        rows += [f"{inst},1,solver,{best},{scen.cutoff}" for inst in split.test]
        pred.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report"
        assert run_cli(
            "evaluate", "--scenario", learnable_bundle, "--predictions", pred,
            "--system", "sbs", "--out", out, "--json",
        ) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["aggregate_gap"] == pytest.approx(1.0)

    @pytest.mark.parametrize("system", ["#x", "", "a\n# b", "a\n\nb"])
    def test_system_name_that_reads_as_a_comment_exits_two(self, learnable_bundle, tmp_path, capsys, system):
        # compare would skip every row of a "#x" report as a comment line, and
        # the "# b" or blank line that a line break in the name starts
        scen = parse_scenario(learnable_bundle)
        pred = tmp_path / "a0.csv"
        rows = ["instance_id,step,kind,name,budget"]
        rows += [f"{inst},1,solver,{scen.algorithms[0]},{scen.cutoff}" for inst in scen.splits[0].test]
        pred.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report"
        assert run_cli(
            "evaluate", "--scenario", learnable_bundle, "--predictions", pred,
            "--system", system, "--out", out,
        ) == 2
        assert "--system" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_oracle_predictions_score_gap_zero(self, learnable_bundle, tmp_path):
        scen = parse_scenario(learnable_bundle)
        split = scen.splits[0]
        rows = ["instance_id,step,kind,name,budget"]
        for inst in split.test:
            best = min(
                scen.algorithms,
                key=lambda a: run_record(scen, inst, a).value
                if run_record(scen, inst, a).status == "ok"
                else 10 * scen.cutoff,
            )
            rows.append(f"{inst},1,solver,{best},{scen.cutoff}")
        pred = tmp_path / "oracle.csv"
        pred.write_text("\n".join(rows) + "\n")
        out = tmp_path / "report"
        assert run_cli(
            "evaluate", "--scenario", learnable_bundle, "--predictions", pred,
            "--system", "oracle", "--out", out, "--json",
        ) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["aggregate_gap"] == 0.0

    def test_icon2015_mode_needs_a_directory(self, learnable_bundle, tmp_path):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        scen = parse_scenario(learnable_bundle)
        best = scen.algorithms[0]
        for split in scen.splits:
            rows = ["instance_id,step,kind,name,budget"]
            rows += [f"{inst},1,solver,{best},{scen.cutoff}" for inst in split.test]
            (pred_dir / f"predictions_split{split.split_id}.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "icon"
        assert run_cli(
            "evaluate", "--scenario", learnable_bundle, "--predictions", pred_dir,
            "--mode", "icon2015", "--system", "a0", "--out", out, "--json",
        ) == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert len(summary["reports"]) == len(scen.splits)
        # handing a single file to the multi-split protocol is an input error
        single = pred_dir / "predictions_split0.csv"
        assert run_cli(
            "evaluate", "--scenario", learnable_bundle, "--predictions", single,
            "--mode", "icon2015", "--system", "a0", "--out", tmp_path / "bad",
        ) == 2

    @pytest.mark.parametrize("mode", tuple(RULES))
    def test_each_mode_takes_the_input_shape_its_rules_name(self, learnable_bundle, tmp_path, capsys, mode):
        scen = parse_scenario(learnable_bundle)
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for split in scen.splits:
            rows = ["instance_id,step,kind,name,budget"]
            rows += [f"{inst},1,solver,{scen.algorithms[0]},{scen.cutoff}" for inst in split.test]
            (pred_dir / f"predictions_split{split.split_id}.csv").write_text("\n".join(rows) + "\n")
        single = pred_dir / "predictions_split0.csv"
        # what the mode takes, how many reports it gives, what it refuses, and why
        expects_dir = f"{mode} evaluation expects --predictions DIR with one file per split"
        taken, n_reports, refused, error = {
            "one": (single, 1, pred_dir, f"missing prediction file {pred_dir}"),
            "all": (pred_dir, len(scen.splits), single, expects_dir),
        }[RULES[mode]["splits"]]
        argv = ["evaluate", "--scenario", learnable_bundle, "--mode", mode, "--system", "a0", "--json"]
        assert run_cli(*argv, "--predictions", taken, "--out", tmp_path / "ok") == 0
        assert len(json.loads((tmp_path / "ok.json").read_text())["reports"]) == n_reports
        capsys.readouterr()
        assert run_cli(*argv, "--predictions", refused, "--out", tmp_path / "bad") == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {error}"
        assert not (tmp_path / "bad.csv").exists()

    def test_anonymize_test_is_no_option(self, learnable_bundle, tmp_path, capsys):
        # selectors read no test row's runs (see test_selectors.py::
        # test_blinding_the_test_rows_changes_no_byte), so there is nothing to blind
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "train", "--scenario", learnable_bundle, "--selector", "cluster",
                "--out", tmp_path / "m.json", "--anonymize-test",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --anonymize-test" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    # a field of the wrong JSON type, named by the message: (field, value)
    WRONG_TYPES = {
        "preprocess-list": ("preprocess", []),
        "presolve-number": ("presolve", 3),
        "algorithms-null": ("algorithms", None),
        "feature-groups-null": ("feature_groups", None),
        "payload-list": ("payload", [1, 2]),
        # values prediction cannot use: a presolve step outside the portfolio
        # or without a finite budget above 0, an SBS outside the portfolio, a
        # hyperparameter of the wrong type (given as an edit of the fitted one)
        "presolve-foreign-algorithm": ("presolve", [["nosuch", 5.0]]),
        "presolve-foreign-negative": ("presolve", [["nosuch", -5.0]]),
        "presolve-negative-budget": ("presolve", [["A0", -5.0]]),
        "presolve-zero-budget": ("presolve", [["A0", 0]]),
        "presolve-infinite-budget": ("presolve", [["A0", math.inf]]),
        "presolve-nan-budget": ("presolve", [["A0", math.nan]]),
        "presolve-string-budget": ("presolve", [["A0", "5.0"]]),
        "sbs-foreign": ("sbs_algorithm", "nosuch"),
        "sunny-k-float": ("hyperparameters", lambda hp: {**hp, "sunny_k": 2.5}),
        "sunny-k-bool": ("hyperparameters", lambda hp: {**hp, "sunny_k": True}),
        "seed-string": ("hyperparameters", lambda hp: {**hp, "seed": "0"}),
        "fraction-bool": ("hyperparameters", lambda hp: {**hp, "presolve_budget_fraction": False}),
    }

    # a cluster payload field missing or not an array: (payload update, field named)
    PAYLOAD_HOLES = {
        "payload-empty": (None, "centroids"),
        "champions-string": ({"champions": "0"}, "champions"),
        "centroids-strings": ({"centroids": [["x"]]}, "centroids"),
        # one champion per cluster, naming no algorithm of the 3
        "champions-negative": (
            {"champions": selectors._encode(np.full(Hyperparameters().k_clusters, -1))}, "champions"
        ),
        "champion-past-portfolio": (
            {"champions": selectors._encode(np.full(Hyperparameters().k_clusters, 7))}, "champions"
        ),
    }

    # a preprocess list one entry shorter than the others: (list shortened)
    SHORT_PREPROCESS = {"short-medians": "medians", "short-kept": "kept"}

    @pytest.mark.parametrize(
        "edit",
        [
            "no-payload", "renamed-portfolio", "no-medians", "version-1", "version-2", "version-3",
            *WRONG_TYPES, *PAYLOAD_HOLES, *SHORT_PREPROCESS,
        ],
    )
    def test_broken_or_foreign_model_exits_two(self, learnable_bundle, tmp_path, capsys, edit):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", learnable_bundle, "--selector", "cluster",
            "--hp", "n_trees=2", "--out", model,
        ) == 0
        doc = json.loads(model.read_text())
        if edit == "no-payload":
            del doc["payload"]
        elif edit == "renamed-portfolio":
            doc["algorithms"] = ["Z0", "Z1", "Z2"]
        elif edit == "no-medians":
            del doc["preprocess"]["medians"]
        elif edit.startswith("version-"):
            doc["version"] = int(edit[-1])
        elif edit in self.PAYLOAD_HOLES:
            update = self.PAYLOAD_HOLES[edit][0]
            doc["payload"] = {**doc["payload"], **update} if update else {}
        elif edit in self.SHORT_PREPROCESS:
            name = self.SHORT_PREPROCESS[edit]
            doc["preprocess"][name] = doc["preprocess"][name][:-1]
        else:
            field, value = self.WRONG_TYPES[edit]
            doc[field] = value(doc[field]) if callable(value) else value
        model.write_text(json.dumps(doc))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert run_cli(
            "predict", "--scenario", learnable_bundle, "--model", model, "--out", preds
        ) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: ")
        if edit.startswith("version-"):
            assert str(model) in error and f"version {edit[-1]}" in error and "retrain" in error
        if edit in self.WRONG_TYPES:
            assert str(model) in error and repr(self.WRONG_TYPES[edit][0]) in error
        if edit in self.PAYLOAD_HOLES:
            assert str(model) in error and repr(self.PAYLOAD_HOLES[edit][1]) in error
        if edit in self.SHORT_PREPROCESS:
            assert str(model) in error and repr("preprocess") in error
        assert not preds.exists()

    # a forest-valued payload field that decodes to something else:
    # (selector, payload update from the fitted payload, field named)
    FOREST_HOLES = {
        "regression-forests-string": ("regression", lambda p: {"forests": "abc"}, "forests"),
        "stacking-combiner-treeless": ("stacking", lambda p: {"combiner": {"n_classes": 3}}, "combiner"),
        "regression-forests-of-no-trees": (
            "regression",
            lambda p: {"forests": [{**f, "roots": selectors._encode(np.zeros(0, np.int64))} for f in p["forests"]]},
            "forests",
        ),
        "pairwise-forest-missing": ("pairwise", lambda p: {"forests": p["forests"][:-1]}, "forests"),
        # roots that do not start at 0, repeat one (an empty tree), name a tree
        # past the last node, or are not integers
        "regression-roots-from-one": (
            "regression",
            lambda p: {"forests": _root_edit(p["forests"], "roots", 1)},
            "forests",
        ),
        "regression-roots-not-rising": (
            "regression",
            lambda p: {"forests": _array_edit(p["forests"], "roots", lambda a: np.concatenate([[0], a]))},
            "forests",
        ),
        "regression-roots-reach-node-count": (
            "regression",
            lambda p: {"forests": _array_edit(
                p["forests"], "roots", lambda a: np.append(a, p["forests"][0]["feature"]["shape"][0])
            )},
            "forests",
        ),
        "regression-float-roots": (
            "regression",
            lambda p: {"forests": _array_edit(p["forests"], "roots", lambda a: a.astype(float))},
            "forests",
        ),
        # indices prediction would follow out of range, or a walk that never ends
        "regression-self-loop": (
            "regression",
            lambda p: {"forests": _root_edit(p["forests"], "left", 0)},
            "forests",
        ),
        "regression-child-past-tree": (
            "regression",
            lambda p: {"forests": _root_edit(p["forests"], "left", 10**6)},
            "forests",
        ),
        "regression-feature-past-columns": (
            "regression",
            lambda p: {"forests": _root_edit(p["forests"], "feature", 99)},
            "forests",
        ),
        "regression-string-thresholds": (
            "regression",
            lambda p: {"forests": _array_edit(p["forests"], "threshold", lambda a: [str(x) for x in a])},
            "forests",
        ),
        "regression-float-feature-ids": (
            "regression",
            lambda p: {"forests": _array_edit(p["forests"], "feature", lambda a: a.astype(float))},
            "forests",
        ),
        # thresholds or leaves that are not floats
        "regression-bool-thresholds": (
            "regression",
            lambda p: {"forests": _array_edit(p["forests"], "threshold", lambda a: a > 0)},
            "forests",
        ),
        "pairwise-integer-leaves": (
            "pairwise",
            lambda p: {"forests": _array_edit(p["forests"], "dist", lambda a: a.astype(np.int64))},
            "forests",
        ),
        "stacking-combiner-reads-past-level-1": (
            "stacking",
            lambda p: {"combiner": _root_edit([p["combiner"]], "feature", 3)[0]},
            "combiner",
        ),
        # array blocks the codec refuses: another dtype, data that does not
        # fill the shape, data that is not base64, a negative shape entry
        "regression-unknown-dtype": (
            "regression",
            lambda p: {"forests": _block_edit(p["forests"], "roots", array="<i4")},
            "forests",
        ),
        "regression-data-short-of-shape": (
            "regression",
            lambda p: {"forests": _block_edit(
                p["forests"], "threshold", data=selectors._encode(np.zeros(1))["data"]
            )},
            "forests",
        ),
        "regression-data-not-base64": (
            "regression",
            lambda p: {"forests": _block_edit(
                p["forests"], "threshold", data="*" + p["forests"][0]["threshold"]["data"][1:]
            )},
            "forests",
        ),
        "regression-negative-shape": (
            "regression",
            lambda p: {"forests": _block_edit(p["forests"], "roots", shape=[-1, -2])},
            "forests",
        ),
    }

    @pytest.mark.parametrize("edit", FOREST_HOLES)
    def test_broken_forest_field_exits_two(self, learnable_bundle, tmp_path, capsys, edit):
        kind, update, field = self.FOREST_HOLES[edit]
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", learnable_bundle, "--selector", kind,
            "--hp", "n_trees=2", "--out", model,
        ) == 0
        doc = json.loads(model.read_text())
        doc["payload"] = {**doc["payload"], **update(doc["payload"])}
        model.write_text(json.dumps(doc))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert run_cli(
            "predict", "--scenario", learnable_bundle, "--model", model, "--out", preds
        ) == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("error: ") and str(model) in error and repr(field) in error
        assert not preds.exists()

    def test_unknown_hyperparameter_exits_two(self, learnable_bundle, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", learnable_bundle, "--selector", "sunny",
            "--hp", "k_neighbors=5", "--out", model,
        ) == 2
        assert "unknown hyperparameter 'k_neighbors'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("pair, kind", [("n_trees=abc", "int"), ("presolve_budget_fraction=x", "float")])
    def test_unparsable_hyperparameter_exits_two(self, learnable_bundle, tmp_path, capsys, pair, kind):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", learnable_bundle, "--selector", "regression",
            "--hp", pair, "--out", model,
        ) == 2
        key, value = pair.split("=")
        assert f"hyperparameter {key!r} expects {kind}, got {value!r}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("features_per_split=0", "features_per_split must be positive"),
            ("n_trees", "expected key=value, got 'n_trees'"),
        ],
    )
    def test_invalid_hyperparameter_exits_two(self, learnable_bundle, tmp_path, capsys, pair, message):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", learnable_bundle, "--selector", "regression",
            "--hp", pair, "--out", model,
        ) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not model.exists()

    def test_hp_seed_overrides_seed_for_the_fit(self, learnable_bundle, tmp_path):
        # the bundle's stored splits are drawn by no seed, so --seed reaches the fit only
        models = {}
        for tag, flags in {"hp": ["--seed", "0", "--hp", "seed=5"], "5": ["--seed", "5"], "0": ["--seed", "0"]}.items():
            models[tag] = tmp_path / f"model_{tag}.json"
            assert run_cli(
                "train", "--scenario", learnable_bundle, "--selector", "regression", "--splits", "file",
                "--hp", "n_trees=3", *flags, "--out", models[tag],
            ) == 0
        assert models["hp"].read_bytes() == models["5"].read_bytes()
        docs = {tag: json.loads(path.read_text()) for tag, path in models.items()}
        assert docs["hp"]["hyperparameters"]["seed"] == 5
        assert docs["hp"]["payload"] != docs["0"]["payload"]  # the seed changes the forest

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bootstrap:x", "bad --splits value 'bootstrap:x'"),
            ("holdout:2:abc", "bad --splits value 'holdout:2:abc'"),
            ("holdout:2:3:4", "bad --splits value 'holdout:2:3:4'"),
            ("bootstrap:0", "n_splits must be at least 1"),
            ("holdout:2:1.5", "test_fraction must be in (0, 1)"),
        ],
    )
    def test_bad_splits_value_exits_two(self, tutorial_bundle, tmp_path, capsys, spec, message):
        model = tmp_path / "model.json"
        assert run_cli(
            "train", "--scenario", tutorial_bundle, "--selector", "regression",
            "--splits", spec, "--out", model,
        ) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not model.exists()

    @pytest.mark.parametrize("spec", ["holdout:1", "bootstrap:1"])
    def test_splits_of_a_one_instance_bundle_exit_two(self, tmp_path, capsys, spec):
        bundle, model = tmp_path / "one", tmp_path / "model.json"
        write_scenario(build_scenario({("only", "A0"): 1.0, ("only", "A1"): 2.0}, ["A0", "A1"], ["only"]), bundle)
        assert run_cli(
            "train", "--scenario", bundle, "--selector", "regression", "--splits", spec, "--out", model,
        ) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: splits need at least 2 instances, the scenario has 1"
        )
        assert not model.exists()

    def test_missing_scenario_exits_two(self, tmp_path):
        assert run_cli("validate", "--scenario", tmp_path / "nope") == 2

    def test_quality_scenario_pipeline(self, tmp_path):
        from gen import random_scenario
        from asbench import write_scenario

        scen = random_scenario(6, n_insts=24, objective="quality")
        bundle = tmp_path / "quality"
        write_scenario(scen, bundle)
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        report = tmp_path / "rep"
        assert run_cli("train", "--scenario", bundle, "--selector", "regression",
                       "--hp", "n_trees=5", "--out", model) == 0
        assert run_cli("predict", "--scenario", bundle, "--model", model, "--out", preds) == 0
        assert run_cli("evaluate", "--scenario", bundle, "--predictions", preds,
                       "--system", "reg", "--out", report, "--json") == 0
        summary = json.loads(report.with_suffix(".json").read_text())
        metrics = summary["reports"][0]["metrics"]
        assert set(metrics) == {"quality"}
        # schedules in the file are bare single solver steps
        lines = preds.read_text().splitlines()[1:]
        assert lines and all(line.split(",")[2] == "solver" for line in lines)

    def test_commands_never_touch_the_bundle(self, learnable_bundle, tmp_path):
        def snapshot():
            return {p.name: p.read_bytes() for p in learnable_bundle.iterdir()}

        before = snapshot()
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        run_cli("baselines", "--scenario", learnable_bundle)
        run_cli("train", "--scenario", learnable_bundle, "--selector", "cluster",
                "--hp", "n_trees=3", "--out", model)
        run_cli("predict", "--scenario", learnable_bundle, "--model", model, "--out", preds)
        run_cli("evaluate", "--scenario", learnable_bundle, "--predictions", preds,
                "--out", tmp_path / "rep")
        assert snapshot() == before


class TestCompare:
    def make_report(self, path, system, gaps):
        rows = ["system,scenario,split,metric,value"]
        for scen, gap in gaps.items():
            rows.append(f"{system},{scen},0,gap_par10,{gap}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_two_identical_systems_tie_without_significance(self, tmp_path, capsys):
        gaps = {"s1": 0.2, "s2": 0.5, "s3": 0.8}
        a = self.make_report(tmp_path / "a.csv", "alpha", gaps)
        b = self.make_report(tmp_path / "b.csv", "beta", gaps)
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--out", out, "--json") == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["avg_rank"]["alpha"] == doc["avg_rank"]["beta"] == 1.5
        assert doc["friedman_statistic"] == pytest.approx(0.0)
        assert doc["meta_vbs"]["mean"] == pytest.approx(0.5)
        assert doc["cd_diagram"]["cliques"] == [["alpha", "beta"]]

    def test_csv_outputs(self, tmp_path):
        a = self.make_report(tmp_path / "a.csv", "alpha", {"s1": 0.1, "s2": 0.3})
        b = self.make_report(tmp_path / "b.csv", "beta", {"s1": 0.4, "s2": 0.2})
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--out", out) == 0
        scores = (tmp_path / "cmp_scores.csv").read_text().splitlines()
        assert scores[0] == "scenario,alpha,beta"
        ranks = (tmp_path / "cmp_ranks.csv").read_text()
        assert "__avg_rank__" in ranks
        assert (tmp_path / "cmp_cd.json").exists()

    @pytest.mark.parametrize("gaps", [{"s1": 0.1}, {"s1": 0.1, "s2": 0.3}], ids=["one-scenario", "two-scenarios"])
    def test_json_adds_a_file_to_the_same_tables(self, tmp_path, gaps):
        a = self.make_report(tmp_path / "a.csv", "alpha", gaps)
        b = self.make_report(tmp_path / "b.csv", "beta", {s: 1.0 - g for s, g in gaps.items()})
        plain, with_json = tmp_path / "plain", tmp_path / "json"
        assert run_cli("compare", a, b, "--out", plain / "cmp") == 0
        assert run_cli("compare", a, b, "--out", with_json / "cmp", "--json") == 0
        tables = {p.name: p.read_bytes() for p in plain.iterdir()}
        assert sorted(tables) == ["cmp_cd.json", "cmp_ranks.csv", "cmp_scores.csv"]
        assert {p.name: p.read_bytes() for p in with_json.iterdir() if p.name != "cmp.json"} == tables
        assert json.loads((with_json / "cmp.json").read_text())["systems"] == ["alpha", "beta"]

    def test_one_scenario_says_why_no_cd_diagram(self, tmp_path):
        a = self.make_report(tmp_path / "a.csv", "alpha", {"s1": 0.1})
        b = self.make_report(tmp_path / "b.csv", "beta", {"s1": 0.4})
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--out", out) == 0
        cd = json.loads((tmp_path / "cmp_cd.json").read_text())
        assert cd["applies"] is False and "rank 2 system(s) on 1 scenario(s)" in cd["reason"]
        # the JSON comparison keeps its null field
        assert run_cli("compare", a, b, "--out", out, "--json") == 0
        assert json.loads(out.with_suffix(".json").read_text())["cd_diagram"] is None

    def test_icon2015_mode_averages_all_metric_gaps(self, tmp_path):
        rows = ["system,scenario,split,metric,value"]
        for split, (g1, g2, g3) in enumerate([(0.1, 0.2, 0.3), (0.3, 0.4, 0.5)]):
            rows.append(f"solo,s1,{split},gap_par10,{g1}")
            rows.append(f"solo,s1,{split},gap_mcp,{g2}")
            rows.append(f"solo,s1,{split},gap_solved,{g3}")
        rows.append("other,s1,0,gap_par10,0.9")
        path = tmp_path / "r.csv"
        path.write_text("\n".join(rows) + "\n")
        doc = build_comparison(read_report_csv(path), mode="icon2015")
        assert doc["avg_gap"]["solo"] == pytest.approx((0.2 + 0.4) / 2)
        assert doc["avg_gap"]["other"] == pytest.approx(0.9)

    @pytest.mark.parametrize(
        "lines, line",
        [
            (["system,scenario,split,metric,value", "beta,s1,0,gap_par10,0.2", "beta,s2,0,gap_par10,inf"], 3),
            (["system,scenario,split,metric,value", "beta,s1,0,gap_par10,0.2", "beta,s2,x,gap_par10,0.5"], 3),
            (["system,scenario,split,metric,value", "", "# note", "beta,s1,0,gap_par10"], 4),
            (["# note", "system,scenario,split,metric,value", "beta,s1,0,gap_par10,0.2"], 1),
        ],
        ids=["inf-gap", "split-x", "four-columns", "comment-before-header"],
    )
    def test_malformed_report_exits_two_with_line(self, tmp_path, capsys, lines, line):
        good = self.make_report(tmp_path / "good.csv", "alpha", {"s1": 0.1, "s2": 0.3})
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cmp"
        assert run_cli("compare", good, bad, "--out", out, "--json") == 2
        assert f"bad.csv:{line}:" in capsys.readouterr().err.splitlines()[-1]
        assert not out.with_suffix(".json").exists()

    def test_ooc_systems_are_not_ranked(self, tmp_path):
        a = self.make_report(tmp_path / "a.csv", "alpha", {"s1": 0.1, "s2": 0.3, "s3": 0.2})
        b = self.make_report(tmp_path / "b.csv", "beta", {"s1": 0.4, "s2": 0.2, "s3": 0.6})
        c = self.make_report(tmp_path / "c.csv", "extra", {"s1": 0.0, "s2": 0.0, "s3": 0.0})
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, c, "--ooc", "extra", "--out", out, "--json") == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert "extra" not in doc["avg_rank"]
        assert "extra" in doc["avg_gap"]
        assert doc["ooc"] == ["extra"]
        # meta-VBS covers competing systems only
        assert doc["meta_vbs"]["mean"] == pytest.approx((0.1 + 0.2 + 0.2) / 3)

    def test_ooc_name_of_no_system_exits_two(self, tmp_path, capsys):
        # a misspelt --ooc would otherwise leave the system in the ranking
        a = self.make_report(tmp_path / "a.csv", "alpha", {"s1": 0.1, "s2": 0.3})
        b = self.make_report(tmp_path / "b.csv", "beta", {"s1": 0.4, "s2": 0.2})
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, "--ooc", "ghost", "--ooc", "beta", "--out", out, "--json") == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: --ooc names no system in the reports: ['ghost']"
        assert not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("gaps", [{"s1": 0.1}, {"s1": 0.1, "s2": 0.3}], ids=["one-scenario", "two-scenarios"])
    def test_untabulated_alpha_exits_two(self, tmp_path, capsys, gaps):
        a = self.make_report(tmp_path / "a.csv", "alpha", gaps)
        b = self.make_report(tmp_path / "b.csv", "beta", gaps)
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", a, b, "--alpha", "0.07", "--out", out, "--json")
        assert exc.value.code == 2
        assert "argument --alpha: invalid choice: 0.07" in capsys.readouterr().err
        assert not out.with_suffix(".json").exists()
        assert run_cli("compare", a, b, "--alpha", "0.10", "--out", out, "--json") == 0
        assert json.loads(out.with_suffix(".json").read_text())["alpha"] == 0.1

    def test_system_whose_every_gap_is_undefined_exits_two(self, tmp_path, capsys):
        # SBS and VBS coincide on s, so x's report holds values and no gap row
        report = tmp_path / "x.csv"
        write_report_csv([ScoreReport("x", "s", 0, "runtime", {"par10": MetricScore(9.0, 9.0, 9.0, None)})], report)
        out = tmp_path / "cmp"
        assert run_cli("compare", report, "--out", out, "--json") == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: no designated gap rows for 'x' on 's'"
        assert not out.with_suffix(".json").exists()

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["csv", "json"])
    def test_repeated_report_rows_exit_two(self, tmp_path, capsys, json_flag):
        # two selectors evaluated under the default --system name would merge into one entry
        a = self.make_report(tmp_path / "a.csv", "system", {"s1": 0.1, "s2": 0.3})
        b = self.make_report(tmp_path / "b.csv", "system", {"s1": 0.9, "s2": 0.7})
        c = self.make_report(tmp_path / "c.csv", "other", {"s1": 0.5, "s2": 0.5})
        out = tmp_path / "cmp"
        assert run_cli("compare", a, b, c, "--out", out, *json_flag) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: report row ('system', 's1', 0, 'gap_par10') appears more than once")
        assert "--system" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "c.csv"]

    @pytest.mark.parametrize("scenarios", [["s1"], ["s1", "s2"]], ids=["one-scenario", "two-scenarios"])
    def test_build_comparison_refuses_an_untabulated_alpha(self, scenarios):
        rows = [(system, scen, 0, "gap_par10", 0.1) for system in ("a", "b") for scen in scenarios]
        with pytest.raises(ValueError, match=r"^alpha must be one of \[0\.05, 0\.1\], got 0\.07$"):
            build_comparison(rows, "oasc2017", alpha=0.07)
        assert build_comparison(rows, "oasc2017", alpha=0.1)["alpha"] == 0.1


class TestOutputPrefix:
    """Each output of a command that takes --out PREFIX is PREFIX plus a
    fixed suffix, so prefixes that differ after a dot never share a file."""

    @pytest.mark.parametrize(
        "command, suffixes",
        [
            ("evaluate", [".csv", ".json"]),
            ("compare", ["_scores.csv", "_ranks.csv", "_cd.json", ".json"]),
            ("seed-study", ["_samples.csv", "_ecdf.csv", ".json"]),
        ],
    )
    def test_dotted_prefixes_keep_their_own_files(self, learnable_bundle, tmp_path, command, suffixes):
        scen = parse_scenario(learnable_bundle)
        split, preds = scen.splits[0], tmp_path / "sbs.csv"
        rows = [f"{inst},1,solver,{sbs(scen, split.train)},{scen.cutoff}" for inst in split.test]
        preds.write_text("\n".join(["instance_id,step,kind,name,budget", *rows]) + "\n")
        reports = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for report, (system, gap) in zip(reports, [("alpha", 0.1), ("beta", 0.4)]):
            report.write_text(f"system,scenario,split,metric,value\n{system},s1,0,gap_par10,{gap}\n"
                              f"{system},s2,0,gap_par10,{1 - gap}\n")
        argv = {
            "evaluate": ["--scenario", learnable_bundle, "--predictions", preds, "--json"],
            "compare": [*reports, "--json"],
            "seed-study": ["--scenario", learnable_bundle, "--selector", "cluster", "--hp", "n_trees=3",
                           "--n-seeds", "2"],
        }[command]
        out = tmp_path / "d"
        assert run_cli(command, *argv, "--out", out / "name.v1") == 0
        v1 = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(v1) == sorted("name.v1" + suffix for suffix in suffixes)
        assert run_cli(command, *argv, "--out", out / "name.v2") == 0
        v2 = sorted(p.name for p in out.iterdir() if p.name not in v1)
        assert v2 == sorted("name.v2" + suffix for suffix in suffixes)
        assert {name: (out / name).read_bytes() for name in v1} == v1


class TestSeedStudy:
    def test_single_seed_quantile_is_one(self, learnable_bundle, tmp_path):
        out = tmp_path / "study"
        assert run_cli(
            "seed-study", "--scenario", learnable_bundle, "--selector", "cluster",
            "--hp", "n_trees=3", "--n-seeds", "1", "--out", out,
        ) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["quantile_of_first_seed"] == 1.0

    def test_deterministic_selector_makes_a_step_ecdf(self, learnable_bundle, tmp_path):
        out = tmp_path / "study"
        assert run_cli(
            "seed-study", "--scenario", learnable_bundle, "--selector", "cluster",
            "--hp", "n_trees=3", "--hp", "k_clusters=1", "--n-seeds", "4", "--out", out,
        ) == 0
        samples = (tmp_path / "study_samples.csv").read_text().splitlines()[1:]
        gaps = {line.split(",")[1] for line in samples}
        assert len(gaps) == 1  # k=1 clustering reduces to the SBS pick, seed-free
        ecdf_rows = (tmp_path / "study_ecdf.csv").read_text().splitlines()[1:]
        fractions = [float(r.split(",")[1]) for r in ecdf_rows]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_prepares_the_training_set_once(self, learnable_bundle, tmp_path, monkeypatch):
        from asbench import cli, selectors

        prepared = []

        def counted(*args, **kwargs):
            prepared.append(selectors.prepare_training(*args, **kwargs))
            return prepared[-1]

        monkeypatch.setattr(cli, "prepare_training", counted)
        assert run_cli(
            "seed-study", "--scenario", learnable_bundle, "--selector", "regression",
            "--hp", "n_trees=3", "--n-seeds", "3", "--out", tmp_path / "study",
        ) == 0
        assert len(prepared) == 1
        assert len((tmp_path / "study_samples.csv").read_text().splitlines()) == 4

    def test_seed_in_hp_exits_two(self, learnable_bundle, tmp_path, capsys):
        assert run_cli(
            "seed-study", "--scenario", learnable_bundle, "--selector", "cluster",
            "--hp", "seed=5", "--n-seeds", "2", "--out", tmp_path / "study",
        ) == 2
        assert "--seed" in capsys.readouterr().err.splitlines()[-1]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n_seeds", ["0", "-3"])
    def test_seed_count_below_one_exits_two(self, learnable_bundle, tmp_path, capsys, n_seeds):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "seed-study", "--scenario", learnable_bundle, "--selector", "cluster",
                "--n-seeds", n_seeds, "--out", tmp_path / "study",
            )
        assert exc.value.code == 2
        assert "--n-seeds" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_console_script_is_installed():
    # the child imports asbench from the path this process was given
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "asbench.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "algorithm selection" in proc.stdout


def test_importing_the_cli_loads_no_scipy_stats():
    # scipy.stats pulls in scipy's optimize, integrate, interpolate, ndimage
    # and fft packages (about 31 MiB of resident memory); only a fresh
    # interpreter can tell, since other tests load it into this one
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import asbench, asbench.cli, sys; "
        "print([m for m in sys.modules if m == 'scipy.stats' or m.startswith('scipy.stats.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
