import csv
import filecmp
import gc
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asbench import (
    ParseError,
    ViolationsError,
    deobfuscate,
    generate_splits,
    obfuscate,
    parse_predictions,
    parse_scenario,
    score_system,
    validate,
    write_predictions,
    write_scenario,
)
from asbench.evaluation import FeatureStep, MetricScore, Schedules, ScoreReport, SolverStep
from asbench.scenario_io import _read_table, read_report_csv, write_report_csv

from gen import build_scenario, random_scenario, tutorial_scenario
from oracles import feature_vector, oracle_read_report_csv, oracle_read_table, run_record, schedule_map

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off, as a caller may leave it;
    its state before the test is restored after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


class TestParseScenario:
    def test_golden_bundle(self):
        scen = parse_scenario(FIXTURES / "tutorial")
        assert len(scen.algorithms) == 3
        assert len(scen.instances) == 5
        assert scen.cutoff == 5000.0
        assert scen.feature_names == ("f_a", "f_b", "f_c")
        assert feature_vector(scen, "i3")[1] is None
        assert scen.feature_groups[1].cost["i2"] == 100.0
        assert scen.splits[0].test == ("i4", "i5")
        assert validate(scen) == []

    def test_rewrite_is_byte_identical(self, tmp_path):
        scen = parse_scenario(FIXTURES / "tutorial")
        write_scenario(scen, tmp_path / "copy")
        for name in (
            "description.txt",
            "runs.csv",
            "features.csv",
            "feature_costs.csv",
            "splits.csv",
        ):
            assert filecmp.cmp(FIXTURES / "tutorial" / name, tmp_path / "copy" / name, shallow=False), name

    def test_matches_in_memory_fixture(self):
        assert parse_scenario(FIXTURES / "tutorial") == tutorial_scenario()

    def test_duplicate_feature_row_names_the_line(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        feats = tmp_path / "s" / "features.csv"
        lines = feats.read_text().splitlines()
        lines.append(lines[1])
        feats.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            parse_scenario(tmp_path / "s")
        assert err.value.file == "features.csv"
        assert err.value.line == 7
        assert "duplicate" in err.value.reason

    def test_rows_after_a_multi_line_cell_keep_their_lines(self, tmp_path, tutorial):
        # i1's first value is the quoted cell "0.5\n" (lines 2-3), so i3 is on line 5
        write_scenario(tutorial, tmp_path / "s")
        feats = tmp_path / "s" / "features.csv"
        text = feats.read_text().replace("i1,0.5,", 'i1,"0.5\n",').replace("i3,2.5,", "i3,abc,")
        feats.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_scenario(tmp_path / "s")
        assert (err.value.file, err.value.line) == ("features.csv", 5)
        assert "'abc'" in err.value.reason

    def test_unknown_description_key_rejected(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        desc = tmp_path / "s" / "description.txt"
        desc.write_text(desc.read_text() + "surprise: 1\n")
        with pytest.raises(ParseError, match="unknown key"):
            parse_scenario(tmp_path / "s")

    def test_unknown_algorithm_in_runs(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        runs = tmp_path / "s" / "runs.csv"
        runs.write_text(runs.read_text() + "i1,A9,1.0,ok\n")
        with pytest.raises(ParseError) as err:
            parse_scenario(tmp_path / "s")
        assert err.value.line == 17
        assert "A9" in err.value.reason

    def test_quality_scenario_must_not_have_cutoff(self, tmp_path):
        scen = random_scenario(3, objective="quality")
        write_scenario(scen, tmp_path / "q")
        desc = tmp_path / "q" / "description.txt"
        desc.write_text(desc.read_text() + "cutoff: 100.0\n")
        with pytest.raises(ViolationsError, match="cutoff"):
            parse_scenario(tmp_path / "q")

    @pytest.mark.parametrize(
        "old, new, code",
        [
            ("objective: runtime", "objective: runtim", "bad_objective"),
            ("direction: minimize", "direction: up", "bad_direction"),
            ("cutoff: 5000.0\n", "", "bad_cutoff"),
            ("algorithms: A1,A2,A3", "algorithms: A1,A2,A3,A1", "duplicate_algorithm"),
            ("probing=probing", "base=probing", "duplicate_group"),
        ],
        ids=["objective", "direction", "cutoff", "algorithm", "group"],
    )
    def test_description_rules_are_violations(self, tmp_path, tutorial, old, new, code):
        # the description is read for syntax only; validate judges its values,
        # and a repeated algorithm's runs fill each of its columns
        write_scenario(tutorial, tmp_path / "s")
        desc = tmp_path / "s" / "description.txt"
        desc.write_text(desc.read_text().replace(old, new))
        with pytest.raises(ViolationsError) as err:
            parse_scenario(tmp_path / "s")
        assert [v.code for v in err.value.violations] == [code]

    def test_repetitions_collapse_to_mean_and_worst_status(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        runs = tmp_path / "s" / "runs.csv"
        text = runs.read_text().replace("i1,A1,300.0,ok\n", "i1,A1,100.0,ok\ni1,A1,300.0,crash\n")
        runs.write_text(text)
        scen = parse_scenario(tmp_path / "s", check=False)
        rec = run_record(scen, "i1", "A1")
        assert rec.value == pytest.approx(200.0)
        assert rec.status == "crash"

    def test_grid_parse_leaves_the_collector_as_the_caller_set_it(self, tmp_path, tutorial, monkeypatch, collector):
        import asbench.scenario_io as scenario_io

        write_scenario(tutorial, tmp_path / "s")
        seen = []
        real_parse_runs = scenario_io._parse_runs

        def parse_runs(*args):
            seen.append(gc.isenabled())
            return real_parse_runs(*args)

        monkeypatch.setattr(scenario_io, "_parse_runs", parse_runs)
        assert parse_scenario(tmp_path / "s") == tutorial
        assert seen == [collector]
        assert gc.isenabled() is collector

    @pytest.mark.parametrize(
        "old, new, limit, error, match",
        [
            (None, None, None, None, None),
            ("i1,A1,300.0,ok", "i1,A1," + "3" * 50 + ",ok", 40, ParseError, "runs.csv:2: malformed CSV"),
            ("i1,A1,300.0,ok", "i1,A1,300.0,lost", None, ParseError, "runs.csv:2: unknown status"),
            ("i1,A1,300.0,ok", "i1,A1,300000.0,ok", None, ViolationsError, "value_exceeds_cutoff"),
        ],
        ids=["parsed", "csv-error", "parse-error", "violations"],
    )
    def test_csv_reader_reads_records_with_the_collector_paused(
        self, tmp_path, tutorial, monkeypatch, collector, old, new, limit, error, match
    ):
        import asbench.scenario_io as scenario_io

        write_scenario(tutorial, tmp_path / "s")
        runs = tmp_path / "s" / "runs.csv"
        text = runs.read_text() if old is None else runs.read_text().replace(old, new)
        runs.write_bytes(text.replace("\n", "\r\n").encode())  # CRLF text goes through csv.reader
        seen = []
        real_reader = csv.reader

        class Reader:
            """csv.reader, noting the collector's state at each record read."""

            def __init__(self, lines):
                self.records = real_reader(lines)

            def __iter__(self):
                return self

            def __next__(self):
                seen.append(gc.isenabled())
                return next(self.records)

            @property
            def line_num(self):
                return self.records.line_num

        monkeypatch.setattr(scenario_io.csv, "reader", Reader)
        old_limit = csv.field_size_limit(limit or csv.field_size_limit())  # a small limit fails a long field
        try:
            if error is None:
                assert parse_scenario(tmp_path / "s") == tutorial
            else:
                with pytest.raises(error, match=match):
                    parse_scenario(tmp_path / "s")
        finally:
            csv.field_size_limit(old_limit)
        assert seen and not any(seen)
        assert gc.isenabled() is collector

    def test_missing_file(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        (tmp_path / "s" / "splits.csv").unlink()
        with pytest.raises(ParseError, match="required file missing"):
            parse_scenario(tmp_path / "s")

    def test_violating_scenario_raises_unless_unchecked(self, tmp_path, tutorial):
        write_scenario(tutorial, tmp_path / "s")
        runs = tmp_path / "s" / "runs.csv"
        runs.write_text(runs.read_text().replace("i1,A1,300.0,ok", "i1,A1,300000.0,ok"))
        from asbench import ViolationsError

        with pytest.raises(ViolationsError, match="value_exceeds_cutoff"):
            parse_scenario(tmp_path / "s")
        scen = parse_scenario(tmp_path / "s", check=False)
        assert any(v.code == "value_exceeds_cutoff" for v in validate(scen))


class TestRoundTrip:
    @pytest.mark.parametrize("objective", ["runtime", "quality"])
    def test_structural_identity(self, tmp_path, objective):
        for seed in range(12):
            scen = random_scenario(seed, objective=objective)
            first = tmp_path / f"{objective}{seed}a"
            second = tmp_path / f"{objective}{seed}b"
            write_scenario(scen, first)
            once = parse_scenario(first)
            write_scenario(once, second)
            twice = parse_scenario(second)
            assert once == twice
            assert [v for v in validate(once) if v.severity == "error"] == []

    def test_written_bundles_validate_clean(self, tmp_path):
        for seed in range(8):
            scen = random_scenario(seed)
            write_scenario(scen, tmp_path / f"s{seed}")
            assert validate(parse_scenario(tmp_path / f"s{seed}")) == []


class TestPredictions:
    def test_single_solver_row(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text("instance_id,step,kind,name,budget\ni1,1,solver,A2,5000.0\n")
        schedules = parse_predictions(path, tutorial)
        assert schedule_map(schedules) == {"i1": (SolverStep(algorithm="A2", budget=5000.0),)}

    def test_three_step_schedule(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text(
            "instance_id,step,kind,name,budget\n"
            "i1,1,feature,base,0.0\n"
            "i1,2,solver,A1,2500.0\n"
            "i1,3,solver,A3,2500.0\n"
        )
        schedules = parse_predictions(path, tutorial)
        assert schedule_map(schedules)["i1"] == (
            FeatureStep(group="base"),
            SolverStep(algorithm="A1", budget=2500.0),
            SolverStep(algorithm="A3", budget=2500.0),
        )

    def test_round_trip(self, tmp_path, tutorial):
        schedules = {
            "i1": (FeatureStep(group="base"), SolverStep(algorithm="A1", budget=4990.0)),
            "i4": (SolverStep(algorithm="A2", budget=5000.0),),
        }
        path = tmp_path / "pred.csv"
        write_predictions(Schedules.from_steps(tutorial, schedules.items()), tutorial, path)
        assert schedule_map(parse_predictions(path, tutorial)) == schedules
        # a parsed file is written back with 0.0 for a feature step's budget ...
        read = tmp_path / "read.csv"
        read.write_text("instance_id,step,kind,name,budget\ni4,2,solver,A1,4995.0\ni4,1,feature,base,5\n")
        write_predictions(parse_predictions(read, tutorial), tutorial, tmp_path / "again.csv")
        again = (tmp_path / "again.csv").read_text().splitlines()
        assert again[1:] == ["i4,1,feature,base,0.0", "i4,2,solver,A1,4995.0"]
        # ... and a file the writer wrote comes back byte for byte
        write_predictions(parse_predictions(path, tutorial), tutorial, tmp_path / "twice.csv")
        assert (tmp_path / "twice.csv").read_bytes() == path.read_bytes()

    def test_quality_scenario_rejects_multiple_solvers(self, tmp_path):
        scen = random_scenario(1, objective="quality")
        path = tmp_path / "pred.csv"
        inst = scen.instances[0]
        a0, a1 = scen.algorithms[0], scen.algorithms[1]
        path.write_text(
            "instance_id,step,kind,name,budget\n"
            f"{inst},1,solver,{a0},0.0\n"
            f"{inst},2,solver,{a1},0.0\n"
        )
        with pytest.raises(ParseError, match="exactly one solver step"):
            parse_predictions(path, scen)

    def test_non_contiguous_ordinals(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text(
            "instance_id,step,kind,name,budget\ni1,1,solver,A1,10.0\ni1,3,solver,A2,10.0\n"
        )
        with pytest.raises(ParseError, match="not contiguous"):
            parse_predictions(path, tutorial)

    def test_unknown_solver_name(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text("instance_id,step,kind,name,budget\ni1,1,solver,Z,10.0\n")
        with pytest.raises(ParseError, match="unknown algorithm"):
            parse_predictions(path, tutorial)

    def test_coverage_requirement(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text("instance_id,step,kind,name,budget\ni4,1,solver,A1,10.0\n")
        with pytest.raises(ParseError, match="no schedule"):
            parse_predictions(path, tutorial, require_cover=("i4", "i5"))

    def test_nonpositive_budget_rejected(self, tmp_path, tutorial):
        path = tmp_path / "pred.csv"
        path.write_text("instance_id,step,kind,name,budget\ni1,1,solver,A1,0.0\n")
        with pytest.raises(ParseError, match="positive"):
            parse_predictions(path, tutorial)


class TestEachFileReadOnce:
    """A malformed file is judged from the one read that parses it."""

    @staticmethod
    def _count_reads(monkeypatch):
        import asbench.scenario_io as scenario_io

        reads = []
        real_read_table = scenario_io._read_table

        def read_table(path, *args, **kwargs):
            reads.append(Path(path).name)
            return real_read_table(path, *args, **kwargs)

        monkeypatch.setattr(scenario_io, "_read_table", read_table)
        return reads

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("features.csv", "i2,abc,1.0,2.0"),
            ("runs.csv", "i1,A2,fast,ok"),
            ("feature_costs.csv", "i2,cheap,1.0"),
            ("splits.csv", "0,custom,train,zz"),
        ],
    )
    def test_malformed_bundle(self, tmp_path, tutorial, monkeypatch, name, bad):
        write_scenario(tutorial, tmp_path / "s")
        path = tmp_path / "s" / name
        lines = path.read_text().splitlines()
        lines[2] = bad
        path.write_text("\n".join(lines) + "\n")
        reads = self._count_reads(monkeypatch)
        with pytest.raises(ParseError) as exc:
            parse_scenario(tmp_path / "s")
        assert (exc.value.file, exc.value.line) == (name, 3)
        assert reads.count(name) == 1 and len(reads) == len(set(reads))

    @pytest.mark.parametrize(
        "rows, reason",
        [
            (["i1,1,solver,A1,10.0", "i2,1,solver,Z,10.0"], "unknown algorithm"),
            (["i1,1,solver,A1,10.0", "i2,3,solver,A2,10.0"], "not contiguous"),
        ],
        ids=["bad-row", "bad-schedule"],
    )
    def test_malformed_prediction_file(self, tmp_path, tutorial, monkeypatch, rows, reason):
        path = tmp_path / "pred.csv"
        path.write_text("\n".join(["instance_id,step,kind,name,budget", *rows]) + "\n")
        reads = self._count_reads(monkeypatch)
        with pytest.raises(ParseError, match=reason) as exc:
            parse_predictions(path, tutorial)
        assert exc.value.line == 3
        assert reads == ["pred.csv"]


# names may hold anything a CSV field can but a line break
NAMES = st.text(alphabet=st.sampled_from('ab #,"\'\té'), max_size=5)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def score_reports(draw):
    metrics = draw(st.lists(st.sampled_from(["par10", "mcp", "solved", "quality"]), unique=True, min_size=1))
    return ScoreReport(
        system=draw(NAMES.filter(lambda s: s and not s.startswith("#"))),
        scenario_id=draw(NAMES),
        split_id=draw(st.integers(-2, 12)),
        objective="runtime",
        metrics={
            m: MetricScore(draw(FINITE), draw(FINITE), draw(FINITE), draw(st.none() | FINITE)) for m in metrics
        },
    )


def _bits(rows):
    return [(*row[:4], struct.pack("<d", row[4])) for row in rows]


class TestReports:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(score_reports(), max_size=6))
    def test_reader_matches_the_line_reader(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.csv"
            write_report_csv(reports, path)
            rows = read_report_csv(path)
            assert _bits(rows) == _bits(oracle_read_report_csv(path))
        expected = [
            (r.system, r.scenario_id, r.split_id, name, value)
            for r in reports
            for m, score in r.metrics.items()
            for name, value in ((m, score.value), (f"gap_{m}", score.gap))
            if value is not None
        ]
        assert _bits(rows) == _bits(expected)

    @pytest.mark.parametrize("system", ["", "#", "#x", "#,y", "a\n# b", "a\n\nb", "a\rb", "a\n"])
    def test_writer_rejects_names_that_read_as_comments(self, tmp_path, system):
        # rows of a system starting with "#" would read back as comment lines, and
        # a line break in a name could start a line that reads as one, or a blank line
        report = ScoreReport(system, "s", 0, "runtime", {"par10": MetricScore(1.0, 2.0, 0.0, 0.5)})
        with pytest.raises(ValueError, match="system name"):
            write_report_csv([report], tmp_path / "r.csv")

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999", "abc", ""])
    def test_value_must_be_a_finite_number(self, tmp_path, value):
        path = tmp_path / "r.csv"
        path.write_text(f"system,scenario,split,metric,value\n\n# c\ns,x,0,par10,{value}\n")
        with pytest.raises(ParseError, match=r"^r\.csv:4: "):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ("s,x,0,par10", "expected 5 columns, got 4"),
            ("s,x,zero,par10,abc", "bad split id 'zero'"),  # the first rule of the row wins
            ("s,x,0,par10, abc ", "bad value ' abc ', expected a number"),
            ("s,x,0,par10,inf", "value 'inf' is not finite"),
        ],
    )
    def test_first_bad_row_is_named(self, tmp_path, bad, reason):
        path = tmp_path / "r.csv"
        path.write_text(f"system,scenario,split,metric,value\ns,x,0,par10,1.0\n# c\n{bad}\ns,x,x,par10,x\n")
        with pytest.raises(ParseError) as exc:
            read_report_csv(path)
        assert (exc.value.file, exc.value.line, exc.value.reason) == ("r.csv", 4, reason)


    def test_a_row_after_a_multi_line_cell_and_a_comment_keeps_its_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('system,scenario,split,metric,value\ns,x,0,par10,1.0\n"a\nb",x,0,par10,1.0\n# c\nz,s,0,par10,abc\n')
        with pytest.raises(ParseError) as exc:
            read_report_csv(path)
        assert (exc.value.file, exc.value.line, exc.value.reason) == ("r.csv", 6, "bad value 'abc', expected a number")


# Cells of the reader's random texts. The quoted ones hold what plain text
# cannot: a quote, a comma, a line end or a CR inside a cell, and quotes in
# odd places (inside a cell, or never closed).
PLAIN_CELLS = ["", "a", "1.5", " x ", "#", "?", "nan", "\x00", "é", "long-cell-text"]
QUOTED_CELLS = ['"a,b"', '"say ""hi"""', '"two\nlines"', '"cr\rcr"', '"crlf\r\nx"', '"1.5"', 'a"b', '"']


@st.composite
def table_texts(draw):
    """A random CSV text, a header to check it against (None: none) and the
    ``comments`` flag."""
    quoted = draw(st.booleans())
    cells = st.sampled_from(PLAIN_CELLS + QUOTED_CELLS if quoted else PLAIN_CELLS)
    width = draw(st.integers(1, 4))
    head = [f"h{j}" for j in range(width)]
    lines = [draw(st.sampled_from([",".join(head)] * 4 + ["", " ", "#h0"]))]
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["row"] * 4 + ["ragged", "blank", "space", "comment"]))
        if shape in ("row", "ragged"):
            n = width if shape == "row" else draw(st.integers(1, width + 2))
            lines.append(",".join(draw(cells) for _ in range(n)))
        else:
            lines.append({"blank": "", "space": "  ", "comment": "# note, here"}[shape])
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"] if quoted else ["\n"])
    text = "".join(line + draw(ends) for line in lines[:-1]) + lines[-1]
    if draw(st.booleans()):
        text += draw(ends)  # a trailing line end
    if draw(st.integers(0, 20)) == 0:
        text = ""
    header = draw(st.sampled_from([None, None, head, ["h0"]]))
    return text, header, draw(st.booleans())


def _read_with(read, path, header, comments):
    """What a reader gives as (header, columns, line numbers, width flags and
    reasons), or its ParseError; a csv.Error as its message."""
    try:
        return ("ok", *read(path, header, comments))
    except ParseError as exc:
        return "ParseError", exc.file, exc.line, exc.reason
    except csv.Error as exc:
        return "csv.Error", str(exc)


def _as_columns(head, rows, lines):
    """The oracle's rows as ``_read_table`` returns them: columns, rows of
    another width than the header blanked, and the width rule's flags."""
    w = len(head)
    flags = [len(row) != w for row in rows]
    blank = [row if len(row) == w else [""] * w for row in rows]
    reasons = [f"expected {w} columns, got {len(row)}" for row in rows if len(row) != w]
    return head, [list(col) for col in zip(*blank)] or [[] for _ in head], list(lines), flags if any(flags) else None, reasons


def _failing_record_line(path):
    """The line on which the record that ``csv.reader`` fails on starts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            while True:
                start = reader.line_num + 1
                next(reader)
        except csv.Error:
            return start


class TestReadTable:
    """``_read_table`` against the csv.reader table reader it replaced
    (``tests/oracles.py``), on plain and quoted texts."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(case=table_texts(), limit=st.sampled_from([None, 8]))
    # a last line with no line end and fewer commas is no grid row
    @example(case=("h0,h1\n  ", None, False), limit=None)
    def test_matches_the_csv_reader(self, tmp_path_factory, case, limit):
        text, header, comments = case
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_bytes(text.encode())
        # a small field limit makes csv.reader fail on short texts
        old_limit = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            want = _read_with(oracle_read_table, path, header, comments)
            got = _read_with(_read_table, path, header, comments)
            failing_line = _failing_record_line(path) if want[0] == "csv.Error" else None
        finally:
            csv.field_size_limit(old_limit)
        if want[0] == "ok":
            assert got[0] == "ok", got
            head, columns, lines, (flags, reason) = got[1:]
            reasons = [reason(i) for i, flag in enumerate(flags or ()) if flag]
            assert (head, [list(col) for col in columns], list(lines), flags, reasons) == _as_columns(*want[1:])
        elif want[0] == "ParseError":
            assert got == want
        else:  # csv.reader's failure is a ParseError of the record it was reading
            assert got[:2] == ("ParseError", "t.csv") and got[3] == f"malformed CSV: {want[1]}"
            if not comments:
                assert got[2] == failing_line

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(case=table_texts(), at=st.integers(0, 200))
    def test_an_undecodable_byte_names_its_line(self, tmp_path_factory, case, at):
        text, header, comments = case
        at = min(at, len(text))
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_bytes(text[:at].encode() + b"\xe9" + text[at:].encode())
        with pytest.raises(ParseError) as exc:
            _read_table(path, header, comments)
        line = len(list(io.StringIO(text[:at] + "x", newline="")))  # the line of the character at ``at``
        assert (exc.value.file, exc.value.line, exc.value.reason) == ("t.csv", line, "byte 0xe9 is not UTF-8 text")


class TestGenerateSplits:
    def test_bootstrap_out_of_bag_fraction(self):
        scen = random_scenario(0, n_algos=2, n_insts=2, with_splits=False)
        big = build_scenario(
            {(f"i{j}", a): 1.0 for j in range(1000) for a in ("A0", "A1")},
            ["A0", "A1"],
            [f"i{j}" for j in range(1000)],
            features={f"i{j}": (float(j),) for j in range(1000)},
        )
        del scen
        splits = generate_splits(big, 10, "bootstrap", seed=0)
        # the chance an instance stays out of bag is (1 - 1/n)^n -> 1/e
        expected = 1000 * math.exp(-1)
        sizes = [len(s.test) for s in splits]
        for size in sizes:
            assert abs(size - expected) <= 0.05 * expected
        assert abs(np.mean(sizes) - expected) <= 0.02 * expected
        for s in splits:
            assert s.from_bootstrap
            assert not set(s.train) & set(s.test)
            assert set(s.train) | set(s.test) == set(big.instances)

    def test_holdout_size_rounds_half_up(self):
        scen = build_scenario(
            {(f"i{j}", "A0"): 1.0 for j in range(105)},
            ["A0"],
            [f"i{j}" for j in range(105)],
            features={f"i{j}": (float(j),) for j in range(105)},
        )
        splits = generate_splits(scen, 3, "holdout", test_fraction=0.33, seed=1)
        for s in splits:
            assert len(s.test) == 35
            assert len(s.train) == 70
            assert not set(s.train) & set(s.test)

    def test_same_seed_is_identical(self, tutorial):
        a = generate_splits(tutorial, 4, "bootstrap", seed=9)
        b = generate_splits(tutorial, 4, "bootstrap", seed=9)
        assert a == b
        c = generate_splits(tutorial, 4, "bootstrap", seed=10)
        assert a != c

    @pytest.mark.parametrize("mode", ["bootstrap", "holdout"])
    def test_fewer_than_two_instances_are_refused(self, mode):
        for n in (0, 1):
            insts = [f"i{j}" for j in range(n)]
            scen = build_scenario({(i, "A0"): 1.0 for i in insts}, ["A0"], insts)
            # one instance cannot fill both a training and a test set
            with pytest.raises(ValueError, match=f"at least 2 instances, the scenario has {n}$"):
                generate_splits(scen, 1, mode, seed=0)
        scen = build_scenario({("i0", "A0"): 1.0, ("i1", "A0"): 2.0}, ["A0"], ["i0", "i1"])
        for split in generate_splits(scen, 5, mode, seed=0):
            assert split.test and split.train and set(split.train) | set(split.test) == {"i0", "i1"}

    def test_bad_arguments(self, tutorial):
        with pytest.raises(ValueError):
            generate_splits(tutorial, 0, "bootstrap")
        with pytest.raises(ValueError):
            generate_splits(tutorial, 1, "holdout", test_fraction=1.5)
        with pytest.raises(ValueError):
            generate_splits(tutorial, 1, "jackknife")


class TestObfuscate:
    def test_same_seed_same_pseudonyms(self, tutorial):
        first, map_a = obfuscate(tutorial, seed=5)
        second, map_b = obfuscate(tutorial, seed=5)
        assert first == second
        assert map_a == map_b

    def test_round_trip(self, tutorial):
        hidden, name_map = obfuscate(tutorial, seed=3)
        assert deobfuscate(hidden, name_map) == tutorial
        assert set(hidden.algorithms) == {"algo_1", "algo_2", "algo_3"}
        assert hidden.feature_names == tutorial.feature_names

    def test_metrics_unchanged(self, tutorial):
        split = tutorial.splits[0]
        schedules = {
            inst: (FeatureStep(group="base"), SolverStep(algorithm="A1", budget=5000.0))
            for inst in split.test
        }
        before = score_system(tutorial, split, Schedules.from_steps(tutorial, schedules.items()))
        hidden, name_map = obfuscate(tutorial, seed=11)
        algo_fwd = {old: new for new, old in name_map["algorithms"].items()}
        inst_fwd = {old: new for new, old in name_map["instances"].items()}
        hidden_schedules = {
            inst_fwd[inst]: tuple(
                FeatureStep(group=s.group)
                if isinstance(s, FeatureStep)
                else SolverStep(algorithm=algo_fwd[s.algorithm], budget=s.budget)
                for s in sched
            )
            for inst, sched in schedules.items()
        }
        after = score_system(hidden, hidden.splits[0], Schedules.from_steps(hidden, hidden_schedules.items()))
        assert before.metrics == after.metrics
