"""The columnar bundle parser and the array-checked validate against the row
parser and the record walk they replaced (``tests/oracles.py``).

Bundles are written here as raw CSV text, so they can hold what
``write_scenario`` never writes: repeated and missing pairs, ``?`` cells,
padded tokens, blank lines, CRLF line ends, quoted cells and malformed rows.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asbench import ParseError, RunRecord, Split, ViolationsError, parse_scenario, validate, write_scenario
from asbench.scenario import RUN_STATUSES

from gen import random_scenario, tutorial_scenario
from oracles import feature_vectors, oracle_parse_scenario, oracle_validate, records

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)
CUTOFF = 100.0

VALUES = st.one_of(
    st.sampled_from([0.0, 1.5, 50.0, CUTOFF, 150.0, -2.0, math.nan, math.inf, -math.inf, 0.1, 1.7976931348623157e308]),
    st.floats(width=64, allow_nan=True, allow_infinity=True),
)


def _pad(draw, token):
    """Whitespace around a token some of the time; both parsers strip it."""
    return draw(st.sampled_from(["", " "])) + token + draw(st.sampled_from(["", " "]))


def _quote(token):
    return '"' + token.replace('"', '""') + '"'


def _csv(header, rows, draw):
    """The rows as CSV text. A "grid" file is LF text with no blank line, as
    asbench writes it; the others may have blank lines, and CRLF line ends
    or some cells quoted, which csv.reader reads in both parsers."""
    style = draw(st.sampled_from(["grid", "plain", "crlf", "quoted"]))
    cell = (lambda t: _quote(t) if draw(st.booleans()) else t) if style == "quoted" else (lambda t: t)
    lines = [",".join(map(cell, header))]
    for row in rows:
        lines.extend([""] * (0 if style == "grid" else draw(st.integers(0, 1))))
        lines.append(",".join(map(cell, row)))
    end = "\r\n" if style == "crlf" else "\n"
    return end.join(lines) + end


@st.composite
def bundles(draw):
    """A random bundle as {file name: text}; it may violate invariants."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    objective = draw(st.sampled_from(["runtime", "quality"]))
    direction = draw(st.sampled_from(["minimize", "maximize"]))
    instances = [f"i{j}" for j in range(n)]
    algorithms = [f"a{j}" for j in range(k)]
    order = draw(st.permutations(instances))

    groups = []
    if d:
        cut = draw(st.integers(1, d))
        groups = [("g0", list(range(cut)))] + ([("g1", list(range(cut, d)))] if cut < d else [])
    desc = ["scenario_id: s", f"objective: {objective}", f"direction: {direction}"]
    if objective == "runtime":
        desc.append(f"cutoff: {CUTOFF!r}")
    desc.append("algorithms: " + ",".join(algorithms))
    desc.append("feature_groups: " + ";".join(f"{g}={g}:" + ",".join(map(str, ix)) for g, ix in groups))

    features = [
        [_pad(draw, inst)]
        + [draw(st.sampled_from(["?", " ?"])) if draw(st.integers(0, 4)) == 0 else repr(draw(VALUES)) for _ in range(d)]
        for inst in order
    ]

    runs = []
    for inst in instances:
        for algo in algorithms:
            for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3, 0]))):  # repeated or missing
                status = draw(st.sampled_from(RUN_STATUSES))
                runs.append([_pad(draw, inst), _pad(draw, algo), repr(draw(VALUES)), _pad(draw, status)])
    runs = draw(st.permutations(runs))

    files = {
        "description.txt": "\n".join(desc) + "\n",
        "features.csv": _csv(["instance_id", *(f"f{j}" for j in range(d))], features, draw),
        "runs.csv": _csv(["instance_id", "algorithm_id", "value", "status"], runs, draw),
    }
    if objective == "runtime" or draw(st.booleans()):
        with_costs = [g for g, _ in groups] if draw(st.booleans()) else []  # else header-only
        rows = [[inst, *(repr(abs(draw(VALUES))) for _ in with_costs)] for inst in order] if with_costs else []
        files["feature_costs.csv"] = _csv(["instance_id", *with_costs], rows, draw)
    splits = []
    for sid in range(draw(st.integers(1, 2))):
        mode = draw(st.sampled_from(["bootstrap", "holdout", "custom"]))
        for role in ("train", "test"):
            for inst in draw(st.lists(st.sampled_from(instances), max_size=n + 1)):
                splits.append([str(sid), mode, role, inst])
    files["splits.csv"] = _csv(["split_id", "mode", "role", "instance_id"], splits, draw)
    return files


# Malformed rows, by file. Each replaces one data row of that file and is
# fitted to it, as TUTORIAL_BAD_ROWS are to the tutorial bundle: it rewrites
# the row's own fields, so the row keeps its instance, algorithm, split and
# width, and the rule it targets fires rather than a width or id rule. A
# rewrite that does not fit the row gives None and is skipped.


def _put(j, token):
    """The row with field ``j`` replaced by ``token``."""
    return lambda fields: fields[:j] + [token] + fields[j + 1 :] if j < len(fields) else None


def _short(fields):
    """The row without its last field (ragged)."""
    return fields[:-1] if len(fields) > 1 else None


def _id_only(fields):
    """The row's first field alone (ragged)."""
    return fields[:1] if len(fields) > 1 else None


def _long(fields):
    """The row with one more field (ragged)."""
    return [*fields, "4.0"]


CORRUPTIONS = {
    "runs.csv": [
        _short,  # ragged
        lambda fields: [*fields, "extra"],
        _put(0, "zz"),  # unknown instance
        _put(1, "zz"),  # unknown algorithm
        _put(3, "finished"),  # unknown status
        _put(2, "fast"),  # bad float
        _put(2, "?"),
        lambda fields: ["zz", "zz", "fast", "done"],  # several faults in one row: the first check wins
        _put(2, " fast "),  # a padded bad value, quoted stripped
    ],
    "features.csv": [
        _id_only,
        _long,
        _short,
        _put(0, " "),  # an empty instance id
        _put(0, "i;0"),  # a forbidden character in the id
        "DUP",  # an earlier data row again
        _put(1, "abc"),  # bad feature value
        lambda fields: ["zz", "?", "x", "1"],
        _put(1, " abc "),  # a padded bad value, quoted as written
    ],
    "feature_costs.csv": [
        _put(0, "zz"),  # unknown instance
        "DUP",
        _put(1, "cheap"),  # bad cost
        _put(2, "cheap"),
        _long,
        _id_only,
        _put(1, " cheap "),  # a padded bad cost, quoted as written
    ],
    "splits.csv": [
        _put(0, "x"),  # bad split id
        _put(1, "crossval"),  # bad mode
        _put(2, "valid"),  # bad role
        _put(3, "zz"),  # unknown instance
        "MIXED",  # another row's split in another mode
        "00MIXED",  # the same, its split id written with a leading zero
        _short,
        _put(0, "1.5"),
    ],
}


# The order in which the parsers read the files a corruption lands in.
PARSE_ORDER = ("features.csv", "runs.csv", "feature_costs.csv", "splits.csv")


def _fit(bad, lines, j, pick):
    """The fields that corruption ``bad`` writes in place of data row ``j`` of
    a file's ``lines``, or None where it does not fit; ``pick`` chooses the
    other row that a DUP or MIXED row copies."""
    fields = lines[j].split(",")
    others = [i for i, line in enumerate(lines) if i and line and i != j]
    if bad == "DUP":  # an earlier data row again
        earlier = [i for i in others if i < j]
        return lines[earlier[pick % len(earlier)]].split(",") if earlier else None
    if bad in ("MIXED", "00MIXED"):  # another row's split id, in another mode than that row's
        theirs = [t for t in (lines[i].split(",") for i in others) if len(t) == 4]
        if not theirs:
            return None
        sid, mode = theirs[pick % len(theirs)][:2]
        other = {"bootstrap": "custom"}.get(mode.strip(), "bootstrap")
        return [("0" if bad == "00MIXED" else "") + sid, other, *fields[2:]]
    return bad(fields)


def _replace(files, name, j, fields):
    lines = files[name].split("\n")
    lines[j] = ",".join(fields)
    return {**files, name: "\n".join(lines)}


def _data_rows(files, after):
    """The data rows (file rank, line) the parsers read after ``after``, by file."""
    rows = {}
    for rank, name in enumerate(PARSE_ORDER):
        for j, line in enumerate(files.get(name, "").split("\n")):
            if j and line and (rank, j) > after:
                rows.setdefault(rank, []).append(j)
    return rows


@st.composite
def malformed_bundles(draw):
    """A bundle, a data row to corrupt and a ``pick`` for :func:`_fit`. Up to
    two more rows, read after that one, are corrupted already, so the fault
    both parsers must report is the one the first row gets."""
    files = draw(bundles())
    rows = _data_rows(files, (0, 0))
    rank = draw(st.sampled_from(sorted(rows)))
    first = after = (rank, draw(st.sampled_from(rows[rank])))
    pick = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(0, 2))):
        rows = _data_rows(files, after)
        if not rows:
            break
        rank = draw(st.sampled_from(sorted(rows)))
        after = (rank, draw(st.sampled_from(rows[rank])))
        name = PARSE_ORDER[rank]
        fields = _fit(draw(st.sampled_from(CORRUPTIONS[name])), files[name].split("\n"), after[1], pick)
        if fields is not None:
            files = _replace(files, name, after[1], fields)
    return files, first, pick


def _write(files, root: Path):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _outcome(parse, path, check):
    try:
        return "ok", parse(path, check=check)
    except ParseError as exc:
        return "ParseError", (exc.file, exc.line, exc.reason)
    except ViolationsError as exc:
        return "ViolationsError", [(v.code, v.entity, v.detail, v.severity) for v in exc.violations]


def _violations(found):
    return [(v.code, v.entity, v.detail, v.severity) for v in found]


def _exact(x):
    return None if x is None else float(x).hex()


def _bits(scen):
    """Every field of a scenario, floats by their bits (NaN equals NaN) and
    mappings in their order."""
    return (
        scen.id,
        scen.objective,
        scen.direction,
        _exact(scen.cutoff),
        scen.algorithms,
        scen.instances,
        scen.runs.value.tobytes(),
        scen.runs.status.tobytes(),
        [(i, tuple(map(_exact, v))) for i, v in feature_vectors(scen).items()],
        scen.feature_names,
        [
            (g.name, g.feature_indices, None if g.cost is None else [(i, _exact(c)) for i, c in g.cost.items()])
            for g in scen.feature_groups
        ],
        scen.splits,
    )


def _assert_same_parse(files):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(files, Path(tmp) / "b")
        for check in (False, True):
            got = _outcome(parse_scenario, path, check)
            want = _outcome(oracle_parse_scenario, path, check)
            assert got[0] == want[0], (got, want)
            if got[0] != "ok":
                assert got[1] == want[1]
                continue
            new, old = got[1], want[1]
            assert _bits(new) == _bits(old)
            assert _violations(validate(new)) == _violations(oracle_validate(old))
        return got


@SETTINGS
@given(files=bundles())
def test_parse_matches_the_row_parser(files):
    _assert_same_parse(files)


# Faults of description.txt, each an edit of its lines that ``pick`` places:
# the oracle reads the description with its own reader, so these check
# ``_parse_description`` as the row corruptions check the CSV parsers.


def _set_key(key, value):
    """The lines with ``key``'s line replaced by ``key: value``, or that line added."""

    def edit(lines, pick):
        kept = [line for line in lines if not line.startswith(key + ":")]
        return kept[: pick % (len(kept) + 1)] + [f"{key}: {value}"] + kept[pick % (len(kept) + 1) :]

    return edit


DESCRIPTION_CORRUPTIONS = {
    "bad-cutoff": _set_key("cutoff", "soon"),
    "bad-index-list": _set_key("feature_groups", "g0=g0: 0,x ;g1=g1:1"),  # quoted as written
    "unknown-key": lambda lines, pick: lines[: pick % len(lines)] + ["surprise: 1"] + lines[pick % len(lines) :],
    "duplicate-key": lambda lines, pick: lines + [lines[pick % len(lines)]],
    "missing-key": lambda lines, pick: lines[: pick % len(lines)] + lines[pick % len(lines) + 1 :],
    "group-without-equals": _set_key("feature_groups", "g0:0"),
    "group-without-colon": _set_key("feature_groups", "g0=g0;g1=g1:0"),
    "bad-algorithm-id": _set_key("algorithms", "a0,,a1"),
    "no-colon": lambda lines, pick: [
        line.replace(":", "", 1) if j == pick % len(lines) else line for j, line in enumerate(lines)
    ],
}


@settings(derandomize=True, deadline=None, max_examples=25)
@given(files=bundles(), pick=st.integers(0, 7))
def test_malformed_descriptions_fail_like_the_row_parser(files, pick):
    lines = files["description.txt"].splitlines()
    for corrupt in DESCRIPTION_CORRUPTIONS.values():
        got = _assert_same_parse({**files, "description.txt": "\n".join(corrupt(lines, pick)) + "\n"})
        assert got[0] in ("ParseError", "ViolationsError")


@SETTINGS
@given(case=malformed_bundles())
def test_malformed_bundles_fail_like_the_row_parser(case):
    files, (rank, j), pick = case
    name = PARSE_ORDER[rank]
    for bad in CORRUPTIONS[name]:  # every corruption of the file, each fitted to the one row
        fields = _fit(bad, files[name].split("\n"), j, pick)
        if fields is not None:
            _assert_same_parse(_replace(files, name, j, fields))


# One malformed row per check, fitted to the tutorial bundle.
TUTORIAL_BAD_ROWS = [
    ("runs.csv", "i1,A1,1.0"),
    ("runs.csv", "i1,A1,1.0,ok,extra"),
    ("runs.csv", "zz,A1,1.0,ok"),
    ("runs.csv", "i1,zz,1.0,ok"),
    ("runs.csv", "i1,A1,1.0,finished"),
    ("runs.csv", "i1,A1,fast,ok"),
    ("runs.csv", "i1,A1,?,ok"),
    ("runs.csv", "zz,zz,fast,done"),
    ("features.csv", "i2"),
    ("features.csv", "i2,1.0,2.0,3.0,4.0"),
    ("features.csv", " ,1.0,2.0,3.0"),
    ("features.csv", "i;2,1.0,2.0,3.0"),
    ("features.csv", "i2,abc,1.0,2.0"),
    ("features.csv", "zz,?,x,1"),
    ("feature_costs.csv", "zz,1.0,1.0"),
    ("feature_costs.csv", "i2,cheap,1.0"),
    ("feature_costs.csv", "i2,1.0,cheap"),
    ("feature_costs.csv", "i2,1.0"),
    ("splits.csv", "x,custom,train,i1"),
    ("splits.csv", "1.5,custom,train,i1"),
    ("splits.csv", "0,crossval,train,i1"),
    ("splits.csv", "0,custom,valid,i1"),
    ("splits.csv", "0,custom,train,zz"),
    ("splits.csv", "0,custom,train"),
]


@pytest.mark.parametrize("name, bad", TUTORIAL_BAD_ROWS)
def test_each_malformed_row_names_its_line(tmp_path, name, bad):
    write_scenario(tutorial_scenario(), tmp_path / "s")
    path = tmp_path / "s" / name
    original = path.read_text().splitlines()
    for j in (1, 2, len(original) - 1):  # the first, the second and the last data row
        for blanks in ([], ["", ""]):  # the file as written, and blank lines that still count
            lines = list(original)
            lines[j : j + 1] = [*blanks, bad]
            path.write_text("\n".join(lines) + "\n")
            got = _outcome(parse_scenario, tmp_path / "s", True)
            assert got == _outcome(oracle_parse_scenario, tmp_path / "s", True)
            assert got[0] == "ParseError"
            assert got[1][:2] == (name, j + 1 + len(blanks))


def test_duplicate_and_mixed_rows_name_their_lines(tmp_path):
    write_scenario(tutorial_scenario(), tmp_path / "s")
    cases = {
        "features.csv": lambda lines: lines + [lines[2]],
        "feature_costs.csv": lambda lines: lines + [lines[1]],
        "splits.csv": lambda lines: lines + [lines[1].replace("custom", "bootstrap")],
    }
    for name, edit in cases.items():
        path = tmp_path / "s" / name
        original = path.read_text()
        path.write_text("\n".join(edit(original.splitlines())) + "\n")
        got = _outcome(parse_scenario, tmp_path / "s", True)
        assert got == _outcome(oracle_parse_scenario, tmp_path / "s", True)
        assert got[0] == "ParseError" and got[1][0] == name
        assert got[1][1] == len(original.splitlines()) + 1
        path.write_text(original)


# Padded bad tokens (the cost and feature reasons quote them as written, the
# runs reason stripped) and a split id written another way, each replacing
# the second data row of the tutorial bundle: (file, row, reason).
RAW_TOKEN_ROWS = [
    ("feature_costs.csv", "i2, cheap ,1.0", "bad cost ' cheap ', expected a number"),
    ("features.csv", "i2, abc ,1.0,2.0", "bad feature ' abc ', expected a number"),
    ("runs.csv", "i1,A2, fast ,ok", "bad value 'fast', expected a number"),
    ("splits.csv", "00,bootstrap,train,i2", "split 0 mixes modes"),
]


@pytest.mark.parametrize("name, bad, reason", RAW_TOKEN_ROWS)
def test_padded_tokens_and_rewritten_split_ids_fail_like_the_row_parser(tmp_path, name, bad, reason):
    write_scenario(tutorial_scenario(), tmp_path / "s")
    path = tmp_path / "s" / name
    lines = path.read_text().splitlines()
    lines[2] = bad
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(parse_scenario, tmp_path / "s", True)
    assert got == _outcome(oracle_parse_scenario, tmp_path / "s", True)
    assert got == ("ParseError", (name, 3, reason))


@SETTINGS
@given(seed=st.integers(0, 10_000), objective=st.sampled_from(["runtime", "quality"]))
def test_write_then_parse_round_trips(seed, objective):
    scen = random_scenario(seed, objective=objective)
    with tempfile.TemporaryDirectory() as tmp:
        write_scenario(scen, Path(tmp) / "b")
        back = parse_scenario(Path(tmp) / "b")
    assert back == scen
    assert _bits(back) == _bits(scen)
    assert back.cost.tobytes() == scen.cost.tobytes()


def _broken(tutorial, cells):
    """The tutorial with some run cells overwritten (None: no record)."""
    runs = records(tutorial)
    for pair, rec in cells.items():
        if rec is None:
            del runs[pair]
        else:
            runs[pair] = rec
    return replace(tutorial, runs=runs)


@SETTINGS
@given(
    cells=st.dictionaries(
        st.tuples(st.sampled_from(("i1", "i2", "i3", "i4", "i5")), st.sampled_from(("A1", "A2", "A3"))),
        st.one_of(st.none(), st.builds(lambda v, s: (v, s), VALUES, st.sampled_from(RUN_STATUSES))),
        max_size=8,
    ),
    cutoff=st.sampled_from([5000.0, 0.0, -1.0, math.nan, math.inf, None]),
)
def test_validate_matches_the_record_walk(cells, cutoff):
    tutorial = tutorial_scenario()
    scen = _broken(tutorial, {p: None if c is None else RunRecord(*c) for p, c in cells.items()})
    scen = replace(scen, cutoff=cutoff)
    assert _violations(validate(scen)) == _violations(oracle_validate(scen))


def _edited_group(scenario, j, **fields):
    groups = list(scenario.feature_groups)
    groups[j] = replace(groups[j], **fields)
    return replace(scenario, feature_groups=tuple(groups))


@pytest.mark.parametrize(
    "edit, code",
    [
        (
            lambda t: replace(t, instances=t.instances + ("i1",), runs=records(t), features=feature_vectors(t)),
            "duplicate_instance",
        ),
        (lambda t: _edited_group(t, 0, feature_indices=(0, 1, 7)), "bad_feature_index"),
        (lambda t: _edited_group(t, 0, feature_indices=(0,)), "ungrouped_feature"),
        (lambda t: _edited_group(t, 1, cost={**t.feature_groups[1].cost, "i9": 1.0}), "unknown_cost_row"),
        (lambda t: replace(t, splits=(t.splits[0], t.splits[0])), "duplicate_split"),
        (lambda t: replace(t, splits=(Split(0, ("i1", "i9"), ("i4",)),)), "unknown_split_instance"),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_validate_codes_match_the_record_walk(edit, code):
    scen = edit(tutorial_scenario())
    found = validate(scen)
    assert code in [v.code for v in found]
    assert _violations(found) == _violations(oracle_validate(scen))


class TestDuplicateSplitInstance:
    def test_repeated_test_instance_is_an_error(self, tutorial):
        for bootstrap in (False, True):
            split = Split(split_id=0, train=("i1", "i2"), test=("i4", "i4", "i5"), from_bootstrap=bootstrap)
            found = [v for v in validate(replace(tutorial, splits=(split,))) if v.code == "duplicate_split_instance"]
            assert [(v.entity, v.severity) for v in found] == [("split 0", "error")]
            assert "'i4'" in found[0].detail

    def test_repeated_train_instance_only_in_bootstrap_splits(self, tutorial):
        for bootstrap, expected in ((False, 1), (True, 0)):
            split = Split(split_id=0, train=("i1", "i1", "i2"), test=("i4",), from_bootstrap=bootstrap)
            found = [v for v in validate(replace(tutorial, splits=(split,))) if v.code == "duplicate_split_instance"]
            assert len(found) == expected
