"""Textual formats for scenarios, predictions and reports, plus split
generation and name obfuscation.

A scenario lives in a directory ("bundle") of five files:

    description.txt    key: value lines (id, objective, direction, cutoff,
                       algorithms, feature_groups)
    runs.csv           instance_id,algorithm_id,value,status
    features.csv       instance_id,<one column per feature>, "?" = missing
    feature_costs.csv  instance_id,<one column per feature group> (optional;
                       required for runtime scenarios)
    splits.csv         split_id,mode,role,instance_id

Repeated rows per (instance, algorithm) in runs.csv are treated as run
repetitions and collapsed to a single record at load time. The writer is
deterministic: identical scenarios produce byte-identical bundles.

Every CSV file asbench writes (bundles, predictions, reports, comparison
and seed-study tables) goes through :func:`write_csv`, and every one it
reads through ``_read_table``. That reader decodes the file once as UTF-8
and hands each parser columns, not rows. A grid of plain text (no ``"``,
no CR, no blank line, every line as wide as the first), which covers every
bundle and prediction file asbench writes, is split on ``\\n`` and ``,``;
all other text goes through ``csv.reader``. Either way blank lines are
skipped but counted, and an undecodable byte or broken quoting is a
:class:`ParseError` with the file and line.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evaluation import SCHEDULE_FAULTS, STEP_KIND, Schedules, report_rows
from .learners import rng_stream
from .scenario import (
    RUN_STATUSES,
    STATUS_CODE,
    FeatureGroup,
    Features,
    RunRecord,
    Runs,
    Scenario,
    Split,
    collapse_repetitions,
    validate,
)

DESCRIPTION_FILE = "description.txt"
RUNS_FILE = "runs.csv"
FEATURES_FILE = "features.csv"
COSTS_FILE = "feature_costs.csv"
SPLITS_FILE = "splits.csv"

MISSING_MARK = "?"

_ID_FORBIDDEN = set(",;:=\"\n\r")


class ParseError(ValueError):
    """A malformed or inconsistent input file, pinned to a location."""

    def __init__(self, file: str, line: int, reason: str):
        super().__init__(f"{file}:{line}: {reason}")
        self.file = file
        self.line = line
        self.reason = reason


class ViolationsError(ValueError):
    """Raised when a parsed scenario breaks model invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "scenario violates invariants: " + "; ".join(str(v) for v in self.violations)
        )


def _raise_errors(scenario: Scenario) -> None:
    """Raise :class:`ViolationsError` with every error-level violation."""
    problems = [v for v in validate(scenario) if v.severity == "error"]
    if problems:
        raise ViolationsError(problems)


def _check_id(token: str, file: str, line: int, what: str) -> str:
    token = token.strip()
    if not token or _ID_FORBIDDEN & set(token):
        raise ParseError(file, line, f"bad {what} id {token!r}")
    return token


def write_csv(path, header, rows, footer=()) -> None:
    """Write a header row, then ``rows``, as UTF-8 CSV with ``\\n`` line
    ends; each ``footer`` line follows verbatim. Callers write floats with
    ``repr``, the shortest decimal string that round-trips the float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(line + "\n" for line in footer)


def _decode(name: str, data: bytes) -> str:
    """``data`` as UTF-8 text; an undecodable byte is a ParseError at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
        raise ParseError(name, line, f"byte 0x{data[exc.start]:02x} is not UTF-8 text") from None


_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _read_table(path: Path, header: list[str] | None = None, comments: bool = False):
    """Read a CSV file once, whole: (header, columns, line numbers, width
    rule). The header is checked when given.

    Blank rows are skipped, and still counted in the line numbers. With
    ``comments``, the lines after the first that are blank or start with
    ``#`` are skipped unread. A row of other width than the header is blank
    in the columns, and the width rule (the pair :func:`_raise_first` takes)
    flags it. A grid (every line as wide as the header, no blank line, no
    ``"``, no CR, as :func:`write_csv` writes tables) is split on ``\\n``
    and ``,``; all other text goes through ``csv.reader``, the collector
    paused, and a record there is numbered by the line it starts on. A
    field past ``csv.field_size_limit()`` is a ParseError either way.
    """
    name, data = path.name, path.read_bytes()
    text = _decode(name, data)
    if not text:
        raise ParseError(name, 1, "file is empty, header row required")
    limit = csv.field_size_limit()
    plain = '"' not in text and "\r" not in text and "\n\n" not in text
    if plain and not comments and (len(text) <= limit or _longest_line(data) <= limit):
        first = text[: text.find("\n") % (len(text) + 1)]  # all of the text if it is one line
        w = first.count(",") + 1
        if first and _is_grid(data, w):
            _check_header(name, first.split(","), header)
            cells = text.removesuffix("\n").replace("\n", ",").split(",")
            return cells[:w], [cells[w + j :: w] for j in range(w)], range(2, len(cells) // w + 1), (None, None)
    del text  # csv.reader streams the text from the bytes, as from the file
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    numbers = range(1, len(data) + 2)  # the physical number of each line read
    if comments:
        kept = [(n, t) for n, t in enumerate(lines, 1) if n == 1 or t.strip() and not t.startswith("#")]
        numbers, lines = [n for n, _ in kept], [t for _, t in kept]
    # starts[i]: the lines read before record i, the header being record 0
    records, starts, rows = csv.reader(lines), [0], []
    # csv.reader builds a list per record and the transpose an iterator per
    # row, all acyclic: the cyclic collector, which would only walk them, is
    # paused until the columns are built and then left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        head = next(records)
        _check_header(name, head, header)
        starts.append(records.line_num)
        for row in records:
            rows.append(row)
            starts.append(records.line_num)
        lines = [numbers[n] for n in starts[1:-1]]
        if not all(rows):
            lines = [line for line, row in zip(lines, rows) if row]
            rows = [row for row in rows if row]
        width = _width_rule(rows, len(head))
        columns = [list(col) for col in zip(*rows)] or [[] for _ in head]
        del rows  # freed while paused, so their count cannot set off a collection
    except csv.Error as exc:
        raise ParseError(name, numbers[starts[-1]], f"malformed CSV: {exc}") from None
    finally:
        if collecting:
            gc.enable()
    return head, columns, lines, width


def _check_header(name: str, head: list[str], header) -> None:
    if header is not None and head != header:
        raise ParseError(name, 1, f"bad header {head!r}, expected {header!r}")


def _longest_line(data: bytes) -> int:
    """The length in bytes of the longest line of ``data``."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    return int(np.diff(ends, prepend=-1, append=len(data)).max()) - 1


def _is_grid(data: bytes, width: int) -> bool:
    """Whether every line of ``data`` has ``width`` fields: its commas and
    line ends, all else deleted, repeat ``width - 1`` commas and a line end
    (one taken as ending the last line if it has none)."""
    skeleton = data.translate(None, _NOT_SEPARATORS) + (b"" if data.endswith(b"\n") else b"\n")
    unit = b"," * (width - 1) + b"\n"
    return skeleton == unit * (len(skeleton) // len(unit))


# Each input file is read once, and its checks ask whether whole columns are
# clean. When one is not, each rule flags rows from the columns in memory; a
# flag at row i depends only on rows up to i (a repeated id is flagged at its
# second row), so every row before the earliest flagged one is clean.


def _raise_first(file: str, lines, rules) -> None:
    """Raise the ParseError of the earliest row a rule flags, with the reason
    of the first rule (in check order) that flags it. A rule is a pair of
    flags over the rows (None: none) and ``reason(i)``, None if no fault."""
    hits = [(int(np.argmax(flags)), r) for r, (flags, _) in enumerate(rules) if flags is not None and np.any(flags)]
    i, r = min(hits, default=(0, None))
    reason = None if r is None else rules[r][1](i)
    if reason is None:
        raise RuntimeError(f"{file}: a check failed but no rule names the row at fault")
    raise ParseError(file, lines[i], reason)


def _width_rule(rows: list, width: int):
    """The rule that a row has ``width`` cells, flags None if all have. A row
    of another width is blanked in place, so the other rules read blanks."""
    if set(map(len, rows)) <= {width}:
        return None, None
    widths = list(map(len, rows))
    rows[:] = [row if len(row) == width else [""] * width for row in rows]
    return [n != width for n in widths], lambda i: f"expected {width} columns, got {widths[i]}"


def _cell_rule(columns: list, what: str, marks=()):
    """The rule that each cell of a row is a number or, stripped, one of
    ``marks``; the reason quotes the row's first other cell as written."""
    bad = [[_number(t) is None and t.strip() not in marks for t in col] for col in columns]
    first = lambda i: next(col[i] for col, flags in zip(columns, bad) if flags[i])
    return list(map(any, zip(*bad))) if bad else None, lambda i: f"bad {what} {first(i)!r}, expected a number"


def _number(token: str, convert=float):
    """``convert(token)``, or None if the token is not a number."""
    try:
        return convert(token)
    except ValueError:
        return None


def _unlike_first(keys, values) -> list[bool]:
    """Flags of the rows whose value differs from that of the first row with
    their key; ``_unlike_first(ids, range(n))`` flags each repeated id."""
    first: dict = {}
    return [first.setdefault(k, v) != v for k, v in zip(keys, values)]


def _lookup(index: dict, tokens) -> list:
    """Map tokens through ``index``, ignoring surrounding whitespace; None
    where a token is unknown."""
    out = list(map(index.get, tokens))
    if None in out:
        out = [index.get(t.strip()) for t in tokens]
    return out


def _numbers(tokens, convert=float):
    """``convert`` of every token, or None if a token is not a number."""
    try:
        return list(map(convert, tokens))
    except ValueError:
        return None


def _feature_column(tokens: list):
    """The values of a column of feature tokens, NaN at the missing marks, and
    the rows of the marks; None if a token is neither a number nor a mark.
    The marks are found with ``list.index`` and overwritten with ``"nan"``."""
    holes, j = [], -1
    try:
        while True:
            j = tokens.index(MISSING_MARK, j + 1)
            holes.append(j)
    except ValueError:
        pass
    for j in holes:
        tokens[j] = "nan"
    values = _numbers(tokens)
    if values is None:
        # a mark padded with whitespace, or a token that is not a number
        padded = [j for j, t in enumerate(tokens) if t.strip() == MISSING_MARK]
        for j in padded:
            tokens[j] = "nan"
        values = _numbers(tokens)
        if values is None:
            return None
        holes += padded
    return values, holes


def _numbers_repeated(tokens, convert=float):
    """:func:`_numbers` for a column of few distinct tokens, each converted once."""
    distinct = list(set(tokens))
    values = _numbers(distinct, convert)
    return None if values is None else list(map(dict(zip(distinct, values)).__getitem__, tokens))


# ---------------------------------------------------------------------------
# description file


_DESC_KEYS = ("scenario_id", "objective", "direction", "cutoff", "algorithms", "feature_groups")


def _parse_description(path: Path):
    """The description's fields as written: syntax only, :func:`validate` judges the rules."""
    fname = path.name
    seen: dict[str, str] = {}
    # newline=None: a CR, LF or CRLF ends a line, as in a file opened in text mode
    for lineno, raw in enumerate(io.StringIO(_decode(fname, path.read_bytes()), newline=None), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError(fname, lineno, f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in _DESC_KEYS:
            raise ParseError(fname, lineno, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(fname, lineno, f"duplicate key {key!r}")
        seen[key] = value.strip()

    for key in ("scenario_id", "objective", "direction", "algorithms", "feature_groups"):
        if key not in seen:
            raise ParseError(fname, 1, f"missing key {key!r}")
    cutoff = _number(seen["cutoff"]) if "cutoff" in seen else None
    if "cutoff" in seen and cutoff is None:
        raise ParseError(fname, 1, f"bad cutoff {seen['cutoff']!r}, expected a number")
    algorithms = tuple(_check_id(tok, fname, 1, "algorithm") for tok in seen["algorithms"].split(","))

    # groups: name=cost_column:i,j,k separated by ';'
    groups: list[tuple[str, str, tuple[int, ...]]] = []
    for part in seen["feature_groups"].split(";") if seen["feature_groups"] else ():
        if "=" not in part or ":" not in part.split("=", 1)[1]:
            raise ParseError(fname, 1, f"bad feature group {part!r}, expected name=cost_column:indices")
        name, rest = part.split("=", 1)
        cost_col, idx_text = rest.split(":", 1)
        name = _check_id(name, fname, 1, "feature group")
        cost_col = _check_id(cost_col, fname, 1, "cost column")
        try:
            indices = tuple(int(t) for t in idx_text.split(",") if t.strip() != "")
        except ValueError:
            raise ParseError(fname, 1, f"bad index list {idx_text!r}") from None
        if not indices:
            raise ParseError(fname, 1, f"feature group {name!r} has no indices")
        groups.append((name, cost_col, indices))

    return seen["scenario_id"], seen["objective"], seen["direction"], cutoff, algorithms, groups


def _write_description(scenario: Scenario, path: Path) -> None:
    lines = [
        f"scenario_id: {scenario.id}",
        f"objective: {scenario.objective}",
        f"direction: {scenario.direction}",
    ]
    if scenario.objective == "runtime":
        lines.append(f"cutoff: {float(scenario.cutoff)!r}")
    lines.append("algorithms: " + ",".join(scenario.algorithms))
    groups = ";".join(
        f"{g.name}={g.name}:" + ",".join(str(i) for i in g.feature_indices)
        for g in scenario.feature_groups
    )
    lines.append(f"feature_groups: {groups}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# scenario bundle


def parse_scenario(path, check: bool = True) -> Scenario:
    """Load a scenario bundle from a directory.

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

    scenario_id, objective, direction, cutoff, algorithms, specs = _parse_description(root / DESCRIPTION_FILE)
    instances, features, feature_names = _parse_features(root / FEATURES_FILE)
    runs = _parse_runs(root / RUNS_FILE, instances, algorithms)

    cost_tables: dict[str, dict[str, float]] = {}
    cost_path = root / COSTS_FILE
    if cost_path.exists():
        cost_tables = _parse_costs(cost_path, set(instances))
    elif objective == "runtime":
        raise ParseError(COSTS_FILE, 0, "runtime scenario requires a feature cost table")

    # A group whose cost column is absent simply has no recorded costs;
    # validate() downgrades that to a warning for runtime scenarios.
    groups = [
        FeatureGroup(name=name, feature_indices=indices, cost=cost_tables.get(cost_col))
        for name, cost_col, indices in specs
    ]

    splits = _parse_splits(root / SPLITS_FILE, set(instances))

    scenario = Scenario(
        id=scenario_id,
        objective=objective,
        direction=direction,
        cutoff=cutoff,
        algorithms=algorithms,
        instances=instances,
        runs=runs,
        features=features,
        feature_names=feature_names,
        feature_groups=tuple(groups),
        splits=splits,
    )
    if check:
        _raise_errors(scenario)
    return scenario


def _parse_features(path: Path):
    """features.csv fixes the instance order; one row per instance. Returns
    the instance ids, the feature table and the feature names."""
    head, columns, lines, width = _read_table(path)
    if not head or head[0] != "instance_id":
        raise ParseError(FEATURES_FILE, 1, "first column must be instance_id")
    feature_names = tuple(head[1:])
    ids = [t.strip() for t in columns[0]]
    clean = (
        width[0] is None
        and all(t and _ID_FORBIDDEN.isdisjoint(t) for t in ids)
        and len(set(ids)) == len(ids)
    )
    values = np.empty((len(ids), len(feature_names)))
    missing = np.zeros(values.shape, dtype=bool)
    for j, col in enumerate(columns[1:] if clean else ()):
        parsed = _feature_column(col)
        if parsed is None:
            clean = False
            break
        values[:, j], missing[parsed[1], j] = parsed[0], True
    if not clean:  # _feature_column has turned only missing marks into "nan"
        _raise_first(FEATURES_FILE, lines, [
            width,
            ([not t or not _ID_FORBIDDEN.isdisjoint(t) for t in ids], lambda i: f"bad instance id {ids[i]!r}"),
            (_unlike_first(ids, range(len(ids))), lambda i: f"duplicate instance row {ids[i]!r}"),
            _cell_rule(columns[1:], "feature", (MISSING_MARK,)),
        ])
    return tuple(ids), Features(values, missing), feature_names


_RUNS_HEADER = ["instance_id", "algorithm_id", "value", "status"]


def _parse_runs(path: Path, instances, algorithms) -> Runs:
    """runs.csv into the run table; repeated pairs collapse to one record."""
    _, columns, lines, width = _read_table(path, _RUNS_HEADER)
    row_of = {inst: r for r, inst in enumerate(instances)}
    col_of = {algo: c for c, algo in enumerate(algorithms)}
    r = _lookup(row_of, columns[0])
    c = _lookup(col_of, columns[1])
    s = _lookup(STATUS_CODE, columns[3])
    v = _numbers(columns[2])
    if width[0] is not None or v is None or None in r or None in c or None in s:
        inst, algo, value, status = columns
        _raise_first(RUNS_FILE, lines, [
            width,
            ([x is None for x in r], lambda i: f"unknown instance {inst[i].strip()!r}"),
            ([x is None for x in c], lambda i: f"unknown algorithm {algo[i].strip()!r}"),
            ([x is None for x in s], lambda i: f"unknown status {status[i].strip()!r}"),
            ([_number(t) is None for t in value], lambda i: f"bad value {value[i].strip()!r}, expected a number"),
        ])
    del columns

    k = len(algorithms)
    cell = np.array(r, dtype=np.intp) * k + np.array(c, dtype=np.intp)
    values = np.full(len(instances) * k, np.nan)
    status = np.full(len(instances) * k, -1, dtype=np.int8)
    values[cell] = v
    status[cell] = s
    counts = np.bincount(cell, minlength=values.size)
    if len(cell) > np.count_nonzero(counts):
        repeats: dict[int, list[RunRecord]] = {}
        for j in np.flatnonzero(counts[cell] > 1).tolist():
            repeats.setdefault(int(cell[j]), []).append(RunRecord(v[j], RUN_STATUSES[s[j]]))
        for i, records in repeats.items():
            rec = collapse_repetitions(records)
            values[i] = rec.value
            status[i] = STATUS_CODE[rec.status]
    if len(col_of) < k:  # a repeated algorithm id gets its runs in each of its columns
        values, status = (a.reshape(-1, k)[:, [col_of[algo] for algo in algorithms]] for a in (values, status))
    return Runs(values.reshape(len(instances), k), status)


def _parse_costs(path: Path, inst_set: set[str]) -> dict[str, dict[str, float]]:
    """feature_costs.csv: one cost table per column, keyed by instance."""
    head, columns, lines, width = _read_table(path)
    if not head or head[0] != "instance_id":
        raise ParseError(COSTS_FILE, 1, "first column must be instance_id")
    cost_cols = head[1:]
    if len(set(cost_cols)) != len(cost_cols):
        raise ParseError(COSTS_FILE, 1, "duplicate cost column")

    ids = [t.strip() for t in columns[0]]
    clean = (
        width[0] is None
        and inst_set.issuperset(ids)
        and (not cost_cols or len(set(ids)) == len(ids))
    )
    costs = [_numbers(col) for col in columns[1:]] if clean else []
    if not clean or None in costs:
        _raise_first(COSTS_FILE, lines, [
            width,
            ([t not in inst_set for t in ids], lambda i: f"unknown instance {ids[i]!r}"),
            (_unlike_first(ids, range(len(ids))) if cost_cols else None,
             lambda i: f"duplicate instance row {ids[i]!r}"),
            _cell_rule(columns[1:], "cost"),
        ])
    return {col: dict(zip(ids, column)) for col, column in zip(cost_cols, costs)}


_SPLITS_HEADER = ["split_id", "mode", "role", "instance_id"]
_SPLIT_MODES = ("bootstrap", "holdout", "custom")


def _parse_splits(path: Path, inst_set: set[str]) -> tuple[Split, ...]:
    _, columns, lines, width = _read_table(path, _SPLITS_HEADER)
    sid_texts, modes, roles, insts = ([t.strip() for t in col] for col in columns)
    sids = _numbers(sid_texts, int)
    clean = (
        width[0] is None
        and sids is not None
        and set(modes) <= set(_SPLIT_MODES)
        and set(roles) <= {"train", "test"}
        and inst_set.issuperset(insts)
        and len(set(sids)) == len(set(zip(sids, modes)))  # no split mixes modes
    )
    if not clean:
        sid = [_number(t, int) for t in sid_texts]
        _raise_first(SPLITS_FILE, lines, [
            width,
            ([x is None for x in sid], lambda i: f"bad split id {sid_texts[i]!r}"),
            ([m not in _SPLIT_MODES for m in modes], lambda i: f"unknown split mode {modes[i]!r}"),
            ([r not in ("train", "test") for r in roles], lambda i: f"unknown role {roles[i]!r}"),
            ([t not in inst_set for t in insts], lambda i: f"unknown instance {insts[i]!r}"),
            (_unlike_first(sid, modes), lambda i: f"split {sid[i]} mixes modes"),
        ])

    mode_of = dict(zip(sids, modes))
    parts = {sid: {"train": [], "test": []} for sid in sorted(mode_of)}
    for sid, role, inst in zip(sids, roles, insts):
        parts[sid][role].append(inst)
    return tuple(
        Split(
            split_id=sid,
            train=tuple(part["train"]),
            test=tuple(part["test"]),
            from_bootstrap=mode_of[sid] == "bootstrap",
        )
        for sid, part in parts.items()
    )


def write_scenario(scenario: Scenario, path) -> None:
    """Write a scenario bundle; identical scenarios yield identical bytes.

    Rows follow the scenario's own instance and portfolio order, which the
    parser reconstructs, so write/parse round-trips preserve structure.
    """
    _raise_errors(scenario)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)

    _write_description(scenario, root / DESCRIPTION_FILE)

    runs = scenario.runs
    run_rows = (
        [inst, algo, repr(value), RUN_STATUSES[code]]
        for inst, values, status in zip(scenario.instances, runs.value.tolist(), runs.status.tolist())
        for algo, value, code in zip(scenario.algorithms, values, status)
    )
    write_csv(root / RUNS_FILE, _RUNS_HEADER, run_rows)
    features = scenario.features
    feature_rows = (
        [inst, *(MISSING_MARK if hole else repr(v) for v, hole in zip(values, holes))]
        for inst, values, holes in zip(scenario.instances, features.matrix.tolist(), features.missing.tolist())
    )
    write_csv(root / FEATURES_FILE, ["instance_id", *scenario.feature_names], feature_rows)

    with_costs = [j for j, g in enumerate(scenario.feature_groups) if g.cost is not None]
    cost_file = root / COSTS_FILE
    if with_costs or scenario.objective == "runtime":
        # Runtime bundles always ship the cost table, header-only if no
        # group recorded costs.
        header = ["instance_id", *(scenario.feature_groups[j].name for j in with_costs)]
        costs = scenario.feature_cost[:, with_costs].tolist()
        rows = ([inst, *map(repr, row)] for inst, row in zip(scenario.instances, costs))
        write_csv(cost_file, header, rows if with_costs else ())
    elif cost_file.exists():
        cost_file.unlink()

    order = {inst: i for i, inst in enumerate(scenario.instances)}
    split_rows = (
        [split.split_id, "bootstrap" if split.from_bootstrap else "custom", role, inst]
        for split in sorted(scenario.splits, key=lambda s: s.split_id)
        for role, part in (("train", split.train), ("test", split.test))
        for inst in sorted(part, key=order.__getitem__)
    )
    write_csv(root / SPLITS_FILE, _SPLITS_HEADER, split_rows)


# ---------------------------------------------------------------------------
# prediction files


PREDICTIONS_HEADER = ["instance_id", "step", "kind", "name", "budget"]


def parse_predictions(path, scenario: Scenario) -> Schedules:
    """Read a prediction file into a batch of schedules, one per instance it
    names. The file is read once, column-wise, and its schedules are checked
    as arrays. When a check fails, the ParseError names the first bad row, or
    else the first bad schedule in the order the file first names instances,
    at its last line. Whether the file covers a split is judged when it is
    scored (``evaluation.score_system``).
    """
    path = Path(path)
    _, (inst, ordinal, kind, name, budget), lines, width = _read_table(path, PREDICTIONS_HEADER)
    row = _lookup(scenario.row, inst)
    code = _lookup(STEP_KIND, kind)
    ordinals = _numbers_repeated(ordinal, int)
    budgets = _numbers_repeated(budget)
    names = (scenario.col, {g.name: j for j, g in enumerate(scenario.feature_groups)})
    index = [None if k is None else names[k].get(t) for k, t in zip(code, name)]
    if None in index:
        index = [None if k is None else names[k].get(t.strip()) for k, t in zip(code, name)]
    if width[0] is not None or None in row or None in code or ordinals is None or budgets is None or None in index:
        _raise_first(path.name, lines, [
            width,
            ([r is None for r in row], lambda i: f"unknown instance {inst[i].strip()!r}"),
            ([_number(t, int) is None for t in ordinal], lambda i: f"bad step ordinal {ordinal[i].strip()!r}"),
            ([_number(t) is None for t in budget], lambda i: f"bad budget {budget[i].strip()!r}, expected a number"),
            ([k is None for k in code], lambda i: f"unknown step kind {kind[i].strip()!r}"),
            ([k is not None and j is None for k, j in zip(code, index)],
             lambda i: f"unknown {('algorithm', 'feature group')[code[i]]} {name[i].strip()!r}"),
        ])
    # an ordinal outside 1..rows cannot be contiguous, and may not fit an intp
    in_range = 1 <= min(ordinals, default=1) and max(ordinals, default=0) <= len(ordinals)
    row = np.array(row, dtype=np.intp)
    ordinal = np.array(ordinals if in_range else [o if 1 <= o <= len(ordinals) else 0 for o in ordinals], np.intp)
    order = np.lexsort((ordinal, row))
    owners, lengths = np.unique(row[order], return_counts=True)
    # each schedule's steps are 1..m once sorted
    step = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
    kind, index, budget = np.array(code, np.int8)[order], np.array(index)[order], np.array(budgets)[order]
    schedules = Schedules(scenario, owners, lengths, kind, index, budget)
    fault, at = schedules.faults(scenario.objective)
    if not np.array_equal(ordinal[order], step) or fault.any():
        # the schedules in the order the file first names them, each at its last line
        starts = schedules.starts[:-1]
        by_file = np.argsort(np.minimum.reduceat(order, starts))
        insts = [schedules.instances[p] for p in by_file]
        steps = [sorted(ordinals[j] for j in span) for span in np.split(order, starts[1:])]

        def invalid(q):
            p = by_file[q]
            step = schedules.values()[p][at[p] - starts[p]] if at[p] >= 0 else None
            return f"invalid schedule for {insts[q]!r}: {SCHEDULE_FAULTS[fault[p]](step)}"

        _raise_first(path.name, [lines[j] for j in np.maximum.reduceat(order, starts)[by_file]], [
            ([steps[p] != list(range(1, len(steps[p]) + 1)) for p in by_file],
             lambda q: f"step ordinals for {insts[q]!r} are not contiguous from 1: {steps[by_file[q]]}"),
            (fault[by_file] > 0, invalid),
        ])
    return schedules


def write_predictions(schedules: Schedules, scenario: Scenario, path) -> None:
    """Write a batch of schedules as a prediction file in scenario row order;
    a feature step's budget is written as 0.0. A batch holding two schedules
    of one instance raises ValueError, since the file could not tell them apart."""
    schedules.positions(scenario)  # refuses two schedules of one instance
    lengths = np.diff(schedules.starts)
    ordinal = np.arange(schedules.kind.size) - np.repeat(schedules.starts[:-1], lengths) + 1
    budget = np.where(schedules.kind == STEP_KIND["solver"], schedules.budget, 0.0)
    row = np.repeat(schedules.row, lengths)
    order = np.argsort(row, kind="stable")
    kinds, names = tuple(STEP_KIND), (scenario.algorithms, [g.name for g in scenario.feature_groups])
    columns = (a[order].tolist() for a in (row, ordinal, schedules.kind, schedules.index, budget))
    rows = ([scenario.instances[r], o, kinds[k], names[k][i], repr(b)] for r, o, k, i, b in zip(*columns))
    write_csv(path, PREDICTIONS_HEADER, rows)


# ---------------------------------------------------------------------------
# report files


REPORT_HEADER = ["system", "scenario", "split", "metric", "value"]


def check_system_name(name: str, what: str = "system name") -> None:
    """Refuse a system name that is empty, starts with ``#`` or holds a CR or
    LF: the report reader drops blank and ``#`` lines before it parses CSV."""
    if not name or name.startswith("#") or "\n" in name or "\r" in name:
        raise ValueError(f"{what} {name!r} is empty, starts with '#' or holds a line break")


def write_report_csv(reports, path) -> None:
    """Comma-separated :func:`~asbench.evaluation.report_rows` in the fixed
    column order system,scenario,split,metric,value; undefined gaps land in
    a footer. Each system name must pass :func:`check_system_name`."""
    for rep in reports:
        check_system_name(rep.system)
    rows = ([*key, repr(value)] for *key, value in report_rows(reports))
    footer = [
        f"# undefined_gap: {rep.system},{rep.scenario_id},{rep.split_id},{name}"
        for rep in reports
        for name in rep.undefined_gaps
    ]
    write_csv(path, REPORT_HEADER, rows, footer)


def read_report_csv(path):
    """Rows of (system, scenario, split, metric, value), blank and ``#`` lines
    skipped; a malformed header or row raises :class:`ParseError`."""
    _, (system, scen, split, metric, value), lines, width = _read_table(Path(path), REPORT_HEADER, comments=True)
    ids, values = [_number(t, int) for t in split], [_number(t) for t in value]
    finite = [v is not None and math.isfinite(v) for v in values]
    if width[0] is not None or None in ids or not all(finite):
        _raise_first(Path(path).name, lines, [
            width,
            ([x is None for x in ids], lambda i: f"bad split id {split[i]!r}"),
            ([x is None for x in values], lambda i: f"bad value {value[i]!r}, expected a number"),
            ([not f for f in finite], lambda i: f"value {value[i]!r} is not finite"),
        ])
    return list(zip(system, scen, ids, metric, values))


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# splits


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate_splits(scenario: Scenario, n_splits: int, mode: str, test_fraction: float = 0.33, seed: int = 0):
    """Create train/test splits without stratification, deterministic in seed.

    Bootstrap mode draws |instances| samples with replacement; the distinct
    draws form the training set and the out-of-bag instances the test set.
    Holdout mode is a disjoint random partition with a test share of
    ``test_fraction`` (rounded half up). Both need at least 2 instances,
    since every split has a training and a non-empty test set.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be at least 1")
    n = len(scenario.instances)
    if n < 2:
        raise ValueError(f"splits need at least 2 instances, the scenario has {n}")
    splits = []
    if mode == "bootstrap":
        for s in range(n_splits):
            # redraw until an instance is out of bag: with n >= 2 each draw
            # leaves one out with probability at least 1/2
            for attempt in itertools.count():
                chosen = set(rng_stream(seed, 101, s, attempt).integers(0, n, size=n).tolist())
                if len(chosen) < n:
                    break
            train = tuple(scenario.instances[i] for i in sorted(chosen))
            test = tuple(scenario.instances[i] for i in range(n) if i not in chosen)
            splits.append(Split(split_id=s, train=train, test=test, from_bootstrap=True))
    elif mode == "holdout":
        if not 0 < test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        n_test = min(max(_round_half_up(test_fraction * n), 1), n - 1)
        for s in range(n_splits):
            rng = rng_stream(seed, 102, s)
            perm = rng.permutation(n)
            test_idx = sorted(perm[:n_test].tolist())
            train_idx = sorted(perm[n_test:].tolist())
            splits.append(
                Split(
                    split_id=s,
                    train=tuple(scenario.instances[i] for i in train_idx),
                    test=tuple(scenario.instances[i] for i in test_idx),
                )
            )
    else:
        raise ValueError(f"unknown split mode {mode!r}")
    return splits


# ---------------------------------------------------------------------------
# obfuscation


def obfuscate(scenario: Scenario, seed: int = 0):
    """Replace algorithm and instance ids with shuffled pseudonyms.

    Portfolio and instance positions are preserved (only the labels move),
    so every metric is unchanged. Returns the renamed scenario and a map
    from pseudonym back to the original id.
    """
    rng = rng_stream(seed, 103)
    algo_perm = rng.permutation(len(scenario.algorithms))
    inst_perm = rng.permutation(len(scenario.instances))
    algo_new = {a: f"algo_{p + 1}" for a, p in zip(scenario.algorithms, algo_perm.tolist())}
    inst_new = {i: f"inst_{p + 1}" for i, p in zip(scenario.instances, inst_perm.tolist())}

    renamed = rename_scenario(scenario, algo_new, inst_new)
    name_map = {
        "algorithms": {new: old for old, new in algo_new.items()},
        "instances": {new: old for old, new in inst_new.items()},
    }
    return renamed, name_map


def deobfuscate(scenario: Scenario, name_map) -> Scenario:
    """Invert :func:`obfuscate` using its name map."""
    return rename_scenario(scenario, name_map["algorithms"], name_map["instances"])


def rename_scenario(scenario: Scenario, algo_map, inst_map) -> Scenario:
    """Rebuild a scenario with algorithm/instance ids renamed in place; the
    run and feature tables are positional, so they are kept as they are."""
    return replace(
        scenario,
        algorithms=tuple(algo_map[a] for a in scenario.algorithms),
        instances=tuple(inst_map[i] for i in scenario.instances),
        feature_groups=tuple(
            replace(g, cost=None if g.cost is None else {inst_map[i]: c for i, c in g.cost.items()})
            for g in scenario.feature_groups
        ),
        splits=tuple(
            replace(s, train=tuple(inst_map[i] for i in s.train), test=tuple(inst_map[i] for i in s.test))
            for s in scenario.splits
        ),
    )
