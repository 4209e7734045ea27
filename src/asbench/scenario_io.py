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
reads through ``_read_table``.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .evaluation import STEP_KIND, FeatureStep, Schedules, SolverStep, validate_schedule
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


def _fmt(x: float) -> str:
    # repr() is the shortest decimal string that round-trips the float.
    return repr(float(x))


def _check_id(token: str, file: str, line: int, what: str) -> str:
    token = token.strip()
    if not token or _ID_FORBIDDEN & set(token):
        raise ParseError(file, line, f"bad {what} id {token!r}")
    return token


def _parse_float(text: str, file: str, line: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(file, line, f"bad {what} {text!r}, expected a number") from None


def write_csv(path, header, rows, footer=()) -> None:
    """Write a header row, then ``rows``, as UTF-8 CSV with ``\\n`` line
    ends; each ``footer`` line follows verbatim."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(line + "\n" for line in footer)


def _read_table(path: Path, header: list[str] | None = None, comments: bool = False):
    """Read a CSV file whole: (header, rows, line numbers), blank rows
    skipped. The header is checked when given. With ``comments``, the lines
    after the first that are blank or start with ``#`` are skipped unread."""
    with open(path, newline="", encoding="utf-8") as fh:
        source, lines = fh, None
        if comments:
            kept = [(n, t) for n, t in enumerate(fh, 1) if n == 1 or t.strip() and not t.startswith("#")]
            source, lines = [t for _, t in kept], [n for n, _ in kept[1:]]
        reader = csv.reader(source)
        try:
            head = next(reader)
        except StopIteration:
            raise ParseError(path.name, 1, "file is empty, header row required") from None
        if header is not None and head != header:
            raise ParseError(path.name, 1, f"bad header {head!r}, expected {header!r}")
        rows = list(reader)
    lines = range(2, len(rows) + 2) if lines is None else lines
    if not all(rows):
        lines = [line for line, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    return head, rows, lines


# The bundle files are read column-wise, and each check asks whether a whole
# column is clean. When one is not, the file is read again and walked from
# its first row through the per-row checks, which raise the first bad row's
# error with its line.


def _lookup(index: dict, tokens) -> list:
    """Map tokens through ``index``, ignoring surrounding whitespace as the
    row checks do; None where a token is unknown."""
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


def _feature_cells(tokens: list):
    """The flat value array of feature tokens, NaN at the missing marks, and
    the mask of the marks; None if a token is neither a number nor a mark.
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
    missing = np.zeros(len(tokens), dtype=bool)
    missing[holes] = True
    return np.array(values, dtype=np.float64), missing


def _numbers_repeated(tokens, convert=float):
    """:func:`_numbers` for a column of few distinct tokens, each converted once."""
    distinct = list(set(tokens))
    values = _numbers(distinct, convert)
    return None if values is None else list(map(dict(zip(distinct, values)).__getitem__, tokens))


def _raise_bad_row(path: Path, header, check_row) -> None:
    """Walk the file, read again, through ``check_row(row, line)``, which
    raises the ParseError of the first bad row."""
    _, rows, lines = _read_table(path, header)
    for row, line in zip(rows, lines):
        check_row(row, line)
    raise RuntimeError(f"{path.name}: a column check failed but every row passed")


# ---------------------------------------------------------------------------
# description file


_DESC_KEYS = ("scenario_id", "objective", "direction", "cutoff", "algorithms", "feature_groups")


def _parse_description(path: Path):
    """The description's fields as written: syntax only, :func:`validate` judges the rules."""
    fname = path.name
    seen: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    cutoff = _parse_float(seen["cutoff"], fname, 1, "cutoff") if "cutoff" in seen else None
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
        lines.append(f"cutoff: {_fmt(scenario.cutoff)}")
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

    # The parse builds many acyclic row lists, which the cyclic collector
    # would only walk; it is paused until the scenario is checked.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _parse_bundle(root, check)
    finally:
        if collecting:
            gc.enable()


def _parse_bundle(root: Path, check: bool) -> Scenario:
    """:func:`parse_scenario` of a bundle whose files exist."""
    scenario_id, objective, direction, cutoff, algorithms, specs = _parse_description(root / DESCRIPTION_FILE)
    features, feature_names = _parse_features(root / FEATURES_FILE)
    instances = features.instances
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
    """features.csv fixes the instance order; one row per instance."""
    head, rows, _ = _read_table(path)
    if not head or head[0] != "instance_id":
        raise ParseError(FEATURES_FILE, 1, "first column must be instance_id")
    feature_names = tuple(head[1:])
    d = len(feature_names)
    seen = set()

    def check_row(row, line):
        if len(row) != 1 + d:
            raise ParseError(FEATURES_FILE, line, f"expected {1 + d} columns, got {len(row)}")
        inst = _check_id(row[0], FEATURES_FILE, line, "instance")
        if inst in seen:
            raise ParseError(FEATURES_FILE, line, f"duplicate instance row {inst!r}")
        seen.add(inst)
        for tok in row[1:]:
            if tok.strip() != MISSING_MARK:
                _parse_float(tok, FEATURES_FILE, line, "feature")

    ids = [row[0].strip() for row in rows]
    clean = (
        set(map(len, rows)) <= {1 + d}
        and all(t and _ID_FORBIDDEN.isdisjoint(t) for t in ids)
        and len(set(ids)) == len(ids)
    )
    if clean:
        cells = [tok for row in rows for tok in row[1:]]
        del rows
        parsed = _feature_cells(cells)
        clean = parsed is not None
    if not clean:
        _raise_bad_row(path, None, check_row)
    values, missing = (a.reshape(len(ids), d) for a in parsed)
    return Features(ids, values, missing), feature_names


_RUNS_HEADER = ["instance_id", "algorithm_id", "value", "status"]


def _parse_runs(path: Path, instances, algorithms) -> Runs:
    """runs.csv into the run table; repeated pairs collapse to one record."""
    _, rows, _ = _read_table(path, _RUNS_HEADER)
    row_of = {inst: r for r, inst in enumerate(instances)}
    col_of = {algo: c for c, algo in enumerate(algorithms)}

    def check_row(row, line):
        if len(row) != 4:
            raise ParseError(RUNS_FILE, line, f"expected 4 columns, got {len(row)}")
        inst, algo, value_text, status = (t.strip() for t in row)
        if inst not in row_of:
            raise ParseError(RUNS_FILE, line, f"unknown instance {inst!r}")
        if algo not in col_of:
            raise ParseError(RUNS_FILE, line, f"unknown algorithm {algo!r}")
        if status not in STATUS_CODE:
            raise ParseError(RUNS_FILE, line, f"unknown status {status!r}")
        _parse_float(value_text, RUNS_FILE, line, "value")

    clean = set(map(len, rows)) <= {4}
    if clean:
        columns = list(zip(*rows)) or [(), (), (), ()]
        del rows  # the columns hold the cells now
        r = _lookup(row_of, columns[0])
        c = _lookup(col_of, columns[1])
        s = _lookup(STATUS_CODE, columns[3])
        v = _numbers(columns[2])
        del columns
        clean = v is not None and None not in r and None not in c and None not in s
    if not clean:
        _raise_bad_row(path, _RUNS_HEADER, check_row)

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
    return Runs(instances, algorithms, values, status)


def _parse_costs(path: Path, inst_set: set[str]) -> dict[str, dict[str, float]]:
    """feature_costs.csv: one cost table per column, keyed by instance."""
    head, rows, _ = _read_table(path)
    if not head or head[0] != "instance_id":
        raise ParseError(COSTS_FILE, 1, "first column must be instance_id")
    cost_cols = head[1:]
    if len(set(cost_cols)) != len(cost_cols):
        raise ParseError(COSTS_FILE, 1, "duplicate cost column")

    seen = set()

    def check_row(row, line):
        if len(row) != 1 + len(cost_cols):
            raise ParseError(COSTS_FILE, line, f"expected {1 + len(cost_cols)} columns")
        inst = row[0].strip()
        if inst not in inst_set:
            raise ParseError(COSTS_FILE, line, f"unknown instance {inst!r}")
        if cost_cols and inst in seen:
            raise ParseError(COSTS_FILE, line, f"duplicate instance row {inst!r}")
        seen.add(inst)
        for tok in row[1:]:
            _parse_float(tok, COSTS_FILE, line, "cost")

    ids = [row[0].strip() for row in rows]
    clean = (
        set(map(len, rows)) <= {len(head)}
        and inst_set.issuperset(ids)
        and (not cost_cols or len(set(ids)) == len(ids))
    )
    costs = [_numbers([row[j] for row in rows]) for j in range(1, len(head))] if clean else []
    if not clean or None in costs:
        _raise_bad_row(path, None, check_row)
    return {col: dict(zip(ids, column)) for col, column in zip(cost_cols, costs)}


_SPLITS_HEADER = ["split_id", "mode", "role", "instance_id"]
_SPLIT_MODES = ("bootstrap", "holdout", "custom")


def _parse_splits(path: Path, inst_set: set[str]) -> tuple[Split, ...]:
    _, rows, _ = _read_table(path, _SPLITS_HEADER)
    first_mode: dict[int, str] = {}

    def check_row(row, line):
        if len(row) != 4:
            raise ParseError(SPLITS_FILE, line, f"expected 4 columns, got {len(row)}")
        sid_text, mode, role, inst = (t.strip() for t in row)
        try:
            sid = int(sid_text)
        except ValueError:
            raise ParseError(SPLITS_FILE, line, f"bad split id {sid_text!r}") from None
        if mode not in _SPLIT_MODES:
            raise ParseError(SPLITS_FILE, line, f"unknown split mode {mode!r}")
        if role not in ("train", "test"):
            raise ParseError(SPLITS_FILE, line, f"unknown role {role!r}")
        if inst not in inst_set:
            raise ParseError(SPLITS_FILE, line, f"unknown instance {inst!r}")
        if first_mode.setdefault(sid, mode) != mode:
            raise ParseError(SPLITS_FILE, line, f"split {sid} mixes modes")

    clean = set(map(len, rows)) <= {4}
    if clean:
        columns = [list(map(str.strip, col)) for col in zip(*rows)] or [[], [], [], []]
        del rows
        sid_texts, modes, roles, insts = columns
        sids = _numbers(sid_texts, int)
        clean = (
            sids is not None
            and set(modes) <= set(_SPLIT_MODES)
            and set(roles) <= {"train", "test"}
            and inst_set.issuperset(insts)
            and len(set(sids)) == len(set(zip(sids, modes)))  # no split mixes modes
        )
    if not clean:
        _raise_bad_row(path, _SPLITS_HEADER, check_row)

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
        for inst, values, status in zip(runs.instances, runs.value.tolist(), runs.status.tolist())
        for algo, value, code in zip(runs.algorithms, values, status)
    )
    write_csv(root / RUNS_FILE, _RUNS_HEADER, run_rows)
    features = scenario.features
    feature_rows = (
        [inst, *(MISSING_MARK if hole else repr(v) for v, hole in zip(values, holes))]
        for inst, values, holes in zip(features.instances, features.matrix.tolist(), features.missing.tolist())
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


def parse_predictions(path, scenario: Scenario, require_cover=None) -> Schedules:
    """Read a prediction file into per-instance schedules.

    ``require_cover`` is an optional iterable of instance ids (typically a
    split's test set) that must all receive a schedule. The file is read
    column-wise and its schedules are checked as arrays; when a check fails,
    the rows are walked to the first bad one.
    """
    path = Path(path)
    _, rows, _ = _read_table(path, PREDICTIONS_HEADER)
    clean = set(map(len, rows)) <= {5}
    if clean:
        inst, ordinal, kind, name, budget = list(zip(*rows)) or [()] * 5
        del rows
        row = _lookup(scenario.runs.row, inst)
        kind = _lookup(STEP_KIND, kind)
        ordinal = _numbers_repeated(ordinal, int)
        budget = _numbers_repeated(budget)
        clean = None not in row and None not in kind and ordinal is not None and budget is not None
        # an ordinal outside 1..rows cannot be contiguous, and may not fit an intp
        clean = clean and 1 <= min(ordinal, default=1) and max(ordinal, default=0) <= len(ordinal)
    if clean:
        names = (scenario.runs.col, {g.name: j for j, g in enumerate(scenario.feature_groups)})
        index = [names[k].get(t) for k, t in zip(kind, name)]
        if None in index:
            index = [names[k].get(t.strip()) for k, t in zip(kind, name)]
        clean = None not in index
    if clean:
        row, ordinal = np.array(row, dtype=np.intp), np.array(ordinal, dtype=np.intp)
        order = np.lexsort((ordinal, row))
        row, ordinal = row[order], ordinal[order]
        owners, lengths = np.unique(row, return_counts=True)
        # each schedule's steps are 1..m once sorted
        step = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
        kind, index, budget = np.array(kind, np.int8)[order], np.array(index)[order], np.array(budget)[order]
        schedules = Schedules(scenario, owners, lengths, kind, index, budget)
        clean = np.array_equal(ordinal, step) and schedules.valid(scenario.objective)
    if not clean:
        _raise_bad_predictions(path, scenario)
    if require_cover is not None:
        missing = [i for i in require_cover if i not in schedules]
        if missing:
            raise ParseError(path.name, 0, f"no schedule for test instances {missing[:5]!r}")
    return schedules


def _raise_bad_predictions(path: Path, scenario: Scenario) -> None:
    """Walk a prediction file row by row, then schedule by schedule, and
    raise the ParseError of the first bad row or schedule."""
    fname = path.name
    inst_set = set(scenario.instances)
    algo_set = set(scenario.algorithms)
    group_set = {g.name for g in scenario.feature_groups}

    staged: dict[str, list[tuple[int, object]]] = {}
    lines: dict[str, int] = {}
    _, rows, row_lines = _read_table(path, PREDICTIONS_HEADER)
    for lineno, row in zip(row_lines, rows):
        if len(row) != 5:
            raise ParseError(fname, lineno, f"expected 5 columns, got {len(row)}")
        inst, ordinal_text, kind, name, budget_text = (t.strip() for t in row)
        if inst not in inst_set:
            raise ParseError(fname, lineno, f"unknown instance {inst!r}")
        try:
            ordinal = int(ordinal_text)
        except ValueError:
            raise ParseError(fname, lineno, f"bad step ordinal {ordinal_text!r}") from None
        budget = _parse_float(budget_text, fname, lineno, "budget")
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

    for inst, steps in staged.items():
        steps.sort(key=lambda pair: pair[0])
        ordinals = [o for o, _ in steps]
        if ordinals != list(range(1, len(steps) + 1)):
            raise ParseError(
                fname, lines[inst], f"step ordinals for {inst!r} are not contiguous from 1: {ordinals}"
            )
        try:
            validate_schedule(scenario, tuple(step for _, step in steps))
        except ValueError as exc:
            raise ParseError(fname, lines[inst], f"invalid schedule for {inst!r}: {exc}") from None
    raise RuntimeError(f"{fname}: a column check failed but every row passed")


def write_predictions(schedules, scenario: Scenario, path) -> None:
    """Write per-instance schedules as a prediction file (scenario order)."""
    rows = (
        [inst, ordinal, "feature", step.group, _fmt(0.0)]
        if isinstance(step, FeatureStep)
        else [inst, ordinal, "solver", step.algorithm, _fmt(step.budget)]
        for inst in scenario.instances
        if inst in schedules
        for ordinal, step in enumerate(schedules[inst], start=1)
    )
    write_csv(path, PREDICTIONS_HEADER, rows)


# ---------------------------------------------------------------------------
# report files


REPORT_HEADER = ["system", "scenario", "split", "metric", "value"]


def write_report_csv(reports, path) -> None:
    """Comma-separated report rows in the fixed column order
    system,scenario,split,metric,value; undefined gaps land in a footer.
    A system name must be non-empty and must not start with ``#``, or its
    rows would read back as comment lines."""
    rows, footer = [], []
    for rep in reports:
        if not rep.system or rep.system.startswith("#"):
            raise ValueError(f"system name {rep.system!r} is empty or starts with '#'")
        key = [rep.system, rep.scenario_id, rep.split_id]
        for name, metric in rep.metrics.items():
            rows.append([*key, name, repr(metric.value)])
            if metric.gap is not None:
                rows.append([*key, f"gap_{name}", repr(metric.gap)])
            else:
                footer.append(f"# undefined_gap: {rep.system},{rep.scenario_id},{rep.split_id},{name}")
    write_csv(path, REPORT_HEADER, rows, footer)


def read_report_csv(path):
    """Rows of (system, scenario, split, metric, value), blank and ``#`` lines
    skipped; a malformed header or row raises :class:`ParseError`."""
    fname = Path(path).name
    _, rows, lines = _read_table(Path(path), REPORT_HEADER, comments=True)
    out = []
    for row, line in zip(rows, lines):
        if len(row) != 5:
            raise ParseError(fname, line, f"expected 5 columns, got {len(row)}")
        system, scen, split_text, metric, value_text = row
        try:
            split = int(split_text)
        except ValueError:
            raise ParseError(fname, line, f"bad split id {split_text!r}") from None
        value = _parse_float(value_text, fname, line, "value")
        if not math.isfinite(value):
            raise ParseError(fname, line, f"value {value_text!r} is not finite")
        out.append((system, scen, split, metric, value))
    return out


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
    ``test_fraction`` (rounded half up).
    """
    if n_splits < 1:
        raise ValueError("n_splits must be at least 1")
    n = len(scenario.instances)
    splits = []
    if mode == "bootstrap":
        for s in range(n_splits):
            for attempt in range(100):
                rng = rng_stream(seed, 101, s, attempt)
                draws = rng.integers(0, n, size=n)
                chosen = set(draws.tolist())
                test = tuple(scenario.instances[i] for i in range(n) if i not in chosen)
                if test:
                    train = tuple(scenario.instances[i] for i in sorted(chosen))
                    splits.append(Split(split_id=s, train=train, test=test, from_bootstrap=True))
                    break
            else:
                raise RuntimeError(f"no out-of-bag instances after 100 attempts for split {s}")
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
    run and feature tables keep their arrays under the new labels."""
    algorithms = tuple(algo_map[a] for a in scenario.algorithms)
    instances = tuple(inst_map[i] for i in scenario.instances)
    return replace(
        scenario,
        algorithms=algorithms,
        instances=instances,
        runs=Runs(instances, algorithms, scenario.runs.value, scenario.runs.status),
        features=Features(instances, scenario.features.matrix, scenario.features.missing),
        feature_groups=tuple(
            replace(g, cost=None if g.cost is None else {inst_map[i]: c for i, c in g.cost.items()})
            for g in scenario.feature_groups
        ),
        splits=tuple(
            replace(s, train=tuple(inst_map[i] for i in s.train), test=tuple(inst_map[i] for i in s.test))
            for s in scenario.splits
        ),
    )
