"""Command-line entry point.

One binary, seven subcommands::

    asbench validate   --scenario DIR
    asbench baselines  --scenario DIR
    asbench train      --scenario DIR --selector KIND --out MODEL
    asbench predict    --scenario DIR --model MODEL --out PREDICTIONS
    asbench evaluate   --scenario DIR --predictions PATH --out PREFIX
    asbench compare    REPORT.csv [REPORT.csv ...] --out PREFIX
    asbench seed-study --scenario DIR --selector KIND --n-seeds N --out PREFIX

Every command is deterministic given its flags (seeds included), echoes its
resolved configuration to stderr, and writes outputs atomically. Each output
of a command that takes ``--out PREFIX`` is PREFIX plus a fixed suffix, and
``--json`` adds ``PREFIX.json``. Exit codes: 0 success, 1 runtime failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import uuid
from dataclasses import replace
from pathlib import Path

from . import evaluation, scenario_io, selectors, stats
from .evaluation import ScoreReport, aggregate, report_gap, score_system
from .scenario import Scenario, Split, baseline_means, improvement_factor, sbs, validate
from .scenario_io import generate_splits, parse_scenario
from .selectors import (
    Hyperparameters,
    fit_prepared,
    fit_system,
    load_model,
    predict_batch,
    prepare_training,
    save_model,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config: " + json.dumps(resolved, sort_keys=True, default=str), file=sys.stderr)


def _atomic_write(path: Path, writer) -> None:
    """Write through a temp file plus rename so readers never see partials.

    The temp name is unique, so concurrent writers never share one, and the
    writer creates the file itself, so it gets the mode a plain open() gives.
    A writer that raises leaves neither the temp file nor a changed target.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write(prefix, suffix: str, writer) -> None:
    """Write the output ``prefix`` + ``suffix`` atomically. The suffix is
    appended, never swapped for a dotted tail of the prefix, so prefixes such
    as ``sunny.v1`` and ``sunny.v2`` never share a file."""
    prefix = Path(prefix)
    _atomic_write(prefix.parent / (prefix.name + suffix), writer)


def _resolve_splits(scenario: Scenario, spec: str, seed: int):
    """Turn a --splits flag into concrete splits.

    ``file`` uses the splits stored in the bundle; ``bootstrap:N`` and
    ``holdout:N:FRACTION`` generate fresh ones from the seed.
    """
    if spec == "file":
        if not scenario.splits:
            raise ValueError("scenario bundle has no stored splits; use --splits bootstrap:N")
        return list(scenario.splits)
    mode, *numbers = spec.split(":")
    try:
        if len(numbers) not in {"bootstrap": (1,), "holdout": (1, 2)}.get(mode, ()):
            raise ValueError(spec)
        n_splits = int(numbers[0])
        frac = float(numbers[1]) if len(numbers) == 2 else 0.33
    except ValueError:
        raise ValueError(f"bad --splits value {spec!r}") from None
    return generate_splits(scenario, n_splits, mode, test_fraction=frac, seed=seed)


def _pick_split(splits, split_id: int):
    for split in splits:
        if split.split_id == split_id:
            return split
    raise ValueError(f"no split with id {split_id}; have {[s.split_id for s in splits]}")


def _load(args) -> tuple[Scenario, Split]:
    """Parse the bundle, then pick the ``--split-id`` split of ``--splits``."""
    scen = parse_scenario(args.scenario)
    return scen, _pick_split(_resolve_splits(scen, args.splits, args.seed), args.split_id)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    scen = parse_scenario(args.scenario, check=False)
    violations = validate(scen)
    for v in violations:
        print(str(v))
    errors = [v for v in violations if v.severity == "error"]
    print(f"{scen.id}: {len(errors)} error(s), {len(violations) - len(errors)} warning(s)")
    return EXIT_OK if not errors else EXIT_INPUT


def cmd_baselines(args) -> int:
    scen = parse_scenario(args.scenario)
    sbs_mean, vbs_mean = baseline_means(scen, slice(None))
    doc = {
        "scenario": scen.id,
        "objective": scen.objective,
        "direction": scen.direction,
        "algorithms": len(scen.algorithms),
        "instances": len(scen.instances),
        "features": len(scen.feature_names),
        "sbs": sbs(scen, scen.instances),
        "sbs_mean": sbs_mean,
        "vbs_mean": vbs_mean,
        "improvement_factor": improvement_factor(scen),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for key, value in doc.items():
            if key == "improvement_factor":
                value = "undefined" if value is None else f"{value:.3f}"
            print(f"{key}: {value}")
    return EXIT_OK


def cmd_train(args) -> int:
    scen, split = _load(args)
    hp = Hyperparameters.from_pairs(args.hp or [])
    if "seed" not in _hp_keys(args.hp):
        hp = replace(hp, seed=args.seed)
    groups = args.feature_groups.split(",") if args.feature_groups else None
    started = time.perf_counter()
    model = fit_system(scen, split.train, args.selector, hp, mode=args.mode, feature_groups=groups)
    elapsed = time.perf_counter() - started
    _atomic_write(Path(args.out), lambda tmp: save_model(model, tmp))
    print(f"trained {args.selector} on {len(split.train)} instances in {elapsed:.2f}s -> {args.out}")
    return EXIT_OK


def _hp_keys(pairs) -> set:
    return {p.split("=", 1)[0] for p in (pairs or [])}


def cmd_predict(args) -> int:
    scen, split = _load(args)
    model = load_model(args.model)
    schedules = predict_batch(model, scen, split.test)
    _atomic_write(Path(args.out), lambda tmp: scenario_io.write_predictions(schedules, scen, tmp))
    print(f"wrote schedules for {len(schedules.instances)} test instances -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    scenario_io.check_system_name(args.system, "--system")
    scen = parse_scenario(args.scenario)
    splits = _resolve_splits(scen, args.splits, args.seed)
    if evaluation.RULES[args.mode]["splits"] == "one":
        pairs = [(_pick_split(splits, args.split_id), Path(args.predictions))]
    else:
        pred_root = Path(args.predictions)
        if not pred_root.is_dir():
            raise ValueError(f"{args.mode} evaluation expects --predictions DIR with one file per split")
        pairs = [(split, pred_root / f"predictions_split{split.split_id}.csv") for split in splits]
    reports: list[ScoreReport] = []
    for split, path in pairs:
        if not path.is_file():
            raise ValueError(f"missing prediction file {path}")
        schedules = scenario_io.parse_predictions(path, scen)
        reports.append(score_system(scen, split, schedules, system=args.system))
    overall = aggregate(reports, mode=args.mode)
    summary = {
        "system": args.system,
        "scenario": scen.id,
        "mode": args.mode,
        "aggregate_gap": overall,
        "reports": [evaluation.report_to_dict(r) for r in reports],
    }
    _write(args.out, ".csv", lambda tmp: scenario_io.write_report_csv(reports, tmp))
    if args.json:
        _write(args.out, ".json", lambda tmp: scenario_io.dump_json(summary, tmp))
    print(f"{args.system} on {scen.id} [{args.mode}]: gap {overall:.6f}")
    return EXIT_OK


def build_comparison(rows, mode: str, ooc=(), alpha: float = 0.05) -> dict:
    """Merge report rows into the comparison document used by ``compare``.

    ``rows`` is a list of (system, scenario, split, metric, value) tuples.
    The score of a system on a scenario is its
    :func:`~asbench.evaluation.headline_gaps` entry: the designated gap
    (2017: PAR10 or quality gap; 2015: the mean of the three metric gaps),
    averaged over splits.
    """
    stats.check_alpha(alpha)
    cells = evaluation.headline_gaps(rows, mode)
    systems = list(dict.fromkeys(row[0] for row in rows))
    scenarios = list(dict.fromkeys(row[1] for row in rows))
    ooc = set(ooc)
    if not ooc <= set(systems):
        raise ValueError(f"--ooc names no system in the reports: {sorted(ooc - set(systems))!r}")
    missing = [(system, scen) for scen in scenarios for system in systems if (system, scen) not in cells]
    if missing:
        raise ValueError("no designated gap rows for {!r} on {!r}".format(*missing[0]))
    matrix = [[cells[system, scen] for system in systems] for scen in scenarios]
    ranked = [s for s in systems if s not in ooc]
    if not ranked:
        raise ValueError("every system is out of competition; nothing to rank")
    ranked_matrix = [[row[systems.index(s)] for s in ranked] for row in matrix]
    mins, meta_vbs = stats.virtual_best_selector(ranked_matrix)
    avg_gap = {system: math.fsum(row[c] for row in matrix) / len(scenarios) for c, system in enumerate(systems)}
    ranks = stats.rank_table(ranked_matrix)
    avg_rank = ranks.mean(axis=0)
    doc = {
        "mode": mode,
        "alpha": alpha,
        "systems": systems,
        "ooc": [s for s in systems if s in ooc],
        "scenarios": scenarios,
        "scores": matrix,
        "avg_gap": avg_gap,
        "meta_vbs": {"per_scenario": mins.tolist(), "mean": meta_vbs},
        "friedman_statistic": None,
        "friedman_p": None,
        "critical_distance": None,
        "cd_diagram": None,
        "per_scenario_ranks": ranks.tolist(),
        "avg_rank": {s: float(r) for s, r in zip(ranked, avg_rank)},
    }
    # the Friedman/Nemenyi machinery needs at least 2 systems, 2 scenarios,
    # and a tabulated critical value; smaller comparisons keep ranks only
    if 2 <= len(ranked) <= 20 and len(scenarios) >= 2:
        cd = stats.nemenyi_cd(len(ranked), len(scenarios), alpha)
        statistic, p = stats.friedman_test(ranks)
        analysis = {"alpha": alpha, "critical_distance": cd, "friedman_statistic": statistic, "friedman_p": p}
        doc.update(analysis)
        doc["cd_diagram"] = {**analysis, **stats.cd_diagram_data(ranked, avg_rank, cd)}
    return doc


def cmd_compare(args) -> int:
    rows = []
    for path in args.reports:
        rows.extend(scenario_io.read_report_csv(path))
    doc = build_comparison(rows, mode=args.mode, ooc=args.ooc or (), alpha=args.alpha)
    systems, scenarios, ranked = doc["systems"], doc["scenarios"], list(doc["avg_rank"])
    scores = [[scen, *map(repr, row)] for scen, row in zip(scenarios, doc["scores"])]
    scores.append(["__avg_gap__", *(repr(doc["avg_gap"][s]) for s in systems)])
    scores.append(["__meta_vbs__", repr(doc["meta_vbs"]["mean"])] + [""] * (len(systems) - 1))
    ranks = [[scen, *map(repr, row)] for scen, row in zip(scenarios, doc["per_scenario_ranks"])]
    ranks.append(["__avg_rank__", *(repr(doc["avg_rank"][s]) for s in ranked)])
    cd = doc["cd_diagram"] or {
        "applies": False,
        "reason": "Friedman/Nemenyi needs 2 to 20 ranked systems and 2 or more scenarios; the "
        f"reports rank {len(ranked)} system(s) on {len(scenarios)} scenario(s)",
    }
    _write(args.out, "_scores.csv", lambda tmp: scenario_io.write_csv(tmp, ["scenario", *systems], scores))
    _write(args.out, "_ranks.csv", lambda tmp: scenario_io.write_csv(tmp, ["scenario", *ranked], ranks))
    _write(args.out, "_cd.json", lambda tmp: scenario_io.dump_json(cd, tmp))
    if args.json:
        _write(args.out, ".json", lambda tmp: scenario_io.dump_json(doc, tmp))
    for system, gap in sorted(doc["avg_gap"].items(), key=lambda kv: kv[1]):
        rank = doc["avg_rank"].get(system)
        rank_text = f"{rank:.1f}" if rank is not None else "N/A (ooc)"
        print(f"{system}: avg gap {gap:.3f}, avg rank {rank_text}")
    print(f"meta-VBS mean gap: {doc['meta_vbs']['mean']:.3f}")
    return EXIT_OK


def cmd_seed_study(args) -> int:
    if "seed" in _hp_keys(args.hp):
        raise ValueError("seed-study sets each fit's seed from --seed; drop seed from --hp")
    scen, split = _load(args)
    hp0 = Hyperparameters.from_pairs(args.hp or [])
    # the presolver and the training set do not depend on the seed
    prefix, train = prepare_training(scen, split.train, hp0, mode=args.mode)
    samples = []
    for offset in range(args.n_seeds):
        hp = replace(hp0, seed=args.seed + offset)
        model = fit_prepared(prefix, train, args.selector, hp)
        schedules = predict_batch(model, scen, split.test)
        report = score_system(scen, split, schedules, system=args.selector)
        gap = report_gap(report, args.mode)
        if gap is None:
            raise ValueError("gap undefined on this scenario (SBS equals VBS)")
        samples.append(gap)
    query = samples[0]
    quantile = stats.ecdf(samples, query)
    points = stats.ecdf_points(samples)
    seed_rows = [[args.seed + offset, repr(gap)] for offset, gap in enumerate(samples)]
    _write(args.out, "_samples.csv", lambda tmp: scenario_io.write_csv(tmp, ["seed", "gap"], seed_rows))
    ecdf_rows = [[repr(x), repr(f)] for x, f in points]
    _write(args.out, "_ecdf.csv", lambda tmp: scenario_io.write_csv(tmp, ["gap", "cumulative_fraction"], ecdf_rows))
    summary = {
        "selector": args.selector,
        "scenario": scen.id,
        "n_seeds": args.n_seeds,
        "first_seed_gap": query,
        "quantile_of_first_seed": quantile,
    }
    _write(args.out, ".json", lambda tmp: scenario_io.dump_json(summary, tmp))
    print(f"first seed gap {query:.6f} sits at quantile {quantile:.6f} of {args.n_seeds} seeds")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, split=True, hp=False, mode=True):
    p.add_argument("--scenario", required=True, help="scenario bundle directory")
    if split:
        p.add_argument(
            "--splits",
            default="file",
            help="'file' (bundle splits), 'bootstrap:N', or 'holdout:N[:FRACTION]'",
        )
        p.add_argument("--split-id", type=int, default=0, help="which split to use")
        p.add_argument("--seed", type=int, default=0, help="random seed")
    if hp:
        p.add_argument("--hp", action="append", metavar="KEY=VALUE", help="hyperparameter override")
    if mode:
        p.add_argument(
            "--mode",
            choices=tuple(evaluation.RULES),
            default="oasc2017",
            help="competition rule set",
        )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asbench",
        description="benchmark harness for per-instance algorithm selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario bundle against the model invariants")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("baselines", help="portfolio size, SBS/VBS means, improvement factor")
    _add_common(p, split=False, mode=False)
    p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("train", help="fit a selector on a split's training instances")
    _add_common(p, hp=True)
    p.add_argument("--selector", required=True, choices=selectors.SELECTOR_KINDS)
    p.add_argument("--feature-groups", help="comma list restricting the feature groups used")
    p.add_argument("--out", required=True, help="model artifact path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit schedules for a split's test instances")
    _add_common(p, mode=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="prediction file path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against recorded data")
    _add_common(p)
    p.add_argument("--predictions", required=True, help="prediction file (2017) or directory (2015)")
    p.add_argument("--system", default="system", help="system name for the report")
    p.add_argument("--out", required=True, help="report path prefix")
    p.add_argument("--json", action="store_true", help="also write PREFIX.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="rank systems from evaluation reports")
    p.add_argument("reports", nargs="+", help="report CSV files from evaluate")
    p.add_argument("--ooc", action="append", help="system scored but excluded from ranking")
    p.add_argument("--alpha", type=float, default=0.05, choices=sorted(stats._Q_CRIT), help="significance level")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--mode", choices=tuple(evaluation.RULES), default="oasc2017")
    p.add_argument("--json", action="store_true", help="also write PREFIX.json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("seed-study", help="refit across seeds and report the score's ECDF")
    _add_common(p, hp=True)
    p.add_argument("--selector", required=True, choices=selectors.SELECTOR_KINDS)
    p.add_argument("--n-seeds", type=_positive_int, required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_seed_study)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
