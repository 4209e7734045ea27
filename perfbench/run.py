"""Replay benchmark for asbench: one seeded workload through the real CLI chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It imports ``asbench`` from the
checkout's ``src/`` and exits non-zero without printing a result when that
is missing. Workloads and their rationale are in ``workloads.py``.

The load is a closed loop with one client: one process, no threads. Each
command runs in-process through ``asbench.cli.main`` after the previous one
returns, the way a researcher's script would issue them. A repetition is the
set-up (``write_scenario`` of the generated bundle, then ``asbench
validate``) followed by the workload's chain. Before each command the
garbage collector runs outside the timing, so every command starts clean as
it would in its own process; ``pipeline_s`` sums the chain's command times.

Host-speed correction: the shared 2-core host this benchmark was sized on
changes speed by 1.5x and more over minutes, and every command of a run
slows or speeds up with it alike (ten wide-replay runs in a row drifted
from 3.3 s to 2.1 s per repetition, so no median over one run could hide
it). So before each command, outside its timing, a fixed probe runs
(``probe``), and each repetition's times are scaled by
``PROBE_REFERENCE_S`` over the median probe time of that repetition: every
timing metric is the wall time the command would take at the host speed at
which the probe takes ``PROBE_REFERENCE_S``. A change to the program moves
the metric as it moves the wall time; a change of host speed mostly does
not. The raw wall times and the probe times are kept in the result file and
printed.

The first repetition is a warm-up: the outputs are verified on it and its
timings are left out. Timed repetitions follow until the next would overrun
``--seconds`` (the warm-up included), at least one. Every timing is reported
as the median over the timed repetitions.

``--trace 0`` runs untraced and reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones (``tracing.py``), plus the tracing overhead: traced minus
untraced ``pipeline_s``.

Checks, which decide ``failed``: every command exits 0; an exact replay of
each prediction file (``oracle.py``) reproduces the ``par10`` of the matching
``evaluate`` report within 1e-9 relative, and, with the single and virtual
best solvers replayed the same way, its ``gap_par10`` within 1e-9 (relative
above 1); the learnability gate holds for the
gated selectors; ``compare`` and ``seed-study`` agree with the reports; and
every later repetition, traced or not, writes byte-identical outputs (sha256)
to the first.

Known gap: every workload compares systems on one scenario, so ``compare``
ranks them but skips Friedman/Nemenyi and writes ``null`` to
``compare_cd.json``. The ``stats`` layer runs in milliseconds here and its
Friedman/Nemenyi path is not measured.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A result file with the run
metadata, per-repetition timings, percentiles, digests and check messages is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one process, no threads: keep numpy's BLAS from starting a thread pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

TIMINGS = ("pipeline_s", "train_s", "predict_s", "evaluate_s", "seed_study_s", "setup_s")
# the probe's time on an uncontended core of the 2-core x86-64 machine
# (Python 3.11, numpy 2.4) the bounds were set on; reported times are
# scaled to it
PROBE_REFERENCE_S = 0.005
_PROBE_KEYS = tuple(f"k{i}" for i in range(400))
_PROBE_ARRAY = np.linspace(0.0, 1.0, 60)
END_TO_END = {**{name: "s" for name in TIMINGS}, "peak_rss_mb": "MiB"}
REL_TOL = 1e-9
# per-layer metrics reported beside tracing.layer_metrics: the selection
# quality (deterministic, so it shows a faster-but-wrong change) and the
# tracing overhead, traced minus untraced pipeline_s
EXTRA_LAYER_METRICS = ("evaluation.gap_par10", "trace.overhead_s")


def import_asbench():
    """Import asbench from this checkout's ``src/`` and nowhere else."""
    package = SRC / "asbench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} is missing; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import asbench
    import asbench.cli

    if Path(asbench.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported asbench from {asbench.__file__}, not {package}")
    return asbench


# ---------------------------------------------------------------------------
# one repetition


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe() -> float:
    """Seconds a fixed computation takes, half pure Python (dict updates,
    float arithmetic, tuple scans) and half calls on small numpy arrays: the
    two kinds of work asbench's loops are made of. On the shared host a mix
    of both tracked the program's slowdowns closer than either alone."""
    table: dict[str, float] = {}
    acc = 0.0
    start = time.perf_counter()
    for r in range(24):
        for i, key in enumerate(_PROBE_KEYS):
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += table[key] / (1.0 + i)
        acc += _PROBE_KEYS.index(_PROBE_KEYS[-1 - r % 12])
    for _ in range(300):
        order = np.argsort(_PROBE_ARRAY[::-1])
        acc += float(_PROBE_ARRAY[order[:30]].mean()) + int(np.searchsorted(_PROBE_ARRAY, 0.5))
    return time.perf_counter() - start


def settle(probes: list[float]) -> None:
    """Before a timed step: collect the garbage earlier commands left, so
    each starts with a fresh collector as a separate process would, then
    probe the host speed. Neither is timed."""
    gc.collect()
    probes.append(probe())


def run_command(cli, tracer, kind, argv):
    """One CLI command in-process; returns (exit code, seconds, output)."""
    sink = io.StringIO()
    span = tracer.command(kind) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end(span)
    return code, seconds, sink.getvalue()


def run_repetition(asbench, workloads, workload, scenario, rep_dir: Path, tracer=None):
    """Set-up plus the chain; returns the repetition's record."""
    bundle, out = rep_dir / "bundle", rep_dir / "out"
    commands, probes = [], []

    settle(probes)
    span = tracer.command("setup") if tracer else None
    start = time.perf_counter()
    asbench.scenario_io.write_scenario(scenario, bundle)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.end(span)
    settle(probes)
    code, seconds, text = run_command(asbench.cli, tracer, "validate", ["validate", "--scenario", str(bundle)])
    setup_s += seconds
    bundle_files = sorted(p.name for p in bundle.iterdir())
    commands.append({"kind": "validate", "label": "setup", "code": code, "seconds": seconds,
                     "outputs": {}, "text": text, "problems": []})

    for kind, label, argv, outputs in workloads.chain(workload, str(bundle), str(out)):
        settle(probes)
        code, seconds, text = run_command(asbench.cli, tracer, kind, argv)
        commands.append({"kind": kind, "label": label, "code": code, "seconds": seconds,
                         "outputs": dict.fromkeys(outputs), "text": text, "problems": []})

    commands[0]["outputs"] = {f"bundle/{name}": sha256(bundle / name) for name in bundle_files}
    for cmd in commands[1:]:
        for name in cmd["outputs"]:
            path = out / name
            cmd["outputs"][name] = sha256(path) if path.is_file() else None
    wall = {"pipeline_s": sum(c["seconds"] for c in commands[1:]), "setup_s": setup_s}
    for kind in ("train", "predict", "evaluate", "seed_study"):
        wall[f"{kind}_s"] = sum(c["seconds"] for c in commands if c["kind"] == kind)
    probe_s = statistics.median(probes)
    return {"traced": tracer is not None, "timings": {k: v * PROBE_REFERENCE_S / probe_s for k, v in wall.items()},
            "wall": wall, "probe_s": probe_s, "commands": commands, "out": out}


# ---------------------------------------------------------------------------
# output checks


def read_report(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row[3]: float(row[4]) for row in csv.reader(fh) if row and not row[0].startswith("#")
                and row[0] != "system"}


def verify(oracle, workloads, workload, scenario, rep) -> dict[str, float]:
    """Attach problems to the first repetition's commands; return PAR10 gaps."""
    out = rep["out"]
    split = scenario.splits[0]
    gaps: dict[str, float] = {}

    def check(cmd, test_fn):
        try:
            problem = test_fn()
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            cmd["problems"].append(problem)

    def evaluate_check(cmd):
        sel = cmd["label"]
        report = read_report(out / f"{sel}.csv")
        exact, exact_gap = oracle.score(scenario, out / f"{sel}.predictions.csv", split)
        gaps[sel] = report["gap_par10"]
        if abs(report["par10"] - exact) > REL_TOL * abs(exact):
            return f"par10 {report['par10']!r} but exact replay gives {float(exact)!r}"
        if exact_gap is None or abs(gaps[sel] - exact_gap) > REL_TOL * max(1, abs(exact_gap)):
            shown = None if exact_gap is None else float(exact_gap)
            return f"gap_par10 {gaps[sel]!r} but the exact SBS/VBS replay gives {shown!r}"
        if sel in workload.gated and gaps[sel] > workloads.GATE_GAP:
            return f"learnability gate: PAR10 gap {gaps[sel]:.4f} > {workloads.GATE_GAP}"
        return None

    def compare_check():
        with open(out / "compare_scores.csv", newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))[:2]
        wrong = [s for s, v in zip(header[1:], row[1:]) if float(v) != gaps[s]]
        return f"compare scores differ from the reports for {wrong}" if wrong else None

    def seed_study_check(cmd):
        sel, n_seeds = workload.seed_study
        summary = json.loads((out / "seeds.json").read_text(encoding="utf-8"))
        with open(out / "seeds_samples.csv", newline="", encoding="utf-8") as fh:
            samples = len(list(csv.reader(fh))) - 1
        if samples != n_seeds:
            return f"{samples} seed samples, expected {n_seeds}"
        if summary["first_seed_gap"] != gaps[sel]:
            return f"first seed gap {summary['first_seed_gap']!r} != evaluate gap {gaps[sel]!r}"
        return None

    for cmd in rep["commands"]:
        if cmd["kind"] == "evaluate":
            check(cmd, lambda: evaluate_check(cmd))
    for cmd in rep["commands"]:
        if cmd["kind"] == "compare":
            check(cmd, compare_check)
        elif cmd["kind"] == "seed_study":
            check(cmd, lambda: seed_study_check(cmd))
    return gaps


def grade(reps) -> tuple[int, int]:
    """Mark failed commands in place; return (attempted, failed)."""
    first = reps[0]["commands"]
    attempted = failed = 0
    for rep in reps:
        for i, cmd in enumerate(rep["commands"]):
            if cmd["code"] != 0:
                cmd["problems"].append(f"exit code {cmd['code']}: {cmd['text'][-300:]!r}")
            if None in cmd["outputs"].values():
                cmd["problems"].append("missing output")
            elif rep is not reps[0] and cmd["outputs"] != first[i]["outputs"]:
                cmd["problems"].append("output bytes differ from the first repetition")
            attempted += 1
            failed += bool(cmd["problems"])
    return attempted, failed


# ---------------------------------------------------------------------------
# reporting


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n, "samples": samples}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"learners.rows_per_predict_call": "rows/call", "selectors.model_bytes": "B",
            "evaluation.gap_par10": "ratio"}.get(name, "count")


def metadata(workload, seed, trace):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if the
    checkout is not a git repository (``source_sha256`` still names the code)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    asbench = import_asbench()
    import oracle
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    scenario = workload.build(args.seed, workload.n)
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    pattern = (False, True) if args.trace else (False,)

    reps, spans = [], []

    def repetition(traced):
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            rep = run_repetition(asbench, workloads, workload, scenario, run_dir / f"rep{len(reps)}", tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            scale = PROBE_REFERENCE_S / rep["probe_s"]  # the same host-speed correction
            rep["layers"] = {name: value * scale if unit_of(name) == "s" else value
                             for name, value in tracing.layer_metrics(tracer).items()}
            spans.append(tracer.spans)
        reps.append(rep)
        return rep

    try:
        start = time.perf_counter()
        # warm-up: the first repetition fills the caches, is the one the
        # outputs are verified on and holds the reference digests; its
        # timings are left out of every metric
        warmup = repetition(False)
        warmup["warmup"] = True
        gaps = verify(oracle, workloads, workload, scenario, warmup)
        shutil.rmtree(warmup["out"].parent)
        timed_from = time.perf_counter()
        rounds = 0
        while True:
            for traced in pattern:
                shutil.rmtree(repetition(traced)["out"].parent)
            rounds += 1
            now = time.perf_counter()
            if now - start + (now - timed_from) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = grade(reps)
    plain = [r for r in reps if not r["traced"] and not r.get("warmup")]
    summary = {name: summarize([r["timings"][name] for r in plain]) for name in TIMINGS}
    wall = {name: summarize([r["wall"][name] for r in plain]) for name in TIMINGS}
    probe_s = summarize([r["probe_s"] for r in plain])
    gap_par10 = statistics.fmean(gaps.values()) if gaps else 0.0  # no gaps: failed > 0

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        metrics["evaluation.gap_par10"] = gap_par10
        metrics["trace.overhead_s"] = (
            statistics.median(r["timings"]["pipeline_s"] for r in traced) - summary["pipeline_s"]["median"]
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {name: summary[name]["median"] for name in TIMINGS}
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    result = {
        **metadata(workload.name, args.seed, args.trace),
        "why": workload.why,
        "idle": workload.idle,
        "repetitions": len(reps),
        "timings": summary,
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_s": probe_s,
        "wall_timings": wall,
        "gap_par10": gap_par10,
        "gaps": gaps,
        "ops": {"attempted": attempted, "failed": failed},
        "digests": {f"{c['kind']}:{c['label']}": c["outputs"] for c in reps[0]["commands"]},
        "problems": [
            {"repetition": i, "command": f"{c['kind']}:{c['label']}", "problems": c["problems"]}
            for i, r in enumerate(reps) for c in r["commands"] if c["problems"]
        ],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for rep_no, rep_spans in enumerate(spans):
                for s in rep_spans:
                    fh.write(json.dumps([rep_no, *s]) + "\n")

    print(f"{workload.name} seed {args.seed}: {len(reps)} repetitions, the first a warm-up")
    for name, stats in summary.items():
        tail = stats["tail"]
        tail_text = f"p{tail['percentile']} {tail['value']:.4f}" if tail else "no percentile has ten samples beyond it"
        print(f"  {name:<14} median {stats['median']:.4f} s   n={stats['n']}  {tail_text}"
              f"   (wall median {wall[name]['median']:.4f} s)")
    print(f"  {'probe':<14} median {probe_s['median'] * 1e3:.3f} ms (reference {PROBE_REFERENCE_S * 1e3:g} ms)")
    print(f"  {'peak_rss_mb':<14} {peak_rss_mb:.1f} MiB")
    print(f"  {'gap_par10':<14} {gap_par10:.6f} ratio (mean over {sorted(gaps)})")
    print(f"  {'ops_failed':<14} {failed / attempted:.4f} fraction ({failed} of {attempted} commands)")
    combined = hashlib.sha256(json.dumps(result["digests"], sort_keys=True).encode()).hexdigest()
    print(f"  artifacts sha256 {combined} (per file in {stem.with_suffix('.json').relative_to(ROOT)})")
    for item in result["problems"][:10]:
        print(f"  problem: {item}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
