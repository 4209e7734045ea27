"""Self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

asbench = run.import_asbench()

import tracing  # noqa: E402  (needs asbench on the path)
import workloads  # noqa: E402

SMALL = {"learnable-forests": 70, "wide-replay": 150, "portfolio-presolve": 60}


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=SMALL[name])


def bundle_bytes(name, seed, where: Path) -> dict[str, bytes]:
    w = small(name)
    asbench.write_scenario(w.build(seed, w.n), where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_byte_identical_bundle(name, tmp_path):
    assert bundle_bytes(name, 5, tmp_path / "a") == bundle_bytes(name, 5, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seed_gives_different_bundle(name, tmp_path):
    assert bundle_bytes(name, 5, tmp_path / "a") != bundle_bytes(name, 6, tmp_path / "b")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_changes_no_artifact_digest(name, tmp_path):
    w = small(name)
    scenario = w.build(3, w.n)
    plain = run.run_repetition(asbench, workloads, w, scenario, tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_repetition(asbench, workloads, w, scenario, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert [c["code"] for c in plain["commands"]] == [0] * len(plain["commands"])
    assert [c["outputs"] for c in traced["commands"]] == [c["outputs"] for c in plain["commands"]]
    assert all(None not in c["outputs"].values() for c in plain["commands"])
    assert tracer.spans and all(s[3] is not None for s in tracer.spans)


def test_timings_are_wall_times_scaled_to_the_reference_probe(tmp_path):
    w = small("portfolio-presolve")
    rep = run.run_repetition(asbench, workloads, w, w.build(2, w.n), tmp_path)
    assert run.probe() > 0 and rep["probe_s"] > 0
    for name in run.TIMINGS:
        assert rep["wall"][name] > 0
        assert rep["timings"][name] == pytest.approx(rep["wall"][name] * run.PROBE_REFERENCE_S / rep["probe_s"])


def test_verify_flags_a_wrong_gap(tmp_path):
    import oracle

    w = small("wide-replay")
    scenario = w.build(4, w.n)
    rep = run.run_repetition(asbench, workloads, w, scenario, tmp_path)
    run.verify(oracle, workloads, w, scenario, rep)
    assert [c["problems"] for c in rep["commands"]] == [[] for _ in rep["commands"]]

    report = rep["out"] / f"{w.selectors[0]}.csv"
    rows = [r.split(",") for r in report.read_text(encoding="utf-8").splitlines()]
    for r in rows:
        if r[3] == "gap_par10":
            r[4] = repr(float(r[4]) + 1e-6)
    report.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    run.verify(oracle, workloads, w, scenario, rep)
    evaluate = next(c for c in rep["commands"] if c["kind"] == "evaluate")
    assert any("gap_par10" in p for p in evaluate["problems"])


def test_uninstall_restores_every_binding():
    before = (asbench.selectors.fit_forest, asbench.learners.Forest.predict, asbench.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    assert asbench.selectors.fit_forest is not before[0]
    assert asbench.selectors.fit_forest is asbench.learners.fit_forest
    tracer.uninstall()
    assert (asbench.selectors.fit_forest, asbench.learners.Forest.predict, asbench.cli.main) == before


def test_benchmark_json_names_every_printed_metric(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    w = small("portfolio-presolve")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_repetition(asbench, workloads, w, w.build(1, w.n), tmp_path, tracer)
    finally:
        tracer.uninstall()
    per_layer = [*tracing.layer_metrics(tracer), *run.EXTRA_LAYER_METRICS]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
