"""The benchmark's exact scorer (``perfbench/oracle.py``) imports the
reference replay from ``tests/oracles.py``; this keeps that import chain
working and its scores equal to the library's."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from asbench import parse_predictions, score_system, write_predictions

from gen import random_scenario, random_schedule

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


def test_exact_score_of_a_prediction_file_matches_score_system(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    scen = random_scenario(3, n_insts=30)
    split = scen.splits[0]
    rng = np.random.default_rng(3)
    path = tmp_path / "pred.csv"
    write_predictions({i: random_schedule(rng, scen) for i in split.test}, scen, path)
    par10, gap = oracle.score(scen, path, split)
    report = score_system(scen, split, parse_predictions(path, scen, require_cover=split.test))
    assert gap is not None
    assert report.metrics["par10"].value == pytest.approx(float(par10), rel=1e-12)
    assert report.metrics["par10"].gap == pytest.approx(float(gap), rel=1e-12)
