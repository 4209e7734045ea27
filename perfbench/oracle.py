"""Independent scoring of prediction files, in exact rational arithmetic.

The prediction file is read here, not by asbench's parser, and the schedules
are replayed on the generated scenario the benchmark holds in memory, never
on the bundle asbench parsed. The step walk, the single best solver and the
virtual best solver come from the exact reference implementations in the
checkout's ``tests/oracles.py``, the ones the test suite cross-checks the
library against, so the repository keeps one reference simulator.
"""

from __future__ import annotations

import csv
import sys
from fractions import Fraction
from pathlib import Path

from asbench.evaluation import FeatureStep, SolverStep

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_sbs, oracle_simulate, oracle_vbs_cost  # noqa: E402

PAR10_FACTOR = 10


def read_schedules(path) -> dict[str, list]:
    """Prediction file rows as per-instance FeatureStep/SolverStep lists."""
    staged: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["instance_id", "step", "kind", "name", "budget"]:
            raise ValueError(f"{path}: unexpected prediction header")
        for inst, step, kind, name, budget in rows:
            if kind == "feature":
                staged.setdefault(inst, []).append((int(step), FeatureStep(group=name)))
            elif kind == "solver":
                staged.setdefault(inst, []).append((int(step), SolverStep(algorithm=name, budget=float(budget))))
            else:
                raise ValueError(f"{path}: unknown step kind {kind!r}")
    return {inst: [s for _, s in sorted(steps, key=lambda p: p[0])] for inst, steps in staged.items()}


def _mean_par10(scenario, test, schedule_of) -> Fraction:
    penalty = PAR10_FACTOR * Fraction(scenario.cutoff)
    total = Fraction(0)
    for inst in test:
        solved, used = oracle_simulate(scenario, inst, schedule_of(inst))
        total += Fraction(used) if solved else penalty
    return total / len(test)


def score(scenario, predictions_path, split) -> tuple[Fraction, Fraction | None]:
    """Exact (mean PAR10, OASC 2017 PAR10 gap) of a prediction file on a split.

    The gap is (system - VBS) / (SBS - VBS): the single best solver is picked
    on the split's training instances and replayed as one full-cutoff run;
    the virtual best solver takes each test instance's cheapest ok run, else
    10x the cutoff. ``None`` when the two references coincide.
    """
    schedules = read_schedules(predictions_path)
    test = list(split.test)
    system = _mean_par10(scenario, test, schedules.__getitem__)
    sbs_step = [SolverStep(algorithm=oracle_sbs(scenario, split.train), budget=scenario.cutoff)]
    sbs = _mean_par10(scenario, test, lambda inst: sbs_step)
    vbs = sum(Fraction(oracle_vbs_cost(scenario, inst)) for inst in test) / len(test)
    gap = (system - vbs) / (sbs - vbs) if sbs != vbs else None
    return system, gap
