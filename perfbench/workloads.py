"""The benchmark's workloads: seeded scenario generators and CLI chains.

Each workload is one generated scenario bundle plus the chain of ``asbench``
commands a researcher's script would run on it: train, predict and evaluate
per selector in the OASC 2017 mode, then ``compare`` and a ``seed-study``.
Every input comes from the workload's base seed combined with the run's
``--seed``; nothing is downloaded.

The sizes are smaller than the 500/200 learnable, 8,000-instance wide and
1,200 x 30 presolve scenarios first sized for this benchmark: every run of
every workload, about seventy, has to finish within one hour on a 2-core
machine, and each run takes the median of about ten repetitions of the
chain, so one repetition takes 2-4 s. The shapes, and so the layer that
dominates each workload, are kept.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from asbench import FeatureGroup, RunRecord, Scenario, Split


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n`` is the instance count handed to ``build``; the self-tests shrink
    it. ``train_hp`` goes to every ``train`` and to the ``seed-study``.
    ``gated`` selectors must keep the learnability gate (PAR10 gap at most
    ``GATE_GAP``).
    """

    name: str
    why: str
    idle: str
    n: int
    build: Callable[[int, int], Scenario]
    selectors: tuple[str, ...]
    train_hp: tuple[str, ...]
    seed_study: tuple[str, int]
    gated: tuple[str, ...] = ()


GATE_GAP = 0.2


def _split(instances, rng):
    """One stored split: a random 2/3 of the instances train, the rest test."""
    n = len(instances)
    perm = rng.permutation(n)
    cut = round(n * 2 / 3)
    train = tuple(instances[i] for i in sorted(perm[:cut].tolist()))
    test = tuple(instances[i] for i in sorted(perm[cut:].tolist()))
    return (Split(split_id=0, train=train, test=test),)


def learnable(seed: int, n: int) -> Scenario:
    """``tests/gen.py::learnable_scenario`` shape: 3 algorithms, 4 features.

    The best algorithm is a function of the first two features (f0 < 0 picks
    A0, else f1 < 0 picks A1, else A2); it solves in 10-100 s and the others
    take 20 times longer, which usually means a timeout at the 1000 s
    cutoff. The first 7/9 of the instances train, the rest test.
    """
    rng = np.random.default_rng([77, seed])  # workload base seed, run seed
    cutoff = 1000.0
    algorithms = ("A0", "A1", "A2")
    instances = tuple(f"x{j}" for j in range(n))
    features, runs = {}, {}
    for inst in instances:
        f0, f1 = rng.uniform(-1, 1, size=2)
        noise = rng.normal(size=2)
        features[inst] = (float(f0), float(f1), float(noise[0]), float(noise[1]))
        best = 0 if f0 < 0 else (1 if f1 < 0 else 2)
        fast = float(rng.uniform(10, 100))
        for a, algo in enumerate(algorithms):
            slow = fast * 20
            if a == best:
                runs[(inst, algo)] = RunRecord(fast, "ok")
            elif slow <= cutoff:
                runs[(inst, algo)] = RunRecord(slow, "ok")
            else:
                runs[(inst, algo)] = RunRecord(cutoff, "timeout")
    n_train = n * 7 // 9
    groups = (FeatureGroup("all", (0, 1, 2, 3), cost={i: 1.0 for i in instances}),)
    splits = (Split(split_id=0, train=instances[:n_train], test=instances[n_train:]),)
    return Scenario(
        id="learnable",
        objective="runtime",
        direction="minimize",
        cutoff=cutoff,
        algorithms=algorithms,
        instances=instances,
        runs=runs,
        features=features,
        feature_names=("informative_a", "informative_b", "noise_a", "noise_b"),
        feature_groups=groups,
        splits=splits,
    )


def _runtime_table(rng, n, k, d, cutoff, scale, spread, crash_rate):
    """Lognormal runtimes driven by the features, so selectors can learn.

    Each algorithm has a random direction in feature space; its log runtime
    falls where an instance's features point that way. Returns
    (features array, runs dict keyed by (row, column)).
    """
    z = rng.normal(size=(n, d))
    w = rng.normal(size=(k, d)) / np.sqrt(d)
    hardness = 0.6 * z[:, 0] + 0.3 * rng.normal(size=n)
    log_t = np.log(scale) + hardness[:, None] - 1.5 * (z @ w.T) + spread * rng.normal(size=(n, k))
    times = np.exp(log_t)
    crash = rng.random((n, k)) < crash_rate
    crash_at = times * rng.uniform(0.05, 0.9, size=(n, k))
    runs = {}
    for i in range(n):
        for a in range(k):
            t = float(times[i, a])
            if crash[i, a]:
                runs[(i, a)] = RunRecord(min(float(crash_at[i, a]), cutoff), "crash")
            elif t > cutoff:
                runs[(i, a)] = RunRecord(cutoff, "timeout")
            else:
                runs[(i, a)] = RunRecord(t, "ok")
    return z, runs


def _runtime_scenario(scenario_id, rng, n, k, d, cutoff, scale, spread, crash_rate, missing_rate, costs):
    z, table = _runtime_table(rng, n, k, d, cutoff, scale, spread, crash_rate)
    instances = tuple(f"i{j:05d}" for j in range(n))
    algorithms = tuple(f"a{a:02d}" for a in range(k))
    runs = {(instances[i], algorithms[a]): rec for (i, a), rec in table.items()}
    missing = rng.random(n) < missing_rate
    gap_col = rng.integers(0, d, size=n)
    features = {}
    for i, inst in enumerate(instances):
        vec = [float(x) for x in z[i]]
        if missing[i]:
            vec[int(gap_col[i])] = None
        features[inst] = tuple(vec)
    half = d // 2
    groups = tuple(
        FeatureGroup(
            name,
            tuple(range(lo, hi)),
            cost={inst: float(c) for inst, c in zip(instances, rng.uniform(lo_c, hi_c, size=n))},
        )
        for name, (lo, hi), (lo_c, hi_c) in zip(("base", "probe"), ((0, half), (half, d)), costs)
    )
    return Scenario(
        id=scenario_id,
        objective="runtime",
        direction="minimize",
        cutoff=cutoff,
        algorithms=algorithms,
        instances=instances,
        runs=runs,
        features=features,
        feature_names=tuple(f"f{j:02d}" for j in range(d)),
        feature_groups=groups,
        splits=_split(instances, rng),
    )


def wide(seed: int, n: int) -> Scenario:
    """Many instances, 10 algorithms, 20 features in 2 costed groups.

    About 5% of runs crash, some time out at the 3600 s cutoff, and about
    5% of instances miss one feature value. One stored 2/3 train split.
    """
    rng = np.random.default_rng([8000, seed])  # workload base seed, run seed
    return _runtime_scenario(
        "wide", rng, n, k=10, d=20, cutoff=3600.0, scale=300.0, spread=0.8,
        crash_rate=0.05, missing_rate=0.05, costs=((0.5, 2.0), (5.0, 20.0)),
    )


def portfolio(seed: int, n: int) -> Scenario:
    """30 algorithms, 20 features, lognormal runtimes with a wide spread.

    Many distinct successful times fall under the 10% presolve budget
    (100 s of the 1000 s cutoff), which is what the presolver's candidate
    search iterates over.
    """
    rng = np.random.default_rng([1200, seed])  # workload base seed, run seed
    return _runtime_scenario(
        "portfolio", rng, n, k=30, d=20, cutoff=1000.0, scale=200.0, spread=1.5,
        crash_rate=0.02, missing_rate=0.0, costs=((0.1, 0.5), (1.0, 3.0)),
    )


# Why each workload exists, and which layers it should leave idle. A change
# to one layer names a workload that exercises it and one that bypasses it;
# on the second the prediction is no change.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="learnable-forests",
            why=(
                "Forest growth and per-row forest prediction are almost all of the time: "
                "stacking and regression dominate train_s, regression and stacking "
                "predict_s, and the seed-study refits pairwise forests. Parsing and "
                "scoring take well under a tenth of a second per command. Moves with "
                "learners fit/predict and selectors fit/predict."
            ),
            idle=(
                "scenario_io and evaluation (small bundle, one-step schedules) and the "
                "presolver, which is off so every seed trains its forests on all rows"
            ),
            n=450,  # 350 train, 100 test: the gate keeps a margin on every seed tried
            build=learnable,
            selectors=("regression", "pairwise", "cluster", "stacking", "sunny"),
            # 5 trees instead of 100 keep a repetition near 3 s, so a run
            # takes a median over a dozen; the per-tree work, and so which
            # layer dominates, is unchanged
            train_hp=("n_trees=5", "presolve_budget_fraction=0"),
            seed_study=("pairwise", 2),
            gated=("regression", "pairwise", "stacking"),
        ),
        Workload(
            name="wide-replay",
            why=(
                "Every command re-parses the 20,000-row run table, and score_system "
                "replays 667 one-step schedules whose per-instance lookups scan the "
                "instance tuple (the quadratic term). The seed-study is the N-fits path: "
                "training-set build, k-means fit and scoring, twice."
            ),
            idle=(
                "learners (k-means and k-NN only) and the presolver (presolve is off); "
                "a fix to the per-step walk of long schedules should leave it flat"
            ),
            n=2000,
            build=wide,
            selectors=("cluster", "sunny"),
            train_hp=("presolve_budget_fraction=0",),
            seed_study=("cluster", 2),
        ),
        Workload(
            name="portfolio-presolve",
            why=(
                "build_presolver is most of train_s and of the one-seed seed_study_s: its candidate "
                "search grows as n^2 * k. Sunny schedules average about 35 steps, so "
                "replay and the prediction files see few instances with long schedules, "
                "the opposite of wide-replay."
            ),
            idle=(
                "forest learners, and the per-instance lookups that dominate "
                "wide-replay: a fix to those should leave this workload flat"
            ),
            n=420,
            build=portfolio,
            selectors=("sunny",),
            train_hp=(),
            seed_study=("sunny", 1),
        ),
    )
}


def chain(workload: Workload, bundle: str, out: str):
    """The workload's commands, in order, as (kind, label, argv, outputs).

    ``outputs`` are the files the command writes, relative to ``out``.
    """
    hp = [arg for pair in workload.train_hp for arg in ("--hp", pair)]
    steps = []
    for sel in workload.selectors:
        model, preds = f"{sel}.model", f"{sel}.predictions.csv"
        steps += [
            ("train", sel, ["train", "--scenario", bundle, "--selector", sel,
                            "--out", f"{out}/{model}", *hp], [model]),
            ("predict", sel, ["predict", "--scenario", bundle, "--model", f"{out}/{model}",
                              "--out", f"{out}/{preds}"], [preds]),
            ("evaluate", sel, ["evaluate", "--scenario", bundle, "--predictions", f"{out}/{preds}",
                               "--system", sel, "--out", f"{out}/{sel}"], [f"{sel}.csv"]),
        ]
    reports = [f"{out}/{sel}.csv" for sel in workload.selectors]
    steps.append(("compare", "all", ["compare", *reports, "--out", f"{out}/compare"],
                  ["compare_scores.csv", "compare_ranks.csv", "compare_cd.json"]))
    sel, n_seeds = workload.seed_study
    steps.append(("seed_study", sel, ["seed-study", "--scenario", bundle, "--selector", sel,
                                      "--n-seeds", str(n_seeds), "--out", f"{out}/seeds", *hp],
                  ["seeds_samples.csv", "seeds_ecdf.csv", "seeds.json"]))
    return steps
