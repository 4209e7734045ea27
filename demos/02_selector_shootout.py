"""Train every selector family on a synthetic scenario whose best algorithm
is a clean function of two features, then score them against the single best
and virtual best solver."""

import numpy as np

from asbench import (
    FeatureGroup,
    Hyperparameters,
    RunRecord,
    Scenario,
    Split,
    fit_system,
    predict_batch,
    report_gap,
    score_system,
)

rng = np.random.default_rng(42)
cutoff = 1000.0
algorithms = ("alpha", "beta", "gamma")
n_train, n_test = 250, 100
instances = tuple(f"inst{j}" for j in range(n_train + n_test))

features = {}
runs = {}
for inst in instances:
    f0, f1 = rng.uniform(-1, 1, size=2)
    features[inst] = (float(f0), float(f1))
    # ground truth: f0 < 0 favors alpha; otherwise f1 decides beta vs gamma
    best = 0 if f0 < 0 else (1 if f1 < 0 else 2)
    fast = float(rng.uniform(10, 80))
    for a, algo in enumerate(algorithms):
        if a == best:
            runs[(inst, algo)] = RunRecord(fast)
        elif fast * 15 <= cutoff:
            runs[(inst, algo)] = RunRecord(fast * 15)
        else:
            runs[(inst, algo)] = RunRecord(cutoff, "timeout")

scenario = Scenario(
    id="shootout",
    objective="runtime",
    direction="minimize",
    cutoff=cutoff,
    algorithms=algorithms,
    instances=instances,
    runs=runs,
    features=features,
    feature_names=("signal_a", "signal_b"),
    feature_groups=(FeatureGroup("all", (0, 1), cost={i: 1.0 for i in instances}),),
    splits=(Split(0, train=instances[:n_train], test=instances[n_train:]),),
)
split = scenario.splits[0]

hp = Hyperparameters(n_trees=30, seed=7)
print(f"{'selector':>12} {'PAR10':>8} {'gap':>6}   (0 = virtual best, 1 = single best)")
report = None
for kind in ("regression", "pairwise", "cluster", "stacking", "sunny"):
    model = fit_system(scenario, split.train, kind, hp, mode="oasc2017")
    schedules = predict_batch(model, scenario, split.test)
    report = score_system(scenario, split, schedules, system=kind)
    gap = report_gap(report, mode="oasc2017")
    print(f"{kind:>12} {report.metrics['par10'].value:8.1f} {gap:6.3f}")

print(f"\nbaselines: SBS PAR10 {report.metrics['par10'].sbs:.1f}, "
      f"VBS PAR10 {report.metrics['par10'].vbs:.1f}")
