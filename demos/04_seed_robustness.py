"""How lucky was one particular seed? Refit a randomized selector across
many seeds and place the first seed's score on the empirical CDF of all of
them, the same way single-split competition results can be audited."""

import numpy as np

from asbench import (
    FeatureGroup,
    Hyperparameters,
    RunRecord,
    Scenario,
    Split,
    ecdf,
    ecdf_points,
    fit_system,
    predict_batch,
    report_gap,
    score_system,
)

rng = np.random.default_rng(11)
cutoff = 500.0
algorithms = ("quick", "brute")
instances = tuple(f"p{j}" for j in range(120))
features = {}
runs = {}
for inst in instances:
    x = float(rng.uniform(-1, 1))
    features[inst] = (x, float(rng.normal()))
    fast, slow = rng.uniform(5, 40), rng.uniform(100, 450)
    # a noisy decision boundary keeps the learning problem genuinely random
    winner = "quick" if x + 0.4 * rng.normal() < 0.1 else "brute"
    for algo in algorithms:
        runs[(inst, algo)] = RunRecord(fast if algo == winner else slow)

scenario = Scenario(
    id="robustness",
    objective="runtime",
    direction="minimize",
    cutoff=cutoff,
    algorithms=algorithms,
    instances=instances,
    runs=runs,
    features=features,
    feature_names=("margin", "noise"),
    feature_groups=(FeatureGroup("all", (0, 1), cost={i: 0.5 for i in instances}),),
    splits=(Split(0, train=instances[:90], test=instances[90:]),),
)
split = scenario.splits[0]

samples = []
for seed in range(40):
    hp = Hyperparameters(n_trees=3, seed=seed)
    model = fit_system(scenario, split.train, "regression", hp, mode="oasc2017")
    schedules = predict_batch(model, scenario, split.test)
    report = score_system(scenario, split, schedules, system="regression")
    samples.append(report_gap(report, mode="oasc2017"))

first = samples[0]
quantile = ecdf(samples, first)
print(f"gap of seed 0: {first:.4f}")
print(f"fraction of seeds scoring at least as well: {quantile:.3f}")
print(f"gap range across seeds: [{min(samples):.4f}, {max(samples):.4f}]")

print("\necdf support points (every 8th):")
for x, f in ecdf_points(samples)[::8]:
    print(f"  gap <= {x:.4f}: {f:5.2%} of seeds")
