"""Compare several systems across many scenarios the way the competitions
did: average gaps, tie-averaged ranks, the Friedman test, and the Nemenyi
critical distance with its clique structure."""

import numpy as np

from asbench import cd_diagram_data, friedman_test, nemenyi_cd, rank_table, virtual_best_selector

rng = np.random.default_rng(3)
systems = ("steady", "flashy", "middling", "legacy", "wildcard")

# Synthetic gap scores for 12 scenarios: "steady" is consistently decent,
# "flashy" great on half the scenarios and poor on the rest.
n_scenarios = 12
scores = np.empty((n_scenarios, len(systems)))
for r in range(n_scenarios):
    scores[r, 0] = rng.uniform(0.25, 0.40)
    scores[r, 1] = rng.uniform(0.05, 0.20) if r % 2 == 0 else rng.uniform(0.6, 1.1)
    scores[r, 2] = rng.uniform(0.35, 0.60)
    scores[r, 3] = rng.uniform(0.5, 1.0)
    scores[r, 4] = rng.uniform(0.0, 1.4)

alpha = 0.05
ranks = rank_table(scores)
avg_ranks = ranks.mean(axis=0)
statistic, p = friedman_test(ranks)
cd = nemenyi_cd(len(systems), n_scenarios, alpha)
print(f"{'system':>10} {'avg gap':>8} {'avg rank':>9}")
for c, name in enumerate(systems):
    print(f"{name:>10} {scores[:, c].mean():8.3f} {avg_ranks[c]:9.2f}")

print(f"\nFriedman chi-square {statistic:.3f}, p = {p:.4f}")
print(f"Nemenyi critical distance at alpha {alpha}: {cd:.3f}")

doc = cd_diagram_data(systems, avg_ranks, cd)
for clique in doc["cliques"]:
    print("not separable:", ", ".join(clique))

# The meta question: how good would a perfect per-scenario choice OF A
# SYSTEM be? That is the virtual best selector over the portfolio of systems.
_, meta = virtual_best_selector(scores)
print(f"\nvirtual best selector over these systems: mean gap {meta:.3f}")
print(f"best single system mean gap: {scores.mean(axis=0).min():.3f}")
