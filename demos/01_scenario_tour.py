"""Tour of the scenario model: build one in code, write it to disk, read it
back, and look at the baseline numbers every selector is judged against."""

import tempfile
from pathlib import Path

from asbench import (
    FeatureGroup,
    RunRecord,
    Scenario,
    Split,
    improvement_factor,
    parse_scenario,
    sbs,
    simulate,
    validate,
    vbs_cost,
    write_scenario,
)
from asbench.evaluation import FeatureStep, SolverStep

# A portfolio of three solvers on five instances. Values are seconds; any
# status other than "ok" counts as unsolved no matter the value.
instances = ("easy", "tricky", "heavy", "tiny", "nasty")
runs = {
    ("easy", "dpll"): RunRecord(12.0),
    ("easy", "cdcl"): RunRecord(3.0),
    ("easy", "local"): RunRecord(40.0),
    ("tricky", "dpll"): RunRecord(900.0, "timeout"),
    ("tricky", "cdcl"): RunRecord(410.0),
    ("tricky", "local"): RunRecord(22.0),
    ("heavy", "dpll"): RunRecord(800.0),
    ("heavy", "cdcl"): RunRecord(900.0, "timeout"),
    ("heavy", "local"): RunRecord(350.0, "memout"),
    ("tiny", "dpll"): RunRecord(1.0),
    ("tiny", "cdcl"): RunRecord(2.0),
    ("tiny", "local"): RunRecord(1.5),
    ("nasty", "dpll"): RunRecord(900.0, "timeout"),
    ("nasty", "cdcl"): RunRecord(880.0),
    ("nasty", "local"): RunRecord(900.0, "timeout"),
}
scenario = Scenario(
    id="tour",
    objective="runtime",
    direction="minimize",
    cutoff=900.0,
    algorithms=("dpll", "cdcl", "local"),
    instances=instances,
    runs=runs,
    features={
        "easy": (10.0, 0.2),
        "tricky": (45.0, 0.9),
        "heavy": (120.0, 0.4),
        "tiny": (2.0, 0.1),
        "nasty": (90.0, None),  # missing values stay missing, never zero
    },
    feature_names=("n_vars", "clause_ratio"),
    feature_groups=(
        FeatureGroup("syntactic", (0, 1), cost={i: 1.5 for i in instances}),
    ),
    splits=(Split(0, train=("easy", "tricky", "heavy"), test=("tiny", "nasty")),),
)

print("violations:", validate(scenario) or "none")

with tempfile.TemporaryDirectory() as tmp:
    bundle = Path(tmp) / "tour"
    write_scenario(scenario, bundle)
    print("bundle files:", sorted(p.name for p in bundle.iterdir()))
    reloaded = parse_scenario(bundle)
    print("round-trip equal:", reloaded == scenario)

# The two baselines: the single best solver is the best fixed choice on the
# training instances; the virtual best solver picks per instance, for free.
best = sbs(scenario, scenario.instances)
print("single best solver:", best)
for inst in instances:
    print(f"  {inst:>6}: vbs cost {vbs_cost(scenario, inst):7.1f}")
print(f"improvement factor (VBS over SBS): {improvement_factor(scenario):.3f}")

# Replaying a schedule: compute features (1.5s), give cdcl 500s, then local
# the rest. On "tricky" cdcl finishes inside its slice; the misclassification
# penalty is the time over local's 22s, the best recorded run.
schedule = (
    FeatureStep(group="syntactic"),
    SolverStep(algorithm="cdcl", budget=500.0),
    SolverStep(algorithm="local", budget=398.5),
)
outcome = simulate(scenario, "tricky", schedule)
print(
    f"schedule on tricky: solved {outcome.solved[0]} in {outcome.time_used[0]} s at step "
    f"{outcome.solving_step[0]}; PAR10 {outcome.par10[0]}, MCP {outcome.mcp[0]}"
)
