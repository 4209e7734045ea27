"""Benchmark harness for per-instance algorithm selection.

Load scenarios of recorded algorithm performance, train selectors that emit
feature-and-solver schedules, replay those schedules against the recorded
data, and score systems with PAR10, misclassification penalty, solved
fraction, and SBS/VBS gap metrics, plus rank statistics across scenarios.
"""

from .evaluation import (
    FeatureStep,
    MetricScore,
    Schedules,
    ScoreReport,
    SolverStep,
    aggregate,
    report_gap,
    score_system,
    simulate,
    simulate_batch,
)
from .scenario import (
    FeatureGroup,
    RunRecord,
    Scenario,
    Split,
    Violation,
    improvement_factor,
    sbs,
    validate,
    vbs_cost,
)
from .scenario_io import (
    ParseError,
    ViolationsError,
    deobfuscate,
    generate_splits,
    obfuscate,
    parse_predictions,
    parse_scenario,
    write_predictions,
    write_scenario,
)
from .selectors import (
    Hyperparameters,
    SelectorModel,
    TrainingSet,
    build_presolver,
    build_training_set,
    fit_cluster,
    fit_pairwise,
    fit_regression,
    fit_stacking,
    fit_sunny,
    fit_system,
    load_model,
    predict_batch,
    save_model,
)
from .stats import (
    RankAnalysis,
    cd_diagram_data,
    compare_systems,
    ecdf,
    ecdf_points,
    friedman_test,
    nemenyi_cd,
    rank_table,
    virtual_best_selector,
)

__version__ = "0.1.0"
