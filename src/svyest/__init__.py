"""Design-based survey estimation: model-assisted estimators of finite-population totals."""

from .baselines import fit_knn, fit_pcr
from .errors import (
    AllocationError,
    ConvergenceError,
    DesignError,
    LoadError,
    ParameterError,
    PredictorError,
    RunError,
    SingularMatrixError,
    SizeError,
    SvyestError,
)
from .estimators import FittedPredictor, MAEstimate, fit_greg, greg_weights, horvitz_thompson, model_assisted
from .montecarlo import (
    EstimatorSpec,
    McReport,
    McRow,
    McScenario,
    load_scenario,
    read_report,
    run_scenario,
    sweep_dnoise,
    write_report,
)
from .penalized import (
    PenaltySpec,
    Standardization,
    cross_validate,
    fit_elastic_net,
    fit_ridge,
    ridge_weights,
    soft_threshold,
)
from .population import (
    ColumnSchema,
    DgpModel,
    FinitePopulation,
    assign_strata_by_quantile,
    generate_auxiliary,
    generate_survey_variable,
    load_population,
    save_population,
)
from .sampling import (
    DrawnSample,
    Srswor,
    SrsworEnumeration,
    StratifiedSrs,
    draw,
    enumerate_srswor,
    optimal_allocation,
    proportional_allocation,
    substream,
)
from .trees import (
    Leaf,
    Split,
    TreeNode,
    best_split,
    fit_forest,
    grow_tree,
    leaves,
    predict_tree,
    tree_ma_estimate,
    tree_predictor,
)

__version__ = "0.1.0"
