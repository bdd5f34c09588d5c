"""State-space forecasting (simplex projection, S-map) as the process model
for predictive control, demonstrated on a civil-disobedience agent-based
simulation with a logistic propaganda controller.
"""

import logging

__version__ = "0.1.0"

from .abm import (
    STATE_ACTIVE,
    STATE_JAILED,
    STATE_QUIET,
    GovState,
    TickObservation,
    WorldParams,
    WorldState,
    arrest_probability,
    citizen_behavior,
    grievance,
    init_world,
    run_scenario,
    step,
)
from .analysis import (
    ANALYSIS_EMBEDDING,
    JacobianSeries,
    TrappedIntervals,
    VariancePartition,
    detect_trapped_state,
    exponential_gof,
    interaction_coefficients,
    outburst_onsets,
    partition_variance,
    waiting_times,
)
from .control import (
    CONTROL_EMBEDDING,
    ControlDecision,
    ControllerParams,
    EdmController,
    LoopConfig,
    closed_loop_controller,
    make_legitimacy_schedule,
    propaganda_response,
)
from .edm import (
    NeighborSet,
    SkillReport,
    SMapOutput,
    knn,
    pearson_rho,
    simplex_predict,
    smap_predict,
    smap_predictions,
)
from .evaluation import (
    THETA_GRID,
    ScanResult,
    embed_dimension_scan,
    evaluate_out_of_sample,
    theta_scan,
    tp_scan,
    tune_theta,
)
from .scenarios import legitimacy_profile, standard_run
from .timeseries import (
    Embedding,
    EmbeddingSpec,
    Frame,
    InsufficientDataError,
    build_delay_embedding,
    build_generalized_embedding,
    build_state_vector,
    read_frame_csv,
    split_library_prediction,
    write_frame_csv,
)

# The library logs under "edmcontrol" and is silent unless the application
# configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())
