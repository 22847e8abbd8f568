"""Frenet-frame trajectory generation with terminal-state regulation, a
momentum-weighted selection cost, a deterministic replanning simulator, and
momentum-aware refinement as a library routine."""

__version__ = "0.1.0"

from .endpoint_regulation import (
    RegulationConfig,
    enforce_spacing,
    regulated_cluster,
    select_reference_candidate,
    terminal_deviation,
)
from .evaluation import (
    ClusterStats,
    Constraint,
    FeasibilityReport,
    KinematicLimits,
    KinematicPeaks,
    check_candidate,
    feasibility_breakdown,
    kinematic_peaks,
    nn_distance_stats,
)
from .frenet_geometry import (
    FrenetState,
    ReferencePath,
    build_reference_path,
    cartesian_to_frenet,
    curvature_at,
    frenet_to_cartesian,
)
from .momentum_optimizer import (
    AssistiveParams,
    CostWeights,
    InteractionParams,
    Neighbor,
    OptimizerConfig,
    PlanningContext,
    cost_gradient,
    optimize_trajectory,
    total_cost,
)
from .quintic_sampling import (
    SamplingGrid,
    TrajectoryCandidate,
    TrajectoryCluster,
    eval_quintic,
    generate_cluster,
    solve_quintic,
)
from .replanning_sim import (
    ModeSwitches,
    Scenario,
    SimLog,
    SimSettings,
    Uncertainty,
    run,
    select_candidate,
    validate_scenario_dict,
)
