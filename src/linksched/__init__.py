"""Minimum-average-power link schedules under an average-delay constraint."""

from .model import (
    ArrivalModel,
    ChannelDiscretization,
    ChannelModel,
    ConfigError,
    DiscretizationError,
    SystemConfig,
    builtin_config_names,
    channel_cdf_inverse,
    config_from_dict,
    discretize_channel,
    load_config,
    mean_arrival_rate,
    step,
    validate_config,
)
from .occupancy_lp import (
    LpSolution,
    OccupancyLp,
    OccupancyMeasure,
    Policy,
    ReducibleChainError,
    build_occupancy_lp,
    evaluate_measure,
    extract_policy,
    min_delay,
    policy_to_measure,
    solve_constrained,
    solve_lagrangian,
)
from .construction import (
    CdfEnvelope,
    ConstructedSolution,
    ConstructionError,
    DeterminismReport,
    FeasibilityReport,
    MassRangeError,
    PiecewiseDensity,
    PowerRatio,
    ThresholdPolicy,
    compute_envelope,
    compute_thresholds,
    density_from_measure,
    invert_envelope,
    power_ratio,
    to_threshold_policy,
    verify_deterministic,
    verify_feasibility,
)
from .simplex import (
    FeasibleStart,
    LinearProgram,
    SimplexAnomaly,
    SimplexResult,
    feasible_start,
    solve_simplex,
)
from .simulator import SimReport, report_to_csv, report_to_text, run_sim
from .sweep import (
    ConvergenceStudy,
    InfeasibleCurveError,
    SweepError,
    TradeoffCurve,
    Vertex,
    convergence_study,
    corners_in_span,
    default_budget_grid,
    default_lambda_max,
    enumerate_vertices,
    sweep_curve,
    vertex_distances,
)

__version__ = "0.1.0"
