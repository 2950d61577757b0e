"""Minimum-average-power link schedules under an average-delay constraint.

The root exports the library API of the README's example and the error
classes the CLI maps to an exit code; every other name is imported
from its module.
"""

from .model import (ConfigError, DiscretizationError, discretize_channel,
                    load_config)
from .chain import ReducibleChainError
from .occupancy_lp import evaluate_measure, extract_policy, solve_constrained
from .construction import (ConstructionError, MassRangeError,
                           compute_thresholds, density_from_measure,
                           power_ratio, to_threshold_policy,
                           verify_deterministic, verify_feasibility)
from .simplex import SimplexAnomaly
from .simulator import run_sim
from .sweep import (InfeasibleCurveError, SweepError, convergence_study,
                    corners_in_span, enumerate_vertices, sweep_curve)

__version__ = "0.1.0"
