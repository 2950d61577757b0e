"""Minimum-average-power link schedules under an average-delay constraint.

The root exports the library API of the README's example and the error
classes the CLI maps to an exit code; every other name is imported
from its module.  The root names load lazily (PEP 562): `import
linksched` alone loads no layer and not numpy, and a root name's first
use imports its home module alone and binds the name here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name and the module it lives in: the one list of the
# root's API.
_HOMES = {
    "ConfigError": "model",
    "DiscretizationError": "model",
    "discretize_channel": "model",
    "load_config": "model",
    "ReducibleChainError": "chain",
    "evaluate_measure": "occupancy_lp",
    "extract_policy": "occupancy_lp",
    "solve_constrained": "occupancy_lp",
    "ConstructionError": "construction",
    "MassRangeError": "construction",
    "compute_thresholds": "construction",
    "density_from_measure": "construction",
    "power_ratio": "construction",
    "to_threshold_policy": "construction",
    "verify_deterministic": "construction",
    "verify_feasibility": "construction",
    "SimplexAnomaly": "simplex",
    "run_sim": "simulator",
    "InfeasibleCurveError": "sweep",
    "SweepError": "sweep",
    "convergence_study": "sweep",
    "corners_in_span": "sweep",
    "enumerate_vertices": "sweep",
    "sweep_curve": "sweep",
}

__all__ = list(_HOMES)


def __getattr__(name):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
