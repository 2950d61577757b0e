from __future__ import annotations

import pytest

from linksched.construction import density_from_measure
from linksched.model import config_from_dict, discretize_channel, load_config
from linksched.occupancy_lp import solve_constrained


@pytest.fixture(scope="session")
def paper_cfg():
    return load_config("paper_iv")


@pytest.fixture(scope="session")
def tiny_cfg():
    return load_config("tiny")


@pytest.fixture(scope="session")
def piecewise_cfg():
    """paper_iv's traffic over a 3-piece channel with a zero-density gap."""
    return config_from_dict({
        "arrival": {"alphas": [0.4, 0.3, 0.3]},
        "channel": {"kind": "piecewise", "h_min": 0.5, "h_max": 10.0,
                    "table": [[2.0, 0.3], [3.0, 0.0], [10.0, 0.55 / 7]]},
        "Q": 10, "S_max": 2, "xi_kind": "exp2minus1"})


@pytest.fixture(scope="session")
def disc16(paper_cfg):
    return discretize_channel(paper_cfg.channel, 16)


@pytest.fixture(scope="session")
def solution16(paper_cfg, disc16):
    """The M=16 constrained optimum at a 3-slot delay budget."""
    sol = solve_constrained(paper_cfg, disc16, 3.0)
    assert sol.status == "optimal"
    return sol


@pytest.fixture(scope="session")
def density16(solution16):
    return density_from_measure(solution16.measure)
