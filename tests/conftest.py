"""Shared fixtures.

Expensive objects (symbol caches, operator lattices, Picard runs) are built
once per session.  ``fast_cfg`` trades resolution for speed and is used
wherever a test exercises plumbing rather than accuracy; accuracy claims are
always made against the default configuration.
"""

import os

import numpy as np
import pytest

from bo_halfline import (BoundaryKernel, GreenOperator, HalfLineGrid,
                         MethodOfLines, RunConfig, Symbols, make_profile)


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def fast_cfg(cfg):
    """Reduced resolution for solver plumbing tests (runs in seconds)."""
    return cfg.replace(n_x=96, x_max=30.0, contour_points_per_decade=12,
                       n_time_geometric=16, n_time_uniform=16,
                       picard_max_iter=8, t_final=1.0, t_switch=0.5)


@pytest.fixture(scope="session")
def sym(cfg):
    return Symbols(cfg)


@pytest.fixture(scope="session")
def half_grid(cfg):
    return HalfLineGrid(x_max=cfg.x_max, n=cfg.n_x)


@pytest.fixture(scope="session")
def data_psi(cfg):
    return make_profile(cfg.psi_profile, cfg.data_scale)


@pytest.fixture(scope="session")
def data_h(cfg):
    return make_profile(cfg.h_profile, cfg.data_scale)


@pytest.fixture(scope="session")
def green_op(sym, data_psi):
    return GreenOperator(sym, data_psi)


@pytest.fixture(scope="session")
def boundary_op(sym):
    return BoundaryKernel(sym)


@pytest.fixture(scope="session")
def mol(cfg):
    return MethodOfLines(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def set_workers(monkeypatch):
    """Sets the usable CPU count, which ``for_each_row`` splits rows
    across, by the affinity set that ``cpu_workers`` reads."""
    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_count
