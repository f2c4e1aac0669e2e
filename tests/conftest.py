"""Shared fixtures; the long traces are computed once per session."""

import time

import numpy as np
import pytest

from rosenau.quadrature import _phase_partitions

from rosenau import (
    ModelParams,
    MomentDecomposition,
    QuadratureConfig,
    compute_norm_trace,
    gaussian_profile,
    gaussian_velocity_data,
    geometric_times,
)

EXACT = QuadratureConfig()


def phase_edges(params, t, lo, hi):
    """The phase-resolved partition of [lo, hi] at time t that
    norms.oscillatory_integrals builds for a slow piece or a window."""
    return _phase_partitions(params, [t], [lo], [hi])[0]

# wall-clock seconds for the session traces, keyed by fixture name; the
# acceptance report quotes these against the expected runtimes
TRACE_TIMINGS: dict[str, float] = {}


def _timed(name, fn):
    start = time.perf_counter()
    out = fn()
    TRACE_TIMINGS[name] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def params_1d():
    return ModelParams(delta=1.0, mu=1.0, kappa=1.0, theta=2.0, dim=1)


@pytest.fixture(scope="session")
def params_2d():
    return ModelParams(delta=1.0, mu=1.0, kappa=1.0, theta=2.0, dim=2)


@pytest.fixture(scope="session")
def params_3d():
    return ModelParams(delta=1.0, mu=1.0, kappa=1.0, theta=2.0, dim=3)


@pytest.fixture(scope="session")
def gauss_data_1d():
    return gaussian_velocity_data(1)


@pytest.fixture(scope="session")
def gauss_data_2d():
    return gaussian_velocity_data(2)


@pytest.fixture(scope="session")
def gauss_data_3d():
    return gaussian_velocity_data(3)


@pytest.fixture(scope="session")
def moments_1d():
    return MomentDecomposition.from_profile(gaussian_profile(1), 1.0)


@pytest.fixture(scope="session")
def moments_2d():
    return MomentDecomposition.from_profile(gaussian_profile(2), 1.0)


@pytest.fixture(scope="session")
def trace_1d_exact(params_1d, gauss_data_1d):
    times = geometric_times(1e2, 1e6, 12)
    return _timed(
        "trace_1d_exact", lambda: compute_norm_trace(params_1d, gauss_data_1d, times, EXACT)
    )


@pytest.fixture(scope="session")
def trace_2d(params_2d, gauss_data_2d):
    times = geometric_times(1e2, 1e7, 12)
    return _timed("trace_2d", lambda: compute_norm_trace(params_2d, gauss_data_2d, times, EXACT))


@pytest.fixture(scope="session")
def trace_3d(params_3d, gauss_data_3d):
    times = geometric_times(1e2, 1e7, 12)
    return _timed("trace_3d", lambda: compute_norm_trace(params_3d, gauss_data_3d, times, EXACT))
