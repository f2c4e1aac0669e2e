"""Shared fixtures; the long traces are computed once per session."""

import math
import time

import numpy as np
import pytest

from rosenau.model import dispersion_derivatives

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
    """A phase-resolved partition of [lo, hi] at time t, the reference the
    oscillatory driver is checked against; the driver itself never uses it.

    The width rule cuts [lo, hi] into 48 equal panels, and each is split
    into equal parts no wider than 1.6 pi / (t max|f'|), with the larger |f'|
    of its two ends: a part then spans at most 1.6 periods of sin^2(t f)
    where f' is monotone, so every period receives more than 13 of the 21
    Kronrod nodes.  f' is taken a hair above r = 0, where it is defined.
    """
    edges = lo + (hi - lo) * np.arange(49) / 48
    fp, _ = dispersion_derivatives(params, np.maximum(edges, max(lo, 1e-14 * max(hi, 1.0))))
    parts = []
    for a, b, fa, fb in zip(edges[:-1], edges[1:], fp[:-1], fp[1:]):
        speed = t * max(abs(fa), abs(fb))
        parts.append(max(1, math.ceil((b - a) / (0.8 * 16 * math.pi / 8 / speed))) if speed > 0 else 1)
    if max(parts) == 1:
        return edges
    out = [edges[0]]
    for a, b, k in zip(edges[:-1], edges[1:], parts):
        out.extend(a + (b - a) * np.arange(1, k + 1) / k)
    out[-1] = hi
    return np.array(out)

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
