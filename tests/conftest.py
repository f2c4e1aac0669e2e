"""Shared fixtures; the long traces are computed once per session."""

import math
import time

import numpy as np
import pytest

from rosenau import norms
from rosenau.evolution import propagator
from rosenau.model import dispersion_derivatives, dispersion_expansion, eval_dispersion
from rosenau.quadrature import _kronrod_refine, _panel_table

from rosenau import (
    ModelParams,
    MomentDecomposition,
    QuadratureConfig,
    RadialInitialData,
    compute_norm_trace,
    gaussian_profile,
    gaussian_velocity_data,
    geometric_times,
)

EXACT = QuadratureConfig()

# (delta, mu, kappa, theta) cells of the dispersion's expansions: theta in
# {1/4, 1/2, 1, 3/2, 2} at equal and unequal coefficients, and mu = 0
EXPANSION_CELLS = [
    (*coefficients, theta)
    for coefficients in [(1.0, 1.0, 1.0), (0.7, 1.3, 2.1), (4.0, 0.1, 1.0)]
    for theta in (0.25, 0.5, 1.0, 1.5, 2.0)
] + [(2.0, 0.0, 3.0, 0.5), (2.0, 0.0, 3.0, 1.0)]


def panels(*partitions):
    """The panel table (see quadrature._refine) of one piece per partition,
    each a sequence of edges."""
    count = [len(edges) for edges in partitions]
    rows = np.zeros((len(partitions), max(count)))
    for row, edges in zip(rows, partitions):
        row[: len(edges)] = edges
    return _panel_table(rows, count)


def partitions(table):
    """The edges of each piece of a panel table: its panels' lower ends and
    the last upper end."""
    lo, hi, piece, length = table
    last = np.append(piece[1:] != piece[:-1], True)
    return [np.append(lo[piece == k], hi[last][k]) for k in range(length.size)]


def k21_refine(fn, edges, rel_tol, abs_tol=0.0):
    """(value, error) of the K21 refinement of fn on one partition, as
    floats: the reference refinement of the oracles below, raising
    IntegrabilityError when it does not resolve fn within the refinement's
    depth cap and work budget."""
    value, error = _kronrod_refine(fn, panels(edges), rel_tol, abs_tol)
    return float(value[0]), float(error[0])


SEGMENT_KINDS = {norms._SLOW: "slow", norms._WINDOW: "window", norms._FAST: "fast"}


def segments_by_time(table, times=1):
    """A table of norms.oscillation_segments as one list of (lo, hi, kind)
    per time, kind named, for times times."""
    out = [[] for _ in range(times)]
    for i, lo, hi, kind in zip(*(column.tolist() for column in table)):
        out[i].append((lo, hi, SEGMENT_KINDS[kind]))
    return out


def reference_segments(params, t, lo, hi):
    """The segments of [lo, hi] at one time t > 0 as a list of (lo, hi,
    kind), enumerated one region and one window at a time: the reference
    that the table of norms.oscillation_segments is checked against."""
    expansion = dispersion_expansion(params)
    if not (hi > lo and t > 0):
        return [(lo, hi, "slow")] if hi > lo else []
    bottom = min(1e-10, norms._PHASE_SLOW / (t * expansion.low_coefficient), hi)
    r = np.concatenate([[lo], np.geomspace(max(lo, bottom), hi, 256)])
    slow = t * eval_dispersion(params, r) <= norms._PHASE_SLOW
    cuts = [lo, *r[1:][slow[1:] != slow[:-1]].tolist(), hi]
    widths = np.sqrt(norms._WINDOW_PHASE / np.maximum(np.abs(expansion.curvatures), 1e-300)).tolist()
    segments = []
    for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        if b <= a:
            continue
        if slow[0] == (k % 2 == 0):
            segments.append((a, b, "slow"))
            continue
        cursor = a
        for r_star, width in zip(expansion.stationary_points, widths):
            if not a < r_star < b:
                continue
            h_window = max(min(0.25, width * t**-0.5), 1e-12 * r_star)
            w_lo, w_hi = max(cursor, r_star - h_window), min(b, r_star + h_window)
            if w_lo > cursor:
                segments.append((cursor, w_lo, "fast"))
            if w_hi > w_lo:
                segments.append((w_lo, w_hi, "window"))
            cursor = max(cursor, w_hi)
        if cursor < b:
            segments.append((cursor, b, "fast"))
    return segments


def reference_pieces(params, times, rows, kinks):
    """The slow and the fast pieces of norms.oscillatory_integrals at each
    time, one row of cuts each, as two lists of (time index, band k, lo,
    hi): every segment of reference_segments cut at each band of its row
    and at the kinks inside it, a fast one also at norms._R_LOG, enumerated
    time by time, segment by segment, band by band."""
    slow, fast = [], []
    for i, (t, row) in enumerate(zip(times, rows)):
        for seg_lo, seg_hi, kind in reference_segments(params, t, row[0], row[-1]):
            pieces, stops = (fast, [*kinks, norms._R_LOG]) if kind == "fast" else (slow, kinks)
            for k, (a, b) in enumerate(zip(row[:-1], row[1:])):
                lo, hi = max(seg_lo, a), min(seg_hi, b)
                inner = sorted({c for c in stops if lo < c < hi})
                pieces += [(i, k, p, q) for p, q in zip([lo, *inner], [*inner, hi]) if q > p]
    return slow, fast


def profile_data(w0, w1, dim, w0_tail=None, w1_tail=None):
    """RadialInitialData of radial spectral profiles w0 and w1, complex
    functions of |xi| or None for a missing component, through the densities
    |w0|^2, |w1|^2 and Re(w0 conj(w1)) they give."""
    def values(w, r):
        return np.asarray(w(r), dtype=complex)

    fields = {}
    if w0 is not None:
        fields.update(w0_sq=lambda r: np.abs(values(w0, r)) ** 2, w0_tail=w0_tail)
    if w1 is not None:
        fields.update(w1_sq=lambda r: np.abs(values(w1, r)) ** 2, w1_tail=w1_tail)
    if w0 is not None and w1 is not None:
        fields["cross"] = lambda r: np.real(values(w0, r) * np.conj(values(w1, r)))
    return RadialInitialData(dim, **fields)


def amplitude_sq(params, data):
    """The norm integrand (c^2 w0_sq + p^2 w1_sq + 2 c p cross) r^(n-1),
    c = cos(t f) and p = sin(t f)/f, as a function of (r, t), t a number or
    one time per radius: the direct quadratic form in the densities, the
    independent oracle the driver's terms (norms._norm_terms) and the
    integrals of the norm are checked against."""

    def fn(r, t):
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        c, p = np.cos(t * f), propagator(t, f)
        w0_sq, w1_sq, cross = data.densities(r)
        return (c * c * w0_sq + p * p * w1_sq + 2.0 * c * p * cross) * r ** (data.dim - 1)

    return fn


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

def _full_xi_norm(field):
    freqs = 2.0 * math.pi * np.fft.fftfreq(field.samples_per_axis, d=field.dx)
    grids = np.meshgrid(*([freqs] * field.dim), indexing="ij")
    return np.sqrt(sum(g**2 for g in grids))


def full_spectrum_state(params, field0, field1, t):
    """(u, u_t) at time t as complex arrays, by complex fftn/ifftn over the
    full spectrum: the reference the half-spectrum box path is checked
    against; the package itself never uses it."""
    f = eval_dispersion(params, _full_xi_norm(field0))
    hat0 = np.fft.fftn(field0.values.astype(complex))
    hat1 = np.fft.fftn(field1.values.astype(complex))
    c, s = np.cos(t * f), np.sin(t * f)
    return (np.fft.ifftn(c * hat0 + propagator(t, f) * hat1),
            np.fft.ifftn(-f * s * hat0 + c * hat1))


def full_spectrum_energy(params, field, u, u_t):
    """The energy of the state (u, u_t) on the grid of field, as a
    Plancherel sum of |fftn|^2 over every frequency of the full spectrum."""
    rho = _full_xi_norm(field)
    cell = field.dx**field.dim / field.samples_per_axis**field.dim
    hat_sq = np.abs(np.fft.fftn(u)) ** 2
    hat_t_sq = np.abs(np.fft.fftn(u_t)) ** 2
    inertia = 1.0 + params.delta * rho ** (2.0 * params.theta)
    stiffness = params.mu * rho**4 + params.kappa * rho**2
    return 0.5 * float(np.sum(inertia * hat_t_sq) + np.sum(stiffness * hat_sq)) * cell


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
