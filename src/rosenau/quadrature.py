"""Panel-based quadrature tuned for integrands oscillating like sin(t f(r)).

The primitive is the embedded 10/21-point Gauss-Kronrod pair of QUADPACK
(Piessens et al. 1983): on each panel the 21-point Kronrod sum K21 is the
result, and |K21 - G10|, where the 10-point Gauss sum G10 reuses ten of the
same 21 integrand values, is its error estimate.  Laurie (1997, Math. Comp.
66) describes how the Kronrod extension is computed.  Two layers sit on top:

* ``phase_resolved_edges`` builds an initial partition whose panel widths
  track the local oscillation period pi/(t |f'(r)|), so that every period of
  sin^2(t f) receives at least ``points_per_period`` nodes;
* ``integrate_adaptive`` evaluates every pending panel once per round,
  accepts the panels whose error estimate meets a width-proportional share
  of the requested relative tolerance, and bisects only the others.

Both layers are deterministic: the partition depends only on the inputs and
accepted panel contributions are summed in left-to-right order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError
from .model import ModelParams, dispersion_derivatives

__all__ = [
    "GL_ORDER",
    "KRONROD_POINTS",
    "panel_integrals",
    "integrate_adaptive",
    "phase_resolved_edges",
    "uniform_edges",
]

# Panel-width unit of phase_resolved_edges: a panel spans at most
# safety * GL_ORDER / points_per_period periods of sin^2(t f).  The value is
# that of the 16-point Gauss-Legendre rule the partition was first sized for;
# the 21 Kronrod nodes per panel only add resolution.
GL_ORDER = 16

# Nonnegative G10/K21 abscissae on [-1, 1] in decreasing order, with the
# Kronrod weights; every other abscissa, starting with the second, is a node
# of the 10-point Gauss rule, whose weights are listed separately.
_XK_HALF = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG_HALF = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

KRONROD_POINTS = 21
_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_GAUSS_WEIGHTS = np.zeros(KRONROD_POINTS)
_GAUSS_WEIGHTS[1::2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])
# one product gives K21 and K21 - G10 per panel
_RULE = np.stack([_KRONROD_WEIGHTS, _KRONROD_WEIGHTS - _GAUSS_WEIGHTS], axis=1)

# evaluate about 2^18 integrand nodes at a time
_PANEL_CHUNK = (1 << 18) // KRONROD_POINTS


def panel_integrals(fn, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 estimate of the integral of fn over each [lo_i, hi_i], and |K21 - G10|.

    fn maps a flat array of nodes to values, or to an (m, nodes) array for m
    integrands sharing the nodes; the results then have shape (m, panels).
    Evaluates in chunks of about 2^18 nodes so huge phase-resolved partitions
    stay within memory.  The chunks depend only on the panel count, so the
    results are reproducible; a panel's result may differ in the last bit
    with the chunk it falls in, since BLAS blocking depends on the chunk size.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values = errors = None
    for start in range(0, lo.size, _PANEL_CHUNK):
        sl = slice(start, min(start + _PANEL_CHUNK, lo.size))
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = np.asarray(fn(x.ravel()), dtype=float)
        sums = vals.reshape(vals.shape[:-1] + x.shape) @ _RULE
        if values is None:
            values = np.empty(sums.shape[:-2] + lo.shape)
            errors = np.empty_like(values)
        values[..., sl] = sums[..., 0] * half
        errors[..., sl] = np.abs(sums[..., 1]) * half
    if values is None:
        values = errors = np.empty(lo.shape)
    return values, errors


def uniform_edges(lo: float, hi: float, panels: int) -> np.ndarray:
    return np.linspace(lo, hi, panels + 1)


def integrate_adaptive(
    fn,
    edges: np.ndarray,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_rounds: int = 30,
) -> tuple[float, float]:
    """Integrate fn over the partition, bisecting only the panels that fail.

    Each round evaluates every pending panel once with the G10/K21 pair.  A
    panel is accepted when |K21 - G10| is below the share of the global
    budget max(rel_tol * |estimate|, abs_tol) proportional to its width;
    the others are bisected for the next round.  After max_rounds bisections
    the panels still pending keep their last K21 value and |K21 - G10| error.
    Returns (value, error_estimate), the estimate being the sum of the
    accepted panels' errors.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise InputDomainError("edges must be strictly increasing with >= 2 entries")
    total_len = edges[-1] - edges[0]

    pend_lo = edges[:-1]
    pend_hi = edges[1:]

    acc_lo: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err: list[np.ndarray] = []
    acc_sum = 0.0

    for depth in range(max_rounds + 1):
        val, err = panel_integrals(fn, pend_lo, pend_hi)
        total_est = acc_sum + float(np.sum(val))
        budget = max(rel_tol * abs(total_est), abs_tol, 1e-300)
        ok = err <= budget * (pend_hi - pend_lo) / total_len
        if depth == max_rounds:
            ok[:] = True

        acc_lo.append(pend_lo[ok])
        acc_val.append(val[ok])
        acc_err.append(err[ok])
        acc_sum += float(np.sum(val[ok]))

        bad = ~ok
        if not np.any(bad):
            break
        mid = 0.5 * (pend_lo[bad] + pend_hi[bad])
        pend_lo, pend_hi = (
            np.concatenate([pend_lo[bad], mid]),
            np.concatenate([mid, pend_hi[bad]]),
        )

    lo_all = np.concatenate(acc_lo)
    val_all = np.concatenate(acc_val)
    err_all = np.concatenate(acc_err)
    order = np.argsort(lo_all, kind="stable")
    return float(np.sum(val_all[order])), float(np.sum(err_all[order]))


def phase_resolved_edges(
    params: ModelParams,
    t: float,
    lo: float,
    hi: float,
    points_per_period: int,
    max_width: float | None = None,
    base_points: int = 4096,
    safety: float = 0.8,
) -> np.ndarray:
    """Partition [lo, hi] so every oscillation of sin(t f) is node-resolved.

    The cumulative phase t * integral |f'| is sampled on a dense base grid
    and edges are placed at equal phase increments of safety * GL_ORDER * pi
    / points_per_period, so a panel spans at most safety * GL_ORDER /
    points_per_period periods of sin^2(t f) and every period receives more
    than points_per_period of the 21 Kronrod nodes.  A width cap keeps panels small where the phase is
    stationary (f' ~ 0) or t is small.
    """
    if hi <= lo:
        raise InputDomainError(f"need lo < hi, got [{lo}, {hi}]")
    if max_width is None:
        max_width = max((hi - lo) / 32.0, 1e-12)

    start = max(lo, 1e-14 * max(hi, 1.0))
    r = np.geomspace(start, hi, base_points)
    if lo < start:
        r = np.concatenate([[lo], r])
    fp, _ = dispersion_derivatives(params, np.maximum(r, start))
    speed = t * np.abs(fp)
    phase = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(r))])

    dphi = safety * GL_ORDER * math.pi / points_per_period
    n_phase = int(phase[-1] / dphi)
    if n_phase > 0:
        levels = np.arange(1, n_phase + 1) * dphi
        phase_edges = np.interp(levels, phase, r)
    else:
        phase_edges = np.empty(0)

    edges = np.unique(np.concatenate([[lo], phase_edges, [hi]]))
    edges = edges[(edges >= lo) & (edges <= hi)]
    if edges[0] != lo:
        edges = np.concatenate([[lo], edges])
    if edges[-1] != hi:
        edges = np.concatenate([edges, [hi]])

    widths = np.diff(edges)
    n_sub = np.maximum(1, np.ceil(widths / max_width).astype(int))
    if np.any(n_sub > 1):
        pieces = [np.array([edges[0]])]
        for a, w, k in zip(edges[:-1], widths, n_sub):
            pieces.append(a + w * np.arange(1, k + 1) / k)
        edges = np.concatenate(pieces)
    # drop degenerate panels produced by interpolation ties
    keep = np.concatenate([[True], np.diff(edges) > 0])
    return edges[keep]
