"""High-accuracy evaluation of ||u(t)||^2 as a radial Fourier integral.

The squared norm of the evolved state is

    ||u(t)||^2 = (2 pi)^(-n) omega_n integral_0^inf
                 |cos(t f) w0(r) + sin(t f)/f w1(r)|^2 r^(n-1) dr,

an integrand that oscillates in r with local period pi/(t f'(r)).  It equals
the mean (|w0|^2 + |w1|^2/f^2) r^(n-1)/2 plus Re[g e^(2 i t f)] with
g = [(|w0|^2 - |w1|^2/f^2)/2 - i Re(w0 conj(w1))/f] r^(n-1).

One driver, ``oscillatory_integrals``, integrates any such mean plus
Re[g e^(2 i t f)] over the pieces [cuts[k], cuts[k+1]] of an interval, at
one time or at every time of a trace, each time with its own cuts.  One
call of ``oscillation_segments`` for all the times splits each interval
into the slow region t f <= 16 pi, windows of half-width
min(1/4, C t^(-1/2)) around the stationary points r* of f (found once per
ModelParams), C = sqrt(_WINDOW_PHASE / |f''(r*)|), and the fast segments
between them; each segment is cut at the piece boundaries and at the
kinks of the data, each fast segment also at r_log = 1/4 (_R_LOG).  The
pieces of every time are collected first and integrated in three
refinements per call, so three per norm trace, each over all its pieces at
once with a budget per piece (quadrature._refine): each piece is held to
rel_tol of its own value, and refined, as if it were integrated alone.

* the slow pieces and windows: the integrand itself, at the time of its
  piece, with the G10/K21 Gauss-Kronrod pair from 16 equal panels.  A slow
  piece spans at most 32 pi of the phase 2 t f, a window 2 _WINDOW_PHASE,
  so each starting panel holds about one period of e^(2 i t f) at every t.
  The norm integrand is evaluated in real arithmetic and skips a component
  whose tail certifies it zero.  A panel is accepted once |K21 - G10| is
  below its share of the piece's tolerance or below the rounding of the
  phase, eps 2 t max f |K21|: t f carries an error of about eps t f, which
  from t ~ rel_tol / eps on no bisection removes;
* the fast pieces: the mean with the K21 rule, then Re[g e^(2 i t f)] by
  Levin collocation, each piece also held to rel_tol times |mean| of that
  piece, both from the partition ``fast_segment_edges``, which does not
  depend on t, bisecting where needed.  Below r_log both run in a
  coordinate x that is ln r up to scale and shift (_fast_radius), from 2
  panels of equal width in ln r: there f ~ sqrt(kappa) r, so the fast
  integrands behave like r^(n-3) down to a lower end near
  16 pi / (sqrt(kappa) t), which fixed panels in r resolve only by more
  bisection as t grows and fixed panels in ln r resolve at every t.  Above
  r_log they run in r from 5 edges geometric in the distance from the
  nearest stationary point, so the Levin rule bisects the pieces beside a
  window towards r*, where its p ~ g / (i omega f') grows.

So every piece costs about the same at every t.  The windows follow the
idea of Olver's stationary-point Levin work (BIT Numer. Math. 50, 2010):
a fixed phase around r* for the direct rule, Levin collocation beside it.

It is the one path for every integral in the package that oscillates like
sin(t f).  ``norm_squared`` runs it on [0, r_max] at one time or at several,
``band_split_norm`` on the cuts [0, beta, split, r_max] at one time or at
all the times of a trace (``compute_norm_trace`` is one call of it), so the
three bands share one segmentation, bounds.averaged_tail_remainder on
[1/t, epsilon0] with no mean, at one time or at all the envelope picks of a
trace, and hardy.energy_identity_check on [0, r_max] at t/2, whose
densities oscillate like e^(i t f).  The segmentation evaluates f once, on
a (times, 257) geometric grid, and the Levin rule takes f and f' from one
model.dispersion_slope call per node.  Each refinement is capped and
raises IntegrabilityError on a piece it leaves unresolved, so no rel_tol
runs without bound.

Truncation at r_max is certified against the declared tail of the data; the
tail bound is kept below rel_tol/10 of a coarse estimate of the integral,
for all the times of a trace from one evaluation of f and of the profiles
on the K21 nodes of 256 panels, each time adding only its weighted sum of
min(t, 1/f)^2.  Levin collocation needs g smooth on each panel: a jump the
data declare as a kink, like the edge of a compact band, is a piece end,
and an undeclared one is found from the Chebyshev tail of g and bisected
down like a K21 panel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_columns
from .errors import InputDomainError, UncertifiedTailError
from .evolution import RadialInitialData, _check_time, propagator, total_energy
from .model import (
    DEFAULT_SINC,
    ModelParams,
    SincConstants,
    band_boundaries,
    dispersion_derivatives,
    dispersion_slope,
    eval_dispersion,
    unit_sphere_area,
)
from .quadrature import (
    _KRONROD_WEIGHTS,
    _RADIAL_ROUNDS,
    _kronrod_refine,
    _panel_nodes,
    integrate_levin,
)

__all__ = [
    "QuadratureConfig",
    "NormTrace",
    "BandSplit",
    "norm_squared",
    "band_split_norm",
    "oscillatory_integrals",
    "oscillation_segments",
    "fast_segment_edges",
    "compute_norm_trace",
    "write_norm_trace_csv",
]

_PHASE_SLOW = 16.0 * math.pi
# Slow pieces and windows start from _SLOW_PANELS equal K21 panels.  A slow
# piece spans about 32 pi of the phase 2 t f, a window _WINDOW_PHASE on each
# side of its stationary point: the outer panel of a window, 15/64 of that
# side's phase, and the average panel of a slow piece then hold one period.
_SLOW_PANELS = 16
_WINDOW_PHASE = 128.0 * math.pi / 15.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and truncation radius of the radial quadrature.

    There is one evaluation path, norms.oscillatory_integrals, whose
    starting partitions are fixed: 16 equal panels per slow piece or
    window, each about one period of sin^2(t f).  ``mode`` is kept so that
    configs naming either "exact-adaptive" or the retired
    "oscillation-averaged" still load; both map to the one path, and the
    field always reads "exact-adaptive".
    """

    rel_tol: float = 1e-6
    r_max: float | None = None
    mode: str = "exact-adaptive"

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-2):
            raise InputDomainError("rel_tol must lie in (0, 1e-2]")
        if self.mode not in ("exact-adaptive", "oscillation-averaged"):
            raise InputDomainError(f"unknown quadrature mode {self.mode!r}")
        object.__setattr__(self, "mode", "exact-adaptive")
        if self.r_max is not None and self.r_max <= 0:
            raise InputDomainError("r_max must be positive when given")


DEFAULT_QUADRATURE = QuadratureConfig()


def _physical_scale(dim: int) -> float:
    return unit_sphere_area(dim) / (2.0 * math.pi) ** dim


def _propagator_sq_ceiling(params: ModelParams, r0: float, t: float) -> float:
    """sup over r >= r0 of min(t, 1/f(r))^2, from explicit envelope bounds."""
    best = t * t
    if r0 >= 1.0:
        if params.mu > 0:
            best = min(best, (1.0 + params.delta) / (params.mu * r0 ** (4.0 - 2.0 * params.theta)))
        if params.theta <= 1.0:
            best = min(best, (1.0 + params.delta) / (params.kappa * r0 ** (2.0 - 2.0 * params.theta)))
    return best


def _tail_bound(params: ModelParams, data: RadialInitialData, r0: float, t: float) -> float:
    """Bound on the unscaled integrand mass beyond r0 (|a+b|^2 <= 2|a|^2 + 2|b|^2)."""
    m0 = data.w0_tail.mass_beyond(r0, data.dim)
    m1 = data.w1_tail.mass_beyond(r0, data.dim)
    if math.isinf(m0) or math.isinf(m1):
        return math.inf
    return 2.0 * m0 + 2.0 * _propagator_sq_ceiling(params, r0, t) * m1


def _coarse_estimate(params: ModelParams, data: RadialInitialData, ts: np.ndarray, hi: float) -> np.ndarray:
    """Scale of the norm integral at each time from the non-oscillatory
    envelope (|w0|^2 + min(t, 1/f)^2 |w1|^2) r^(n-1), by the K21 rule on 256
    panels of [0, hi]; used only to size the tail target.

    f and both profiles are evaluated once on the nodes, whatever the number
    of times; per time only the weighted sum of min(t, 1/f)^2 |w1|^2 is
    formed, one node vector at a time, so no (times x nodes) array is built.
    """
    edges = np.linspace(0.0, hi, 257)
    r, half = _panel_nodes(edges[:-1], edges[1:])
    radial = (half[:, None] * _KRONROD_WEIGHTS * r ** (data.dim - 1)).ravel()
    r = r.ravel()
    inv_f = 1.0 / np.maximum(eval_dispersion(params, r), 1e-300)
    level = np.abs(np.asarray(data.w0_profile(r))) ** 2 @ radial
    weight = np.abs(np.asarray(data.w1_profile(r))) ** 2 * radial
    return np.array([abs(level + np.minimum(t, inv_f) ** 2 @ weight) for t in ts.tolist()])


def _resolve_r_max(params: ModelParams, data: RadialInitialData, t, cfg: QuadratureConfig):
    """The truncation radius at time t, a number or an array of times (one
    radius each): cfg.r_max, the support of the data, or the first radius
    r0 1.2^k, r0 = max(4, the tails' own scales), whose certified tail mass
    is below rel_tol/10 of the coarse estimate at that time."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    r_max = np.empty(ts.size)
    if cfg.r_max is not None:
        r_max[:] = cfg.r_max
    elif (support := data.support_radius()) is not None:
        r_max[:] = max(support, 1e-6)
    elif data.w0_tail.kind == "none" or data.w1_tail.kind == "none":
        raise UncertifiedTailError(
            "decay class gives no tail certificate; set an explicit r_max"
        )
    else:
        start = 4.0
        for tail in (data.w0_tail, data.w1_tail):
            if tail.kind == "gaussian":
                start = max(start, math.sqrt(10.0 / tail.rate))
            elif tail.kind == "power":
                start = max(start, tail.cutoff * 2.0)
        rough = _coarse_estimate(params, data, ts, start)
        for i, (t_i, rough_i) in enumerate(zip(ts.tolist(), rough.tolist())):
            r0, target = start, cfg.rel_tol / 10.0 * max(rough_i, 1e-280)
            for _ in range(400):
                if _tail_bound(params, data, r0, t_i) <= target:
                    break
                r0 *= 1.2
            else:
                raise UncertifiedTailError(
                    f"could not certify the tail below {target} within r <= {r0}"
                )
            r_max[i] = r0
    return r_max if np.ndim(t) else float(r_max[0])


def _amplitude_sq(params: ModelParams, data: RadialInitialData):
    """The norm integrand |cos(t f) w0 + sin(t f)/f w1|^2 r^(n-1), in real
    arithmetic, as a function of (r, t), t a number or one time per radius.

    A component whose tail certifies it zero is skipped, and imaginary parts
    enter only where a profile returns nonzero ones.
    """
    n = data.dim
    parts = []
    if not data.w0_tail.vanishes:
        parts.append((data.w0_profile, lambda t, f: np.cos(t * f)))
    if not data.w1_tail.vanishes:
        parts.append((data.w1_profile, propagator))

    def fn(r, t):
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        re = np.zeros_like(r)
        im = None
        for profile, multiplier in parts:
            m = multiplier(t, f)
            w = np.asarray(profile(r))
            if np.iscomplexobj(w):
                if w.imag.any():
                    im = m * w.imag if im is None else im + m * w.imag
                w = w.real
            re += m * w
        out = re * re
        if im is not None:
            out += im * im
        if n > 1:
            out *= r ** (n - 1)
        return out

    return fn


def _mean_density(params: ModelParams, data: RadialInitialData, r):
    """The mean (|w0|^2 + |w1|^2/f^2) r^(n-1)/2 of the norm integrand over sin^2(t f)."""
    r = np.asarray(r, dtype=float)
    f = eval_dispersion(params, r)
    w0 = np.asarray(data.w0_profile(r))
    w1 = np.asarray(data.w1_profile(r))
    return 0.5 * (np.abs(w0) ** 2 + np.abs(w1) ** 2 / f**2) * r ** (data.dim - 1)


def _oscillating_coefficient(params: ModelParams, data: RadialInitialData, r):
    """g with norm integrand = mean density + Re[g e^(2 i t f)].

    g = cos_coefficient - i sin_coefficient, the coefficients of cos(2 t f)
    and sin(2 t f): (|w0|^2 - |w1|^2/f^2) r^(n-1)/2 and Re(w0 conj(w1))/f
    r^(n-1).  Neither depends on t; both need f > 0.
    """
    r = np.asarray(r, dtype=float)
    f = eval_dispersion(params, r)
    w0 = np.asarray(data.w0_profile(r))
    w1 = np.asarray(data.w1_profile(r))
    weight = r ** (data.dim - 1)
    cos_coefficient = 0.5 * (np.abs(w0) ** 2 - np.abs(w1) ** 2 / f**2) * weight
    sin_coefficient = np.real(w0 * np.conj(w1)) / f * weight
    return cos_coefficient - 1j * sin_coefficient


def oscillatory_integrals(
    params: ModelParams,
    t,
    cuts,
    integrand,
    coefficient,
    mean=None,
    *,
    kinks=(),
    rel_tol: float,
    abs_tol: float = 0.0,
) -> np.ndarray:
    """Integrals of integrand = mean + Re[coefficient e^(2 i t f)] over each
    [cuts[k], cuts[k+1]], for nondecreasing cuts (see the module docstring).

    t is a number, or an array of times with one row of cuts per time; the
    result is then one row of integrals per time.  integrand is a function
    of (r, t), t one time per radius; mean and coefficient do not depend on
    t, and mean may be None for a purely oscillatory integrand.  Every piece
    is cut at the kinks, the radii where the data jump.  A slow piece or
    window is integrated as integrand, a fast piece as mean plus the real
    part of the Levin integral of coefficient e^(2 i t f), in three
    refinements for all the pieces of every time.  Each piece is held to
    rel_tol of its own value and to abs_tol, a Levin piece also to rel_tol
    times |mean| of that piece, or to the rounding of its phase.  A piece
    left unresolved at the round cap raises IntegrabilityError.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    rows = np.atleast_2d(np.asarray(cuts, dtype=float))
    if rows.shape[0] != ts.size:
        raise InputDomainError("need one row of cuts per time")
    slow, fast = [], []  # (time index, band k, lo, hi) of each piece
    segmentation = oscillation_segments(params, ts, rows[:, 0], rows[:, -1])
    for i, (row, segments) in enumerate(zip(rows.tolist(), segmentation)):
        for seg_lo, seg_hi, kind in segments:
            pieces, stops = (fast, [*kinks, _R_LOG]) if kind == "fast" else (slow, kinks)
            for k, (a, b) in enumerate(zip(row[:-1], row[1:])):
                lo, hi = max(seg_lo, a), min(seg_hi, b)
                inner = sorted({c for c in stops if lo < c < hi})
                pieces += [(i, k, p, q) for p, q in zip([lo, *inner], [*inner, hi]) if q > p]

    values = np.zeros((ts.size, rows.shape[1] - 1))
    if slow:
        index, k, lo, hi = (np.array(v) for v in zip(*slow))
        edges = list(np.linspace(lo, hi, _SLOW_PANELS + 1, axis=-1))
        top = 2.0 * ts[index] * np.max(eval_dispersion(params, np.stack([lo, hi])), axis=0)
        refined = _kronrod_refine(
            integrand, edges, rel_tol, abs_tol, _RADIAL_ROUNDS, t=ts[index], phase=top, strict=True
        )
        np.add.at(values, (index, k), refined[0])
    if fast:
        index, k, lo, hi = (np.array(v) for v in zip(*fast))
        edges = fast_segment_edges(lo, hi, _stationary_points(params))
        level = np.zeros(len(edges))
        if mean is not None:
            mean_x = _in_fast_coordinate(mean)
            level = _kronrod_refine(mean_x, edges, rel_tol, abs_tol, _RADIAL_ROUNDS, strict=True)[0]

        def phase(x):
            r, dr = _fast_radius(x)
            f, fp = dispersion_slope(params, r)
            return f, fp * dr

        osc, _ = integrate_levin(
            _in_fast_coordinate(coefficient),
            phase,
            None,
            2.0 * ts[index],
            edges,
            rel_tol,
            np.maximum(abs_tol, rel_tol * np.abs(level)),
            strict=True,
        )
        np.add.at(values, (index, k), level + osc.real)
    return values if np.ndim(t) else values[0]


def _norm_pieces(
    params: ModelParams,
    data: RadialInitialData,
    t,
    cuts,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """The unscaled norm integral over each [cuts[k], cuts[k+1]], for a time
    t or, with one row of cuts each, an array of times."""
    return oscillatory_integrals(
        params,
        t,
        cuts,
        _amplitude_sq(params, data),
        lambda r: _oscillating_coefficient(params, data, r),
        lambda r: _mean_density(params, data, r),
        kinks=data.kinks,
        rel_tol=0.5 * cfg.rel_tol,
    )


def norm_squared(
    params: ModelParams,
    data: RadialInitialData,
    t,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
):
    """||u(t)||^2 on the physical side.

    t is a number or an array of times; for an array the result has one
    value per time, all integrated in one driver call, one row of cuts
    [0, r_max] per time.
    """
    _check_time(t)
    if params.dim != data.dim:
        raise InputDomainError("params.dim and data.dim disagree")
    r_max = np.asarray(_resolve_r_max(params, data, t, cfg))
    cuts = np.stack([np.zeros_like(r_max), r_max], axis=-1)
    val = _physical_scale(data.dim) * _norm_pieces(params, data, t, cuts, cfg)[..., 0]
    return val if np.ndim(t) else float(val)


@dataclass(frozen=True)
class BandSplit:
    """Contributions of the low / mid / high frequency bands to ||u(t)||^2,
    with the band radii: numbers for one time, arrays for an array of times."""

    low: float | np.ndarray
    mid: float | np.ndarray
    high: float | np.ndarray
    beta: float | np.ndarray
    split: float | np.ndarray

    @property
    def total(self) -> float | np.ndarray:
        return self.low + self.mid + self.high


def band_split_norm(
    params: ModelParams,
    data: RadialInitialData,
    t,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    sinc_constants: SincConstants = DEFAULT_SINC,
) -> BandSplit:
    """Norm split at beta(t) and at gamma(t) (n = 1) or 1 (n >= 2).

    t is a number or an array of times; for an array every field of the
    result is an array, one entry per time, and all times are integrated in
    one driver call.  Requires t > e so the band radii are defined; the
    three parts sum to norm_squared within the configured tolerance.
    """
    _check_time(t)
    if params.dim != data.dim:
        raise InputDomainError("params.dim and data.dim disagree")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    bands = [band_boundaries(params, sinc_constants, t_i) for t_i in ts.tolist()]
    r_max = np.atleast_1d(_resolve_r_max(params, data, ts, cfg))

    cuts = np.empty((ts.size, 4))
    for row, band, r in zip(cuts, bands, r_max.tolist()):
        beta = min(band.beta, r)
        split = band.gamma_band if params.dim == 1 else 1.0
        row[:] = 0.0, beta, min(max(split, beta), r), r

    low, mid, high = _physical_scale(data.dim) * _norm_pieces(params, data, ts, cuts, cfg).T
    fields = (low, mid, high, cuts[:, 1], cuts[:, 2])
    if np.ndim(t):
        return BandSplit(*fields)
    return BandSplit(*(float(v[0]) for v in fields))


# ---------------------------------------------------------------------------
# segmentation


@functools.cache
def _stationary_points(params: ModelParams) -> tuple[float, ...]:
    """The radii in [1e-10, 1e10] where f' changes sign, in increasing order.

    f' has the sign of d(f^2)/ds, s = r^2, and so of
    (2 mu s + kappa) + delta s^theta ((2 - theta) mu s + (1 - theta) kappa),
    whose coefficients change sign at most twice: by Descartes' rule f has
    at most two stationary points.  They depend on params alone, so they are
    found once per ModelParams, from the sign changes of that expression on
    a geometric grid, each bracket bisected until its ends are adjacent
    floats; the root is the end on the side of the smaller radius.
    """
    de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta

    def slope(r):
        s = r * r
        return 2.0 * mu * s + ka + de * s**th * ((2.0 - th) * mu * s + (1.0 - th) * ka)

    r = np.geomspace(1e-10, 1e10, 4096)
    sign = np.sign(slope(r))
    flips = np.nonzero(sign[1:] * sign[:-1] < 0)[0]
    lo, hi = r[flips], r[flips + 1]
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return tuple(lo.tolist())
        stays = inside & (np.sign(slope(mid)) == sign[flips])
        lo, hi = np.where(stays, mid, lo), np.where(inside & ~stays, mid, hi)


def oscillation_segments(params: ModelParams, t, lo, hi):
    """Split [lo, hi] by how fast e^(2 i t f) oscillates, left to right.

    Returns (lo, hi, kind) pieces covering [lo, hi]: "slow" where
    t f <= 16 pi, "window" within min(1/4, C t^(-1/2)) of a stationary
    point r* of f, C = sqrt(_WINDOW_PHASE / |f''(r*)|), so that e^(2 i t f)
    turns by _WINDOW_PHASE between r* and either end at every t, and "fast"
    elsewhere, where f' does not vanish.  The slow region is judged on a
    geometric grid and cut at the first grid point past each change, so a
    piece may reach one grid step past t f = 16 pi; both rules integrate
    any phase there.  t may be an array of times, with lo and hi numbers or
    one per time: the result is then one list of pieces per time, from one
    geomspace and one eval_dispersion call on a (times, 257) grid.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    los, his = (np.broadcast_to(np.asarray(v, dtype=float), ts.shape) for v in (lo, hi))
    # f(r) <= r sqrt(mu r^2 + kappa), a bound that needs no sampling
    live = (his > los) & (ts * his * np.sqrt(params.mu * his * his + params.kappa) > _PHASE_SLOW)
    # the grid starts at 1e-10, or lower where t is so large that t f = 16 pi
    # lies below it (f ~ sqrt(kappa) r there), and never above hi; its first
    # column is lo itself, a repeat where lo lies above that start
    t_live, lo_live, hi_live = ts[live], los[live], his[live]
    bottom = np.minimum(np.minimum(1e-10, _PHASE_SLOW / (t_live * math.sqrt(params.kappa))), hi_live)
    r = np.geomspace(np.maximum(lo_live, bottom), hi_live, 256, axis=-1)
    r = np.concatenate([lo_live[:, None], r], axis=1)
    slow = t_live[:, None] * eval_dispersion(params, r) <= _PHASE_SLOW
    row, col = np.nonzero(slow[:, 1:] != slow[:, :-1])
    flips = np.split(r[row, col + 1], np.searchsorted(row, np.arange(1, r.shape[0])))
    starts_slow = slow[:, 0].tolist()

    roots = _stationary_points(params)
    _, curvature = dispersion_derivatives(params, np.array(roots, dtype=float))
    windows = list(zip(roots, np.sqrt(_WINDOW_PHASE / np.maximum(np.abs(curvature), 1e-300)).tolist()))
    out = []
    grid_rows = iter(zip(flips, starts_slow, t_live.tolist()))
    for lo_i, hi_i, live_i in zip(los.tolist(), his.tolist(), live.tolist()):
        if not live_i:
            out.append([(lo_i, hi_i, "slow")] if hi_i > lo_i else [])
            continue
        flip, first_slow, t_i = next(grid_rows)
        cuts = [lo_i, *flip.tolist(), hi_i]
        segments = []
        for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            if b <= a:
                continue
            if first_slow == (k % 2 == 0):
                segments.append((a, b, "slow"))
                continue
            cursor = a
            for r_star, width in windows:
                if not a < r_star < b:
                    continue
                # never below 1e-12 r*, so r* stays inside its window at any t
                h_window = max(min(0.25, width * t_i**-0.5), 1e-12 * r_star)
                w_lo, w_hi = max(cursor, r_star - h_window), min(b, r_star + h_window)
                if w_lo > cursor:
                    segments.append((cursor, w_lo, "fast"))
                if w_hi > w_lo:
                    segments.append((w_lo, w_hi, "window"))
                cursor = max(cursor, w_hi)
            if cursor < b:
                segments.append((cursor, b, "fast"))
        out.append(segments)
    return out if np.ndim(t) else out[0]


# Fast pieces below this radius are integrated in the coordinate
# x = _R_LOG (1 + ln(r / _R_LOG)), which is ln r scaled to meet r with slope 1
# at _R_LOG.  There f ~ sqrt(kappa) r, so the fast integrands behave like
# r^(n-3) down to the piece's lower end, about 16 pi / (sqrt(kappa) t): in r
# the panels near that end must shrink with it, in ln r the same panels
# serve at every t.  0.25 stays clear of the band split at 1 in 2-D and 3-D:
# cut there, the unsplit norm would be integrated over the very pieces of the
# bands, and the check that the bands sum to it would read 0 by construction
# (theorem-1-2 reads exactly 0.0 at both window ends with a cut at 1).
_R_LOG = 0.25


def _fast_radius(x):
    """r(x) and dr/dx at the fast coordinate x: r = x from _R_LOG up,
    r = _R_LOG e^(x / _R_LOG - 1) below."""
    x = np.asarray(x, dtype=float)
    below = x < _R_LOG
    r = np.where(below, _R_LOG * np.exp(np.minimum(x / _R_LOG - 1.0, 0.0)), x)
    return r, np.where(below, r / _R_LOG, 1.0)


def _in_fast_coordinate(fn):
    """fn(r) dr/dx as a function of the fast coordinate x, for integrating fn
    over the fast pieces in x."""

    def mapped(x):
        r, dr = _fast_radius(x)
        return np.asarray(fn(r)) * dr

    return mapped


def _step_radius(x: np.ndarray, direction: float) -> np.ndarray:
    """x moved by direction (+1 or -1) times an ulp of x or, below _R_LOG,
    the x-image (_R_LOG / r) spacing(r) of an ulp of r(x) if larger: near
    x = 0, where r = _R_LOG / e, ulps of x alone took 262,147 steps."""
    r = _fast_radius(x)[0]
    r_ulp = np.where(x < _R_LOG, _R_LOG / r * np.spacing(r), 0.0)
    return x + direction * np.maximum(np.spacing(np.abs(x)), r_ulp)


def fast_segment_edges(lo, hi, centres=()) -> list[np.ndarray]:
    """Initial partitions of the fast pieces [lo_i, hi_i], 0 < lo_i, none of
    which crosses _R_LOG, in the fast coordinate x of _fast_radius.

    Below _R_LOG a piece starts as 2 panels of equal width in x, that is in
    ln r; above, where x is r, as 5 edges geometric in the distance from the
    nearest of centres, the stationary points of f, or from 0.  Beside the
    window of r* the Levin rule's p ~ g / (i omega f') varies like
    1 / (r - r*), which panels graded towards r* fit.  The partitions do
    not depend on t; the panel rules bisect where needed.  Each partition
    starts and ends the fewest steps inside its piece that put the radii of
    its ends strictly inside: the Levin rule evaluates g at the ends, and an
    end on a jump of the data would take g's value from the other side,
    which no bisection removes.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(lo <= 0.0):
        raise InputDomainError("a fast piece starts above r = 0")
    x_lo, x_hi = (np.where(r < _R_LOG, _R_LOG * (1.0 + np.log(r / _R_LOG)), r) for r in (lo, hi))
    while (out := _fast_radius(x_lo)[0] <= lo).any():
        x_lo[out] = _step_radius(x_lo[out], 1.0)
    while (out := _fast_radius(x_hi)[0] >= hi).any():
        x_hi[out] = _step_radius(x_hi[out], -1.0)
    log = x_hi <= _R_LOG
    a, b = x_lo[~log], x_hi[~log]
    centres = np.asarray(centres if len(centres) else (0.0,), dtype=float)
    c = centres[np.argmin(np.abs(0.5 * (a + b)[:, None] - centres), axis=1)]
    side = np.where(c <= a, 1.0, -1.0)[:, None]
    graded = c[:, None] + side * np.geomspace(side[:, 0] * (a - c), side[:, 0] * (b - c), 5, axis=-1)
    graded[:, 0], graded[:, -1] = a, b
    edges = [None] * lo.size
    for mask, rows in ((log, np.linspace(x_lo[log], x_hi[log], 3, axis=-1)), (~log, graded)):
        for i, row in zip(np.flatnonzero(mask).tolist(), rows):
            edges[i] = row
    return edges


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class NormTrace:
    """Sampled (t, ||u(t)||^2) records with per-band contributions and energy."""

    times: np.ndarray
    norms_sq: np.ndarray
    band_low: np.ndarray
    band_mid: np.ndarray
    band_high: np.ndarray
    energy: np.ndarray

    def __post_init__(self) -> None:
        arrays = (
            self.times,
            self.norms_sq,
            self.band_low,
            self.band_mid,
            self.band_high,
            self.energy,
        )
        size = self.times.size
        if any(a.size != size for a in arrays):
            raise InputDomainError("trace columns must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise InputDomainError("times must be strictly increasing")


def _is_count(value) -> bool:
    """Whether value is a whole number >= 1; integer-valued floats count."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    return float(value).is_integer() and value >= 1


def geometric_times(t_min: float, t_max: float, points_per_decade: int) -> np.ndarray:
    """Log-uniform sampling, points_per_decade per factor of 10.

    Raises InputDomainError unless 0 < t_min < t_max < inf and
    points_per_decade is a whole number >= 1.
    """
    if not (0 < t_min < t_max < math.inf):
        raise InputDomainError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    if not _is_count(points_per_decade):
        raise InputDomainError(f"points_per_decade must be an integer >= 1, got {points_per_decade!r}")
    decades = math.log10(t_max / t_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(t_min, t_max, count)


def compute_norm_trace(
    params: ModelParams,
    data: RadialInitialData,
    times,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    sinc_constants: SincConstants = DEFAULT_SINC,
) -> NormTrace:
    """Band-split norms and total energy over a sampled time window.

    The three band integrals of every sample come from one band_split_norm
    call, on the one evaluation path of norm_squared, and the energy of
    every sample from one total_energy call.
    """
    ts = np.asarray(times, dtype=float)
    split = band_split_norm(params, data, ts, cfg, sinc_constants)
    return NormTrace(
        times=ts,
        norms_sq=split.total,
        band_low=split.low,
        band_mid=split.mid,
        band_high=split.high,
        energy=total_energy(params, data, ts),
    )


def write_norm_trace_csv(trace: NormTrace, path) -> None:
    """Six-column CSV (t, norm_sq, band_low, band_mid, band_high, energy).

    norm_sq is the sum of the three bands.  Each band is held to rel_tol of
    its own value, not of the norm's: every piece of it to rel_tol/2 of
    itself, so a band far below the others, like the 3-D low band, keeps
    its relative accuracy; band_high also carries the truncation at r_max,
    below rel_tol/10 of the norm.
    """
    write_columns(
        path,
        ["t", "norm_sq", "band_low", "band_mid", "band_high", "energy"],
        trace.times,
        trace.norms_sq,
        trace.band_low,
        trace.band_mid,
        trace.band_high,
        trace.energy,
    )
