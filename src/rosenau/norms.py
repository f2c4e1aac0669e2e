"""High-accuracy evaluation of ||u(t)||^2 as a radial Fourier integral.

The squared norm of the evolved state is

    ||u(t)||^2 = (2 pi)^(-n) omega_n integral_0^inf
                 |cos(t f) w0(r) + sin(t f)/f w1(r)|^2 r^(n-1) dr,

an integrand that oscillates in r with local period pi/(t f'(r)).  It reads
the data through the three densities of RadialInitialData, the spherical
means w0_sq, w1_sq and cross of |w0|^2, |w1|^2 and Re(w0 conj(w1)), and
equals the mean (w0_sq + w1_sq/f^2) r^(n-1)/2 plus Re[g e^(2 i t f)] with
g = [(w0_sq - w1_sq/f^2)/2 - i cross/f] r^(n-1).

One driver, ``oscillatory_integrals``, integrates any such mean plus
Re[g e^(2 i t f)] over the pieces [cuts[k], cuts[k+1]] of an interval, at
one time or at every time of a trace, each time with its own cuts.  One
call of ``oscillation_segments`` for all the times splits each interval
into the slow region t f <= 16 pi, windows of half-width
min(1/4, C t^(-1/2)) around the stationary points r* of f (from
model.dispersion_expansion), C = sqrt(_WINDOW_PHASE / |f''(r*)|), and the fast
segments between them, one flat table; each segment is cut at the piece
boundaries and at the kinks of the data, each fast segment also at r_log =
1/4 (_R_LOG), by broadcasting: no step from the times to the panel rules
loops in Python.  The pieces of every time are integrated in three
refinements per call, so three per norm trace, each over all its pieces at
once with a budget per piece (quadrature._refine): each piece is held to
rel_tol of its own value, as if it were integrated alone.

* the slow pieces and windows: the integrand itself, at the time of its
  piece, with the G10/K21 Gauss-Kronrod pair from 16 equal panels.  A slow
  piece spans at most 32 pi of the phase 2 t f, a window 2 _WINDOW_PHASE,
  so each starting panel holds about one period of e^(2 i t f) at every t.
  The norm integrand, a real quadratic form in the densities, skips a
  component whose tail certifies it zero, as do the mean and the Levin
  coefficient.  A panel is accepted once |K21 - G10| is below its share
  of the piece's tolerance or below the rounding of the phase,
  eps 2 t max f |K21|: t f carries an error of about eps t f, which from
  t ~ rel_tol / eps on no bisection removes;
* the fast pieces: the mean with the K21 rule, then Re[g e^(2 i t f)] by
  Levin collocation, each piece also held to rel_tol times |mean| of that
  piece, both from the partition ``fast_segment_edges``, which does not
  depend on t, bisecting where needed.  Below r_log both run in a
  coordinate x that is ln r up to scale and shift (_fast_radius), from 2
  panels of equal width in ln r: there f ~ c r (model.dispersion_expansion),
  so the fast integrands behave like r^(n-3) down to a lower end near
  16 pi / (c t), which fixed panels in r resolve only by more
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
all the times of a trace, so the three bands share one segmentation, and
in the same call on [0, r_max] at the first and last time, the unsplit rows
of the band-sum check (``compute_norm_trace`` is one call of it),
bounds.averaged_tail_remainder on [1/t, epsilon0] with no mean, at one time
or at all the envelope picks of a trace, and hardy.energy_identity_check on
[0, r_max] at t/2, whose densities oscillate like e^(i t f), its two sides
as two rows of one call (integrand, mean and coefficient returning rows
share the segmentation, the nodes and each Levin factorization).  The
segmentation evaluates f once, on a geometric grid of 257 radii per run of
times with one interval (one row for a whole trace), and the Levin rule
takes f and f' from one model.dispersion_slope call per node.
Each refinement is bounded in depth and work (quadrature._refine) and raises
IntegrabilityError on an unresolved piece, so no rel_tol runs without bound.

Truncation at r_max is certified against the declared tail of the data; the
tail bound is kept below rel_tol/10 of a coarse estimate of the integral,
for all the times of a trace from one evaluation of f and of the densities
on the K21 nodes of 256 panels, and each candidate radius is tried once
for all the times it has not yet certified.  Levin collocation needs g
smooth on each panel: a jump the data declare as a kink, like the edge of a
compact band, is a piece end, and an undeclared one is found from the
Chebyshev tail of g and bisected down like a K21 panel.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import write_columns
from .errors import InputDomainError, UncertifiedTailError
from .evolution import RadialInitialData, _check_time, propagator, total_energy
from .model import (
    DEFAULT_SINC,
    DispersionExpansion,
    ModelParams,
    SincConstants,
    band_boundaries,
    dispersion_expansion,
    dispersion_slope,
    eval_dispersion,
    unit_sphere_area,
)
from .quadrature import (
    _KRONROD_WEIGHTS,
    _kronrod_refine,
    _panel_nodes,
    _panel_table,
    _runs,
    integrate_levin,
)
from .records import Record

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


class QuadratureConfig(Record):
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


def _propagator_sq_ceiling(expansion: DispersionExpansion, r0: float, t):
    """sup over r >= r0 of min(t, 1/f(r))^2, at a time t or an array of times,
    from the floor of f^2 at high frequency, f^2 >= high_floor r^(2 p) for
    r >= 1: t^2 when p < 0."""
    if r0 < 1.0 or expansion.high_power < 0:
        return t * t
    return np.minimum(t * t, 1.0 / (expansion.high_floor * r0 ** (2.0 * expansion.high_power)))


def _tail_bound(expansion: DispersionExpansion, data: RadialInitialData, r0: float, t):
    """Bound on the unscaled integrand mass beyond r0 (|a+b|^2 <= 2|a|^2 + 2|b|^2),
    at a time t or at an array of times."""
    m0 = data.w0_tail.mass_beyond(r0, data.dim)
    m1 = data.w1_tail.mass_beyond(r0, data.dim)
    if math.isinf(m0) or math.isinf(m1):
        return math.inf
    return 2.0 * m0 + 2.0 * _propagator_sq_ceiling(expansion, r0, t) * m1


def _coarse_estimate(params: ModelParams, data: RadialInitialData, ts: np.ndarray, hi: float) -> np.ndarray:
    """Scale of the norm integral at each time from the non-oscillatory
    envelope (|w0|^2 + min(t, 1/f)^2 |w1|^2) r^(n-1), by the K21 rule on 256
    panels of [0, hi]; used only to size the tail target.

    f and both densities are evaluated once on the nodes, whatever the number
    of times: the level at the earliest time m is one sum, and each later time
    t adds (min(t, 1/f)^2 - m^2) |w1|^2 over the few nodes with 1/f > m,
    from cumulative sums over them sorted by 1/f.
    """
    edges = np.linspace(0.0, hi, 257)
    r, half = _panel_nodes(edges[:-1], edges[1:])
    radial = (half[:, None] * _KRONROD_WEIGHTS * r ** (data.dim - 1)).ravel()
    r = r.ravel()
    inv_f = 1.0 / np.maximum(eval_dispersion(params, r), 1e-300)
    weight = data.w1_sq(r) * radial
    t_min = ts.min(initial=math.inf)
    level = data.w0_sq(r) @ radial + np.minimum(t_min, inv_f) ** 2 @ weight
    above = (inv_f > t_min).nonzero()[0]
    above = above[inv_f[above].argsort()]
    inv_f, weight = inv_f[above], weight[above]
    below = np.concatenate([[0.0], ((inv_f**2 - t_min**2) * weight).cumsum()])
    beyond = np.concatenate([weight[::-1].cumsum()[::-1], [0.0]])
    split = inv_f.searchsorted(ts)
    return np.abs(level + below[split] + (ts**2 - t_min**2) * beyond[split])


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
        target = cfg.rel_tol / 10.0 * np.maximum(_coarse_estimate(params, data, ts, start), 1e-280)
        expansion = dispersion_expansion(params)
        pending, r0 = np.arange(ts.size), start
        for _ in range(400):
            certified = _tail_bound(expansion, data, r0, ts[pending]) <= target[pending]
            r_max[pending[certified]] = r0
            if not (pending := pending[~certified]).size:
                break
            r0 *= 1.2
        else:
            raise UncertifiedTailError(f"could not certify the tail below {target[pending[0]]} within r <= {r0}")
    return r_max if np.ndim(t) else float(r_max[0])


def _amplitude_sq(params: ModelParams, data: RadialInitialData):
    """The norm integrand (c^2 w0_sq + p^2 w1_sq + 2 c p cross) r^(n-1), c = cos(t f) and
    p = sin(t f)/f, as a function of (r, t), t a number or one time per radius.

    A component that RadialInitialData.has_w0 or has_w1 rules out is skipped, with cross.
    """
    n = data.dim
    has_w0, has_w1 = data.has_w0, data.has_w1

    def fn(r, t):
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        out = np.zeros_like(r)
        if has_w0:
            c = np.cos(t * f)
            out += c * c * data.w0_sq(r)
        if has_w1:
            p = propagator(t, f)
            out += p * p * data.w1_sq(r)
        if has_w0 and has_w1:
            out += 2.0 * c * p * data.cross(r)
        if n > 1:
            out *= r ** (n - 1)
        return out

    return fn


def _mean_density(params: ModelParams, data: RadialInitialData, r):
    """The mean (w0_sq + w1_sq/f^2) r^(n-1)/2 of the norm integrand over sin^2(t f)."""
    r = np.asarray(r, dtype=float)
    f = eval_dispersion(params, r)
    w0_sq, w1_sq, _ = data.densities(r)
    return 0.5 * (w0_sq + w1_sq / f**2) * r ** (data.dim - 1)


def _oscillating_coefficient(params: ModelParams, data: RadialInitialData, r):
    """g with norm integrand = mean density + Re[g e^(2 i t f)].

    g = cos_coefficient - i sin_coefficient, the coefficients of cos(2 t f)
    and sin(2 t f): (w0_sq - w1_sq/f^2) r^(n-1)/2 and cross/f r^(n-1).
    Neither depends on t; both need f > 0.  g is real when cross is skipped.
    """
    r = np.asarray(r, dtype=float)
    f = eval_dispersion(params, r)
    weight = r ** (data.dim - 1)
    w0_sq, w1_sq, cross = data.densities(r)
    cos_coefficient = 0.5 * (w0_sq - w1_sq / f**2) * weight
    return cos_coefficient - 1j * (cross / f * weight) if data.has_w0 and data.has_w1 else cos_coefficient


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
    t, and mean may be None for a purely oscillatory integrand.  All three
    may return an (m, nodes) array instead, m rows that share r_max, the
    segmentation, every node and every Levin panel (each factored once for
    all the rows); each row keeps its own budget, and the result gains a
    leading axis of m: shape (m, cuts - 1) at one time, (m, times, cuts - 1)
    for an array of times, against (cuts - 1,) and (times, cuts - 1) for
    one integrand without rows.  Every piece (_oscillation_pieces) is cut at
    the kinks, the radii where the data jump.  A slow piece or window is
    integrated as integrand, a fast piece as mean plus the real part of the
    Levin integral of coefficient e^(2 i t f), in three refinements for all
    the pieces of every time, each from one flat table of starting panels.
    Each piece is held to rel_tol of its own value and to abs_tol, a Levin
    piece also to rel_tol times |mean| of that piece, or to the rounding of
    its phase.  A piece left unresolved at quadrature._refine's depth cap
    or work budget raises IntegrabilityError.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    rows = np.atleast_2d(np.asarray(cuts, dtype=float))
    if rows.shape[0] != ts.size:
        raise InputDomainError("need one row of cuts per time")
    slow, fast = _oscillation_pieces(params, ts, rows, kinks)
    parts = []  # (time index, band k, integrals) of the slow and the fast pieces
    if slow[0].size:
        index, k, lo, hi = slow
        panels = _panel_table(np.linspace(lo, hi, _SLOW_PANELS + 1, axis=-1))
        f_ends = eval_dispersion(params, np.concatenate([lo, hi]))
        top = 2.0 * ts[index] * np.maximum(f_ends[: lo.size], f_ends[lo.size :])
        refined = _kronrod_refine(integrand, panels, rel_tol, abs_tol, t=ts[index], phase=top)
        parts.append((index, k, refined[0]))
    if fast[0].size:
        index, k, lo, hi = fast
        panels = fast_segment_edges(lo, hi, dispersion_expansion(params).stationary_points)
        level = np.zeros(lo.size)
        if mean is not None:
            mean_x = _in_fast_coordinate(mean)
            level = _kronrod_refine(mean_x, panels, rel_tol, abs_tol)[0]

        def phase(x):
            r, dr = _fast_radius(x)
            f, fp = dispersion_slope(params, r)
            return f, fp * dr

        osc, _ = integrate_levin(
            _in_fast_coordinate(coefficient),
            phase,
            2.0 * ts[index],
            panels,
            rel_tol,
            np.maximum(abs_tol, rel_tol * np.abs(level)),
        )
        parts.append((index, k, level + osc.real))
    # the rows of the integrands, if any, lead the result
    lead = parts[0][2].shape[:-1] if parts else ()
    values = np.zeros(lead + (ts.size, rows.shape[1] - 1))
    for index, k, part in parts:
        np.add.at(values, (..., index, k), part)
    return values if np.ndim(t) else values[..., 0, :]


def _oscillation_pieces(params: ModelParams, ts: np.ndarray, rows: np.ndarray, kinks):
    """The tables (time index, band k, lo, hi) of the slow (slow segments
    and windows) and the fast pieces of oscillatory_integrals at the times
    ts, one row of cuts each, in order of time, segment, band, then left
    to right: each segment meets band k in [max(lo, cut k), min(hi,
    cut k+1)], cut there at the sorted kinks (a fast one also at _R_LOG)
    clipped to it, and pieces of no width are dropped."""
    index, seg_lo, seg_hi, kind = oscillation_segments(params, ts, rows[:, 0], rows[:, -1])
    lo = np.maximum(seg_lo[:, None], rows[index, :-1])[..., None]
    hi = np.minimum(seg_hi[:, None], rows[index, 1:])[..., None]
    tables = []
    for chosen, stops in ((kind != _FAST, kinks), (kind == _FAST, [*kinks, _R_LOG])):
        a, b = lo[chosen], hi[chosen]
        stops = np.sort(np.asarray(stops, dtype=float))
        ends = np.concatenate([a, np.minimum(np.maximum(stops, a), b), b], axis=-1)
        p, q = ends[..., :-1], ends[..., 1:]
        keep = q > p
        segment, band, _ = np.nonzero(keep)
        tables.append((index[chosen][segment], band, p[keep], q[keep]))
    return tables


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


class BandSplit(Record):
    """Contributions of the low / mid / high frequency bands to ||u(t)||^2,
    with the band radii: numbers for one time, arrays for an array of times.
    unsplit is ||u(t)||^2 at the first and last time (once when they
    coincide, a number for one time), integrated over [0, r_max] uncut."""

    low: float | np.ndarray
    mid: float | np.ndarray
    high: float | np.ndarray
    beta: float | np.ndarray
    split: float | np.ndarray
    unsplit: float | np.ndarray

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
    three parts sum to norm_squared within the configured tolerance, which
    unsplit checks: the same call integrates [0, r_max] at the first and
    last time as rows of their own, each padded to four cuts with r_max so
    that the driver drops its empty pieces.  Each of their pieces keeps its
    own budget, and none is cut at beta or at the split, so the pieces the
    bands cut there are integrated uncut for the check (see _R_LOG).
    """
    _check_time(t)
    if params.dim != data.dim:
        raise InputDomainError("params.dim and data.dim disagree")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    bands = band_boundaries(params, sinc_constants, ts)
    r_max = np.atleast_1d(_resolve_r_max(params, data, ts, cfg))

    beta = np.minimum(bands.beta, r_max)
    split = bands.gamma_band if params.dim == 1 else 1.0
    cuts = np.stack([np.zeros(ts.size), beta, np.minimum(np.maximum(split, beta), r_max), r_max], axis=1)
    ends = [0, ts.size - 1] if ts.size > 1 else [0]
    uncut = np.zeros((len(ends), 4))
    uncut[:, 1:] = cuts[ends, 3:]

    values = _norm_pieces(params, data, np.concatenate([ts, ts[ends]]), np.vstack([cuts, uncut]), cfg)
    values = _physical_scale(data.dim) * values
    low, mid, high = values[: ts.size].T
    unsplit = values[ts.size :, 0]
    fields = (low, mid, high, cuts[:, 1], cuts[:, 2])
    if np.ndim(t):
        return BandSplit(*fields, unsplit)
    return BandSplit(*(float(v[0]) for v in (*fields, unsplit)))


# ---------------------------------------------------------------------------
# segmentation


# the kinds of segment, as oscillation_segments labels them
_SLOW, _WINDOW, _FAST = range(3)


def oscillation_segments(params: ModelParams, t, lo, hi):
    """Split [lo, hi] by how fast e^(2 i t f) oscillates, left to right.

    Returns the segments covering [lo, hi] as one flat table (index, lo,
    hi, kind) of arrays, kind one of _SLOW, _WINDOW and _FAST: slow where
    t f <= 16 pi, a window within min(1/4, C t^(-1/2)) of a stationary
    point r* of f, C = sqrt(_WINDOW_PHASE / |f''(r*)|), so that e^(2 i t f)
    turns by _WINDOW_PHASE between r* and either end at every t, and fast
    elsewhere, where f' does not vanish.  The slow region is judged on a
    geometric grid and cut at the first grid point past each change, so a
    segment may reach one grid step past t f = 16 pi; both rules integrate
    any phase there.  t may be an array of times, with lo and hi numbers or
    one per time: index is the time of each segment (0 for a number t), and
    the segments run in order of time, then left to right, all from one
    geomspace and one eval_dispersion call on a grid of 257 radii per run
    of consecutive times that share their interval.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    los, his = (np.zeros(ts.shape) + v for v in (lo, hi))
    expansion = dispersion_expansion(params)
    live = his > los
    # the grid starts at 1e-10, or lower where t is so large that t f = 16 pi
    # lies below it (f ~ c r there), and never above hi; its first column is
    # lo itself, a repeat where lo lies above that start.  At t <= 0 the
    # whole interval is one slow segment.
    t_live, lo_live, hi_live = np.where(ts > 0, ts, 0.0)[live], los[live], his[live]
    bottom = _PHASE_SLOW / np.maximum(t_live * expansion.low_coefficient, 1e-300)
    start = np.maximum(lo_live, np.minimum(np.minimum(1e-10, bottom), hi_live))
    # times in a row with one interval and start, most of a trace, share a grid row
    first, grid_row = _runs(lo_live, start, hi_live)
    r = np.geomspace(start[first], hi_live[first], 256, axis=-1)
    r = np.concatenate([lo_live[first, None], r], axis=1)
    slow = t_live[:, None] * eval_dispersion(params, r)[grid_row] <= _PHASE_SLOW
    # a region starts at lo and at the first grid point past each change,
    # and keeps the kind of its first point until the next start or hi
    starts = np.ones(slow.shape, dtype=bool)
    starts[:, 1:] = slow[:, 1:] != slow[:, :-1]
    flat = starts.ravel().nonzero()[0]
    row, col = np.divmod(flat, slow.shape[1])
    a, seg_slow = r[grid_row[row], col], slow.ravel()[flat]
    b = np.where(np.concatenate([row[1:] != row[:-1], [True]]), hi_live[row], np.concatenate([a[1:], [0.0]]))
    index = live.nonzero()[0][row]

    # every other region is cut into fast pieces and the windows of the
    # stationary points inside it: per region its sub-pieces, left to right,
    # the last one the region itself when it is slow; empty ones are dropped
    roots, curvatures = expansion.stationary_points, expansion.curvatures
    if roots:
        # t^(-1/2) as the scalar power rounds it: the window ends depend on its last bit
        root_t = np.array([t_i**-0.5 if t_i > 0 else 0.0 for t_i in ts.tolist()])[index]
    columns, cursor = [], a  # (lo, hi, kept) of each sub-piece
    for r_star, curvature in zip(roots, curvatures):
        width = math.sqrt(_WINDOW_PHASE / max(abs(curvature), 1e-300))
        inside = ~seg_slow & (a < r_star) & (r_star < b)
        # never below 1e-12 r*, so r* stays inside its window at any t
        h_window = np.maximum(np.minimum(0.25, width * root_t), 1e-12 * r_star)
        w_lo, w_hi = np.maximum(cursor, r_star - h_window), np.minimum(b, r_star + h_window)
        columns += [(cursor, w_lo, inside & (w_lo > cursor)), (w_lo, w_hi, inside & (w_hi > w_lo))]
        cursor = np.where(inside, np.maximum(cursor, w_hi), cursor)
    columns.append((cursor, b, cursor < b))
    lo, hi, keep = (np.array(column).T for column in zip(*columns))
    kind = np.where(seg_slow[:, None], _SLOW, [_FAST, _WINDOW] * len(roots) + [_FAST])
    return index.repeat(keep.sum(axis=1)), lo[keep], hi[keep], kind[keep]


# Fast pieces below this radius are integrated in the coordinate
# x = _R_LOG (1 + ln(r / _R_LOG)), which is ln r scaled to meet r with slope 1
# at _R_LOG.  There f ~ c r (model.dispersion_expansion), so the fast
# integrands behave like r^(n-3) down to the piece's lower end, about
# 16 pi / (c t): in r
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


def _step_radius(x: np.ndarray, r: np.ndarray, direction) -> np.ndarray:
    """x, of radius r = r(x), moved by direction (+1 or -1, or one per entry)
    times an ulp of x or, below _R_LOG, the x-image (_R_LOG / r) spacing(r)
    of an ulp of r if larger: near x = 0, where r = _R_LOG / e, ulps of x
    alone took 262,147 steps."""
    r_ulp = np.where(x < _R_LOG, _R_LOG / r * np.spacing(r), 0.0)
    return x + direction * np.maximum(np.spacing(np.abs(x)), r_ulp)


def fast_segment_edges(lo, hi, centres=()) -> tuple:
    """Initial panels of the fast pieces [lo_i, hi_i], 0 < lo_i, none of
    which crosses _R_LOG, in the fast coordinate x of _fast_radius, as one
    panel table (see quadrature._refine).

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
    if (lo <= 0.0).any():
        raise InputDomainError("a fast piece starts above r = 0")
    # lower ends step up and upper ends down while their radius is not
    # strictly inside the piece; from _R_LOG up, where x is r, the first
    # step is an ulp of the end
    ends = np.concatenate([lo, hi])
    direction = np.array([1.0, -1.0]).repeat(lo.size)
    x = np.where(ends < _R_LOG, _R_LOG * (1.0 + np.log(ends / _R_LOG)), ends + direction * np.spacing(ends))
    out = np.arange(x.size)
    while (outside := direction[out] * ((r := _fast_radius(x[out])[0]) - ends[out]) <= 0.0).any():
        out = out[outside]
        x[out] = _step_radius(x[out], r[outside], direction[out])
    x_lo, x_hi = x[: lo.size], x[lo.size :]
    log = x_hi <= _R_LOG
    a, b = x_lo[~log], x_hi[~log]
    centres = np.asarray(centres if len(centres) else (0.0,), dtype=float)
    c = centres[np.argmin(np.abs(0.5 * (a + b)[:, None] - centres), axis=1)]
    side = np.where(c <= a, 1.0, -1.0)[:, None]
    graded = c[:, None] + side * np.geomspace(side[:, 0] * (a - c), side[:, 0] * (b - c), 5, axis=-1)
    graded[:, 0], graded[:, -1] = a, b
    edges = np.zeros((lo.size, 5))
    # 2 panels of equal width, split where np.linspace puts the midpoint
    edges[log, :3] = np.array([x_lo, x_lo + (x_hi - x_lo) / 2.0, x_hi]).T[log]
    edges[~log] = graded
    return _panel_table(edges, np.where(log, 3, 5))


# ---------------------------------------------------------------------------
# traces


class NormTrace(Record):
    """Sampled (t, ||u(t)||^2) records with per-band contributions and energy.

    unsplit is the norm at the first and last sample integrated without the
    band cuts, for checking that the bands sum to it (BandSplit.unsplit);
    None for a trace assembled from other sources."""

    times: np.ndarray
    norms_sq: np.ndarray
    band_low: np.ndarray
    band_mid: np.ndarray
    band_high: np.ndarray
    energy: np.ndarray
    unsplit: np.ndarray | None = None

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


# The most samples geometric_times returns.  The presets take at most 61, at
# about half a millisecond of quadrature each; the count is checked before
# any array is made, so a points_per_decade of 10^9 is rejected at once
# instead of asking for 4e9 samples.
_MAX_SAMPLES = 10_000


def geometric_times(t_min: float, t_max: float, points_per_decade: int) -> np.ndarray:
    """Log-uniform sampling, points_per_decade per factor of 10.

    Raises InputDomainError unless 0 < t_min < t_max < inf,
    points_per_decade is a whole number >= 1 and the window holds at most
    _MAX_SAMPLES samples.
    """
    if not (0 < t_min < t_max < math.inf):
        raise InputDomainError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    if not _is_count(points_per_decade):
        raise InputDomainError(f"points_per_decade must be an integer >= 1, got {points_per_decade!r}")
    decades = math.log10(t_max / t_min)
    # bounded before rounding: int() of an infinite product raises OverflowError
    count = max(2, int(round(min(decades * points_per_decade, _MAX_SAMPLES))) + 1)
    if count > _MAX_SAMPLES:
        raise InputDomainError(
            f"{points_per_decade} points per decade over [{t_min}, {t_max}] "
            f"make more than {_MAX_SAMPLES} samples"
        )
    return np.geomspace(t_min, t_max, count)


def compute_norm_trace(
    params: ModelParams,
    data: RadialInitialData,
    times,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    sinc_constants: SincConstants = DEFAULT_SINC,
) -> NormTrace:
    """Band-split norms and total energy over a sampled time window.

    The three band integrals of every sample and the unsplit norm at the
    first and last sample come from one band_split_norm call, on the one
    evaluation path of norm_squared, and the energy of every sample from
    one total_energy call.
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
        unsplit=split.unsplit,
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
