"""Panel-based quadrature for integrands oscillating like sin(t f(r)).

Two panel rules share one refinement engine:

* the embedded 10/21-point Gauss-Kronrod pair of QUADPACK (Piessens et al.
  1983): on each panel the 21-point Kronrod sum K21 is the result, and
  |K21 - G10|, where the 10-point Gauss sum G10 reuses ten of the same 21
  integrand values, is its error estimate.  Laurie (1997, Math. Comp. 66)
  describes how the Kronrod extension is computed;
* Levin collocation for integral g(r) e^(i omega f(r)) dr where f' does not
  vanish (Levin 1982, Math. Comp. 38; Olver 2006, IMA J. Numer. Anal. 26):
  the ODE p' + i omega f' p = g is collocated at 17 Chebyshev-Lobatto nodes
  per panel and at the 9 of them that form the embedded lower order, and the
  integral is p e^(i omega f) between the panel ends.  Panels are sized to g
  and f, not to the period, so the cost does not grow with omega.  Panels
  with under a radian of phase use Clenshaw-Curtis on the same nodes.

On top of them:

* ``integrate_adaptive`` (K21) and ``integrate_levin`` evaluate every
  pending panel once per round, accept the panels whose error estimate
  meets a width-proportional share of the requested tolerance or has
  reached rounding level, and bisect only the others; for Levin and for
  a K21 integrand that rounds a phase t f, rounding level includes the
  rounding of that phase.  A non-finite value raises IntegrabilityError in
  the round that produces it.  The one
  refinement loop also takes several partitions, the pieces of one call,
  each with its own budget max(rel_tol * |piece estimate|, its abs_tol)
  shared out by width, so each piece gets what it would get alone.  The
  panel rule receives the piece label of every pending panel, so the
  pieces may differ in a parameter: the K21 rule hands the integrand one
  time per node, the Levin rule takes one frequency per panel, and a whole
  norm trace, every sample's pieces, is one refinement whose bookkeeping
  takes the same few numpy calls per round whatever the number of pieces.
  The K21 refinement also takes row-valued integrands, m functions sharing
  the nodes: a panel is accepted once every row meets its share;
* ``integrate_radial`` integrates over a finite [lo, hi] cut at given kinks
  and once per decade, with the K21 refinement capped at 17 rounds, and
  raises IntegrabilityError instead of returning a value it did not
  resolve, as the capped refinements of norms.oscillatory_integrals do;
  arrays of interval ends make the intervals the pieces of one refinement.

The rule for callers: a smooth radial integrand goes through
``integrate_radial``, with its jumps passed as kinks; an integrand that
oscillates like sin(t f) goes through ``norms.oscillatory_integrals``, which
splits it into a mean and Re[g e^(2 i t f)] and runs the K21 refinement
where the phase is slow or stationary and ``integrate_levin`` where it is
fast.

A batch of many pieces can hold tens of thousands of panels, so both rules
work in chunks that keep every temporary small:

* the K21 rule hands the integrand at most 2^15 nodes at a time
  (_PANEL_CHUNK), so an integrand temporary is at most 256 KiB however
  large the batch;
* a row-valued integrand with many rows evaluates them in blocks of at
  most 2^13 values (_row_blocks, _ROW_BLOCK_VALUES), so that each of the
  Bessel kernel's dozen temporaries stays within 64 KiB for the 96 rows of
  moments.fluctuation.  Blocks there and in the 61 energy rows of
  evolution.total_energy took the peak RSS of an averaged-2d3d pass from
  43.2 to 38.9 MB; blocks of 2^15 values in fluctuation alone left it at
  40.3 MB;
* Levin runs 256 panels at a time (_LEVIN_CHUNK): its collocation systems
  are 17 x 17 complex matrices, 4.6 KB a panel, and a whole trace's Levin
  panels at once raised the peak RSS of an averaged-2d3d pass from 43 to
  55 MB and slowed it; chunks also keep its complex matrix products small
  enough for one OpenBLAS thread;
* a 2 MiB block freed at import raises glibc's mmap threshold above every
  chunk temporary, so they reuse heap pages instead of faulting in fresh
  ones.  Sized to a 2^15-node chunk instead, the block left the larger
  temporaries on fresh pages: an averaged-2d3d pass took 9.1k minor
  faults instead of about 3.1k (0.74k since the row blocks).

All of it is deterministic: the partition depends only on the inputs and
accepted panel contributions are summed in left-to-right order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError, IntegrabilityError

__all__ = [
    "GL_ORDER",
    "KRONROD_POINTS",
    "panel_integrals",
    "integrate_adaptive",
    "integrate_radial",
    "LEVIN_POINTS",
    "integrate_levin",
]

# Order of the Gauss-Legendre rule the package first used.  Nothing in the
# package reads it; perfbench/tracer.py does when it installs, and it stays
# until the tracer counts Kronrod nodes (ROADMAP item 3).
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
# bisection rounds before pending panels keep their last value and error
_MAX_ROUNDS = 30
# An error below this share of a panel's scale is rounding level: bisection
# cannot lower it.  The scale is |K21| for the Gauss-Kronrod pair and h max|g|
# for Levin panels, where it bounds the Levin rounding too,
# eps |g| / (omega |f'|) <= eps h |g| on panels with at least
# _LEVIN_MIN_PHASE of phase.
_ROUNDING = 64.0 * np.finfo(float).eps
_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_GAUSS_WEIGHTS = np.zeros(KRONROD_POINTS)
_GAUSS_WEIGHTS[1::2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])
# one product gives K21 and K21 - G10 per panel
_RULE = np.stack([_KRONROD_WEIGHTS, _KRONROD_WEIGHTS - _GAUSS_WEIGHTS], axis=1)

# Bisection rounds of integrate_radial.  Each round may double the failing
# panels, so an integrand the pair cannot resolve would exhaust memory well
# before _MAX_ROUNDS.  17 rounds resolve sin(1e5 r)^2 e^(-2 r^2) on [0.5, 6.8]
# to 1e-11 in about 0.15 s and give up on sin(1e7 r)^2 in about 0.3 s.
_RADIAL_ROUNDS = 17
# a piece [0, b] of integrate_radial is first cut at b 10^-16
_ORIGIN_DECADES = 16

# K21 panels per chunk: at most 2^15 integrand nodes at a time (see the
# module docstring)
_PANEL_CHUNK = (1 << 15) // KRONROD_POINTS
# values per row block of a row-valued integrand (_row_blocks)
_ROW_BLOCK_VALUES = 1 << 13

# glibc serves a block of 128 KiB or more by a fresh mmap and unmaps it on
# free, until the first such free raises that threshold to the block's size.
# Freeing one 2 MiB block at import, never touched and so without page
# faults, raises it before the first pass (see the module docstring).
np.empty(1 << 18)


def _row_blocks(rows: int, nodes: int) -> list[slice]:
    """Consecutive slices of range(rows), each of at most
    max(1, 2^13 // nodes) rows, so that a row-valued integrand evaluated one
    block at a time keeps each temporary within 2^13 values (see the module
    docstring)."""
    step = max(1, _ROW_BLOCK_VALUES // max(nodes, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _panel_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 21 Kronrod nodes of each panel [lo_i, hi_i], one row per panel,
    and the half-widths; the K21 weights of row i are half_i times
    _KRONROD_WEIGHTS."""
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi)[:, None] + half[:, None] * _NODES[None, :], half


def panel_integrals(fn, lo: np.ndarray, hi: np.ndarray, t=None) -> tuple[np.ndarray, np.ndarray]:
    """K21 estimate of the integral of fn over each [lo_i, hi_i], and |K21 - G10|.

    fn maps a flat array of nodes to values, or to an (m, nodes) array for m
    integrands sharing the nodes; the results then have shape (m, panels).
    t, when given, holds one parameter per panel, a time in the norm trace:
    fn is then called as fn(nodes, t at each node).  Evaluates in chunks of
    at most 2^15 nodes (_PANEL_CHUNK panels) so huge batches stay within
    memory.  The chunks depend only on the panel count, so the results are
    reproducible; a panel's result may differ in the last bit with the chunk
    it falls in, since BLAS blocking depends on the chunk size.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    values = errors = None
    for start in range(0, lo.size, _PANEL_CHUNK):
        sl = slice(start, min(start + _PANEL_CHUNK, lo.size))
        x, half = _panel_nodes(lo[sl], hi[sl])
        if t is None:
            vals = fn(x.ravel())
        else:
            vals = fn(x.ravel(), np.repeat(t[sl], KRONROD_POINTS))
        vals = np.asarray(vals, dtype=float)
        sums = vals.reshape(vals.shape[:-1] + x.shape) @ _RULE
        if values is None:
            values = np.empty(sums.shape[:-2] + lo.shape)
            errors = np.empty_like(values)
        values[..., sl] = sums[..., 0] * half
        errors[..., sl] = np.abs(sums[..., 1]) * half
    if values is None:
        values = errors = np.empty(lo.shape)
    return values, errors


def _piece_sums(x: np.ndarray, piece: np.ndarray, n_pieces: int) -> np.ndarray:
    """Sums of x over each of n_pieces pieces, stacked on a last axis, for x
    whose last axis is grouped by the nondecreasing piece labels piece.

    A single piece is summed by np.sum, several by one np.add.reduceat over
    the pieces that own entries; an empty piece sums to 0."""
    if n_pieces == 1:
        return x.sum(axis=-1)[..., None]
    starts = piece.searchsorted(np.arange(n_pieces))
    owned = np.append(starts[1:], piece.size) > starts
    sums = np.zeros(x.shape[:-1] + (n_pieces,), dtype=x.dtype)
    if owned.any():
        sums[..., owned] = np.add.reduceat(x, starts[owned], axis=-1)
    return sums


def _refine(rule, pieces, rel_tol: float, abs_tol, max_rounds: int, strict: bool = False):
    """Bisect the panels of one or more partitions until each meets its share
    of its piece's budget.

    pieces is a list of partitions, each a strictly increasing edge array,
    and abs_tol a number or one per piece.  rule(lo, hi, piece) gets the
    pending panels and the piece label of each, so that a rule can give each
    piece its own parameter (a time, a frequency), and returns per-panel
    (values, errors, floors), each of shape (panels,) or, for m integrands
    sharing the nodes, (m, panels).  Every pending panel carries the label
    of its piece, and each piece keeps its own budget
    max(rel_tol * |piece estimate|, its abs_tol) per row.  A row of a panel
    meets its share when its error is below the share of its piece's budget
    proportional to the panel's width within the piece, or below its floor
    (the rounding level of the rule); a panel is accepted once every row
    meets its share, and bisected for the next round otherwise.  After
    max_rounds bisections the pending panels keep their last value and
    error, unless strict: then a piece whose failing panels carry more error
    than its budget raises IntegrabilityError.  Returns (value, error), each
    of shape (pieces,) or (m, pieces) and summed per piece in left-to-right
    order over the accepted panels.  Each round takes the same few numpy
    calls whatever the number of pieces, and a single piece is refined as
    if it were alone.
    """
    pieces = [np.asarray(edges, dtype=float) for edges in pieces]
    malformed = InputDomainError("edges must be strictly increasing with >= 2 entries")
    if any(edges.ndim != 1 or edges.size < 2 for edges in pieces):
        raise malformed
    pend_lo = np.concatenate([edges[:-1] for edges in pieces])
    pend_hi = np.concatenate([edges[1:] for edges in pieces])
    if np.any(pend_hi <= pend_lo):
        raise malformed
    n_pieces = len(pieces)
    piece_len = np.array([edges[-1] - edges[0] for edges in pieces])
    abs_floor = np.maximum(np.broadcast_to(abs_tol, (n_pieces,)), 1e-300)

    pend_piece = np.repeat(np.arange(n_pieces), [edges.size - 1 for edges in pieces])

    acc_lo: list[np.ndarray] = []
    acc_piece: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err: list[np.ndarray] = []
    acc_sum = None

    for depth in range(max_rounds + 1):
        val, err, floor = rule(pend_lo, pend_hi, pend_piece)
        if not (np.isfinite(val).all() and np.isfinite(err).all()):
            bad = ~(np.isfinite(val) & np.isfinite(err)).reshape(-1, pend_lo.size).all(axis=0)
            raise IntegrabilityError(
                f"non-finite integrand on [{pend_lo[bad][0]:.17g}, {pend_hi[bad][0]:.17g}]"
            )
        if acc_sum is None:
            acc_sum = np.zeros(val.shape[:-1] + (n_pieces,), dtype=val.dtype)
        # pending panels stay grouped by piece, so each piece is one slice
        budget = np.maximum(rel_tol * np.abs(acc_sum + _piece_sums(val, pend_piece, n_pieces)), abs_floor)
        share = budget[..., pend_piece] * (pend_hi - pend_lo) / piece_len[pend_piece]
        met = (err <= share) | (err <= floor)
        ok = met.all(axis=0) if met.ndim > 1 else met
        if depth == max_rounds:
            unresolved = _piece_sums(err[..., ~ok], pend_piece[~ok], n_pieces) > budget
            failed = np.flatnonzero(unresolved.reshape(-1, n_pieces).any(axis=0))
            if strict and failed.size:
                lo, hi = pieces[failed[0]][[0, -1]]
                raise IntegrabilityError(f"integral over [{lo:.17g}, {hi:.17g}] unresolved after {depth} rounds")
            ok[:] = True

        accepted = val.compress(ok, axis=-1)
        acc_lo.append(pend_lo[ok])
        acc_piece.append(pend_piece[ok])
        acc_val.append(accepted)
        acc_err.append(err.compress(ok, axis=-1))

        bad = ~ok
        if not np.any(bad):
            break
        acc_sum += _piece_sums(accepted, acc_piece[-1], n_pieces)
        mid = 0.5 * (pend_lo[bad] + pend_hi[bad])
        pend_lo = np.concatenate([pend_lo[bad], mid])
        pend_hi = np.concatenate([mid, pend_hi[bad]])
        pend_piece = np.concatenate([pend_piece[bad], pend_piece[bad]])
        if n_pieces > 1:
            # per piece its left halves, then its right halves
            order = np.argsort(pend_piece, kind="stable")
            pend_lo, pend_hi, pend_piece = pend_lo[order], pend_hi[order], pend_piece[order]

    piece = np.concatenate(acc_piece)
    order = np.lexsort((np.concatenate(acc_lo), piece))
    value = _piece_sums(np.concatenate(acc_val, axis=-1)[..., order], piece[order], n_pieces)
    error = _piece_sums(np.concatenate(acc_err, axis=-1)[..., order], piece[order], n_pieces)
    return value, error


def _kronrod_refine(
    fn, pieces, rel_tol: float, abs_tol=0.0, max_rounds: int = _MAX_ROUNDS, t=None, phase=None, strict=False
):
    """_refine with the G10/K21 pair, whose floor is 64 eps |K21| per panel.

    fn may return (m, nodes) rows; the results are numpy arrays of shape
    (pieces,) or (m, pieces).  t, when given, holds one time per piece, and
    fn is called as fn(nodes, t at each node) (see panel_integrals).
    phase, when given, bounds per piece the phase |t f| that fn rounds,
    with an error of about eps |t f| that no bisection removes: the floor
    is then max(64, phase) eps |K21|, for an fn that does not cancel on a
    panel.
    """
    if t is not None:
        t = np.asarray(t, dtype=float)
    phase = np.broadcast_to(0.0 if phase is None else np.asarray(phase, dtype=float), (len(pieces),))
    rounding = np.maximum(_ROUNDING, np.finfo(float).eps * phase)

    def rule(lo, hi, piece):
        val, err = panel_integrals(fn, lo, hi, None if t is None else t[piece])
        return val, err, rounding[piece] * np.abs(val)

    return _refine(rule, pieces, rel_tol, abs_tol, max_rounds, strict)


def integrate_adaptive(
    fn,
    edges: np.ndarray,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_rounds: int = _MAX_ROUNDS,
) -> tuple[float, float]:
    """Integrate fn over the partition, bisecting only the panels that fail.

    Each round evaluates every pending panel once with the G10/K21 pair and
    bisects the panels whose |K21 - G10| misses its width share of the
    budget max(rel_tol * |estimate|, abs_tol) and exceeds the rounding level
    64 eps |K21| of the panel.  After max_rounds bisections
    the panels still pending keep their last K21 value and |K21 - G10| error.
    Returns (value, error_estimate), the estimate being the sum of the
    accepted panels' errors.  Raises IntegrabilityError in the first round
    that produces a non-finite value or error.
    """
    value, error = _kronrod_refine(fn, [edges], rel_tol, abs_tol, max_rounds)
    return float(value[0]), float(error[0])


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The values sorted, each once: np.unique without the numpy.ma import
    that its first call costs."""
    values = np.sort(values)
    return values[np.concatenate([[True], np.diff(values) > 0])]


def _radial_edges(lo: float, hi: float, kinks) -> np.ndarray:
    """[lo, hi] cut at the kinks inside it and at every power of ten inside it.

    A first piece that starts at 0 is cut once more, _ORIGIN_DECADES
    decades below its upper end, and from there on per decade.
    """
    if not (0.0 <= lo < hi < math.inf):
        raise InputDomainError(f"need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    cuts = sorted({lo, hi, *(float(k) for k in kinks if lo < k < hi)})
    if lo == 0.0:
        cuts.insert(1, cuts[1] * 10.0**-_ORIGIN_DECADES)
    bottom = cuts[1] if lo == 0.0 else lo
    decades = 10.0 ** np.arange(math.floor(math.log10(bottom)), math.ceil(math.log10(hi)) + 1)
    return _sorted_unique(np.concatenate([cuts, decades[(decades > bottom) & (decades < hi)]]))


def integrate_radial(fn, lo, hi, kinks=(), *, rel_tol: float):
    """Integral of fn over the finite interval [lo, hi], to rel_tol.

    fn maps a flat array of radii to values, or to an (m, nodes) array for m
    integrands; the result is then a float, or an (m,) array.  The
    partition is cut at the kinks and once per decade (see _radial_edges)
    and refined as in integrate_adaptive for at most _RADIAL_ROUNDS rounds,
    a panel being accepted once every row meets its share of rel_tol.
    lo and hi may also be arrays, broadcast against each other: the
    intervals are then the pieces of one refinement, each with its own
    budget and so refined as if alone, and the result has one entry per
    interval on its last axis.  Raises IntegrabilityError when the panels
    still failing after the last round carry more error than rel_tol times
    a row's |value|, or on a non-finite value.
    """
    ends = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    los, his = (v.ravel().tolist() for v in ends)
    pieces = [_radial_edges(a, b, kinks) for a, b in zip(los, his)]
    value, _ = _kronrod_refine(fn, pieces, rel_tol, max_rounds=_RADIAL_ROUNDS, strict=True)
    if np.ndim(lo) or np.ndim(hi):
        return value
    value = value[..., 0]
    return value if value.ndim else float(value)


def _chebyshev_lobatto(n: int):
    """Nodes cos(pi k / (n - 1)), k = 0..n-1, on [-1, 1], with their
    differentiation matrix, Clenshaw-Curtis weights and the map from node
    values to Chebyshev coefficients.

    The nodes decrease from 1 to -1; the matrix is Trefethen's (Spectral
    Methods in MATLAB, 2000, program cheb), with the diagonal set by the
    negative row sums.  The weights integrate T_0 .. T_(n-1) exactly.
    """
    k = np.arange(n)
    x = np.cos(math.pi * k / (n - 1))
    c = np.where((k == 0) | (k == n - 1), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    d -= np.diag(d.sum(axis=1))
    chebyshev = np.cos(np.outer(k, math.pi * k / (n - 1)))  # T_k at node j
    moments = np.zeros(n)
    moments[::2] = 2.0 / (1.0 - k[::2] ** 2)
    weights = np.linalg.solve(chebyshev, moments)
    return x, d, weights, np.linalg.inv(chebyshev.T)


# Levin collocation pair: 17 Chebyshev-Lobatto nodes, every other one of
# which is a node of the 9-point member, so one evaluation serves both.
LEVIN_POINTS = 17
_LEVIN_NODES, _LEVIN_DIFF, _CC_WEIGHTS, _TO_CHEBYSHEV = _chebyshev_lobatto(LEVIN_POINTS)
_LEVIN_DIFF_LOW, _CC_WEIGHTS_LOW = _chebyshev_lobatto((LEVIN_POINTS + 1) // 2)[1:3]
# the two highest Chebyshev coefficients of g on a panel
_CHEBYSHEV_TAIL = _TO_CHEBYSHEV[-2:].T
# Below one radian of phase per unit of the reference panel [-1, 1] the
# collocation matrix tends to the nilpotent differentiation matrix and turns
# singular, while e^(i omega f) is smooth enough for Clenshaw-Curtis on the
# same nodes.
_LEVIN_MIN_PHASE = 1.0


def _levin_solve(diff, half, fp, g, omega):
    """Collocation values of p with p' + i omega f' p = g on each panel,
    omega one frequency per panel."""
    n = diff.shape[0]
    system = np.empty((half.size, n, n), dtype=complex)
    system[:] = diff
    diag = np.arange(n)
    system[:, diag, diag] += 1j * omega[:, None] * half[:, None] * fp
    try:
        return np.linalg.solve(system, (half[:, None] * g)[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise IntegrabilityError(
            "singular Levin system: the phase is stationary on a panel"
        ) from None


# Levin panels per chunk (see the module docstring)
_LEVIN_CHUNK = 256


def _levin_panels(g, f, fprime, omega: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Estimates of integral g(r) e^(i omega f(r)) dr over each [lo_i, hi_i],
    with omega one frequency per panel, in chunks of _LEVIN_CHUNK panels.

    Collocates p' + i omega f' p = g at the 17 Chebyshev-Lobatto nodes of each
    panel (and at the 9 of them that form the lower-order rule), so that the
    integral is p(hi) e^(i omega f(hi)) - p(lo) e^(i omega f(lo)) (Levin 1982,
    Math. Comp. 38; Olver 2006, IMA J. Numer. Anal. 26).  The cost does not
    depend on omega, and the error of a panel falls as omega grows.  Panels
    with less than _LEVIN_MIN_PHASE of phase use the Clenshaw-Curtis pair on
    the same nodes instead.

    Once the phase is fast, both Levin values tend to the endpoint terms
    g/(i omega f') and agree even where g or p is not resolved: a jump or an
    oscillation of g inside the panel, or the growth p ~ g/(i omega f') of
    p towards a stationary point of f beside the panel, would go unseen.
    So the error of a Levin panel is |I17 - I9| plus the integral bound
    2 h (|c_15| + |c_16|) of the interpolation error of g and the bound
    2 (|c_15| + |c_16|) of that of p at the ends, each from its two highest
    Chebyshev coefficients.  Returns (values, errors, rounding floors).
    """
    value = np.empty(lo.shape, dtype=complex)
    error = np.empty(lo.shape)
    floor = np.empty(lo.shape)
    for start in range(0, lo.size, _LEVIN_CHUNK):
        sl = slice(start, start + _LEVIN_CHUNK)
        value[sl], error[sl], floor[sl] = _levin_chunk(g, f, fprime, omega[sl], lo[sl], hi[sl])
    return value, error, floor


def _levin_chunk(g, f, fprime, omega, lo, hi):
    """_levin_panels on one chunk of panels."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _LEVIN_NODES
    x[:, 0] = hi
    x[:, -1] = lo
    flat = x.ravel()
    gv = np.asarray(g(flat)).reshape(x.shape)
    phase = f(flat) if fprime is None else (f(flat), fprime(flat))
    fv, fp = (np.asarray(v, dtype=float).reshape(x.shape) for v in phase)
    if not (np.all(np.isfinite(gv)) and np.all(np.isfinite(fv)) and np.all(np.isfinite(fp))):
        raise IntegrabilityError("non-finite integrand or phase in a Levin panel")

    value = np.empty(lo.shape, dtype=complex)
    error = np.empty(lo.shape)
    # e^(i omega f) rounds its phase by about eps omega |f| at every node,
    # which no bisection removes: that share of h max|g| on a direct panel,
    # of max|g| / (omega min|f'|) <= h max|g| through a Levin panel's ends.
    # f is monotone on a panel, so max|f| is taken at its ends.
    turn = omega * half * np.min(np.abs(fp), axis=1)
    f_max = np.maximum(np.abs(fv[:, 0]), np.abs(fv[:, -1]))
    phase_noise = np.finfo(float).eps * omega * f_max / np.maximum(turn, 1.0)
    floor = np.maximum(_ROUNDING, phase_noise) * half * np.max(np.abs(gv), axis=1)
    levin = turn >= _LEVIN_MIN_PHASE
    if np.any(levin):
        h, fl, gl, w = half[levin], fp[levin], gv[levin], omega[levin]
        ends = np.exp(1j * w[:, None] * fv[levin][:, [0, -1]])
        p_high = _levin_solve(_LEVIN_DIFF, h, fl, gl, w)
        p_low = _levin_solve(_LEVIN_DIFF_LOW, h, fl[:, ::2], gl[:, ::2], w)
        high = p_high[:, 0] * ends[:, 0] - p_high[:, -1] * ends[:, 1]
        low = p_low[:, 0] * ends[:, 0] - p_low[:, -1] * ends[:, 1]
        unresolved = 2.0 * h * np.sum(np.abs(gl @ _CHEBYSHEV_TAIL), axis=1)
        unresolved += 2.0 * np.sum(np.abs(p_high @ _CHEBYSHEV_TAIL), axis=1)
        value[levin] = high
        error[levin] = np.abs(high - low) + unresolved
    direct = ~levin
    if np.any(direct):
        h = half[direct]
        vals = gv[direct] * np.exp(1j * omega[direct][:, None] * fv[direct])
        value[direct] = h * (vals @ _CC_WEIGHTS)
        error[direct] = np.abs(value[direct] - h * (vals[:, ::2] @ _CC_WEIGHTS_LOW))
    return value, error, floor


def integrate_levin(
    g,
    f,
    fprime,
    omega,
    edges,
    rel_tol: float,
    abs_tol=0.0,
    *,
    strict: bool = False,
):
    """Integral of g(r) e^(i omega f(r)) over the partition by Levin collocation.

    g may be complex; f and fprime are the real phase and its derivative,
    which must not vanish on the partition; fprime may be None when f
    returns the pair (phase, derivative) from one evaluation.  Panels are
    refined as in integrate_adaptive with its default round limit, with
    |I17 - I9| as the error estimate and 64 eps h max|g| as the rounding
    level of a panel of half-width h, raised to the rounding of the phase
    omega f where that is larger.  Returns (complex value, error estimate).
    edges may also be a list of partitions, the pieces of one refinement,
    each held to its own budget: omega and abs_tol are then a number or one
    per piece, and the result a pair of arrays, the complex values and the
    error estimates per piece.  Raises IntegrabilityError on non-finite
    values and singular panels, and, when strict, on a piece still
    unresolved after the last round.
    """
    pieces = edges if isinstance(edges, list) else [edges]
    omegas = np.broadcast_to(np.asarray(omega, dtype=float), (len(pieces),))

    def rule(lo, hi, piece):
        return _levin_panels(g, f, fprime, omegas[piece], lo, hi)

    value, error = _refine(rule, pieces, rel_tol, abs_tol, _MAX_ROUNDS, strict)
    if isinstance(edges, list):
        return value, error
    return complex(value[0]), float(error[0])
