"""Panel-based quadrature for integrands oscillating like sin(t f(r)).

Two panel rules:

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

One refinement engine, _refine, serves both rules.  Each round it evaluates
every pending panel once, accepts the panels whose error estimate meets a
width-proportional share of the tolerance or has reached rounding level
(which, for Levin and for a K21 integrand that rounds a phase t f, includes
the rounding of that phase), and bisects only the others.  Its one failure
policy is IntegrabilityError: in the round that produces a non-finite
value, and when it stops with a piece unresolved, with that piece's
estimate and error estimate; it never returns a value it did not resolve.
It takes the pieces of one call as one flat table of starting panels, so
no caller and no round loops over pieces in Python, each piece with its own
budget max(rel_tol * |piece estimate|, its abs_tol) shared out by width, so
each piece gets what it would get alone.  The panel rule receives the piece
label of every pending panel, so the pieces may differ in a parameter: the
K21 rule hands the integrand one time per node, the Levin rule takes one
frequency per panel, and a whole norm trace, every sample's pieces, is one
refinement whose bookkeeping takes the same few numpy calls per round
whatever the number of pieces.  Both rules also take row-valued
integrands, m functions sharing the pieces, every node and every panel,
each row with its own budget: a panel is accepted once every row meets its
share, and each Levin panel's collocation systems are factored once for
all its rows.  The row count is the shape the integrand returns; one row is
the m = 1 case.

One rule, known only to _refine, stops every refinement, bounded as
QUADPACK bounds its adaptive loop, by its subdivisions and not by its
caller: a depth cap of _MAX_ROUNDS bisections, and a budget in panel-rows
(one integrand row on one panel): the starting table, plus four panels a
round for _MAX_ROUNDS rounds per row and piece, which lets a piece bisected
towards a point resolve in a call of any size as alone, plus _WORK for the
whole call.  No round starts that would pass it; then a piece whose pending
panels carry more error than its budget raises.

The rule for callers: a smooth radial integrand goes through
``integrate_radial``, with its jumps passed as kinks (one smooth at r = 0,
or vanishing there, may start without the origin decades); an integrand that
oscillates like sin(t f) goes through ``norms.oscillatory_integrals``, which
splits it into a mean and Re[g e^(2 i t f)] and runs the K21 refinement
where the phase is slow or stationary and ``integrate_levin`` where it is
fast.  Many integrals of one kind are one call: integrals that differ in
their interval are one call with arrays of interval ends, and integrals
whose integrands differ in a number (a frequency, a family member) are one
call with that number as the per-interval parameter, handed to the integrand
at each node; each is then a piece, held to the tolerance it would get
alone.

A batch of many pieces can hold tens of thousands of panels, so both rules
work in chunks that keep every temporary small:

* the K21 rule hands the integrand at most 2^15 nodes at a time
  (_PANEL_CHUNK), so an integrand temporary is at most 256 KiB however
  large the batch;
* a row-valued integrand with many rows evaluates them in blocks of at
  most 2^13 values (_row_blocks, _ROW_BLOCK_VALUES), and so does
  moments.fluctuation's Bessel kernel with its nodes, so that each of the
  kernel's dozen temporaries stays within 64 KiB.  Blocks there and in the
  energy rows of evolution.total_energy took the peak RSS of an
  averaged-2d3d pass from 43.2 to 38.9 MB;
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
# The depth cap of every refinement.  _WORK alone would not do: uncapped, the
# abs_log_weight Hardy quotient at n = 3 bisected towards r = 0 to r ~ 5e-155,
# where its integrand overflowed, and a jump bisected without end reaches
# panels whose midpoint rounds to one of their ends.
_MAX_ROUNDS = 30
# The panel-rows a refinement shares beyond its allowance per row and piece
# (module docstring).  No preset refinement takes over 2,992, 22 a row and
# piece beyond its start, or 4 rounds; a 9,996-sample trace at most 8 beyond.
# 2 int sin(1e5 r)^2 e^(-2 r^2) over [0.5, 6.8] resolves to 1e-11 in 167,602
# (21 rounds, 0.1 s); sin(1e7 r)^2 gives up after 183,834 (0.12 s), and the
# 2-D fluctuation of cos(1e7 r) e^(-r^2) after 127,629 (0.5 s, 40 MB peak
# RSS, 2-core Xeon).
_WORK = 200_000
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


def _panel_table(edges, count=None) -> tuple:
    """The panel table (see _refine) of the partitions edges[i, :count[i]],
    one piece per row of the (pieces, m) array edges, all m edges of a row
    by default; one partition makes one piece."""
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    rows, m = edges.shape
    count = np.full(rows, m) if count is None else np.asarray(count)
    if (count < 2).any():
        raise InputDomainError("edges must be strictly increasing with >= 2 entries")
    keep = np.arange(m - 1) < (count - 1)[:, None]
    length = edges[np.arange(rows), count - 1] - edges[:, 0]
    return edges[:, :-1][keep], edges[:, 1:][keep], np.arange(rows).repeat(count - 1), length


def _refine(rule, panels: tuple, rel_tol: float, abs_tol):
    """Bisect the panels of one or more pieces until each meets its share
    of its piece's budget.

    panels is the table (lo, hi, piece, length) of the starting panels:
    their ends and piece labels 0..pieces-1, grouped by piece in label
    order and left to right, and each piece's length.  abs_tol is a
    number, one per piece or, for m rows, an (m, pieces) array, so that
    each row keeps its own budget.  rule(lo, hi, piece) gets the pending
    panels and the piece label of each, so that a rule can give each piece
    its own parameter (a time, a frequency), and returns per-panel
    (values, errors, floors), each of shape (panels,) or, for m integrands
    sharing the nodes, (m, panels).  Each piece keeps its own budget
    max(rel_tol * |piece estimate|, its abs_tol) per row.  A row of a panel
    meets its share when its error is below the share of its piece's budget
    proportional to the panel's width within the piece, or below its floor
    (the rounding level of the rule); a panel is accepted once every row
    meets its share, and bisected for the next round otherwise.  When it
    stops (see the module docstring), a piece whose failing panels carry
    more error than its budget raises IntegrabilityError, which names the
    piece, its estimate and its error estimate (the accepted and failing
    panels' errors summed).  Returns (value, error), each of shape
    (pieces,) or (m, pieces) and summed per piece in left-to-right order
    over the accepted panels.
    """
    pend_lo, pend_hi, pend_piece, piece_len = panels
    n_pieces = piece_len.size
    if (pend_hi <= pend_lo).any():
        raise InputDomainError("edges must be strictly increasing with >= 2 entries")
    abs_floor = np.maximum(np.asarray(abs_tol, dtype=float), 1e-300)

    acc_lo: list[np.ndarray] = []
    acc_piece: list[np.ndarray] = []
    acc_val: list[np.ndarray] = []
    acc_err: list[np.ndarray] = []
    acc_sum = None
    failed = np.empty(0, dtype=int)
    work = 0

    for depth in range(_MAX_ROUNDS + 1):
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
        rows = val.size // ok.size
        if depth == 0:
            limit = val.size + 4 * _MAX_ROUNDS * rows * n_pieces + _WORK
        work += val.size
        # stop at the depth cap, or before a round (both halves of each failing panel) past the budget
        if depth == _MAX_ROUNDS or work + 2 * rows * np.count_nonzero(~ok) > limit:
            unresolved = _piece_sums(err[..., ~ok], pend_piece[~ok], n_pieces) > budget
            failed = np.argwhere(unresolved.reshape(-1, n_pieces).T)
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
    if failed.size:
        # the first unresolved piece, and its first unresolved row
        index, row = failed[0]
        first, last = panels[2].searchsorted([index, index + 1])
        lo, hi = panels[0][first], panels[1][last - 1]
        raise IntegrabilityError(
            f"integral over [{lo:.17g}, {hi:.17g}] unresolved after {depth} rounds and {work} panel-rows: "
            f"estimate {value.reshape(-1, n_pieces)[row, index]:.17g} "
            f"with error {error.reshape(-1, n_pieces)[row, index]:.17g}"
        )
    return value, error


def _kronrod_refine(fn, panels: tuple, rel_tol: float, abs_tol=0.0, t=None, phase=None):
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
    phase = np.broadcast_to(0.0 if phase is None else np.asarray(phase, dtype=float), panels[3].shape)
    rounding = np.maximum(_ROUNDING, np.finfo(float).eps * phase)

    def rule(lo, hi, piece):
        val, err = panel_integrals(fn, lo, hi, None if t is None else t[piece])
        return val, err, rounding[piece] * np.abs(val)

    return _refine(rule, panels, rel_tol, abs_tol)


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each run of equal entries of the key arrays, and
    each entry's run number: repeats in a row share a run, without a sort."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new.nonzero()[0], new.cumsum() - 1


def _kink_edges(lo: float, hi: float, kinks) -> list:
    """lo, hi and the kinks strictly between them, in increasing order."""
    return sorted({lo, hi, *(float(k) for k in kinks if lo < k < hi)})


def _radial_edges(lo: float, hi: float, kinks, origin: bool = True) -> np.ndarray:
    """[lo, hi] cut at the kinks inside it and at every power of ten inside it.

    A first piece that starts at 0 is cut once more, _ORIGIN_DECADES
    decades below its upper end, and from there on per decade, unless
    origin=False: then only at the powers of ten from 1 up.
    """
    if not (0.0 <= lo < hi < math.inf):
        raise InputDomainError(f"need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    cuts = _kink_edges(lo, hi, kinks)
    if lo == 0.0 and origin:
        cuts.insert(1, cuts[1] * 10.0**-_ORIGIN_DECADES)
    bottom = lo if lo > 0.0 else cuts[1] if origin else 1.0
    decades = 10.0 ** np.arange(math.floor(math.log10(bottom)), math.ceil(math.log10(hi)) + 1)
    return np.array(sorted({*cuts, *decades[(decades >= bottom) & (decades < hi)].tolist()}))


def integrate_radial(fn, lo, hi, kinks=(), *, rel_tol: float, param=None):
    """Integral of fn over the finite interval [lo, hi], to rel_tol.

    fn maps a flat array of radii to values, or to an (m, nodes) array for m
    integrands; the result is then a float, or an (m,) array.  The
    partition is cut at the kinks and once per decade (see _radial_edges)
    and refined by _kronrod_refine until _refine's stopping rule, a panel
    being accepted once every row meets its share of rel_tol.
    lo and hi may also be arrays, broadcast against each other: the
    intervals are then the pieces of one refinement, each with its own
    budget, as if alone, and the result has one entry per interval on its
    last axis.  param, when given, holds one parameter per
    interval, broadcast against lo and hi: fn is then called as
    fn(radii, param at each radius), as the K21 rule hands a norm trace its
    times (see panel_integrals), so that intervals whose integrands differ
    in a number (a frequency, a family member) are one refinement too.
    Raises IntegrabilityError as _refine does.
    """
    ends = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, param) if v is not None))
    lo_all, hi_all = (v.ravel() for v in ends[:2])
    # repeated intervals, differing only in their parameter, share one partition
    first, row = _runs(lo_all, hi_all)
    parts = [_radial_edges(a, b, kinks) for a, b in zip(lo_all[first].tolist(), hi_all[first].tolist())]
    # each run's partition padded with its last edge to one width
    count = np.array([part.size for part in parts])
    edges = np.array([np.concatenate([part, part[-1:].repeat(count.max() - part.size)]) for part in parts])
    panels = _panel_table(edges[row], count[row])
    t = None if param is None else ends[2].ravel()
    value, _ = _kronrod_refine(fn, panels, rel_tol, t=t)
    if np.ndim(lo) or np.ndim(hi) or np.ndim(param):
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
    omega one frequency per panel, for each of the m rows of g: g has shape
    (m, panels, nodes), and each panel's system is factored once for all
    its rows, as one solve with m right-hand sides."""
    n = diff.shape[0]
    system = np.empty((half.size, n, n), dtype=complex)
    system[:] = diff
    diag = np.arange(n)
    system[:, diag, diag] += 1j * omega[:, None] * half[:, None] * fp
    try:
        p = np.linalg.solve(system, np.moveaxis(half[:, None] * g, 0, -1))
    except np.linalg.LinAlgError:
        raise IntegrabilityError(
            "singular Levin system: the phase is stationary on a panel"
        ) from None
    return np.moveaxis(p, -1, 0)


# Levin panels per chunk (see the module docstring)
_LEVIN_CHUNK = 256


def _levin_panels(g, phase, omega: np.ndarray, lo: np.ndarray, hi: np.ndarray):
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
    Chebyshev coefficients.  Returns (values, errors, rounding floors), each
    of shape (panels,), or (m, panels) when g returns (m, nodes) rows.
    """
    value = error = floor = None
    for start in range(0, lo.size, _LEVIN_CHUNK):
        sl = slice(start, start + _LEVIN_CHUNK)
        chunk = _levin_chunk(g, phase, omega[sl], lo[sl], hi[sl])
        if value is None:
            rows = chunk[0].shape[:-1]
            value = np.empty(rows + lo.shape, dtype=complex)
            error, floor = np.empty(rows + lo.shape), np.empty(rows + lo.shape)
        value[..., sl], error[..., sl], floor[..., sl] = chunk
    return value, error, floor


def _levin_chunk(g, phase, omega, lo, hi):
    """_levin_panels on one chunk of panels."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * _LEVIN_NODES
    x[:, 0] = hi
    x[:, -1] = lo
    flat = x.ravel()
    gv = np.asarray(g(flat))
    rows = gv.shape[:-1]
    # (m, panels, nodes), one row for an integrand without rows
    gv = gv.reshape((-1,) + x.shape)
    fv, fp = (np.asarray(v, dtype=float).reshape(x.shape) for v in phase(flat))
    if not (np.all(np.isfinite(gv)) and np.all(np.isfinite(fv)) and np.all(np.isfinite(fp))):
        raise IntegrabilityError("non-finite integrand or phase in a Levin panel")

    value = np.empty(gv.shape[:-1], dtype=complex)
    error = np.empty(gv.shape[:-1])
    # e^(i omega f) rounds its phase by about eps omega |f| at every node,
    # which no bisection removes: that share of h max|g| on a direct panel,
    # of max|g| / (omega min|f'|) <= h max|g| through a Levin panel's ends.
    # f is monotone on a panel, so max|f| is taken at its ends.
    turn = omega * half * np.min(np.abs(fp), axis=1)
    f_max = np.maximum(np.abs(fv[:, 0]), np.abs(fv[:, -1]))
    phase_noise = np.finfo(float).eps * omega * f_max / np.maximum(turn, 1.0)
    floor = np.maximum(_ROUNDING, phase_noise) * half * np.max(np.abs(gv), axis=-1)
    levin = turn >= _LEVIN_MIN_PHASE
    if np.any(levin):
        h, fl, gl, w = half[levin], fp[levin], gv[:, levin], omega[levin]
        ends = np.exp(1j * w[:, None] * fv[levin][:, [0, -1]])
        p_high = _levin_solve(_LEVIN_DIFF, h, fl, gl, w)
        p_low = _levin_solve(_LEVIN_DIFF_LOW, h, fl[:, ::2], gl[..., ::2], w)
        high = p_high[..., 0] * ends[:, 0] - p_high[..., -1] * ends[:, 1]
        low = p_low[..., 0] * ends[:, 0] - p_low[..., -1] * ends[:, 1]
        unresolved = 2.0 * h * np.sum(np.abs(gl @ _CHEBYSHEV_TAIL), axis=-1)
        unresolved += 2.0 * np.sum(np.abs(p_high @ _CHEBYSHEV_TAIL), axis=-1)
        value[:, levin] = high
        error[:, levin] = np.abs(high - low) + unresolved
    direct = ~levin
    if np.any(direct):
        h = half[direct]
        vals = gv[:, direct] * np.exp(1j * omega[direct][:, None] * fv[direct])
        value[:, direct] = h * (vals @ _CC_WEIGHTS)
        error[:, direct] = np.abs(value[:, direct] - h * (vals[..., ::2] @ _CC_WEIGHTS_LOW))
    shape = rows + lo.shape
    return value.reshape(shape), error.reshape(shape), floor.reshape(shape)


def integrate_levin(g, phase, omega, panels: tuple, rel_tol: float, abs_tol=0.0):
    """Integrals of g(r) e^(i omega f(r)) over each piece of the panel table
    panels (see _refine) by Levin collocation, the pieces of one
    refinement, each held to its own budget.

    g may be complex, and may return an (m, nodes) array for m rows that
    share the partitions, every node and every panel: each Levin panel is
    then factored once for all its rows (_levin_solve), and a panel is
    accepted once every row meets its share.  phase maps the nodes to the
    pair (f, f') of the real phase and its derivative from one evaluation,
    and f' must not vanish on the partitions.  omega is a number or one per
    piece, abs_tol a number, one per piece or one per row and piece.
    Panels are refined by _refine with |I17 - I9| (plus the Chebyshev tail
    bounds of _levin_panels) as the error estimate and 64 eps h max|g| as
    the rounding level of a panel of half-width h, raised to the rounding
    of the phase omega f where that is larger.  Returns a pair of arrays,
    the complex values and the error estimates, each of shape (pieces,) or
    (m, pieces).  Raises IntegrabilityError as _refine does, and on
    singular panels.
    """
    omegas = np.broadcast_to(np.asarray(omega, dtype=float), panels[3].shape)

    def rule(lo, hi, piece):
        return _levin_panels(g, phase, omegas[piece], lo, hi)

    return _refine(rule, panels, rel_tol, abs_tol)
