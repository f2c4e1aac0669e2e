"""Rayleigh quotients for Hardy-type weights and the low-dimension failure scans.

A weight w admits a Hardy-type inequality ||u/w|| <= C ||grad u|| exactly
when the Rayleigh quotient ||u/w||^2 / ||grad u||^2 stays bounded over the
admissible class.  This module evaluates such quotients for
moments.RadialProfile test functions, reading their derivatives, dimension
and finite radius upper_limit() from them, with quadrature.integrate_radial
cut at their kinks; drives them over witness families (the logarithmic
capacity family in 2-D, dilations of catalog.gaussian_profile elsewhere),
all members of a family and both of its integrals in one call; and renders
bounded/unbounded verdicts.
It also contains the corrected energy identity for the time-integrated
solution (theta = 1, n = 2), whose left side a valid Hardy inequality would
force to stay bounded, integrated like the norm by
norms.oscillatory_integrals, and the Rellich quotient that is genuinely
bounded for n >= 5.

Weights whose zero at the origin makes the quotient of any origin-positive
test function an outright divergent integral (|x| in n <= 2, |x|^2 in
n <= 4) are scanned through an exhaustion sequence: the numerator truncated
to |x| >= 1/R for a fixed Gaussian bump.  The quotient is +infinity there;
the trace records the divergence rate.  For |x| (1 + |log |x||) in 2-D the numerator
converges, but puts mass u(0)^2 / (1 + |log eps|) below every radius eps;
that part is added in closed form below eps = 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import write_columns
from .catalog import gaussian_profile
from .errors import InputDomainError, InvariantViolation, PreconditionError
from .evolution import RadialInitialData, _check_time, cosc, propagator
from .model import ModelParams, eval_dispersion, unit_sphere_area
from .moments import RadialProfile
from .norms import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _resolve_r_max,
    oscillatory_integrals,
)
from .quadrature import integrate_radial
from .records import Record, replace
from .tails import TailBound

__all__ = [
    "FAMILY_GRID",
    "WeightFunction",
    "QuotientTrace",
    "BlowupScan",
    "EnergyIdentity",
    "capacity_family",
    "dilation_family",
    "blowup_scan",
    "energy_identity_check",
    "rellich_quotient",
    "write_quotient_csv",
]

_WEIGHT_KINDS = ("a1_weight", "abs_log_weight", "plain_abs", "constant_one", "abs_squared")
_REL_TOL = 1e-11
# The 2-D abs_log_weight numerator density u(0)^2 / (r (1 + |log r|)^2) puts
# the mass u(0)^2 / (1 + |log eps|) below every eps, at radii no float
# reaches; it is integrated from this eps and that mass added in closed form.
_LOG_ORIGIN = 1e-12
# The witness family parameters R of the hardy-failure preset and of
# `rosenau hardy`: five values from e^3 to e^16
FAMILY_GRID = np.exp(np.array([3.0, 5.0, 8.0, 12.0, 16.0]))


class WeightFunction(Record):
    """Radial Hardy weight w(|x|) of one of the named kinds."""

    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in _WEIGHT_KINDS:
            raise InputDomainError(f"unknown weight kind {self.kind!r}")
        if self.dim < 1:
            raise InputDomainError("dim must be >= 1")

    @property
    def vanishes_at_origin(self) -> bool:
        return self.kind in ("abs_log_weight", "plain_abs", "abs_squared")

    def evaluate(self, r):
        arr = np.asarray(r, dtype=float)
        if self.vanishes_at_origin and np.any(arr == 0.0):
            raise InputDomainError(f"weight {self.kind} vanishes at the origin")
        if self.kind == "a1_weight":
            return (1.0 + np.log1p(arr)) * (1.0 + arr)
        if self.kind == "abs_log_weight":
            return arr * (1.0 + np.abs(np.log(arr)))
        if self.kind == "plain_abs":
            return arr
        if self.kind == "constant_one":
            return np.ones_like(arr)
        return arr**2

    def quotient_diverges_for(self, u_origin_nonzero: bool) -> bool:
        """Whether ||u/w||^2 diverges at the origin for u with u(0) != 0."""
        if not u_origin_nonzero:
            return False
        if self.kind == "plain_abs":
            return self.dim <= 2
        if self.kind == "abs_log_weight":
            return self.dim <= 1
        if self.kind == "abs_squared":
            return self.dim <= 4
        return False


def capacity_family(R: float) -> RadialProfile:
    """Logarithmic cutoff in the plane: 1 on [0,1], log(R/r)/log R on [1,R], 0 beyond.

    ||grad u_R||^2 over the plane equals 2 pi / log R exactly.
    """
    if R <= math.e:
        raise InputDomainError("need R > e")
    log_r = math.log(R)

    def val(r):
        r = np.asarray(r, dtype=float)
        mid = np.log(np.maximum(R / np.maximum(r, 1e-300), 1.0)) / log_r
        return np.where(r <= 1.0, 1.0, np.where(r >= R, 0.0, mid))

    def der(r):
        r = np.asarray(r, dtype=float)
        inside = (r > 1.0) & (r < R)
        return np.where(inside, -1.0 / (np.maximum(r, 1e-300) * log_r), 0.0)

    tail = TailBound(kind="compact", cutoff=R)
    return RadialProfile(val, 2, tail, label=f"capacity(R={R})", kinks=(1.0, R), deriv=der)


def dilation_family(R: float, base: RadialProfile) -> RadialProfile:
    """u_R(x) = phi(x/R) for the profile phi = base, in its dimension.

    The tail bound and the kinks of phi are scaled by R: a Gaussian rate by
    1/R^2, a compact cutoff by R.
    """
    if not 0.0 < R < math.inf:
        raise InputDomainError("dilation scale must be positive and finite")
    tail = base.tail

    def scaled(g, order):
        """r -> g(r/R) / R^order: the order-th derivative of phi(r/R) when
        g is that of phi."""
        return None if g is None else lambda r: g(np.asarray(r, dtype=float) / R) / R**order

    return RadialProfile(
        scaled(base.func, 0),
        base.dim,
        replace(tail, rate=tail.rate / R**2, cutoff=tail.cutoff * R),
        label=f"dilation(R={R})",
        kinks=tuple(k * R for k in base.kinks),
        deriv=scaled(base.deriv, 1),
        second_deriv=scaled(base.second_deriv, 2),
    )


def _members(u, weight: WeightFunction | None = None, needs=()) -> tuple[list, int]:
    """The profiles of u, u itself or the profiles of a list, and their one
    dimension, which must be the weight's when one is given; each profile
    must carry the derivatives named in needs."""
    members = [u] if isinstance(u, RadialProfile) else list(u)
    dims = {v.dim for v in members}
    if len(dims) != 1:
        raise InputDomainError(f"profiles of dimensions {sorted(dims)} in one call")
    (dim,) = dims
    if weight is not None and weight.dim != dim:
        raise InputDomainError(f"a profile of dimension {dim} against a weight of dimension {weight.dim}")
    for need in needs:
        if any(getattr(v, need) is None for v in members):
            raise InputDomainError(f"the quotient needs the {need} of each profile")
    return members, dim


def _radial_integrals(u, members, dim: int, lo, *profiles):
    """Integral of profile(v, r) r^(n-1) over [lo, v.upper_limit()] for the
    profile v = u, or for each v of the list u (whose profiles are members):
    the pieces of one integrate_radial call with the profile's index as
    parameter, cut at the kinks of them all.  lo is a number or one per
    piece.  Several profiles are rows of that one call, on its one
    partition, and lead the result."""

    def integrand(r, member):
        out = np.empty((len(profiles), r.size))
        for index, v in enumerate(members):
            at = member == index
            radial = r[at] ** (dim - 1)
            for row, profile in zip(out, profiles):
                row[at] = profile(v, r[at]) * radial
        return out if len(profiles) > 1 else out[0]

    single = isinstance(u, RadialProfile)
    return integrate_radial(
        integrand,
        lo,
        u.upper_limit() if single else [v.upper_limit() for v in members],
        sorted({k for v in members for k in v.kinks}),
        rel_tol=_REL_TOL,
        param=0.0 if single else np.arange(len(members)),
    )


def _gradient_density(v, r):
    return v.deriv(r) ** 2


def _weighted(members, weight: WeightFunction, dim: int, inner_cut):
    """The density (v/w)^2 of ||v/w||^2, the lower end of its integral and
    the mass below that end, one per member: inner_cut and 0, except for
    the 2-D abs_log_weight at an inner_cut of 0, whose mass below
    _LOG_ORIGIN is added in closed form."""
    lo, origin = inner_cut, 0.0
    if weight.kind == "abs_log_weight" and dim == 2 and np.ndim(inner_cut) == 0 and inner_cut == 0.0:
        lo = _LOG_ORIGIN
        at_zero = np.array([float(v.func(np.array([0.0]))[0]) for v in members])
        origin = at_zero**2 / (1.0 - math.log(_LOG_ORIGIN))
    return (lambda v, r: (v.func(r) / weight.evaluate(r)) ** 2), lo, origin


def gradient_norm_sq(u):
    """||grad u||^2 = omega_n integral |u'(r)|^2 r^(n-1) dr, for the profile
    u or, from one refinement, for each of a list of profiles of one
    dimension n."""
    members, dim = _members(u, needs=("deriv",))
    return unit_sphere_area(dim) * _radial_integrals(u, members, dim, 0.0, _gradient_density)


def weighted_norm_sq(u, weight: WeightFunction, inner_cut=0.0):
    """||u/w||^2, optionally truncated to r >= inner_cut (exhaustion use).

    u may be a list of profiles and inner_cut one cut per piece: the
    integrals are then the pieces of one refinement (see _radial_integrals).
    Every profile must have the weight's dimension.  The closed-form mass
    below _LOG_ORIGIN applies to an inner_cut of 0.
    """
    members, dim = _members(u, weight)
    density, lo, origin = _weighted(members, weight, dim, inner_cut)
    if isinstance(u, RadialProfile) and np.ndim(origin):
        origin = float(origin[0])
    return unit_sphere_area(dim) * (origin + _radial_integrals(u, members, dim, lo, density))


class QuotientTrace(Record):
    """Quotient samples over a witness family."""

    family_param: np.ndarray
    quotients: np.ndarray
    gradient_norms_sq: np.ndarray

    def __post_init__(self) -> None:
        sizes = {self.family_param.size, self.quotients.size, self.gradient_norms_sq.size}
        if len(sizes) != 1:
            raise InputDomainError("trace columns must have equal length")
        if not (
            np.all(np.isfinite(self.quotients))
            and np.all(self.quotients > 0)
            and np.all(self.gradient_norms_sq > 0)
        ):
            raise InvariantViolation("quotient traces must be finite and positive")


class BlowupScan(Record):
    trace: QuotientTrace
    verdict: str
    slope: float
    r_squared: float
    mechanism: str


def blowup_scan(weight: WeightFunction, R_grid=FAMILY_GRID) -> BlowupScan:
    """Drive the quotient over a witness family and classify its growth.

    Verdict "unbounded" when a linear fit of quotient vs log R has positive
    slope with r^2 >= 0.95, or when the sequence grows monotonically by a
    factor >= 2 across the grid (dilation quotients grow faster than
    linearly in log R).  For origin-divergent combinations the quotient is
    +infinity for any origin-positive test function; the scan then reports
    the exhaustion sequence of a fixed bump with the numerator truncated to
    |x| >= 1/R, whose growth certifies the divergence.  The dimension is the
    weight's; the bump, and the base of the dilations, is
    catalog.gaussian_profile(n).

    The gradient norms and the numerators of a family are two rows of one
    refinement over the whole family (see _radial_integrals); the
    exhaustion numerators are the intervals [1/R, support] of one call, and
    the bump's gradient norm one more.
    """
    grid = np.asarray(R_grid, dtype=float)
    if grid.size < 5:
        raise InputDomainError("need at least 5 family parameters")
    if np.any(np.diff(grid) <= 0):
        raise InputDomainError("family parameters must increase")
    if math.log(grid[-1] / grid[0]) < 3.0:
        raise InputDomainError("family parameters must span >= 3 e-foldings")

    dim = weight.dim
    bump = gaussian_profile(dim)
    if weight.quotient_diverges_for(True):
        mechanism = "exhaustion"
        grads = np.full(grid.size, gradient_norm_sq(bump))
        quotients = weighted_norm_sq(bump, weight, inner_cut=1.0 / grid) / grads
    else:
        mechanism = "capacity" if dim == 2 else "dilation"
        members = [capacity_family(R) if dim == 2 else dilation_family(R, bump) for R in grid]
        # both integrals from the numerator's lower end: in 2-D every member
        # is a capacity profile, constant on [0, 1], so no gradient lies below
        density, lo, origin = _weighted(members, weight, dim, 0.0)
        gradients, numerators = _radial_integrals(members, members, dim, lo, _gradient_density, density)
        grads = unit_sphere_area(dim) * gradients
        quotients = unit_sphere_area(dim) * (origin + numerators) / grads

    trace = QuotientTrace(grid, quotients, grads)
    x = np.log(grid)
    slope, intercept = np.polyfit(x, quotients, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((quotients - pred) ** 2))
    ss_tot = float(np.sum((quotients - np.mean(quotients)) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    monotone = bool(np.all(np.diff(quotients) > 0) and quotients[-1] >= 2.0 * quotients[0])
    unbounded = (slope > 0 and r_sq >= 0.95) or monotone
    return BlowupScan(
        trace=trace,
        verdict="unbounded" if unbounded else "bounded",
        slope=float(slope),
        r_squared=float(max(r_sq, 0.0)),
        mechanism=mechanism,
    )


class EnergyIdentity(Record):
    lhs: float
    rhs: float
    residual: float


def energy_identity_check(
    params: ModelParams,
    data: RadialInitialData,
    t: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> EnergyIdentity:
    """Energy identity of the time-integrated solution (theta = 1, n = 2).

    With v(t) = integral_0^t u(s) ds and u0 = 0 the accumulated energy obeys

        1/2 ||v_t||^2 + delta/2 ||grad v_t||^2 + mu/2 ||Delta v||^2
        + kappa/2 ||grad v||^2  =  ((I - delta Laplacian) u1, v),

    where the right side carries the per-mode factor (1 + delta |xi|^2); the
    uncorrected pairing (u1, v) misses the fractional-inertia contribution.
    Mode by mode v = (1 - cos(t f))/f^2 w1 and v_t = sin(t f)/f w1, so both
    sides read the data only through w1_sq, the density of |w1|^2: with the
    kinetic weight K = (1 + delta r^2) w1_sq r/2 and the potential weight
    P = (mu r^4 + kappa r^2) w1_sq r/2 both sides are a mean plus terms in
    cos(t f) and cos(2 t f).  The two sides are two rows of one
    norms.oscillatory_integrals call at tau = t/2, whose e^(2 i tau f) is
    e^(i t f), cut at the data's kinks: they share the segmentation, the
    nodes and each Levin panel's factorization, each held to its own
    budget, and the cost does not grow with t.  u0 = 0 is read from
    data.has_w0, w0's tail certifying it zero, as the norm integrand reads it.
    residual is |lhs - rhs| / lhs; it is returned, and the hardy-failure
    preset judges it.  The function raises only on its preconditions.
    """
    if params.theta != 1.0:
        raise PreconditionError("the identity is stated for theta = 1")
    if params.dim != 2 or data.dim != 2:
        raise PreconditionError("the identity is stated for dim = 2")
    if data.has_w0:
        raise PreconditionError("the time-integral route requires u0 = 0")
    _check_time(t)

    scale = unit_sphere_area(2) / (2.0 * math.pi) ** 2
    de, mu, ka = params.delta, params.mu, params.kappa

    def densities(r, _tau):
        """The lhs and rhs densities at the nodes r, from one evaluation of
        f and of w1_sq."""
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        w1_sq = data.w1_sq(r)
        inertia = 1.0 + de * r**2
        w_sq = propagator(t, f) ** 2 * w1_sq
        kernel = t * t * cosc(t * f)
        v_sq = kernel**2 * w1_sq
        lhs = (0.5 * inertia * w_sq + 0.5 * (mu * r**4 + ka * r**2) * v_sq) * r
        return np.stack([lhs, inertia * (kernel * w1_sq) * r])

    def weights(r):
        """f, K and P at the nodes r, from one evaluation of f and of w1_sq."""
        f = eval_dispersion(params, r)
        w1_sq = 0.5 * data.w1_sq(r) * r
        return f, (1.0 + de * r**2) * w1_sq, (mu * r**4 + ka * r**2) * w1_sq

    def means(r):
        f, kinetic, potential = weights(r)
        return np.stack([kinetic / (2.0 * f**2) + 1.5 * potential / f**4, 2.0 * kinetic / f**2])

    # lhs has a cos(2 t f) term too, with coefficient (P/f^2 - K)/(2 f^2);
    # it vanishes because theta = 1 makes mu r^4 + kappa r^2 = f^2 (1 + delta r^2)
    def coefficients(r):
        f, kinetic, potential = weights(r)
        return np.stack([-2.0 * potential / f**4, -(2.0 * kinetic / f**2)])

    r_max = _resolve_r_max(params, data, max(t, 1.0), cfg)
    if t == 0.0:
        return EnergyIdentity(0.0, 0.0, 0.0)

    lhs, rhs = scale * oscillatory_integrals(
        params, 0.5 * t, [0.0, r_max], densities, coefficients, means, kinks=data.kinks, rel_tol=1e-10
    )[:, 0]
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return EnergyIdentity(lhs=float(lhs), rhs=float(rhs), residual=float(residual))


def rellich_quotient(u: RadialProfile) -> float:
    """||u/|x|^2||^2 / ||Delta u||^2 for a profile in dim >= 5 (the
    inequality fails below)."""
    dim = u.dim
    if dim < 5:
        raise PreconditionError("the Rellich quotient is evaluated for dim >= 5")
    if u.deriv is None or u.second_deriv is None:
        raise InputDomainError("the Rellich quotient needs the deriv and second_deriv of its profile")

    def laplacian_sq(r):
        return (u.second_deriv(r) + (dim - 1) * u.deriv(r) / r) ** 2 * r ** (dim - 1)

    def rows(r):
        """The numerator and denominator densities, two rows of one refinement."""
        return np.stack([u.func(r) ** 2 * r ** (dim - 5), laplacian_sq(r)])

    numerator, denominator = integrate_radial(rows, 0.0, u.upper_limit(), u.kinks, rel_tol=_REL_TOL)
    if denominator <= 0:
        raise InputDomainError("degenerate test function: ||Delta u|| = 0")
    return numerator / denominator


def write_quotient_csv(trace: QuotientTrace, path) -> None:
    write_columns(
        path,
        ["R", "quotient", "grad_norm_sq"],
        trace.family_param,
        trace.quotients,
        trace.gradient_norms_sq,
    )
