"""Rayleigh quotients for Hardy-type weights and the low-dimension failure scans.

A weight w admits a Hardy-type inequality ||u/w|| <= C ||grad u|| exactly
when the Rayleigh quotient ||u/w||^2 / ||grad u||^2 stays bounded over the
admissible class.  This module evaluates such quotients with
quadrature.integrate_radial over the test function's finite support, cut
at its kinks; drives them over witness families (the logarithmic capacity
family in 2-D, dilations elsewhere), all members of a family in one call
per integral; and renders bounded/unbounded verdicts.
It also contains the corrected energy identity for the time-integrated
solution (theta = 1, n = 2), whose left side a valid Hardy inequality would
force to stay bounded, integrated like the norm by
norms.oscillatory_integrals, and the Rellich quotient that is genuinely
bounded for n >= 5.

Weights whose zero at the origin makes the quotient of any origin-positive
test function an outright divergent integral (|x| in n <= 2, |x|^2 in
n <= 4) are scanned through an exhaustion sequence: the numerator truncated
to |x| >= 1/R for a fixed bump.  The quotient is +infinity there; the trace
records the divergence rate.  For |x| (1 + |log |x||) in 2-D the numerator
converges, but puts mass u(0)^2 / (1 + |log eps|) below every radius eps;
that part is added in closed form below eps = 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .artifacts import write_columns
from .errors import InputDomainError, InvariantViolation, PreconditionError
from .evolution import RadialInitialData, _check_time, cosc, propagator
from .model import ModelParams, eval_dispersion, unit_sphere_area
from .norms import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    _resolve_r_max,
    norm_squared,
    oscillatory_integrals,
)
from .quadrature import integrate_radial

__all__ = [
    "WeightFunction",
    "RadialTestFunction",
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


@dataclass(frozen=True)
class WeightFunction:
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


@dataclass(frozen=True)
class RadialTestFunction:
    """Radial profile with derivatives, for quotient evaluation.

    The profile vanishes beyond the finite radius support; kinks are radii
    where a derivative jumps.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    support: float
    second_deriv: Callable[[np.ndarray], np.ndarray] | None = None
    kinks: tuple = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.support is None or not (math.isfinite(self.support) and self.support > 0):
            raise InputDomainError(
                f"a test function needs a finite positive support, got {self.support}"
            )


def gaussian_bump(scale: float = 1.0) -> RadialTestFunction:
    """exp(-(r/scale)^2) with closed-form derivatives.

    support is the effective truncation 6.8 * scale, where the squared
    envelope has decayed to ~1e-40 of its peak.
    """

    def val(r):
        return np.exp(-((np.asarray(r, dtype=float) / scale) ** 2))

    def der(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * r / scale**2 * np.exp(-((r / scale) ** 2))

    def der2(r):
        r = np.asarray(r, dtype=float)
        return (4.0 * r**2 / scale**4 - 2.0 / scale**2) * np.exp(-((r / scale) ** 2))

    return RadialTestFunction(val, der, 6.8 * scale, der2, label=f"gaussian(scale={scale})")


def capacity_family(R: float, dim: int = 2) -> RadialTestFunction:
    """Logarithmic cutoff: 1 on [0,1], log(R/r)/log R on [1,R], 0 beyond.

    ||grad u_R||^2 over the plane equals 2 pi / log R exactly.
    """
    if dim != 2:
        raise PreconditionError("the capacity family is the 2-D witness")
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

    return RadialTestFunction(val, der, support=R, kinks=(1.0, R), label=f"capacity(R={R})")


def dilation_family(R: float, base: RadialTestFunction | None = None) -> RadialTestFunction:
    """u_R(x) = phi(x/R) for a fixed bump phi (Gaussian by default)."""
    if R <= 0:
        raise InputDomainError("dilation scale must be positive")
    phi = base if base is not None else gaussian_bump()

    def val(r):
        return phi.value(np.asarray(r, dtype=float) / R)

    def der(r):
        return phi.deriv(np.asarray(r, dtype=float) / R) / R

    der2 = None
    if phi.second_deriv is not None:
        def der2(r):  # noqa: E306
            return phi.second_deriv(np.asarray(r, dtype=float) / R) / R**2

    return RadialTestFunction(val, der, phi.support * R, der2, label=f"dilation(R={R})")


def _members(u) -> list:
    """The test functions of u: u itself, or the functions of a list."""
    return [u] if isinstance(u, RadialTestFunction) else list(u)


def _radial_integrals(u, profile, lo, dim: int):
    """Integral of profile(v, r) r^(n-1) over [lo, v.support] for the test
    function v = u, or for each v of a list u: the pieces of one
    integrate_radial call with the function's index as parameter, cut at
    the kinks of them all.  lo is a number or one per piece."""
    members = _members(u)

    def integrand(r, member):
        out = np.empty_like(r)
        for index, v in enumerate(members):
            at = member == index
            out[at] = profile(v, r[at]) * r[at] ** (dim - 1)
        return out

    single = isinstance(u, RadialTestFunction)
    return integrate_radial(
        integrand,
        lo,
        u.support if single else [v.support for v in members],
        sorted({k for v in members for k in v.kinks}),
        rel_tol=_REL_TOL,
        param=0.0 if single else np.arange(len(members)),
    )


def gradient_norm_sq(u, dim: int):
    """||grad u||^2 = omega_n integral |u'(r)|^2 r^(n-1) dr, for the test
    function u or, from one refinement, for each of a list of them."""
    return unit_sphere_area(dim) * _radial_integrals(u, lambda v, r: v.deriv(r) ** 2, 0.0, dim)


def weighted_norm_sq(u, weight: WeightFunction, dim: int, inner_cut=0.0):
    """||u/w||^2, optionally truncated to r >= inner_cut (exhaustion use).

    u may be a list of test functions and inner_cut one cut per piece: the
    integrals are then the pieces of one refinement (see _radial_integrals).
    The closed-form mass below _LOG_ORIGIN applies to an inner_cut of 0.
    """
    lo, origin = inner_cut, 0.0
    if weight.kind == "abs_log_weight" and dim == 2 and np.ndim(inner_cut) == 0 and inner_cut == 0.0:
        lo = _LOG_ORIGIN
        at_zero = np.array([float(v.value(np.array([0.0]))[0]) for v in _members(u)])
        origin = at_zero**2 / (1.0 - math.log(_LOG_ORIGIN))
        if isinstance(u, RadialTestFunction):
            origin = float(origin[0])
    val = _radial_integrals(u, lambda v, r: (v.value(r) / weight.evaluate(r)) ** 2, lo, dim)
    return unit_sphere_area(dim) * (origin + val)


@dataclass(frozen=True)
class QuotientTrace:
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


@dataclass(frozen=True)
class BlowupScan:
    trace: QuotientTrace
    verdict: str
    slope: float
    r_squared: float
    mechanism: str


def blowup_scan(weight: WeightFunction, R_grid, dim: int) -> BlowupScan:
    """Drive the quotient over a witness family and classify its growth.

    Verdict "unbounded" when a linear fit of quotient vs log R has positive
    slope with r^2 >= 0.95, or when the sequence grows monotonically by a
    factor >= 2 across the grid (dilation quotients grow faster than
    linearly in log R).  For origin-divergent combinations the quotient is
    +infinity for any origin-positive test function; the scan then reports
    the exhaustion sequence of a fixed bump with the numerator truncated to
    |x| >= 1/R, whose growth certifies the divergence.

    Each of the two integrals takes one refinement over the whole family
    (see _radial_integrals); the exhaustion numerators are the intervals
    [1/R, support] of one call.
    """
    grid = np.asarray(R_grid, dtype=float)
    if grid.size < 5:
        raise InputDomainError("need at least 5 family parameters")
    if np.any(np.diff(grid) <= 0):
        raise InputDomainError("family parameters must increase")
    if math.log(grid[-1] / grid[0]) < 3.0:
        raise InputDomainError("family parameters must span >= 3 e-foldings")

    if weight.quotient_diverges_for(True):
        mechanism = "exhaustion"
        bump = gaussian_bump()
        grads = np.full(grid.size, gradient_norm_sq(bump, dim))
        quotients = weighted_norm_sq(bump, weight, dim, inner_cut=1.0 / grid) / grads
    else:
        mechanism = "capacity" if dim == 2 else "dilation"
        members = [capacity_family(R, dim) if dim == 2 else dilation_family(R) for R in grid]
        grads = gradient_norm_sq(members, dim)
        quotients = weighted_norm_sq(members, weight, dim) / grads

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


@dataclass(frozen=True)
class EnergyIdentity:
    lhs: float
    rhs: float
    residual: float
    solution_norm_sq_half: float


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
    Mode by mode v = (1 - cos(t f))/f^2 w1 and v_t = sin(t f)/f w1, so with
    the kinetic weight K = (1 + delta r^2)|w1|^2 r/2 and the potential weight
    P = (mu r^4 + kappa r^2)|w1|^2 r/2 both sides are a mean plus terms in
    cos(t f) and cos(2 t f).  Both run through norms.oscillatory_integrals at
    tau = t/2, whose e^(2 i tau f) is e^(i t f), cut at the data's kinks, so
    the cost does not grow with t.  solution_norm_sq_half is ||u(t)||^2 / 2
    from norm_squared, held to 1e-9 per piece.
    """
    if params.theta != 1.0:
        raise PreconditionError("the identity is stated for theta = 1")
    if params.dim != 2 or data.dim != 2:
        raise PreconditionError("the identity is stated for dim = 2")
    probe = np.linspace(0.0, 10.0, 11)
    if np.any(np.abs(np.asarray(data.w0_profile(probe))) > 0):
        raise PreconditionError("the time-integral route requires u0 = 0")
    _check_time(t)

    scale = unit_sphere_area(2) / (2.0 * math.pi) ** 2
    de, mu, ka = params.delta, params.mu, params.kappa

    def lhs_density(r, _tau):
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        phase = t * f
        w1 = np.asarray(data.w1_profile(r))
        w_sq = propagator(t, f) ** 2 * np.abs(w1) ** 2
        v_sq = (t * t * cosc(phase)) ** 2 * np.abs(w1) ** 2
        return (
            0.5 * (1.0 + de * r**2) * w_sq + 0.5 * (mu * r**4 + ka * r**2) * v_sq
        ) * r

    def rhs_density(r, _tau):
        r = np.asarray(r, dtype=float)
        f = eval_dispersion(params, r)
        phase = t * f
        w1 = np.asarray(data.w1_profile(r))
        v_re = t * t * cosc(phase) * np.real(np.conj(w1) * w1)
        return (1.0 + de * r**2) * v_re * r

    def weights(r):
        """f, K and P at the nodes r, from one evaluation of f and of w1."""
        f = eval_dispersion(params, r)
        w1_sq = 0.5 * np.abs(np.asarray(data.w1_profile(r))) ** 2 * r
        return f, (1.0 + de * r**2) * w1_sq, (mu * r**4 + ka * r**2) * w1_sq

    def lhs_mean(r):
        f, kinetic, potential = weights(r)
        return kinetic / (2.0 * f**2) + 1.5 * potential / f**4

    # lhs has a cos(2 t f) term too, with coefficient (P/f^2 - K)/(2 f^2);
    # it vanishes because theta = 1 makes mu r^4 + kappa r^2 = f^2 (1 + delta r^2)
    def lhs_coefficient(r):
        f, _, potential = weights(r)
        return -2.0 * potential / f**4

    def rhs_mean(r):
        f, kinetic, _ = weights(r)
        return 2.0 * kinetic / f**2

    def rhs_coefficient(r):
        return -rhs_mean(r)

    r_max = _resolve_r_max(params, data, max(t, 1.0), cfg)
    if t == 0.0:
        return EnergyIdentity(0.0, 0.0, 0.0, 0.0)

    def side(density, coefficient, mean) -> float:
        return scale * oscillatory_integrals(
            params, 0.5 * t, [0.0, r_max], density, coefficient, mean, kinks=data.kinks, rel_tol=1e-10
        )[0]

    lhs = side(lhs_density, lhs_coefficient, lhs_mean)
    rhs = side(rhs_density, rhs_coefficient, rhs_mean)
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    if residual > 1e-8:
        raise InvariantViolation(
            f"energy identity residual {residual} exceeds 1e-8"
        )
    return EnergyIdentity(
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        solution_norm_sq_half=0.5 * norm_squared(params, data, t, replace(cfg, rel_tol=2e-9)),
    )


def rellich_quotient(u: RadialTestFunction, dim: int) -> float:
    """||u/|x|^2||^2 / ||Delta u||^2 for dim >= 5 (the inequality fails below)."""
    if dim < 5:
        raise PreconditionError("the Rellich quotient is evaluated for dim >= 5")
    if u.second_deriv is None:
        raise InputDomainError("the Rellich quotient needs a second derivative")

    def laplacian_sq(r):
        return (u.second_deriv(r) + (dim - 1) * u.deriv(r) / r) ** 2 * r ** (dim - 1)

    numerator = integrate_radial(
        lambda r: u.value(r) ** 2 * r ** (dim - 5), 0.0, u.support, u.kinks, rel_tol=_REL_TOL
    )
    denominator = integrate_radial(laplacian_sq, 0.0, u.support, u.kinks, rel_tol=_REL_TOL)
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
