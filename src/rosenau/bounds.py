"""Closed-form and semi-numerical evaluation of the named bound quantities.

Lower envelopes (spectral side):

* n = 1: (P^2/4) * floor(I_l) - ceiling(R_l) - ||w0||^2, where I_l is the
  low-band mass of sin^2(t f)/f^2 with floor t delta0 / (2 sqrt(mu+kappa)),
  and R_l is the moment-fluctuation remainder with the explicit ceiling
  2 (1+delta) M^2 beta(t)^(2 gamma - 1) ||u1||_{1,gamma}^2 / (kappa (2 gamma - 1)).
* n = 2: (P^2/4) * T_floor - M^2 ||u1||_{1,gamma}^2 omega_2 K0 - ||w0||^2,
  where T_floor = (omega_2/2) (T1 - |T2|) combines the logarithmically
  growing main term T1 with the oscillatory correction T2, and K0 is a
  closed form.  T2 enters through its quadrature value, from the norm's
  oscillatory driver (norms.oscillatory_integrals, with its single
  partition rule); the assembled integration-by-parts ceiling
  is reported alongside (it is O(1) in t but with a constant large enough to
  swamp T1 = O(log t) at any practical t, so subtracting the ceiling would
  make the envelope vacuously zero on desk scales).

Upper envelopes (spectral side) assemble the dimension-appropriate component
ceilings with all constants explicit; they bound ||w(t)||^2 from above, i.e.
they already include the factor 2 from |a+b|^2 <= 2|a|^2 + 2|b|^2.

The T1 and T2 terms and the lower envelopes also take an array of times,
such as the envelope picks of a trace: the T2 of all of them then come from
one driver call, and T1 and the K2 integrals of the T2 bounds from one K21
refinement each, every time held to the tolerance it would get alone.

All comparisons happen on the spectral side; callers convert once with the
(2 pi)^(-n) Plancherel factor.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import write_json
from .errors import InputDomainError, InvariantViolation, PreconditionError
from .evolution import propagator
from .model import (
    ModelParams,
    SincConstants,
    band_boundaries,
    derivative_floor,
    epsilon0,
    eval_dispersion,
    second_derivative_bound,
    unit_sphere_area,
)
from .moments import MomentDecomposition, fluctuation
from .norms import oscillatory_integrals
from .quadrature import integrate_radial
from .records import Record

__all__ = [
    "LowBandMass",
    "FluctuationRemainder",
    "TailTerm",
    "EnvelopeReport",
    "low_band_mass",
    "fluctuation_remainder",
    "fluctuation_remainder_ceiling",
    "log_band_main_term",
    "lower_envelope",
    "weighted_gaussian_constant",
    "averaged_tail_remainder",
    "upper_envelope",
    "envelope_report",
    "write_envelope_json",
]


class LowBandMass(Record):
    value: float
    floor: float


def low_band_mass(
    params: ModelParams, sinc_constants: SincConstants, t: float
) -> LowBandMass:
    """Low-band mass I_l(t) (n = 1) and its closed-form floor t delta0/(2 sqrt(mu+kappa)).

    The quadrature value integrates sin^2(t f)/f^2 over |xi| <= beta(t); the
    floor uses sin(eta)/eta >= 1/2 below delta0.
    """
    if params.dim != 1:
        raise PreconditionError("the low-band mass chain is one-dimensional")
    bands = band_boundaries(params, sinc_constants, t)

    value = 2.0 * integrate_radial(  # omega_1 = 2: both half-lines
        lambda r: propagator(t, eval_dispersion(params, r)) ** 2, 0.0, bands.beta, rel_tol=1e-10
    )
    floor = t * sinc_constants.delta0 / (2.0 * math.sqrt(params.mu + params.kappa))
    if value < floor * (1.0 - 1e-9):
        raise InvariantViolation(f"low-band mass {value} fell below its floor {floor}")
    return LowBandMass(value=value, floor=floor)


class FluctuationRemainder(Record):
    value: float
    ceiling: float


def fluctuation_remainder_ceiling(
    params: ModelParams,
    sinc_constants: SincConstants,
    moments: MomentDecomposition,
    t,
) -> float | np.ndarray:
    """Closed-form ceiling of the fluctuation remainder R_l(t), n = 1.

    2 (1+delta) M^2 ||u1||_{1,gamma}^2 beta(t)^(2 gamma - 1) / (kappa (2
    gamma - 1)); decays like t^-(2 gamma - 1) and needs gamma in (1/2, 1].
    t is a number or an array of times, one ceiling each.
    """
    if params.dim != 1:
        raise PreconditionError("the fluctuation remainder chain is one-dimensional")
    gamma_exp = moments.gamma_exp
    if not (0.5 < gamma_exp <= 1.0):
        raise PreconditionError("the remainder integral needs gamma in (1/2, 1]")
    bands = band_boundaries(params, sinc_constants, t)
    return (
        2.0
        * (1.0 + params.delta)
        * moments.m_constant**2
        * moments.weighted_norm**2
        * bands.beta ** (2.0 * gamma_exp - 1.0)
        / (params.kappa * (2.0 * gamma_exp - 1.0))
    )


def fluctuation_remainder(
    params: ModelParams,
    sinc_constants: SincConstants,
    moments: MomentDecomposition,
    t: float,
) -> FluctuationRemainder:
    """Fluctuation remainder R_l(t) (n = 1): quadrature value and ceiling."""
    ceiling = fluctuation_remainder_ceiling(params, sinc_constants, moments, t)
    beta = band_boundaries(params, sinc_constants, t).beta

    value = 0.0
    if moments.profile is not None:

        def integrand(r):
            prop = propagator(t, eval_dispersion(params, r))
            return fluctuation(moments.profile, r) ** 2 * prop**2

        value = 2.0 * integrate_radial(integrand, 0.0, beta, rel_tol=1e-10)
        if value > ceiling * (1.0 + 1e-9):
            raise InvariantViolation(
                f"fluctuation remainder {value} exceeds its ceiling {ceiling}"
            )
    return FluctuationRemainder(value=value, ceiling=ceiling)


def weighted_gaussian_constant(params: ModelParams, gamma_exp: float) -> float:
    """The finite constant K0 dominating the Gaussian-weighted moment integral.

    K0 = (1/(kappa gamma)) int e^(-r^2) r^(2 gamma + 1) dr
       + (delta/(kappa (gamma + theta))) int e^(-r^2) r^(2 (gamma + theta) + 1) dr
    over (0, inf), in closed form from int_0^inf e^(-r^2) r^(2m+1) dr
    = Gamma(m+1)/2.
    """
    if not (0.0 < gamma_exp <= 1.0):
        raise InputDomainError("gamma must lie in (0, 1]")
    g, th, ka, de = gamma_exp, params.theta, params.kappa, params.delta
    return float(
        math.gamma(g + 1.0) / (2.0 * ka * g) + de * math.gamma(g + th + 1.0) / (2.0 * ka * (g + th))
    )


class TailTerm(Record):
    """T2 and its bound: numbers for one time, arrays for an array of times."""

    value: float | np.ndarray
    bound: float | np.ndarray


def _t2_weight(params: ModelParams, r: np.ndarray) -> np.ndarray:
    de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta
    return np.exp(-(r**2)) * (1.0 + de * r ** (2.0 * th)) / (mu * r**3 + ka * r)


def _log_band_start(params: ModelParams, t) -> np.ndarray:
    """1/t, the lower end of the 2-D main-term integrals, for a time or an
    array of times; raises unless every 1/t lies below epsilon0."""
    lo = 1.0 / np.asarray(t, dtype=float)
    if np.any(lo >= epsilon0(params)):
        raise PreconditionError("need 1/t < epsilon0")
    return lo


def averaged_tail_remainder(params: ModelParams, t) -> TailTerm:
    """Oscillatory tail term T2(t) of the two-dimensional main-term split.

    T2(t) = integral_{1/t}^{eps0} e^(-r^2) cos(2 t f) (1 + delta r^(2 theta))
    / (mu r^3 + kappa r) dr, evaluated by the norm's oscillatory driver,
    norms.oscillatory_integrals, with no mean term: K21 quadrature where
    t f <= 16 pi and near stationary points of f, Levin collocation on the
    fast segments, so the cost does not grow with t.
    The bound is (K1 + K2)/(2 t) with K1 the boundary envelope at both ends
    (|sin| <= 1, f' >= its explicit floor) and K2 the integral of the
    derivative envelope assembled from the same floor and the explicit
    second-derivative constant.  |T2| stays bounded in t while the main term
    grows like log t.

    t is a number or an array of times; for an array both fields of the
    result are arrays, the T2 of every time come from one driver call and
    their K2 integrals from one refinement, each time held to the tolerance
    it would get alone.
    """
    if params.dim != 2:
        raise PreconditionError("the tail term belongs to the two-dimensional chain")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 1e2):
        raise PreconditionError("the tail term is defined for t >= 1e2")
    lo = _log_band_start(params, ts)
    eps = epsilon0(params)

    def integrand(r, t):
        f = eval_dispersion(params, r)
        return _t2_weight(params, r) * np.cos(2.0 * t * f)

    # cos(2 t f) has the frequency of sin^2(t f), so the norm's starting
    # panels serve it too
    (value,) = oscillatory_integrals(
        params,
        ts,
        np.stack([lo, np.full_like(lo, eps)], axis=1),
        integrand,
        lambda r: _t2_weight(params, r),
        rel_tol=1e-9,
        abs_tol=1e-12,
    ).T

    c_lo = derivative_floor(params)
    c_pp = second_derivative_bound(params)
    de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta

    def boundary(r: float) -> float:
        return math.exp(-(r**2)) * (1.0 + de * r ** (2.0 * th)) / (
            c_lo * (mu * r**3 + ka * r)
        )

    k1_bound = np.array([boundary(r) for r in lo.tolist()]) + boundary(eps)

    def envelope(r):
        damp = np.exp(-(r**2))
        poly = 1.0 + de * r ** (2.0 * th)
        den = mu * r**3 + ka * r
        return damp * (
            2.0 * r * poly / (c_lo * den)
            + 2.0 * de * th * r ** (2.0 * th - 1.0) / (c_lo * den)
            + poly * c_pp * (1.0 + 1.0 / r) / (c_lo**2 * den)
            + poly * (3.0 * mu * r**2 + ka) / (c_lo * den**2)
        )

    k2_bound = integrate_radial(envelope, lo, eps, rel_tol=1e-9)
    bound = (k1_bound + k2_bound) / (2.0 * ts)
    for v, b in zip(value.tolist(), bound.tolist()):
        if abs(v) > b * (1.0 + 1e-9):
            raise InvariantViolation(f"|T2| = {abs(v)} exceeds its bound {b}")
    if np.ndim(t):
        return TailTerm(value=value, bound=bound)
    return TailTerm(value=float(value[0]), bound=float(bound[0]))


def log_band_main_term(params: ModelParams, t):
    """Main term T1(t) = integral_{1/t}^{eps0} e^(-r^2) (1+delta r^(2 theta))
    / (mu r^3 + kappa r) dr; grows like log t.  For an array of times, one
    value per time from one refinement."""
    lo = _log_band_start(params, t)
    return integrate_radial(lambda r: _t2_weight(params, r), lo, epsilon0(params), rel_tol=1e-11)


def lower_envelope(
    params: ModelParams,
    sinc_constants: SincConstants,
    moments: MomentDecomposition,
    u0_norm_sq: float,
    t,
    dim: int,
) -> float | np.ndarray:
    """Spectral-side lower envelope of ||w(t)||^2; clamped at zero.

    n = 1 grows like t, n = 2 like log t; proportional to P^2, hence vacuous
    when the velocity datum has no mass.  t is a number or an array of
    times, one envelope each; in 2-D the tail and main terms of all the
    times then come from one call each.
    """
    if dim not in (1, 2):
        raise InputDomainError("lower envelopes exist for dim 1 and 2 only")
    if params.dim != dim:
        raise InputDomainError("params.dim and dim disagree")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    p_sq = moments.p_moment**2
    if dim == 1:
        floor = ts * sinc_constants.delta0 / (2.0 * math.sqrt(params.mu + params.kappa))
        ceiling = fluctuation_remainder_ceiling(params, sinc_constants, moments, ts)
        envelope = 0.25 * p_sq * floor - ceiling - u0_norm_sq
    else:
        tail = averaged_tail_remainder(params, ts)
        t1 = log_band_main_term(params, ts)
        omega2 = unit_sphere_area(2)
        t_floor = 0.5 * omega2 * (t1 - np.abs(tail.value))
        k0 = weighted_gaussian_constant(params, moments.gamma_exp)
        correction = moments.m_constant**2 * moments.weighted_norm**2 * omega2 * k0
        envelope = 0.25 * p_sq * t_floor - correction - u0_norm_sq
    envelope = np.maximum(0.0, envelope)
    return envelope if np.ndim(t) else float(envelope[0])


def upper_envelope(
    params: ModelParams,
    sinc_constants: SincConstants,
    u1_l1: float,
    u1_l2: float,
    u0_l2: float,
    t: float,
    dim: int,
) -> float:
    """Spectral-side ceiling on ||w(t)||^2 with every constant explicit.

    Inputs are physical-side norms ||u1||_1, ||u1||, ||u0||; the conversion
    int |w1|^2 dxi = (2 pi)^n ||u1||^2 happens here.  Requires mu > 0 (the
    high-band chain divides by mu).
    """
    params.require_mu_positive("the upper envelope")
    if params.dim != dim:
        raise InputDomainError("params.dim and dim disagree")
    de, mu, ka = params.delta, params.mu, params.kappa
    d0 = sinc_constants.delta0
    root = math.sqrt(mu + ka)
    two_pi_n = (2.0 * math.pi) ** dim
    w1_sq = two_pi_n * u1_l2**2
    w0_sq = two_pi_n * u0_l2**2

    if dim == 1:
        if t <= math.e:
            raise PreconditionError("the 1-D ceiling needs t > e")
        log_t = math.log(t)
        l1c = 2.0 * d0 * t * u1_l1**2 / root
        l21c = 2.0 * (1.0 + de) * root * (t - log_t) * u1_l1**2 / (ka * d0)
        l22c = w1_sq * (
            (mu + ka) ** 2 * log_t**4 / (mu * d0**4)
            + de * (root * log_t / d0) ** (4.0 - 2.0 * params.theta) / mu
        )
        return 2.0 * (l1c + l21c + l22c + w0_sq)
    if dim == 2:
        if t <= math.e:
            raise PreconditionError("the 2-D ceiling needs t > e")
        log_t = math.log(t)
        g1c = math.pi * d0**2 * u1_l1**2 / (mu + ka)
        g2c = 2.0 * math.pi * (1.0 + de) * u1_l1**2 * (log_t + math.log(root / d0)) / ka
        g3c = (1.0 + de) / mu * w1_sq
        return 2.0 * (g1c + g2c + g3c + w0_sq)
    # dim >= 3: t-independent
    m1c = unit_sphere_area(dim) * (1.0 + de) * u1_l1**2 / (ka * (dim - 2))
    m2c = (1.0 + de) / mu * w1_sq
    return 2.0 * (m1c + m2c + w0_sq)


# ---------------------------------------------------------------------------
# component report


class EnvelopeReport(Record):
    """Named bound components at one time, with provenance and verdicts."""

    t: float
    lower_1d: float | None
    lower_2d: float | None
    upper: float | None
    components: dict


def envelope_report(
    params: ModelParams,
    sinc_constants: SincConstants,
    moments: MomentDecomposition,
    u0_norm_sq_spectral: float,
    u1_l2: float,
    u0_l2: float,
    t: float,
) -> EnvelopeReport:
    """Assemble every component defined for params.dim at time t."""
    comp: dict[str, dict] = {}

    def put(name: str, value: float, provenance: str) -> None:
        if not math.isfinite(value):
            raise InvariantViolation(f"component {name} is not finite")
        comp[name] = {"value": value, "provenance": provenance}

    dim = params.dim
    lower_1d = lower_2d = upper = None
    if dim == 1:
        mass = low_band_mass(params, sinc_constants, t)
        put("I_l", mass.value, "quadrature")
        put("I_l_floor", mass.floor, "closed-form")
        rem = fluctuation_remainder(params, sinc_constants, moments, t)
        put("R_l", rem.value, "quadrature")
        put("R_l_ceiling", rem.ceiling, "closed-form")
        lower_1d = lower_envelope(params, sinc_constants, moments, u0_norm_sq_spectral, t, 1)
        put("lower_envelope", lower_1d, "closed-form")
    elif dim == 2:
        t1 = log_band_main_term(params, t)
        put("T1", t1, "quadrature")
        tail = averaged_tail_remainder(params, t)
        put("T2", tail.value, "quadrature")
        put("T2_bound", tail.bound, "closed-form")
        put("K0", weighted_gaussian_constant(params, moments.gamma_exp), "closed-form")
        lower_2d = lower_envelope(params, sinc_constants, moments, u0_norm_sq_spectral, t, 2)
        put("lower_envelope", lower_2d, "quadrature")
    if params.mu > 0:
        upper = upper_envelope(
            params, sinc_constants, moments.l1, u1_l2, u0_l2, t, dim
        )
        put("upper_envelope", upper, "closed-form")
    return EnvelopeReport(
        t=t, lower_1d=lower_1d, lower_2d=lower_2d, upper=upper, components=comp
    )


def write_envelope_json(report: EnvelopeReport, path) -> None:
    write_json(path, vars(report))
