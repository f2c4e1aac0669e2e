"""Model coefficients, the dispersion rate, and the constants derived from them.

Every other module works through the dispersion rate

    f(r) = sqrt((mu r^4 + kappa r^2) / (1 + delta r^(2 theta))),

its first two derivatives, its laws (dispersion_expansion: f ~ sqrt(kappa) r
at low frequency, f ~ C r^p at high frequency, the stationary points), and
universal constants: the sinc threshold delta0, the band radii beta(t) and
gamma(t), and the unit-sphere areas omega_n.  Near r = 0 the rate is evaluated
in the factored form r * sqrt((mu r^2 + kappa)/(1 + delta r^(2 theta))) so that
relative accuracy survives at the origin, where the quadrature needs it most.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputDomainError, InvariantViolation, PreconditionError
from .records import Record

__all__ = [
    "ModelParams",
    "SincConstants",
    "BandBoundaries",
    "DispersionExpansion",
    "eval_dispersion",
    "dispersion_expansion",
    "dispersion_derivatives",
    "dispersion_slope",
    "epsilon0",
    "derivative_floor",
    "second_derivative_bound",
    "band_boundaries",
    "unit_sphere_area",
]


class ModelParams(Record):
    """Coefficient tuple (delta, mu, kappa, theta, dim) of the evolution model.

    delta multiplies the fractional inertia term, mu the bi-Laplacian, kappa
    the Laplacian; theta in (0, 2] is the fractional order and dim >= 1 the
    spatial dimension.  mu = 0 is legal but the high-frequency ceilings and
    the multiplier equivalence require mu > 0 and reject it per-operation.
    """

    delta: float
    mu: float
    kappa: float
    theta: float
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise InputDomainError(f"delta must be positive, got {self.delta}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise InputDomainError(f"mu must be nonnegative, got {self.mu}")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise InputDomainError(f"kappa must be positive, got {self.kappa}")
        if not (math.isfinite(self.theta) and 0 < self.theta <= 2):
            raise InputDomainError(f"theta must lie in (0, 2], got {self.theta}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise InputDomainError(f"dim must be an integer >= 1, got {self.dim}")

    def require_mu_positive(self, what: str) -> None:
        if self.mu <= 0:
            raise PreconditionError(f"{what} requires mu > 0 (got mu = {self.mu})")


class SincConstants(Record):
    """Threshold delta0 with |sin(eta)/eta| >= 1/2 below it.

    delta0 may be any value in (0, 1) (default 0.9), checked by dense
    sampling at construction.  A larger delta0 widens the low-frequency band
    and improves the lower-envelope constants.  The supremum of
    |sin(eta)/eta| is 1, which the envelopes use as such.
    """

    delta0: float = 0.9

    def __post_init__(self) -> None:
        if not (0.0 < self.delta0 < 1.0):
            raise InputDomainError(f"delta0 must lie in (0, 1), got {self.delta0}")
        eta = np.linspace(self.delta0 / 2048.0, self.delta0, 2048)
        vals = np.abs(np.sin(eta) / eta)
        if not np.all(vals >= 0.5):
            raise InvariantViolation(
                f"|sin(eta)/eta| dips below 1/2 on (0, {self.delta0}]"
            )


DEFAULT_SINC = SincConstants()


class BandBoundaries(Record):
    """Band radii at time t: low band ends at beta, the mid/high split is
    gamma_band; numbers, or arrays with one entry per time."""

    beta: float | np.ndarray
    gamma_band: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self) -> None:
        beta, gamma_band, t = (np.asarray(v) for v in (self.beta, self.gamma_band, self.t))
        if not ((beta > 0).all() and (gamma_band > 0).all() and (t > 0).all()):
            raise InputDomainError("band radii and time must be positive")
        if (beta >= gamma_band).any():
            raise InvariantViolation(f"beta(t) = {self.beta} must lie below gamma(t) = {self.gamma_band}")


def _check_radii(r: np.ndarray, allow_zero: bool) -> None:
    if not r.size:
        return
    # NaN and +-inf reach the extremes, so these two reductions see every entry
    lo, hi = np.minimum.reduce(r, axis=None), np.maximum.reduce(r, axis=None)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputDomainError("radius must be finite")
    if lo < 0 or (lo == 0 and not allow_zero):
        bound = "r >= 0" if allow_zero else "r > 0"
        raise InputDomainError(f"radius must satisfy {bound}")


def eval_dispersion(params: ModelParams, r):
    """Dispersion rate f(r) = r * sqrt((mu r^2 + kappa)/(1 + delta r^(2 theta))).

    Vectorized over r; f(0) = 0 exactly.  A number r gives a float.
    """
    arr = np.asarray(r, dtype=float)
    _check_radii(arr, allow_zero=True)
    ratio = (params.mu * arr**2 + params.kappa) / (
        1.0 + params.delta * arr ** (2.0 * params.theta)
    )
    out = arr * np.sqrt(ratio)
    return out if isinstance(r, np.ndarray) else float(out)


def _slope_terms(params: ModelParams, arr: np.ndarray):
    """The factored form f = r sqrt(h), h = num/den, and its first
    derivative: (num, den, den', num' den - num den', sqrt(h), (sqrt h)').
    Validates r > 0."""
    _check_radii(arr, allow_zero=False)
    de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta
    num = mu * arr**2 + ka
    den = 1.0 + de * arr ** (2.0 * th)
    num_p = 2.0 * mu * arr
    den_p = 2.0 * de * th * arr ** (2.0 * th - 1.0)
    cross = num_p * den - num * den_p
    s = np.sqrt(num / den)
    s_p = cross / den**2 / (2.0 * s)
    return num, den, den_p, cross, s, s_p


def dispersion_slope(params: ModelParams, r):
    """(f(r), f'(r)) from one evaluation of the factored form, without f''.

    Equal bit for bit to eval_dispersion and to the first entry of
    dispersion_derivatives.  Requires r > 0.
    """
    arr = np.asarray(r, dtype=float)
    *_, s, s_p = _slope_terms(params, arr)
    f, f_p = arr * s, s + arr * s_p
    if isinstance(r, np.ndarray):
        return f, f_p
    return float(f), float(f_p)


def dispersion_derivatives(params: ModelParams, r):
    """First and second derivatives (f'(r), f''(r)) of the dispersion rate.

    Closed forms obtained by differentiating the factored form f = r*sqrt(h)
    with h = (mu r^2 + kappa)/(1 + delta r^(2 theta)), which is free of the
    0/0 cancellation the raw quotient rule suffers near the origin.  Requires
    r > 0.
    """
    arr = np.asarray(r, dtype=float)
    num, den, den_p, cross, s, s_p = _slope_terms(params, arr)
    de, mu, th = params.delta, params.mu, params.theta
    den_pp = 2.0 * de * th * (2.0 * th - 1.0) * arr ** (2.0 * th - 2.0)
    h_p = cross / den**2
    h_pp = (2.0 * mu * den - num * den_pp) / den**2 - 2.0 * den_p * cross / den**3
    s_pp = h_pp / (2.0 * s) - h_p**2 / (4.0 * s**3)

    f_p = s + arr * s_p
    f_pp = 2.0 * s_p + arr * s_pp
    if isinstance(r, np.ndarray):
        return f_p, f_pp
    return float(f_p), float(f_pp)


class DispersionExpansion(Record):
    """f's laws (dispersion_expansion): f = low_coefficient r (1 + low_correction
    r^low_power + o(r^low_power)) as r -> 0, f ~ high_coefficient r^high_power
    as r -> inf with f^2 >= high_floor r^(2 high_power) for r >= 1, and
    f'' = curvatures at the stationary_points, where f' changes sign, increasing.
    """

    low_coefficient: float
    low_power: float
    low_correction: float
    high_coefficient: float
    high_power: float
    high_floor: float
    stationary_points: tuple
    curvatures: tuple


def dispersion_expansion(params: ModelParams) -> DispersionExpansion:
    """The expansions of f and its stationary points, built once per
    coefficient set (delta, mu, kappa, theta): no field depends on dim.

    The low law expands f = sqrt(kappa) r sqrt((1 + mu r^2 / kappa) / (1 + delta
    r^(2 theta))); the floor is 1 + delta r^(2 theta) <= (1 + delta) r^(2 theta)
    for r >= 1.  f' has the sign of (2 mu s + kappa) + delta s^theta ((2 -
    theta) mu s + (1 - theta) kappa), s = r^2, whose coefficients change sign
    at most twice (Descartes); its sign changes on a geometric grid of
    [1e-10, 1e10] are bisected in floats to adjacent floats, the root the
    smaller end.
    """
    return _expansion(params.delta, params.mu, params.kappa, params.theta)


@functools.cache
def _expansion(de: float, mu: float, ka: float, th: float) -> DispersionExpansion:
    """dispersion_expansion of the coefficients (delta, mu, kappa, theta)."""
    # at theta = 1 exactly 0 in the wave cell mu = delta kappa, where f = sqrt(kappa) r
    low_correction = -0.5 * de if th < 1.0 else mu / (2.0 * ka) if th > 1.0 else (mu - de * ka) / (2.0 * ka)
    top, power = (mu, 2.0 - th) if mu > 0 else (ka, 1.0 - th)

    def slope(r):
        s = r * r
        return 2.0 * mu * s + ka + de * s**th * ((2.0 - th) * mu * s + (1.0 - th) * ka)

    r = np.geomspace(1e-10, 1e10, 4096)
    sign = np.sign(slope(r))
    flips = np.nonzero(sign[1:] * sign[:-1] < 0)[0]
    roots = []
    # each bracket keeps the grid's sign at its lower end; a zero moves the upper end
    for lo, hi, sign_lo in zip(r[flips].tolist(), r[flips + 1].tolist(), sign[flips].tolist()):
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if slope(mid) * sign_lo > 0.0 else (lo, mid)
        roots.append(lo)
    _, curvatures = dispersion_derivatives(ModelParams(de, mu, ka, th, 1), np.array(roots))
    low = (math.sqrt(ka), min(2.0 * th, 2.0), low_correction)
    high = (math.sqrt(top / de), power, top / (1.0 + de))
    return DispersionExpansion(*low, *high, tuple(roots), tuple(curvatures.tolist()))


def epsilon0(params: ModelParams) -> float:
    """Radius below which f' stays above its explicit positive floor.

    epsilon0 = min((kappa / (2 (mu + kappa) delta theta))^(1/(2 theta)), 1);
    always in (0, 1].
    """
    base = params.kappa / (
        2.0 * (params.mu + params.kappa) * params.delta * params.theta
    )
    return float(min(base ** (1.0 / (2.0 * params.theta)), 1.0))


def derivative_floor(params: ModelParams) -> float:
    """Lower bound of f' on (0, epsilon0]: kappa / (2 sqrt(mu+kappa) (1+delta)^(3/2))."""
    return params.kappa / (
        2.0 * math.sqrt(params.mu + params.kappa) * (1.0 + params.delta) ** 1.5
    )


def second_derivative_bound(params: ModelParams) -> float:
    """Constant C with |f''(r)| <= C (1 + 1/r) on (0, epsilon0].

    Assembled from a triangle-inequality chain on f'' = g''/(2 sqrt(g)) -
    (g')^2/(4 g^(3/2)) with g = f^2, bounding each coefficient on (0, 1]:
    |g'| <= G1 * r and |g''| <= G2 there, while g >= kappa r^2 / (1+delta).
    """
    de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta
    g1 = 4.0 * mu + 2.0 * ka + 2.0 * de * th * (mu + ka)
    g2 = (
        12.0 * mu
        + 2.0 * ka
        + 2.0 * de * th * abs(2.0 * th - 1.0) * (mu + ka)
        + 8.0 * de * th * (2.0 * mu + ka)
        + 8.0 * de**2 * th**2 * (mu + ka)
    )
    return g2 * math.sqrt(1.0 + de) / (2.0 * math.sqrt(ka)) + g1**2 * (
        1.0 + de
    ) ** 1.5 / (4.0 * ka**1.5)


def band_boundaries(params: ModelParams, sinc: SincConstants, t) -> BandBoundaries:
    """Band radii beta(t) = delta0/(sqrt(mu+kappa) t), gamma(t) = delta0/(sqrt(mu+kappa) log t).

    Requires t > e so the radii are ordered, and beta(t) <= 1 so that
    t * f(r) <= delta0 holds throughout the low band (checked at r = beta).
    t may be an array of times: the fields are then arrays, one entry per
    time, and the first time that breaks a requirement raises its error.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    root = math.sqrt(params.mu + params.kappa)
    ok = np.isfinite(ts) & (ts > math.e)
    beta = sinc.delta0 / (root * np.where(ok, ts, math.inf))
    ok &= beta <= 1.0
    phase = np.where(ok, ts, 0.0) * eval_dispersion(params, np.where(ok, beta, 0.0))
    ok &= phase <= sinc.delta0 * (1.0 + 1e-12)
    if not ok.all():
        first = int(np.argmin(ok))
        t_bad, beta_bad = float(ts[first]), float(beta[first])
        if not (math.isfinite(t_bad) and t_bad > math.e):
            raise PreconditionError(f"band boundaries need t > e, got t = {t_bad}")
        if beta_bad > 1.0:
            raise PreconditionError(f"t = {t_bad} too small: beta(t) = {beta_bad} exceeds 1 for these coefficients")
        raise InvariantViolation(f"t*f(beta(t)) = {float(phase[first])} exceeds delta0 = {sinc.delta0}")
    # log t by libm, time by time: the 1-D band cut depends on its last bit,
    # and numpy's vectorised log may differ from libm's by an ulp
    gamma_band = sinc.delta0 / (root * np.array([math.log(t_i) for t_i in ts.tolist()]))
    if np.ndim(t):
        return BandBoundaries(beta=beta, gamma_band=gamma_band, t=ts)
    return BandBoundaries(beta=float(beta[0]), gamma_band=float(gamma_band[0]), t=float(ts[0]))


def unit_sphere_area(dim: int) -> float:
    """Surface area omega_n of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if int(dim) != dim or dim < 1:
        raise InputDomainError(f"dimension must be an integer >= 1, got {dim}")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
