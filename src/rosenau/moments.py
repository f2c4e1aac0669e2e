"""Zeroth-moment decomposition of the initial velocity in Fourier space.

For integrable radial data u1 the transform splits as

    w1(xi) = P + A(xi) - i B(xi),
    P = integral u1 dx,
    A(xi) = integral (cos(x.xi) - 1) u1 dx,   B(xi) = integral sin(x.xi) u1 dx,

with |A - iB| <= M |xi|^gamma ||u1||_{1,gamma} for gamma in (0, 1].  The
module evaluates P, the weighted norms, the fluctuation A, and the
smallest empirical M on a frequency grid.  M is reported per-datum; the
analytic ceiling 2^(1-gamma) + 1 (from |cos s - 1| <= 2^(1-gamma)|s|^gamma
and |sin s| <= |s|^gamma) is asserted on top of it.

B vanishes identically for radial data by odd symmetry, so only A is
computed, as the integral of u1(r) (K_n(rho r) - 1) r^(n-1) with K_n the
normalized radial Fourier kernel, whose K_n - 1 _kernel_minus_one
evaluates without cancellation.

Every integral runs over [0, R] for the profile's certified finite radius R
(a compact or a Gaussian tail; a tail of kind "none" raises
IntegrabilityError), cut at the profile's kinks.  _radial_integrals, which
hardy's quotients share, integrates densities of a profile or of a family:
P, ||u1||_1, ||u1||_{1,gamma} and ||u1||_2^2 are four rows of one call.
A(rho) on the whole frequency grid is one _kronrod_refine call, one piece
per rho, each held to 1e-12 of its own |A(rho)|, from panels sized to its
frequency (_frequency_panels).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import InputDomainError, IntegrabilityError, InvariantViolation
from .model import unit_sphere_area
from .quadrature import _ROW_BLOCK_VALUES, _kink_edges, _kronrod_refine, integrate_radial
from .records import Record
from .tails import TailBound

__all__ = [
    "RadialProfile",
    "MomentDecomposition",
    "l1_norm_and_l2_sq",
    "fluctuation",
]

_MOMENT_REL_TOL = 1e-12


class RadialProfile(Record):
    """Physical-space radial profile u(|x|) on R^dim with decay metadata.

    func maps radii (array) to values; tail certifies integrability and sets
    the radius upper_limit() of every integral of the profile.  kinks are
    the radii where the profile or a low derivative jumps; every radial
    integral of the profile is cut there, since the quadrature cannot
    resolve a jump inside a panel to its tolerance.  deriv and second_deriv,
    when given, are u' and u'', which the Hardy and Rellich quotients read.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    tail: TailBound
    label: str = ""
    kinks: tuple = ()
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    second_deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputDomainError("dim must be >= 1")
        if self.tail.kind == "compact" and self.tail.cutoff == 0.0:
            raise InputDomainError("a compact profile needs a positive radius")

    def upper_limit(self) -> float:
        """Certified finite truncation radius.

        For gaussian tails the cut sits where the envelope reaches 1e-40 of
        its amplitude, far below every quadrature tolerance in use.  Raises
        IntegrabilityError for a profile without a compact or Gaussian tail.
        """
        if self.tail.kind == "compact":
            return self.tail.cutoff
        if self.tail.kind == "gaussian":
            return math.sqrt(92.0 / self.tail.rate)
        raise IntegrabilityError(
            f"profile {self.label or self!r} has no compact or Gaussian tail, "
            "so no finite radius certifies its integrals"
        )


def _kernel_minus_one(dim: int, s):
    """K_n(s) - 1 for the normalized radial Fourier kernel
    K_n(s) = Gamma(n/2) (2/s)^(n/2-1) J_{n/2-1}(s), K_n(0) = 1: cos s for
    n = 1, J0 for n = 2, sin(s)/s for n = 3.  Free of cancellation near
    s = 0; for dim >= 2 in four pieces of |s|:

    * below _series_radius: the k >= 1 part of the power series
      sum_k (-s^2/4)^k Gamma(n/2) / (k! Gamma(k + n/2));
    * n = 3 above it: sin(s)/s - 1;
    * other odd n above it: Hankel's expansion (DLMF 10.17.3), which
      terminates for half-integer order and so is the closed form;
    * even n: a Chebyshev series in s^2 up to the crossover s0 of
      _integer_order_tables, Hankel's expansion beyond it.
    """
    if dim == 1:
        return -2.0 * np.sin(np.asarray(s, dtype=float) / 2.0) ** 2
    s = np.asarray(s, dtype=float)
    a = np.abs(s).reshape(-1)
    out = np.empty_like(a)
    small = a < _series_radius(dim)
    out[small] = _series_minus_one(dim, a[small])
    large = ~small
    if dim == 3:
        out[large] = np.sin(a[large]) / a[large] - 1.0
    elif dim % 2:
        out[large] = _hankel_kernel(dim, a[large], _hankel_coefficients(dim / 2.0 - 1.0)) - 1.0
    else:
        s0, coeffs, hankel = _integer_order_tables(dim)
        mid = large & (a < s0)
        out[mid] = _chebyshev_sum(coeffs, a[mid] ** 2 / (s0 * s0)) - 1.0
        far = large & ~mid
        out[far] = _hankel_kernel(dim, a[far], hankel) - 1.0
    return out.reshape(s.shape)


def _series_radius(dim: int) -> float:
    """Where the power series hands over: |s| = 1, or nu for odd n >= 7,
    where the terminating Hankel sum cancels too much closer to 0."""
    return max(1.0, dim / 2.0 - 1.0) if dim % 2 else 1.0


def _series_minus_one(dim: int, s):
    """The k >= 1 terms of the power series, fourteen of them below |s| = 1
    and as many as reach double precision below a wider _series_radius."""
    radius, half = _series_radius(dim), dim / 2.0
    terms, bound = 14, 1.0
    for k in range(1, 200):
        bound *= radius * radius / (4.0 * k * (k - 1 + half))
        if bound < 2.0**-60:
            terms = max(terms, k)
            break
    x = -0.25 * s**2
    term = np.ones_like(x)
    series = np.zeros_like(x)
    for k in range(1, terms + 1):
        term *= x / (k * (k - 1 + half))
        series += term
    return series


def _hankel_coefficients(nu: float, s0: float = math.inf):
    """a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k) of Hankel's expansion.

    For half-integer nu (s0 = inf) all nonzero terms, a finite list.  For
    integer nu the terms up to the first below 2^-60 at s = s0, or None if
    they start growing before that, so that s0 is too small.
    """
    mu = 4.0 * nu * nu
    coeffs = [1.0]
    while True:
        k = len(coeffs)
        nxt = coeffs[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k)
        if nxt == 0.0:
            return tuple(coeffs)
        if math.isfinite(s0):
            if abs(nxt) > abs(coeffs[-1]) * s0:
                return None
            if abs(nxt) < 2.0**-60 * s0**k:
                return tuple(coeffs) + (nxt,)
        coeffs.append(nxt)


# cos(j pi / 4) for j = 0 .. 7, exact at the multiples of pi/2
_SQRT_HALF = math.sqrt(0.5)
_QUARTER_TURN_COS = (1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF)


def _hankel_kernel(dim: int, s, coeffs):
    """Gamma(n/2) (2/s)^nu J_nu(s) from Hankel's expansion, nu = n/2 - 1:

        J_nu(s) = sqrt(2 / (pi s)) (P cos chi - Q sin chi),  chi = s - (2 nu + 1) pi / 4,

    P = sum (-1)^k a_2k s^(-2k), Q = sum (-1)^k a_(2k+1) s^(-2k-1).  The
    phase shift is an exact multiple of pi/4, so cos chi and sin chi come
    from cos s and sin s without rounding s - (2 nu + 1) pi / 4.
    """
    nu = dim / 2.0 - 1.0
    z = -1.0 / (s * s)
    p = np.zeros_like(s)
    q = np.zeros_like(s)
    for c in coeffs[0::2][::-1]:
        p = p * z + c
    for c in coeffs[1::2][::-1]:
        q = q * z + c
    q /= s
    j = dim - 1
    cos_phi, sin_phi = _QUARTER_TURN_COS[j % 8], _QUARTER_TURN_COS[(j - 2) % 8]
    cos_s, sin_s = np.cos(s), np.sin(s)
    cos_chi = cos_s * cos_phi + sin_s * sin_phi
    sin_chi = sin_s * cos_phi - cos_s * sin_phi
    scale = math.gamma(dim / 2.0) * 2.0**nu * math.sqrt(2.0 / math.pi)
    return scale * s ** -(nu + 0.5) * (p * cos_chi - q * sin_chi)


@functools.cache
def _integer_order_tables(dim: int):
    """(s0, Chebyshev coefficients, Hankel coefficients) for even dim.

    s0 is the first of 25, 30, ... at which Hankel's expansion reaches
    2^-60.  Below it the kernel is a Chebyshev series in y = (s/s0)^2 on
    [0, 1], interpolated at 8 s0/5 + 1 Lobatto points.  The values there
    come from Poisson's integral, the kernel as the mean of
    cos(s cos tau) sin^(2 nu) tau over a period, which the trapezoid rule
    sums to rounding for the integer nu of an even dim.
    """
    nu = dim // 2 - 1
    s0 = 25.0
    while (hankel := _hankel_coefficients(nu, s0)) is None:
        s0 += 5.0
    order = 8 * math.ceil(s0 / 5.0)
    nodes = 2 * order + 4 * nu + 48
    tau = 2.0 * math.pi * np.arange(nodes) / nodes
    weight = np.sin(tau) ** (2 * nu)
    x = np.cos(math.pi * np.arange(order + 1) / order)
    radii = s0 * np.sqrt(0.5 * (1.0 + x))
    values = np.cos(np.outer(radii, np.cos(tau))) @ (weight / weight.sum())
    values[[0, -1]] *= 0.5
    k = np.arange(order + 1)
    coeffs = (2.0 / order) * (np.cos(math.pi * np.outer(k, k) / order) @ values)
    coeffs[[0, -1]] *= 0.5
    return s0, tuple(coeffs), hankel


def _chebyshev_sum(coeffs, y):
    """sum_k coeffs[k] T_k(2y - 1) for y in [0, 1].

    Clenshaw's recurrence with Reinsch's modification: it carries
    d = x + 1 = 2y below y = 1/2 and d = x - 1 = 2(y - 1) above, which
    keeps the rounding error near the ends x = -1 and x = 1 at a few
    units of the last place.
    """
    sign = np.where(y < 0.5, -1.0, 1.0)
    d = np.where(y < 0.5, 2.0 * y, 2.0 * (y - 1.0))
    d2 = 2.0 * d
    e = np.zeros_like(y)
    b = np.zeros_like(y)
    for c in coeffs[:0:-1]:
        e = c + d2 * b + sign * e
        b = e + sign * b
    return coeffs[0] + d * b + sign * e


def _radial_integrals(u, lo, rel_tol: float, *densities):
    """omega_n times the integral of density(v, r) r^(n-1) over
    [lo, v.upper_limit()] to rel_tol, for the profile v = u, or for each v
    of the list u, profiles of one dimension n: the pieces of one
    integrate_radial call with the profile's index as parameter, cut at the
    kinks of them all, lo a number or one per piece.  Several densities are
    rows of that call and lead the result."""
    single = isinstance(u, RadialProfile)
    members = [u] if single else list(u)
    dims = {v.dim for v in members}
    if len(dims) != 1:
        raise InputDomainError(f"profiles of dimensions {sorted(dims)} in one call")
    (n,) = dims

    def integrand(r, member):
        out = np.empty((len(densities), r.size))
        for index, v in enumerate(members):
            at = member == index
            radial = r[at] ** (n - 1)
            for row, density in zip(out, densities):
                row[at] = density(v, r[at]) * radial
        return out if len(densities) > 1 else out[0]

    his = u.upper_limit() if single else [v.upper_limit() for v in members]
    kinks = sorted({k for v in members for k in v.kinks})
    param = 0.0 if single else np.arange(len(members))
    return unit_sphere_area(n) * integrate_radial(integrand, lo, his, kinks, rel_tol=rel_tol, param=param)


def _absolute(v, r):
    return np.abs(v.func(r))


def _squared(v, r):
    return np.abs(v.func(r)) ** 2


def l1_norm_and_l2_sq(u1: RadialProfile) -> tuple[float, float]:
    """Physical L1 norm and squared L2 norm of the radial profile, as two
    rows of one integrate_radial call."""
    return tuple(_radial_integrals(u1, 0.0, _MOMENT_REL_TOL, _absolute, _squared).tolist())


def _frequency_panels(hi: float, kinks, rhos: np.ndarray) -> tuple:
    """The starting panel table (quadrature._refine) of fluctuation, one
    piece per frequency rho: each interval of [0, hi] between the kinks, of
    width w, in max(4, ceil(|rho| w / 8)) equal panels, at most 64."""
    edges = np.array(_kink_edges(0.0, hi, kinks))
    width = np.diff(edges)
    count = np.clip(np.ceil(np.abs(rhos)[:, None] * width / 8.0), 4, 64)
    step = np.arange(64)
    keep = step < count[..., None]
    lo = (edges[:-1, None] + step * (width / count)[..., None])[keep]
    piece = keep.nonzero()[0]
    last = np.append(piece[1:] != piece[:-1], True)
    return lo, np.where(last, hi, np.append(lo[1:], hi)), piece, np.full(rhos.size, hi)


def fluctuation(u1: RadialProfile, rhos) -> np.ndarray:
    """A(rho) for every rho of the grid, each rho a piece of one refinement.

    Integrates u1(r) (K(rho r) - 1) r^(n-1) over [0, R] with rho as its
    piece's parameter, so that each A(rho) starts from panels sized to its
    own frequency (_frequency_panels) and is held to 1e-12 of its own
    |A(rho)|, to quadrature._refine's stopping rule.  The kernel sees at
    most _ROW_BLOCK_VALUES values at a time.  Raises InputDomainError for a
    non-finite rho, and IntegrabilityError when some A(rho) is not resolved
    (a jump the kinks do not declare, an oscillation without bound).  The
    odd part B vanishes for radial data, so A is the whole fluctuation.
    """
    rhos = np.asarray(rhos, dtype=float)
    if not np.all(np.isfinite(rhos)):
        raise InputDomainError(f"frequencies must be finite, got {rhos[~np.isfinite(rhos)][0]}")
    n = u1.dim

    def integrand(r, rho):
        u = np.real(u1.func(r)) * r ** (n - 1)
        for start in range(0, r.size, _ROW_BLOCK_VALUES):
            block = slice(start, start + _ROW_BLOCK_VALUES)
            u[block] *= _kernel_minus_one(n, rho[block] * r[block])
        return u

    flat = rhos.ravel()
    panels = _frequency_panels(u1.upper_limit(), u1.kinks, flat)
    values, _ = _kronrod_refine(integrand, panels, _MOMENT_REL_TOL, t=flat)
    return unit_sphere_area(n) * (values if rhos.ndim else float(values[0]))


def _moment_constant(u1: RadialProfile, gamma_exp: float, xi_grid, wnorm: float) -> float:
    """Smallest empirical M with |A - iB| <= M |xi|^gamma ||u1||_{1,gamma} on
    the grid, given wnorm = ||u1||_{1,gamma}.

    The analytic ceiling 2^(1-gamma) + 1 is asserted; scaling u1 leaves the
    result unchanged.
    """
    grid = np.asarray(xi_grid, dtype=float)
    if grid.size == 0:
        raise InputDomainError("xi grid must be nonempty")
    if np.any(grid <= 0):
        raise InputDomainError("xi grid must exclude 0")
    # B vanishes for radial data, so |A - iB| = |A|
    worst = float(np.max(np.abs(fluctuation(u1, grid)) / (grid**gamma_exp * wnorm)))
    ceiling = 2.0 ** (1.0 - gamma_exp) + 1.0
    if not (math.isfinite(worst) and worst <= ceiling * (1.0 + 1e-9)):
        raise InvariantViolation(
            f"empirical moment constant {worst} exceeds the ceiling {ceiling}"
        )
    return worst


_DEFAULT_M_GRID = np.geomspace(1e-3, 50.0, 96)


class MomentDecomposition(Record):
    """Scalars of the moment decomposition for one velocity datum.

    p_moment is the mass P, gamma_exp the moment exponent, weighted_norm the
    ||u1||_{1,gamma}, m_constant the empirical bound constant, l2_sq the
    squared L2 norm ||u1||_2^2 (None when not integrated).  The source
    profile rides along for the quadrature-side remainder evaluations.
    """

    p_moment: float
    gamma_exp: float
    weighted_norm: float
    m_constant: float
    l1: float
    l2_sq: float | None = None
    profile: RadialProfile | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma_exp <= 1.0):
            raise InputDomainError("gamma must lie in (0, 1]")
        if self.m_constant <= 0:
            raise InputDomainError("m_constant must be positive")
        chain_ok = (
            self.weighted_norm >= self.l1 * (1.0 - 1e-9)
            and self.l1 >= abs(self.p_moment) * (1.0 - 1e-9)
        )
        if not chain_ok:
            raise InvariantViolation(
                "expected ||u1||_{1,gamma} >= ||u1||_1 >= |P|, got "
                f"{self.weighted_norm}, {self.l1}, {self.p_moment}"
            )

    @classmethod
    def from_profile(
        cls, u1: RadialProfile, gamma_exp: float, xi_grid=None
    ) -> "MomentDecomposition":
        """The decomposition of u1: the mass P = integral u1 dx, ||u1||_1,
        ||u1||_{1,gamma} = integral (1 + |x|^gamma) |u1| dx and ||u1||_2^2
        as four rows of one integrate_radial call over [0, R], then M on the
        grid."""
        if not (0.0 < gamma_exp <= 1.0):
            raise InputDomainError(f"gamma must lie in (0, 1], got {gamma_exp}")
        grid = _DEFAULT_M_GRID if xi_grid is None else xi_grid
        p_moment, l1, wnorm, l2_sq = _radial_integrals(
            u1,
            0.0,
            _MOMENT_REL_TOL,
            lambda v, r: np.real(v.func(r)),
            _absolute,
            lambda v, r: (1.0 + r**gamma_exp) * np.abs(v.func(r)),
            _squared,
        ).tolist()
        return cls(
            p_moment=p_moment,
            gamma_exp=gamma_exp,
            weighted_norm=wnorm,
            m_constant=_moment_constant(u1, gamma_exp, grid, wnorm),
            l1=l1,
            l2_sq=l2_sq,
            profile=u1,
        )
