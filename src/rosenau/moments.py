"""Zeroth-moment decomposition of the initial velocity in Fourier space.

For integrable radial data u1 the transform splits as

    w1(xi) = P + A(xi) - i B(xi),
    P = integral u1 dx,
    A(xi) = integral (cos(x.xi) - 1) u1 dx,   B(xi) = integral sin(x.xi) u1 dx,

with |A - iB| <= M |xi|^gamma ||u1||_{1,gamma} for gamma in (0, 1].  The
module evaluates P, the weighted norms, the fluctuation pair, and the
smallest empirical M on a frequency grid.  M is reported per-datum; the
analytic ceiling 2^(1-gamma) + 1 (from |cos s - 1| <= 2^(1-gamma)|s|^gamma
and |sin s| <= |s|^gamma) is asserted on top of it.

B vanishes identically for radial data by odd symmetry and is returned as
exact zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.special import gamma as sp_gamma, jv

from .errors import InputDomainError, IntegrabilityError, InvariantViolation
from .model import unit_sphere_area
from .quadrature import panel_integrals
from .tails import TailBound

__all__ = [
    "RadialProfile",
    "MomentDecomposition",
    "radial_kernel",
    "radial_fourier",
    "zeroth_moment",
    "l1_norm",
    "fluctuation",
    "weighted_l1_norm",
    "moment_bound_check",
]

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
_MOMENT_REL_TOL = 1e-12


@dataclass(frozen=True)
class RadialProfile:
    """Physical-space radial profile u(|x|) with decay metadata.

    func maps radii (array) to values; tail certifies integrability.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    tail: TailBound
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InputDomainError("dim must be >= 1")

    def upper_limit(self) -> float:
        """Certified finite truncation radius, or infinity without one.

        For gaussian tails the cut sits where the envelope reaches 1e-40 of
        its amplitude, far below every quadrature tolerance in use.
        """
        if self.tail.kind == "compact":
            return self.tail.cutoff
        if self.tail.kind == "gaussian":
            return math.sqrt(92.0 / self.tail.rate)
        return math.inf


def _require_integrable(u: RadialProfile, weight_power: float = 0.0) -> None:
    if not u.tail.weighted_l1_converges(u.dim, weight_power):
        raise IntegrabilityError(
            f"profile {u.label or u!r} has no certified integrable tail "
            f"for weight |x|^{weight_power}"
        )


def radial_kernel(dim: int, s):
    """Normalized radial Fourier kernel: cos for n=1, J0 for n=2, sinc for n=3.

    General n: Gamma(n/2) (2/s)^(n/2-1) J_{n/2-1}(s), normalized to 1 at 0.
    """
    s = np.asarray(s, dtype=float)
    if dim == 1:
        return np.cos(s)
    small = np.abs(s) < 1e-8
    safe = np.where(small, 1.0, s)
    if dim == 3:
        out = np.sin(safe) / safe
    else:
        nu = dim / 2.0 - 1.0
        out = sp_gamma(dim / 2.0) * (2.0 / safe) ** nu * jv(nu, safe)
    return np.where(small, 1.0 - s * s / (2.0 * dim), out)


def _kernel_minus_one(dim: int, s):
    """radial_kernel - 1, evaluated without cancellation near s = 0.

    Below |s| = 1 it sums the power series sum_k (-s^2/4)^k Gamma(n/2) /
    (k! Gamma(k + n/2)) from k = 1; fourteen terms reach double precision.
    """
    s = np.asarray(s, dtype=float)
    if dim == 1:
        return -2.0 * np.sin(s / 2.0) ** 2
    out = radial_kernel(dim, s) - 1.0
    small = np.abs(s) < 1.0
    x = -0.25 * s[small] ** 2
    term = np.ones_like(x)
    series = np.zeros_like(x)
    for k in range(1, 15):
        term *= x / (k * (k - 1 + dim / 2.0))
        series += term
    out[small] = series
    return out


def _quad(fn, lo, hi, pieces=None):
    if pieces:
        total = 0.0
        cuts = [lo, *pieces, hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += integrate.quad(fn, a, b, **_QUAD_OPTS)[0]
        return total
    return integrate.quad(fn, lo, hi, **_QUAD_OPTS)[0]


def zeroth_moment(u1: RadialProfile) -> float:
    """Total mass P = integral u1(x) dx via adaptive radial quadrature."""
    _require_integrable(u1)
    n = u1.dim
    area = unit_sphere_area(n)
    return area * _quad(lambda r: float(np.real(u1.func(np.array([r]))[0])) * r ** (n - 1),
                        0.0, u1.upper_limit())


def l1_norm(u1: RadialProfile) -> float:
    _require_integrable(u1)
    n = u1.dim
    area = unit_sphere_area(n)
    return area * _quad(lambda r: abs(complex(u1.func(np.array([r]))[0])) * r ** (n - 1),
                        0.0, u1.upper_limit())


def l2_norm_sq(u1: RadialProfile) -> float:
    """Physical L2 norm squared of the radial profile."""
    n = u1.dim
    area = unit_sphere_area(n)
    return area * _quad(lambda r: abs(complex(u1.func(np.array([r]))[0])) ** 2 * r ** (n - 1),
                        0.0, u1.upper_limit())


def _fluctuation_values(u1: RadialProfile, rhos: np.ndarray) -> np.ndarray:
    """A(rho) for every rho of the grid.

    A profile with a finite certified radius R goes through
    _panel_fluctuation, one kernel-matrix product for the whole grid.  A
    profile without one (a power tail), or one that the uniform partition
    does not resolve (a jump inside the support), takes one adaptive scipy
    quad integral per rho out to its upper limit.
    """
    _require_integrable(u1)
    rhos = np.asarray(rhos, dtype=float)
    radius = u1.upper_limit()
    if math.isfinite(radius):
        values = _panel_fluctuation(u1, rhos, radius)
        if values is not None:
            return values
    return np.array([_quad_fluctuation(u1, rho) for rho in rhos])


def _panel_fluctuation(u1: RadialProfile, rhos: np.ndarray, radius: float):
    """A(rho) on one uniform K21 partition of [0, R], or None if unresolved.

    Integrates u1(r) (K(rho r) - 1) r^(n-1) for all rho at once, starting
    from about one panel per period of the fastest kernel, cos(rho_max r).
    Every rho's summed |K21 - G10| must stay below 1e-12 of its summed
    |K21|; the panel count doubles at most three times until it does.
    """
    n = u1.dim

    def integrand(r):
        u = np.real(u1.func(r)) * r ** (n - 1)
        return u * _kernel_minus_one(n, rhos[:, None] * r)

    panels = max(16, math.ceil(float(np.max(rhos)) * radius / (2.0 * math.pi)))
    for _ in range(4):
        edges = np.linspace(0.0, radius, panels + 1)
        values, errors = panel_integrals(integrand, edges[:-1], edges[1:])
        scale = np.sum(np.abs(values), axis=1)
        if np.all(np.sum(errors, axis=1) <= _MOMENT_REL_TOL * scale):
            return unit_sphere_area(n) * np.sum(values, axis=1)
        panels *= 2
    return None


def _quad_fluctuation(u1: RadialProfile, rho: float) -> float:
    """A(rho) by scipy quad, split at the first few kernel oscillations."""
    n = u1.dim

    def integrand(r):
        val = float(np.real(u1.func(np.array([r]))[0]))
        return val * float(_kernel_minus_one(n, np.array([rho * r]))[0]) * r ** (n - 1)

    pieces = [k * math.pi / rho for k in (1, 2, 4, 8, 16) if k * math.pi / rho < u1.upper_limit()]
    return unit_sphere_area(n) * _quad(integrand, 0.0, u1.upper_limit(), pieces=pieces)


def fluctuation(u1: RadialProfile, xi) -> tuple[float, float]:
    """Fluctuation pair (A(xi), B(xi)) of the moment decomposition.

    xi may be a vector or the scalar |xi|; only the norm enters for radial
    data, and B = 0 exactly by odd symmetry.
    """
    _require_integrable(u1)
    rho = float(np.linalg.norm(xi)) if np.ndim(xi) else float(abs(xi))
    if rho == 0.0:
        return 0.0, 0.0
    return float(_fluctuation_values(u1, np.array([rho]))[0]), 0.0


def weighted_l1_norm(u1: RadialProfile, gamma_exp: float) -> float:
    """||u1||_{1,gamma} = integral (1 + |x|^gamma) |u1(x)| dx."""
    if not (0.0 < gamma_exp <= 1.0):
        raise InputDomainError(f"gamma must lie in (0, 1], got {gamma_exp}")
    _require_integrable(u1, weight_power=gamma_exp)
    n = u1.dim
    area = unit_sphere_area(n)
    val = area * _quad(
        lambda r: (1.0 + r**gamma_exp)
        * abs(complex(u1.func(np.array([r]))[0]))
        * r ** (n - 1),
        0.0,
        u1.upper_limit(),
    )
    plain = l1_norm(u1)
    if val < plain * (1.0 - 1e-9):
        raise InvariantViolation("weighted L1 norm fell below the plain L1 norm")
    return val


def moment_bound_check(u1: RadialProfile, gamma_exp: float, xi_grid) -> float:
    """Smallest empirical M with |A - iB| <= M |xi|^gamma ||u1||_{1,gamma} on the grid.

    The analytic ceiling 2^(1-gamma) + 1 is asserted; scaling u1 leaves the
    result unchanged.
    """
    if not (0.0 < gamma_exp <= 1.0):
        raise InputDomainError(f"gamma must lie in (0, 1], got {gamma_exp}")
    grid = np.asarray(xi_grid, dtype=float)
    if grid.size == 0:
        raise InputDomainError("xi grid must be nonempty")
    if np.any(grid <= 0):
        raise InputDomainError("xi grid must exclude 0")
    wnorm = weighted_l1_norm(u1, gamma_exp)
    # B vanishes for radial data, so |A - iB| = |A|
    worst = float(np.max(np.abs(_fluctuation_values(u1, grid)) / (grid**gamma_exp * wnorm)))
    ceiling = 2.0 ** (1.0 - gamma_exp) + 1.0
    if not (math.isfinite(worst) and worst <= ceiling * (1.0 + 1e-9)):
        raise InvariantViolation(
            f"empirical moment constant {worst} exceeds the ceiling {ceiling}"
        )
    return worst


def radial_fourier(u1: RadialProfile, rho: float) -> float:
    """Fourier transform of the radial profile at |xi| = rho (real for radial data)."""
    _require_integrable(u1)
    n = u1.dim
    area = unit_sphere_area(n)
    if rho == 0.0:
        return zeroth_moment(u1)

    def integrand(r):
        val = float(np.real(u1.func(np.array([r]))[0]))
        return val * float(radial_kernel(n, np.array([rho * r]))[0]) * r ** (n - 1)

    pieces = [k * math.pi / rho for k in (1, 2, 4, 8, 16) if k * math.pi / rho < u1.upper_limit()]
    return area * _quad(integrand, 0.0, u1.upper_limit(), pieces=pieces)


_DEFAULT_M_GRID = np.geomspace(1e-3, 50.0, 96)


@dataclass(frozen=True)
class MomentDecomposition:
    """Scalars of the moment decomposition for one velocity datum.

    p_moment is the mass P, gamma_exp the moment exponent, weighted_norm the
    ||u1||_{1,gamma}, m_constant the empirical bound constant.  The source
    profile rides along for the quadrature-side remainder evaluations.
    """

    p_moment: float
    gamma_exp: float
    weighted_norm: float
    m_constant: float
    l1: float
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
        grid = _DEFAULT_M_GRID if xi_grid is None else xi_grid
        return cls(
            p_moment=zeroth_moment(u1),
            gamma_exp=gamma_exp,
            weighted_norm=weighted_l1_norm(u1, gamma_exp),
            m_constant=moment_bound_check(u1, gamma_exp, grid),
            l1=l1_norm(u1),
            profile=u1,
        )
