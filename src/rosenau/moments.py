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
computed.

Every integral runs over [0, R] for the profile's certified finite radius R
(a compact or a Gaussian tail; other profiles raise IntegrabilityError).
P and the norms go through quadrature.integrate_radial.  A(rho) is one
row-valued G10/K21 refinement for the whole frequency grid: one row per
rho, from about one panel per period of the fastest kernel, a panel being
bisected until every row meets its share of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as sp_gamma, jv

from .errors import InputDomainError, IntegrabilityError, InvariantViolation
from .model import unit_sphere_area
from .quadrature import _kronrod_refine, integrate_radial
from .tails import TailBound

__all__ = [
    "RadialProfile",
    "MomentDecomposition",
    "radial_kernel",
    "zeroth_moment",
    "l1_norm",
    "fluctuation",
    "weighted_l1_norm",
]

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


def _radial_integral(u1: RadialProfile, density) -> float:
    """omega_n times the integral of density(u1(r), r) r^(n-1) over [0, R]."""
    n = u1.dim
    value = integrate_radial(
        lambda r: density(u1.func(r), r) * r ** (n - 1),
        0.0,
        u1.upper_limit(),
        rel_tol=_MOMENT_REL_TOL,
    )
    return unit_sphere_area(n) * value


def zeroth_moment(u1: RadialProfile) -> float:
    """Total mass P = integral u1(x) dx."""
    return _radial_integral(u1, lambda u, r: np.real(u))


def l1_norm(u1: RadialProfile) -> float:
    return _radial_integral(u1, lambda u, r: np.abs(u))


def l2_norm_sq(u1: RadialProfile) -> float:
    """Physical L2 norm squared of the radial profile."""
    return _radial_integral(u1, lambda u, r: np.abs(u) ** 2)


def fluctuation(u1: RadialProfile, rhos) -> np.ndarray:
    """A(rho) for every rho of the grid, in one row-valued K21 refinement.

    Integrates u1(r) (K(rho r) - 1) r^(n-1) over [0, R] for all rho at
    once, starting from about one panel per period of the fastest kernel,
    cos(rho_max r), and bisecting a panel until every rho meets its share
    of 1e-12 of its own |A(rho)|.  The odd part B vanishes for radial data,
    so A is the whole fluctuation.
    """
    rhos = np.asarray(rhos, dtype=float)
    radius = u1.upper_limit()
    n = u1.dim

    def integrand(r):
        u = np.real(u1.func(r)) * r ** (n - 1)
        return u * _kernel_minus_one(n, rhos[:, None] * r)

    panels = max(16, math.ceil(float(np.max(rhos)) * radius / (2.0 * math.pi)))
    values, _, _ = _kronrod_refine(integrand, np.linspace(0.0, radius, panels + 1), _MOMENT_REL_TOL)
    return unit_sphere_area(n) * values


def weighted_l1_norm(u1: RadialProfile, gamma_exp: float) -> float:
    """||u1||_{1,gamma} = integral (1 + |x|^gamma) |u1(x)| dx."""
    if not (0.0 < gamma_exp <= 1.0):
        raise InputDomainError(f"gamma must lie in (0, 1], got {gamma_exp}")
    return _radial_integral(u1, lambda u, r: (1.0 + r**gamma_exp) * np.abs(u))


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
        wnorm = weighted_l1_norm(u1, gamma_exp)
        return cls(
            p_moment=zeroth_moment(u1),
            gamma_exp=gamma_exp,
            weighted_norm=wnorm,
            m_constant=_moment_constant(u1, gamma_exp, grid, wnorm),
            l1=l1_norm(u1),
            profile=u1,
        )
