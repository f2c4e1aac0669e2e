"""Named initial-data families used by the experiments and tests.

Each entry provides the spectral profiles needed by the evolution operators
and, where meaningful, the matching physical-space radial profile
(moments.RadialProfile) for the moment machinery and the Hardy quotients:

* ``gaussian``      u1(x) = amplitude * exp(-a |x|^2), u0 = 0  (mass P != 0),
                    whose gaussian_profile carries u' and u'' in closed form
* ``gaussian-u0``   same Gaussian placed in u0 with u1 = 0
* ``compact-band``  spectral indicator on r in [r_lo, r_hi] as w1
* ``annular-bump``  physical C^2 bump supported on an annulus (vanishes
                    near the origin), transform evaluated by quadrature with
                    a certified 1/rho^2 envelope
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InputDomainError
from .evolution import RadialInitialData, zero_profile
from .model import unit_sphere_area
from .moments import RadialProfile, radial_kernel
from .quadrature import integrate_radial
from .tails import TailBound

__all__ = [
    "gaussian_velocity_data",
    "gaussian_position_data",
    "compact_band_data",
    "annular_velocity_data",
    "gaussian_profile",
    "annular_profile",
    "data_from_spec",
]


def gaussian_profile(dim: int, a: float = 1.0, amplitude: float = 1.0) -> RadialProfile:
    """Physical radial profile amplitude * exp(-a r^2), with u' and u''."""
    if a <= 0:
        raise InputDomainError("gaussian rate a must be positive")

    def func(r):
        return amplitude * np.exp(-a * np.asarray(r, dtype=float) ** 2)

    def deriv(r):
        r = np.asarray(r, dtype=float)
        return -2.0 * a * amplitude * r * np.exp(-a * r**2)

    def second_deriv(r):
        r = np.asarray(r, dtype=float)
        return (4.0 * a * a * r**2 - 2.0 * a) * amplitude * np.exp(-a * r**2)

    return RadialProfile(
        func=func,
        dim=dim,
        tail=TailBound(kind="gaussian", amplitude=abs(amplitude), rate=a),
        label=f"gaussian(a={a})",
        deriv=deriv,
        second_deriv=second_deriv,
    )


def _gaussian_hat(dim: int, a: float, amplitude: float):
    factor = amplitude * (math.pi / a) ** (dim / 2.0)

    def hat(r):
        return factor * np.exp(-np.asarray(r, dtype=float) ** 2 / (4.0 * a))

    tail = TailBound(kind="gaussian", amplitude=abs(factor), rate=1.0 / (4.0 * a))
    return hat, tail


def gaussian_velocity_data(dim: int, a: float = 1.0, amplitude: float = 1.0) -> RadialInitialData:
    """u0 = 0, u1 = amplitude * exp(-a |x|^2); spectral profile (pi/a)^(n/2) e^(-r^2/(4a))."""
    hat, tail = _gaussian_hat(dim, a, amplitude)
    return RadialInitialData(
        w0_profile=zero_profile,
        w1_profile=hat,
        dim=dim,
        w1_tail=tail,
        label=f"gaussian-velocity(a={a}, amp={amplitude})",
    )


def gaussian_position_data(dim: int, a: float = 1.0, amplitude: float = 1.0) -> RadialInitialData:
    """u0 = amplitude * exp(-a |x|^2), u1 = 0."""
    hat, tail = _gaussian_hat(dim, a, amplitude)
    return RadialInitialData(
        w0_profile=hat,
        w1_profile=zero_profile,
        dim=dim,
        w0_tail=tail,
        label=f"gaussian-position(a={a}, amp={amplitude})",
    )


def compact_band_data(dim: int, r_lo: float, r_hi: float, amplitude: float = 1.0) -> RadialInitialData:
    """w1 = amplitude on r in [r_lo, r_hi], zero elsewhere (u0 = 0)."""
    if not (0.0 <= r_lo < r_hi):
        raise InputDomainError("need 0 <= r_lo < r_hi")

    def hat(r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= r_lo) & (r <= r_hi), amplitude, 0.0)

    return RadialInitialData(
        w0_profile=zero_profile,
        w1_profile=hat,
        dim=dim,
        w1_tail=TailBound(kind="compact", cutoff=r_hi),
        label=f"compact-band[{r_lo}, {r_hi}]",
        kinks=(r_lo, r_hi),
    )


def annular_profile(dim: int, r0: float, width: float, amplitude: float = 1.0) -> RadialProfile:
    """C^2 bump amplitude * (1 - s^2)^3 with s = (r - r0)/width on |s| <= 1."""
    if not (width > 0 and r0 - width >= 0):
        raise InputDomainError("annulus must have positive width and stay off the origin")

    def func(r):
        s = (np.asarray(r, dtype=float) - r0) / width
        inside = np.abs(s) < 1.0
        return np.where(inside, amplitude * (1.0 - s**2) ** 3, 0.0)

    return RadialProfile(
        func=func,
        dim=dim,
        tail=TailBound(kind="compact", cutoff=r0 + width),
        label=f"annular-bump(r0={r0}, width={width})",
        kinks=(r0 - width, r0 + width),
    )


def _annular_laplacian_l1(profile: RadialProfile, r0: float, width: float, amplitude: float) -> float:
    """||Delta u||_{L1} for the annular bump; feeds the 1/rho^2 transform envelope."""
    n = profile.dim

    def second(r):
        s = (r - r0) / width
        inside = np.abs(s) < 1.0
        d1 = np.where(inside, -6.0 * amplitude * s * (1.0 - s**2) ** 2 / width, 0.0)
        d2 = np.where(
            inside,
            amplitude * (-6.0 * (1.0 - s**2) ** 2 + 24.0 * s**2 * (1.0 - s**2)) / width**2,
            0.0,
        )
        lap = d2 + (n - 1) * d1 / np.maximum(r, 1e-300)
        return np.abs(lap) * r ** (n - 1)

    return unit_sphere_area(n) * integrate_radial(second, r0 - width, r0 + width, rel_tol=1e-10)


def annular_velocity_data(
    dim: int, r0: float = 2.0, width: float = 1.0, amplitude: float = 1.0
) -> RadialInitialData:
    """u0 = 0, u1 the annular bump; transform by fixed Gauss panels over the support."""
    from numpy.polynomial.legendre import leggauss

    profile = annular_profile(dim, r0, width, amplitude)
    n = dim
    area = unit_sphere_area(n)
    nodes, weights = leggauss(96)
    r_nodes = r0 + width * nodes
    w_scaled = weights * width
    base = np.real(profile.func(r_nodes)) * r_nodes ** (n - 1) * w_scaled

    def hat(r):
        rho = np.atleast_1d(np.asarray(r, dtype=float))
        kern = radial_kernel(n, rho[:, None] * r_nodes[None, :])
        out = area * (kern @ base)
        return out if np.ndim(r) else out[0]

    lap_l1 = _annular_laplacian_l1(profile, r0, width, amplitude)
    return RadialInitialData(
        w0_profile=zero_profile,
        w1_profile=hat,
        dim=dim,
        w1_tail=TailBound(kind="power", amplitude=lap_l1, power=2.0, cutoff=1.0),
        label=profile.label,
    )


def data_from_spec(name: str, dim: int, **kwargs) -> RadialInitialData:
    """Catalog lookup used by the experiment runner; every keyword must be
    a finite number."""
    builders = {
        "gaussian": gaussian_velocity_data,
        "gaussian-u0": gaussian_position_data,
        "compact-band": compact_band_data,
        "annular-bump": annular_velocity_data,
    }
    if name not in builders:
        raise InputDomainError(
            f"unknown data spec {name!r}; choose from {sorted(builders)}"
        )
    builder = builders[name]
    try:
        inspect.signature(builder).bind(dim, **kwargs)
    except TypeError as exc:
        raise InputDomainError(f"data spec {name!r}: {exc}") from None
    for key, value in kwargs.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise InputDomainError(f"data spec {name!r}: {key} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise InputDomainError(f"data spec {name!r}: {key} must be finite, got {value!r}")
    return builder(dim, **kwargs)
