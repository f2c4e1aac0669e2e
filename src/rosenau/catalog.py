"""Named initial-data families used by the experiments and tests.

Each entry provides the densities of evolution.RadialInitialData, |w0|^2 or
|w1|^2 (the other datum and the cross density are zero); the velocity datum
also carries its physical-space radial profile (moments.RadialProfile) as
velocity_profile, for the moment machinery and the envelopes.  Three data:

* ``gaussian``      u1(x) = A exp(-a |x|^2), u0 = 0 (mass P != 0), with
                    |w1|^2 = A^2 (pi/a)^n exp(-r^2/(2a)); its
                    gaussian_profile carries u' and u'' in closed form
* ``gaussian-u0``   same Gaussian placed in u0 with u1 = 0
* ``compact-band``  |w1|^2 = A^2 on r in [r_lo, r_hi], zero elsewhere

Every density is in closed form, and its declared tail (Gaussian or
compact) is a certificate the transform keeps at every radius.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import InputDomainError
from .evolution import RadialInitialData
from .moments import RadialProfile
from .tails import TailBound

__all__ = [
    "gaussian_velocity_data",
    "gaussian_position_data",
    "compact_band_data",
    "gaussian_profile",
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


def _gaussian_density(dim: int, a: float, amplitude: float):
    """|w|^2 of amplitude * exp(-a |x|^2), and the tail of its transform."""
    if a <= 0:
        raise InputDomainError("gaussian rate a must be positive")
    try:
        factor = amplitude * (math.pi / a) ** (dim / 2.0)
        peak = factor**2
    except OverflowError:
        raise InputDomainError(f"the transform of the Gaussian overflows a float at dim {dim}") from None

    def density(r):
        return peak * np.exp(-np.asarray(r, dtype=float) ** 2 / (2.0 * a))

    tail = TailBound(kind="gaussian", amplitude=abs(factor), rate=1.0 / (4.0 * a))
    return density, tail


def gaussian_velocity_data(dim: int, a: float = 1.0, amplitude: float = 1.0) -> RadialInitialData:
    """u0 = 0, u1 = amplitude * exp(-a |x|^2); |w1|^2 = amplitude^2 (pi/a)^n e^(-r^2/(2a)),
    physical velocity profile gaussian_profile(dim, a, amplitude)."""
    density, tail = _gaussian_density(dim, a, amplitude)
    return RadialInitialData(
        dim,
        w1_sq=density,
        w1_tail=tail,
        label=f"gaussian-velocity(a={a}, amp={amplitude})",
        velocity_profile=gaussian_profile(dim, a, amplitude),
    )


def gaussian_position_data(dim: int, a: float = 1.0, amplitude: float = 1.0) -> RadialInitialData:
    """u0 = amplitude * exp(-a |x|^2), u1 = 0."""
    density, tail = _gaussian_density(dim, a, amplitude)
    return RadialInitialData(
        dim,
        w0_sq=density,
        w0_tail=tail,
        label=f"gaussian-position(a={a}, amp={amplitude})",
    )


def compact_band_data(dim: int, r_lo: float, r_hi: float, amplitude: float = 1.0) -> RadialInitialData:
    """|w1|^2 = amplitude^2 on r in [r_lo, r_hi], zero elsewhere (u0 = 0)."""
    if not (0.0 <= r_lo < r_hi):
        raise InputDomainError("need 0 <= r_lo < r_hi")

    def density(r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= r_lo) & (r <= r_hi), amplitude**2, 0.0)

    return RadialInitialData(
        dim,
        w1_sq=density,
        w1_tail=TailBound(kind="compact", cutoff=r_hi),
        label=f"compact-band[{r_lo}, {r_hi}]",
        kinks=(r_lo, r_hi),
    )


def data_from_spec(name: str, dim: int, **kwargs) -> RadialInitialData:
    """Catalog lookup used by the experiment runner; every keyword must be
    a finite number."""
    builders = {
        "gaussian": gaussian_velocity_data,
        "gaussian-u0": gaussian_position_data,
        "compact-band": compact_band_data,
    }
    if not isinstance(name, str) or name not in builders:
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
