"""Symbol-level well-posedness checks: the operator multiplier and dissipativity.

The evolution rewrites as a first-order system whose spatial operator has
the Fourier symbol

    p(|xi|) = (1 + kappa |xi|^2 + mu |xi|^4) / (1 + delta |xi|^(2 theta)).

Its weighted square h(r) = (1 + kappa r^2 + mu r^4)^2 / (1 + delta r^(2
theta)) is two-sided comparable to 1 + r^(2 (4 - theta)): the ratio tends to
1 at r -> 0 and to mu^2/delta at r -> infinity (both limits positive exactly
when mu > 0), so the grid infimum over a wide log grid is a positive
equivalence constant.  The skew part of the generator satisfies
Re[(v, u)_{H2} - (p u, v)_{H theta}] = 0, evaluated here as a spectral
integral on arbitrary complex radial profiles.

The functions return their numbers and judge none of them: whether the
endpoints reach their limits, the infimum is positive, the equivalence is
ordered and the residual vanishes is decided by the wellposed-check preset
(cli), which records each as a check that can fail.  They raise only on
input they cannot evaluate.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import write_columns
from .errors import InputDomainError, PreconditionError
from .model import ModelParams, unit_sphere_area
from .quadrature import _kronrod_refine, _panel_table
from .records import Record

__all__ = [
    "MultiplierScan",
    "h_weighted_symbol",
    "high_frequency_limit",
    "h_ratio_scan",
    "sobolev_equivalence_check",
    "dissipativity_residual",
    "write_multiplier_csv",
]

# The spectral integrals' partition: [0, 1e-6], then 256 geometric panels up
# to 40.  Unlike integrate_radial's per-decade start, it catches an
# undeclared narrow shell such as exp(-2e4 (r - 2.7)^2).
_EDGES = np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 257)])


def h_weighted_symbol(params: ModelParams, r):
    """h(r) = (1 + kappa r^2 + mu r^4)^2 / (1 + delta r^(2 theta))."""
    arr = np.asarray(r, dtype=float)
    out = (1.0 + params.kappa * arr**2 + params.mu * arr**4) ** 2 / (
        1.0 + params.delta * arr ** (2.0 * params.theta)
    )
    return out if np.ndim(r) else float(out)


def high_frequency_limit(params: ModelParams) -> float:
    """lim_{r -> inf} h(r)/(1 + r^(2 (4 - theta))) = mu^2 / delta (needs mu > 0).

    Both h and the comparison weight scale like r^(8 - 2 theta), with leading
    coefficients mu^2 / delta and 1.
    """
    params.require_mu_positive("the high-frequency equivalence limit")
    return params.mu**2 / params.delta


class MultiplierScan(Record):
    """Sampled ratio h(r)/(1 + r^(2 (4 - theta))) with its grid infimum."""

    r_grid: np.ndarray
    h_ratio: np.ndarray
    m_lower: float
    limits: tuple[float, float]

    @property
    def m_upper(self) -> float:
        return float(np.max(self.h_ratio))


def _ratio(params: ModelParams, r: np.ndarray) -> np.ndarray:
    return h_weighted_symbol(params, r) / (1.0 + r ** (2.0 * (4.0 - params.theta)))


def h_ratio_scan(params: ModelParams, r_grid=None) -> MultiplierScan:
    """Scan the equivalence ratio over a log grid spanning >= 8 decades.

    limits holds the ratio at the grid's two ends, to be compared with the
    analytic limits 1 and mu^2/delta (a small theta reaches 1 only far below
    the default grid's 1e-6); mu = 0 breaks the high-frequency limit and is
    rejected.
    """
    params.require_mu_positive("the multiplier equivalence")
    if r_grid is None:
        r_grid = np.geomspace(1e-6, 1e6, 481)
    grid = np.asarray(r_grid, dtype=float)
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise InputDomainError("the grid must be positive and increasing")
    if math.log10(grid[-1] / grid[0]) < 8.0 or not grid[0] < 1.0 < grid[-1]:
        raise PreconditionError("the grid must span >= 8 decades around 1")

    ratios = _ratio(params, grid)
    return MultiplierScan(
        r_grid=grid,
        h_ratio=ratios,
        m_lower=float(np.min(ratios)),
        limits=(float(ratios[0]), float(ratios[-1])),
    )


def sobolev_equivalence_check(params: ModelParams, u_hat, dim: int) -> tuple[float, float, float]:
    """Two-sided norm equivalence through the multiplier, on one profile.

    Returns (lhs, rhs_low, rhs_high) where lhs is the h-weighted spectral
    integral of |u_hat|^2 and rhs_low/rhs_high multiply the (1 + r^(2 (4 -
    theta)))-weighted integral by the grid infimum / supremum of the ratio.
    The ordering rhs_low <= lhs <= rhs_high holds when the grid brackets the
    ratio over the profile's support; it is returned, not asserted.
    """
    params.require_mu_positive("the multiplier equivalence")
    scan = h_ratio_scan(params)
    area = unit_sphere_area(dim)

    def densities(r):
        r = np.asarray(r, dtype=float)
        vals = np.abs(np.asarray(u_hat(r))) ** 2
        weights = np.stack([h_weighted_symbol(params, r), 1.0 + r ** (2.0 * (4.0 - params.theta))])
        return weights * vals * r ** (dim - 1)

    lhs, base = area * _kronrod_refine(densities, _panel_table(_EDGES), 1e-10)[0][:, 0]
    return float(lhs), float(scan.m_lower * base), float(scan.m_upper * base)


def dissipativity_residual(params: ModelParams, u_hat, v_hat, dim: int) -> float:
    """Re[(v, u)_{H2} - (p u, v)_{H theta}] evaluated spectrally; vanishes identically.

    The integrand reduces to (1 + kappa r^2 + mu r^4)(v u* - u v*), which is
    purely imaginary pointwise, so the real part integrates to zero up to
    quadrature round-off.
    """
    area = unit_sphere_area(dim)

    def residual_density(r):
        r = np.asarray(r, dtype=float)
        u = np.asarray(u_hat(r))
        v = np.asarray(v_hat(r))
        weight = 1.0 + params.kappa * r**2 + params.mu * r**4
        skew = v * np.conj(u) - u * np.conj(v)
        return weight * skew.real * r ** (dim - 1)

    return area * float(_kronrod_refine(residual_density, _panel_table(_EDGES), 1e-9, abs_tol=1e-14)[0][0])


def write_multiplier_csv(scan: MultiplierScan, path) -> None:
    write_columns(path, ["r", "h_ratio"], scan.r_grid, scan.h_ratio)
