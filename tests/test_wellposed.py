import math
import warnings

import numpy as np
import pytest

from rosenau import (
    InputDomainError,
    IntegrabilityError,
    ModelParams,
    PreconditionError,
    dissipativity_residual,
    h_ratio_scan,
    high_frequency_limit,
    sobolev_equivalence_check,
)
from rosenau.wellposed import h_weighted_symbol, write_multiplier_csv

from conftest import k21_refine

P = ModelParams(1.0, 1.0, 1.0, 2.0, 1)


def p_multiplier(params, r):
    """The operator symbol (1 + kappa r^2 + mu r^4)/(1 + delta r^(2 theta))."""
    return (1.0 + params.kappa * r**2 + params.mu * r**4) / (
        1.0 + params.delta * r ** (2.0 * params.theta)
    )


class TestSymbol:
    def test_identity_at_origin(self):
        assert h_weighted_symbol(P, 0.0) == 1.0

    def test_default_value_at_one(self):
        # (1 + 1 + 1)^2 / (1 + 1)
        assert h_weighted_symbol(P, 1.0) == pytest.approx(4.5, rel=1e-14)

    def test_definitional_identity_on_grid(self):
        r = np.geomspace(1e-4, 1e4, 200)
        lhs = h_weighted_symbol(P, r) * (1 + P.delta * r ** (2 * P.theta))
        rhs = (1 + P.kappa * r**2 + P.mu * r**4) ** 2
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_squared_symbol_relation(self):
        r = np.geomspace(1e-3, 1e3, 50)
        assert np.allclose(
            h_weighted_symbol(P, r),
            p_multiplier(P, r) ** 2 * (1 + P.delta * r ** (2 * P.theta)),
            rtol=1e-12,
        )


class TestRatioScan:
    def test_endpoints_reach_their_limits(self):
        scan = h_ratio_scan(P)
        assert scan.limits[0] == pytest.approx(1.0, abs=1e-2)
        assert scan.limits[1] == pytest.approx(high_frequency_limit(P), rel=1e-2)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_high_frequency_limit_tracks_parameters(self, theta):
        params = ModelParams(2.0, 3.0, 1.0, theta, 1)
        scan = h_ratio_scan(params)
        assert scan.limits[1] == pytest.approx(params.mu**2 / params.delta, rel=1e-2)

    def test_infimum_positive(self):
        scan = h_ratio_scan(P)
        assert scan.m_lower > 0
        assert np.all(scan.h_ratio >= scan.m_lower)

    def test_near_origin_ratio(self):
        scan = h_ratio_scan(P)
        idx = np.argmin(np.abs(scan.r_grid - 1e-6))
        assert 0.99 <= scan.h_ratio[idx] <= 1.01

    def test_small_theta_returns_an_endpoint_short_of_its_limit(self):
        # 1/(1 + delta r^(2 theta)) at r = 1e-6 and theta = 0.1 is
        # 1/(1 + 10^-1.2); the scan returns it for the preset to judge
        scan = h_ratio_scan(ModelParams(1.0, 1.0, 1.0, 0.1, 1))
        assert scan.limits[0] == pytest.approx(0.94064905689911, rel=1e-12)
        assert scan.limits[0] == pytest.approx(1.0 / (1.0 + 10.0**-1.2), rel=1e-10)

    def test_mu_zero_rejected(self):
        with pytest.raises(PreconditionError):
            h_ratio_scan(ModelParams(1.0, 0.0, 1.0, 2.0, 1))

    def test_narrow_grid_rejected(self):
        with pytest.raises(PreconditionError):
            h_ratio_scan(P, np.geomspace(0.1, 10.0, 50))

    def test_csv_export(self, tmp_path):
        scan = h_ratio_scan(P)
        path = tmp_path / "h_ratio.csv"
        write_multiplier_csv(scan, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"r,h_ratio"
        assert len([l for l in lines[1:] if l]) == scan.r_grid.size


class TestSobolevEquivalence:
    def test_gaussian_ordering(self):
        u_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        lhs, lo, hi = sobolev_equivalence_check(P, u_hat)
        assert lo <= lhs <= hi

    def test_single_shell_reproduces_pointwise_ratio(self):
        r_star = 2.7
        shell = lambda r: np.exp(-1e4 * (np.asarray(r, dtype=float) - r_star) ** 2)  # noqa: E731
        lhs, lo, hi = sobolev_equivalence_check(P, shell)
        scan = h_ratio_scan(P)
        base = lo / scan.m_lower
        pointwise = h_weighted_symbol(P, r_star) / (1 + r_star ** (2 * (4 - P.theta)))
        assert lhs / base == pytest.approx(pointwise, rel=1e-4)

    def test_undeclared_step_raises_instead_of_missing_rel_tol(self):
        # the partition does not resolve the indicator of [2.7, 2.71) to
        # 1e-10 within its 30 rounds; it returned 0.70154951571 against
        # 0.70154951618 with no failure when unresolved panels kept their
        # values
        step = lambda r: ((np.asarray(r) >= 2.7) & (np.asarray(r) < 2.71)).astype(float)  # noqa: E731
        with pytest.raises(IntegrabilityError, match="unresolved after 30 rounds"):
            sobolev_equivalence_check(P, step)

    def test_theta_two_relates_like_weights(self):
        # 4 - theta = 2: both sides carry the same polynomial order
        params = ModelParams(1.0, 1.0, 1.0, 2.0, 1)
        u_hat = lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
        lhs, lo, hi = sobolev_equivalence_check(params, u_hat)
        assert lo > 0 and hi / lo < 10.0


    @pytest.mark.parametrize("dim,area", [(2, 2.0 * math.pi), (3, 4.0 * math.pi)])
    def test_integrates_in_the_dimension_of_params(self, dim, area):
        # omega_n and the weight r^(n-1) come from params.dim
        from scipy.integrate import quad

        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        u_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        lhs, _, _ = sobolev_equivalence_check(params, u_hat)
        density = lambda r: h_weighted_symbol(params, r) * math.exp(-2.0 * r * r) * r ** (dim - 1)  # noqa: E731
        expected, _ = quad(density, 0.0, 40.0, epsabs=0.0, epsrel=1e-12, limit=200)
        assert lhs == pytest.approx(area * expected, rel=1e-9)

    @pytest.mark.parametrize("dim", [194, 344])
    def test_a_weight_past_the_float_range_is_a_typed_error(self, dim):
        # 40^(n-1) overflows a float from n = 194: both integrals raise
        # before any integrand is evaluated, so no overflow warning comes first
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        u_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputDomainError, match=f"overflows a float on \\[0, 40\\] at dim {dim}"):
                sobolev_equivalence_check(params, u_hat)
            with pytest.raises(InputDomainError, match=f"at dim {dim}"):
                dissipativity_residual(params, u_hat, u_hat)


class TestDissipativity:
    def test_real_profiles_vanish_exactly(self):
        u_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        v_hat = lambda r: np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
        assert dissipativity_residual(P, u_hat, v_hat) == 0.0

    def test_quadrature_phase_pair(self):
        u_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        v_hat = lambda r: 1j * np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
        assert abs(dissipativity_residual(P, u_hat, v_hat)) <= 1e-14

    def test_random_complex_profiles(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)

            def u_hat(r, c0=c[0], c1=c[1]):
                r = np.asarray(r, dtype=float)
                return c0 * np.exp(-(r**2)) + c1 * r * np.exp(-2.0 * r**2)

            def v_hat(r, c2=c[2], c3=c[3]):
                r = np.asarray(r, dtype=float)
                return c2 * np.exp(-0.5 * r**2) + c3 * r**2 * np.exp(-(r**2))

            res = dissipativity_residual(P, u_hat, v_hat)
            # normalize by one of the pairing magnitudes
            mag, _ = k21_refine(
                lambda r: np.abs(
                    (1 + P.kappa * np.asarray(r, dtype=float) ** 2 + P.mu * np.asarray(r, dtype=float) ** 4)
                    * u_hat(r)
                    * np.conj(v_hat(r))
                ),
                np.linspace(0.0, 12.0, 65),
                1e-9,
            )
            assert abs(res) <= 1e-10 * max(mag, 1e-300)

    def test_skew_integrand_purely_imaginary(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        skew = v * np.conj(u) - u * np.conj(v)
        assert np.max(np.abs(skew.real)) == 0.0
