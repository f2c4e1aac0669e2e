import math

import numpy as np
import pytest

from rosenau import (
    InputDomainError,
    ModelParams,
    PreconditionError,
    SincConstants,
    band_boundaries,
    band_split_norm,
    derivative_floor,
    dispersion_derivatives,
    epsilon0,
    eval_dispersion,
    gaussian_velocity_data,
    norm_squared,
    second_derivative_bound,
    unit_sphere_area,
)
from rosenau import model
from rosenau.model import dispersion_expansion, dispersion_slope

from conftest import EXPANSION_CELLS

P_DEFAULT = ModelParams(1.0, 1.0, 1.0, 2.0, 1)
SINC = SincConstants()

# parameter sets exercising theta in {0.5, 1, 2} and mu in {0, 1}
PARAM_SETS = [
    ModelParams(1.0, 1.0, 1.0, 2.0, 1),
    ModelParams(1.0, 0.0, 1.0, 2.0, 1),
    ModelParams(1.0, 1.0, 1.0, 1.0, 1),
    ModelParams(1.0, 1.0, 1.0, 0.5, 1),
    ModelParams(2.0, 0.0, 3.0, 0.5, 1),
]


class TestModelParams:
    def test_rejects_bad_coefficients(self):
        with pytest.raises(InputDomainError):
            ModelParams(0.0, 1.0, 1.0, 2.0, 1)
        with pytest.raises(InputDomainError):
            ModelParams(1.0, -1.0, 1.0, 2.0, 1)
        with pytest.raises(InputDomainError):
            ModelParams(1.0, 1.0, 0.0, 2.0, 1)
        with pytest.raises(InputDomainError):
            ModelParams(1.0, 1.0, 1.0, 2.5, 1)
        with pytest.raises(InputDomainError):
            ModelParams(1.0, 1.0, 1.0, 2.0, 0)

    def test_mu_zero_guard(self):
        p = ModelParams(1.0, 0.0, 1.0, 2.0, 1)
        with pytest.raises(PreconditionError):
            p.require_mu_positive("test op")


class TestDispersion:
    def test_unit_value(self):
        assert eval_dispersion(P_DEFAULT, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_origin_exact_zero(self):
        assert eval_dispersion(P_DEFAULT, 0.0) == 0.0

    @pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6])
    def test_linear_slope_at_origin(self, r):
        # f(r)/r -> sqrt(kappa) with quadratic-order correction
        params = P_DEFAULT
        ratio = eval_dispersion(params, r) / r
        correction = 2.0 * (params.mu / params.kappa + params.delta)
        assert abs(ratio / math.sqrt(params.kappa) - 1.0) <= correction * r**2

    def test_rejects_bad_radius(self):
        with pytest.raises(InputDomainError):
            eval_dispersion(P_DEFAULT, -1.0)
        with pytest.raises(InputDomainError):
            eval_dispersion(P_DEFAULT, math.nan)

    def test_positive_away_from_origin(self):
        r = np.geomspace(1e-8, 1e8, 200)
        assert np.all(eval_dispersion(P_DEFAULT, r) > 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_non_finite_radii_anywhere_rejected(self, bad, shape):
        r = np.full(shape, 0.5)
        r.flat[-1] = bad
        for fn in (eval_dispersion, dispersion_derivatives):
            with pytest.raises(InputDomainError, match="radius must be finite"):
                fn(P_DEFAULT, r)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_negative_radii_anywhere_rejected(self, shape):
        r = np.full(shape, 0.5)
        r.flat[-1] = -1e-300
        with pytest.raises(InputDomainError, match=r"radius must satisfy r >= 0"):
            eval_dispersion(P_DEFAULT, r)
        with pytest.raises(InputDomainError, match=r"radius must satisfy r > 0"):
            dispersion_derivatives(P_DEFAULT, r)
        r.flat[-1] = 0.0
        eval_dispersion(P_DEFAULT, r)
        with pytest.raises(InputDomainError, match=r"radius must satisfy r > 0"):
            dispersion_derivatives(P_DEFAULT, r)

    def test_empty_radii_accepted(self):
        assert eval_dispersion(P_DEFAULT, np.empty(0)).shape == (0,)
        assert dispersion_derivatives(P_DEFAULT, np.empty((0, 3)))[0].shape == (0, 3)


class TestDerivatives:
    def test_first_derivative_matches_finite_difference(self):
        r0, h = 0.3, 1e-5
        fp, _ = dispersion_derivatives(P_DEFAULT, r0)
        fd = (eval_dispersion(P_DEFAULT, r0 + h) - eval_dispersion(P_DEFAULT, r0 - h)) / (2 * h)
        assert fp == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_matches_finite_difference(self):
        r0, h = 0.3, 1e-4
        _, fpp = dispersion_derivatives(P_DEFAULT, r0)
        fd = (
            eval_dispersion(P_DEFAULT, r0 + h)
            - 2 * eval_dispersion(P_DEFAULT, r0)
            + eval_dispersion(P_DEFAULT, r0 - h)
        ) / h**2
        assert fpp == pytest.approx(fd, rel=1e-4)

    def test_default_floor_is_one_eighth(self):
        assert derivative_floor(P_DEFAULT) == pytest.approx(0.125, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InputDomainError):
            dispersion_derivatives(P_DEFAULT, 0.0)

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_first_derivative_floor_on_dense_grid(self, params):
        r = np.geomspace(1e-8, epsilon0(params), 1000)
        fp, _ = dispersion_derivatives(params, r)
        assert np.all(fp >= derivative_floor(params) * (1 - 1e-12))

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_second_derivative_bound_on_dense_grid(self, params):
        r = np.geomspace(1e-8, epsilon0(params), 1000)
        _, fpp = dispersion_derivatives(params, r)
        c = second_derivative_bound(params)
        assert np.all(r * np.abs(fpp) <= c * (1.0 + r))


class TestSlope:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_equals_the_rate_and_its_derivative_bit_for_bit(self, params):
        r = np.geomspace(1e-8, 1e8, 2001)
        f, fp = dispersion_slope(params, r)
        assert np.array_equal(f, eval_dispersion(params, r))
        assert np.array_equal(fp, dispersion_derivatives(params, r)[0])
        assert dispersion_slope(params, 0.3) == (eval_dispersion(params, 0.3), dispersion_derivatives(params, 0.3)[0])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InputDomainError, match=r"radius must satisfy r > 0"):
            dispersion_slope(P_DEFAULT, np.array([0.5, 0.0]))


class TestScalarBranch:
    @pytest.mark.parametrize("bad,message", [(math.nan, "finite"), (math.inf, "finite"), (-1e-300, "r >= 0")])
    def test_validates_like_the_array_path(self, bad, message):
        for r in (bad, np.float64(bad)):
            with pytest.raises(InputDomainError, match=message):
                eval_dispersion(P_DEFAULT, r)

    def test_numpy_floats_take_it_and_give_python_floats(self):
        value = eval_dispersion(P_DEFAULT, np.float64(0.7))
        assert type(value) is float
        assert value == eval_dispersion(P_DEFAULT, np.array([0.7]))[0]
        assert eval_dispersion(P_DEFAULT, 0.0) == 0.0


def _next_power(theta, power):
    """The least power 2 i + 2 theta j above power: the order of the first
    term the low-frequency law leaves out."""
    return min(p for i in range(4) for j in range(4) if (p := 2.0 * i + 2.0 * theta * j) > power + 1e-12)


class TestDispersionExpansion:
    @pytest.mark.parametrize("cell", EXPANSION_CELLS)
    def test_low_frequency_law(self, cell):
        # f / (c r) = sqrt(1 + mu r^2 / kappa) / sqrt(1 + delta r^(2 theta)):
        # past b r^q every term is of order r^q2 or smaller, with a
        # coefficient below 2 (1 + mu/kappa + delta)^2 for r <= 1e-4
        de, mu, ka, th = cell
        law = dispersion_expansion(ModelParams(*cell, 1))
        assert law.low_coefficient == math.sqrt(ka)
        assert law.low_power == min(2.0 * th, 2.0)
        q2 = _next_power(th, law.low_power)
        size = 2.0 * (1.0 + mu / ka + de) ** 2
        for r in (1e-8, 1e-6, 1e-4):
            f = eval_dispersion(ModelParams(*cell, 1), r)
            residual = f / (law.low_coefficient * r) - 1.0 - law.low_correction * r**law.low_power
            assert abs(residual) <= size * r**q2 + 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("cell", EXPANSION_CELLS)
    def test_high_frequency_law(self, cell):
        # f / (C r^p) = sqrt((1 + kappa / (mu r^2)) / (1 + 1 / (delta r^(2 theta)))),
        # or (1 + 1 / (delta r^(2 theta)))^(-1/2) when mu = 0
        de, mu, ka, th = cell
        law = dispersion_expansion(ModelParams(*cell, 1))
        if mu > 0:
            assert (law.high_coefficient, law.high_power) == (math.sqrt(mu / de), 2.0 - th)
            size, order = 1.0 + ka / mu + 1.0 / de, min(2.0, 2.0 * th)
        else:
            assert (law.high_coefficient, law.high_power) == (math.sqrt(ka / de), 1.0 - th)
            size, order = 1.0 / de, 2.0 * th
        for r in (1e4, 1e6, 1e8):
            f = eval_dispersion(ModelParams(*cell, 1), r)
            assert abs(f / (law.high_coefficient * r**law.high_power) - 1.0) <= size * r**-order + 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("de,ka", [(1.0, 1.0), (0.7, 2.1), (4.0, 0.3)])
    def test_wave_cell(self, de, ka):
        # theta = 1, mu = delta kappa: f = sqrt(kappa) r exactly
        params = ModelParams(de, de * ka, ka, 1.0, 1)
        law = dispersion_expansion(params)
        assert law.low_correction == 0.0
        r = np.geomspace(1e-8, 1e8, 161)
        assert np.allclose(eval_dispersion(params, r), law.low_coefficient * r, rtol=4.0 * np.finfo(float).eps, atol=0.0)

    def test_stationary_points_found_once_per_params(self):
        params = ModelParams(0.75, 1.25, 1.5, 2.0, 1)
        model._expansion.cache_clear()
        for t in (1e2, 1e4, 1e6):
            band_split_norm(params, gaussian_velocity_data(1), t)
            norm_squared(ModelParams(0.75, 1.25, 1.5, 2.0, 1), gaussian_velocity_data(1), t)
        info = model._expansion.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits > 0

    def test_one_cache_entry_for_every_dimension(self):
        # no field of the expansion depends on dim
        model._expansion.cache_clear()
        laws = {dispersion_expansion(ModelParams(0.7, 1.3, 2.1, 1.5, dim)) for dim in range(1, 6)}
        assert len(laws) == 1
        assert model._expansion.cache_info().currsize == 1

    @pytest.mark.parametrize("cell", EXPANSION_CELLS + [(1.0, 0.1, 1.0, 1.5)])
    def test_slope_changes_sign_at_each_stationary_point(self, cell):
        # the form whose sign is that of f', in the float arithmetic of the
        # bisection, is nonzero at r* and of the other sign or zero one float
        # above it
        de, mu, ka, th = cell

        def slope(r):
            s = r * r
            return 2.0 * mu * s + ka + de * s**th * ((2.0 - th) * mu * s + (1.0 - th) * ka)

        roots = dispersion_expansion(ModelParams(*cell, 1)).stationary_points
        assert all(type(r) is float for r in roots)
        for root in roots:
            at, after = slope(root), slope(math.nextafter(root, math.inf))
            assert at != 0.0 and at * after <= 0.0
        if cell in [(4.0, 0.1, 1.0, 1.5), (1.0, 0.1, 1.0, 1.5)]:
            assert len(roots) == 2

    @pytest.mark.parametrize(
        "params,expected",
        [
            # f'(r) = 0 at s = r^2 = 1 + sqrt(2) for delta = mu = kappa = 1, theta = 2
            (P_DEFAULT, (math.sqrt(1.0 + math.sqrt(2.0)),)),
            # theta <= 1 with mu > 0: f' > 0 everywhere
            (ModelParams(1.0, 1.0, 1.0, 1.0, 1), ()),
            # mu = 0, theta = 2: f = r / sqrt(1 + r^4) peaks at r = 1
            (ModelParams(1.0, 0.0, 1.0, 2.0, 1), (1.0,)),
        ],
    )
    def test_stationary_points(self, params, expected):
        roots = dispersion_expansion(params).stationary_points
        assert len(roots) == len(expected)
        for got, want in zip(roots, expected):
            assert got == pytest.approx(want, rel=1e-11)
            fp, _ = dispersion_derivatives(params, np.array([got * (1 - 1e-6), got * (1 + 1e-6)]))
            assert fp[0] > 0 > fp[1]

    @pytest.mark.parametrize("cell", EXPANSION_CELLS)
    def test_curvatures_are_f_second_at_the_stationary_points(self, cell):
        law = dispersion_expansion(ModelParams(*cell, 1))
        _, f_second = dispersion_derivatives(ModelParams(*cell, 1), np.array(law.stationary_points))
        assert law.curvatures == tuple(f_second.tolist())
        assert len(law.curvatures) == len(law.stationary_points)


class TestEpsilon0:
    def test_default_value(self):
        assert epsilon0(P_DEFAULT) == pytest.approx((1.0 / 8.0) ** 0.25, rel=1e-12)

    def test_clamps_to_one(self):
        assert epsilon0(ModelParams(1e-6, 1e-6, 100.0, 0.5, 1)) == 1.0

    def test_mu_zero_theta_one(self):
        assert epsilon0(ModelParams(1.0, 0.0, 1.0, 1.0, 1)) == pytest.approx(
            math.sqrt(0.5), rel=1e-12
        )


class TestSincConstants:
    def test_defaults_valid(self):
        s = SincConstants()
        assert s.delta0 == 0.9

    def test_rejects_bad_threshold(self):
        with pytest.raises(InputDomainError):
            SincConstants(delta0=1.5)

    def test_half_level_and_supremum_sampled(self):
        eta = np.linspace(1e-9, 1e3, 200001)
        vals = np.abs(np.sin(eta) / eta)
        assert np.all(vals[eta <= SINC.delta0] >= 0.5)
        assert np.max(vals) <= 1.0


class TestBands:
    def test_beta_value(self):
        b = band_boundaries(P_DEFAULT, SINC, 10.0)
        assert b.beta == pytest.approx(0.9 / (math.sqrt(2) * 10), rel=1e-12)

    def test_gamma_value(self):
        b = band_boundaries(P_DEFAULT, SINC, math.e**2)
        assert b.gamma_band == pytest.approx(0.9 / (math.sqrt(2) * 2), rel=1e-12)

    def test_low_band_phase_cap(self):
        for t in np.geomspace(10.0, 1e6, 25):
            b = band_boundaries(P_DEFAULT, SINC, t)
            assert t * eval_dispersion(P_DEFAULT, b.beta) <= SINC.delta0 * (1 + 1e-12)

    def test_rejects_small_time(self):
        with pytest.raises(PreconditionError):
            band_boundaries(P_DEFAULT, SINC, 2.0)

    def test_array_of_times_matches_one_time_at_a_time(self):
        times = np.geomspace(3.0, 1e12, 41)
        bands = band_boundaries(P_DEFAULT, SINC, times)
        for k, t in enumerate(times.tolist()):
            alone = band_boundaries(P_DEFAULT, SINC, t)
            assert type(alone.beta) is float
            assert (alone.beta, alone.gamma_band, alone.t) == (bands.beta[k], bands.gamma_band[k], bands.t[k])

    @pytest.mark.parametrize("bad", [2.0, math.e, -1.0, math.nan, math.inf])
    def test_array_raises_at_the_first_bad_time(self, bad):
        times = np.array([10.0, 1e3, bad, 0.5, 1e4])
        with pytest.raises(PreconditionError, match=f"got t = {bad}"):
            band_boundaries(P_DEFAULT, SINC, times)

    def test_array_raises_where_beta_exceeds_one(self):
        # sqrt(mu + kappa) = 0.1: beta(t) = 9 / t exceeds 1 below t = 9
        params = ModelParams(1.0, 0.005, 0.005, 2.0, 1)
        with pytest.raises(PreconditionError, match="t = 5.0 too small"):
            band_boundaries(params, SINC, np.array([20.0, 5.0, 2.0]))
        with pytest.raises(PreconditionError, match="need t > e, got t = 2.0"):
            band_boundaries(params, SINC, np.array([20.0, 2.0, 5.0]))
        assert np.all(band_boundaries(params, SINC, np.array([9.0, 20.0])).beta <= 1.0)

    def test_scaled_radii_are_time_free(self):
        vals_beta = []
        vals_gamma = []
        for t in (10.0, 1e3, 1e5):
            b = band_boundaries(P_DEFAULT, SINC, t)
            vals_beta.append(b.beta * t)
            vals_gamma.append(b.gamma_band * math.log(t))
        assert np.ptp(vals_beta) <= 1e-12 * vals_beta[0]
        assert np.ptp(vals_gamma) <= 1e-12 * vals_gamma[0]


class TestSphereArea:
    @pytest.mark.parametrize(
        "dim,expected",
        [(1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi), (4, 2 * math.pi**2)],
    )
    def test_known_areas(self, dim, expected):
        assert unit_sphere_area(dim) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_dimension(self):
        with pytest.raises(InputDomainError):
            unit_sphere_area(0)

    def test_past_the_overflow_of_gamma(self):
        # Gamma(n/2) overflows a float from n = 344, where omega_n is still
        # one: omega_344 = 5.212307078041086e-224 (mpmath)
        assert unit_sphere_area(343) == 2.0 * math.pi**171.5 / math.gamma(171.5)
        assert unit_sphere_area(344) == pytest.approx(5.212307078041086e-224, rel=1e-12)
