import math

import numpy as np
import pytest

from rosenau import (
    ModelParams,
    MomentDecomposition,
    PreconditionError,
    SincConstants,
    averaged_tail_remainder,
    envelope_report,
    fluctuation_remainder,
    gaussian_profile,
    gaussian_velocity_data,
    low_band_mass,
    lower_envelope,
    norm_squared,
    upper_envelope,
    weighted_gaussian_constant,
)
from rosenau.bounds import log_band_main_term, write_envelope_json

from conftest import k21_refine, phase_edges

P1 = ModelParams(1.0, 1.0, 1.0, 2.0, 1)
P2 = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
SINC = SincConstants()


class TestLowBandMass:
    def test_floor_value_at_hundred(self):
        out = low_band_mass(P1, SINC, 100.0)
        assert out.floor == pytest.approx(100.0 * 0.9 / (2 * math.sqrt(2)), rel=1e-12)

    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
    def test_quadrature_dominates_floor(self, t):
        out = low_band_mass(P1, SINC, t)
        assert out.value >= out.floor

    def test_linear_rate(self):
        ratios = [low_band_mass(P1, SINC, t).value / t for t in (1e4, 1e5, 1e6)]
        assert max(ratios) / min(ratios) <= 1.02

    def test_wrong_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            low_band_mass(P2, SINC, 100.0)


class TestFluctuationRemainder:
    def test_value_below_ceiling(self, moments_1d):
        out = fluctuation_remainder(P1, SINC, moments_1d, 1e3)
        assert 0 <= out.value <= out.ceiling

    def test_ceiling_decays_like_inverse_time(self, moments_1d):
        c1 = fluctuation_remainder(P1, SINC, moments_1d, 1e3).ceiling
        c2 = fluctuation_remainder(P1, SINC, moments_1d, 1e4).ceiling
        assert c2 == pytest.approx(c1 / 10.0, rel=1e-9)

    def test_homogeneous_in_datum(self):
        small = MomentDecomposition.from_profile(gaussian_profile(1, amplitude=1e-3), 0.75)
        big = MomentDecomposition.from_profile(gaussian_profile(1, amplitude=1.0), 0.75)
        c_small = fluctuation_remainder(P1, SINC, small, 1e3).ceiling
        c_big = fluctuation_remainder(P1, SINC, big, 1e3).ceiling
        assert c_small == pytest.approx(c_big * 1e-6, rel=1e-9)

    def test_gamma_below_half_rejected(self, moments_1d):
        bad = MomentDecomposition(
            p_moment=moments_1d.p_moment,
            gamma_exp=0.4,
            weighted_norm=moments_1d.weighted_norm,
            m_constant=moments_1d.m_constant,
            l1=moments_1d.l1,
        )
        with pytest.raises(PreconditionError):
            fluctuation_remainder(P1, SINC, bad, 1e3)


def k0_by_quadrature(params, gamma):
    """K0 from its defining integral by the K21 refinement on [0, 12]: an
    oracle independent of the Gamma-function closed form."""
    de, ka, th = params.delta, params.kappa, params.theta

    def integrand(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-(r**2)) * (
            r ** (2.0 * gamma + 1.0) / (ka * gamma)
            + de * r ** (2.0 * (gamma + th) + 1.0) / (ka * (gamma + th))
        )

    return k21_refine(integrand, np.linspace(0.0, 12.0, 65), 1e-12)[0]


class TestGaussianWeightConstant:
    def test_reference_value(self):
        k0 = weighted_gaussian_constant(P1, 1.0)
        assert k0 == pytest.approx(1.5, rel=1e-12)
        assert k0_by_quadrature(P1, 1.0) == pytest.approx(k0, rel=1e-8)
        for params, gamma in ((P2, 0.5), (ModelParams(0.5, 2.0, 3.0, 0.7, 2), 0.3)):
            assert k0_by_quadrature(params, gamma) == pytest.approx(
                weighted_gaussian_constant(params, gamma), rel=1e-8
            )

    def test_kappa_scaling(self):
        doubled = ModelParams(1.0, 1.0, 2.0, 2.0, 1)
        assert weighted_gaussian_constant(doubled, 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_dominates_weighted_moment_integral(self):
        # U(t)/omega_2 never exceeds K0, and contains no t to begin with
        gamma = 1.0
        k0 = weighted_gaussian_constant(P2, gamma)

        def integrand(r):
            r = np.asarray(r, dtype=float)
            return (
                np.exp(-(r**2))
                * r ** (2 * gamma + 1)
                * (1 + P2.delta * r ** (2 * P2.theta))
                / (P2.mu * r**4 + P2.kappa * r**2)
            )

        val, _ = k21_refine(integrand, np.geomspace(1e-8, 12.0, 129), 1e-10)
        assert val <= k0


class TestTailTerm:
    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
    def test_value_inside_assembled_bound(self, t):
        out = averaged_tail_remainder(P2, t)
        assert abs(out.value) <= out.bound

    def test_no_logarithmic_trend(self):
        ts = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        vals = np.array([abs(averaged_tail_remainder(P2, t).value) for t in ts])
        slope = np.polyfit(np.log(ts), vals, 1)[0]
        assert abs(slope) <= 0.05

    def test_bound_shrinks_relative_to_main_term(self):
        ratios = [
            averaged_tail_remainder(P2, t).bound / log_band_main_term(P2, t)
            for t in (1e2, 1e4, 1e6)
        ]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_uniform_grid_oracle(self):
        # Simpson on a dense uniform grid reproduces the oscillatory value
        from scipy.integrate import simpson
        from rosenau.model import epsilon0, eval_dispersion

        t = 1e2
        eps = epsilon0(P2)
        x = np.linspace(1.0 / t, eps, 1_000_001)
        f = eval_dispersion(P2, x)
        y = (
            np.exp(-(x**2))
            * np.cos(2 * t * f)
            * (1 + P2.delta * x ** (2 * P2.theta))
            / (P2.mu * x**3 + P2.kappa * x)
        )
        oracle = simpson(y, x=x)
        assert averaged_tail_remainder(P2, t).value == pytest.approx(oracle, rel=1e-4)


class TestTailTermOscillatoryPath:
    def test_matches_phase_resolved_quadrature(self):
        # the whole interval on one phase-resolved partition, as before the
        # fast segment moved to Levin collocation
        from rosenau.model import epsilon0, eval_dispersion

        t = 1e5
        eps = epsilon0(P2)
        edges = phase_edges(P2, 2 * t, 1 / t, eps)
        reference, _ = k21_refine(
            lambda r: (np.exp(-(r**2)) * np.cos(2 * t * eval_dispersion(P2, r))
                       * (1 + r**4) / (r**3 + r)),
            edges, 1e-9, abs_tol=1e-12,
        )
        assert averaged_tail_remainder(P2, t).value == pytest.approx(reference, rel=1e-9)

    def test_large_time_within_bound(self):
        out = averaged_tail_remainder(P2, 1e7)
        assert abs(out.value) <= out.bound
        # T2 settles: the change from t = 1e6 is of the order of its 1/t bound
        assert abs(out.value - averaged_tail_remainder(P2, 1e6).value) <= 1e-5

    def test_k21_panels_do_not_grow_with_t(self, monkeypatch):
        # at t = 1e9 the K2 envelope panels near r = 1/t reach the rounding
        # level of the K21 rule before their width share of the budget; they
        # are accepted there instead of being bisected for 30 rounds
        from rosenau import quadrature

        panels = []
        panel_integrals = quadrature.panel_integrals

        def counted(fn, lo, hi, t=None, **kwargs):
            panels.append(np.size(lo))
            return panel_integrals(fn, lo, hi, t, **kwargs)

        monkeypatch.setattr(quadrature, "panel_integrals", counted)
        counts, values = {}, {}
        for t in (1e5, 1e9):
            panels.clear()
            out = averaged_tail_remainder(P2, t)
            counts[t], values[t] = sum(panels), out.value
            assert abs(out.value) <= out.bound
        assert counts[1e9] <= 2 * counts[1e5]
        assert abs(values[1e9] - values[1e5]) <= 1e-5


class TestBatchedPicks:
    # the nine envelope picks of a trace preset, as log-spaced times
    TIMES = np.geomspace(1e2, 1e6, 9)

    @pytest.mark.parametrize("params", [P2, ModelParams(1.0, 1.0, 1.0, 1.0, 2)])
    def test_tail_main_term_and_bound_match_one_time_at_a_time(self, params):
        batch = averaged_tail_remainder(params, self.TIMES)
        main = log_band_main_term(params, self.TIMES)
        assert batch.value.shape == batch.bound.shape == main.shape == self.TIMES.shape
        for k, t in enumerate(self.TIMES.tolist()):
            alone = averaged_tail_remainder(params, t)
            assert batch.value[k] == pytest.approx(alone.value, rel=1e-14, abs=0.0)
            # the bound carries K2, one piece of the batch's envelope refinement
            assert batch.bound[k] == pytest.approx(alone.bound, rel=1e-14, abs=0.0)
            assert main[k] == pytest.approx(log_band_main_term(params, t), rel=1e-14, abs=0.0)

    def test_lower_envelope_of_an_array(self, moments_1d, moments_2d):
        for params, moments in ((P1, moments_1d), (P2, moments_2d)):
            batch = lower_envelope(params, SINC, moments, 0.0, self.TIMES, params.dim)
            alone = [lower_envelope(params, SINC, moments, 0.0, t, params.dim) for t in self.TIMES.tolist()]
            np.testing.assert_allclose(batch, alone, rtol=1e-14, atol=0.0)

    def test_any_bad_time_is_rejected(self):
        with pytest.raises(PreconditionError):
            averaged_tail_remainder(P2, np.array([1e3, 50.0]))

    def test_theorem_1_2_makes_one_tail_driver_call(self, monkeypatch, tmp_path):
        from rosenau import bounds
        from rosenau.cli import ExperimentConfig, run_experiment

        calls = []
        driver = bounds.oscillatory_integrals

        def counted(params, t, *args, **kwargs):
            calls.append(np.size(t))
            return driver(params, t, *args, **kwargs)

        monkeypatch.setattr(bounds, "oscillatory_integrals", counted)
        cfg = ExperimentConfig.from_dict({"preset": "theorem-1-2", "output_dir": str(tmp_path)})
        assert run_experiment(cfg).exit_code == 0
        assert calls == [9]


class TestEnvelopes:
    def test_lower_linear_rate_1d(self, moments_1d):
        ratios = [lower_envelope(P1, SINC, moments_1d, 0.0, t, 1) / t for t in (1e4, 1e5, 1e6)]
        assert ratios[0] > 0
        assert max(ratios) / min(ratios) <= 1.05

    def test_lower_log_rate_2d(self, moments_2d):
        ratios = [
            lower_envelope(P2, SINC, moments_2d, 0.0, t, 2) / math.log(t)
            for t in (1e4, 1e5, 1e6)
        ]
        assert ratios[0] > 0
        assert max(ratios) / min(ratios) <= 1.6  # still drifting toward its limit

    def test_massless_datum_gives_vacuous_floor(self, moments_1d):
        vacuous = MomentDecomposition(
            p_moment=0.0,
            gamma_exp=1.0,
            weighted_norm=moments_1d.weighted_norm,
            m_constant=moments_1d.m_constant,
            l1=moments_1d.l1,
        )
        assert lower_envelope(P1, SINC, vacuous, 0.0, 1e4, 1) == 0.0

    @pytest.mark.parametrize("t", [1e3, 1e5])
    def test_sandwich_1d(self, moments_1d, gauss_data_1d, t):
        spec_sq = 2.0 * math.pi * norm_squared(P1, gauss_data_1d, t)
        low = lower_envelope(P1, SINC, moments_1d, 0.0, t, 1)
        u1_l2 = math.sqrt(moments_1d.l2_sq)
        up = upper_envelope(P1, SINC, moments_1d.l1, u1_l2, 0.0, t, 1)
        assert low <= 2.0 * spec_sq
        assert 2.0 * spec_sq <= up  # even the doubled norm stays below the ceiling

    def test_upper_log_rate_2d(self, moments_2d):
        u1_l2 = math.sqrt(moments_2d.l2_sq)
        ratios = [
            upper_envelope(P2, SINC, moments_2d.l1, u1_l2, 0.0, t, 2) / math.log(t)
            for t in (1e4, 1e6)
        ]
        assert max(ratios) / min(ratios) <= 1.5

    def test_upper_time_free_n3(self, moments_1d):
        p3 = ModelParams(1.0, 1.0, 1.0, 2.0, 3)
        vals = [
            upper_envelope(p3, SINC, 1.0, 1.0, 0.5, t, 3) for t in (1e2, 1e5, 1e8)
        ]
        assert vals[0] == vals[1] == vals[2]

    def test_upper_monotone_in_norms(self, moments_1d):
        base = upper_envelope(P1, SINC, 1.0, 1.0, 1.0, 1e4, 1)
        assert upper_envelope(P1, SINC, 1.5, 1.0, 1.0, 1e4, 1) > base
        assert upper_envelope(P1, SINC, 1.0, 1.5, 1.0, 1e4, 1) > base
        assert upper_envelope(P1, SINC, 1.0, 1.0, 1.5, 1e4, 1) > base

    def test_upper_requires_mu(self):
        p_nomu = ModelParams(1.0, 0.0, 1.0, 2.0, 1)
        with pytest.raises(PreconditionError):
            upper_envelope(p_nomu, SINC, 1.0, 1.0, 0.0, 1e3, 1)


class TestEnvelopeReport:
    def test_components_present_1d(self, moments_1d, tmp_path):
        u1_l2 = math.sqrt(moments_1d.l2_sq)
        report = envelope_report(P1, SINC, moments_1d, 0.0, u1_l2, 0.0, 1e3)
        for name in ("I_l", "I_l_floor", "R_l", "R_l_ceiling", "lower_envelope", "upper_envelope"):
            assert name in report.components
        path = tmp_path / "envelope.json"
        write_envelope_json(report, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["t"] == 1e3
        assert payload["components"]["I_l"]["provenance"] == "quadrature"

    def test_components_present_2d(self, moments_2d):
        u1_l2 = math.sqrt(moments_2d.l2_sq)
        report = envelope_report(P2, SINC, moments_2d, 0.0, u1_l2, 0.0, 1e3)
        for name in ("T1", "T2", "T2_bound", "K0", "lower_envelope", "upper_envelope"):
            assert name in report.components
