import math

import numpy as np
import pytest

from rosenau import (
    InputDomainError,
    ModelParams,
    MomentDecomposition,
    NormTrace,
    QuadratureConfig,
    classify_growth,
    compute_norm_trace,
    fit_log,
    fit_power,
    gaussian_profile,
    gaussian_velocity_data,
    geometric_times,
    sandwich_report,
)
from rosenau.growth import write_fit_json, write_sandwich_csv


def synthetic_trace(ts, norms_sq):
    zeros = np.zeros_like(ts)
    return NormTrace(
        times=ts,
        norms_sq=norms_sq,
        band_low=norms_sq,
        band_mid=zeros,
        band_high=zeros,
        energy=np.ones_like(ts),
    )


TS = np.geomspace(1e2, 1e6, 60)


class TestFits:
    def test_power_on_exact_power_law(self):
        fit = fit_power(synthetic_trace(TS, TS.copy()), (1e2, 1e6))
        assert fit.exponent_or_offset == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_power_on_constant(self):
        fit = fit_power(synthetic_trace(TS, np.full_like(TS, 4.0)), (1e2, 1e6))
        assert fit.exponent_or_offset == pytest.approx(0.0, abs=1e-12)
        assert fit.coeff == pytest.approx(2.0, rel=1e-12)

    def test_log_on_exact_log_model(self):
        fit = fit_log(synthetic_trace(TS, 3.0 * np.log(TS) + 2.0), (1e2, 1e6))
        assert fit.coeff == pytest.approx(3.0, abs=1e-10)
        assert fit.exponent_or_offset == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_log_on_constant(self):
        fit = fit_log(synthetic_trace(TS, np.full_like(TS, 5.0)), (1e2, 1e6))
        assert fit.coeff == pytest.approx(0.0, abs=1e-12)

    def test_residuals_tiny_on_own_model_class(self):
        power = fit_power(synthetic_trace(TS, 2.5 * TS**0.8), (1e2, 1e6))
        assert 1.0 - power.r_squared <= 1e-10
        logfit = fit_log(synthetic_trace(TS, 0.7 * np.log(TS) + 0.1), (1e2, 1e6))
        assert 1.0 - logfit.r_squared <= 1e-10

    def test_window_needs_enough_samples(self):
        with pytest.raises(InputDomainError):
            fit_power(synthetic_trace(TS, TS.copy()), (1e2, 1.2e2))


class TestClassify:
    def test_pipeline_1d(self, trace_1d_exact):
        report = classify_growth(trace_1d_exact, 1)
        assert report.verdict == "power"
        assert report.matches_expected
        assert abs(report.power.exponent_or_offset - 0.5) <= 0.05
        assert report.margin_ok

    def test_pipeline_2d(self, trace_2d):
        report = classify_growth(trace_2d, 2)
        assert report.verdict == "logarithmic"
        assert report.matches_expected
        # a small-power impostor cannot explain sqrt(log t)
        assert report.power.exponent_or_offset < 0.05

    def test_pipeline_3d(self, trace_3d):
        report = classify_growth(trace_3d, 3)
        assert report.verdict == "bounded"
        assert report.matches_expected

    def test_scaling_invariance(self, trace_2d):
        scaled = synthetic_trace(trace_2d.times, 17.0 * trace_2d.norms_sq)
        a = classify_growth(trace_2d, 2)
        b = classify_growth(scaled, 2)
        assert a.verdict == b.verdict

    def test_short_window_rejected(self, trace_1d_exact):
        with pytest.raises(InputDomainError):
            classify_growth(trace_1d_exact, 1, (1e2, 1e4))

    def test_mismatch_reported_not_corrected(self, trace_1d_exact):
        report = classify_growth(trace_1d_exact, 3)
        assert report.verdict == "power"
        assert report.expected == "bounded"
        assert not report.matches_expected


class TestThresholdInvariance:
    def test_exponent_free_of_band_threshold(self, params_1d, gauss_data_1d):
        # the sinc threshold delta0 moves band splits, never the solution
        from rosenau import SincConstants

        times = geometric_times(1e2, 1e4, 8)
        cfg = QuadratureConfig()
        tr_a = compute_norm_trace(params_1d, gauss_data_1d, times, cfg, SincConstants(delta0=0.5))
        tr_b = compute_norm_trace(params_1d, gauss_data_1d, times, cfg, SincConstants(delta0=0.9))
        fit_a = fit_power(tr_a, (1e2, 1e4))
        fit_b = fit_power(tr_b, (1e2, 1e4))
        assert fit_a.exponent_or_offset == pytest.approx(fit_b.exponent_or_offset, abs=1e-6)
        assert np.allclose(tr_a.norms_sq, tr_b.norms_sq, rtol=1e-6)


class TestSandwich:
    def test_pipeline_1d(self, trace_1d_exact, moments_1d):
        report = sandwich_report(trace_1d_exact, moments_1d, 1)
        assert report.rate == "sqrt_t"
        assert report.upper_const <= 1.25 * report.lower_const
        assert report.lower_const > 0.1 * abs(moments_1d.p_moment)
        assert not report.vacuous_lower

    def test_scaling_of_constants(self, trace_1d_exact, moments_1d):
        tripled = synthetic_trace(trace_1d_exact.times, 9.0 * trace_1d_exact.norms_sq)
        base = sandwich_report(trace_1d_exact, moments_1d, 1)
        big = sandwich_report(tripled, moments_1d, 1)
        assert big.lower_const == pytest.approx(3.0 * base.lower_const, rel=1e-12)
        assert big.upper_const == pytest.approx(3.0 * base.upper_const, rel=1e-12)

    def test_vacuous_lower_flag(self, trace_1d_exact, moments_1d):
        massless = MomentDecomposition(
            p_moment=0.0,
            gamma_exp=1.0,
            weighted_norm=moments_1d.weighted_norm,
            m_constant=moments_1d.m_constant,
            l1=moments_1d.l1,
        )
        report = sandwich_report(trace_1d_exact, massless, 1)
        assert report.vacuous_lower

    def test_rate_2d(self, trace_2d, moments_2d):
        report = sandwich_report(trace_2d, moments_2d, 2)
        assert report.rate == "sqrt_log_t"
        assert report.lower_const > 0

    def test_rejects_high_dimension(self, trace_3d, moments_1d):
        with pytest.raises(InputDomainError):
            sandwich_report(trace_3d, moments_1d, 3)


class TestExports:
    def test_fit_json(self, trace_1d_exact, tmp_path):
        import json

        report = classify_growth(trace_1d_exact, 1)
        path = tmp_path / "fits.json"
        write_fit_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["verdict"] == "power"
        assert payload["power"]["model"] == "power"

    def test_sandwich_csv_monotone_axis(self, trace_1d_exact, moments_1d, tmp_path):
        report = sandwich_report(trace_1d_exact, moments_1d, 1)
        path = tmp_path / "ratio.csv"
        write_sandwich_csv(report, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"t,norm_over_sqrt_t"
        xs = [float(line.split(b",")[0]) for line in lines[1:] if line]
        assert xs == sorted(xs)
