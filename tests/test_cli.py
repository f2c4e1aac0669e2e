import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from rosenau import GridField, InputDomainError, geometric_times
from rosenau.cli import ExperimentConfig, default_config, main, run_experiment
from rosenau.records import replace


def digests(folder: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(folder).iterdir())
    }


class TestConfig:
    def test_default_config_round_trips_through_yaml(self):
        blob = yaml.safe_dump(default_config("theorem-1-1"))
        cfg = ExperimentConfig.from_dict(yaml.safe_load(blob))
        assert cfg.preset == "theorem-1-1"
        assert cfg.params.dim == 1
        assert cfg.quadrature.mode == "exact-adaptive"

    @pytest.mark.parametrize("mode", ["exact-adaptive", "oscillation-averaged"])
    def test_quadrature_mode_names_the_one_path(self, mode):
        cfg = ExperimentConfig.from_dict({"preset": "custom", "quadrature": {"mode": mode}})
        assert cfg.quadrature.mode == "exact-adaptive"

    def test_unknown_quadrature_mode_rejected(self):
        with pytest.raises(InputDomainError, match="quadrature mode"):
            ExperimentConfig.from_dict({"preset": "custom", "quadrature": {"mode": "fast"}})

    def test_unknown_preset_rejected(self):
        with pytest.raises(InputDomainError):
            ExperimentConfig.from_dict({"preset": "bogus"})

    def test_preset_constraints_enforced(self):
        with pytest.raises(InputDomainError, match="theta = 1"):
            ExperimentConfig.from_dict(
                {"preset": "hardy-failure", "params": {"theta": 2.0}}
            )
        with pytest.raises(InputDomainError, match="dim = 1"):
            ExperimentConfig.from_dict({"preset": "theorem-1-1", "params": {"dim": 2}})

    def test_bad_window_rejected(self):
        with pytest.raises(InputDomainError):
            ExperimentConfig.from_dict(
                {"preset": "custom", "t_window": {"t_min": 10.0, "t_max": 5.0}}
            )

    @pytest.mark.parametrize("key", ["t_min", "t_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, key, value):
        window = {"t_min": 1e2, "t_max": 1e4, "points_per_decade": 4, key: value}
        with pytest.raises(InputDomainError, match="t_window"):
            ExperimentConfig.from_dict({"preset": "custom", "t_window": window})

    def test_unknown_key_rejected(self):
        with pytest.raises(InputDomainError, match="t_windw"):
            ExperimentConfig.from_dict({"preset": "custom", "t_windw": {"t_min": 1.0}})
        with pytest.raises(InputDomainError, match="params.dimm"):
            ExperimentConfig.from_dict({"preset": "custom", "params": {"dimm": 2}})

    @pytest.mark.parametrize("value", [0, -3, 2.5, float("nan"), True, "4"])
    def test_bad_points_per_decade_rejected(self, value):
        window = {"t_min": 1e2, "t_max": 1e4, "points_per_decade": value}
        with pytest.raises(InputDomainError, match="points_per_decade"):
            ExperimentConfig.from_dict({"preset": "custom", "t_window": window})

    @pytest.mark.parametrize("value", [12, 12.0, np.int64(12)])
    def test_whole_points_per_decade_accepted(self, value):
        window = {"t_min": 1e2, "t_max": 1e4, "points_per_decade": value}
        cfg = ExperimentConfig.from_dict({"preset": "custom", "t_window": window})
        assert cfg.t_window == (1e2, 1e4, 12)
        assert type(cfg.t_window[2]) is int

    @pytest.mark.parametrize(
        "args", [(0.0, 1e3, 4), (1e3, 1e2, 4), (1e2, 1e3, 0), (1e2, 1e3, -2)]
    )
    def test_geometric_times_rejects_bad_window(self, args):
        with pytest.raises(InputDomainError):
            geometric_times(*args)

    @pytest.mark.parametrize("points_per_decade", [10**9, 1e300])
    def test_window_sample_count_bounded_before_allocation(self, monkeypatch, capsys, points_per_decade):
        # 10^9 points per decade over 1e2..1e6 would be 4e9 samples (32 GB)
        def no_allocation(*args, **kwargs):
            raise AssertionError("np.geomspace was asked for the samples")

        monkeypatch.setattr(np, "geomspace", no_allocation)
        window = {"t_min": 1e2, "t_max": 1e6, "points_per_decade": points_per_decade}
        with pytest.raises(InputDomainError, match="t_window: .* more than 10000 samples"):
            ExperimentConfig.from_dict({"preset": "custom", "t_window": window})
        argv = ["norm-growth", "--t-max", "1e6", "--points-per-decade", "1000000000"]
        assert main(argv) == 2
        assert "more than 10000 samples" in capsys.readouterr().err

    def test_other_datum_takes_its_own_keywords(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"data": {"name": "compact-band", "r_lo": 0.0, "r_hi": 0.5}}
        )
        assert cfg.data_spec == {"name": "compact-band", "r_lo": 0.0, "r_hi": 0.5}

    def test_a_gaussian_velocity_datum_carries_its_physical_profile(self):
        from rosenau import data_from_spec, gaussian_profile

        r = np.linspace(0.0, 4.0, 33)
        for dim in (1, 2, 3):
            profile = data_from_spec("gaussian", dim, a=2.0, amplitude=3.0).velocity_profile
            expected = gaussian_profile(dim, 2.0, 3.0)
            assert (profile.dim, profile.tail, profile.kinks) == (dim, expected.tail, expected.kinks)
            for name in ("func", "deriv", "second_deriv"):
                np.testing.assert_array_equal(getattr(profile, name)(r), getattr(expected, name)(r))
        assert data_from_spec("gaussian-u0", 2).velocity_profile is None
        assert data_from_spec("compact-band", 2, r_lo=0.5, r_hi=2.0).velocity_profile is None

    def test_retired_datum_is_an_unknown_spec(self, capsys, tmp_path):
        cfg_path = tmp_path / "annular.yaml"
        cfg_path.write_text(f"data: {{name: annular-bump}}\noutput_dir: {tmp_path / 'out'}\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: unknown data spec 'annular-bump'")
        assert "['compact-band', 'gaussian', 'gaussian-u0']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma", [0.6, 1.0])
    def test_the_configured_moment_exponent_is_the_one_used(self, monkeypatch, tmp_path, gamma):
        # a 1-D run decomposes its datum with the configured gamma, not a floor of it
        from rosenau import moments

        used = []
        from_profile = moments.MomentDecomposition.from_profile.__func__

        def recorded(cls, u1, gamma_exp, xi_grid=None):
            used.append(gamma_exp)
            return from_profile(cls, u1, gamma_exp, xi_grid)

        monkeypatch.setattr(moments.MomentDecomposition, "from_profile", classmethod(recorded))
        cfg = ExperimentConfig.from_dict(
            {
                "preset": "theorem-1-1",
                "gamma_moment": gamma,
                "t_window": {"t_min": 1e2, "t_max": 1e3, "points_per_decade": 10},
                "output_dir": str(tmp_path / "out"),
            }
        )
        run_experiment(cfg)
        assert used == [gamma]

    def test_print_default_config_flag(self, capsys):
        assert main(["--print-default-config", "prop-4-1"]) == 0
        out = capsys.readouterr().out
        parsed = yaml.safe_load(out)
        assert parsed["preset"] == "prop-4-1"
        assert parsed["params"]["dim"] == 3


class TestRunners:
    def test_wellposed_probe_amplitudes_are_the_seeded_draws(self):
        from rosenau.cli import _PROBE_COEFFS

        rng = np.random.default_rng(12345)
        draws = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(_PROBE_COEFFS, draws)

    def test_energy_conservation_preset(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"preset": "energy-conservation", "output_dir": str(tmp_path / "e")}
        )
        result = run_experiment(cfg)
        assert result.exit_code == 0
        verdict = json.loads((tmp_path / "e" / "verdict.json").read_text())
        assert verdict["all_passed"]
        assert verdict["checks"]["radial_energy_drift"]["value"] <= 1e-10
        assert verdict["checks"]["grid_energy_drift"]["value"] <= 1e-8

    def test_grid_energy_check_sees_the_position_datum(self, monkeypatch, tmp_path):
        # a sign error in the -f sin(tf) u0_hat term of the velocity, built
        # from two correct evolutions by linearity: u from (u0, u1), u_t
        # from (-u0, u1); the check must fail on it
        from rosenau import cli

        evolve = cli.evolve_grid_times

        def flipped(params, field0, field1, times, with_velocity=False):
            mirror = replace(field0, values=-field0.values)
            states = evolve(params, field0, field1, times, with_velocity=True)
            mirrored = evolve(params, mirror, field1, times, with_velocity=True)
            return ((u, u_t) for (u, _), (_, u_t) in zip(states, mirrored))

        monkeypatch.setattr(cli, "evolve_grid_times", flipped)
        cfg = ExperimentConfig.from_dict(
            {"preset": "energy-conservation", "output_dir": str(tmp_path / "e")}
        )
        result = run_experiment(cfg)
        assert result.exit_code == 1
        assert not result.checks["grid_energy_drift"]["passed"]
        assert result.checks["radial_energy_drift"]["passed"]

    def test_wellposed_preset(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"preset": "wellposed-check", "output_dir": str(tmp_path / "w")}
        )
        result = run_experiment(cfg)
        assert result.exit_code == 0
        assert (tmp_path / "w" / "h_ratio.csv").exists()

    def test_wellposed_preset_records_an_endpoint_short_of_its_limit(self, capsys, tmp_path):
        # at theta = 0.1 the ratio at r = 1e-6 is 1/(1 + 1e-6^0.2) = 0.9406,
        # 6% short of its limit 1: the library returns it, and the runner
        # records all four checks, failing the endpoint one
        config = tmp_path / "c.yaml"
        config.write_text(f"preset: wellposed-check\nparams: {{theta: 0.1}}\noutput_dir: {tmp_path / 'w'}\n")
        assert main(["run", str(config)]) == 1
        checks = json.loads((tmp_path / "w" / "verdict.json").read_text())["checks"]
        assert sorted(checks) == [
            "dissipativity_residual",
            "h_ratio_endpoints",
            "h_ratio_infimum_positive",
            "sobolev_equivalence_order",
        ]
        assert not checks["h_ratio_endpoints"]["passed"]
        assert checks["h_ratio_endpoints"]["value"][0] == pytest.approx(0.94064905689911, rel=1e-12)
        assert checks["h_ratio_infimum_positive"]["passed"]

    def test_hardy_preset(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"preset": "hardy-failure", "output_dir": str(tmp_path / "h")}
        )
        result = run_experiment(cfg)
        assert result.exit_code == 0
        checks = result.checks
        assert checks["a1_weight_unbounded"]["passed"]
        assert checks["energy_identity_residual"]["value"] <= 1e-8
        # 1/2 ||u(1e3)||^2 = 3.2343 against the accumulated energy 13.4192
        assert checks["half_norm_below_identity_lhs"]["value"] == pytest.approx(0.24102, rel=1e-4)
        assert checks["half_norm_below_identity_lhs"]["threshold"] == 1.0

    def test_hardy_preset_on_a_zero_datum(self, tmp_path):
        # both sides of the identity vanish; the norm-to-energy ratio reads 0
        cfg = ExperimentConfig.from_dict(
            {"preset": "hardy-failure", "data": {"name": "gaussian", "amplitude": 0.0}, "output_dir": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.exit_code == 0
        assert result.checks["half_norm_below_identity_lhs"]["value"] == 0.0

    def test_the_rellich_limit_is_the_recorded_threshold(self, monkeypatch, tmp_path):
        # a Rellich quotient just above the recorded 0.6464 fails its check
        from rosenau import hardy

        monkeypatch.setattr(hardy, "rellich_quotient", lambda u: 0.6464000000000001)
        cfg = ExperimentConfig.from_dict({"preset": "hardy-failure", "output_dir": str(tmp_path)})
        result = run_experiment(cfg)
        assert result.exit_code == 1
        assert result.checks["rellich_gaussian_5d"]["threshold"] == 0.6464
        assert not result.checks["rellich_gaussian_5d"]["passed"]

    @pytest.mark.parametrize("preset", ["theorem-1-1", "hardy-failure", "energy-conservation", "wellposed-check"])
    def test_the_datum_is_built_once_per_run(self, monkeypatch, tmp_path, preset):
        from rosenau import cli

        calls = []
        _counted(monkeypatch, cli, "data_from_spec", calls)
        cfg = ExperimentConfig.from_dict({"preset": preset, "output_dir": str(tmp_path)})
        run_experiment(cfg)
        assert calls == ["data_from_spec"]

    def test_growth_preset_reduced_window(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "preset": "theorem-1-1",
                "t_window": {"t_min": 1e2, "t_max": 1e5, "points_per_decade": 8},
                "output_dir": str(tmp_path / "g"),
            }
        )
        result = run_experiment(cfg)
        assert result.exit_code == 0
        assert result.checks["power_exponent"]["passed"]
        trace_csv = (tmp_path / "g" / "norm_trace.csv").read_bytes()
        assert trace_csv.startswith(b"t,norm_sq,band_low,band_mid,band_high,energy\r\n")

    def test_cli_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(
            yaml.safe_dump(
                {
                    "preset": "energy-conservation",
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "verdict.json").exists()

    def test_cli_dispersion_subcommand(self, capsys):
        assert main(["dispersion", "--r", "0.5", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"][1]["f"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
    def test_cli_dispersion_at_the_origin(self, theta, capsys):
        # f'(0) = sqrt(kappa); f''(0) = -delta sqrt(kappa) at theta = 1/2, 0
        # above it and unbounded below it; r = 1e-8 reads close to both
        flags = ["--delta", "0.7", "--mu", "1.3", "--kappa", "2.1", "--theta", str(theta)]
        code = main(["dispersion", *flags, "--r", "0", "1e-8"])
        if theta < 0.5:
            assert code == 2
            assert "theta < 1/2" in capsys.readouterr().err
            return
        assert code == 0
        origin, near = json.loads(capsys.readouterr().out)["values"]
        assert origin["f_prime"] == math.sqrt(2.1)
        assert origin["f_second"] == pytest.approx(-0.7 * math.sqrt(2.1) if theta == 0.5 else 0.0, rel=1e-15)
        assert near["f_prime"] == pytest.approx(origin["f_prime"], rel=1e-7)
        assert near["f_second"] == pytest.approx(origin["f_second"], abs=1e-6)

    def test_cli_error_paths(self, capsys, tmp_path):
        assert main(["run"]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("preset: nonsense\n")
        assert main(["run", str(bad)]) == 2

    @pytest.mark.parametrize(
        "body,message",
        [
            ("t_windw: {t_min: 100.0}\n", "t_windw"),
            ("t_window: {points_per_decade: 0}\n", "points_per_decade"),
            ("data: {bogus: 3}\n", "bogus"),
            ("threads: 2\n", "threads"),
            ("preset: [custom]\n", "unknown preset"),
            ("params: {delta: abc}\n", "'params.delta'"),
            ("t_window: {t_min: abc}\n", "'t_window.t_min'"),
            ("sinc_threshold: abc\n", "'sinc_threshold'"),
            ("params: [1, 2]\n", "'params'"),
            ("params: {dim: 2.5}\n", "'params.dim'"),
            ("params: {dim: true}\n", "'params.dim'"),
            ("quadrature: {points_per_period: 8.7}\n", "'quadrature.points_per_period'"),
            ("quadrature: {points_per_period: 8}\n", "points_per_period"),
            ("quadrature: {r_max: abc}\n", "'quadrature.r_max'"),
            ("quadrature: fast\n", "'quadrature'"),
            ("t_window: 5\n", "'t_window'"),
            ("gamma_moment: null\n", "'gamma_moment'"),
            ("preset: prop-4-1\ngamma_moment: 1.5\n", "'gamma_moment' must lie in (0, 1]"),
            ("gamma_moment: 0.3\n", "'gamma_moment' must lie in (0.5, 1] at dim 1"),
            ("gamma_moment: 0.5\n", "'gamma_moment' must lie in (0.5, 1] at dim 1"),
            ("data: {name: gaussian, a: 0}\n", "gaussian rate a must be positive"),
            ("data: {name: gaussian-u0, a: -1}\n", "gaussian rate a must be positive"),
            ("params: {kappa: true}\n", "'params.kappa'"),
            ("data: {name: gaussian, a: abc}\n", "a must be a number"),
            ("params: {delta: [\n", "cannot read config"),
            # a preset whose runner never builds the datum still checks it
            ("preset: wellposed-check\ndata: {name: annular-bump}\n", "unknown data spec 'annular-bump'"),
            ("preset: wellposed-check\ndata: {name: [gaussian]}\n", "unknown data spec ['gaussian']"),
            ("preset: wellposed-check\ndata: {name: gaussian, b: 1}\n", "unexpected keyword argument 'b'"),
            ("preset: wellposed-check\ndata: {name: gaussian-u0, a: -1}\n", "gaussian rate a must be positive"),
            ("preset: wellposed-check\ndata: {name: compact-band, r_lo: 2, r_hi: 1}\n", "need 0 <= r_lo < r_hi"),
        ],
    )
    def test_cli_run_rejects_malformed_config(self, capsys, tmp_path, body, message):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(body + f"output_dir: {tmp_path / 'out'}\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data,key",
        [
            ("{name: compact-band, r_lo: 0.5, r_hi: .inf}", "r_hi"),
            ("{name: compact-band, r_lo: -.inf, r_hi: 1.0}", "r_lo"),
            ("{name: gaussian-u0, a: .inf}", "a"),
            ("{name: gaussian-u0, amplitude: .nan}", "amplitude"),
            ("{name: gaussian, amplitude: .inf}", "amplitude"),
        ],
    )
    def test_cli_run_rejects_non_finite_data_keywords(self, capsys, tmp_path, data, key):
        # a RuntimeWarning from the non-finite value would fail the run
        # under -W error::RuntimeWarning before any check could reject it
        cfg_path = tmp_path / "inf.yaml"
        cfg_path.write_text(f"preset: prop-4-1\ndata: {data}\noutput_dir: {tmp_path / 'out'}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"{key} must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_cli_run_rejects_missing_config_file(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "absent.yaml")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_output_dir_must_be_a_path(self):
        with pytest.raises(InputDomainError, match="'output_dir'"):
            ExperimentConfig.from_dict({"preset": "custom", "output_dir": 5})

    @pytest.mark.parametrize("dim", [2, 2.0, np.int64(2)])
    def test_whole_dim_accepted(self, dim):
        cfg = ExperimentConfig.from_dict({"preset": "custom", "params": {"dim": dim}})
        assert cfg.params.dim == 2 and type(cfg.params.dim) is int

    def test_prop_4_1_checks_only_the_datum_it_ran(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "preset": "prop-4-1",
                "data": {"name": "compact-band", "r_lo": 0.5, "r_hi": 1.0},
                "t_window": {"t_min": 1e2, "t_max": 1e3, "points_per_decade": 10},
                "output_dir": str(tmp_path / "p"),
            }
        )
        checks = run_experiment(cfg).checks
        # the envelope needs the physical profile, which a spectral band lacks
        assert "trace_below_envelope" not in checks
        assert "envelope_sandwich" not in checks
        assert checks["band_sum_matches_unsplit"]["passed"]

    def test_cli_run_rejects_nan_time(self, capsys, tmp_path):
        cfg_path = tmp_path / "nan.yaml"
        cfg_path.write_text(
            "preset: theorem-1-1\n"
            "t_window: {t_min: 100.0, t_max: .nan, points_per_decade: 4}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg_path)]) == 2
        assert "t_window" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


TRACE_PRESETS = ("theorem-1-1", "theorem-1-2", "prop-4-1")


def _counted(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that records each call in calls."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestTracePresetCalls:
    """A trace preset computes each quantity in one call and nothing that
    no check reads."""

    def _run(self, preset, tmp_path):
        cfg = ExperimentConfig.from_dict({"preset": preset, "output_dir": str(tmp_path)})
        result = run_experiment(cfg)
        assert result.exit_code == 0
        return cfg, result

    @pytest.mark.parametrize("preset,expected", zip(TRACE_PRESETS, (1, 2, 1)))
    def test_driver_calls(self, monkeypatch, tmp_path, preset, expected):
        # the trace and its band-sum check in one call; theorem-1-2 adds the
        # lower envelopes' tail terms
        from rosenau import bounds, norms

        calls = []
        for module in (norms, bounds):
            _counted(monkeypatch, module, "oscillatory_integrals", calls)
        self._run(preset, tmp_path)
        assert len(calls) == expected

    def test_prop_4_1_scans_no_moments(self, monkeypatch, tmp_path):
        from rosenau import moments

        def unread(*args, **kwargs):
            raise AssertionError("prop-4-1 reads no moment decomposition")

        monkeypatch.setattr(moments, "fluctuation", unread)
        monkeypatch.setattr(moments.MomentDecomposition, "from_profile", classmethod(unread))
        _, result = self._run("prop-4-1", tmp_path)
        assert result.checks["trace_below_envelope"]["passed"]
        assert result.checks["envelope_sandwich"]["passed"]

    @pytest.mark.parametrize("preset", TRACE_PRESETS[:2])
    def test_each_fit_once(self, monkeypatch, tmp_path, preset):
        from rosenau import growth

        calls = []
        for name in ("fit_power", "fit_log"):
            _counted(monkeypatch, growth, name, calls)
        self._run(preset, tmp_path)
        assert sorted(calls) == ["fit_log", "fit_power"]

    @pytest.mark.parametrize("preset", TRACE_PRESETS)
    def test_band_sum_check_reads_the_unsplit_rows_of_the_trace(self, tmp_path, preset):
        # the trace carries the unsplit norm at its ends, equal to what a
        # norm_squared call of its own gives, and the check's value is the
        # gap between it and the band sums
        from rosenau.norms import compute_norm_trace, norm_squared

        cfg, result = self._run(preset, tmp_path)
        params, quad, data = cfg.params, cfg.quadrature, cfg.data
        times = geometric_times(*cfg.t_window)
        trace = compute_norm_trace(params, data, times, quad, cfg.sinc)
        unsplit = norm_squared(params, data, times[[0, -1]], quad)
        np.testing.assert_array_equal(trace.unsplit, unsplit)
        ends = trace.norms_sq[[0, -1]]
        gap = float(np.max(np.abs(unsplit - ends) / np.abs(ends)))
        verdict = json.loads((tmp_path / "verdict.json").read_text())
        assert verdict["checks"]["band_sum_matches_unsplit"]["value"] == gap
        assert 0.0 < gap <= quad.rel_tol


class TestDeterminism:
    def test_energy_preset_repeat_invariance(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig.from_dict(
                {"preset": "energy-conservation", "output_dir": str(tmp_path / name)}
            )
            run_experiment(cfg)
            outs.append(digests(tmp_path / name))
        assert outs[0] == outs[1]

    def test_growth_preset_repeat_invariance(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig.from_dict(
                {
                    "preset": "theorem-1-1",
                    "t_window": {"t_min": 1e2, "t_max": 1e4, "points_per_decade": 8},
                    "output_dir": str(tmp_path / name),
                }
            )
            run_experiment(cfg)
            outs.append(digests(tmp_path / name))
        assert outs[0] == outs[1]

    def test_retired_mode_name_writes_identical_artifacts(self, tmp_path):
        outs = []
        for mode in ("exact-adaptive", "oscillation-averaged"):
            cfg = ExperimentConfig.from_dict(
                {
                    "preset": "theorem-1-2",
                    "t_window": {"t_min": 1e2, "t_max": 1e5, "points_per_decade": 4},
                    "quadrature": {"mode": mode},
                    "output_dir": str(tmp_path / mode),
                }
            )
            result = run_experiment(cfg)
            assert result.checks["band_sum_matches_unsplit"]["value"] <= 1e-10
            outs.append(digests(tmp_path / mode))
        assert outs[0] == outs[1]


class TestSubcommands:
    # four points per decade leave fewer samples than a fit needs, and the
    # custom preset reads no fit
    @pytest.mark.parametrize("points_per_decade", ["10", "4"])
    def test_norm_growth(self, capsys, tmp_path, points_per_decade):
        out = tmp_path / "n"
        argv = ["norm-growth", "--t-min", "100", "--t-max", "1000"]
        argv += ["--points-per-decade", points_per_decade]
        assert main(argv + ["--out", str(out)]) == 0
        assert (out / "norm_trace.csv").read_bytes().startswith(b"t,norm_sq,")
        assert json.loads((out / "verdict.json").read_text())["preset"] == "custom"

    @pytest.mark.parametrize(
        "command,dim,message",
        [
            ("norm-growth", 344, "the Gaussian tail bound overflows a float at dim 344"),
            ("prop-4-1", 344, "the Gaussian tail bound overflows a float at dim 344"),
            ("wellposed-check", 344, "r^(n-1) overflows a float on [0, 40] at dim 344"),
            ("wellposed-check", 400, "r^(n-1) overflows a float on [0, 40] at dim 400"),
        ],
    )
    def test_a_dimension_past_the_overflow_of_gamma_exits_2(self, capsys, tmp_path, command, dim, message):
        # Gamma(n/2) overflows a float from n = 344: the tail bound raises a
        # typed error there before any integrand is evaluated, and the
        # wellposed integrals raise one before their weight r^(n-1)
        # overflows on their partition; no numpy overflow warning comes
        # first, so the suite's -W error::RuntimeWarning run checks that too
        out = tmp_path / "out"
        if command == "norm-growth":
            argv = ["norm-growth", "--dim", str(dim), "--out", str(out)]
        else:
            cfg_path = tmp_path / "big.yaml"
            cfg_path.write_text(f"preset: {command}\nparams: {{dim: {dim}}}\noutput_dir: {out}\n")
            argv = ["run", str(cfg_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert message in error_line(capsys)

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norm-growth", "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bounds(self, capsys, tmp_path, dim):
        out = tmp_path / "b"
        assert main(["bounds", "--t", "1000", "--dim", str(dim), "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / "envelope.json").read_text())
        assert printed["t"] == 1000.0 and printed["upper"] > 0

    def test_hardy(self, capsys, tmp_path):
        assert main(["hardy", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "unbounded"
        assert (tmp_path / "quotient_vs_logR.csv").exists()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "weight", ["a1_weight", "abs_log_weight", "plain_abs", "constant_one", "abs_squared"]
    )
    def test_hardy_every_weight_and_dimension(self, capsys, tmp_path, weight, dim):
        argv = ["hardy", "--weight", weight, "--dim", str(dim), "--out", str(tmp_path)]
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        assert (printed["weight"], printed["dim"]) == (weight, dim)

    def test_hardy_rejects_unknown_weight(self, capsys, tmp_path):
        assert main(["hardy", "--weight", "bogus", "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_wellposed(self, capsys, tmp_path):
        assert main(["wellposed", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["m_lower"] > 0
        assert (tmp_path / "h_ratio.csv").exists()

    def test_wellposed_prints_endpoints_short_of_their_limits(self, capsys, tmp_path):
        # the subcommand reports the scan; it judges nothing
        assert main(["wellposed", "--theta", "0.1", "--out", str(tmp_path)]) == 0
        limits = json.loads(capsys.readouterr().out)["limits"]
        assert limits[0] == pytest.approx(0.94064905689911, rel=1e-12)

    def test_wellposed_rejects_zero_mu(self, capsys, tmp_path):
        assert main(["wellposed", "--mu", "0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_evolve_round_trip(self, capsys, tmp_path):
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 40.0, 64)
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 40.0, 64)
        bump.save(tmp_path / "u0.rgf")
        zero.save(tmp_path / "u1.rgf")
        argv = ["evolve", "--initial-position", str(tmp_path / "u0.rgf"),
                "--initial-velocity", str(tmp_path / "u1.rgf"), "--t", "0"]
        assert main(argv + ["--out", str(tmp_path / "u.rgf")]) == 0
        printed = json.loads(capsys.readouterr().out)
        back = GridField.load(tmp_path / "u.rgf")
        assert np.allclose(back.values, bump.values, atol=1e-14)
        assert printed["l2_norm"] == pytest.approx(bump.l2_norm(), rel=1e-12)

    def test_evolve_rejects_malformed_file(self, capsys, tmp_path):
        (tmp_path / "bad.rgf").write_bytes(b"rosenau-grid-field v1\ndim=1\n\n")
        argv = ["evolve", "--initial-position", str(tmp_path / "bad.rgf"),
                "--initial-velocity", str(tmp_path / "bad.rgf"), "--t", "1"]
        assert main(argv + ["--out", str(tmp_path / "u.rgf")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag,dim", [([], 2), (["--dim", "2"], 1)])
    def test_evolve_rejects_a_file_of_another_dimension(self, capsys, tmp_path, flag, dim):
        field = GridField.from_function(lambda *xs: np.exp(-sum(x**2 for x in xs)), dim, 20.0, 32)
        field.save(tmp_path / "u.rgf")
        argv = ["evolve", *flag, "--initial-position", str(tmp_path / "u.rgf"),
                "--initial-velocity", str(tmp_path / "u.rgf"), "--t", "1"]
        assert main(argv + ["--out", str(tmp_path / "v.rgf")]) == 2
        assert "params.dim and data.dim disagree" in capsys.readouterr().err
        assert not (tmp_path / "v.rgf").exists()


def error_line(capsys) -> str:
    """The one line a command that exits 2 writes to stderr."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


class TestOutputPaths:
    """An output path that cannot be created or written exits 2 with one
    error line naming it, and a run removes the directories it created."""

    def test_run_into_an_existing_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["run", "--preset", "wellposed-check", "--out", str(taken)]) == 2
        assert str(taken) in error_line(capsys)
        assert taken.read_text() == "kept\n"

    def test_run_removes_the_directories_it_created(self, capsys, tmp_path):
        out = tmp_path / "new" / ("x" * 300)
        assert main(["run", "--preset", "wellposed-check", "--out", str(out)]) == 2
        assert str(out) in error_line(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_run_into_an_unwritable_artifact(self, tmp_path):
        (tmp_path / "h_ratio.csv").mkdir()
        cfg = ExperimentConfig.from_dict({"preset": "wellposed-check", "output_dir": str(tmp_path)})
        with pytest.raises(InputDomainError, match="h_ratio.csv"):
            run_experiment(cfg)
        assert (tmp_path / "h_ratio.csv").is_dir()

    def test_hardy_below_a_file(self, capsys, tmp_path):
        (tmp_path / "F").write_text("")
        out = tmp_path / "F" / "x"
        assert main(["hardy", "--out", str(out)]) == 2
        assert str(out) in error_line(capsys)

    def test_bounds_into_an_existing_file(self, capsys, tmp_path):
        (tmp_path / "F").write_text("")
        assert main(["bounds", "--t", "100", "--out", str(tmp_path / "F")]) == 2
        assert str(tmp_path / "F") in error_line(capsys)

    def test_wellposed_into_an_existing_file(self, capsys, tmp_path):
        (tmp_path / "F").write_text("")
        assert main(["wellposed", "--out", str(tmp_path / "F")]) == 2
        assert str(tmp_path / "F") in error_line(capsys)

    def test_evolve_into_a_missing_directory(self, capsys, tmp_path):
        GridField.from_function(lambda x: np.exp(-(x**2)), 1, 20.0, 32).save(tmp_path / "u.rgf")
        out = tmp_path / "missing" / "dir" / "x.rgf"
        argv = ["evolve", "--initial-position", str(tmp_path / "u.rgf"),
                "--initial-velocity", str(tmp_path / "u.rgf"), "--t", "1", "--out", str(out)]
        assert main(argv) == 2
        assert str(out) in error_line(capsys)
        assert not (tmp_path / "missing").exists()
