import math
import warnings

import numpy as np
import pytest

from rosenau import (
    GridField,
    InputDomainError,
    ModelParams,
    RadialInitialData,
    TailBound,
    compact_band_data,
    eval_dispersion,
    evolve_grid,
    evolve_grid_times,
    gaussian_position_data,
    gaussian_velocity_data,
    norm_squared,
    total_energy,
    total_energy_grid,
)
from rosenau.evolution import propagator
from rosenau.model import dispersion_slope
from rosenau.records import replace

from conftest import full_spectrum_energy, full_spectrum_state, profile_data

P1 = ModelParams(1.0, 1.0, 1.0, 2.0, 1)
P2 = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
HEADER = b"rosenau-grid-field v1\ndim=1\nbox_length=10.0\nsamples_per_axis=16\n\n"
BODY = bytes(16 * 16)


def multipliers(params, t, r):
    """(cos(t f), sin(t f)/f) at radius r, as the radial and grid paths use them."""
    f = eval_dispersion(params, r)
    return np.cos(t * f), propagator(t, f)


def mode_box(r):
    """A box 16 pi / r long (any box for r = 0), and the Nyquist frequency
    |xi| of its 16-point grid, which is r up to rounding."""
    box = 16.0 * math.pi / r if r > 0 else 1.0
    return box, abs(float(2.0 * math.pi * np.fft.fftfreq(16, d=box / 16)[8 * (r > 0)]))


def evolve_mode(params, w0, w1, r, t):
    """(w(t), w_t(t)) of the Fourier mode |xi| = r, through evolve_grid.

    The mode is the alternating wave (-1)^k = e^(i r x_k) at the Nyquist
    frequency of mode_box(r) (a constant for r = 0): its DFT is exact, so no
    rounding reaches the zero mode, whose propagator grows like t.
    """
    box, _ = mode_box(r)
    wave = (-1.0) ** np.arange(16) if r > 0 else np.ones(16)
    field0 = GridField(1, box, 16, w0 * wave)
    field1 = GridField(1, box, 16, w1 * wave)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a box this short wraps at once
        u, v = evolve_grid(params, field0, field1, t, with_velocity=True)
    return complex(u.values[0]), complex(v.values[0])


def cosc(x):
    """(1 - cos x)/x^2, as 2 sin^2(x/2)/x^2 without cancellation, with its
    limit 1/2 at x = 0."""
    return 2.0 * math.sin(0.5 * x) ** 2 / x**2 if x else 0.5


def time_integral(params, w1, r, t):
    """Fourier transform of integral_0^t u(s) ds for w0 = 0: t^2 cosc(t f) w1."""
    return t * t * cosc(float(t * eval_dispersion(params, r))) * w1


class TestMultipliers:
    def test_zero_frequency(self):
        assert multipliers(P1, 5.0, 0.0) == (1.0, 5.0)

    def test_unit_radius_at_pi(self):
        c, s = multipliers(P1, math.pi, 1.0)
        assert c == pytest.approx(-1.0, abs=1e-12)
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_propagator_at_most_linear(self):
        r = np.geomspace(1e-8, 50.0, 400)
        for t in (0.5, 3.0, 40.0):
            _, prop = multipliers(P1, t, r)
            assert np.all(prop <= t * (1 + 1e-12))

    def test_propagator_approaches_linear_at_origin(self):
        _, prop = multipliers(P1, 2.0, 1e-9)
        assert prop == pytest.approx(2.0, rel=1e-12)


class TestEvolveMode:
    def test_initial_condition(self):
        w0, w1 = 0.3 + 0.1j, -0.2 + 0.5j
        w, wt = evolve_mode(P1, w0, w1, 1.7, 0.0)
        assert w == pytest.approx(w0, rel=1e-14)
        assert wt == pytest.approx(w1, rel=1e-14)

    def test_zero_frequency_linear_growth(self):
        w, _ = evolve_mode(P1, 0.0, 1.0, 0.0, 7.0)
        assert w == pytest.approx(7.0, rel=1e-14)

    @pytest.mark.parametrize("t", [1.0, 1e2, 1e6])
    def test_per_mode_energy_invariant(self, t):
        rng = np.random.default_rng(3)
        for _ in range(25):
            r = float(rng.uniform(0.01, 8.0))
            w0 = complex(rng.standard_normal(), rng.standard_normal())
            w1 = complex(rng.standard_normal(), rng.standard_normal())
            w, wt = evolve_mode(P1, w0, w1, r, t)
            r = mode_box(r)[1]  # the frequency the grid evolved
            d = 1 + P1.delta * r ** (2 * P1.theta)
            n = P1.mu * r**4 + P1.kappa * r**2
            before = d * abs(w1) ** 2 + n * abs(w0) ** 2
            after = d * abs(wt) ** 2 + n * abs(w) ** 2
            assert after == pytest.approx(before, rel=1e-12)

    def test_linearity(self):
        r = 0.8
        m1 = (0.4 - 0.3j, 1.1 + 0.2j)
        m2 = (-0.6 + 0.9j, 0.3 - 0.7j)
        a, b = 2.5 - 1.0j, -0.75 + 0.5j
        w_c, wt_c = evolve_mode(P1, a * m1[0] + b * m2[0], a * m1[1] + b * m2[1], r, 3.7)
        w_1, wt_1 = evolve_mode(P1, *m1, r, 3.7)
        w_2, wt_2 = evolve_mode(P1, *m2, r, 3.7)
        assert w_c == pytest.approx(a * w_1 + b * w_2, rel=1e-12)
        assert wt_c == pytest.approx(a * wt_1 + b * wt_2, rel=1e-12)

    def test_group_property(self):
        w0, w1, r = 0.5 + 0.25j, -0.3 + 0.8j, 1.3
        t1, s = 4.2, 9.1
        w_mid, wt_mid = evolve_mode(P1, w0, w1, r, t1)
        w_two, wt_two = evolve_mode(P1, w_mid, wt_mid, r, s)
        w_one, wt_one = evolve_mode(P1, w0, w1, r, t1 + s)
        assert w_two == pytest.approx(w_one, rel=1e-10)
        assert wt_two == pytest.approx(wt_one, rel=1e-10)


class TestTimeIntegral:
    def test_zero_frequency_limit(self):
        assert time_integral(P1, 1.0, 0.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_unit_radius_at_pi(self):
        assert time_integral(P1, 1.0, 1.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_time_derivative_matches_solution(self):
        r, t, h = 0.5, 10.0, 1e-4
        hi = time_integral(P1, 1.0, r, t + h)
        lo = time_integral(P1, 1.0, r, t - h)
        w, _ = evolve_mode(P1, 0.0, 1.0, r, t)
        assert (hi - lo) / (2 * h) == pytest.approx(w, rel=1e-6)


class TestGridField:
    def test_validation(self):
        with pytest.raises(InputDomainError):
            GridField(1, 10.0, 12, np.zeros(12, dtype=complex))  # not power of two >= 16
        with pytest.raises(InputDomainError):
            GridField(2, 10.0, 16, np.zeros(16, dtype=complex))  # shape mismatch

    def test_roundtrip_serialization(self, tmp_path):
        field = GridField.from_function(lambda x: np.exp(-(x**2)) + 0.3j * x, 1, 50.0, 64)
        path = tmp_path / "field.rgf"
        field.save(path)
        back = GridField.load(path)
        assert back.dim == 1 and back.box_length == 50.0 and back.samples_per_axis == 64
        assert np.array_equal(back.values, field.values)

    def test_real_samples_stay_real(self, tmp_path):
        real = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 50.0, 64)
        assert real.values.dtype == np.float64
        assert GridField(1, 50.0, 16, np.arange(16)).values.dtype == np.float64
        path = tmp_path / "real.rgf"
        real.save(path)
        # the file stores re/im pairs either way, and reads back real
        assert len(path.read_bytes().partition(b"\n\n")[2]) == 16 * 64
        back = GridField.load(path)
        assert back.values.dtype == np.float64 and np.array_equal(back.values, real.values)

    def test_complex_samples_stay_complex(self, tmp_path):
        field = GridField.from_function(lambda x: np.exp(-(x**2)) * (1.0 + 0.0j), 1, 50.0, 64)
        assert field.values.dtype == np.complex128
        path = tmp_path / "complex.rgf"
        GridField(1, 50.0, 16, np.full(16, 1e-300j)).save(path)
        assert GridField.load(path).values.dtype == np.complex128

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field\n\n123")
        with pytest.raises(InputDomainError):
            GridField.load(path)

    @pytest.mark.parametrize(
        "blob",
        [
            None,  # missing file
            HEADER + BODY[:-8],  # truncated body
            HEADER.replace(b"dim=1\n", b"") + BODY,
            HEADER.replace(b"samples_per_axis=16", b"samples_per_axis=x") + BODY,
            HEADER.replace(b"dim=1", b"dim 1") + BODY,
            HEADER[:-1] + BODY,  # no blank line after the header
            HEADER.replace(b"dim=1\n", b"dim=1\nlabel=\xc3\xa9\n") + BODY,
            HEADER.replace(b"box_length=10.0", b"box_length=nan") + BODY,
        ],
        ids=["missing", "truncated", "no-dim", "bad-count", "no-equals",
             "no-blank-line", "non-ascii", "nan-box"],
    )
    def test_load_rejects_malformed_file(self, tmp_path, blob):
        path = tmp_path / "field.rgf"
        if blob is not None:
            path.write_bytes(blob)
        with pytest.raises(InputDomainError):
            GridField.load(path)

    def test_load_accepts_what_save_writes(self, tmp_path):
        path = tmp_path / "field.rgf"
        path.write_bytes(HEADER + BODY)
        assert GridField.load(path).values.shape == (16,)


class TestEvolveGrid:
    def test_time_zero_roundtrip(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 100.0, 128)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 100.0, 128)
        out = evolve_grid(P1, bump, zero, 0.0)
        assert np.max(np.abs(out.values - bump.values)) <= 1e-12

    def test_real_data_stay_real(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 100.0, 512)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 100.0, 512)
        out = evolve_grid(P1, zero, bump, 5.0)
        assert np.max(np.abs(out.values.imag)) <= 1e-12 * np.max(np.abs(out.values.real))

    def test_matches_radial_path_for_gaussian(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 200.0, 4096)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 200.0, 4096)
        grid_norm_sq = evolve_grid(P1, zero, bump, 10.0).l2_norm() ** 2
        radial = norm_squared(P1, gaussian_velocity_data(1), 10.0)
        assert grid_norm_sq == pytest.approx(radial, rel=1e-3)

    def test_constant_field_zero_mode_growth(self):
        c, t, box = 0.5, 7.0, 200.0
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, box, 64)
        const = GridField.from_function(lambda x: np.full_like(x, c), 1, box, 64)
        out = evolve_grid(P1, zero, const, t)
        assert out.l2_norm() == pytest.approx(c * t * math.sqrt(box), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        a = GridField.from_function(lambda x: np.zeros_like(x), 1, 100.0, 64)
        b = GridField.from_function(lambda x: np.zeros_like(x), 1, 100.0, 128)
        with pytest.raises(InputDomainError):
            evolve_grid(P1, a, b, 1.0)

    @pytest.mark.parametrize("params,dim", [(P2, 1), (P1, 2)])
    def test_dimension_mismatch_rejected(self, params, dim):
        field = GridField.from_function(lambda *xs: np.exp(-sum(x**2 for x in xs)), dim, 20.0, 32)
        with pytest.raises(InputDomainError, match="params.dim and data.dim disagree"):
            evolve_grid_times(params, field, field, [1.0])

    def test_wraparound_warning(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 20.0, 64)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 20.0, 64)
        with pytest.warns(UserWarning, match="wrap-around"):
            evolve_grid(P1, zero, bump, 1e4)


class TestEvolveGridTimes:
    @pytest.mark.parametrize("with_velocity", [False, True])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_state_equals_evolve_grid_at_its_time(self, dim, with_velocity):
        size = 256 if dim == 1 else 32
        u0 = GridField.from_function(lambda *xs: np.exp(-sum(x**2 for x in xs)), dim, 20.0, size)
        u1 = GridField.from_function(lambda *xs: xs[0] * np.exp(-sum(x**2 for x in xs)), dim, 20.0, size)
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        times = [0.0, 0.5, 2.0, 3.0]
        states = list(evolve_grid_times(params, u0, u1, times, with_velocity=with_velocity))
        assert len(states) == len(times)
        for t, state in zip(times, states):
            alone = evolve_grid(params, u0, u1, t, with_velocity=with_velocity)
            if with_velocity:
                assert np.array_equal(state[0].values, alone[0].values)
                assert np.array_equal(state[1].values, alone[1].values)
            else:
                assert np.array_equal(state.values, alone.values)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_one_datum_as_both_matches_a_copy(self, complex_field):
        # one field passed as both data is transformed once, and its states
        # and energies are those of the same call with a copy as velocity
        bump = lambda x, y: np.exp(-(x**2) - 2.0 * y**2)  # noqa: E731
        shape = (lambda x, y: bump(x, y) * (1.0 + 0.5j * x)) if complex_field else bump
        u0 = GridField.from_function(shape, 2, 20.0, 32)
        copy = replace(u0, values=u0.values.copy())
        times = [0.0, 0.5, 2.0]
        shared = list(evolve_grid_times(P2, u0, u0, times, with_velocity=True))
        apart = list(evolve_grid_times(P2, u0, copy, times, with_velocity=True))
        for (u, u_t), (v, v_t) in zip(shared, apart):
            assert np.array_equal(u.values, v.values)
            assert np.array_equal(u_t.values, v_t.values)
        energies = total_energy_grid(P2, [(u0, u0), *shared])
        assert np.array_equal(energies, total_energy_grid(P2, [(u0, copy), *apart]))

    def test_wraparound_warns_for_exactly_the_times_past_the_window(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 20.0, 64)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 20.0, 64)
        rho = np.abs(2.0 * math.pi * np.fft.fftfreq(64, d=20.0 / 64))
        window = 20.0 / (2.0 * np.max(np.abs(dispersion_slope(P1, rho[rho > 0])[1])))
        times = [0.0, 0.5 * window, window, 2.0 * window, 0.9 * window, 1e4]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            states = evolve_grid_times(P1, zero, bump, times)
        warned = [str(w.message) for w in caught]
        assert warned == [
            f"t = {t} exceeds the wrap-around window {window:.6g} of this box"
            for t in (window, 2.0 * window, 1e4)
        ]
        assert all(w.filename == __file__ for w in caught)
        assert len(list(states)) == len(times)

    def test_rejects_any_bad_time_before_any_work(self):
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 20.0, 64)
        with pytest.raises(InputDomainError, match="finite and nonnegative"):
            evolve_grid_times(P1, bump, bump, [1.0, math.nan])
        with pytest.raises(InputDomainError, match="finite and nonnegative"):
            evolve_grid_times(P1, bump, bump, [-1.0, 2.0])

    def test_energy_preset_transforms_each_datum_once(self, monkeypatch, tmp_path):
        # a 2-D energy-conservation run: 2 forward transforms of the datum for
        # its energy and 2 for the evolution, then per time 2 inverse and 2
        # forward transforms for the state's energy; |xi|, f and the
        # wrap-around speed once
        from rosenau import evolution
        from rosenau.cli import ExperimentConfig, run_experiment

        counts = {"rfftn": 0, "irfftn": 0, "dispersion_slope": 0}

        def counted(name):
            original = getattr(evolution, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(evolution, name, counted(name))
        cfg = ExperimentConfig.from_dict(
            {"preset": "energy-conservation", "params": {"dim": 2}, "output_dir": str(tmp_path)}
        )
        assert run_experiment(cfg).exit_code == 0
        assert counts["rfftn"] + counts["irfftn"] <= 16
        assert counts["dispersion_slope"] == 1


def gaussian_pair(dim, size, box=20.0):
    """Real data on a box: an anisotropic Gaussian and x1 times a Gaussian."""
    u0 = GridField.from_function(
        lambda *xs: np.exp(-sum((i + 1) * x**2 for i, x in enumerate(xs))), dim, box, size
    )
    u1 = GridField.from_function(lambda *xs: xs[0] * np.exp(-sum(x**2 for x in xs)), dim, box, size)
    return u0, u1


class TestHalfSpectrumOracle:
    """The real half-spectrum box path against complex fftn/ifftn over the
    full spectrum (conftest.full_spectrum_state and full_spectrum_energy)."""

    @pytest.mark.parametrize("dim, size", [(1, 256), (2, 64), (3, 16)])
    def test_real_states_and_energies_match_the_full_spectrum(self, dim, size):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        u0, u1 = gaussian_pair(dim, size)
        times = [0.0, 0.7, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 3-D box is short
            states = list(evolve_grid_times(params, u0, u1, times, with_velocity=True))
        energies = total_energy_grid(params, [(u0, u1)] + states)
        expected = full_spectrum_energy(params, u0, u0.values, u1.values)
        assert energies[0] == pytest.approx(expected, rel=1e-13)
        for t, (u, u_t), energy in zip(times, states, energies[1:]):
            ref, ref_t = full_spectrum_state(params, u0, u1, t)
            for got, want in ((u, ref), (u_t, ref_t)):
                assert got.values.dtype == np.float64
                assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(want))
            assert energy == pytest.approx(full_spectrum_energy(params, u0, ref, ref_t), rel=1e-13)

    @pytest.mark.parametrize("dim, size", [(1, 256), (2, 64), (3, 16)])
    def test_complex_datum_evolves_as_its_parts_apart(self, dim, size):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        a, b = gaussian_pair(dim, size)
        c = replace(a, values=a.values[::-1].copy())
        z0 = replace(a, values=a.values + 1j * b.values)
        z1 = replace(a, values=c.values - 0.5j * a.values)
        im1 = replace(a, values=-0.5 * a.values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u, u_t = evolve_grid(params, z0, z1, 1.3, with_velocity=True)
            re, re_t = evolve_grid(params, a, c, 1.3, with_velocity=True)
            im, im_t = evolve_grid(params, b, im1, 1.3, with_velocity=True)
            # a real datum beside a complex one: its imaginary part is 0
            mixed = evolve_grid(params, a, replace(a, values=c.values + 0j), 1.3)
        assert u.values.dtype == u_t.values.dtype == np.complex128
        assert np.array_equal(u.values.real, re.values) and np.array_equal(u.values.imag, im.values)
        assert np.array_equal(u_t.values.real, re_t.values) and np.array_equal(u_t.values.imag, im_t.values)
        assert np.array_equal(mixed.values, re.values + 0j)
        energy, energy_re, energy_im = (
            total_energy_grid(params, [state])[0] for state in ((u, u_t), (re, re_t), (im, im_t))
        )
        assert energy == pytest.approx(energy_re + energy_im, rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("column", ["zero", "nyquist"])
    def test_energy_on_one_self_mirrored_column(self, dim, column):
        # the xi_last = 0 and Nyquist columns count once; the others twice
        size = 16
        params = ModelParams(1.0, 0.5, 2.0, 1.5, dim)
        rng = np.random.default_rng(dim)
        last = np.ones(size) if column == "zero" else (-1.0) ** np.arange(size)
        u, u_t = (
            GridField(dim, 10.0, size, rng.standard_normal((size,) * (dim - 1) + (1,)) * last)
            for _ in range(2)
        )
        hat = np.fft.fftn(u.values)
        assert np.all(hat[..., 1 : size // 2] == 0) and np.all(hat[..., size // 2 + 1 :] == 0)
        energy = total_energy_grid(params, [(u, u_t)])[0]
        assert energy == pytest.approx(full_spectrum_energy(params, u, u.values, u_t.values), rel=1e-13)


class TestRadialInitialData:
    """Construction rejects densities that no datum has, at the probe radii."""

    def test_a_density_past_its_compact_cutoff(self):
        # accepted before, norm_squared then read 14.687 against 14.990 at t = 10
        with pytest.raises(InputDomainError, match="past its compact cutoff"):
            replace(gaussian_velocity_data(1), w1_tail=TailBound(kind="compact", cutoff=1.0))

    def test_a_negative_density(self):
        base = gaussian_velocity_data(1)
        with pytest.raises(InputDomainError, match="nonnegative"):
            replace(base, w1_sq=lambda r: -base.w1_sq(r))

    def test_a_complex_density(self):
        base = gaussian_velocity_data(1)
        with pytest.raises(InputDomainError, match="real"):
            replace(base, w1_sq=lambda r: base.w1_sq(r) + 0j)

    def test_a_cross_density_above_cauchy_schwarz(self):
        base = gaussian_velocity_data(1)
        both = replace(base, w0_sq=base.w1_sq, w0_tail=base.w1_tail)
        assert replace(both, cross=lambda r: (1.0 + 1e-12) * base.w1_sq(r)).dim == 1
        with pytest.raises(InputDomainError, match="cross"):
            replace(both, cross=lambda r: -1.01 * base.w1_sq(r))

    def test_a_density_above_its_gaussian_tail(self):
        base = gaussian_velocity_data(1)
        with pytest.raises(InputDomainError, match="gaussian tail"):
            replace(base, w1_sq=lambda r: 1.01 * base.w1_sq(r))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("amplitude", [0.5, 3.0])
    def test_gaussian_densities_away_from_a_one(self, amplitude, a, dim):
        # the transform of A e^(-a |x|^2) is A (pi/a)^(n/2) e^(-r^2/(4a))
        r = np.linspace(0.0, 10.0, 101)
        hat = amplitude * (math.pi / a) ** (dim / 2.0) * np.exp(-(r**2) / (4.0 * a))
        for density in (gaussian_velocity_data(dim, a, amplitude).w1_sq,
                        gaussian_position_data(dim, a, amplitude).w0_sq):
            assert np.allclose(density(r), hat**2, rtol=1e-15, atol=0.0)

    def test_compact_band_density(self):
        r = np.linspace(0.0, 4.0, 401)
        inside = (r >= 0.5) & (r <= 2.0)
        density = compact_band_data(2, 0.5, 2.0, amplitude=3.0).w1_sq(r)
        assert np.array_equal(density, np.where(inside, 9.0, 0.0))


class TestEnergy:
    def test_gaussian_velocity_total_at_zero(self):
        # (1/2pi) int (1 + delta r^4) pi e^(-r^2/2) dr over the line = sqrt(pi/2) (1 + 3 delta)/2
        expected = 0.5 * math.sqrt(math.pi / 2) * (1.0 + 3.0 * P1.delta)
        assert total_energy(P1, gaussian_velocity_data(1), 0.0) == pytest.approx(expected, rel=1e-13)

    @staticmethod
    def gaussian_oracle(params):
        """E of u1 = e^(-|x|^2), u0 = 0: (1/2) pi^n (2 pi)^-n omega_n times
        [2^(n/2-1) Gamma(n/2) + delta 2^(theta+n/2-1) Gamma(theta+n/2)],
        the integrals of e^(-r^2/2) r^(n-1) (1 + delta r^(2 theta))."""
        from rosenau import unit_sphere_area

        n, half = params.dim, params.dim / 2.0
        moments = 2.0 ** (half - 1.0) * math.gamma(half) + params.delta * 2.0 ** (
            params.theta + half - 1.0
        ) * math.gamma(params.theta + half)
        return 0.5 * math.pi**n * (2.0 * math.pi) ** -n * unit_sphere_area(n) * moments

    def test_gaussian_oracle_matches_the_reference_energy(self):
        # the energy column of the 1-D benchmark reference reads 2.5066282746310002
        assert self.gaussian_oracle(P1) == pytest.approx(2.5066282746310002, rel=2e-16, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "cell", [(1.0, 1.0, 1.0, 2.0), (0.7, 1.3, 2.1, 1.5), (1.0, 1.0, 1.0, 0.1), (1.0, 1.0, 1.0, 0.25)]
    )
    def test_gaussian_energy_reads_delta_and_theta(self, cell, dim):
        # at t = 0 and at the 61 times of a 1e2..1e7 trace, against the
        # closed form, whose inertia term carries delta and theta; a small
        # theta makes the density's r^(2 theta) r^(n-1) steep at r = 0
        from rosenau import geometric_times

        params = ModelParams(*cell, dim)
        expected, data = self.gaussian_oracle(params), gaussian_velocity_data(dim)
        assert total_energy(params, data, 0.0) == pytest.approx(expected, rel=1e-13, abs=0.0)
        ts = geometric_times(1e2, 1e7, 12)
        assert ts.size == 61
        np.testing.assert_allclose(total_energy(params, data, ts), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("s", [0.1, 0.25])
    def test_a_density_rough_at_the_origin(self, s):
        # w1_sq = r^(2s) e^(-r^2) at theta = 2: the panel [0, 1] of the one
        # radial table is bisected towards r = 0, and within the depth cap
        # the energy at t = 0 matches its closed form
        # (1/(4 pi)) [Gamma(s + 1/2) + delta Gamma(s + 5/2)]
        data = RadialInitialData(
            1,
            w1_sq=lambda r: r ** (2.0 * s) * np.exp(-r * r),
            w1_tail=TailBound(kind="gaussian", amplitude=1.0, rate=0.25),
        )
        expected = (math.gamma(s + 0.5) + P1.delta * math.gamma(s + 2.5)) / (4.0 * math.pi)
        assert total_energy(P1, data, 0.0) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_panels_start_from_the_one_radial_table(self, monkeypatch):
        # [0, R] cut at the kinks and at 1 and 10, whatever theta: the one
        # table of quadrature.integrate_radial.  Every time is a row of the
        # one refinement
        from rosenau import quadrature

        tables = []
        refine = quadrature._kronrod_refine

        def recorded(fn, table, *args, **kwargs):
            tables.append(table)
            return refine(fn, table, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_kronrod_refine", recorded)
        ts = np.geomspace(1e2, 1e7, 61)
        energies = total_energy(P1, gaussian_velocity_data(1), ts)
        assert energies.shape == (61,)
        total_energy(P1, compact_band_data(1, 0.3, 2.5), 0.0)
        total_energy(P1, compact_band_data(1, 0.1, 0.5), 0.0)
        total_energy(ModelParams(1.0, 1.0, 1.0, 1.5, 1), gaussian_velocity_data(1), 0.0)
        total_energy(ModelParams(1.0, 1.0, 1.0, 0.1, 1), gaussian_velocity_data(1), 0.0)
        total_energy(ModelParams(1.0, 1.0, 1.0, 0.25, 2), compact_band_data(2, 0.3, 2.5), 0.0)
        radius = math.sqrt(80.0 / gaussian_velocity_data(1).w1_tail.rate)
        expected = [
            [0.0, 1.0, 10.0, radius],
            [0.0, 0.3, 1.0, 2.5],
            [0.0, 0.1, 0.5],
            [0.0, 1.0, 10.0, radius],
            [0.0, 1.0, 10.0, radius],
            [0.0, 0.3, 1.0, 2.5],
        ]
        assert len(tables) == len(expected)
        for table, edges in zip(tables, expected):
            assert [*table[0], table[1][-1]] == edges

    @pytest.mark.parametrize("t", [0.0, 1e3])
    @pytest.mark.parametrize(
        "params,band",
        [(P1, (0.3, 1.0)), (ModelParams(1.0, 1.0, 1.0, 1.0, 2), (0.3, 1.7))],
    )
    def test_compact_band_closed_form(self, params, band, t):
        # w1 = 1 on the band: E = (2 pi)^-n omega_n (1/2) int (1 + delta r^(2 theta)) r^(n-1) dr
        from rosenau import compact_band_data, unit_sphere_area

        n, lo, hi = params.dim, band[0], band[1]
        power = 2.0 * params.theta + n

        def primitive(r):
            return r**n / n + params.delta * r**power / power

        expected = unit_sphere_area(n) / (2.0 * math.pi) ** n * 0.5 * (primitive(hi) - primitive(lo))
        energy = total_energy(params, compact_band_data(n, lo, hi), t)
        assert energy == pytest.approx(expected, rel=1e-13)

    def test_band_edge_needs_its_kink(self):
        # without the kink at r_lo the jump is not resolved, and the integral raises
        from rosenau import IntegrabilityError, compact_band_data

        band = replace(compact_band_data(1, 0.3, 1.0), kinks=())
        with pytest.raises(IntegrabilityError):
            total_energy(P1, band, 0.0)

    @pytest.mark.parametrize("t", [1.0, 1e3, 1e6])
    def test_radial_conservation(self, t):
        data = gaussian_velocity_data(1)
        base = total_energy(P1, data, 0.0)
        now = total_energy(P1, data, t)
        assert abs(now - base) / base <= 1e-10

    @pytest.mark.parametrize("t", [1.0, 1e3])
    def test_radial_conservation_with_both_components(self, t):
        # complex w0 and w1 give a nonzero cross density, whose terms in
        # |w|^2 and |w_t|^2 must cancel against the others at every t
        g = lambda r: np.exp(-0.25 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
        data = profile_data(
            lambda r: (0.6 - 0.8j) * g(r), lambda r: (0.3 + 2.0j) * g(r), 1,
            TailBound(kind="gaussian", amplitude=1.0, rate=0.25),
            TailBound(kind="gaussian", amplitude=2.1, rate=0.25),
        )
        base = total_energy(P1, data, 0.0)
        assert abs(total_energy(P1, data, t) - base) / base <= 1e-10

    def test_an_uncertified_tail_raises(self):
        # a tail of kind "none" certifies no radius to cut the energy at
        from rosenau import TailBound, UncertifiedTailError

        data = replace(gaussian_velocity_data(1), w1_tail=TailBound(kind="none"))
        with pytest.raises(UncertifiedTailError):
            total_energy(P1, data, 0.0)

    def test_zero_data_zero_energy(self):
        from rosenau import compact_band_data

        data = compact_band_data(1, 0.0, 1.0, amplitude=0.0)
        assert total_energy(P1, data, 3.0) == 0.0

    def test_times_array_matches_scalar_calls(self):
        # one row-valued integral for the whole array, against one call per time
        from rosenau import compact_band_data

        ts = np.concatenate([[0.0], np.geomspace(1e-2, 1e8, 21)])
        cases = [
            (P1, gaussian_velocity_data(1)),
            (ModelParams(1.0, 1.0, 1.0, 1.0, 2), compact_band_data(2, 0.3, 1.7)),
            (ModelParams(0.5, 2.0, 4.0, 1.5, 3), gaussian_velocity_data(3)),
        ]
        for params, data in cases:
            energies = total_energy(params, data, ts)
            assert energies.shape == ts.shape
            for t, energy in zip(ts, energies):
                assert energy == pytest.approx(total_energy(params, data, t), rel=1e-15, abs=0.0)

    def test_times_array_rows_stay_within_the_row_bound(self, monkeypatch):
        # a trace's 61 energy rows are evaluated in blocks of the row bound
        from rosenau import evolution, quadrature

        sizes = []
        sine_over = evolution._sine_over

        def counted(t, f, phase, sine):
            sizes.append(np.shape(phase))
            return sine_over(t, f, phase, sine)

        monkeypatch.setattr(evolution, "_sine_over", counted)
        total_energy(P1, gaussian_velocity_data(1), np.geomspace(1e-2, 1e6, 61))
        assert sum(rows for rows, _ in sizes) > 61
        assert max(rows * nodes for rows, nodes in sizes) <= quadrature._ROW_BLOCK_VALUES

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_times_array_rejects_any_bad_time(self, bad):
        with pytest.raises(InputDomainError, match="finite and nonnegative"):
            total_energy(P1, gaussian_velocity_data(1), np.array([1.0, bad, 2.0]))

    def test_grid_energy_conservation(self):
        zero = GridField.from_function(lambda x: np.zeros_like(x), 1, 200.0, 1024)
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 200.0, 1024)
        states = [(zero, bump)] + [
            evolve_grid(P1, zero, bump, t, with_velocity=True) for t in (1.0, 5.0, 10.0)
        ]
        base, *evolved = total_energy_grid(P1, states)
        for now in evolved:
            assert abs(now - base) / base <= 1e-8

    def test_grid_energies_match_one_state_at_a_time(self):
        # one |xi| and its powers for all the states, against one call per state
        field = GridField.from_function(lambda x, y: np.exp(-(x**2) - 2.0 * y**2), 2, 30.0, 64)
        zero = GridField(2, 30.0, 64, np.zeros((64, 64)))
        states = [(field, zero), (zero, field), (field, field)]
        energies = total_energy_grid(P2, states)
        assert energies.shape == (3,)
        for state, energy in zip(states, energies):
            assert total_energy_grid(P2, [state]).tolist() == [energy]
        assert total_energy_grid(P2, []).shape == (0,)

    def test_grid_energies_reject_a_state_on_another_grid(self):
        a = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 100.0, 64)
        b = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 100.0, 128)
        with pytest.raises(InputDomainError):
            total_energy_grid(P1, [(a, a), (b, b)])
        with pytest.raises(InputDomainError):
            total_energy_grid(P1, [(a, b)])

    @pytest.mark.parametrize("params,dim", [(P2, 1), (P1, 2)])
    def test_grid_energies_reject_a_state_of_another_dimension(self, params, dim):
        field = GridField.from_function(lambda *xs: np.exp(-sum(x**2 for x in xs)), dim, 20.0, 32)
        with pytest.raises(InputDomainError, match="params.dim and data.dim disagree"):
            total_energy_grid(params, [(field, field)])


class TestPropagator:
    def test_limit_and_branches(self):
        from rosenau.evolution import propagator

        f = np.array([0.0, 1e-300, 1e-12, 1e-3, 0.5, 2.0])
        t = 7.0
        got = propagator(t, f)
        expected = np.array([t, t, t] + [math.sin(t * x) / x for x in f[3:]])
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        assert got.dtype == np.float64
        assert propagator(t, 0.0) == t
        assert propagator(t, 2.0) == pytest.approx(math.sin(14.0) / 2.0, rel=1e-15)
        assert np.all(propagator(0.0, f) == 0.0)

    def test_sinc_branches(self):
        # the program's sin(s)/s is 1 plus the 3-D radial kernel minus one,
        # its power series below |s| = 1
        from rosenau.moments import _kernel_minus_one

        x = np.array([0.0, 1e-9, -5e-9, 1e-8, 0.3, -2.0])
        expected = [1.0, 1.0 - 1e-18 / 6.0, 1.0 - 25e-18 / 6.0] + [
            math.sin(v) / v for v in x[3:]
        ]
        np.testing.assert_allclose(1.0 + _kernel_minus_one(3, x), expected, rtol=1e-15)
        assert 1.0 + _kernel_minus_one(3, 0.0) == 1.0
        assert 1.0 + _kernel_minus_one(3, 2.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-15)
        # below |s| = 1 the series keeps the relative accuracy of s^2 / 6
        np.testing.assert_allclose(_kernel_minus_one(3, x[1:3]), -x[1:3] ** 2 / 6.0, rtol=1e-15)


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_total_energy(self, t):
        with pytest.raises(InputDomainError, match="finite"):
            total_energy(P1, gaussian_velocity_data(1), t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_evolve_grid(self, t):
        bump = GridField.from_function(lambda x: np.exp(-(x**2)), 1, 20.0, 64)
        with pytest.raises(InputDomainError, match="finite"):
            evolve_grid(P1, bump, bump, t)
