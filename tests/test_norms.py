import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from rosenau import (
    GridField,
    InputDomainError,
    IntegrabilityError,
    ModelParams,
    QuadratureConfig,
    RadialInitialData,
    SincConstants,
    TailBound,
    UncertifiedTailError,
    band_split_norm,
    compact_band_data,
    evolve_grid,
    gaussian_position_data,
    gaussian_velocity_data,
    norm_squared,
    total_energy,
    total_energy_grid,
    write_norm_trace_csv,
)
from rosenau import model, norms
from rosenau.catalog import data_from_spec
from rosenau.norms import (
    DEFAULT_QUADRATURE,
    _norm_pieces,
    _physical_scale,
    _resolve_r_max,
    oscillation_segments,
)
from rosenau.quadrature import integrate_levin, panel_integrals
from rosenau.model import (
    band_boundaries,
    dispersion_derivatives,
    dispersion_expansion,
    eval_dispersion,
    unit_sphere_area,
)
from rosenau.records import replace

from conftest import (
    EXPANSION_CELLS,
    amplitude_sq,
    k21_refine,
    panels,
    partitions,
    phase_edges,
    profile_data,
    reference_pieces,
    reference_segments,
    segments_by_time,
)

P1 = ModelParams(1.0, 1.0, 1.0, 2.0, 1)
P2 = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
SINC = SincConstants()


def vect_sinc(x):
    """sin(x)/x with its x = 0 limit 1, for the oracle below."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nonzero = x != 0
    out[nonzero] = np.sin(x[nonzero]) / x[nonzero]
    return out


def brute_force_norm_sq(params, data, t, density=80, r_max=14.0):
    """Uniform-grid Simpson oracle, 10x the default per-period sampling."""
    probe = np.linspace(1e-9, r_max, 4000)
    fp, _ = dispersion_derivatives(params, probe)
    h = math.pi / (t * float(np.max(np.abs(fp))) * density)
    count = int(r_max / h)
    if count % 2 == 1:
        count += 1
    x = np.linspace(0.0, r_max, count + 1)
    f = eval_dispersion(params, x)
    c, p = np.cos(t * f), t * vect_sinc(t * f)
    w_sq = c * c * data.w0_sq(x) + p * p * data.w1_sq(x) + 2.0 * c * p * data.cross(x)
    y = w_sq * x ** (data.dim - 1)
    scale = unit_sphere_area(data.dim) / (2 * math.pi) ** data.dim
    return scale * simpson(y, x=x)


class TestNormSquared:
    def test_time_zero_is_datum_norm(self):
        # ||u0||^2 for u0 = e^{-x^2} in 1-D
        val = norm_squared(P1, gaussian_position_data(1), 0.0)
        assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-8)

    @pytest.mark.parametrize("t", [10.0, 1e3])
    def test_against_brute_force_1d(self, t):
        data = gaussian_velocity_data(1)
        mine = norm_squared(P1, data, t)
        oracle = brute_force_norm_sq(P1, data, t)
        assert mine == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("t", [10.0, 1e3])
    def test_against_brute_force_2d(self, t):
        data = gaussian_velocity_data(2)
        mine = norm_squared(P2, data, t)
        oracle = brute_force_norm_sq(P2, data, t)
        assert mine == pytest.approx(oracle, rel=1e-5)

    def test_low_band_plateau_floor(self):
        # w1 = 1 on the low band only: the sinc factor keeps at least t^2/4
        t = 10.0
        beta = band_boundaries(P1, SINC, t).beta
        data = compact_band_data(1, 0.0, beta)
        val = norm_squared(P1, data, t)
        floor = (t**2 / 4.0) * 2.0 * beta / (2 * math.pi)
        assert val >= floor

    def test_tolerance_halving_is_consistent(self):
        data = gaussian_velocity_data(1)
        coarse = norm_squared(P1, data, 100.0, QuadratureConfig(rel_tol=1e-6))
        fine = norm_squared(P1, data, 100.0, QuadratureConfig(rel_tol=5e-7))
        assert abs(fine - coarse) <= 1e-6 * abs(coarse)

    def test_spectral_physical_factor(self):
        data = gaussian_velocity_data(2)
        phys = norm_squared(P2, data, 50.0)
        r_max = _resolve_r_max(P2, data, 50.0, DEFAULT_QUADRATURE)
        (spec,) = unit_sphere_area(2) * _norm_pieces(P2, data, 50.0, [0.0, r_max], DEFAULT_QUADRATURE)
        assert spec == pytest.approx(phys * (2 * math.pi) ** 2, rel=1e-12)

    def test_uncertified_tail_rejected(self):
        data = RadialInitialData(
            dim=1,
            w1_sq=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2) ** 2,
            w1_tail=TailBound(kind="none"),
        )
        with pytest.raises(UncertifiedTailError):
            norm_squared(P1, data, 10.0)
        # explicit truncation radius is accepted
        val = norm_squared(P1, data, 10.0, QuadratureConfig(r_max=50.0))
        assert val > 0

    def test_a_compact_tail_certifies_nothing_below_its_cutoff(self):
        # w0 = i on [0, 10] beside a Gaussian w1, so the cross density is 0:
        # the Gaussian alone would certify r_max = 6.3, and the band beyond it
        # holds a tenth of the norm
        velocity = gaussian_velocity_data(1)
        data = replace(
            velocity,
            w0_sq=lambda r: np.where(np.asarray(r) <= 10.0, 1.0, 0.0),
            w0_tail=TailBound(kind="compact", cutoff=10.0),
            kinks=(10.0,),
        )
        assert _resolve_r_max(P1, data, 1.0, DEFAULT_QUADRATURE) >= 10.0
        past = norm_squared(P1, data, 1.0, QuadratureConfig(r_max=12.0))
        assert norm_squared(P1, data, 1.0) == pytest.approx(past, rel=1e-12)


class TestAveragedDensities:
    """u0 = e^(-x^2 - y^2/4) and u1 = e^(-x^2/4 - y^2) in 2-D, which are not
    radial: w0 = 2 pi e^(-xi^2/4 - eta^2) and w1 its mirror image, so the
    spherical means are |w0|^2 = |w1|^2 = 4 pi^2 e^(-5 r^2/4) I0(3 r^2/4) and
    Re(w0 conj(w1)) = 4 pi^2 e^(-5 r^2/4), and |w| <= 2 pi e^(-r^2/4)."""

    P = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
    TAIL = TailBound(kind="gaussian", amplitude=2.0 * math.pi, rate=0.25)
    # the norm at t = 10 from mpmath
    NORM_SQ = 11.971881883249301

    @staticmethod
    def w_sq(r):
        r2 = np.asarray(r, dtype=float) ** 2
        return 4.0 * math.pi**2 * np.exp(-1.25 * r2) * np.i0(0.75 * r2)

    def data(self, cross):
        return RadialInitialData(
            2, w0_sq=self.w_sq, w1_sq=self.w_sq, cross=cross, w0_tail=self.TAIL, w1_tail=self.TAIL
        )

    def test_norm_and_energy_match_the_grid(self):
        # a box of length 60 leaves an 8.3e-9 wrap-around gap at t = 10
        data = self.data(lambda r: 4.0 * math.pi**2 * np.exp(-1.25 * np.asarray(r, dtype=float) ** 2))
        u0 = GridField.from_function(lambda x, y: np.exp(-(x**2) - y**2 / 4.0), 2, 100.0, 512)
        u1 = GridField.from_function(lambda x, y: np.exp(-(x**2) / 4.0 - y**2), 2, 100.0, 512)
        u, u_t = evolve_grid(self.P, u0, u1, 10.0, with_velocity=True)
        value = norm_squared(self.P, data, 10.0, QuadratureConfig(rel_tol=1e-8))
        assert value == pytest.approx(u.l2_norm() ** 2, rel=1e-12)
        assert value == pytest.approx(self.NORM_SQ, rel=1e-12)
        (grid_energy,) = total_energy_grid(self.P, [(u, u_t)])
        assert total_energy(self.P, data, 10.0) == pytest.approx(grid_energy, rel=1e-12)

    def test_no_pair_of_radial_profiles_gives_it(self):
        # radial profiles w0 and w1 have cross^2 = w0_sq w1_sq at every r
        pair = self.data(lambda r: np.sqrt(self.w_sq(r) * self.w_sq(r)))
        value = norm_squared(self.P, pair, 10.0, QuadratureConfig(rel_tol=1e-8))
        assert abs(value / self.NORM_SQ - 1.0) > 0.01


class TestBandSplit:
    @pytest.mark.parametrize("t", [10.0, 300.0])
    def test_bands_sum_to_total_1d(self, t):
        data = gaussian_velocity_data(1)
        split = band_split_norm(P1, data, t)
        total = norm_squared(P1, data, t)
        assert split.total == pytest.approx(total, rel=1e-6)
        # the check row of the same call is the norm_squared integral itself
        assert split.unsplit == total

    def test_bands_sum_to_total_2d(self):
        data = gaussian_velocity_data(2)
        split = band_split_norm(P2, data, 40.0)
        total = norm_squared(P2, data, 40.0)
        assert split.total == pytest.approx(total, rel=1e-6)
        assert split.unsplit == total

    def test_split_points_follow_dimension(self):
        split1 = band_split_norm(P1, gaussian_velocity_data(1), 100.0)
        bands = band_boundaries(P1, SINC, 100.0)
        assert split1.split == pytest.approx(bands.gamma_band, rel=1e-12)
        split2 = band_split_norm(P2, gaussian_velocity_data(2), 100.0)
        assert split2.split == 1.0

    def test_low_band_grows_linearly_1d(self, trace_1d_exact):
        # the low-band mass divided by t settles to a constant within 5%
        mask = trace_1d_exact.times >= 1e4
        ratios = trace_1d_exact.band_low[mask] / trace_1d_exact.times[mask]
        assert np.max(ratios) / np.min(ratios) <= 1.05

    def test_high_band_ceiling_n3(self):
        p3 = ModelParams(1.0, 1.0, 1.0, 2.0, 3)
        data = gaussian_velocity_data(3)
        split = band_split_norm(p3, data, 100.0)
        u1_l2_sq = (math.pi / 2) ** 1.5  # ||e^{-|x|^2}||^2 in 3-D
        ceiling = (1 + p3.delta) / p3.mu * u1_l2_sq
        assert split.high <= ceiling


class TestAveragedMode:
    """Late times, where sin^2(t f) averages out over the fast segments; the
    norm is still evaluated exactly (see TestOscillatoryPath)."""

    def test_averaged_tracks_log_growth_2d(self, trace_2d):
        t = trace_2d.times
        y = trace_2d.norms_sq
        late = t >= 1e5
        slope = np.polyfit(np.log(t[late]), y[late], 1)[0]
        assert slope > 0


class TestTraceArtifacts:
    def test_trace_columns_consistent(self, trace_1d_exact):
        t = trace_1d_exact
        recon = t.band_low + t.band_mid + t.band_high
        assert np.allclose(recon, t.norms_sq, rtol=1e-12)
        assert np.all(np.diff(t.times) > 0)

    def test_energy_column_is_flat(self, trace_1d_exact):
        e = trace_1d_exact.energy
        assert np.max(np.abs(e / e[0] - 1.0)) <= 1e-10

    def test_energy_ties_to_initial_report(self, trace_1d_exact):
        energy = total_energy(P1, gaussian_velocity_data(1), 0.0)
        assert trace_1d_exact.energy[0] == pytest.approx(energy, rel=1e-10)

    def test_csv_format(self, trace_1d_exact, tmp_path):
        path = tmp_path / "trace.csv"
        write_norm_trace_csv(trace_1d_exact, path)
        blob = path.read_bytes()
        lines = blob.split(b"\r\n")
        assert lines[0] == b"t,norm_sq,band_low,band_mid,band_high,energy"
        assert len(lines) == trace_1d_exact.times.size + 2  # header + rows + trailing
        first = lines[1].split(b",")
        assert len(first) == 6
        assert float(first[0]) == trace_1d_exact.times[0]


def _gaussian_tail(amplitude, rate=0.25):
    return TailBound(kind="gaussian", amplitude=amplitude, rate=rate)


def _profile_cases():
    """(label, w0, w0 tail, w1, w1 tail) covering each component and complex
    values; None is a missing component."""
    g = lambda r: 1.5 * np.exp(-0.25 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
    h = lambda r: np.exp(-0.3 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
    return [
        ("w0 only", g, _gaussian_tail(1.5), None, None),
        ("w1 only", None, None, g, _gaussian_tail(1.5)),
        ("both", g, _gaussian_tail(1.5), h, _gaussian_tail(1.0, 0.3)),
        (
            "complex",
            lambda r: (0.6 - 0.8j) * g(r),
            _gaussian_tail(1.5),
            lambda r: (0.3 + 2.0j) * h(r),
            _gaussian_tail(2.1, 0.3),
        ),
        ("complex dtype, real values", lambda r: g(r) + 0j, _gaussian_tail(1.5), h,
         _gaussian_tail(1.0, 0.3)),
    ]


class TestFusedIntegrand:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 3.0, 1e4])
    @pytest.mark.parametrize("case", _profile_cases(), ids=lambda c: c[0])
    def test_matches_complex_formula(self, case, t, dim):
        _, w0, tail0, w1, tail1 = case
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = profile_data(w0, w1, dim, tail0, tail1)
        r = np.concatenate([[0.0, 1e-12], np.linspace(1e-3, 12.0, 997)])
        f = eval_dispersion(params, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            prop = np.where(f > 0, np.sin(t * f) / f, t)
        a = np.cos(t * f) * (0j if w0 is None else np.asarray(w0(r), dtype=complex))
        b = prop * (0j if w1 is None else np.asarray(w1(r), dtype=complex))
        expected = np.abs(a + b) ** 2 * r ** (dim - 1)
        scale = (np.abs(a) + np.abs(b)) ** 2 * r ** (dim - 1)
        oracle = amplitude_sq(params, data)(r, t)
        assert oracle.dtype == np.float64
        assert np.all(np.abs(oracle - expected) <= 1e-14 * scale + 1e-300)
        if dim == 1:
            assert oracle[0] == pytest.approx(expected[0], rel=1e-14)
        # The driver's slow integrand from the norm's terms, which need
        # f > 0: from r = 1e-12 on.  It reads |w0|^2 and |w1|^2/f^2 only
        # through base and g, so it is held to its envelope
        # (|w0| + |w1|/f)^2 r^(n-1), its largest value at any t: where
        # cos(t f) ~ 0 and |w0|^2 >> |w1|^2/f^2, |a + b|^2 is far below
        # the rounding of base.
        driver = norms._slow_integrand(params, lambda r, f: norms._norm_terms(data, r, f))(r[1:], t)
        w0_abs, w1_abs = (0.0 if w is None else np.abs(w(r[1:])) for w in (w0, w1))
        envelope = (w0_abs + w1_abs / f[1:]) ** 2 * r[1:] ** (dim - 1)
        assert driver.dtype == np.float64
        assert np.all(np.abs(driver - expected[1:]) <= 1e-14 * envelope)

    def test_zero_certified_component_is_not_evaluated(self):
        # neither w0_sq nor the cross density of a w0 certified zero
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return np.zeros_like(np.asarray(r, dtype=float))

        velocity = gaussian_velocity_data(1)
        data = replace(velocity, w0_sq=counted, cross=counted)
        calls.clear()  # construction probes every density
        norms._slow_integrand(P1, lambda r, f: norms._norm_terms(data, r, f))(np.linspace(1e-3, 3.0, 50), 5.0)
        assert calls == []

    @pytest.mark.parametrize("catalog,missing", [(gaussian_velocity_data, "w0"), (gaussian_position_data, "w1")])
    def test_no_integral_evaluates_a_density_the_datum_lacks(self, catalog, missing):
        # the norm's mean, its Levin coefficient and the energy skip the
        # missing density and the cross density, as the integrand does
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return np.zeros_like(np.asarray(r, dtype=float))

        data = replace(catalog(1), **{f"{missing}_sq": counted, "cross": counted})
        calls.clear()  # construction probes every density
        times = np.geomspace(1e2, 1e6, 5)
        _norm_pieces(P1, data, times, np.tile([0.0, 0.5, 2.0, 9.0], (times.size, 1)), DEFAULT_QUADRATURE)
        total_energy(P1, data, [0.0, 1e3])
        assert calls == []

    @staticmethod
    def general_path_twin(data, missing):
        """The datum with its missing density and the cross density given
        as explicit zeros under a Gaussian tail that does not certify them
        zero, so that every integrand takes its general formula.  The tail
        shares the rate of the datum's and is far too small to move r_max."""
        present = data.w1_tail if missing == "w0" else data.w0_tail
        tail = TailBound(kind="gaussian", amplitude=1e-30, rate=present.rate)
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))  # noqa: E731
        return replace(data, **{f"{missing}_sq": zero, "cross": zero, f"{missing}_tail": tail})

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("catalog,missing", [(gaussian_velocity_data, "w0"), (gaussian_position_data, "w1")])
    def test_skipping_branches_equal_the_general_formulas_bit_for_bit(self, catalog, missing, dim):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = catalog(dim)
        twin = self.general_path_twin(data, missing)
        assert not (twin.w0_tail.vanishes or twin.w1_tail.vanishes)
        times = norms.geometric_times(1e2, 1e6, 3)
        assert times.size == 13
        skipped, general = band_split_norm(params, data, times), band_split_norm(params, twin, times)
        for field in ("low", "mid", "high", "unsplit"):
            assert np.array_equal(getattr(skipped, field), getattr(general, field))
        ts = np.concatenate([[0.0], times])
        assert np.array_equal(total_energy(params, data, ts), total_energy(params, twin, ts))
        r = np.geomspace(1e-3, 12.0, 997)
        f = eval_dispersion(params, r)
        base_skipped, g_skipped = norms._norm_terms(data, r, f)
        base_general, g_general = norms._norm_terms(twin, r, f)
        assert np.all(base_skipped == base_general)
        assert g_skipped.dtype == np.float64 and not g_general.imag.any()
        assert np.array_equal(g_skipped, g_general.real)


# values from the previous panel rule (16-point Gauss-Legendre, accepted by
# comparing a panel with its two halves), default configuration
GL16_NORMS = {
    1: (156.23327136423075, 15707.13798079255, 1570795.5046946097),
    2: (4.661523320921328, 8.329018314810257, 11.953689150224132),
    3: (1.2013522525338556, 1.2775060719795626, 1.2895938542017713),
}


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("index,t", [(0, 1e2), (1, 1e4), (2, 1e6)])
def test_norm_squared_matches_previous_rule(dim, index, t):
    params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
    val = norm_squared(params, gaussian_velocity_data(dim), t)
    assert val == pytest.approx(GL16_NORMS[dim][index], rel=1e-10)


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_norm_squared(self, t):
        with pytest.raises(InputDomainError, match="finite"):
            norm_squared(P1, gaussian_velocity_data(1), t)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_band_split_norm(self, t):
        with pytest.raises(InputDomainError, match="finite"):
            band_split_norm(P1, gaussian_velocity_data(1), t)


def _complex_data(dim):
    """Complex w0 and w1, both present: the sin(2 t f) coefficient is nonzero."""
    g = lambda r: 1.5 * np.exp(-0.25 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
    h = lambda r: np.exp(-0.3 * np.asarray(r, dtype=float) ** 2)  # noqa: E731
    return profile_data(
        lambda r: (0.6 - 0.8j) * g(r), lambda r: (0.3 + 2.0j) * h(r), dim,
        _gaussian_tail(1.5), _gaussian_tail(2.1, 0.3),
    )


_CATALOG = {
    "gaussian": lambda dim: data_from_spec("gaussian", dim),
    "gaussian-u0": lambda dim: data_from_spec("gaussian-u0", dim),
    "compact-band": lambda dim: data_from_spec("compact-band", dim, r_lo=0.5, r_hi=3.0),
    "complex": _complex_data,
    # w1 on [4, 6], where f is nearly flat and e^(2 i t f) is slow for a fast segment
    "high-band": lambda dim: compact_band_data(dim, 4.0, 6.0),
}

# every datum at t = 1e2, 1e4, 1e6 in dimensions 1 to 3; Gaussian data at
# t = 1e3 in 1-D and 2-D; the high band at two late times
_PHASE_RESOLVED_CASES = [
    (name, dim, t)
    for name in sorted(_CATALOG)
    if name != "high-band"
    for dim in (1, 2, 3)
    for t in (1e2, 1e4, 1e6)
] + [("gaussian", 1, 1e3), ("gaussian", 2, 1e3), ("high-band", 1, 2e3), ("high-band", 1, 2e4)]


def _fast_only(table):
    """The fast segments of a table of oscillation_segments."""
    fast = table[3] == norms._FAST
    return tuple(column[fast] for column in table)


class TestOscillatoryPath:
    @pytest.mark.parametrize("name,dim,t", _PHASE_RESOLVED_CASES)
    def test_matches_phase_resolved_path(self, name, dim, t):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = _CATALOG[name](dim)
        value = norm_squared(params, data, t)
        cfg = DEFAULT_QUADRATURE
        r_max = _resolve_r_max(params, data, t, cfg)
        edges = phase_edges(params, t, 0.0, r_max)
        reference = _physical_scale(dim) * k21_refine(
            lambda r: amplitude_sq(params, data)(r, t), edges, 0.5 * cfg.rel_tol
        )[0]
        assert value == pytest.approx(reference, rel=1e-10)

    def test_segments_cover_the_interval(self):
        # the last three end below 1e-10, where the segmentation's grid starts
        # for smaller t
        for t, hi in [(10.0, 14.0), (1e2, 14.0), (1e4, 14.0), (1e9, 14.0),
                      (1e12, 8e-11), (1e13, 5e-11), (1e30, 1e-11)]:
            (segments,) = segments_by_time(oscillation_segments(P1, t, 0.0, hi))
            assert segments[0][0] == 0.0 and segments[-1][1] == hi
            for (_, b, _), (a, _, _) in zip(segments[:-1], segments[1:]):
                assert a == b
            for a, b, kind in segments:
                assert a < b
                mid = 0.5 * (a + b)
                if kind == "slow":
                    assert t * eval_dispersion(P1, mid) <= 16 * math.pi * (1 + 1e-12)
                else:
                    assert t * eval_dispersion(P1, mid) > 16 * math.pi
                if kind == "fast":
                    fp, _ = dispersion_derivatives(P1, np.linspace(a, b, 1001)[1:])
                    assert np.all(fp > 0) or np.all(fp < 0)
        # below t f = 16 pi everywhere, the whole interval is slow
        assert segments_by_time(oscillation_segments(P1, 10.0, 0.0, 14.0)) == [[(0.0, 14.0, "slow")]]

    def test_fast_segment_cost_does_not_grow_with_t(self, monkeypatch):
        # the driver integrates only the fast segments of [0, 6.4]
        segments = norms.oscillation_segments
        monkeypatch.setattr(norms, "oscillation_segments", lambda *args: _fast_only(segments(*args)))
        counts = {}
        for t in (1e3, 1e9):
            calls = []
            base = gaussian_velocity_data(1)

            def counted(r):
                calls.append(np.size(r))
                return base.w1_sq(r)

            data = replace(base, w1_sq=counted)
            calls.clear()
            _norm_pieces(P1, data, t, [0.0, 6.4], DEFAULT_QUADRATURE)
            counts[t] = sum(calls)
        assert counts[1e3] / 2 <= counts[1e9] <= 2 * counts[1e3]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_fast_segment_cost_is_flat_in_every_dimension(self, theta, dim, monkeypatch):
        # w1_sq evaluations of the fast segments of [0, 6.4] stay within 2x
        # of their count at t = 1e3 up to t = 1e12, where the fast segments
        # start near 16 pi / t
        segments = norms.oscillation_segments
        monkeypatch.setattr(norms, "oscillation_segments", lambda *args: _fast_only(segments(*args)))
        params = ModelParams(1.0, 1.0, 1.0, theta, dim)
        base = gaussian_velocity_data(dim)
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return base.w1_sq(r)

        data = replace(base, w1_sq=counted)
        counts = {}
        for t in (1e3, 1e6, 1e9, 1e12):
            calls.clear()
            _norm_pieces(params, data, t, [0.0, 6.4], DEFAULT_QUADRATURE)
            counts[t] = sum(calls)
        assert all(counts[1e3] / 2 <= c <= 2 * counts[1e3] for c in counts.values()), counts

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r_lo", [0.1, 0.5])
    def test_pieces_are_cut_at_the_kinks(self, r_lo, dim, monkeypatch):
        # the step of a compact band at r_lo lies inside a fast segment at
        # t = 1e4, below and above norms._R_LOG: no integrated piece crosses
        # it, the Levin refinement needs no bisection towards it, and the
        # value matches the phase-resolved path cut at the same kinks
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = compact_band_data(dim, r_lo, 3.0)
        t = 1e4
        (segments,) = segments_by_time(oscillation_segments(params, t, 0.0, 3.0))
        assert any(a < r_lo < b and kind == "fast" for a, b, kind in segments)
        radii, levin_rounds = [], []
        kronrod_refine, levin = norms._kronrod_refine, norms.integrate_levin

        def recorded_kronrod(fn, table, *args, t=None, **kwargs):
            # the slow pieces come with their times and in r, the fast ones in x
            radii.extend(p if t is not None else norms._fast_radius(p)[0] for p in partitions(table))
            return kronrod_refine(fn, table, *args, t=t, **kwargs)

        def recorded_levin(g, *args, **kwargs):
            def counted(x):
                levin_rounds.append(np.size(x))
                return g(x)

            return levin(counted, *args, **kwargs)

        monkeypatch.setattr(norms, "_kronrod_refine", recorded_kronrod)
        monkeypatch.setattr(norms, "integrate_levin", recorded_levin)
        value = norm_squared(params, data, t)
        assert len(radii) > 0
        for edges in radii:
            for kink in data.kinks:
                assert not edges[0] < kink < edges[-1]
        assert len(levin_rounds) <= 2

        cfg = DEFAULT_QUADRATURE
        integrand = lambda r: amplitude_sq(params, data)(r, t)  # noqa: E731
        reference = _physical_scale(dim) * sum(
            k21_refine(integrand, phase_edges(params, t, lo, hi), 0.5 * cfg.rel_tol)[0]
            for lo, hi in [(0.0, r_lo), (r_lo, 3.0)]
        )
        assert value == pytest.approx(reference, rel=1e-10)

    def test_one_dimensional_asymptote(self):
        # ||u(t)||^2 / t -> P^2 / (2 sqrt(kappa)) / (2 pi) = pi / 2 for u1 = e^(-x^2)
        t = 1e9
        ratio = norm_squared(P1, gaussian_velocity_data(1), t) / (t * math.pi / 2)
        assert abs(ratio - 1.0) <= 1e-6


class TestOnePhasePlan:
    def test_band_split_segments_each_sample_once(self, monkeypatch):
        calls = []
        segments = norms.oscillation_segments

        def counted(*args):
            calls.append(args)
            return segments(*args)

        monkeypatch.setattr(norms, "oscillation_segments", counted)
        for t in (1e2, 1e4, 1e6, np.array([1e2, 1e4, 1e6])):
            calls.clear()
            band_split_norm(P1, gaussian_velocity_data(1), t)
            # one call for all the samples and the unsplit rows at the first
            # and last of them, each over the whole of [0, r_max]
            assert len(calls) == 1
            samples = np.size(t)
            assert np.shape(calls[0][1]) == (samples + min(samples, 2),)
            assert np.all(calls[0][2] == 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e7])
    def test_one_segmentation_matches_one_per_band(self, dim, t):
        # the bands from one segmentation of [0, r_max] against a driver call
        # per band, each segmenting its own interval
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = gaussian_velocity_data(dim)
        split = band_split_norm(params, data, t)
        r_max = _resolve_r_max(params, data, t, DEFAULT_QUADRATURE)
        cuts = [0.0, split.beta, split.split, r_max]
        scale = _physical_scale(dim)
        for got, lo, hi in zip((split.low, split.mid, split.high), cuts[:-1], cuts[1:]):
            (alone,) = _norm_pieces(params, data, t, [lo, hi], DEFAULT_QUADRATURE)
            assert got == pytest.approx(scale * alone, rel=1e-12)


def _bands_piece_by_piece(params, data, t, cuts):
    """The unscaled norm over each [cuts[k], cuts[k+1]], one refinement per
    piece, every piece cut at the data's kinks and every fast piece at
    norms._R_LOG, with the driver's integrands of the norm's terms: on every
    fast piece the K21 refinement of the mean plus integrate_levin, both in
    the fast coordinate from partitions graded towards the nearest
    stationary point, and on every slow piece and window the K21 refinement
    from 16 equal panels, accepting a panel at the rounding of its phase."""
    cfg = DEFAULT_QUADRATURE
    rel_tol = 0.5 * cfg.rel_tol
    terms = lambda r, f: norms._norm_terms(data, r, f)  # noqa: E731
    integrand = norms._slow_integrand(params, terms)
    mean, coefficient = norms._fast_parts(params, terms)

    def phase(x):
        r, dr = norms._fast_radius(x)
        return eval_dispersion(params, r), dispersion_derivatives(params, r)[0] * dr

    bands = np.zeros(len(cuts) - 1)
    (segments,) = segments_by_time(oscillation_segments(params, t, cuts[0], cuts[-1]))
    for seg_lo, seg_hi, kind in segments:
        stops = [*data.kinks, norms._R_LOG] if kind == "fast" else list(data.kinks)
        for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            lo, hi = max(seg_lo, a), min(seg_hi, b)
            inner = sorted(c for c in set(stops) if lo < c < hi)
            for p, q in zip([lo, *inner], [*inner, hi]):
                if q <= p:
                    continue
                if kind != "fast":
                    phase_bound = 2.0 * t * max(eval_dispersion(params, p), eval_dispersion(params, q))
                    value, _ = norms._kronrod_refine(
                        integrand, panels(np.linspace(p, q, 17)), rel_tol, t=[t], phase=[phase_bound]
                    )
                    bands[k] += value[0]
                    continue
                (edges,) = partitions(norms.fast_segment_edges([p], [q], dispersion_expansion(params).stationary_points))
                level, _ = k21_refine(mean, edges, rel_tol)
                (osc,), _ = integrate_levin(
                    coefficient,
                    phase,
                    2.0 * t,
                    panels(edges),
                    rel_tol,
                    rel_tol * abs(level),
                )
                bands[k] += level + osc.real
    return bands


class TestPerPieceBudgets:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("t", [1e2, 1e5, 1e7])
    def test_each_band_matches_its_pieces_alone(self, dim, theta, t):
        # three refinements for all pieces give what one refinement per piece gives
        params = ModelParams(1.0, 1.0, 1.0, theta, dim)
        data = gaussian_velocity_data(dim)
        split = band_split_norm(params, data, t)
        r_max = _resolve_r_max(params, data, t, DEFAULT_QUADRATURE)
        alone = _bands_piece_by_piece(params, data, t, [0.0, split.beta, split.split, r_max])
        scale = _physical_scale(dim)
        for got, want in zip((split.low, split.mid, split.high), scale * alone):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [1e4, 1e6])
    def test_small_low_band_meets_its_own_tolerance(self, t):
        # in 3-D the low band is orders of magnitude below the high band; it
        # is still held to rel_tol of its own value, not of the norm's
        params = ModelParams(1.0, 1.0, 1.0, 2.0, 3)
        data = gaussian_velocity_data(3)
        split = band_split_norm(params, data, t)
        assert split.low < 1e-4 * split.high
        tight = QuadratureConfig(rel_tol=1e-12)
        (exact,) = _norm_pieces(params, data, t, [0.0, split.beta], tight)
        exact *= _physical_scale(3)
        assert split.low == pytest.approx(exact, rel=DEFAULT_QUADRATURE.rel_tol, abs=0.0)


class TestRows:
    """oscillatory_integrals with rows: the norm's terms for a datum whose
    cross density makes g complex, and the same terms times
    1 + sin(8 r)/2, which need more panels, as two rows of one call."""

    REL_TOL = 1e-8
    TIMES = np.geomspace(1e2, 1e8, 5)

    @staticmethod
    def _rows(data):
        ripple = lambda r: 1.0 + 0.5 * np.sin(8.0 * r)  # noqa: E731
        plain = lambda r, f: norms._norm_terms(data, r, f)  # noqa: E731
        rippled = lambda r, f: tuple(ripple(r) * part for part in plain(r, f))  # noqa: E731
        return plain, rippled

    def _call(self, params, data, cuts, terms, rel_tol):
        """The integrals, and the nodes at which terms was evaluated."""
        calls = []

        def counted(r, f):
            calls.append(np.size(r))
            return terms(r, f)

        values = norms.oscillatory_integrals(
            params, self.TIMES, cuts, counted, kinks=data.kinks, rel_tol=rel_tol
        )
        return values, sum(calls)

    def test_each_row_as_alone(self):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
        data = _complex_data(2)
        assert np.any(data.cross(np.linspace(0.0, 5.0, 11)) != 0.0)
        r_max = _resolve_r_max(params, data, self.TIMES, DEFAULT_QUADRATURE)
        cuts = [[0.0, band_boundaries(params, SINC, t).beta, 1.0, r] for t, r in zip(self.TIMES, r_max)]
        plain, rippled = self._rows(data)
        both = lambda r, f: tuple(map(np.stack, zip(plain(r, f), rippled(r, f))))  # noqa: E731

        together, _ = self._call(params, data, cuts, both, self.REL_TOL)
        assert together.shape == (2, self.TIMES.size, 3)
        nodes = []
        for row, terms in zip(together, (plain, rippled)):
            alone, count = self._call(params, data, cuts, terms, self.REL_TOL)
            exact, _ = self._call(params, data, cuts, terms, 1e-13)
            nodes.append(count)
            np.testing.assert_allclose(row, alone, rtol=self.REL_TOL, atol=0.0)
            # each row meets its own budget, the one that needs more panels too
            np.testing.assert_allclose(row, exact, rtol=self.REL_TOL, atol=0.0)
        assert nodes[1] > nodes[0]


class TestBandTolerance:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_band_within_rel_tol_of_its_own_value(self, dim):
        # the norm_trace.csv rule, on the preset sampling: every band column
        # at the default rel_tol against the same band at rel_tol 1e-11.  A
        # window budget taken from the whole band instead of the window broke
        # it where a starting panel held more phase than K21 resolves: K21
        # and G10 agreed by chance, and band_high was off by 6.9e-6 at n = 1
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = gaussian_velocity_data(dim)
        times = norms.geometric_times(1e2, 1e6, 4)
        (r_max,) = set(_resolve_r_max(params, data, times, DEFAULT_QUADRATURE).tolist())
        got = band_split_norm(params, data, times)
        tight = band_split_norm(params, data, times, QuadratureConfig(rel_tol=1e-11, r_max=r_max))
        for band in ("low", "mid", "high"):
            assert np.all(np.abs(getattr(got, band) / getattr(tight, band) - 1.0) <= DEFAULT_QUADRATURE.rel_tol)


class TestBatchedTrace:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("name", ["gaussian", "compact-band"])
    def test_trace_matches_one_time_at_a_time(self, name, theta, dim):
        # one driver call for the whole trace gives every sample what
        # band_split_norm gives it alone
        params = ModelParams(1.0, 1.0, 1.0, theta, dim)
        data = _CATALOG[name](dim)
        times = norms.geometric_times(1e2, 1e6, 3)
        trace = norms.compute_norm_trace(params, data, times)
        batch = band_split_norm(params, data, times)
        for i, t in enumerate(times):
            alone = band_split_norm(params, data, t)
            for column, value in (
                (trace.band_low, alone.low),
                (trace.band_mid, alone.mid),
                (trace.band_high, alone.high),
                (batch.beta, alone.beta),
                (batch.split, alone.split),
            ):
                assert column[i] == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_a_trace_of_the_most_samples_matches_one_time_at_a_time(self):
        # 9,996 samples, near _MAX_SAMPLES: the band integrals' refinements
        # and the energy's, one each for the whole trace, take far more than
        # _WORK panel-rows in all, and every sample still gets what it gets
        # alone
        params = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
        data = _CATALOG["gaussian"](2)
        times = norms.geometric_times(1e2, 1e7, 1999)
        trace = norms.compute_norm_trace(params, data, times)
        assert times.size == 9996
        for i in (0, 4321, times.size - 1):
            alone = band_split_norm(params, data, times[i])
            for column, value in (
                (trace.band_low, alone.low),
                (trace.band_mid, alone.mid),
                (trace.band_high, alone.high),
                (trace.energy, total_energy(params, data, times[i])),
            ):
                assert column[i] == pytest.approx(value, rel=1e-14, abs=0.0)


class TestRootFinder:
    """The stationary points of model.dispersion_expansion: the sign changes
    of f' on a geometric grid, each bisected until its ends are adjacent
    floats."""

    PARAMS = [
        (1.0, 1.0, 1.0),  # delta, mu, kappa
        (4.0, 0.01, 1.0),
        (1.0, 0.0, 1.0),
    ]

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 2.0])
    def test_bisection_brackets_a_sign_change(self, theta):
        def slope(params, r):
            # the sign of f' (see model.dispersion_expansion)
            de, mu, ka, th = params.delta, params.mu, params.kappa, params.theta
            s = r * r
            return 2.0 * mu * s + ka + de * s**th * ((2.0 - th) * mu * s + (1.0 - th) * ka)

        found = 0
        for de, mu, ka in self.PARAMS:
            params = ModelParams(de, mu, ka, theta, 1)
            for root in dispersion_expansion(params).stationary_points:
                at, after = slope(params, np.array([root, math.nextafter(root, math.inf)]))
                assert at != 0.0 and at * after <= 0.0
                found += 1
        assert found > 0 or theta <= 1.0  # f' > 0 everywhere for theta <= 1
        if theta == 2.0:
            # mu = 0: f = r / sqrt(1 + r^4) peaks at exactly r = 1
            (root,) = dispersion_expansion(ModelParams(1.0, 0.0, 1.0, 2.0, 1)).stationary_points
            assert abs(root - 1.0) <= 2.0 * np.spacing(1.0)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 2.0])
    def test_segmentation_makes_no_root_finder_call(self, theta):
        # once the stationary points are cached, the slow region is cut at
        # grid points: the segmentation finds no root
        kinds = set()
        for de, mu, ka in self.PARAMS:
            params = ModelParams(de, mu, ka, theta, 1)
            dispersion_expansion(params)
            misses = model._expansion.cache_info().misses
            for t in (1e2, 1e4, 1e6):
                for lo, hi in ((0.0, 14.0), (0.3, 5.0)):
                    (segments,) = segments_by_time(oscillation_segments(params, t, lo, hi))
                    assert segments[0][0] == lo and segments[-1][1] == hi
                    kinds.update(kind for *_, kind in segments)
            assert model._expansion.cache_info().misses == misses
        assert {"slow", "fast"} <= kinds

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 2.0])
    def test_scalar_dispersion_is_the_array_path_bit_for_bit(self, theta, monkeypatch):
        # f of a float is the array path's value bit for bit, and the cuts
        # do not depend on which of the two forms the segmentation uses
        r = np.concatenate([[0.0], np.geomspace(1e-10, 1e10, 4001)])
        for de, mu, ka in self.PARAMS:
            params = ModelParams(de, mu, ka, theta, 1)
            scalar = [eval_dispersion(params, x) for x in r.tolist()]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(scalar, eval_dispersion(params, r))

        def cuts():
            out = []
            for de, mu, ka in self.PARAMS:
                params = ModelParams(de, mu, ka, theta, 1)
                for t in (1e2, 1e4, 1e6):
                    out += segments_by_time(oscillation_segments(params, t, 0.0, 14.0))[0]
                    out += segments_by_time(oscillation_segments(params, t, 0.3, 5.0))[0]
            return out

        roots = cuts()
        monkeypatch.setattr(norms, "eval_dispersion", lambda p, x: eval_dispersion(p, np.asarray(x)))
        assert cuts() == roots


def _old_coarse_estimate(params, data, t, hi):
    """The tail-target scale as one K21 panel_integrals call per time."""
    def envelope(r):
        prop_sq = np.minimum(t, 1.0 / np.maximum(eval_dispersion(params, r), 1e-300)) ** 2
        return (data.w0_sq(r) + prop_sq * data.w1_sq(r)) * r ** (params.dim - 1)

    edges = np.linspace(0.0, hi, 257)
    return abs(panel_integrals(envelope, edges[:-1], edges[1:])[0].sum())


class TestCoarseEstimate:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", ["gaussian", "complex"])
    def test_matches_the_per_time_envelope_integral(self, name, dim):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = gaussian_velocity_data(dim) if name == "gaussian" else _complex_data(dim)
        times = np.concatenate([[0.0, 0.5], norms.geometric_times(1.0, 1e9, 3)])
        got = norms._coarse_estimate(params, data, times, 6.0)
        for t, value in zip(times.tolist(), got):
            assert value == pytest.approx(_old_coarse_estimate(params, data, t, 6.0), rel=1e-13, abs=0.0)

    def test_profiles_are_evaluated_once_whatever_the_number_of_times(self):
        calls = []
        base = gaussian_velocity_data(2)

        def counted(density):
            def fn(r):
                calls.append(np.size(r))
                return density(r)
            return fn

        data = replace(base, w0_sq=counted(base.w0_sq), w1_sq=counted(base.w1_sq))
        counts = []
        for size in (1, 61):
            calls.clear()
            norms._coarse_estimate(P2, data, np.geomspace(1e2, 1e6, size), 6.0)
            counts.append(list(calls))
        assert counts[0] == counts[1] == [256 * 21, 256 * 21]


class TestResolveRMax:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
    def test_matches_the_search_one_time_at_a_time(self, dim, rel_tol):
        # each time's first radius r0 1.2^k whose tail bound meets its own
        # target, searched alone as a loop over k
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = data_from_spec("gaussian", dim, a=2.0, amplitude=1.0)
        cfg = QuadratureConfig(rel_tol=rel_tol)
        times = np.concatenate([[0.0, 0.5], norms.geometric_times(1.0, 1e12, 3)])
        expansion = dispersion_expansion(params)
        start = max(4.0, *(math.sqrt(10.0 / tail.rate) for tail in (data.w0_tail, data.w1_tail) if tail.kind == "gaussian"))
        targets = rel_tol / 10.0 * np.maximum(norms._coarse_estimate(params, data, times, start), 1e-280)
        expected = []
        for t, target in zip(times.tolist(), targets.tolist()):
            r0 = start
            while float(norms._tail_bound(expansion, data, r0, t)) > target:
                r0 *= 1.2
            expected.append(r0)
        got = _resolve_r_max(params, data, times, cfg)
        assert got.tolist() == expected
        assert len(set(expected)) > 1 or rel_tol > 1e-12
        assert [_resolve_r_max(params, data, t, cfg) for t in times.tolist()] == expected


class TestTailCeiling:
    @pytest.mark.parametrize("cell", EXPANSION_CELLS)
    def test_bounds_the_propagator_beyond_r0(self, cell):
        # the certified tail reads sup over r >= r0 of min(t, 1/f)^2 from
        # the high-frequency floor; no sample of [r0, 1e4 r0] may exceed it
        params = ModelParams(*cell, 1)
        expansion = dispersion_expansion(params)
        for r0 in (1.0, 4.0, 6.4, 40.0):
            r = np.geomspace(r0, 1e4 * r0, 20001)
            inv_f = 1.0 / eval_dispersion(params, r)
            for t in (1e2, 1e6):
                ceiling = norms._propagator_sq_ceiling(expansion, r0, t)
                assert np.max(np.minimum(t, inv_f) ** 2) <= ceiling


class TestBatchedUnsplitNorm:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_array_of_times_matches_one_time_at_a_time(self, dim):
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        data = gaussian_velocity_data(dim)
        times = np.array([1e2, 3e4, 1e6])
        batch = norm_squared(params, data, times)
        assert batch.shape == times.shape
        for t, value in zip(times.tolist(), batch):
            assert value == pytest.approx(norm_squared(params, data, t), rel=1e-14, abs=0.0)
        assert type(norm_squared(params, data, 1e2)) is float


def _w1_evaluations(params, t, rel_tol=DEFAULT_QUADRATURE.rel_tol):
    """norm_squared of the Gaussian velocity datum and the w1_sq density
    evaluations it took."""
    base = gaussian_velocity_data(params.dim)
    calls = []

    def counted(r):
        calls.append(np.size(r))
        return base.w1_sq(r)

    data = replace(base, w1_sq=counted)
    calls.clear()  # construction probes the density
    value = norm_squared(params, data, t, QuadratureConfig(rel_tol=rel_tol))
    return value, sum(calls)


class TestFlatCost:
    """One norm sample costs the same at every t: the windows span a fixed
    phase, slow pieces and windows start from 16 equal panels, and the K21
    refinement stops at the rounding of the phase."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_w1_evaluations_stay_within_2x_of_t_1e3(self, dim):
        # before the windows narrowed, n = 1 took 134M evaluations at 2e10
        params = ModelParams(1.0, 1.0, 1.0, 2.0, dim)
        counts = {t: _w1_evaluations(params, t)[1] for t in (1e3, 1e6, 1e9, 1e12, 1e15)}
        assert all(c <= 2 * counts[1e3] for c in counts.values()), counts

    def test_one_dimensional_sample_at_3e10_is_fast(self):
        start = time.perf_counter()
        value, _ = _w1_evaluations(P1, 3e10)
        assert time.perf_counter() - start < 1.0
        assert value / (math.pi * 3e10 / 2) == pytest.approx(1.0, abs=1e-6)

    def test_tight_tolerance_at_late_time_returns(self):
        # at rel_tol 1e-9 this raised MemoryError after 118 s: the phase t f
        # carries an error of eps t f that no bisection removes
        params = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
        start = time.perf_counter()
        tight, _ = _w1_evaluations(params, 1e8, rel_tol=1e-9)
        assert time.perf_counter() - start < 10.0
        assert tight == pytest.approx(_w1_evaluations(params, 1e8)[0], rel=1e-6)

    def test_unresolved_piece_is_a_typed_error(self):
        # sin(200 ln|r - r0|) oscillates without bound at r0 inside a slow
        # piece, so the piece cannot meet 1e-13 within the depth cap or the
        # work budget: the driver raises instead of returning an unresolved
        # value.  (An undeclared jump resolves within 30 rounds.)
        # The integrand spiral sin^2(t f) is 0 at t = 0 and has the
        # coefficient -spiral/2.
        def terms(r, f):
            spiral = 1.0 + np.sin(200.0 * np.log(np.abs(r - 0.123456789)))
            return 0.0, -0.5 * spiral

        with pytest.raises(IntegrabilityError, match="unresolved after"):
            norms.oscillatory_integrals(P1, 1.0, [0.0, 3.0], terms, rel_tol=1e-13)


class TestFastSegmentEdges:
    @pytest.mark.parametrize("lo", [0.25 / math.e, 0.0919699, 0.09197])
    def test_ends_step_by_an_ulp_of_r(self, lo):
        # near x = 0, where r = r_log / e, an ulp of x is far below an ulp of
        # r: stepping x by its own ulp took 262,147 steps at lo = 0.09197
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            (edges,) = partitions(norms.fast_segment_edges([lo], [0.2]))
            best = min(best, time.perf_counter() - start)
        assert best < 0.01
        r_ends = norms._fast_radius(edges[[0, -1]])[0]
        assert lo < r_ends[0] < r_ends[1] < 0.2
        assert np.all(np.diff(edges) > 0)

    def test_graded_towards_the_anchor(self):
        # edges geometric in the distance from the nearest centre, which lies
        # outside the piece; without centres, geometric in r
        right, left, far = partitions(norms.fast_segment_edges([1.6, 0.5, 9.0], [6.0, 1.4, 12.0], (1.5, 8.0)))
        assert np.allclose(np.diff(np.log(right - 1.5)), np.log(4.5 / 0.1) / 4)
        assert np.all(np.diff(left) > 0)
        assert np.allclose(np.diff(np.log(1.5 - left)), np.log(0.1 / 1.0) / 4)
        assert np.allclose(np.diff(np.log(far - 8.0)), np.log(4.0 / 1.0) / 4)
        (plain,) = partitions(norms.fast_segment_edges([0.5], [6.0]))
        assert np.array_equal(plain[1:-1], np.geomspace(plain[0], plain[-1], 5)[1:-1])


class TestSegmentationOfATrace:
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_array_of_times_matches_one_time_at_a_time(self, theta, monkeypatch):
        params = ModelParams(1.0, 1.0, 1.0, theta, 1)
        times = np.array([0.0, 5.0, 1e2, 1e4, 1e6, 1e9, 1e13])
        los = np.array([0.0, 0.0, 0.3, 0.0, 1e-3, 0.0, 0.0])
        his = np.array([14.0, 14.0, 5.0, 0.0, 6.4, 14.0, 3.0])
        calls = []

        def counted(p, r):
            calls.append(np.shape(r))
            return eval_dispersion(p, r)

        monkeypatch.setattr(norms, "eval_dispersion", counted)
        batch = segments_by_time(oscillation_segments(params, times, los, his), times.size)
        assert len(calls) == 1
        for segments, t, lo, hi in zip(batch, times.tolist(), los.tolist(), his.tolist()):
            assert [segments] == segments_by_time(oscillation_segments(params, t, lo, hi))
        assert batch[3] == []  # an empty interval
        assert batch[0] == [(0.0, 14.0, "slow")]


class TestWindowNeighbours:
    @pytest.mark.parametrize(
        "coefficients,dim,t",
        [((1.0, 1.0, 1.0, 2.0), 1, 1e9), ((1.0, 1.0, 1.0, 2.0), 3, 1e9), ((1.0, 1.0, 1.0, 2.0), 3, 1e12),
         # two stationary points, 0.851 and 3.083
         ((4.0, 0.1, 1.0, 1.5), 3, 1e7), ((1.0, 0.1, 1.0, 1.5), 3, 1e9)],
    )
    def test_one_piece_matches_pieces_cut_beside_the_windows(self, coefficients, dim, t):
        # the Levin pieces beside a window run from r* + C t^(-1/2) out to
        # r_log, r_max or the next window; cut 3% from each r* instead, they
        # must give the same norm.  With the Levin error blind to
        # p ~ g / f', which grows towards r*, long pieces were off by up to
        # 3.4e-8 at the default rel_tol, and stayed off at any rel_tol
        params = ModelParams(*coefficients, dim)
        data = gaussian_velocity_data(dim)
        r_max = _resolve_r_max(params, data, t, DEFAULT_QUADRATURE)
        near = [r * s for r in dispersion_expansion(params).stationary_points for s in (0.97, 1.03)]
        whole = _norm_pieces(params, data, t, [0.0, r_max], DEFAULT_QUADRATURE)[0]
        cut = _norm_pieces(params, data, t, [0.0, *near, r_max], DEFAULT_QUADRATURE).sum()
        assert whole == pytest.approx(cut, rel=1e-9)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    def test_tight_tolerance_beside_a_window_returns(self, rel_tol):
        # next to the window at t = 1e12 the Levin panels reach the rounding
        # of the phase 2 t f before a tolerance this tight
        start = time.perf_counter()
        value, _ = _w1_evaluations(P1, 1e12, rel_tol=rel_tol)
        assert time.perf_counter() - start < 10.0
        assert value / (math.pi * 1e12 / 2) == pytest.approx(1.0, abs=1e-9)


def _rows(table):
    """A table of columns as a list of rows, in Python numbers."""
    return list(zip(*(column.tolist() for column in table)))


class TestPieceTable:
    """The flat tables of segments and pieces against the enumeration one
    time, segment, band and stop at a time (conftest.reference_pieces),
    order included."""

    @staticmethod
    def check(params, times, rows, kinks):
        times, rows = np.asarray(times, dtype=float), np.asarray(rows, dtype=float)
        segments = oscillation_segments(params, times, rows[:, 0], rows[:, -1])
        expected = [reference_segments(params, t, row[0], row[-1]) for t, row in zip(times.tolist(), rows.tolist())]
        assert segments_by_time(segments, times.size) == expected
        slow, fast = norms._oscillation_pieces(params, times, rows, kinks)
        reference_slow, reference_fast = reference_pieces(params, times.tolist(), rows.tolist(), kinks)
        assert (_rows(slow), _rows(fast)) == (reference_slow, reference_fast)
        assert len(reference_slow) > 0 and len(reference_fast) > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cuts_and_kinks(self, seed):
        rng = np.random.default_rng(seed)
        cells = [(1.0, 1.0, 1.0, 2.0), (4.0, 0.1, 1.0, 1.5), (1.0, 0.1, 1.0, 1.5), (0.7, 1.3, 2.1, 1.0)]
        params = ModelParams(*cells[seed % 4], 1 + seed % 3)
        times = 10.0 ** rng.uniform(0.0, 12.0, 25)
        rows = np.sort(rng.uniform(0.0, 7.0, (25, 5)), axis=1)
        rows[::2, 0] = 0.0
        rows[::3, 2] = rows[::3, 1]  # an empty band
        rows[::4, 1] = norms._R_LOG  # a cut on r_log
        # kinks inside the bands, one on r_log and one on a cut
        kinks = (*rng.uniform(0.0, 7.0, 3).tolist(), norms._R_LOG, float(rows[1, 2]))
        self.check(params, times, rows, kinks)

    @pytest.mark.parametrize("cell", [(4.0, 0.1, 1.0, 1.5), (1.0, 0.1, 1.0, 1.5)])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_two_stationary_points(self, cell, dim):
        params = ModelParams(*cell, dim)
        assert len(dispersion_expansion(params).stationary_points) == 2
        times = np.geomspace(1e2, 1e12, 21)
        cuts = [0.0, 0.5, 0.9, 3.0, 3.1, 6.0]
        self.check(params, times, np.tile(cuts, (times.size, 1)), (1.0, 2.9))

    @pytest.mark.parametrize("preset", ["theorem-1-1", "theorem-1-2", "prop-4-1"])
    def test_preset_windows(self, preset, monkeypatch):
        # the rows of cuts of the preset's trace, bands and unsplit rows, as
        # its one oscillatory_integrals call receives them
        from rosenau.cli import ExperimentConfig

        config = ExperimentConfig.from_dict({"preset": preset})
        calls = []
        pieces = norms._oscillation_pieces

        def recorded(*args):
            calls.append(args)
            return pieces(*args)

        monkeypatch.setattr(norms, "_oscillation_pieces", recorded)
        times = norms.geometric_times(*config.t_window)
        band_split_norm(config.params, gaussian_velocity_data(config.params.dim), times)
        ((params, ts, rows, kinks),) = calls
        assert ts.size == times.size + 2
        self.check(params, ts, rows, kinks)


class TestFlatTableRefinesAsTheListDid:
    """_refine on the flat tables gives bit for bit what it gave on the
    partitions listed one per piece (conftest.panels builds that table)."""

    def test_slow_pieces_of_a_trace(self, monkeypatch):
        calls, rows = [], []
        refine, pieces = norms._kronrod_refine, norms._oscillation_pieces

        def recorded(fn, table, *args, t=None, **kwargs):
            value = refine(fn, table, *args, t=t, **kwargs)
            if t is not None:
                calls.append((fn, table, args, t, kwargs, value))
            return value

        monkeypatch.setattr(norms, "_kronrod_refine", recorded)
        monkeypatch.setattr(norms, "_oscillation_pieces", lambda *args: rows.append(args) or pieces(*args))
        times = norms.geometric_times(1e2, 1e6, 12)
        band_split_norm(P1, gaussian_velocity_data(1), times)
        ((fn, table, args, t, kwargs, value),) = calls
        ((params, ts, cuts, kinks),) = rows
        slow, _ = reference_pieces(params, ts.tolist(), cuts.tolist(), kinks)
        assert len(slow) > 100
        listed = panels(*(np.linspace(lo, hi, 17) for _, _, lo, hi in slow))
        for column, expected in zip(table, listed):
            assert np.array_equal(column, expected)
        again = refine(fn, listed, *args, t=t, **kwargs)
        assert np.array_equal(again[0], value[0]) and np.array_equal(again[1], value[1])
