import math

import numpy as np
import pytest

from rosenau import InputDomainError, IntegrabilityError, ModelParams
from rosenau.model import dispersion_derivatives, eval_dispersion
from rosenau import quadrature
from rosenau.quadrature import (
    KRONROD_POINTS,
    LEVIN_POINTS,
    integrate_adaptive,
    integrate_levin,
    integrate_radial,
    panel_integrals,
)

from conftest import phase_edges

P = ModelParams(1.0, 1.0, 1.0, 2.0, 1)


def test_panel_integrals_polynomial_exact():
    vals, _ = panel_integrals(lambda x: x**7, np.array([0.0]), np.array([2.0]))
    assert vals[0] == pytest.approx(2.0**8 / 8.0, rel=1e-14)


class TestKronrodRule:
    def test_k21_exact_to_degree_31(self):
        vals, _ = panel_integrals(lambda x: x**31, np.array([0.0]), np.array([2.0]))
        assert vals[0] == pytest.approx(2.0**32 / 32.0, rel=1e-14)

    def test_g10_exact_to_degree_19(self):
        # on [0, 2] the nodes map to 1 + x with unit half-width
        x = 1.0 + quadrature._NODES
        g10 = float(np.sum(quadrature._GAUSS_WEIGHTS * x**19))
        assert g10 == pytest.approx(2.0**20 / 20.0, rel=1e-14)
        # so the embedded error estimate vanishes there and not one degree up
        _, err19 = panel_integrals(lambda x: x**19, np.array([0.0]), np.array([2.0]))
        _, err20 = panel_integrals(lambda x: x**20, np.array([0.0]), np.array([2.0]))
        assert err19[0] <= 1e-14 * 2.0**20 / 20.0
        assert err20[0] > 1e-12 * 2.0**21 / 21.0

    def test_tables(self):
        nodes = quadrature._NODES
        gauss = quadrature._GAUSS_WEIGHTS
        kronrod = quadrature._KRONROD_WEIGHTS
        assert nodes.size == kronrod.size == gauss.size == KRONROD_POINTS
        g_nodes, g_weights = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(nodes[1::2], g_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss[1::2], g_weights, rtol=0, atol=1e-15)
        assert np.all(gauss[0::2] == 0.0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(kronrod, kronrod[::-1])
        np.testing.assert_array_equal(gauss, gauss[::-1])
        assert math.fsum(kronrod) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(gauss) == pytest.approx(2.0, abs=1e-15)

    def test_vector_valued_integrand(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
        vals, errs = panel_integrals(lambda x: np.stack([x, x**2]), lo, hi)
        assert vals.shape == errs.shape == (2, 2)
        np.testing.assert_allclose(vals[0], [0.5, 4.0], rtol=1e-14)
        np.testing.assert_allclose(vals[1], [1.0 / 3.0, 26.0 / 3.0], rtol=1e-14)

    def test_chunking_does_not_change_panels(self):
        # more panels than one chunk holds, compared with one-panel calls
        fn = lambda x: np.sin(3.0 * x) * np.exp(-x)  # noqa: E731
        edges = np.linspace(0.0, 40.0, quadrature._PANEL_CHUNK + 8)
        vals, errs = panel_integrals(fn, edges[:-1], edges[1:])
        for i in (0, quadrature._PANEL_CHUNK - 1, quadrature._PANEL_CHUNK, edges.size - 2):
            v, e = panel_integrals(fn, edges[i : i + 1], edges[i + 1 : i + 2])
            # equal up to the round-off of BLAS blocking, which depends on the chunk size
            assert vals[i] == pytest.approx(v[0], rel=1e-14, abs=1e-300)
            assert errs[i] == pytest.approx(e[0], abs=1e-14 * abs(v[0]))


class TestSinglePassAdaptive:
    def test_accepted_in_round_one_costs_one_rule_per_panel(self):
        calls = []

        def counted(x):
            calls.append(x.size)
            return np.exp(-x)

        panels = 37
        val, err = integrate_adaptive(counted, np.linspace(0.0, 3.0, panels + 1), 1e-10)
        assert sum(calls) == KRONROD_POINTS * panels
        assert val == pytest.approx(1.0 - math.exp(-3.0), rel=1e-14)
        assert err <= 1e-10 * val

    def test_bisects_only_failing_panels(self):
        calls = []

        def counted(x):
            calls.append(x.size)
            return np.sqrt(x)

        val, _ = integrate_adaptive(counted, np.linspace(0.0, 1.0, 5), 1e-8)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-8)
        # round one evaluates all 4 panels; afterwards only the two halves
        # of the panel touching the singularity are pending each round
        assert calls[0] == 4 * KRONROD_POINTS
        assert all(c == 2 * KRONROD_POINTS for c in calls[1:])

    def test_refinement_stops_at_rounding_level(self):
        # the width share of 1e-20 cannot be met; a panel whose |K21 - G10|
        # is within 64 eps |K21| is accepted instead of bisected
        calls = []

        def counted(x):
            calls.append(x.size)
            return np.exp(x)

        val, _ = integrate_adaptive(counted, np.linspace(0.0, 1.0, 5), 1e-20, max_rounds=8)
        assert val == pytest.approx(math.e - 1.0, rel=1e-14)
        assert calls == [4 * KRONROD_POINTS]

    @pytest.mark.parametrize(
        "fn,lo,hi,exact",
        [
            (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
            (np.log, 0.0, 1.0, -1.0),
            (lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.29),
            (lambda x: 1.0 / (1.0 + 100.0 * x**2), -1.0, 1.0, 0.2 * math.atan(10.0)),
        ],
    )
    @pytest.mark.parametrize("max_rounds", [0, 1, 3])
    def test_exhausted_rounds_error_covers_true_error(self, fn, lo, hi, exact, max_rounds):
        val, err = integrate_adaptive(
            fn, np.linspace(lo, hi, 3), 1e-15, max_rounds=max_rounds
        )
        assert err >= abs(val - exact)
        assert err > 0.0


class TestRadial:
    def test_cuts_at_kinks_and_decades(self):
        edges = quadrature._radial_edges(0.5, 60.0, (2.0,))
        np.testing.assert_array_equal(edges, [0.5, 1.0, 2.0, 10.0, 60.0])
        # a piece from 0 is cut first 16 decades below its upper end
        edges = quadrature._radial_edges(0.0, 20.0, (1.0, 20.0))
        assert edges[:2].tolist() == [0.0, 1e-16]
        assert edges[-3:].tolist() == [1.0, 10.0, 20.0]
        assert np.all(np.diff(edges) > 0)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-1.0, 1.0), (2.0, 1.0)])
    def test_only_finite_intervals(self, lo, hi):
        with pytest.raises(InputDomainError):
            integrate_radial(np.exp, lo, hi, rel_tol=1e-12)

    def test_rows_share_one_refinement(self):
        rows = lambda x: np.stack([x**2, np.exp(-x), np.cos(40.0 * x)])  # noqa: E731
        values = integrate_radial(rows, 0.0, 3.0, rel_tol=1e-12)
        exact = [9.0, 1.0 - math.exp(-3.0), math.sin(120.0) / 40.0]
        np.testing.assert_allclose(values, exact, rtol=1e-12)

    def test_intervals_are_pieces_each_refined_as_if_alone(self):
        # one refinement for many intervals, each held to rel_tol of its own
        # value: the same values as one call per interval
        fn = lambda x: np.stack([np.exp(-x) / (x + x**3), np.cos(40.0 * x) / x])  # noqa: E731
        lo = np.geomspace(1e-6, 1e-2, 5)
        values = integrate_radial(fn, lo, 0.9, rel_tol=1e-11)
        assert values.shape == (2, 5)
        for k, a in enumerate(lo.tolist()):
            alone = integrate_radial(fn, a, 0.9, rel_tol=1e-11)
            np.testing.assert_allclose(values[:, k], alone, rtol=1e-14, atol=0.0)
        flat = integrate_radial(lambda x: np.exp(-x), lo, 0.9, rel_tol=1e-11)
        assert flat.shape == (5,)

    def test_unresolved_piece_is_named(self):
        fn = lambda x: np.where(x < 1.0, np.exp(-x), np.sin(1e9 * x) ** 2)  # noqa: E731
        with pytest.raises(IntegrabilityError, match=r"\[2, 6\.5\]"):
            integrate_radial(fn, np.array([0.5, 2.0]), np.array([0.6, 6.5]), rel_tol=1e-12)

    def test_returns_python_floats(self):
        value = integrate_radial(np.exp, 0.0, 1.0, rel_tol=1e-12)
        assert type(value) is float
        value, error = integrate_adaptive(np.exp, np.linspace(0.0, 1.0, 3), 1e-12)
        assert type(value) is float and type(error) is float


def test_adaptive_gaussian_integral():
    val, err = integrate_adaptive(
        lambda x: np.exp(-(x**2)), np.linspace(0.0, 12.0, 9), 1e-10
    )
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    assert err <= 1e-8


def test_adaptive_oscillatory_against_closed_form():
    # integral_0^1 sin(omega x) dx = (1 - cos(omega))/omega
    omega = 2000.0
    edges = np.linspace(0.0, 1.0, 600)
    val, _ = integrate_adaptive(lambda x: np.sin(omega * x), edges, 1e-10)
    assert val == pytest.approx((1 - math.cos(omega)) / omega, abs=1e-12)


def test_phase_edges_resolve_periods():
    t = 1e4
    edges = phase_edges(P, t, 0.0, 3.0)
    # every panel of the reference partition holds at most 1.6 periods
    from rosenau.model import dispersion_derivatives

    mids = 0.5 * (edges[1:] + edges[:-1])
    widths = np.diff(edges)
    fp, _ = dispersion_derivatives(P, mids)
    periods_per_panel = widths * t * np.abs(fp) / math.pi
    assert np.max(periods_per_panel) <= 1.6 + 0.2


def test_phase_edges_cover_interval():
    edges = phase_edges(P, 100.0, 0.5, 2.5)
    assert edges[0] == 0.5 and edges[-1] == 2.5
    assert np.all(np.diff(edges) > 0)


def test_phase_edges_split_wide_panels_evenly():
    # below one phase increment the partition is the width rule alone:
    # (hi - lo)/48, as edges lo + (hi - lo) j / 48
    lo, hi = 0.5, 2.5
    edges = phase_edges(P, 1e-3, lo, hi)
    expected = np.concatenate([[lo], lo + (hi - lo) * np.arange(1, 49) / 48])
    assert np.array_equal(edges, expected)
    # with phase edges, no panel is wider than (hi - lo)/48 either
    for t in (1.0, 30.0, 1e3):
        widths = np.diff(phase_edges(P, t, 0.0, 3.0))
        assert widths.size >= 48
        assert np.all(widths <= 3.0 / 48 * (1 + 1e-12))


class TestPieces:
    """Several partitions refined together, each piece on its own budget."""

    def test_piece_sums_match_the_loop(self):
        # one np.add.reduceat against the per-piece loop it replaced; the
        # sums run in another order, so they agree to n eps sum|x| per piece
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_pieces = int(rng.integers(1, 12))
            piece = np.sort(rng.integers(0, n_pieces, int(rng.integers(0, 300))))
            x = rng.standard_normal((3, piece.size)) * 10.0 ** rng.uniform(-3, 3, piece.size)
            bounds = piece.searchsorted(np.arange(n_pieces + 1))
            loop = np.stack([x[:, a:b].sum(axis=-1) for a, b in zip(bounds[:-1], bounds[1:])], axis=-1)
            scale = np.stack([np.abs(x[:, a:b]).sum(axis=-1) for a, b in zip(bounds[:-1], bounds[1:])], axis=-1)
            for rows in (x, x[0]):
                got = quadrature._piece_sums(rows, piece, n_pieces)
                want, tol = (loop, scale) if rows.ndim == 2 else (loop[0], scale[0])
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= max(piece.size, 1) * np.finfo(float).eps * tol)
            if n_pieces == 1:
                assert np.array_equal(quadrature._piece_sums(x, piece, 1)[:, 0], x.sum(axis=-1))

    def test_each_piece_as_if_alone(self):
        # what integrate_adaptive gives each piece by itself, to rounding: a
        # panel's K21 - G10 may differ in its last bits with the panels
        # evaluated beside it
        fn = lambda x: np.sqrt(x) * np.cos(30.0 * x)  # noqa: E731
        pieces = [np.linspace(0.0, 0.4, 3), np.linspace(0.4, 2.0, 5), np.array([2.5, 3.0])]
        abs_tols = np.array([0.0, 1e-9, 1e-14])
        values, errors = quadrature._kronrod_refine(fn, pieces, 1e-11, abs_tols)
        for edges, abs_tol, value, error in zip(pieces, abs_tols, values, errors):
            alone, alone_error = integrate_adaptive(fn, edges, 1e-11, abs_tol)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_levin_pieces_as_if_alone(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        args = (lambda x: x * x, lambda x: 2.0 * x, 300.0)
        pieces = [np.linspace(0.5, 1.0, 3), np.linspace(1.0, 4.0, 5)]
        values, errors = integrate_levin(g, *args, pieces, 1e-10, np.array([1e-13, 0.0]))
        assert values.shape == errors.shape == (2,)
        for edges, abs_tol, value, error in zip(pieces, (1e-13, 0.0), values, errors):
            alone, alone_error = integrate_levin(g, *args, edges, 1e-10, abs_tol)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_a_small_piece_keeps_its_own_rel_tol(self):
        # the small piece would meet a budget shared with the large one on
        # far coarser panels; held to rel_tol of its own value, it is resolved
        fn = lambda x: np.where(x < 1.0, 1e-9 * np.sqrt(np.abs(x)), np.exp(x))  # noqa: E731
        pieces = [np.linspace(0.0, 1.0, 3), np.linspace(1.0, 2.0, 3)]
        values, _ = quadrature._kronrod_refine(fn, pieces, 1e-10)
        assert values[0] == pytest.approx(2e-9 / 3.0, rel=1e-10, abs=0.0)
        assert values[1] == pytest.approx(math.e**2 - math.e, rel=1e-10, abs=0.0)
        shared, _ = integrate_adaptive(fn, np.linspace(0.0, 2.0, 5), 1e-10)
        coarse, _ = integrate_adaptive(fn, np.linspace(0.0, 1.0, 3), 0.0, 1e-10 * abs(shared))
        assert abs(coarse - 2e-9 / 3.0) > 1e-10 * 2e-9 / 3.0


    def test_k21_pieces_with_their_own_time(self):
        # fn(x, t) with one time per piece: each piece as integrate_adaptive
        # gives it with its time fixed
        fn = lambda x, t: np.cos(t * x) * np.exp(-x)  # noqa: E731
        pieces = [np.linspace(0.0, 1.0, 3), np.linspace(1.0, 3.0, 5), np.linspace(0.5, 2.0, 4)]
        times = np.array([3.0, 40.0, 0.0])
        values, errors = quadrature._kronrod_refine(fn, pieces, 1e-11, t=times)
        for edges, t, value, error in zip(pieces, times, values, errors):
            alone, alone_error = integrate_adaptive(lambda x: fn(x, t), edges, 1e-11)  # noqa: B023
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_levin_pieces_with_their_own_omega(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        f, fprime = (lambda x: x * x), (lambda x: 2.0 * x)
        pieces = [np.linspace(0.5, 1.0, 3), np.linspace(1.0, 4.0, 5), np.linspace(0.5, 2.0, 4)]
        omegas = np.array([300.0, 7.0, 2e4])
        values, errors = integrate_levin(g, f, fprime, omegas, pieces, 1e-10)
        for edges, omega, value, error in zip(pieces, omegas, values, errors):
            alone, alone_error = integrate_levin(g, f, fprime, omega, edges, 1e-10)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)


def test_levin_takes_the_phase_and_its_derivative_from_one_function():
    g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
    f, fprime = (lambda x: x * x), (lambda x: 2.0 * x)
    edges = np.linspace(0.5, 4.0, 6)
    pair = integrate_levin(g, lambda x: (f(x), fprime(x)), None, 300.0, edges, 1e-10)
    assert pair == integrate_levin(g, f, fprime, 300.0, edges, 1e-10)


def test_theorem_1_2_keeps_every_chunk_small(monkeypatch, tmp_path):
    # a trace refines all its samples at once; the integrand still gets at
    # most 2^15 nodes per call and a Levin chunk at most 256 panels
    from rosenau.cli import ExperimentConfig, run_experiment

    nodes, k21_panels, levin_panels = [], [], []
    panel_integrals, levin_chunk = quadrature.panel_integrals, quadrature._levin_chunk

    def counted_k21(fn, lo, hi, t=None, **kwargs):
        k21_panels.append(np.size(lo))

        def counted_fn(x, *rest):
            nodes.append(np.size(x))
            return fn(x, *rest)

        return panel_integrals(counted_fn, lo, hi, t, **kwargs)

    def counted_levin(g, f, fprime, omega, lo, hi):
        levin_panels.append(np.size(lo))
        return levin_chunk(g, f, fprime, omega, lo, hi)

    monkeypatch.setattr(quadrature, "panel_integrals", counted_k21)
    monkeypatch.setattr(quadrature, "_levin_chunk", counted_levin)
    cfg = ExperimentConfig.from_dict({"preset": "theorem-1-2", "output_dir": str(tmp_path)})
    assert run_experiment(cfg).exit_code == 0
    # the batches are large enough to be chunked
    assert max(k21_panels) > quadrature._PANEL_CHUNK
    assert len(levin_panels) > 1 and levin_panels.count(256) >= 1
    assert max(nodes) <= 1 << 15
    assert max(levin_panels) <= 256


def test_deterministic_repeatability():
    fn = lambda x: np.sin(37.0 * x) * np.exp(-x)  # noqa: E731
    edges = np.linspace(0.0, 5.0, 17)
    a = integrate_adaptive(fn, edges, 1e-9)
    b = integrate_adaptive(fn, edges, 1e-9)
    assert a == b


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_raises_in_first_round(self, bad):
        nodes = []

        def fn(x):
            nodes.append(x.size)
            return np.where(x > 0.5, bad, x)

        with pytest.raises(IntegrabilityError, match="non-finite"), np.errstate(invalid="ignore"):
            integrate_adaptive(fn, np.linspace(0.0, 1.0, 5), 1e-10, max_rounds=8)
        assert sum(nodes) <= KRONROD_POINTS * 4


def _ones(x):
    return np.ones_like(x)


def _linear_exact(a, b, omega):
    return (np.exp(1j * omega * b) - np.exp(1j * omega * a)) / (1j * omega)


class TestLevin:
    # omega below 2 puts the panels under one radian of phase, on the
    # Clenshaw-Curtis branch of the rule
    OMEGAS = [0.3, 1.0, 10.0, 1e3, 1e6, 1e9]

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_constant_amplitude_linear_phase_exact(self, omega):
        val, err = integrate_levin(_ones, lambda x: x, _ones, omega, np.array([0.3, 2.0]), 1e-12)
        exact = _linear_exact(0.3, 2.0, omega)
        assert abs(val - exact) <= 1e-14 * abs(exact)
        assert err <= 1e-13

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_polynomial_amplitude_closed_form(self, omega):
        # integral of x^3 e^(i w x): x^3/(iw) - 3x^2/(iw)^2 + 6x/(iw)^3 - 6/(iw)^4, times e^(i w x)
        iw = 1j * omega

        def antiderivative(x):
            return np.exp(iw * x) * (x**3 / iw - 3 * x**2 / iw**2 + 6 * x / iw**3 - 6 / iw**4)

        exact = antiderivative(2.0) - antiderivative(-1.0)
        val, _ = integrate_levin(lambda x: x**3, lambda x: x, _ones, omega,
                                 np.linspace(-1.0, 2.0, 4), 1e-12)
        assert abs(val - exact) <= 1e-13 * max(abs(exact), 1.0 / omega)

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_nonlinear_phase_closed_form(self, omega):
        # 2x e^(i w x^2) has the antiderivative e^(i w x^2)/(i w)
        val, _ = integrate_levin(lambda x: 2 * x, lambda x: x**2, lambda x: 2 * x, omega,
                                 np.linspace(0.5, 3.0, 5), 1e-12)
        exact = (np.exp(1j * omega * 9.0) - np.exp(1j * omega * 0.25)) / (1j * omega)
        assert abs(val - exact) <= 1e-13 * abs(exact)

    def test_complex_amplitude_is_linear(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        args = (lambda x: x**2, lambda x: 2 * x, 300.0, np.linspace(0.5, 3.0, 9), 1e-12)
        whole, _ = integrate_levin(g, *args)
        re, _ = integrate_levin(lambda x: g(x).real, *args)
        im, _ = integrate_levin(lambda x: g(x).imag, *args)
        assert abs(whole - (re + 1j * im)) <= 1e-14 * abs(whole)

    def test_against_dense_simpson(self):
        from scipy.integrate import simpson

        t = 1e3
        g = lambda r: np.exp(-0.25 * r**2) / r  # noqa: E731
        val, _ = integrate_levin(g, lambda r: eval_dispersion(P, r),
                                 lambda r: dispersion_derivatives(P, r)[0], 2 * t,
                                 np.geomspace(2.0, 9.0, 9), 1e-12)
        r = np.linspace(2.0, 9.0, 2_000_001)
        oracle = simpson(g(r) * np.exp(2j * t * eval_dispersion(P, r)), x=r)
        assert abs(val - oracle) <= 1e-10 * abs(oracle)

    def test_cost_does_not_grow_with_omega(self):
        nodes = {}
        for omega in (1e3, 1e9):
            calls = []

            def g(x):
                calls.append(x.size)
                return np.exp(-x) / (1.0 + x)

            integrate_levin(g, np.log1p, lambda x: 1.0 / (1.0 + x), omega,
                            np.linspace(0.0, 5.0, 9), 1e-10)
            nodes[omega] = sum(calls)
        assert nodes[1e9] <= 2 * nodes[1e3]
        assert nodes[1e3] <= 2 * 8 * LEVIN_POINTS

    def test_refinement_stops_at_rounding_level(self):
        # the width-proportional share of 1e-16 cannot be met; the panels
        # stop once |I17 - I9| is at rounding level
        calls = []

        def g(x):
            calls.append(x.size)
            return np.exp(-x)

        val, _ = integrate_levin(g, lambda x: x, _ones, 2e7, np.linspace(1.0, 2.0, 5), 1e-16)
        exact = (np.exp((-1 + 2e7j) * 2.0) - np.exp((-1 + 2e7j) * 1.0)) / (-1 + 2e7j)
        assert abs(val - exact) <= 1e-12 * abs(exact)
        assert len(calls) <= 4

    @pytest.mark.parametrize("omega", [1e4, 1e5, 1e6])
    def test_jump_inside_a_panel_is_resolved(self, omega):
        # the panel holding the jump at 0.4 is bisected to the round limit,
        # through the ill-conditioned Levin panels near one radian of phase
        val, err = integrate_levin(lambda x: np.where(x < 0.4, 1.0, 0.0), lambda x: x, _ones,
                                   omega, np.linspace(0.0, 1.0, 3), 1e-10)
        exact = _linear_exact(0.0, 0.4, omega)
        assert abs(val - exact) <= 1e-10
        assert err >= abs(val - exact)

    def test_stationary_phase_panel_stays_finite(self):
        # f' = 0: no Levin system is solved, the rule integrates g e^(i w c) directly
        val, _ = integrate_levin(lambda x: x, lambda x: np.full_like(x, 2.0), np.zeros_like,
                                 50.0, np.linspace(0.0, 1.0, 3), 1e-12)
        assert val == pytest.approx(0.5 * np.exp(100j), rel=1e-14)

    @pytest.mark.parametrize("part", ["g", "f", "fprime"])
    def test_non_finite_values_raise(self, part):
        fns = {"g": _ones, "f": lambda x: x, "fprime": _ones}
        fns[part] = lambda x: np.where(x > 0.5, np.nan, x)
        with pytest.raises(IntegrabilityError):
            integrate_levin(fns["g"], fns["f"], fns["fprime"], 1e3, np.linspace(0.0, 1.0, 5), 1e-10)

    def test_rejects_bad_edges(self):
        with pytest.raises(InputDomainError):
            integrate_levin(_ones, lambda x: x, _ones, 1e3, np.array([1.0, 0.5]), 1e-10)

