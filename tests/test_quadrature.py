import math
import re
import tracemalloc

import numpy as np
import pytest

from rosenau import InputDomainError, IntegrabilityError, ModelParams
from rosenau.model import dispersion_derivatives, eval_dispersion
from rosenau import quadrature
from rosenau.quadrature import (
    KRONROD_POINTS,
    LEVIN_POINTS,
    integrate_levin,
    integrate_radial,
    panel_integrals,
)

from conftest import k21_refine, panels, phase_edges

P = ModelParams(1.0, 1.0, 1.0, 2.0, 1)


def reported(exc):
    """The estimate and the error estimate that an unresolved refinement
    reports in its IntegrabilityError."""
    match = re.search(r"estimate (\S+) with error (\S+)$", str(exc))
    return complex(match[1]), float(match[2])


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
        val, err = k21_refine(counted, np.linspace(0.0, 3.0, panels + 1), 1e-10)
        assert sum(calls) == KRONROD_POINTS * panels
        assert val == pytest.approx(1.0 - math.exp(-3.0), rel=1e-14)
        assert err <= 1e-10 * val

    def test_bisects_only_failing_panels(self):
        calls = []

        def counted(x):
            calls.append(x.size)
            return np.sqrt(x)

        val, _ = k21_refine(counted, np.linspace(0.0, 1.0, 5), 1e-8)
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

        val, _ = k21_refine(counted, np.linspace(0.0, 1.0, 5), 1e-20)
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
    def test_exhausted_rounds_error_covers_true_error(self, fn, lo, hi, exact, max_rounds, monkeypatch):
        # the refinement raises at its depth cap, and the error estimate it
        # reports covers the error of the estimate it reports
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", max_rounds)
        with pytest.raises(IntegrabilityError, match=f"unresolved after {max_rounds} rounds") as info:
            k21_refine(fn, np.linspace(lo, hi, 3), 1e-15)
        val, err = reported(info.value)
        assert err >= abs(val - exact)
        assert err > 0.0


class TestRadial:
    def test_cuts_at_kinks_and_decades(self):
        # one table: [lo, hi] cut at the kinks and at the powers of ten from
        # lo's decade, or from 1 when lo = 0, so a piece from 0 is cut only
        # at its kinks, 1, 10, ...
        def edges(lo, hi, kinks=()):
            return quadrature._radial_edges(lo, hi, kinks).tolist()

        assert edges(0.5, 60.0, (2.0,)) == [0.5, 1.0, 2.0, 10.0, 60.0]
        assert edges(2e-3, 0.5) == [2e-3, 1e-2, 0.1, 0.5]
        assert edges(0.0, 20.0, (1.0, 20.0)) == [0.0, 1.0, 10.0, 20.0]
        assert edges(0.0, 20.0, (0.3,)) == [0.0, 0.3, 1.0, 10.0, 20.0]
        assert edges(0.0, 0.5, (0.1,)) == [0.0, 0.1, 0.5]

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    def test_a_power_at_the_origin_is_bisected_to_its_closed_form(self, alpha):
        # integral_0^8 r^alpha e^(-r^2) dr = Gamma((alpha + 1)/2) / 2, the
        # tail beyond 8 being below e^-64: the panel [0, 1] is bisected
        # towards r = 0
        value = integrate_radial(lambda r: r**alpha * np.exp(-r * r), 0.0, 8.0, rel_tol=1e-12)
        assert value == pytest.approx(math.gamma(0.5 * (alpha + 1.0)) / 2.0, rel=1e-13, abs=0.0)

    def test_an_origin_singularity_at_a_tight_tolerance_raises(self):
        # r^(-1/2) at r = 0 is integrable, but the depth cap leaves its
        # panel at the origin about 1.5e-6 off: an error, not a value
        with pytest.raises(IntegrabilityError, match=r"\[0, 8\] unresolved after 30 rounds"):
            integrate_radial(lambda r: np.exp(-r * r) / np.sqrt(r), 0.0, 8.0, rel_tol=1e-10)

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

    def test_a_parameter_per_interval_matches_one_call_per_interval(self):
        # fn(r, param at each node): intervals whose integrands differ in a
        # number are the pieces of one refinement, each as if alone, to
        # 1e-15 of the integral of |fn|, which is below 1: the accepted
        # panels of a piece are summed in another order than alone, which
        # shows where the value cancels (w = 40)
        def fn(x, w):
            return np.exp(-x) * np.cos(w * x) / (1.0 + x)

        freqs = np.array([0.0, 0.5, 3.0, 40.0, 3.0])
        his = np.array([0.9, 2.0, 2.0, 7.0, 5.0])
        values = integrate_radial(fn, 0.0, his, (1.5,), rel_tol=1e-12, param=freqs)
        assert values.shape == (5,)
        for k in range(5):
            alone = integrate_radial(lambda x: fn(x, freqs[k]), 0.0, his[k], (1.5,), rel_tol=1e-12)
            assert values[k] == pytest.approx(alone, rel=1e-15, abs=1e-15)
        # an array of parameters alone makes the pieces: one interval each
        shared = integrate_radial(fn, 0.0, 2.0, rel_tol=1e-12, param=freqs)
        assert shared.shape == (5,)
        for w, value in zip(freqs, shared):
            alone = integrate_radial(lambda x: fn(x, w), 0.0, 2.0, rel_tol=1e-12)
            assert value == pytest.approx(alone, rel=1e-15, abs=1e-15)
        # a scalar parameter keeps the scalar result
        assert type(integrate_radial(fn, 0.0, 2.0, rel_tol=1e-12, param=3.0)) is float

    def test_unresolved_piece_is_named(self):
        fn = lambda x: np.where(x < 1.0, np.exp(-x), np.sin(1e9 * x) ** 2)  # noqa: E731
        with pytest.raises(IntegrabilityError, match=r"\[2, 6\.5\]"):
            integrate_radial(fn, np.array([0.5, 2.0]), np.array([0.6, 6.5]), rel_tol=1e-12)

    def test_returns_python_floats(self):
        value = integrate_radial(np.exp, 0.0, 1.0, rel_tol=1e-12)
        assert type(value) is float


def test_adaptive_gaussian_integral():
    val, err = k21_refine(
        lambda x: np.exp(-(x**2)), np.linspace(0.0, 12.0, 9), 1e-10
    )
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
    assert err <= 1e-8


def test_adaptive_oscillatory_against_closed_form():
    # integral_0^1 sin(omega x) dx = (1 - cos(omega))/omega
    omega = 2000.0
    edges = np.linspace(0.0, 1.0, 600)
    val, _ = k21_refine(lambda x: np.sin(omega * x), edges, 1e-10)
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
        # what the refinement gives each piece by itself, to rounding: a
        # panel's K21 - G10 may differ in its last bits with the panels
        # evaluated beside it
        fn = lambda x: np.sqrt(x) * np.cos(30.0 * x)  # noqa: E731
        pieces = [np.linspace(0.0, 0.4, 3), np.linspace(0.4, 2.0, 5), np.array([2.5, 3.0])]
        abs_tols = np.array([0.0, 1e-9, 1e-14])
        values, errors = quadrature._kronrod_refine(fn, panels(*pieces), 1e-11, abs_tols)
        for edges, abs_tol, value, error in zip(pieces, abs_tols, values, errors):
            alone, alone_error = k21_refine(fn, edges, 1e-11, abs_tol)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_levin_pieces_as_if_alone(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        pieces = [np.linspace(0.5, 1.0, 3), np.linspace(1.0, 4.0, 5)]
        values, errors = integrate_levin(g, _square, 300.0, panels(*pieces), 1e-10, np.array([1e-13, 0.0]))
        assert values.shape == errors.shape == (2,)
        for edges, abs_tol, value, error in zip(pieces, (1e-13, 0.0), values, errors):
            (alone,), (alone_error,) = integrate_levin(g, _square, 300.0, panels(edges), 1e-10, abs_tol)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_a_small_piece_keeps_its_own_rel_tol(self):
        # the small piece would meet a budget shared with the large one on
        # far coarser panels; held to rel_tol of its own value, it is resolved
        fn = lambda x: np.where(x < 1.0, 1e-9 * np.sqrt(np.abs(x)), np.exp(x))  # noqa: E731
        pieces = [np.linspace(0.0, 1.0, 3), np.linspace(1.0, 2.0, 3)]
        values, _ = quadrature._kronrod_refine(fn, panels(*pieces), 1e-10)
        assert values[0] == pytest.approx(2e-9 / 3.0, rel=1e-10, abs=0.0)
        assert values[1] == pytest.approx(math.e**2 - math.e, rel=1e-10, abs=0.0)
        shared, _ = k21_refine(fn, np.linspace(0.0, 2.0, 5), 1e-10)
        coarse, _ = k21_refine(fn, np.linspace(0.0, 1.0, 3), 0.0, 1e-10 * abs(shared))
        assert abs(coarse - 2e-9 / 3.0) > 1e-10 * 2e-9 / 3.0


    def test_k21_pieces_with_their_own_time(self):
        # fn(x, t) with one time per piece: each piece as the refinement
        # gives it alone with its time fixed
        fn = lambda x, t: np.cos(t * x) * np.exp(-x)  # noqa: E731
        pieces = [np.linspace(0.0, 1.0, 3), np.linspace(1.0, 3.0, 5), np.linspace(0.5, 2.0, 4)]
        times = np.array([3.0, 40.0, 0.0])
        values, errors = quadrature._kronrod_refine(fn, panels(*pieces), 1e-11, t=times)
        for edges, t, value, error in zip(pieces, times, values, errors):
            alone, alone_error = k21_refine(lambda x: fn(x, t), edges, 1e-11)  # noqa: B023
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)

    def test_levin_pieces_with_their_own_omega(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        pieces = [np.linspace(0.5, 1.0, 3), np.linspace(1.0, 4.0, 5), np.linspace(0.5, 2.0, 4)]
        omegas = np.array([300.0, 7.0, 2e4])
        values, errors = integrate_levin(g, _square, omegas, panels(*pieces), 1e-10)
        for edges, omega, value, error in zip(pieces, omegas, values, errors):
            (alone,), (alone_error,) = integrate_levin(g, _square, omega, panels(edges), 1e-10)
            assert value == pytest.approx(alone, rel=1e-14)
            assert abs(error - alone_error) <= 1e-14 * abs(alone)


def test_levin_takes_the_phase_and_its_derivative_from_one_function():
    # one phase evaluation per amplitude evaluation, on the same nodes, and
    # the closed form of 2x e^(i w x^2) from it
    nodes = {"g": [], "phase": []}

    def g(x):
        nodes["g"].append(x.copy())
        return 2.0 * x

    def phase(x):
        nodes["phase"].append(x.copy())
        return _square(x)

    (val,), _ = integrate_levin(g, phase, 300.0, panels(np.linspace(0.5, 4.0, 6)), 1e-12)
    assert len(nodes["g"]) == len(nodes["phase"]) > 0
    for x_g, x_phase in zip(nodes["g"], nodes["phase"]):
        np.testing.assert_array_equal(x_g, x_phase)
    exact = (np.exp(300j * 16.0) - np.exp(300j * 0.25)) / 300j
    assert abs(val - exact) <= 1e-13 * abs(exact)


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

    def counted_levin(g, phase, omega, lo, hi):
        levin_panels.append(np.size(lo))
        return levin_chunk(g, phase, omega, lo, hi)

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
    a = k21_refine(fn, edges, 1e-9)
    b = k21_refine(fn, edges, 1e-9)
    assert a == b


class TestWorkBudget:
    """A refinement stops before a round that would take it past its budget
    of panel-rows, one integrand row on one panel, whatever its depth: its
    starting table, four panels a round through every round for each row
    of each piece, and _WORK more."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_no_round_passes_the_budget(self, rows, monkeypatch):
        # every panel fails, so the rounds evaluate 4, 8, 16, 32, 64, 128
        # panels; a budget of 4 + 4 * 30 + 100 panel-rows a row lets the
        # first five run (124 panels) and not the sixth
        monkeypatch.setattr(quadrature, "_WORK", 100 * rows)
        seen = []

        def failing(lo, hi, piece):
            seen.append(lo.size)
            return np.zeros((rows, lo.size)), np.ones((rows, lo.size)), np.zeros((rows, lo.size))

        with pytest.raises(IntegrabilityError, match=f"unresolved after 4 rounds and {124 * rows} panel-rows"):
            quadrature._refine(failing, panels(np.linspace(0.0, 1.0, 5)), 1e-10, 0.0)
        assert seen == [4, 8, 16, 32, 64]

    def test_the_starting_table_is_always_evaluated(self, monkeypatch):
        # a budget below the starting table still lets the first round run,
        # and an integrand it resolves returns
        monkeypatch.setattr(quadrature, "_WORK", 1)
        val, _ = k21_refine(np.exp, np.linspace(0.0, 1.0, 5), 1e-10)
        assert val == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_a_piece_resolves_in_a_call_of_any_size_as_alone(self):
        # k r ln r on [0, 1] is bisected towards r = 0 for 26 rounds, two
        # panels a round, before it meets 1e-12: 10,000 such pieces need
        # 520,000 panel-rows beyond their start, more than _WORK, and each
        # still resolves to what it resolves to alone
        k = np.linspace(1.0, 2.0, 10_000)
        edges = np.tile(np.linspace(0.0, 1.0, 3), (k.size, 1))
        work = []
        panel_integrals = quadrature.panel_integrals

        def counted(fn, lo, hi, t=None):
            work.append(np.size(lo))
            return panel_integrals(fn, lo, hi, t)

        def fn(r, k):
            return k * r * np.log(np.maximum(r, 1e-300))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadrature, "panel_integrals", counted)
            value, _ = quadrature._kronrod_refine(fn, quadrature._panel_table(edges), 1e-12, t=k)
        assert sum(work) - work[0] > quadrature._WORK
        np.testing.assert_allclose(value, -0.25 * k, rtol=1e-12)
        for i in (0, 4321, k.size - 1):
            alone, _ = quadrature._kronrod_refine(fn, panels(edges[i]), 1e-12, t=k[i : i + 1])
            assert value[i] == pytest.approx(alone[0], rel=1e-14, abs=0.0)

    def test_oscillating_rows_stop_within_the_budget(self, monkeypatch):
        # 62 rows of sin^2(t r) e^(-r^2), at t = 0 and the 61 times of a
        # 1e2..1e7 trace, on the energy's partition: the late rows cannot
        # meet 1e-12, and their failing panels double every round, so the
        # refinement must raise within its budget and a bounded memory
        ts = np.concatenate([[0.0], np.logspace(2.0, 7.0, 61)])[:, None]
        work = []
        panel_integrals = quadrature.panel_integrals

        def counted(fn, lo, hi, t=None):
            work.append(ts.size * np.size(lo))
            return panel_integrals(fn, lo, hi, t)

        monkeypatch.setattr(quadrature, "panel_integrals", counted)
        table = quadrature._panel_table(quadrature._radial_edges(0.0, 17.9, ()))
        tracemalloc.start()
        try:
            with pytest.raises(IntegrabilityError, match="unresolved"):
                quadrature._kronrod_refine(lambda r: np.sin(ts * r) ** 2 * np.exp(-r * r), table, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(work) <= work[0] + 4 * quadrature._MAX_ROUNDS * ts.size + quadrature._WORK
        assert peak <= 64e6


class TestNonFiniteIntegrand:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_raises_in_first_round(self, bad):
        nodes = []

        def fn(x):
            nodes.append(x.size)
            return np.where(x > 0.5, bad, x)

        with pytest.raises(IntegrabilityError, match="non-finite"), np.errstate(invalid="ignore"):
            k21_refine(fn, np.linspace(0.0, 1.0, 5), 1e-10)
        assert sum(nodes) <= KRONROD_POINTS * 4


def _ones(x):
    return np.ones_like(x)


def _linear(x):
    """The phase f(x) = x and its derivative."""
    return x, np.ones_like(x)


def _square(x):
    """The phase f(x) = x^2 and its derivative."""
    return x * x, 2.0 * x


def _linear_exact(a, b, omega):
    return (np.exp(1j * omega * b) - np.exp(1j * omega * a)) / (1j * omega)


class TestLevin:
    # omega below 2 puts the panels under one radian of phase, on the
    # Clenshaw-Curtis branch of the rule
    OMEGAS = [0.3, 1.0, 10.0, 1e3, 1e6, 1e9]

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_constant_amplitude_linear_phase_exact(self, omega):
        (val,), (err,) = integrate_levin(_ones, _linear, omega, panels(np.array([0.3, 2.0])), 1e-12)
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
        (val,), _ = integrate_levin(lambda x: x**3, _linear, omega, panels(np.linspace(-1.0, 2.0, 4)), 1e-12)
        assert abs(val - exact) <= 1e-13 * max(abs(exact), 1.0 / omega)

    @pytest.mark.parametrize("omega", OMEGAS)
    def test_nonlinear_phase_closed_form(self, omega):
        # 2x e^(i w x^2) has the antiderivative e^(i w x^2)/(i w)
        (val,), _ = integrate_levin(lambda x: 2 * x, _square, omega, panels(np.linspace(0.5, 3.0, 5)), 1e-12)
        exact = (np.exp(1j * omega * 9.0) - np.exp(1j * omega * 0.25)) / (1j * omega)
        assert abs(val - exact) <= 1e-13 * abs(exact)

    def test_complex_amplitude_is_linear(self):
        g = lambda x: np.exp(-x) * (1.0 + 0.5j * x)  # noqa: E731
        args = (_square, 300.0, panels(np.linspace(0.5, 3.0, 9)), 1e-12)
        (whole,), _ = integrate_levin(g, *args)
        (re,), _ = integrate_levin(lambda x: g(x).real, *args)
        (im,), _ = integrate_levin(lambda x: g(x).imag, *args)
        assert abs(whole - (re + 1j * im)) <= 1e-14 * abs(whole)

    def test_against_dense_simpson(self):
        from scipy.integrate import simpson

        t = 1e3
        g = lambda r: np.exp(-0.25 * r**2) / r  # noqa: E731
        (val,), _ = integrate_levin(
            g, lambda r: (eval_dispersion(P, r), dispersion_derivatives(P, r)[0]), 2 * t,
            panels(np.geomspace(2.0, 9.0, 9)), 1e-12,
        )
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

            integrate_levin(g, lambda x: (np.log1p(x), 1.0 / (1.0 + x)), omega,
                            panels(np.linspace(0.0, 5.0, 9)), 1e-10)
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

        (val,), _ = integrate_levin(g, _linear, 2e7, panels(np.linspace(1.0, 2.0, 5)), 1e-16)
        exact = (np.exp((-1 + 2e7j) * 2.0) - np.exp((-1 + 2e7j) * 1.0)) / (-1 + 2e7j)
        assert abs(val - exact) <= 1e-12 * abs(exact)
        assert len(calls) <= 4

    @pytest.mark.parametrize("omega", [1e4, 1e5, 1e6])
    def test_jump_inside_a_panel_raises_at_the_cap(self, omega):
        # the panel holding the jump at 0.4 is bisected to the round limit,
        # through the ill-conditioned Levin panels near one radian of phase,
        # and still misses rel_tol: the refinement raises, and reports an
        # estimate within 1e-10 and an error estimate that covers its error
        with pytest.raises(IntegrabilityError, match="unresolved after 30 rounds") as info:
            integrate_levin(lambda x: np.where(x < 0.4, 1.0, 0.0), _linear,
                            omega, panels(np.linspace(0.0, 1.0, 3)), 1e-10)
        val, err = reported(info.value)
        exact = _linear_exact(0.0, 0.4, omega)
        assert abs(val - exact) <= 1e-10
        assert err >= abs(val - exact)

    def test_stationary_phase_panel_stays_finite(self):
        # f' = 0: no Levin system is solved, the rule integrates g e^(i w c) directly
        (val,), _ = integrate_levin(lambda x: x, lambda x: (np.full_like(x, 2.0), np.zeros_like(x)),
                                    50.0, panels(np.linspace(0.0, 1.0, 3)), 1e-12)
        assert val == pytest.approx(0.5 * np.exp(100j), rel=1e-14)

    @pytest.mark.parametrize("part", ["g", "f", "fprime"])
    def test_non_finite_values_raise(self, part):
        fns = {"g": _ones, "f": lambda x: x, "fprime": _ones}
        fns[part] = lambda x: np.where(x > 0.5, np.nan, x)
        phase = lambda x: (fns["f"](x), fns["fprime"](x))  # noqa: E731
        with pytest.raises(IntegrabilityError):
            integrate_levin(fns["g"], phase, 1e3, panels(np.linspace(0.0, 1.0, 5)), 1e-10)

    def test_rejects_bad_edges(self):
        with pytest.raises(InputDomainError):
            integrate_levin(_ones, _linear, 1e3, panels(np.array([1.0, 0.5])), 1e-10)

    def test_rows_share_every_panel_and_each_factorization(self, monkeypatch):
        # three rows, one complex, over two pieces at two frequencies, one of
        # them below a radian per panel: each row as it is alone, from as
        # many Levin solves as the row that takes the most rounds alone
        rows = [
            lambda x: np.exp(-(x**2)),
            lambda x: (0.3 + 1.0j) * x * np.exp(-0.5 * x),
            lambda x: np.cos(3.0 * x) / (1.0 + x),
        ]
        args = (_square, [0.2, 200.0], panels(np.linspace(0.5, 1.5, 5), np.linspace(1.5, 3.0, 5)), 1e-10)
        solves = []
        solve = quadrature._levin_solve

        def counted(*a):
            solves.append(1)
            return solve(*a)

        monkeypatch.setattr(quadrature, "_levin_solve", counted)
        together, errors = integrate_levin(lambda x: np.stack([g(x) for g in rows]), *args)
        shared, most = len(solves), 0
        assert together.shape == errors.shape == (3, 2)
        for g, row in zip(rows, together):
            del solves[:]
            alone, _ = integrate_levin(g, *args)
            np.testing.assert_allclose(row, alone, rtol=1e-13, atol=0.0)
            most = max(most, len(solves))
        assert shared == most



def _norm_of_a_gaussian():
    from rosenau import gaussian_velocity_data, norm_squared

    return norm_squared(P, gaussian_velocity_data(1), 1e3)


def _wellposed_checks():
    from rosenau.wellposed import dissipativity_residual, sobolev_equivalence_check

    gauss = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)  # noqa: E731
    sobolev_equivalence_check(P, gauss)
    dissipativity_residual(P, gauss, lambda r: 1j * gauss(r))


def _energy_of_a_gaussian():
    from rosenau import gaussian_velocity_data, total_energy

    return total_energy(P, gaussian_velocity_data(1), [0.0, 1e3])


def _fluctuation_of_a_gaussian():
    from rosenau import fluctuation, gaussian_profile

    return fluctuation(gaussian_profile(1), [0.5, 40.0])


class TestRoundCap:
    """Every K21 and Levin refinement raises IntegrabilityError at the one
    depth cap of _refine, 30 rounds: integrate_radial, a direct
    _kronrod_refine, integrate_levin, the norm driver's two K21 refinements
    and its Levin one, wellposed (its two densities are rows of one
    refinement), the energy and the fluctuation."""

    # each caller and the number of refinements it makes
    CALLERS = {
        "integrate_radial": (lambda: integrate_radial(np.exp, 0.0, 1.0, rel_tol=1e-12), 1),
        "kronrod_refine": (lambda: quadrature._kronrod_refine(np.exp, panels(np.linspace(0.0, 1.0, 3)), 1e-12), 1),
        "integrate_levin": (
            lambda: integrate_levin(np.exp, _linear, 300.0, panels(np.linspace(0.0, 1.0, 3)), 1e-10),
            1,
        ),
        "norm_squared": (_norm_of_a_gaussian, 3),
        "wellposed": (_wellposed_checks, 2),
        "total_energy": (_energy_of_a_gaussian, 1),
        "fluctuation": (_fluctuation_of_a_gaussian, 1),
    }

    @staticmethod
    def failing_at(monkeypatch, which):
        """Make the which-th refinement never resolve its leftmost pending
        panel, one panel bisected per round, and record every refinement."""
        calls = []
        refine = quadrature._refine

        def refine_counted(rule, pieces, rel_tol, abs_tol):
            calls.append(rule)
            if len(calls) - 1 != which:
                return refine(rule, pieces, rel_tol, abs_tol)

            def failing(lo, hi, piece):
                val, err, floor = rule(lo, hi, piece)
                first = lo == lo.min()
                return val, np.where(first, 1.0 + np.abs(val), err), np.where(first, 0.0, floor)

            return refine(failing, pieces, rel_tol, abs_tol)

        monkeypatch.setattr(quadrature, "_refine", refine_counted)
        return calls

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_raises_at_its_cap(self, caller, monkeypatch):
        run, refinements = self.CALLERS[caller]
        for which in range(refinements):
            calls = self.failing_at(monkeypatch, which)
            with pytest.raises(IntegrabilityError, match=r"unresolved after 30 rounds and \d+ panel-rows: estimate"):
                run()
            assert len(calls) == which + 1
        # unpatched, every refinement resolves
        monkeypatch.undo()
        run()
