import math
import time

import numpy as np
import pytest
from scipy import integrate

from rosenau import (
    InputDomainError,
    IntegrabilityError,
    MomentDecomposition,
    RadialProfile,
    TailBound,
    fluctuation,
    gaussian_profile,
    l1_norm_and_l2_sq,
)
from rosenau import quadrature
from rosenau.model import unit_sphere_area
from rosenau.moments import _DEFAULT_M_GRID, _kernel_minus_one, _moment_constant, _radial_integrals

from conftest import panels

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-12)


def zeroth_moment(u1: RadialProfile) -> float:
    """The mass P = integral u1 dx, integrated as MomentDecomposition.from_profile
    integrates it, alone."""
    return _radial_integrals(u1, 0.0, 1e-12, lambda v, r: np.real(v.func(r)))


def weighted_l1_norm(u1: RadialProfile, gamma_exp: float) -> float:
    """||u1||_{1,gamma} of the decomposition of u1."""
    return MomentDecomposition.from_profile(u1, gamma_exp).weighted_norm


def _quad(fn, lo, hi, pieces=None):
    if pieces:
        total = 0.0
        cuts = [lo, *pieces, hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += integrate.quad(fn, a, b, **_QUAD_OPTS)[0]
        return total
    return integrate.quad(fn, lo, hi, **_QUAD_OPTS)[0]


def radial_fourier(u1: RadialProfile, rho: float) -> float:
    """Fourier transform of the radial profile at |xi| = rho (real for radial data).

    An oracle by scipy quad, independent of the package's K21 refinement.
    """
    n = u1.dim
    area = unit_sphere_area(n)
    if rho == 0.0:
        return zeroth_moment(u1)

    def integrand(r):
        val = float(np.real(u1.func(np.array([r]))[0]))
        return val * (1.0 + float(_kernel_minus_one(n, np.array([rho * r]))[0])) * r ** (n - 1)

    # the profile's kinks are breakpoints too, so a narrow shell is a piece
    # of its own
    breaks = [k * math.pi / rho for k in (1, 2, 4, 8, 16)] + list(u1.kinks)
    pieces = sorted(b for b in set(breaks) if 0.0 < b < u1.upper_limit())
    return area * _quad(integrand, 0.0, u1.upper_limit(), pieces=pieces)


def moment_bound_check(u1, gamma_exp, xi_grid):
    """The empirical moment constant M of u1 on the grid, as from_profile finds it."""
    return MomentDecomposition.from_profile(u1, gamma_exp, xi_grid).m_constant


def annular_profile(dim, r0, width):
    """The C^2 bump (1 - s^2)^3, s = (r - r0)/width, on the annulus |s| <= 1,
    its edges declared as kinks."""

    def func(r):
        s = (np.asarray(r, dtype=float) - r0) / width
        return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 3, 0.0)

    return RadialProfile(
        func, dim, TailBound(kind="compact", cutoff=r0 + width), kinks=(r0 - width, r0 + width)
    )


def indicator_profile(dim=1):
    return RadialProfile(
        func=lambda r: np.where(np.asarray(r, dtype=float) <= 1.0, 1.0, 0.0),
        dim=dim,
        tail=TailBound(kind="compact", cutoff=1.0),
        label="indicator",
    )


def p_moment(u1: RadialProfile) -> float:
    return MomentDecomposition.from_profile(u1, 1.0).p_moment


class TestZerothMoment:
    def test_gaussian_1d(self):
        assert p_moment(gaussian_profile(1)) == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_gaussian_2d(self):
        assert p_moment(gaussian_profile(2)) == pytest.approx(math.pi, rel=1e-10)

    def test_massless_profile(self):
        # (1 - r^2) e^(-r^2) has zero mass in 2-D; its integrand cancels, so a
        # relative error test on P alone could never pass
        massless = RadialProfile(
            func=lambda r: (1.0 - np.asarray(r) ** 2) * np.exp(-np.asarray(r) ** 2),
            dim=2,
            tail=TailBound(kind="gaussian", amplitude=1.0, rate=0.5),
        )
        assert p_moment(massless) == pytest.approx(0.0, abs=1e-14)

    def test_divergent_tail_rejected(self):
        slow = RadialProfile(
            func=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)),
            dim=1,
            tail=TailBound(kind="none"),
        )
        with pytest.raises(IntegrabilityError):
            p_moment(slow)


class TestFluctuation:
    def test_zero_frequency(self):
        assert fluctuation(gaussian_profile(1), [0.0]).tolist() == [0.0]

    def test_odd_part_vanishes_for_radial_data(self):
        # the whole transform, sine part included, integrated over the line:
        # P + A leaves nothing out
        profile = gaussian_profile(1)
        p = zeroth_moment(profile)
        for rho in (0.3, 1.0, 4.0):
            full = complex(
                _quad(lambda x: math.cos(rho * x) * math.exp(-(x**2)), -10.0, 10.0),
                -_quad(lambda x: math.sin(rho * x) * math.exp(-(x**2)), -10.0, 10.0),
            )
            assert abs(full.imag) <= 1e-15
            assert p + fluctuation(profile, [rho])[0] == pytest.approx(full, abs=1e-12)

    def test_gaussian_closed_form(self):
        # u1 = e^{-x^2} in 1-D has transform sqrt(pi) e^{-xi^2/4}
        (a,) = fluctuation(gaussian_profile(1), [1.0])
        expected = math.sqrt(math.pi) * (math.exp(-0.25) - 1.0)
        assert a == pytest.approx(expected, rel=1e-10)

    def test_a_number_gives_a_float(self):
        value = fluctuation(gaussian_profile(1), 1.0)
        assert isinstance(value, float)
        assert value == fluctuation(gaussian_profile(1), [1.0])[0]

    def test_accepts_vector_argument(self):
        # a grid gives each rho the value it gets alone
        grid = fluctuation(gaussian_profile(2), np.array([0.6, 0.8, 1.0]))
        for rho, value in zip((0.6, 0.8, 1.0), grid):
            assert value == pytest.approx(fluctuation(gaussian_profile(2), [rho])[0], rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_a_typed_error(self, bad):
        profile = gaussian_profile(1)
        with pytest.raises(InputDomainError, match="finite"):
            fluctuation(profile, [1.0, bad])
        with pytest.raises(InputDomainError):
            MomentDecomposition.from_profile(profile, 1.0, [1.0, bad])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("r0,width", [(2.0, 1.0), (2.7, 0.01)])
    def test_annular_profile_against_independent_transform(self, dim, r0, width):
        # the C^2 bump, cut at the edges of its support, against the quad
        # oracle minus the mass, for a wide annulus and a width-0.01 shell
        profile = annular_profile(dim, r0=r0, width=width)
        p = zeroth_moment(profile)
        rhos = np.array([0.3, 2.0, 9.0, 40.0])
        expected = [radial_fourier(profile, rho) - p for rho in rhos]
        np.testing.assert_allclose(fluctuation(profile, rhos), expected, rtol=1e-10)

    def test_reconstruction_against_independent_transform(self):
        profile = gaussian_profile(2)
        p = zeroth_moment(profile)
        for rho in (0.2, 0.9, 2.5, 6.0):
            (a,) = fluctuation(profile, [rho])
            direct = radial_fourier(profile, rho)
            assert p + a == pytest.approx(direct, abs=1e-8)


class TestPanelFluctuation:
    @staticmethod
    def kinked_profile(dim):
        # 1 on [0, 0.7), 1/2 on [0.7, 2], the jump declared as a kink
        return RadialProfile(
            func=lambda r: np.where(np.asarray(r) < 0.7, 1.0, 0.5),
            dim=dim,
            tail=TailBound(kind="compact", cutoff=2.0),
            kinks=(0.7,),
        )

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kinked", [False, True])
    def test_96_pieces_refine_as_their_listed_partitions_did(self, dim, kinked, monkeypatch):
        # the flat panel table of the 96 frequencies is each frequency's
        # own partition, listed: every kink interval of width w in
        # max(4, ceil(rho w / 8)) equal panels, at most 64; _refine gives
        # the same values from the list bit for bit
        from rosenau import moments

        calls = []
        refine = moments._kronrod_refine

        def recorded(fn, table, *args, **kwargs):
            calls.append((fn, table, args, kwargs, refine(fn, table, *args, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(moments, "_kronrod_refine", recorded)
        u1 = self.kinked_profile(dim) if kinked else gaussian_profile(dim)
        rhos = np.geomspace(1e-3, 50.0, 96)
        fluctuation(u1, rhos)
        ((fn, table, args, kwargs, value),) = calls
        cuts = [0.0, *u1.kinks, u1.upper_limit()]
        listed = []
        for rho in rhos:
            edges = []
            for a, b in zip(cuts[:-1], cuts[1:]):
                count = min(max(4, math.ceil(rho * (b - a) / 8.0)), 64)
                edges.extend(np.linspace(a, b, count + 1)[:-1].tolist())
            listed.append(edges + [cuts[-1]])
        listed = panels(*listed)
        for column, expected in zip(table, listed):
            assert np.array_equal(column, expected)
        again = refine(fn, listed, *args, **kwargs)
        assert np.array_equal(again[0], value[0]) and np.array_equal(again[1], value[1])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_closed_form_on_the_default_grid(self, dim):
        # u1 = e^(-|x|^2) has the transform pi^(n/2) e^(-rho^2/4)
        rhos = np.geomspace(1e-3, 50.0, 96)
        values = fluctuation(gaussian_profile(dim), rhos)
        expected = math.pi ** (dim / 2) * np.expm1(-0.25 * rhos**2)
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kernel_rows_stay_within_the_row_bound(self, dim, monkeypatch):
        # the nodes of the 96 frequencies of the default grid reach the
        # kernel in blocks, so that none of its temporaries exceeds the row
        # bound
        from rosenau import moments

        sizes = []
        kernel = moments._kernel_minus_one

        def counted(n, s):
            sizes.append(np.size(s))
            return kernel(n, s)

        monkeypatch.setattr(moments, "_kernel_minus_one", counted)
        MomentDecomposition.from_profile(gaussian_profile(dim), 1.0)
        assert len(sizes) > 1
        assert max(sizes) <= quadrature._ROW_BLOCK_VALUES < sum(sizes)

    def test_each_frequency_is_refined_alone(self, monkeypatch):
        # one piece per rho, each on the panels its own frequency needs: the
        # 96 frequencies of the n = 2 Gaussian take under 1,400 panels (one
        # value per panel and frequency) in at most 3 rounds, where rows
        # sharing the partition of the highest frequency took 96 x 78, and
        # the per-decade start 2,722 in 7 rounds
        panels = []
        panel_integrals = quadrature.panel_integrals

        def counted(fn, lo, hi, t=None):
            def values(*args):
                out = fn(*args)
                panels.append(np.size(out) // quadrature.KRONROD_POINTS)
                return out

            return panel_integrals(values, lo, hi, t)

        monkeypatch.setattr(quadrature, "panel_integrals", counted)
        rhos = np.geomspace(1e-3, 50.0, 96)
        values = fluctuation(gaussian_profile(2), rhos)
        assert sum(panels) <= 1400
        assert len(panels) <= 3
        for rho, value in zip(rhos[::19], values[::19]):
            assert fluctuation(gaussian_profile(2), [rho])[0] == pytest.approx(value, rel=1e-15, abs=0.0)

    def test_kernel_minus_one_has_no_cancellation(self):
        s = np.array([1e-6, 1e-3, 0.1])
        two = -(s**2) / 4 + s**4 / 64 - s**6 / 2304 + s**8 / 147456
        three = -(s**2) / 6 + s**4 / 120 - s**6 / 5040 + s**8 / 362880
        np.testing.assert_allclose(_kernel_minus_one(2, s), two, rtol=1e-14)
        np.testing.assert_allclose(_kernel_minus_one(3, s), three, rtol=1e-14)

    def test_bound_check_is_the_pointwise_maximum(self):
        profile = gaussian_profile(2, a=0.7)
        grid = np.geomspace(1e-2, 30.0, 12)
        wnorm = weighted_l1_norm(profile, 0.5)
        pointwise = max(abs(fluctuation(profile, [rho])[0]) / (rho**0.5 * wnorm) for rho in grid)
        assert moment_bound_check(profile, 0.5, grid) == pytest.approx(pointwise, rel=1e-12)

    def test_power_tail_is_rejected(self):
        # 1 / (1 + x^2) is integrable but has no finite certified radius
        lorentzian = RadialProfile(
            func=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2),
            dim=1,
            tail=TailBound(kind="none"),
        )
        with pytest.raises(IntegrabilityError):
            zeroth_moment(lorentzian)
        with pytest.raises(IntegrabilityError):
            fluctuation(lorentzian, [1.0])
        with pytest.raises(IntegrabilityError):
            moment_bound_check(lorentzian, 0.5, [0.1, 1.0])

    def test_jump_inside_the_support_takes_the_quad_path(self):
        # 1 on [0, 0.7), 1/2 on [0.7, 2]: declared as a kink, the jump is a
        # panel edge and A is exact to rounding; undeclared, it falls inside
        # a panel that no number of bisection rounds resolves to 1e-12, and
        # the fluctuation raises instead of returning a 1e-9 answer
        def step(kinks):
            return RadialProfile(
                func=lambda r: np.where(np.asarray(r) < 0.7, 1.0, 0.5),
                dim=1,
                tail=TailBound(kind="compact", cutoff=2.0),
                kinks=kinks,
            )

        rhos = np.array([0.5, 3.0, 20.0])
        expected = 2.0 * ((np.sin(0.7 * rhos) + np.sin(2.0 * rhos)) / (2.0 * rhos) - 1.35)
        np.testing.assert_allclose(fluctuation(step((0.7,)), rhos), expected, rtol=1e-12)
        with pytest.raises(IntegrabilityError, match="unresolved"):
            fluctuation(step(()), rhos)


    def test_jumps_the_round_cap_cannot_resolve_raise(self):
        # a square wave with 1000 jumps: after the last bisection round the
        # panels still failing carry far more than 1e-12 of |A(rho)|, so the
        # values are not returned as if they met their tolerance
        square = RadialProfile(
            func=lambda r: np.sign(np.sin(1000.0 * math.pi * np.asarray(r))),
            dim=1,
            tail=TailBound(kind="compact", cutoff=1.0),
        )
        with pytest.raises(IntegrabilityError, match="unresolved"):
            fluctuation(square, np.array([0.5, 3.0, 20.0]))

    def test_jumps_declared_as_kinks_match_the_closed_form(self):
        # the same square wave with its 999 jumps declared: each jump is a
        # panel edge, and A is the sum over the half-periods [a, b] of
        # +-((sin(rho b) - sin(rho a)) / rho - (b - a)), times omega_1 = 2
        cuts = np.arange(1001) / 1000.0
        square = RadialProfile(
            func=lambda r: np.sign(np.sin(1000.0 * math.pi * np.asarray(r))),
            dim=1,
            tail=TailBound(kind="compact", cutoff=1.0),
            kinks=tuple(cuts[1:-1].tolist()),
        )
        rhos = np.array([0.5, 3.0, 20.0])
        a, b, sign = cuts[:-1], cuts[1:], (-1.0) ** np.arange(1000)
        expected = [2.0 * np.sum(sign * ((np.sin(rho * b) - np.sin(rho * a)) / rho - (b - a))) for rho in rhos]
        np.testing.assert_allclose(fluctuation(square, rhos), expected, rtol=1e-9)

    def test_unbounded_oscillation_stops_at_the_panel_cap(self, monkeypatch):
        # sin(200 ln|r - 1/2|) oscillates without bound at r = 1/2, so the
        # failing panels grow about 1.5-fold a round: millions and gigabytes
        # by round 30.  The refinement's work budget stops it after 20
        # rounds and about 186 k panels; it must raise in
        # well under 2 s, and the panel count stops a regression before it
        # exhausts memory.
        panels = []
        panel_integrals = quadrature.panel_integrals

        def counted(fn, lo, hi, t=None):
            panels.append(np.size(lo))
            assert sum(panels) <= 250_000, "refinement ran past its panel cap"
            return panel_integrals(fn, lo, hi, t)

        monkeypatch.setattr(quadrature, "panel_integrals", counted)
        spiral = RadialProfile(
            func=lambda r: np.sin(200.0 * np.log(np.abs(np.asarray(r) - 0.5))),
            dim=1,
            tail=TailBound(kind="compact", cutoff=1.0),
        )
        start = time.perf_counter()
        with pytest.raises(IntegrabilityError, match="unresolved"):
            fluctuation(spiral, np.array([0.5, 3.0, 20.0]))
        assert time.perf_counter() - start < 2.0

    def test_fast_oscillation_gives_up_within_seconds(self):
        # u1 = cos(1e7 r) e^(-r^2) in 2-D on the default grid: no A(rho)
        # meets 1e-12, and every failing panel doubles each round; the work
        # budget stops it in about 0.5 s.
        u1 = RadialProfile(
            func=lambda r: np.cos(1e7 * np.asarray(r)) * np.exp(-np.asarray(r) ** 2),
            dim=2,
            tail=TailBound(kind="gaussian", amplitude=1.0, rate=1.0),
        )
        start = time.perf_counter()
        with pytest.raises(IntegrabilityError, match="unresolved"):
            fluctuation(u1, _DEFAULT_M_GRID)
        assert time.perf_counter() - start < 5.0


class TestWeightedNorm:
    def test_gaussian_1d_gamma_one(self):
        assert weighted_l1_norm(gaussian_profile(1), 1.0) == pytest.approx(
            math.sqrt(math.pi) + 1.0, rel=1e-10
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.3, 0.6])
    def test_gaussian_fractional_gamma(self, dim, gamma):
        # integral (1 + |x|^gamma) e^(-|x|^2) dx
        # = (omega_n / 2) [Gamma(n/2) + Gamma((n + gamma)/2)]: r^gamma is not
        # smooth at r = 0, so the panel [0, 1] is bisected towards it
        expected = 0.5 * unit_sphere_area(dim) * (math.gamma(dim / 2) + math.gamma((dim + gamma) / 2))
        assert weighted_l1_norm(gaussian_profile(dim), gamma) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_small_gamma_limit(self):
        profile = gaussian_profile(1)
        val = weighted_l1_norm(profile, 1e-6)
        assert val == pytest.approx(2.0 * l1_norm_and_l2_sq(profile)[0], rel=1e-4)

    def test_indicator(self):
        assert weighted_l1_norm(indicator_profile(), 1.0) == pytest.approx(3.0, rel=1e-10)

    def test_dominates_plain_l1(self):
        for gamma in (0.25, 0.6, 1.0):
            profile = gaussian_profile(2, a=0.7)
            assert weighted_l1_norm(profile, gamma) >= l1_norm_and_l2_sq(profile)[0]

    def test_rejects_bad_gamma(self):
        with pytest.raises(InputDomainError):
            weighted_l1_norm(gaussian_profile(1), 1.5)


class TestMomentBound:
    GRID = np.geomspace(1e-2, 30.0, 40)

    def test_gamma_one_cap(self):
        m = moment_bound_check(gaussian_profile(1), 1.0, self.GRID)
        assert 0 < m <= 2.0

    def test_analytic_ceiling(self):
        for gamma in (0.3, 0.7, 1.0):
            m = moment_bound_check(gaussian_profile(2), gamma, self.GRID)
            assert m <= 2.0 ** (1.0 - gamma) + 1.0

    def test_narrow_bump_constant_vanishes(self):
        narrow = gaussian_profile(1, a=1e6)  # width ~ 1e-3
        m = moment_bound_check(narrow, 1.0, np.geomspace(1e-3, 1e-1, 10))
        assert m <= 1e-2

    def test_scaling_invariance(self):
        base = gaussian_profile(1)
        scaled = gaussian_profile(1, amplitude=37.5)
        m1 = moment_bound_check(base, 1.0, self.GRID)
        m2 = moment_bound_check(scaled, 1.0, self.GRID)
        assert m2 == pytest.approx(m1, rel=1e-12)

    def test_rejects_zero_in_grid(self):
        with pytest.raises(InputDomainError):
            moment_bound_check(gaussian_profile(1), 1.0, np.array([0.0, 1.0, 2.0, 3.0, 4.0]))


class TestDecomposition:
    def test_integrates_each_norm_once(self, monkeypatch):
        # P, ||u1||_1, ||u1||_{1,gamma} and ||u1||_2^2 as four rows of one
        # radial integral, and A on the frequency grid in one refinement
        # from its own panel table
        from rosenau import moments

        calls, refinements = [], []
        integrate_radial, refine = moments.integrate_radial, moments._kronrod_refine

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_radial(*args, **kwargs)

        def refined(*args, **kwargs):
            refinements.append(args)
            return refine(*args, **kwargs)

        monkeypatch.setattr(moments, "integrate_radial", counted)
        monkeypatch.setattr(moments, "_kronrod_refine", refined)
        dec = MomentDecomposition.from_profile(gaussian_profile(1), 1.0)
        assert len(calls) == 1 and len(refinements) == 1
        assert dec.weighted_norm == pytest.approx(math.sqrt(math.pi) + 1.0, rel=1e-10)
        wnorm = _radial_integrals(gaussian_profile(1), 0.0, 1e-12, lambda v, r: (1.0 + r) * np.abs(v.func(r)))
        assert dec.m_constant == _moment_constant(gaussian_profile(1), 1.0, moments._DEFAULT_M_GRID, wnorm)
        # each row as it is alone
        assert dec.l1 == _radial_integrals(gaussian_profile(1), 0.0, 1e-12, moments._absolute)
        assert dec.p_moment == zeroth_moment(gaussian_profile(1))
        assert dec.weighted_norm == wnorm
        assert dec.l2_sq == _radial_integrals(gaussian_profile(1), 0.0, 1e-12, moments._squared)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_l1_and_l2_as_two_rows_of_one_call(self, dim, monkeypatch):
        from rosenau import moments

        calls = []
        integrate_radial = moments.integrate_radial

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_radial(*args, **kwargs)

        monkeypatch.setattr(moments, "integrate_radial", counted)
        l1, l2_sq = l1_norm_and_l2_sq(gaussian_profile(dim))
        assert len(calls) == 1
        # u1 = e^(-|x|^2): ||u1||_1 = pi^(n/2), ||u1||_2^2 = (pi/2)^(n/2)
        assert l1 == pytest.approx(math.pi ** (dim / 2), rel=1e-12)
        assert l2_sq == pytest.approx((math.pi / 2) ** (dim / 2), rel=1e-12)

    def test_norm_chain(self):
        dec = MomentDecomposition.from_profile(gaussian_profile(1), 1.0)
        assert dec.weighted_norm >= dec.l1 >= abs(dec.p_moment)

    def test_annular_profile_mass(self):
        profile = annular_profile(2, r0=2.0, width=1.0)
        # omega_2 * integral (1-s^2)^3 r dr over [1, 3]: closed form via substitution
        s = np.polynomial.legendre.leggauss(64)
        nodes = 2.0 + s[0]
        mass = 2 * math.pi * float(np.sum(s[1] * (1 - (nodes - 2.0) ** 2) ** 3 * nodes))
        assert p_moment(profile) == pytest.approx(mass, rel=1e-10)


class TestRadialKernelOracle:
    """The numpy-only kernel, 1 + _kernel_minus_one, against scipy's J_nu,
    and mpmath below |s| = 1."""

    # dense around s0 = 25, where the even dims hand over from the Chebyshev
    # series to Hankel's expansion
    S = np.unique(np.concatenate([
        np.linspace(1.0, 60.0, 20001),
        np.linspace(24.0, 26.0, 4001),
        np.geomspace(1.0, 2e3, 20001),
    ]))

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_scipy_bessel_from_one_to_2e3(self, dim):
        from scipy.special import gamma, jv

        nu = dim / 2.0 - 1.0
        expected = gamma(dim / 2.0) * (2.0 / self.S) ** nu * jv(nu, self.S)
        assert np.max(np.abs(1.0 + _kernel_minus_one(dim, self.S) - expected)) <= 5e-15
        np.testing.assert_array_equal(_kernel_minus_one(dim, -self.S), _kernel_minus_one(dim, self.S))

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_matches_mpmath(self, dim):
        # below |s| = 1 scipy's jv itself is off by up to 4.7e-15 (n = 5)
        mpmath = pytest.importorskip("mpmath")
        s = np.concatenate([[0.0], np.geomspace(1e-7, 1.0, 40), np.linspace(1.0, 80.0, 81)])
        with mpmath.workdps(40):
            half = mpmath.mpf(dim) / 2
            expected = [1.0] + [
                float(mpmath.gamma(half) * (2 / mpmath.mpf(x)) ** (half - 1)
                      * mpmath.besselj(half - 1, mpmath.mpf(x)))
                for x in s[1:]
            ]
        assert np.max(np.abs(1.0 + _kernel_minus_one(dim, s) - expected)) <= 4e-15

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_continuous_where_the_evaluation_changes(self, dim):
        from rosenau.moments import _integer_order_tables, _series_radius

        handovers = {1.0, _series_radius(dim)}
        if dim % 2 == 0:
            handovers.add(_integer_order_tables(dim)[0])
        for h in handovers:
            s = np.array([np.nextafter(h, 0.0), h])
            # one ulp of s moves the kernel by under 1e-15 (|K'| <= 1/n), and
            # either evaluation is within 1e-15 of J_nu there
            assert abs(np.diff(_kernel_minus_one(dim, s))[0]) <= 2e-15

    def test_keeps_the_shape_of_its_argument(self):
        assert _kernel_minus_one(2, 0.0).shape == ()
        assert float(_kernel_minus_one(2, 0.0)) == 0.0
        assert _kernel_minus_one(4, np.ones((3, 2))).shape == (3, 2)
        assert np.isnan(_kernel_minus_one(2, np.nan))
