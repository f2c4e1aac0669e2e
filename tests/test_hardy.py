import math

import numpy as np
import pytest

from rosenau import (
    InputDomainError,
    IntegrabilityError,
    InvariantViolation,
    ModelParams,
    PreconditionError,
    RadialProfile,
    TailBound,
    WeightFunction,
    blowup_scan,
    capacity_family,
    dilation_family,
    energy_identity_check,
    gaussian_profile,
    gaussian_velocity_data,
    norm_squared,
    rellich_quotient,
)
from rosenau.evolution import cosc, propagator
from rosenau.hardy import (
    FAMILY_GRID,
    QuotientTrace,
    gradient_norm_sq,
    weighted_norm_sq,
    write_quotient_csv,
)
from rosenau.records import replace

R_GRID = np.exp(np.array([3.0, 5.0, 8.0, 12.0, 16.0]))


def rayleigh_quotient(u, weight):
    """||u/w||^2 / ||grad u||^2, from the two radial integrals blowup_scan divides."""
    return weighted_norm_sq(u, weight) / gradient_norm_sq(u)


def _counted_refinements(monkeypatch) -> list:
    """Count the calls of quadrature._refine into the returned list."""
    from rosenau import quadrature

    calls = []
    refine = quadrature._refine

    def counted(*args, **kwargs):
        calls.append(1)
        return refine(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_refine", counted)
    return calls


def compact(func, support, deriv=None, dim=1):
    """A profile on [0, support] with the given derivative."""
    return RadialProfile(func, dim, TailBound(kind="compact", cutoff=support), deriv=deriv)


class TestWeights:
    def test_a1_weight_positive_everywhere(self):
        w = WeightFunction("a1_weight", 2)
        r = np.linspace(0.0, 50.0, 101)
        assert np.all(w.evaluate(r) > 0)
        assert w.evaluate(0.0) == 1.0

    def test_vanishing_weights_reject_origin(self):
        for kind in ("plain_abs", "abs_log_weight", "abs_squared"):
            with pytest.raises(InputDomainError):
                WeightFunction(kind, 2).evaluate(np.array([0.0, 1.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputDomainError):
            WeightFunction("bogus", 2)


class TestCapacityFamily:
    def test_gradient_norm_closed_form(self):
        for log_r in (5.0, 10.0):
            u = capacity_family(math.exp(log_r))
            assert gradient_norm_sq(u) == pytest.approx(
                2 * math.pi / log_r, rel=1e-8
            )

    def test_plateau_and_support(self):
        R = math.exp(5.0)
        u = capacity_family(R)
        assert float(u.func(np.array([1.0]))[0]) == 1.0
        assert float(u.func(np.array([R]))[0]) == 0.0
        assert float(u.func(np.array([0.5]))[0]) == 1.0
        assert u.dim == 2 and u.upper_limit() == R

    def test_needs_large_parameter(self):
        with pytest.raises(InputDomainError):
            capacity_family(2.0)

    def test_numerator_floor_from_unit_disk(self):
        # u = 1 on the unit disk bounds the weighted norm from below, R-free
        w = WeightFunction("a1_weight", 2)
        floor = None
        for R in (math.e**4, math.e**8):
            u = capacity_family(R)
            val = weighted_norm_sq(u, w)
            disk = weighted_norm_sq(capacity_family(math.e**4), w)
            if floor is None:
                floor = disk
            assert val >= 0.5  # unit-disk mass alone is about 0.8
        assert floor > 0


class TestProfiles:
    """The quotients read the dimension, the radius and the derivatives
    from moments.RadialProfile."""

    @pytest.mark.parametrize("R", [0.7, 3.0, 10.0])
    def test_dilated_capacity_keeps_its_gradient_norm(self, R):
        # ||grad u||^2 is dilation-invariant in the plane; the dilation
        # carries the kinks 1 and e^3 to R and R e^3, and with them the cuts
        u = dilation_family(R, capacity_family(math.e**3))
        assert u.kinks == (R, R * math.e**3)
        assert u.upper_limit() == R * math.e**3
        assert gradient_norm_sq(u) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)

    def test_dilation_scales_a_gaussian_radius(self):
        base = gaussian_profile(3)
        u = dilation_family(4.0, base)
        assert u.dim == 3
        assert u.upper_limit() == pytest.approx(4.0 * base.upper_limit(), rel=1e-15)
        r = np.linspace(0.0, 30.0, 7)
        np.testing.assert_array_equal(u.func(r), base.func(r / 4.0))
        np.testing.assert_array_equal(u.second_deriv(r), base.second_deriv(r / 4.0) / 16.0)

    @pytest.mark.parametrize("scale", [1.0, 0.5, 3.0])
    def test_gaussian_derivatives_match_the_bump_closed_forms(self, scale):
        # exp(-(r/s)^2), -2 r/s^2 exp(-(r/s)^2) and (4 r^2/s^4 - 2/s^2) exp(-(r/s)^2)
        u = gaussian_profile(2, a=scale**-2)
        r = np.linspace(0.0, 7.0 * scale, 57)
        envelope = np.exp(-((r / scale) ** 2))
        tol = {"rtol": 0.0 if scale == 1.0 else 1e-14, "atol": 0.0}
        np.testing.assert_allclose(u.func(r), envelope, **tol)
        np.testing.assert_allclose(u.deriv(r), -2.0 * r / scale**2 * envelope, **tol)
        np.testing.assert_allclose(
            u.second_deriv(r), (4.0 * r**2 / scale**4 - 2.0 / scale**2) * envelope, **tol
        )

    def test_a_profile_and_a_weight_of_different_dimensions_raise(self):
        with pytest.raises(InputDomainError, match="dimension 3 against a weight of dimension 2"):
            weighted_norm_sq(gaussian_profile(3), WeightFunction("plain_abs", 2))
        with pytest.raises(InputDomainError, match="dimension"):
            weighted_norm_sq([capacity_family(math.e**4), gaussian_profile(3)], WeightFunction("a1_weight", 2))
        with pytest.raises(InputDomainError, match="dimensions"):
            gradient_norm_sq([capacity_family(math.e**4), gaussian_profile(3)])

    def test_quotients_need_the_derivatives(self):
        bare = compact(np.exp, 1.0)
        with pytest.raises(InputDomainError, match="deriv"):
            gradient_norm_sq(bare)
        no_second = RadialProfile(np.exp, 5, TailBound(kind="compact", cutoff=1.0), deriv=np.exp)
        with pytest.raises(InputDomainError, match="second_deriv"):
            rellich_quotient(no_second)

    def test_a_profile_without_a_finite_radius_raises(self):
        slow = RadialProfile(np.exp, 2, TailBound(kind="none"), deriv=np.exp)
        with pytest.raises(IntegrabilityError, match="finite radius"):
            gradient_norm_sq(slow)

    def test_the_scan_defaults_to_the_family_grid(self):
        np.testing.assert_array_equal(FAMILY_GRID, R_GRID)
        weight = WeightFunction("a1_weight", 2)
        assert blowup_scan(weight).trace.quotients.tolist() == blowup_scan(weight, R_GRID).trace.quotients.tolist()


class TestRayleighQuotient:
    def test_hardy_constant_3d(self):
        # classical constant (2/(n-2))^2 = 4 in three dimensions
        q = rayleigh_quotient(gaussian_profile(3), WeightFunction("plain_abs", 3))
        assert q <= 4.0

    def test_scale_invariance_of_quotient(self):
        w = WeightFunction("a1_weight", 2)
        u = capacity_family(math.e**6)
        base = rayleigh_quotient(u, w)
        # scaling u by a constant changes nothing
        scaled = replace(u, func=lambda r: 5.0 * u.func(r), deriv=lambda r: 5.0 * u.deriv(r))
        assert rayleigh_quotient(scaled, w) == pytest.approx(base, rel=1e-9)

    def test_capacity_quotient_grows(self):
        w = WeightFunction("a1_weight", 2)
        q = rayleigh_quotient(capacity_family(math.e**10), w)
        # numerator retains at least the unit-disk floor; denominator is 2 pi / 10
        floor = weighted_norm_sq(capacity_family(math.e**10), w)
        assert q >= 0.1 * floor * (10.0 / (2 * math.pi))

    def test_divergent_numerator_rejected(self):
        # the numerator raises instead of returning a number, and blowup_scan
        # knows to take the exhaustion sequence instead
        weight = WeightFunction("plain_abs", 1)
        assert weight.quotient_diverges_for(True)
        with pytest.raises(IntegrabilityError):
            rayleigh_quotient(gaussian_profile(1), weight)

    def test_degenerate_gradient_rejected(self):
        flat = compact(
            lambda r: np.ones_like(np.asarray(r, dtype=float)),
            1.0,
            lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        )
        grad = gradient_norm_sq(flat)
        assert grad == 0.0
        with pytest.raises(InvariantViolation):
            QuotientTrace(np.array([1.0]), np.array([1.0]), np.array([grad]))

    def test_truncated_numerator_checks_convergence(self):
        # 1e7 r oscillates far faster than the bounded bisection resolves
        fast = compact(
            lambda r: np.sin(1e7 * np.asarray(r, dtype=float)) * np.exp(-np.asarray(r, dtype=float) ** 2),
            6.8,
        )
        with pytest.raises(IntegrabilityError):
            weighted_norm_sq(fast, WeightFunction("constant_one", 1), inner_cut=0.5)

    def test_truncated_oscillatory_numerator_is_accurate(self):
        fast = compact(
            lambda r: np.sin(1e5 * np.asarray(r, dtype=float)) * np.exp(-np.asarray(r, dtype=float) ** 2),
            6.8,
        )
        # 2 int_0.5^6.8 sin^2(1e5 r) e^(-2 r^2) dr, by mpmath at 40 digits: the
        # erf closed form of the mean minus the integration-by-parts series of
        # the cos(2e5 r) part
        exact = 0.19884498115569296
        val = weighted_norm_sq(fast, WeightFunction("constant_one", 1), inner_cut=0.5)
        assert val == pytest.approx(exact, rel=1e-11)

    def test_log_weight_numerator_near_the_origin(self):
        # 2 pi (1 + int_0^3 ((3 - s)/3)^2 / (1 + s)^2 ds) with s = log r, by mpmath
        val = weighted_norm_sq(capacity_family(math.e**3), WeightFunction("abs_log_weight", 2))
        assert val == pytest.approx(9.01263249806609, rel=1e-10)

    @pytest.mark.parametrize("support", [None, math.inf, 0.0])
    def test_support_must_be_finite(self, support):
        with pytest.raises(InputDomainError):
            compact(np.exp, support, np.exp)


class TestBlowupScan:
    @pytest.mark.parametrize(
        "kind,dim",
        [
            ("a1_weight", 2),
            ("abs_log_weight", 2),
            ("plain_abs", 1),
            ("constant_one", 1),
            ("constant_one", 2),
        ],
    )
    def test_unbounded_verdicts(self, kind, dim):
        scan = blowup_scan(WeightFunction(kind, dim), R_GRID)
        assert scan.verdict == "unbounded"

    def test_a1_linear_in_log_parameter(self):
        scan = blowup_scan(WeightFunction("a1_weight", 2), R_GRID)
        assert scan.slope > 0
        assert scan.r_squared >= 0.95

    def test_poincare_failure_rate_1d(self):
        # dilation quotient for the constant weight scales like R^2
        scan = blowup_scan(WeightFunction("constant_one", 1), R_GRID)
        q = scan.trace.quotients
        growth = q[-1] / q[0]
        expected = (R_GRID[-1] / R_GRID[0]) ** 2
        assert growth == pytest.approx(expected, rel=1e-6)

    def test_plain_abs_bounded_3d_exactly_constant(self):
        scan = blowup_scan(WeightFunction("plain_abs", 3), R_GRID)
        assert scan.verdict == "bounded"
        q = scan.trace.quotients
        assert np.max(q) / np.min(q) - 1.0 <= 1e-9

    @pytest.mark.parametrize(
        "kind,dim,mechanism",
        [
            ("a1_weight", 2, "capacity"),
            ("abs_log_weight", 2, "capacity"),
            ("plain_abs", 3, "dilation"),
            ("plain_abs", 2, "exhaustion"),
        ],
    )
    def test_matches_the_integrals_of_each_member(self, kind, dim, mechanism):
        # the five members' integrals as the pieces of one refinement give
        # what each member's own integrals give
        weight = WeightFunction(kind, dim)
        scan = blowup_scan(weight, R_GRID)
        assert scan.mechanism == mechanism
        bump = gaussian_profile(dim)
        for R, q, grad in zip(R_GRID, scan.trace.quotients, scan.trace.gradient_norms_sq):
            if mechanism == "exhaustion":
                alone = gradient_norm_sq(bump)
                numerator = weighted_norm_sq(bump, weight, inner_cut=1.0 / R)
            else:
                u = capacity_family(R) if dim == 2 else dilation_family(R, bump)
                alone = gradient_norm_sq(u)
                numerator = weighted_norm_sq(u, weight)
            assert grad == pytest.approx(alone, rel=1e-12)
            assert q == pytest.approx(numerator / alone, rel=1e-12)

    @pytest.mark.parametrize(
        "kind,dim,refinements", [("a1_weight", 2, 1), ("plain_abs", 3, 1), ("plain_abs", 2, 2)]
    )
    def test_two_refinements_per_scan(self, kind, dim, refinements, monkeypatch):
        # a member family's gradient norms and numerators are two rows of
        # one refinement over the whole family; the exhaustion numerators
        # and the bump's gradient, on other pieces, take one each
        calls = _counted_refinements(monkeypatch)
        blowup_scan(WeightFunction(kind, dim), R_GRID)
        assert len(calls) == refinements

    def test_grid_validation(self):
        with pytest.raises(InputDomainError):
            blowup_scan(WeightFunction("a1_weight", 2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InputDomainError):
            blowup_scan(WeightFunction("a1_weight", 2), np.array([5.0, 4.0, 6.0, 7.0, 8.0]))

    def test_quotient_csv(self, tmp_path):
        scan = blowup_scan(WeightFunction("a1_weight", 2), R_GRID)
        path = tmp_path / "quotients.csv"
        write_quotient_csv(scan.trace, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"R,quotient,grad_norm_sq"
        assert len([l for l in lines[1:] if l]) == R_GRID.size


class TestEnergyIdentity:
    P = ModelParams(1.0, 1.0, 1.0, 1.0, 2)

    def test_per_mode_identity_algebra(self):
        # with theta = 1 the factor mu r^4 + kappa r^2 equals f^2 (1 + delta r^2),
        # collapsing the accumulated energy density to the source pairing exactly
        from rosenau.model import eval_dispersion

        rng = np.random.default_rng(11)
        for _ in range(50):
            r = float(rng.uniform(0.01, 6.0))
            t = float(rng.uniform(0.1, 50.0))
            w1 = complex(rng.standard_normal(), rng.standard_normal())
            f = eval_dispersion(self.P, r)
            phase = t * f
            v = t * t * float(cosc(phase)) * w1
            v_t = propagator(t, f) * w1
            lhs = 0.5 * (1 + r**2) * abs(v_t) ** 2 + 0.5 * (r**4 + r**2) * abs(v) ** 2
            rhs = (1 + r**2) * (t * t * float(cosc(phase))) * abs(w1) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_time(self):
        out = energy_identity_check(self.P, gaussian_velocity_data(2), 0.0)
        assert out.lhs == 0.0 and out.rhs == 0.0

    @pytest.mark.parametrize("t", [10.0, 1e3])
    def test_residual_tiny(self, t):
        out = energy_identity_check(self.P, gaussian_velocity_data(2), t)
        assert out.residual <= 1e-8

    @pytest.mark.parametrize(
        "t,lhs",
        [(1e2, 9.802399956916585), (1e3, 13.41921437318918), (1e4, 17.036105801840463)],
    )
    def test_lhs_matches_one_phase_resolved_partition(self, t, lhs):
        # the left side integrated on a single phase-resolved K21 partition
        # of [0, r_max] at rel_tol 1e-10, whose cost grew like t
        out = energy_identity_check(self.P, gaussian_velocity_data(2), t)
        assert out.lhs == pytest.approx(lhs, rel=1e-12)

    def test_both_sides_are_rows_of_one_driver_call(self, monkeypatch):
        from rosenau import hardy

        calls = []
        driver = hardy.oscillatory_integrals

        def counted(*args, **kwargs):
            calls.append(1)
            return driver(*args, **kwargs)

        monkeypatch.setattr(hardy, "oscillatory_integrals", counted)
        out = energy_identity_check(self.P, gaussian_velocity_data(2), 1e3)
        assert len(calls) == 1
        assert out.residual <= 1e-8

    def test_cost_is_flat_in_t(self):
        # the phase-resolved partition took 165,648 w1 evaluations at
        # t = 1e3 and 15,860,208 at 1e5; w1_sq evaluations are counted here
        def w1_evaluations(t):
            data = gaussian_velocity_data(2)
            count = [0]

            def counted(r):
                count[0] += np.size(r)
                return data.w1_sq(r)

            counting = replace(data, w1_sq=counted)
            count[0] = 0
            energy_identity_check(self.P, counting, t)
            return count[0]

        assert w1_evaluations(1e8) <= 2 * w1_evaluations(1e3)

    def test_accumulated_energy_outgrows_solution_norm(self):
        data = gaussian_velocity_data(2)
        early = energy_identity_check(self.P, data, 1e2)
        late = energy_identity_check(self.P, data, 1e3)
        assert late.lhs > early.lhs
        # the solution-norm share grows only logarithmically
        half_norm = {t: 0.5 * norm_squared(self.P, data, t) for t in (1e2, 1e3)}
        assert half_norm[1e3] / math.log(1e3) <= 1.6 * half_norm[1e2] / math.log(1e2)
        assert half_norm[1e3] <= late.lhs

    def test_requires_theta_one(self):
        p_bad = ModelParams(1.0, 1.0, 1.0, 2.0, 2)
        with pytest.raises(PreconditionError):
            energy_identity_check(p_bad, gaussian_velocity_data(2), 1.0)

    def test_requires_zero_position_datum(self):
        from rosenau import gaussian_position_data

        with pytest.raises(PreconditionError):
            energy_identity_check(self.P, gaussian_position_data(2), 1.0)

    def test_a_position_datum_between_the_integers_is_seen(self):
        # |w0|^2 = 1 on [0.2, 0.8], with a compact tail and its edges declared:
        # zero at every integer radius, but its certificate says it is there
        velocity = gaussian_velocity_data(2)
        data = replace(
            velocity,
            w0_sq=lambda r: np.where((np.asarray(r) >= 0.2) & (np.asarray(r) <= 0.8), 1.0, 0.0),
            w0_tail=TailBound(kind="compact", cutoff=0.8),
            kinks=(0.2, 0.8),
        )
        with pytest.raises(PreconditionError, match="u0 = 0"):
            energy_identity_check(self.P, data, 1e3)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_rejects_a_time_that_is_not_finite_and_nonnegative(self, t):
        with pytest.raises(InputDomainError):
            energy_identity_check(self.P, gaussian_velocity_data(2), t)


class TestRellich:
    def test_gaussian_under_classical_constant(self):
        q = rellich_quotient(gaussian_profile(5))
        assert q <= (4.0 / 5.0) ** 2 * 1.01

    def test_scale_invariance(self):
        vals = [rellich_quotient(dilation_family(R, gaussian_profile(5))) for R in (1.0, 4.0, 16.0)]
        assert max(vals) / min(vals) - 1.0 <= 1e-12

    def test_low_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            rellich_quotient(gaussian_profile(4))

    def test_one_refinement_for_both_integrals(self, monkeypatch):
        # the numerator and the denominator are two rows of one refinement,
        # each as it is alone
        from rosenau.quadrature import integrate_radial

        u = dilation_family(2.0, gaussian_profile(5))
        support = u.upper_limit()
        numerator = integrate_radial(lambda r: u.func(r) ** 2, 0.0, support, rel_tol=1e-11)
        laplacian = lambda r: (u.second_deriv(r) + 4.0 * u.deriv(r) / r) ** 2 * r**4
        denominator = integrate_radial(laplacian, 0.0, support, rel_tol=1e-11)
        calls = _counted_refinements(monkeypatch)
        assert rellich_quotient(u) == pytest.approx(numerator / denominator, rel=1e-12)
        assert len(calls) == 1
