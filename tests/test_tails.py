import math

import numpy as np
import pytest

from rosenau import InputDomainError, TailBound
from rosenau.tails import _upper_incomplete_gamma


_X = np.concatenate([[0.0], np.geomspace(1e-8, 690.0, 300)])


@pytest.mark.parametrize("dim", range(1, 11))
def test_upper_incomplete_gamma_matches_scipy(dim):
    from scipy.special import gamma, gammaincc

    expected = gamma(dim / 2.0) * gammaincc(dim / 2.0, _X)
    got = [_upper_incomplete_gamma(dim, float(x)) for x in _X]
    # scipy's own value is off by up to 2.8e-14 (n = 1, x = 1) and 1e-13 at x ~ 600
    np.testing.assert_allclose(got, expected, rtol=2e-13, atol=0.0)


@pytest.mark.parametrize("dim", range(1, 11))
def test_upper_incomplete_gamma_matches_mpmath(dim):
    mpmath = pytest.importorskip("mpmath")
    x = _X[::6]
    with mpmath.workdps(30):
        expected = [float(mpmath.gammainc(mpmath.mpf(dim) / 2, mpmath.mpf(float(v)))) for v in x]
    got = np.array([_upper_incomplete_gamma(dim, float(v)) for v in x])
    rel = np.abs(got - expected) / np.array(expected)
    assert np.max(rel[x <= 50.0]) <= 1e-14
    assert np.max(rel) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 7, 10])
def test_upper_incomplete_gamma_underflows_to_zero_not_nan(dim):
    for x in (750.0, 1e4, 1e64):
        value = _upper_incomplete_gamma(dim, x)
        assert math.isfinite(value) and 0.0 <= value < 1e-300


@pytest.mark.parametrize(
    "dim,x", [(300, 800.0), (100, 800.0), (40, 760.0), (20, 744.0), (20, 746.0), (300, 744.0), (300, 746.0)]
)
def test_upper_incomplete_gamma_past_the_underflow_of_exp(dim, x):
    # e^(-x) underflows from x = 745, where Gamma(n/2, x) of an even n is
    # still far from 0: 1.64e85 at (300, 800)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = float(mpmath.gammainc(mpmath.mpf(dim) / 2, mpmath.mpf(x)))
    assert _upper_incomplete_gamma(dim, x) == pytest.approx(expected, rel=1e-12)


def test_gaussian_mass_beyond_zero_is_the_whole_mass():
    # integral_0^inf e^(-2 r^2) r^2 dr = sqrt(pi/2) / 8
    tail = TailBound(kind="gaussian", amplitude=1.0, rate=1.0)
    assert tail.mass_beyond(0.0, 3) == pytest.approx(math.sqrt(math.pi / 2.0) / 8.0, rel=1e-15)


@pytest.mark.parametrize("cutoff", [None, math.inf, math.nan, -1.0])
def test_compact_cutoff_must_be_finite_and_nonnegative(cutoff):
    with pytest.raises(InputDomainError, match="finite cutoff"):
        TailBound(kind="compact", cutoff=cutoff)
    assert TailBound(kind="compact", cutoff=0.0).vanishes


@pytest.mark.parametrize("kind", ["power", "exponential", ""])
def test_only_the_three_certified_kinds_exist(kind):
    with pytest.raises(InputDomainError, match="unknown tail kind"):
        TailBound(kind=kind)
    assert TailBound(kind="none").mass_beyond(1e6, 3) == math.inf
