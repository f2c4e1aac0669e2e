"""Pointwise decay certificates used for certified integral truncation."""

from __future__ import annotations

import math

from .errors import InputDomainError, UncertifiedTailError
from .records import Record

__all__ = ["TailBound"]


class TailBound(Record):
    """Certified pointwise bound on a radial profile away from the origin.

    kind "gaussian": |g(r)| <= amplitude * exp(-rate r^2) for all r;
    kind "compact":  g(r) = 0 for r > cutoff;
    kind "none":     no certificate available, so no finite radius bounds
                     the integrals of g.
    """

    kind: str
    amplitude: float = 0.0
    rate: float = 0.0
    cutoff: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "compact", "none"):
            raise InputDomainError(f"unknown tail kind {self.kind!r}")
        if self.kind == "gaussian" and self.rate <= 0:
            raise InputDomainError("gaussian tail needs a positive rate")
        if self.kind == "compact" and not (self.cutoff is not None and 0.0 <= self.cutoff < math.inf):
            raise InputDomainError(f"compact tail needs a finite cutoff >= 0, got {self.cutoff}")

    @property
    def vanishes(self) -> bool:
        """Whether the certificate says the profile is zero for every r > 0."""
        return self.kind == "compact" and self.cutoff == 0.0

    def mass_beyond(self, r0: float, dim: int) -> float:
        """Upper bound on integral_{r0}^inf |g(r)|^2 r^(dim-1) dr; a compact
        tail bounds nothing below its cutoff."""
        if self.kind == "compact":
            return 0.0 if r0 >= self.cutoff else math.inf
        if self.kind == "gaussian":
            s = 2.0 * self.rate
            half = dim / 2.0
            # integral_{r0}^inf e^{-s r^2} r^(n-1) dr = Gamma(n/2, s r0^2) / (2 s^(n/2))
            try:  # Gamma(n/2) overflows a float from n = 344
                gamma = _upper_incomplete_gamma(dim, s * r0**2)
            except OverflowError:
                raise UncertifiedTailError(f"the Gaussian tail bound overflows a float at dim {dim}") from None
            return self.amplitude**2 * gamma / (2.0 * s**half)
        return math.inf


def _upper_incomplete_gamma(dim: int, x: float) -> float:
    """Gamma(n/2, x) = integral_x^inf e^(-y) y^(n/2 - 1) dy for n = dim >= 1, x >= 0.

    Closed forms: for integer a = n/2, Gamma(a) e^(-x) sum_{k<a} x^k / k!,
    from x = 700 on in logs, where e^(-x) nears underflow:
    x^(a-1) e^(-x) times sum_{j<a} (a-1)!/(a-1-j)! x^(-j); for half-integer
    a, sqrt(pi) erfc(sqrt(x)) at a = 1/2, stepped up by
    Gamma(a + 1, x) = a Gamma(a, x) + x^a e^(-x).
    """
    if dim % 2 == 0 and x >= 700.0:
        term = total = 1.0
        for k in range(dim // 2 - 1, 0, -1):
            term *= k / x
            total += term
        return math.exp((dim / 2.0 - 1.0) * math.log(x) - x + math.log(total))
    if dim % 2 == 0:
        term = total = math.exp(-x)
        for k in range(1, dim // 2):
            term *= x / k
            total += term
        return math.gamma(dim / 2.0) * total
    value = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
    for k in range(dim // 2):
        a = k + 0.5
        # x^a e^(-x), in logs once x^a alone could overflow
        power = x**a * math.exp(-x) if x < 700.0 else math.exp(a * math.log(x) - x)
        value = a * value + power
    return value
