"""Growth-law fits and verdicts for sampled norm traces.

Three candidate behaviours are distinguished on a trace of ||u(t)||^2:

* power:       ||u(t)|| ~ C t^p, fitted by least squares on log||u|| vs log t;
* logarithmic: ||u(t)||^2 ~ a log t + b, fitted linearly against log t;
* bounded:     the trace flattens (no significant growth across the window).

The verdict logic first gates on the overall growth ratio (a trace whose
last-decade mean stays within 25% of its first-decade mean is classified
bounded), then compares the power and logarithmic fits by their r^2 with a
0.02 margin; a thinner margin keeps the better fit but flags the comparison
as ambiguous.  A dimension mismatch between the verdict and the expected
behaviour (power for n=1, logarithmic for n=2, bounded for n>=3) is
reported, never silently corrected.
"""

from __future__ import annotations

import math

import numpy as np

from .artifacts import write_columns, write_json
from .errors import InputDomainError
from .moments import MomentDecomposition
from .norms import NormTrace
from .records import Record

__all__ = [
    "GrowthFit",
    "ClassifyReport",
    "SandwichReport",
    "fit_power",
    "fit_log",
    "classify_growth",
    "sandwich_report",
    "write_fit_json",
    "write_sandwich_csv",
]

RATE_LABELS = {1: "sqrt_t", 2: "sqrt_log_t"}
VERDICT_MARGIN = 0.02
FLATNESS_RATIO = 1.25


class GrowthFit(Record):
    """Fitted growth model with its coefficient, exponent/offset and r^2."""

    model: str
    coeff: float
    exponent_or_offset: float
    r_squared: float
    window: tuple[float, float]

    def __post_init__(self) -> None:
        if self.model not in ("power", "logarithmic", "bounded"):
            raise InputDomainError(f"unknown growth model {self.model!r}")


def _window_mask(trace: NormTrace, window) -> np.ndarray:
    t_min, t_max = window
    mask = (trace.times >= t_min) & (trace.times <= t_max)
    if np.count_nonzero(mask) < 10:
        raise InputDomainError("need at least 10 samples inside the fit window")
    return mask


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return max(0.0, 1.0 - ss_res / ss_tot)


def fit_power(trace: NormTrace, window) -> GrowthFit:
    """Least squares of log||u|| against log t: ||u(t)|| ~ coeff * t^exponent."""
    mask = _window_mask(trace, window)
    if np.any(trace.norms_sq[mask] <= 0):
        raise InputDomainError("power fit needs strictly positive norms")
    x = np.log(trace.times[mask])
    y = 0.5 * np.log(trace.norms_sq[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return GrowthFit(
        model="power",
        coeff=float(math.exp(intercept)),
        exponent_or_offset=float(slope),
        r_squared=_r_squared(y, slope * x + intercept),
        window=(float(window[0]), float(window[1])),
    )


def fit_log(trace: NormTrace, window) -> GrowthFit:
    """Least squares of ||u||^2 against log t: norms_sq ~ coeff * log t + offset."""
    mask = _window_mask(trace, window)
    x = np.log(trace.times[mask])
    y = trace.norms_sq[mask]
    slope, intercept = np.polyfit(x, y, 1)
    return GrowthFit(
        model="logarithmic",
        coeff=float(slope),
        exponent_or_offset=float(intercept),
        r_squared=_r_squared(y, slope * x + intercept),
        window=(float(window[0]), float(window[1])),
    )


def _decade_mean(trace: NormTrace, t_lo: float, t_hi: float) -> float:
    mask = (trace.times >= t_lo) & (trace.times <= t_hi)
    return float(np.mean(trace.norms_sq[mask]))


class ClassifyReport(Record):
    verdict: str
    expected: str
    matches_expected: bool
    margin_ok: bool
    growth_ratio: float
    power: GrowthFit
    logarithmic: GrowthFit


def classify_growth(trace: NormTrace, dim: int, window=None) -> ClassifyReport:
    """Fit all models and return the best verdict plus the dimension expectation.

    The power and logarithmic fits are each performed in their natural
    space, but compared through r^2 recomputed on the common linear
    norms_sq scale, so the 0.02 margin measures the same residuals for
    both candidates.
    """
    t_lo, t_hi = float(trace.times[0]), float(trace.times[-1])
    if window is not None:
        t_lo, t_hi = float(window[0]), float(window[1])
    if t_hi < 1e3 * t_lo:
        raise InputDomainError("classification needs a window spanning >= 3 decades")
    power = fit_power(trace, (t_lo, t_hi))
    logfit = fit_log(trace, (t_lo, t_hi))
    ratio = _decade_mean(trace, t_hi / 10.0, t_hi) / _decade_mean(trace, t_lo, 10.0 * t_lo)

    mask = _window_mask(trace, (t_lo, t_hi))
    t = trace.times[mask]
    y = trace.norms_sq[mask]
    power_pred = (power.coeff * t**power.exponent_or_offset) ** 2
    log_pred = logfit.coeff * np.log(t) + logfit.exponent_or_offset
    r2_power = _r_squared(y, power_pred)
    r2_log = _r_squared(y, log_pred)

    margin_ok = True
    if ratio <= FLATNESS_RATIO:
        verdict = "bounded"
    elif r2_power >= r2_log + VERDICT_MARGIN:
        verdict = "power"
    elif r2_log >= r2_power + VERDICT_MARGIN:
        verdict = "logarithmic"
    else:
        verdict = "power" if r2_power >= r2_log else "logarithmic"
        margin_ok = False

    expected = {1: "power", 2: "logarithmic"}.get(dim, "bounded")
    return ClassifyReport(
        verdict=verdict,
        expected=expected,
        matches_expected=verdict == expected,
        margin_ok=margin_ok,
        growth_ratio=float(ratio),
        power=power,
        logarithmic=logfit,
    )


class SandwichReport(Record):
    """Ratio ||u(t)||/rate(t) with its last-decade extremes."""

    times: np.ndarray
    ratios: np.ndarray
    rate: str
    lower_const: float
    upper_const: float
    vacuous_lower: bool


def sandwich_report(
    trace: NormTrace, moments: MomentDecomposition, dim: int
) -> SandwichReport:
    """Track ||u(t)|| against the dimensional rate sqrt(t) (n=1) or sqrt(log t) (n=2).

    lower_const / upper_const are the min/max ratio over the last sampled
    decade; the theorem-1-1 preset judges their quotient.  A massless datum
    (P = 0) makes the lower side vacuous, which is reported, not an error.
    """
    if dim not in (1, 2):
        raise InputDomainError("the sandwich rates are defined for dim 1 and 2")
    rate_label = RATE_LABELS[dim]
    t = trace.times
    if dim == 1:
        rate = np.sqrt(t)
    else:
        if np.any(t <= 1.0):
            raise InputDomainError("sqrt(log t) rate needs t > 1")
        rate = np.sqrt(np.log(t))
    ratios = np.sqrt(trace.norms_sq) / rate
    last = t >= t[-1] / 10.0
    lower_const = float(np.min(ratios[last]))
    upper_const = float(np.max(ratios[last]))
    return SandwichReport(
        times=t,
        ratios=ratios,
        rate=rate_label,
        lower_const=lower_const,
        upper_const=upper_const,
        vacuous_lower=moments.p_moment == 0.0,
    )


def write_fit_json(report: ClassifyReport, path) -> None:
    def fit_dict(fit: GrowthFit) -> dict:
        return {
            "model": fit.model,
            "coeff": fit.coeff,
            "exponent_or_offset": fit.exponent_or_offset,
            "r_squared": fit.r_squared,
            "window": list(fit.window),
        }

    payload = {
        "verdict": report.verdict,
        "expected": report.expected,
        "matches_expected": report.matches_expected,
        "margin_ok": report.margin_ok,
        "growth_ratio": report.growth_ratio,
        "power": fit_dict(report.power),
        "logarithmic": fit_dict(report.logarithmic),
    }
    write_json(path, payload)


def write_sandwich_csv(report: SandwichReport, path) -> None:
    write_columns(path, ["t", f"norm_over_{report.rate}"], report.times, report.ratios)
