"""Experiment orchestration: presets, configuration, persistence.

Subcommands: ``dispersion``, ``evolve``, ``norm-growth``, ``bounds``,
``hardy``, ``wellposed``, ``run``.  ``run`` consumes a YAML config (or a
preset name) and writes trace CSVs plus a verdict JSON whose checks mirror
the acceptance suite for that preset.  Each runner is the one judge of the
checks it records: the library functions it calls return their numbers and
raise only on input they cannot evaluate, so every recorded check can read
``passed: false`` and the run then exits 1.  All outputs are byte-deterministic:
fixed float formatting, sorted JSON keys and no timestamps (see artifacts).
The ``PRESETS`` table declares each preset once: its config overrides, its
parameter requirement, the runner that holds its checks and the package
modules that runner calls beyond the ones config parsing needs.  Those
modules are imported while the config is parsed, so a ``rosenau run``
process loads only what its preset calls and no preset pass pays an import;
the runners and the subcommands bind them with function-local imports.
The config's datum is built once, while it is parsed, and kept as
``ExperimentConfig.data`` for the runners; so every preset, including one
whose runner never reads it, rejects a malformed data spec.
Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is set,
so a process that loads numpy through it runs BLAS on one thread.  An
output path that cannot be created or written exits 2, as a malformed config
does.
"""

from __future__ import annotations

import copy
import importlib
import itertools
import json
import math
import os
import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable

# A `rosenau` process computes on one thread.  The OpenBLAS bundled with
# numpy otherwise starts a worker thread when numpy loads, which busy-waits
# for about 100 ms and so costs every run that much CPU for nothing.  This
# takes effect only if numpy is not loaded yet; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .artifacts import make_output_dir, write_columns, write_json
from .catalog import data_from_spec, gaussian_profile
from .errors import InputDomainError, RosenauError
from .evolution import GridField, evolve_grid, evolve_grid_times, total_energy, total_energy_grid
from .model import (
    ModelParams,
    SincConstants,
    dispersion_derivatives,
    dispersion_expansion,
    epsilon0,
    eval_dispersion,
)
from .moments import MomentDecomposition, l1_norm_and_l2_sq
from .norms import (
    NormTrace,
    QuadratureConfig,
    _is_count,
    compute_norm_trace,
    geometric_times,
    norm_squared,
    write_norm_trace_csv,
)
from .records import Record, replace

if TYPE_CHECKING:
    import argparse

    from .evolution import RadialInitialData
    from .growth import ClassifyReport, GrowthFit, SandwichReport

__all__ = ["ExperimentConfig", "run_experiment", "main"]

_BASE_CONFIG = {
    "preset": "custom",
    "params": {"delta": 1.0, "mu": 1.0, "kappa": 1.0, "theta": 2.0, "dim": 1},
    "sinc_threshold": 0.9,
    "data": {"name": "gaussian", "a": 1.0, "amplitude": 1.0},
    "gamma_moment": 1.0,
    "t_window": {"t_min": 1e2, "t_max": 1e6, "points_per_decade": 12},
    "quadrature": {
        "rel_tol": 1e-6,
        "r_max": None,
        # one evaluation path; "oscillation-averaged", the name of a retired
        # second path, is accepted and evaluated the same way
        "mode": "exact-adaptive",
    },
    "output_dir": "out",
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _reject_unknown_keys(raw: dict, schema: dict, where: str = "") -> None:
    """Raise on unknown config keys and on sections that are not mappings; data
    keywords are checked against the chosen data builder instead."""
    for key, value in raw.items():
        if key not in schema:
            raise InputDomainError(
                f"unknown config key {where + str(key)!r}; expected one of {sorted(schema)}"
            )
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise InputDomainError(f"config key {where + key!r} must be a mapping, got {value!r}")
            if key != "data":
                _reject_unknown_keys(value, schema[key], f"{where}{key}.")


def _number(section: dict, key: str, where: str = "", whole: bool = False):
    """section[key] as a float, or as an int >= 1 when whole; any other value,
    a bool included, raises InputDomainError naming the key."""
    value = section[key]
    if whole and _is_count(value):
        return int(value)
    if not (whole or isinstance(value, bool)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    kind = "a whole number >= 1" if whole else "a number"
    raise InputDomainError(f"config key {where + key!r} must be {kind}, got {value!r}")


def default_config(preset: str) -> dict:
    if not isinstance(preset, str) or preset not in PRESETS:
        raise InputDomainError(f"unknown preset {preset!r}; choose from {tuple(PRESETS)}")
    cfg = _merge(_BASE_CONFIG, PRESETS[preset].overrides)
    cfg["preset"] = preset
    return cfg


class ExperimentConfig(Record):
    """Validated experiment description; see default_config() for the schema.
    data is the datum that data_spec names, built once by from_dict."""

    preset: str
    params: ModelParams
    sinc: SincConstants
    data_spec: dict
    data: RadialInitialData
    gamma_moment: float
    t_window: tuple[float, float, int]
    quadrature: QuadratureConfig
    output_dir: Path

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InputDomainError("a config must be a mapping")
        _reject_unknown_keys(raw, _BASE_CONFIG)
        cfg = _merge(default_config(raw.get("preset", "custom")), raw)
        if isinstance(raw.get("data"), dict) and "name" in raw["data"]:
            # another datum takes none of the default datum's keywords
            cfg["data"] = dict(raw["data"])
        preset = cfg["preset"]
        p = cfg["params"]
        params = ModelParams(
            *(_number(p, key, "params.") for key in ("delta", "mu", "kappa", "theta")),
            dim=_number(p, "dim", "params.", whole=True),
        )
        requires = PRESETS[preset].requires
        if requires is not None and not requires[1](params):
            raise InputDomainError(f"preset {preset} requires {requires[0]}")
        window = cfg["t_window"]
        t_min, t_max = (_number(window, key, "t_window.") for key in ("t_min", "t_max"))
        points_per_decade = _number(window, "points_per_decade", "t_window.", whole=True)
        try:
            geometric_times(t_min, t_max, points_per_decade)
        except InputDomainError as exc:
            raise InputDomainError(f"t_window: {exc}") from None
        q = cfg["quadrature"]
        quad = QuadratureConfig(
            rel_tol=_number(q, "rel_tol", "quadrature."),
            r_max=None if q["r_max"] in (None, "auto") else _number(q, "r_max", "quadrature."),
            mode=str(q["mode"]),
        )
        gamma_moment = _number(cfg, "gamma_moment")
        # the 1-D remainder integral of the lower envelope needs gamma > 1/2
        lowest = 0.5 if params.dim == 1 else 0.0
        if not lowest < gamma_moment <= 1.0:
            raise InputDomainError(
                f"config key 'gamma_moment' must lie in ({lowest:g}, 1] at dim {params.dim}, got {gamma_moment!r}"
            )
        if not isinstance(cfg["output_dir"], (str, Path)):
            raise InputDomainError(f"config key 'output_dir' must be a path, got {cfg['output_dir']!r}")
        for module in PRESETS[preset].modules:
            importlib.import_module(f".{module}", __package__)
        keywords = dict(cfg["data"])
        name = keywords.pop("name")
        return cls(
            preset=preset,
            params=params,
            sinc=SincConstants(delta0=_number(cfg, "sinc_threshold")),
            data_spec=dict(cfg["data"]),
            # built for every preset, so that each rejects a bad data spec
            data=data_from_spec(name, params.dim, **keywords),
            gamma_moment=gamma_moment,
            t_window=(t_min, t_max, points_per_decade),
            quadrature=quad,
            output_dir=Path(cfg["output_dir"]),
        )


def _check(checks: dict, name: str, passed: bool, value, threshold) -> None:
    checks[name] = {
        "passed": bool(passed),
        "value": value,
        "threshold": threshold,
    }


def _at_most(checks: dict, name: str, value, limit) -> None:
    """Record the check value <= limit, with limit as its threshold."""
    _check(checks, name, value <= limit, value, limit)


class _TraceStep(Record):
    """What the trace presets share.  l1 and u1_l2 are the L1 and L2 norms of
    the physical velocity profile, None for a datum without a velocity_profile."""

    trace: NormTrace
    report: ClassifyReport | None
    sandwich: SandwichReport | None
    l1: float | None
    u1_l2: float | None


def _trace_step(config: ExperimentConfig, out: Path, checks: dict) -> _TraceStep:
    """Trace, classification, moments, sandwich and the checks shared by the trace presets."""
    from . import bounds as bounds_mod
    from . import growth as growth_mod

    params, quad, data = config.params, config.quadrature, config.data
    t_min, t_max, ppd = config.t_window
    times = geometric_times(t_min, t_max, ppd)
    trace = compute_norm_trace(params, data, times, quad, config.sinc)
    write_norm_trace_csv(trace, out / "norm_trace.csv")

    report = None
    if t_max >= 1e3 * t_min:
        report = growth_mod.classify_growth(trace, params.dim, (t_min, t_max))
        growth_mod.write_fit_json(report, out / "fits.json")

    sandwich = l1 = u1_l2 = None
    profile = data.velocity_profile
    if profile is not None:
        # the moment decomposition only where the sandwich and the lower
        # envelopes read it; the upper envelope needs L1 alone
        # ||u1||_2^2 is a row of the refinement that gives ||u1||_1
        if params.dim in (1, 2):
            moments = MomentDecomposition.from_profile(profile, config.gamma_moment)
            l1, l2_sq = moments.l1, moments.l2_sq
            sandwich = growth_mod.sandwich_report(trace, moments, params.dim)
            growth_mod.write_sandwich_csv(sandwich, out / "ratio_vs_t.csv")
        else:
            l1, l2_sq = l1_norm_and_l2_sq(profile)
        u1_l2 = math.sqrt(l2_sq)
        # the envelopes at the trace samples nearest nine log-spaced times in
        # [1e2, 1e6]; the 2-D tail term T2 is defined from t = 1e2
        late = np.flatnonzero(trace.times >= 1e2)
        targets = np.geomspace(1e2, min(t_max, 1e6), 9) if late.size else []
        picks = sorted({int(late[np.argmin(np.abs(np.log(trace.times[late] / t)))]) for t in targets})
        sandwich_ok = True
        worst = 0.0
        # the lower envelopes of all the picks in one call: in 2-D their tail
        # terms T2 take one oscillatory driver call, their main terms T1 and
        # the K2 integrals of the T2 bounds one refinement each
        if picks and params.dim in (1, 2):
            lowers = bounds_mod.lower_envelope(params, config.sinc, moments, 0.0, trace.times[picks])
        for k, i in enumerate(picks):
            t = float(trace.times[i])
            spec_sq = float(trace.norms_sq[i]) * (2.0 * math.pi) ** params.dim
            upper = bounds_mod.upper_envelope(params, config.sinc, l1, u1_l2, 0.0, t)
            if params.dim in (1, 2):
                lower = float(lowers[k])
                sandwich_ok &= lower <= 2.0 * spec_sq
                worst = max(worst, lower / (2.0 * spec_sq))
            sandwich_ok &= spec_sq <= upper
            worst = max(worst, spec_sq / upper)
        if picks:
            _check(checks, "envelope_sandwich", sandwich_ok, worst, 1.0)

    # an independent check of the band split: the unsplit norm at the window
    # ends, which the trace's one driver call integrates with the bands over
    # pieces of its own, cut at neither beta nor the split
    ends = trace.norms_sq[[0, -1]]
    gap = float(np.max(np.abs(trace.unsplit - ends) / np.abs(ends)))
    _at_most(checks, "band_sum_matches_unsplit", gap, quad.rel_tol)
    return _TraceStep(trace, report, sandwich, l1, u1_l2)


def _window_fit(step: _TraceStep, config: ExperimentConfig, model: str) -> GrowthFit:
    """The "power" or "logarithmic" fit over the trace window: the
    classification's, or fitted here when the window is too short to classify."""
    from . import growth as growth_mod

    if step.report is not None:
        return getattr(step.report, model)
    fit = growth_mod.fit_power if model == "power" else growth_mod.fit_log
    return fit(step.trace, config.t_window[:2])


def _run_theorem_1_1(config: ExperimentConfig, out: Path, checks: dict) -> None:
    step = _trace_step(config, out, checks)
    if step.sandwich is not None:
        spread = step.sandwich.upper_const / step.sandwich.lower_const
        _at_most(checks, "sandwich_ratio_last_decade", spread, 1.25)
    power = _window_fit(step, config, "power")
    exponent = power.exponent_or_offset
    _check(checks, "power_exponent", abs(exponent - 0.5) <= 0.05, exponent, "0.5 +/- 0.05")
    _check(checks, "power_r_squared", power.r_squared >= 0.999, power.r_squared, 0.999)


def _run_theorem_1_2(config: ExperimentConfig, out: Path, checks: dict) -> None:
    step = _trace_step(config, out, checks)
    logfit = _window_fit(step, config, "logarithmic")
    exponent = _window_fit(step, config, "power").exponent_or_offset
    _check(checks, "log_fit_r_squared", logfit.r_squared >= 0.99, logfit.r_squared, 0.99)
    _check(checks, "log_fit_slope_positive", logfit.coeff > 0, logfit.coeff, 0.0)
    _check(checks, "competing_power_exponent", exponent <= 0.05, exponent, 0.05)


def _run_prop_4_1(config: ExperimentConfig, out: Path, checks: dict) -> None:
    from . import bounds as bounds_mod

    step = _trace_step(config, out, checks)
    params, trace = config.params, step.trace
    if step.l1 is not None:
        ceiling = bounds_mod.upper_envelope(
            params, config.sinc, step.l1, step.u1_l2, 0.0, float(trace.times[-1])
        ) / (2.0 * math.pi) ** params.dim
        _check(
            checks,
            "trace_below_envelope",
            bool(np.all(trace.norms_sq <= ceiling)),
            float(np.max(trace.norms_sq)),
            ceiling,
        )
    late = trace.times >= 1e5
    early = trace.times <= 1e5
    if np.any(late) and np.any(early):
        ratio = float(np.max(trace.norms_sq[late]) / np.max(trace.norms_sq[early]))
        _at_most(checks, "late_to_early_max_ratio", ratio, 1.05)
    if step.report is not None:
        verdict = step.report.verdict
        _check(checks, "verdict_bounded", verdict == "bounded", verdict, "bounded")


def _run_energy_conservation(config: ExperimentConfig, out: Path, checks: dict) -> None:
    params = config.params
    times = np.array([0.0, 1.0, 1e3, 1e6])
    energies = total_energy(params, config.data, times)
    drift = float(np.max(np.abs(energies[1:] - energies[0]) / energies[0]))
    _at_most(checks, "radial_energy_drift", drift, 1e-10)

    n = min(params.dim, 2)
    grid_params = replace(params, dim=n)
    size = 4096 if n == 1 else 256
    box = 200.0 if n == 1 else 60.0
    # the Gaussian is the position and the velocity datum, so that the
    # energies see both halves of each multiplier: cos(tf) u0_hat and
    # -f sin(tf) u0_hat as well as the velocity datum's terms
    bump = GridField.from_function(
        lambda *xs: np.exp(-sum(x**2 for x in xs)), n, box, size
    )
    # the datum's energy, then the evolved states', one state at a time
    evolved = evolve_grid_times(grid_params, bump, bump, [1.0, 5.0, 10.0], with_velocity=True)
    grid_energies = total_energy_grid(grid_params, itertools.chain([(bump, bump)], evolved))
    grid_drift = float(np.max(np.abs(grid_energies[1:] - grid_energies[0]) / grid_energies[0]))
    _at_most(checks, "grid_energy_drift", grid_drift, 1e-8)

    write_columns(out / "energy.csv", ["t", "total_energy"], times, energies)


def _run_hardy(config: ExperimentConfig, out: Path, checks: dict) -> None:
    from . import hardy as hardy_mod

    params = config.params
    scan = hardy_mod.blowup_scan(hardy_mod.WeightFunction("a1_weight", 2))
    hardy_mod.write_quotient_csv(scan.trace, out / "quotient_vs_logR.csv")
    _check(checks, "a1_weight_unbounded", scan.verdict == "unbounded", scan.verdict, "unbounded")

    flat = hardy_mod.blowup_scan(hardy_mod.WeightFunction("plain_abs", 3))
    spread = float(np.max(flat.trace.quotients) / np.min(flat.trace.quotients) - 1.0)
    _at_most(checks, "plain_abs_3d_constant", spread, 1e-6)

    # the classical Rellich constant (4/(n (n - 4)))^2 = (4/5)^2 at n = 5, plus 1%
    rellich = hardy_mod.rellich_quotient(gaussian_profile(5))
    _at_most(checks, "rellich_gaussian_5d", rellich, 0.6464)

    t = 1e3
    identity = hardy_mod.energy_identity_check(params, config.data, t, config.quadrature)
    _at_most(checks, "energy_identity_residual", identity.residual, 1e-8)
    # the step from the identity to the norm: 1/2 ||u(t)||^2 is at most the
    # accumulated energy, so a Hardy bound on the right side would bound it
    half_norm_sq = 0.5 * norm_squared(params, config.data, t, replace(config.quadrature, rel_tol=2e-9))
    _at_most(checks, "half_norm_below_identity_lhs", half_norm_sq / max(identity.lhs, 1e-300), 1.0)


# Amplitudes of the dissipativity probes: the first eight standard normals of
# np.random.default_rng(12345), real parts then imaginary parts, written out
# so that the check does not import numpy.random.
_PROBE_COEFFS = np.array(
    [-1.4238250364546312, 1.2637284581291104, -0.8706617379590857, -0.2591732349343976]
) + 1j * np.array(
    [-0.07534330701052097, -0.740884652085609, -1.3677927017829434, 0.6488928021930399]
)


def _run_wellposed(config: ExperimentConfig, out: Path, checks: dict) -> None:
    from . import wellposed as wellposed_mod

    params = config.params
    scan = wellposed_mod.h_ratio_scan(params)
    wellposed_mod.write_multiplier_csv(scan, out / "h_ratio.csv")
    _check(checks, "h_ratio_infimum_positive", scan.m_lower > 0, scan.m_lower, 0.0)
    limit = wellposed_mod.high_frequency_limit(params)
    _check(
        checks,
        "h_ratio_endpoints",
        abs(scan.limits[0] - 1.0) <= 0.01 and abs(scan.limits[1] - limit) <= 0.01 * limit,
        list(scan.limits),
        [1.0, limit],
    )

    # the multiplier norm of e^(-r^2) normalises the residuals and is the
    # middle term of the equivalence
    gauss_hat = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    lhs, rhs_low, rhs_high = wellposed_mod.sobolev_equivalence_check(params, gauss_hat)
    worst = 0.0
    for k in range(2):
        u_c, v_c = _PROBE_COEFFS[2 * k], _PROBE_COEFFS[2 * k + 1]
        u_hat = lambda r, c=u_c: c * np.exp(-np.asarray(r, dtype=float) ** 2)
        v_hat = lambda r, c=v_c: c * np.exp(-0.5 * np.asarray(r, dtype=float) ** 2)
        res = wellposed_mod.dissipativity_residual(params, u_hat, v_hat)
        worst = max(worst, abs(res) / max(lhs, 1e-300))
    _at_most(checks, "dissipativity_residual", worst, 1e-10)

    _check(
        checks,
        "sobolev_equivalence_order",
        rhs_low <= lhs <= rhs_high,
        [rhs_low, lhs, rhs_high],
        "rhs_low <= lhs <= rhs_high",
    )


class Preset(Record):
    """A `rosenau run` preset: runner(config, out, checks) writes its artifacts
    and records its checks; overrides merge over the base config; requires is
    (error text, predicate) on the model parameters; modules are the package
    modules the runner imports, which ExperimentConfig.from_dict loads."""

    runner: Callable[[ExperimentConfig, Path, dict], object]
    overrides: dict
    requires: tuple[str, Callable[[ModelParams], bool]] | None = None
    modules: tuple[str, ...] = ()


PRESETS = {
    "theorem-1-1": Preset(
        _run_theorem_1_1,
        {
            "params": {"dim": 1},
            "t_window": {"t_min": 1e2, "t_max": 1e6, "points_per_decade": 12},
        },
        ("dim = 1", lambda p: p.dim == 1),
        modules=("bounds", "growth"),
    ),
    "theorem-1-2": Preset(
        _run_theorem_1_2,
        {
            "params": {"dim": 2},
            "t_window": {"t_min": 1e2, "t_max": 1e7, "points_per_decade": 12},
        },
        ("dim = 2", lambda p: p.dim == 2),
        modules=("bounds", "growth"),
    ),
    "prop-4-1": Preset(
        _run_prop_4_1,
        {
            "params": {"dim": 3},
            "t_window": {"t_min": 1e2, "t_max": 1e7, "points_per_decade": 12},
        },
        ("dim >= 3", lambda p: p.dim >= 3),
        modules=("bounds", "growth"),
    ),
    "hardy-failure": Preset(
        _run_hardy,
        {"params": {"dim": 2, "theta": 1.0}},
        ("theta = 1 and dim = 2", lambda p: p.theta == 1.0 and p.dim == 2),
        modules=("hardy",),
    ),
    "wellposed-check": Preset(_run_wellposed, {}, modules=("wellposed",)),
    "energy-conservation": Preset(_run_energy_conservation, {}),
    "custom": Preset(_trace_step, {}, modules=("bounds", "growth")),
}


class ExperimentResult(Record):
    checks: dict
    exit_code: int
    output_dir: Path


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one preset, write its artifacts, and return the verdicts.  A run
    that raises RosenauError, such as one rejecting its data spec or its
    output path, removes the directories it created."""
    out = config.output_dir
    created = next((d for d in reversed((out, *out.parents)) if not d.exists()), None)
    checks: dict = {}
    try:
        make_output_dir(out)
        PRESETS[config.preset].runner(config, out, checks)
        all_passed = all(entry["passed"] for entry in checks.values()) if checks else True
        verdict = {
            "preset": config.preset,
            "checks": checks,
            "all_passed": all_passed,
        }
        write_json(out / "verdict.json", verdict)
    except RosenauError:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return ExperimentResult(checks=checks, exit_code=0 if all_passed else 1, output_dir=out)


# ---------------------------------------------------------------------------
# argument parsing


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--mu", type=float, default=1.0)
    parser.add_argument("--kappa", type=float, default=1.0)
    parser.add_argument("--theta", type=float, default=2.0)
    parser.add_argument("--dim", type=int, default=1)


def _params_from(args) -> ModelParams:
    return ModelParams(args.delta, args.mu, args.kappa, args.theta, args.dim)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="rosenau",
        description="Spectral growth analysis for the generalized Rosenau equation.",
    )
    parser.add_argument(
        "--print-default-config",
        metavar="PRESET",
        choices=PRESETS,
        help="print the default YAML config for a preset and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_disp = sub.add_parser("dispersion", help="evaluate f, f', f'' at radii")
    _add_param_flags(p_disp)
    p_disp.add_argument("--r", type=float, nargs="+", required=True)

    p_evolve = sub.add_parser("evolve", help="evolve a grid-field file")
    _add_param_flags(p_evolve)
    p_evolve.add_argument("--initial-position", type=Path, required=True)
    p_evolve.add_argument("--initial-velocity", type=Path, required=True)
    p_evolve.add_argument("--t", type=float, required=True)
    p_evolve.add_argument("--out", type=Path, required=True)

    p_norm = sub.add_parser("norm-growth", help="norm trace for Gaussian data")
    _add_param_flags(p_norm)
    p_norm.add_argument("--t-min", type=float, default=1e2)
    p_norm.add_argument("--t-max", type=float, default=1e4)
    p_norm.add_argument("--points-per-decade", type=int, default=8)
    p_norm.add_argument("--out", type=Path, default=Path("out"))

    p_bounds = sub.add_parser("bounds", help="envelope components at one time")
    _add_param_flags(p_bounds)
    p_bounds.add_argument("--t", type=float, required=True)
    p_bounds.add_argument("--gamma", type=float, default=1.0)
    p_bounds.add_argument("--out", type=Path, default=Path("out"))

    p_hardy = sub.add_parser("hardy", help="Hardy-weight blow-up scan")
    p_hardy.add_argument("--weight", default="a1_weight")
    p_hardy.add_argument("--dim", type=int, default=2)
    p_hardy.add_argument("--out", type=Path, default=Path("out"))

    p_well = sub.add_parser("wellposed", help="multiplier equivalence scan")
    _add_param_flags(p_well)
    p_well.add_argument("--out", type=Path, default=Path("out"))

    p_run = sub.add_parser("run", help="run a preset or config file")
    p_run.add_argument("config", nargs="?", type=Path, help="YAML config file")
    p_run.add_argument("--preset", choices=PRESETS)
    p_run.add_argument("--out", type=Path)

    args = parser.parse_args(argv)

    if args.print_default_config:
        import yaml

        sys.stdout.write(yaml.safe_dump(default_config(args.print_default_config), sort_keys=True))
        return 0
    if args.command is None:
        parser.print_help()
        return 2

    try:
        return _dispatch(args)
    except RosenauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "dispersion":
        params = _params_from(args)
        law = dispersion_expansion(params)
        rows = []
        for r in args.r:
            f = eval_dispersion(params, r)
            if r > 0:
                fp, fpp = dispersion_derivatives(params, r)
            elif law.low_power < 1.0:
                raise InputDomainError(f"f''(0) is unbounded for theta < 1/2, got theta = {params.theta}")
            else:  # f = c r (1 + b r^q + o(r^q)): f''(0) = 2 c b at q = 1, 0 for q > 1
                c, b = law.low_coefficient, law.low_correction
                fp, fpp = c, (2.0 * c * b if law.low_power == 1.0 else 0.0)
            rows.append({"r": r, "f": f, "f_prime": fp, "f_second": fpp})
        print(json.dumps({"epsilon0": epsilon0(params), "values": rows}, indent=2, sort_keys=True))
        return 0

    if args.command == "evolve":
        params = _params_from(args)
        field0 = GridField.load(args.initial_position)
        field1 = GridField.load(args.initial_velocity)
        evolved = evolve_grid(params, field0, field1, args.t)
        evolved.save(args.out)
        print(json.dumps({"t": args.t, "l2_norm": evolved.l2_norm()}, sort_keys=True))
        return 0

    if args.command == "norm-growth":
        raw = {
            "preset": "custom",
            "params": {
                "delta": args.delta,
                "mu": args.mu,
                "kappa": args.kappa,
                "theta": args.theta,
                "dim": args.dim,
            },
            "t_window": {
                "t_min": args.t_min,
                "t_max": args.t_max,
                "points_per_decade": args.points_per_decade,
            },
            "output_dir": str(args.out),
        }
        return run_experiment(ExperimentConfig.from_dict(raw)).exit_code

    if args.command == "bounds":
        from . import bounds as bounds_mod

        params = _params_from(args)
        sinc = SincConstants()
        profile = gaussian_profile(params.dim)
        moments = MomentDecomposition.from_profile(profile, args.gamma)
        report = bounds_mod.envelope_report(
            params, sinc, moments, 0.0, math.sqrt(moments.l2_sq), 0.0, args.t
        )
        make_output_dir(args.out)
        bounds_mod.write_envelope_json(report, args.out / "envelope.json")
        print((args.out / "envelope.json").read_text(), end="")
        return 0

    if args.command == "hardy":
        from . import hardy as hardy_mod

        scan = hardy_mod.blowup_scan(hardy_mod.WeightFunction(args.weight, args.dim))
        make_output_dir(args.out)
        hardy_mod.write_quotient_csv(scan.trace, args.out / "quotient_vs_logR.csv")
        print(
            json.dumps(
                {
                    "weight": args.weight,
                    "dim": args.dim,
                    "verdict": scan.verdict,
                    "slope": scan.slope,
                    "r_squared": scan.r_squared,
                    "mechanism": scan.mechanism,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    if args.command == "wellposed":
        from . import wellposed as wellposed_mod

        params = _params_from(args)
        scan = wellposed_mod.h_ratio_scan(params)
        make_output_dir(args.out)
        wellposed_mod.write_multiplier_csv(scan, args.out / "h_ratio.csv")
        print(
            json.dumps(
                {
                    "m_lower": scan.m_lower,
                    "m_upper": scan.m_upper,
                    "limits": list(scan.limits),
                    "high_frequency_limit": wellposed_mod.high_frequency_limit(params),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    if args.command == "run":
        if args.config is not None:
            import yaml

            try:
                raw = yaml.safe_load(args.config.read_text()) or {}
            except (OSError, yaml.YAMLError) as exc:
                raise InputDomainError(f"cannot read config {args.config}: {exc}") from None
            if not isinstance(raw, dict):
                raise InputDomainError("a config must be a mapping")
        elif args.preset is not None:
            raw = {"preset": args.preset}
        else:
            raise InputDomainError("run needs a config file or --preset")
        if args.preset is not None:
            raw["preset"] = args.preset
        if args.out is not None:
            raw["output_dir"] = str(args.out)
        result = run_experiment(ExperimentConfig.from_dict(raw))
        print(json.dumps({"exit_code": result.exit_code, "output_dir": str(result.output_dir)}, sort_keys=True))
        return result.exit_code

    raise InputDomainError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
