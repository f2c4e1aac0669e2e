"""Per-layer metrics of a traced run, per pass, from the workers' reports.

Layers are rosenau's modules.  `.s` is inclusive time, `.self_s` inclusive
time minus the wrapped calls nested inside, `.calls` wrapped calls; a bare
`<layer>.s` is the time spent in any of that module's public functions.
Counts, times and calls are totals over the traced passes divided by their
number; `_max` metrics are maxima; `proc.*` come from the untraced passes of
the same inputs, and `trace.overhead_s` is the traced minus the untraced
mean wall time of a pass.
"""

from __future__ import annotations

from collections import Counter
from statistics import fmean

# name -> unit; the order is the order of the printed metrics
LAYER_UNITS = {
    "model.eval_dispersion.calls": "count",
    "model.eval_dispersion.points": "count",
    "model.eval_dispersion.self_s": "s",
    "model.dispersion_derivatives.points": "count",
    "model.dispersion_derivatives.self_s": "s",
    "quadrature.panel_integrals.calls": "count",
    "quadrature.panel_integrals.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.nodes_per_s": "1/s",
    "quadrature.integrate_adaptive.calls": "count",
    "quadrature.integrate_adaptive.s": "s",
    "quadrature.initial_panels": "count",
    "quadrature.evals_per_panel": "count",
    "quadrature.rounds_max": "count",
    "quadrature.err_rel_max": "ratio",
    "quadrature.phase_resolved_edges.s": "s",
    "quadrature.phase_resolved_edges.panels": "count",
    "evolution.sinc.points": "count",
    "evolution.sinc.self_s": "s",
    "evolution.integrand.self_s": "s",
    "evolution.total_energy.calls": "count",
    "evolution.total_energy.s": "s",
    "evolution.evolve_grid.calls": "count",
    "evolution.evolve_grid.s": "s",
    "evolution.total_energy_grid.s": "s",
    "evolution.wraparound_warnings": "count",
    "norms.compute_norm_trace.s": "s",
    "norms.band_split_norm.calls": "count",
    "norms.band_split_norm.s": "s",
    "norms.norm_squared.calls": "count",
    "norms.norm_squared.s": "s",
    "norms.integrand.self_s": "s",
    "norms.fallback_warnings": "count",
    "moments.from_profile.calls": "count",
    "moments.from_profile.s": "s",
    "moments.quad_calls": "count",
    "moments.quad_evals": "count",
    "moments.radial_kernel.calls": "count",
    "moments.radial_kernel.self_s": "s",
    "bounds.averaged_tail_remainder.calls": "count",
    "bounds.averaged_tail_remainder.s": "s",
    "bounds.lower_envelope.s": "s",
    "bounds.upper_envelope.s": "s",
    "bounds.integrand.self_s": "s",
    "growth.s": "s",
    "hardy.blowup_scan.s": "s",
    "hardy.energy_identity_check.s": "s",
    "hardy.rellich_quotient.s": "s",
    "hardy.quad_calls": "count",
    "hardy.quad_evals": "count",
    "wellposed.s": "s",
    "catalog.data_from_spec.s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.artifact_bytes": "B",
    "proc.minor_faults": "count",
    "proc.user_s": "s",
    "proc.sys_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

_COUNTERS = {
    "model.eval_dispersion.points",
    "model.dispersion_derivatives.points",
    "quadrature.nodes",
    "quadrature.initial_panels",
    "quadrature.phase_resolved_edges.panels",
    "evolution.sinc.points",
    "evolution.wraparound_warnings",
    "norms.fallback_warnings",
    "moments.quad_calls",
    "moments.quad_evals",
    "hardy.quad_calls",
    "hardy.quad_evals",
}
_MAXIMA = {"quadrature.rounds_max", "quadrature.err_rel_max"}
_WHOLE_LAYERS = {"growth.s", "wellposed.s"}


def layer_metrics(pairs: list[tuple[dict, dict]]) -> dict[str, float]:
    """Metrics from (untraced report, traced report) pairs of workers."""
    plain = [p for report, _ in pairs for p in report["passes"]]
    traced = [p for _, report in pairs for p in report["passes"]]
    totals = {key: Counter() for key in ("calls", "incl", "self_s", "layer_incl", "counts")}
    maxima: Counter = Counter()
    spans = 0
    for _, report in pairs:
        summary = report["trace"]
        for key, total in totals.items():
            total.update(summary[key])
        for key, value in summary["maxima"].items():
            maxima[key] = max(maxima[key], value)
        spans += summary["spans"]
    calls, incl, self_s = totals["calls"], totals["incl"], totals["self_s"]
    n = len(traced)

    out = {}
    for name in LAYER_UNITS:
        if name in _COUNTERS:
            out[name] = totals["counts"][name] / n
        elif name in _MAXIMA:
            out[name] = float(maxima[name])
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]] / n
        elif name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]] / n
        elif name in _WHOLE_LAYERS:
            out[name] = totals["layer_incl"][name[: -len(".s")]] / n
        elif name.endswith(".s"):
            out[name] = incl[name[: -len(".s")]] / n

    panel_time = incl["quadrature.panel_integrals"]
    out["quadrature.nodes_per_s"] = (
        totals["counts"]["quadrature.nodes"] / panel_time if panel_time else 0.0
    )
    initial = totals["counts"]["quadrature.initial_panels"]
    out["quadrature.evals_per_panel"] = (
        totals["counts"]["quadrature.adaptive_nodes"] / initial if initial else 0.0
    )
    out["cli.artifact_bytes"] = fmean(p["artifact_bytes"] for p in plain)
    out["proc.minor_faults"] = fmean(p["minor_faults"] for p in plain)
    out["proc.user_s"] = fmean(p["user_s"] for p in plain)
    out["proc.sys_s"] = fmean(p["sys_s"] for p in plain)
    out["trace.spans"] = spans / n
    out["trace.overhead_s"] = fmean(p["wall_s"] for p in traced) - fmean(p["wall_s"] for p in plain)
    return out
