"""Correctness gate: every pass's artifacts against reference.json.

For each preset run of a pass:

* `verdict.json` exists and has `all_passed`, and the run exited 0;
* every `norm_sq` sample of a norm trace matches the stored exact-adaptive
  reference times A^2: samples the program computes exactly within the
  configured `rel_tol`, oscillation-averaged samples (t >= 1e3 in averaged
  mode) within AVERAGED_TOL;
* the trace's energy column equals the reference t = 0 energy times A^2 to
  ENERGY_TOL, so it is conserved;
* in 1-D the low band fixes the asymptote ||u(t)||^2 ~ t P^2/(2 sqrt(kappa)),
  P = A sqrt(pi/a) the mass of the Gaussian: at the last sample the ratio is
  within ORACLE_TOL of 1;
* the check presets' CSV outputs match their stored values (energies times
  A^2, the rest unscaled) within CHECK_TOLS.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import ROOT

REFERENCE = ROOT / "perfbench" / "reference.json"
AVERAGING_MIN_T = 1e3
AVERAGED_TOL = 1e-2
ENERGY_TOL = 1e-10
ORACLE_TOL = 1e-5
# label -> (artifact, columns scaling as A^2, relative tolerance)
CHECK_TOLS = {
    "hardy-failure": ("quotient_vs_logR.csv", (), 1e-8),
    "wellposed-check": ("h_ratio.csv", (), 1e-12),
    "energy-1d": ("energy.csv", ("total_energy",), ENERGY_TOL),
    "energy-2d": ("energy.csv", ("total_energy",), ENERGY_TOL),
}


def read_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


class Gate:
    def __init__(self, reference: dict) -> None:
        self.traces = reference["traces"]
        self.check_outputs = reference["check_outputs"]

    @classmethod
    def load(cls, path: Path = REFERENCE) -> "Gate":
        return cls(json.loads(path.read_text()))

    def check(self, label: str, cfg, result, amp: float) -> list[str]:
        """Problems found in one preset run's artifacts; empty when correct."""
        try:
            return self._check(label, cfg, result, amp)
        except Exception as exc:  # unreadable or missing artifacts are a failure
            return [f"{type(exc).__name__}: {exc}"]

    def _check(self, label: str, cfg, result, amp: float) -> list[str]:
        out = cfg.output_dir
        problems = []
        verdict = json.loads((out / "verdict.json").read_text())
        if verdict.get("all_passed") is not True:
            failed = sorted(k for k, v in verdict.get("checks", {}).items() if not v["passed"])
            problems.append(f"verdict not all_passed (failed: {failed})")
        if result.exit_code != 0:
            problems.append(f"exit code {result.exit_code}")
        if label in self.traces:
            problems += self._check_trace(label, cfg, amp)
        if label in CHECK_TOLS:
            problems += self._check_outputs(label, out, amp)
        return problems

    def _check_trace(self, label: str, cfg, amp: float) -> list[str]:
        ref = self.traces[label]
        got = read_columns(cfg.output_dir / "norm_trace.csv")
        scale = amp * amp
        if len(got["t"]) != len(ref["t"]) or any(
            _rel(t, r) > 1e-12 for t, r in zip(got["t"], ref["t"])
        ):
            return [f"trace times differ from the reference's {len(ref['t'])} samples"]
        problems = []
        averaged = cfg.quadrature.mode == "oscillation-averaged"
        for t, value, exact in zip(got["t"], got["norm_sq"], ref["norm_sq"]):
            tol = (
                AVERAGED_TOL
                if averaged and t >= AVERAGING_MIN_T * (1 - 1e-9)
                else cfg.quadrature.rel_tol
            )
            err = _rel(value, scale * exact)
            if not err <= tol:
                problems.append(f"norm_sq at t={t:.6g} off the reference by {err:.3g} > {tol:g}")
        energy = scale * ref["energy"]
        drift = max(_rel(e, energy) for e in got["energy"])
        if not drift <= ENERGY_TOL:
            problems.append(f"energy column drifts {drift:.3g} > {ENERGY_TOL:g}")
        if cfg.params.dim == 1:
            a = float(cfg.data_spec.get("a", 1.0))
            mass_sq = scale * math.pi / a
            t_last = got["t"][-1]
            ratio = got["norm_sq"][-1] / (t_last * mass_sq / (2.0 * math.sqrt(cfg.params.kappa)))
            if not abs(ratio - 1.0) <= ORACLE_TOL:
                problems.append(f"1-D asymptote ratio {ratio!r} at t={t_last:.6g}")
        return problems

    def _check_outputs(self, label: str, out: Path, amp: float) -> list[str]:
        artifact, scaled, tol = CHECK_TOLS[label]
        ref = self.check_outputs[label]
        got = read_columns(out / artifact)
        problems = []
        for name, column in ref.items():
            factor = amp * amp if name in scaled else 1.0
            values = got.get(name, [])
            if len(values) != len(column):
                problems.append(f"{artifact}: column {name} has {len(values)} rows")
                continue
            err = max((_rel(v, factor * r) for v, r in zip(values, column)), default=0.0)
            if not err <= tol:
                problems.append(f"{artifact}: {name} off the reference by {err:.3g} > {tol:g}")
        return problems
