"""Regenerate perfbench/reference.json, the values the correctness gate
compares every pass against.

    python3 perfbench/make_reference.py

For each traced preset it evaluates the exact-adaptive `norm_squared` (the
unsplit integral, at the preset's own tolerance, whose error estimates run
near 1e-12 relative) at the preset's trace times, and the t = 0 energy of the
trace's energy column.  A tighter tolerance is not usable: at 1e-10 the
adaptive refinement of the 2-D integral at t = 3e6 runs for over ten minutes.  For the check presets it stores their shipped CSV
outputs.  All values are for amplitude A = 1; the gate rescales by A^2.
Takes a few minutes and peaks near 600 MB of memory (the t = 1e7 samples).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import CHECK_TOLS, REFERENCE, read_columns
from workloads import ROOT, preset_configs, use_source_tree

TRACE_PRESETS = ("theorem-1-1", "theorem-1-2", "prop-4-1")


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> None:
    use_source_tree()
    import numpy as np
    import scipy

    from rosenau.catalog import data_from_spec
    from rosenau.cli import ExperimentConfig, run_experiment
    from rosenau.evolution import total_energy
    from rosenau.norms import geometric_times, norm_squared

    traces = {}
    for preset in TRACE_PRESETS:
        cfg = ExperimentConfig.from_dict({"preset": preset})
        spec = dict(cfg.data_spec)
        data = data_from_spec(spec.pop("name"), cfg.params.dim, **spec)
        quad = dataclasses.replace(cfg.quadrature, mode="exact-adaptive")
        times = geometric_times(*cfg.t_window)
        start = time.perf_counter()
        norms = [norm_squared(cfg.params, data, float(t), quad) for t in times]
        print(f"{preset}: {len(times)} samples in {time.perf_counter() - start:.1f} s", flush=True)
        traces[preset] = {
            "t": [float(t) for t in times],
            "norm_sq": norms,
            "energy": total_energy(cfg.params, data, 0.0).total,
            "rel_tol": quad.rel_tol,
        }

    checks = {}
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for label, raw in preset_configs("checks", 1.0, Path(tmp)):
            result = run_experiment(ExperimentConfig.from_dict(raw))
            if result.exit_code != 0:
                raise SystemExit(f"{label} failed its own checks; no reference written")
            checks[label] = read_columns(result.output_dir / CHECK_TOLS[label][0])

    reference = {
        "source_commit": _git("rev-parse", "HEAD"),
        "source_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "amplitude": 1.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "traces": traces,
        "check_outputs": checks,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
