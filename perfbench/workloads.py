"""Workload definitions shared by the benchmark runner, its worker and the
reference generator.

A workload is a list of preset runs executed back to back in one process
(one *pass*).  Every preset uses the presets' Gaussian velocity datum; the
seed only chooses its amplitude A, so the panel work of a pass does not
depend on the seed and every output scales as A^2 (or not at all).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> presets run in one pass, as (output label, config overrides).
# passes_per_process: the heavy presets run one pass per fresh process, as
# `rosenau run` does; the check presets are cheap, so a process repeats them
# and the fixed per-call cost dominates.
WORKLOADS = {
    "exact-1d": {
        "presets": [("theorem-1-1", {"preset": "theorem-1-1"})],
        "passes_per_process": 1,
    },
    "averaged-2d3d": {
        "presets": [
            ("theorem-1-2", {"preset": "theorem-1-2"}),
            ("prop-4-1", {"preset": "prop-4-1"}),
        ],
        "passes_per_process": 1,
    },
    "checks": {
        "presets": [
            ("hardy-failure", {"preset": "hardy-failure"}),
            ("wellposed-check", {"preset": "wellposed-check"}),
            ("energy-1d", {"preset": "energy-conservation", "params": {"dim": 1}}),
            ("energy-2d", {"preset": "energy-conservation", "params": {"dim": 2}}),
        ],
        "passes_per_process": 30,
    },
}

AMPLITUDE_RANGE = (0.5, 2.0)


def amplitude(seed: int, pass_index: int) -> float:
    """Gaussian amplitude of one pass: 1 (the shipped presets) for seed 0,
    otherwise drawn from AMPLITUDE_RANGE per pass, so that no two passes of
    one process share their inputs."""
    if seed == 0:
        return 1.0
    return random.Random(f"{seed}:{pass_index}").uniform(*AMPLITUDE_RANGE)


def preset_configs(workload: str, amp: float, out_root: Path) -> list[tuple[str, dict]]:
    """Raw `rosenau run` configs of one pass, each with its own output dir."""
    runs = []
    for label, overrides in WORKLOADS[workload]["presets"]:
        raw = dict(overrides)
        raw["data"] = {"name": "gaussian", "a": 1.0, "amplitude": amp}
        raw["output_dir"] = str(out_root / label)
        runs.append((label, raw))
    return runs


def use_source_tree() -> None:
    """Import `rosenau` from this checkout's src/, never from site-packages."""
    if not (SRC / "rosenau" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rosenau sources under {SRC}")
    sys.path.insert(0, str(SRC))
