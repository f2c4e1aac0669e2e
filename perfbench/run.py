"""Benchmark of rosenau's batch presets: time to a checked verdict.

    python3 perfbench/run.py --workload exact-1d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; `rosenau` is imported from its src/.  A run
starts fresh worker processes one after another (closed loop, one worker at
a time, the program's default `threads: 1`) until --seconds have passed.
Each worker times its own set-up and runs passes of the workload's presets
through `rosenau.cli.run_experiment` (see worker.py and workloads.py); every
pass is checked against reference.json (gate.py).

--trace 0 prints the end-to-end metrics: the median over passes of wall
time and CPU time per pass, the median set-up time over at least
MIN_SETUP_SAMPLES fresh processes, and the median peak RSS of the pass
workers.  Each time is first scaled to the reference host speed
(at_reference_speed, hostprobe.py).  --trace 1 runs an untraced and a
traced worker on the same inputs and prints the per-layer metrics of the
traced one (tracer.py), per pass.

The last line of stdout is the JSON result; the line before it records the
seed, pass counts, quartiles and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYER_UNITS, layer_metrics
from workloads import ROOT, WORKLOADS, use_source_tree

WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Duration of one host probe (hostprobe.py) on the reference host.
REFERENCE_PROBE_S = 1.0e-3


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A time measured while the median host probe took `probe_s`, scaled to
    a host on which a probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


class Run:
    """Worker bookkeeping of one benchmark run."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.presets = len(WORKLOADS[workload]["presets"])
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.workers = 0

    def spawn(self, first: int, passes: int, trace: bool) -> dict | None:
        """Run one worker to completion; None if it crashed or timed out."""
        self.workers += 1
        name = f"w{self.workers}"
        result_file = self.tmp / f"{name}.json"
        args = [self.workload, str(self.seed), str(first), str(passes), str(int(trace)),
                str(self.tmp / name), str(result_file)]
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), repr(time.monotonic()), *args],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
            error = None if proc.returncode == 0 else proc.stderr.strip()[-2000:]
        except subprocess.TimeoutExpired:
            error = "worker timed out"
        if error is not None or not result_file.is_file():
            self.attempted += passes * self.presets
            self.failed += passes * self.presets
            self.failures.append(error or "worker wrote no result")
            return None
        report = json.loads(result_file.read_text())
        for record in report["passes"]:
            self.attempted += record["attempted"]
            self.failed += len(record["failures"])
            self.failures += [
                f"pass {record['index']} {label}: {why}"
                for label, why in record["failures"].items()
            ]
        return report


def _summary(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with ten samples above it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if n > 10:
        out[f"p{100 * (n - 10) / n:.0f}"] = sorted(values)[n - 11]
    return out


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced workers until `seconds` have passed; end-to-end metrics."""
    per_process = WORKLOADS[run.workload]["passes_per_process"]
    start = time.monotonic()
    reports, index = [], 0
    while (not reports or time.monotonic() - start < seconds) and time.monotonic() < run.deadline:
        report = run.spawn(index, per_process, trace=False)
        index += per_process
        if report is None:
            break
        reports.append(report)
    setups = [(r["setup_s"], r["setup_probe_s"]) for r in reports]
    while reports and len(setups) < MIN_SETUP_SAMPLES:
        extra = run.spawn(0, 0, trace=False)
        if extra is None:
            break
        setups.append((extra["setup_s"], extra["setup_probe_s"]))
    passes = [p for r in reports for p in r["passes"]]
    if not passes:
        return {}, {}
    raw = {
        "wall_s": [(p["wall_s"], p["probe_s"]) for p in passes],
        "cpu_s": [(p["user_s"] + p["sys_s"], p["probe_s"]) for p in passes],
        "setup_s": setups,
    }
    samples = {name: [at_reference_speed(*pair) for pair in pairs] for name, pairs in raw.items()}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reports]
    samples.update({f"{name}_unscaled": [t for t, _ in pairs] for name, pairs in raw.items()})
    samples["probe_s"] = [probe for _, probe in raw["wall_s"] + raw["setup_s"]]
    stats = {name: _summary(values) for name, values in samples.items()}
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS}
    detail = {
        "stats": stats,
        "passes_per_process": per_process,
        "processes": len(reports),
        "timed_passes_include_first_pass_of_process": True,
        "env": reports[0]["env"],
    }
    return metrics, detail


def trace(run: Run, seconds: float) -> tuple[dict, dict]:
    """Pairs of untraced and traced workers on the same inputs; layer metrics."""
    per_process = WORKLOADS[run.workload]["passes_per_process"]
    start = time.monotonic()
    pairs, index, last = [], 0, 0.0
    while (not pairs or time.monotonic() - start + last <= seconds) and (
        time.monotonic() < run.deadline
    ):
        begun = time.monotonic()
        plain = run.spawn(index, per_process, trace=False)
        traced = run.spawn(index, per_process, trace=True) if plain else None
        index += per_process
        if traced is None:
            break
        pairs.append((plain, traced))
        last = time.monotonic() - begun
    if not pairs:
        return {}, {}
    detail = {"pairs": len(pairs), "passes_per_process": per_process, "env": pairs[0][0]["env"]}
    return layer_metrics(pairs), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        run = Run(args.workload, args.seed, tmp)
        if args.trace:
            metrics, detail = trace(run, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, detail = measure(run, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not metrics:
        print("perfbench: no pass completed: " + " | ".join(run.failures[:5]), file=sys.stderr)
        return 1
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        failures=run.failures[:20],
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
