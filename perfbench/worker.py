"""One benchmark worker process: set up, run passes, gate them, report.

Started by run.py as a fresh interpreter, so set-up time is what a user of
`rosenau run` pays.  Usage (all arguments are supplied by run.py):

    worker.py SPAWN_TIME WORKLOAD SEED FIRST_PASS PASSES TRACE OUT_DIR RESULT_FILE

SPAWN_TIME is the parent's time.monotonic() just before starting this
process.  PASSES = 0 stops after set-up.  Each pass runs the workload's
presets back to back through `rosenau.cli.run_experiment`; the timer runs
from the first call to the return of the last (its verdict written).  The
correctness gate runs after the timer stops and never aborts the pass.

A HostProbe (hostprobe.py) samples the host's speed from the first line of
the worker to its report; every time is reported net of the probes that ran
inside it, together with the median probe taken around it.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

from hostprobe import HostProbe
from workloads import ROOT, amplitude, preset_configs, use_source_tree


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, None if not found."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def _environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def main(argv: list[str]) -> None:
    spawn_time = float(argv[0])
    workload, seed, first, passes = argv[1], int(argv[2]), int(argv[3]), int(argv[4])
    trace, out_root, result_file = argv[5] == "1", Path(argv[6]), Path(argv[7])
    probe = HostProbe()
    probe.start()

    use_source_tree()
    import rosenau
    import rosenau.cli as cli
    from rosenau.catalog import data_from_spec

    from gate import Gate

    if not Path(rosenau.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported rosenau from {rosenau.__file__}")

    def configs(index: int):
        amp = amplitude(seed, index)
        runs = [(label, cli.ExperimentConfig.from_dict(raw))
                for label, raw in preset_configs(workload, amp, out_root)]
        return amp, runs

    amp, runs = configs(first)
    for _, cfg in runs:
        spec = dict(cfg.data_spec)
        data_from_spec(spec.pop("name"), cfg.params.dim, **spec)
    setup_s = time.monotonic() - spawn_time
    setup_end = time.perf_counter()
    setup_s -= probe.inside(0.0, setup_end)
    gate = Gate.load()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        warning_counts = {"norms.fallback_warnings": 0, "evolution.wraparound_warnings": 0}

    records, timed = [], []
    for index in range(first, first + passes):
        if index > first:
            amp, runs = configs(index)
        shutil.rmtree(out_root, ignore_errors=True)
        results, errors = {}, {}
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        if trace:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _run_all(cli, runs, results, errors)
            for w in caught:
                text = str(w.message)
                if "falling back to exact-adaptive" in text:
                    warning_counts["norms.fallback_warnings"] += 1
                elif "wrap-around window" in text:
                    warning_counts["evolution.wraparound_warnings"] += 1
        else:
            _run_all(cli, runs, results, errors)
        end = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        probe_time = probe.inside(start, end)
        timed.append((start, end))

        failures = {}
        for label, cfg in runs:
            if label in errors:
                failures[label] = errors[label]
                continue
            problems = gate.check(label, cfg, results[label], amp)
            if problems:
                failures[label] = "; ".join(problems)
        records.append({
            "index": index,
            "amplitude": amp,
            "wall_s": end - start - probe_time,
            "user_s": usage1.ru_utime - usage0.ru_utime - probe_time,
            "sys_s": usage1.ru_stime - usage0.ru_stime,
            "minor_faults": usage1.ru_minflt - usage0.ru_minflt,
            "artifact_bytes": _artifact_bytes(out_root),
            "attempted": len(runs),
            "failures": failures,
        })

    probe.stop()
    for record, (start, end) in zip(records, timed):
        record["probe_s"] = probe.speed(start, end)
    report = {
        "setup_s": setup_s,
        "setup_probe_s": probe.speed(0.0, setup_end),
        "passes": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["trace"]["counts"].update(warning_counts)
        tracer.write_spans(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.csv.gz")
    result_file.write_text(json.dumps(report))


def _run_all(cli, runs, results: dict, errors: dict) -> None:
    for label, cfg in runs:
        try:
            results[label] = cli.run_experiment(cfg)
        except Exception as exc:  # a failed preset is counted, never fatal
            errors[label] = f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    main(sys.argv[1:])
