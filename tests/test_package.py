"""The package table and what each preset loads.

``rosenau`` resolves its public names on first use, so ``import rosenau``
loads no submodule; a ``rosenau run`` process loads the modules its preset
declares while it parses the config, and its pass loads nothing more.  Each
preset runs in a process of its own here, so that no preset's declaration
can cover a module another preset leaves out.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rosenau
from rosenau.cli import PRESETS

SRC = Path(__file__).resolve().parent.parent / "src"

# module -> the names the package exported from it before the table
EXPORTED = {
    "errors": [
        "InputDomainError", "IntegrabilityError", "InvariantViolation",
        "PreconditionError", "RosenauError", "UncertifiedTailError",
    ],
    "model": [
        "BandBoundaries", "ModelParams", "SincConstants", "band_boundaries",
        "derivative_floor", "dispersion_derivatives", "epsilon0", "eval_dispersion",
        "second_derivative_bound", "unit_sphere_area",
    ],
    "tails": ["TailBound"],
    "evolution": [
        "GridField", "RadialInitialData", "evolve_grid", "evolve_grid_times",
        "total_energy", "total_energy_grid",
    ],
    "catalog": [
        "compact_band_data", "data_from_spec", "gaussian_position_data", "gaussian_profile",
        "gaussian_velocity_data",
    ],
    "moments": [
        "MomentDecomposition", "RadialProfile", "fluctuation", "l1_norm_and_l2_sq",
    ],
    "norms": [
        "BandSplit", "NormTrace", "QuadratureConfig", "band_split_norm",
        "compute_norm_trace", "geometric_times", "norm_squared", "write_norm_trace_csv",
    ],
    "bounds": [
        "EnvelopeReport", "averaged_tail_remainder", "envelope_report",
        "fluctuation_remainder", "low_band_mass", "lower_envelope", "upper_envelope",
        "weighted_gaussian_constant",
    ],
    "growth": [
        "ClassifyReport", "GrowthFit", "SandwichReport", "classify_growth", "fit_log",
        "fit_power", "sandwich_report",
    ],
    "hardy": [
        "BlowupScan", "QuotientTrace", "WeightFunction", "blowup_scan", "capacity_family",
        "dilation_family", "energy_identity_check", "rellich_quotient",
    ],
    "wellposed": [
        "MultiplierScan", "dissipativity_residual", "h_ratio_scan", "high_frequency_limit",
        "sobolev_equivalence_check",
    ],
    "cli": ["ExperimentConfig", "run_experiment"],
}
NAMES = [name for names in EXPORTED.values() for name in names]

TRACE_PRESETS = ("theorem-1-1", "theorem-1-2", "prop-4-1", "custom")
CHECK_PRESETS = ("hardy-failure", "wellposed-check", "energy-conservation")


def fresh(code: str, *args: str, blas_threads: str | None = None) -> dict:
    """The JSON that code prints last, run in a fresh interpreter on src/,
    with OPENBLAS_NUM_THREADS set to blas_threads or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestPackageTable:
    def test_all_is_the_exported_names(self):
        assert len(NAMES) == 70
        assert rosenau.__all__ == NAMES

    def test_each_name_is_its_module_attribute(self):
        listed = dir(rosenau)
        for module, names in EXPORTED.items():
            home = importlib.import_module(f"rosenau.{module}")
            for name in names:
                assert getattr(rosenau, name) is getattr(home, name), name
                assert name in listed

    def test_unknown_name_is_missing(self):
        assert not hasattr(rosenau, "nope")
        with pytest.raises(AttributeError, match="'nope'"):
            rosenau.nope

    def test_import_loads_no_submodule_and_star_import_gives_every_name(self):
        report = fresh(
            "import json, sys, rosenau\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('rosenau.'))\n"
            "namespace = {}\n"
            "exec('from rosenau import *', namespace)\n"
            "print(json.dumps([loaded, sorted(set(namespace) - {'__builtins__'})]))\n"
        )
        assert report == [[], sorted(NAMES)]


_PROBE = r"""
import json, sys
import rosenau.cli as cli
from rosenau.catalog import data_from_spec

cfg = cli.ExperimentConfig.from_dict({"preset": sys.argv[1], "output_dir": sys.argv[2]})
spec = dict(cfg.data_spec)
data_from_spec(spec.pop("name"), cfg.params.dim, **spec)
before = set(sys.modules)
exit_code = cli.run_experiment(cfg).exit_code
print(json.dumps([exit_code, sorted(set(sys.modules) - before), sorted(sys.modules)]))
"""


def test_every_preset_is_a_trace_or_a_check_preset():
    assert sorted(TRACE_PRESETS + CHECK_PRESETS) == sorted(PRESETS)


@pytest.mark.parametrize("preset", TRACE_PRESETS + CHECK_PRESETS)
def test_a_preset_alone_loads_only_what_it_calls(preset, tmp_path):
    exit_code, added, loaded = fresh(_PROBE, preset, str(tmp_path / preset))
    assert (exit_code, added) == (0, [])
    # the records generate no code, so nothing loads the standard library's
    assert "dataclasses" not in loaded
    if preset in TRACE_PRESETS:
        unused = {"rosenau.hardy", "rosenau.wellposed", "argparse"}
        assert [m for m in loaded if m in unused or m.split(".")[:2] == ["numpy", "polynomial"]] == []
    else:
        assert [m for m in loaded if m in ("rosenau.bounds", "rosenau.growth")] == []


@pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(setting, expected):
    # OpenBLAS reads the setting when numpy loads; with more than one thread
    # its worker busy-waits for about 100 ms of CPU after the import
    report = fresh(
        "import json, os, rosenau.cli\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], threads]))\n",
        blas_threads=setting,
    )
    assert report[0] == expected
    if setting is None and report[1] is not None:
        assert report[1] == 1
