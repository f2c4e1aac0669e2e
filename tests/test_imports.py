"""Fresh-process import hygiene.

`rosenau run` is a fresh process per preset, so what the package imports is
paid on every run: importing ``rosenau.cli`` loads no scipy module, and a
preset pass loads no module that set-up (the configs and ``data_from_spec``)
has not already loaded, so no first pass pays a lazy import inside its timer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import json, sys
import rosenau.cli as cli
from rosenau.catalog import data_from_spec

report = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), "passes": {}}
names = [name for name in cli.PRESETS if name != "custom"]
configs = [
    cli.ExperimentConfig.from_dict({"preset": name, "output_dir": f"{sys.argv[1]}/{name}"})
    for name in names
]
for cfg in configs:
    spec = dict(cfg.data_spec)
    data_from_spec(spec.pop("name"), cfg.params.dim, **spec)
for name, cfg in zip(names, configs):
    before = set(sys.modules)
    exit_code = cli.run_experiment(cfg).exit_code
    report["passes"][name] = [exit_code, sorted(set(sys.modules) - before)]
print(json.dumps(report))
"""


def test_no_scipy_at_import_and_no_import_inside_a_preset_pass(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert len(report["passes"]) == 6
    for name, (exit_code, added) in report["passes"].items():
        assert (name, exit_code, added) == (name, 0, [])
