"""Cold start: importing polsim and running any task without a spin-wave map
loads numpy and the standard library only; the first spin-wave quadrature
loads scipy.

Each check runs in a fresh interpreter with ``PYTHONPATH`` set to the
sources, because this test process has scipy loaded by other tests' oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import PHYSICAL, WIDTH, write_config

SRC = Path(__file__).resolve().parents[1] / "src"

# imports polsim, then runs each (task, config) through the CLI, and prints
# the scipy modules loaded after the import and after each run
PROBE = """
import json, sys
import polsim, polsim.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "runs": []}
for task, config in json.loads(sys.argv[1]):
    code = polsim.cli.main([task, "--config", config])
    report["runs"].append({"task": task, "exit": code, "scipy": scipy_modules()})
print(json.dumps(report))
"""

# the cheap tasks, each on a small config of the CLI tests' media
CHEAP = {
    "spectrum": (PHYSICAL, {"regime": "blockaded", "n_k": 41, "kmax_labs": 0.5}),
    "t0": (WIDTH, {"omega_min": -1e-4, "omega_max": 1e-4, "n_omega": 21,
                   "fit_width": True}),
    "propagate": (PHYSICAL, {"omega": 0.45}),
    "cw": (PHYSICAL, {"d_b_min": 0.5, "d_b_max": 10.0, "n_db": 4}),
    "scan": (WIDTH, {"parameter": "OmegaS", "values": [1.0, 2.0],
                     "observable": "transparency_width"}),
}


def fresh_process(runs=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def task_config(tmp_path, task, physical, params):
    path = write_config(
        tmp_path, name=f"{task}.json", physical=physical, task=task,
        task_params=params, output_dir=str(tmp_path / task),
    )
    return [task, str(path)]


def manifest_versions(tmp_path, task):
    return json.loads((tmp_path / task / "manifest.json").read_text())["versions"]


def test_import_loads_no_scipy():
    assert fresh_process()["import"] == []


def test_tasks_without_a_spin_wave_map_load_no_scipy(tmp_path):
    runs = [task_config(tmp_path, task, *entry) for task, entry in CHEAP.items()]
    report = fresh_process(runs)
    assert [(r["task"], r["exit"], r["scipy"]) for r in report["runs"]] == [
        (task, 0, []) for task in CHEAP
    ]
    for task in CHEAP:
        assert sorted(manifest_versions(tmp_path, task)) == [
            "numpy", "numpy_simd", "polsim", "python",
        ]


def test_spinwave_task_loads_the_quadrature(tmp_path):
    # a one-radius medium keeps the 64-point map to about two seconds
    physical = dict(PHYSICAL, L=1.0, x_gate=0.5)
    runs = [task_config(tmp_path, "spinwave", physical, {"n_samples": 64})]
    [run] = fresh_process(runs)["runs"]
    assert run["exit"] == 0
    assert "scipy.integrate" in run["scipy"]
    assert sorted(manifest_versions(tmp_path, "spinwave")) == [
        "numpy", "numpy_simd", "polsim", "python", "scipy",
    ]
