"""The runtime needs numpy only: every command runs, with the same output, in
an interpreter whose import system refuses scipy."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from annulus_radial import cli
from annulus_radial.config import load_config
from annulus_radial.oracle import green_consistency

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import contextlib, importlib.abc, io, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
import numpy as np
from annulus_radial import cli
from annulus_radial.config import load_config
from annulus_radial.oracle import green_consistency

runs, config = json.loads(sys.argv[1]), sys.argv[2]
out = {"runs": []}
for argv in runs:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out["runs"].append([code, stdout.getvalue(), stderr.getvalue()])
kernel = load_config(config).kernel
out["green"] = green_consistency(kernel, lambda t: np.sin(np.pi * t) + 1.0, 257)
out["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
try:
    import scipy.integrate
    out["refused"] = False
except ImportError:
    out["refused"] = True
print(json.dumps(out))
"""


def _rhs(t):
    return np.sin(np.pi * t) + 1.0


def _in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return [code, stdout.getvalue(), stderr.getvalue()]


def test_every_command_runs_without_scipy(tmp_path):
    doc = {
        "kernel": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "r0": 1.0, "N": 3},
        "weights": {"synthetic": "1"},
        "system": {"n": 1, "g": ["u/100"]},
        "numerics": {"grid_size": 257, "cutoff": 1e-6, "tol": 1e-10,
                     "max_iter": 50, "p": 2, "q": 2},
        "windows": {"K": 0.5},
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    path = str(config)
    runs = [["reproduce", "--example", str(k)] for k in (1, 2, 3, 4)]
    runs += [["constants", "--config", path],
             ["check", "--config", path, "--which", "uniqueness"],
             ["kernel", "--config", path],
             ["solve", "--config", path]]

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(runs), path],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])

    assert child["scipy"] == [] and child["refused"]
    for argv, got in zip(runs, child["runs"]):
        assert got == _in_process(argv), argv
    assert child["green"] == green_consistency(load_config(path).kernel, _rhs, 257)


def test_reproduce_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, which a fresh CLI run
    # would pay for (~16 ms); the extremum grids and window candidates avoid it
    code = ("import sys\n"
            "from annulus_radial.reproduce import reproduce\n"
            "for k in (1, 2, 3, 4):\n"
            "    reproduce(k)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
