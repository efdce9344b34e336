"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import annulus_radial  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LIB = tracer.library(annulus_radial)


def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _traced_cycle(wl, tr):
    rec = tr.install()
    try:
        for op in wl.cycle:
            try:
                op.run({})
            except ValueError:
                pass  # the r0 > 100 draw; its error count is compared below
    finally:
        tr.uninstall()
    return tracer.layer_metrics(rec)


def test_traced_and_untraced_audit_reports_are_identical():
    tr = tracer.Tracer(LIB)
    for k in (1, 2, 3, 4):
        plain = _dump(LIB.reproduce.reproduce(k))
        tr.install()
        try:
            traced = _dump(LIB.reproduce.reproduce(k))
        finally:
            tr.uninstall()
        assert traced == plain
    assert LIB.quadrature.integrate.__name__ == "integrate"
    assert LIB.conditions.integrate is LIB.quadrature.integrate


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = json.dumps(gen.inputs(workload, 5), sort_keys=True)
    assert json.dumps(gen.inputs(workload, 5), sort_keys=True) == first
    if workload != "audit":
        assert json.dumps(gen.inputs(workload, 6), sort_keys=True) != first


def test_checker_flags_a_wrong_audit_status():
    report = LIB.reproduce.reproduce(1)
    assert checks.check_audit(1, report) == []
    bad = copy.deepcopy(report)
    bad["rows"][-1]["status"] = "converged"
    assert checks.check_audit(1, bad)
    bad = copy.deepcopy(report)
    bad["rows"][0]["computed"] *= 1.0 + 1e-9
    assert checks.check_audit(1, bad)
    bad = copy.deepcopy(report)
    bad["windows_bypass"][0]["verdict"] = False
    assert checks.check_audit(1, bad)


def test_checker_flags_a_wrong_screen_value_status_or_verdict():
    # a draw whose sup-based constants converge
    draw, ref = next((d, r) for d in gen.screen_inputs(3)["draws"]
                     for r in [gen.screen_reference(d)] if r["status"]["k3"] == "converged")
    cfg = LIB.config.config_from_dict(draw["doc"])
    cs = LIB.conditions.compute_constants(cfg.kernel, cfg.weights, cfg.transform, 2.0)
    good = cs.to_dict()
    assert checks.check_constants(good, ref, "draw") == []
    bad = copy.deepcopy(good)
    bad["k1"]["value"] *= 1.0 + 1e-7
    assert checks.check_constants(bad, ref, "draw")
    bad = copy.deepcopy(good)
    bad["Q2"]["status"] = "cutoff_limited"
    assert checks.check_constants(bad, ref, "draw")
    bad = copy.deepcopy(good)
    bad["k3"]["value"] *= 1.0 - 1e-7  # the supremum's documented shortfall
    assert all(isinstance(p, checks.Known) for p in checks.check_constants(bad, ref, "d"))
    bad = copy.deepcopy(good)
    bad["k3"]["value"] *= 1.0 + 1e-7  # the other way is a plain failure
    assert not any(isinstance(p, checks.Known) for p in checks.check_constants(bad, ref, "d"))
    windows = [w.to_dict() for w in LIB.conditions.check_krasnoselskii(
        cfg.g, draw["doc"]["windows"]["a1"], draw["doc"]["windows"]["a2"], cs)]
    assert checks.check_windows(windows, ref, "draw") == []
    windows[0]["verdict"] = not windows[0]["verdict"]
    assert checks.check_windows(windows, ref, "draw")


@pytest.mark.parametrize("workload", ["audit", "screen"])
def test_exact_counts_repeat(workload, tmp_path):
    wl = workloads.build(workload, LIB, 2, tmp_path)
    tr = tracer.Tracer(LIB)
    first = _traced_cycle(wl, tr)
    second = _traced_cycle(wl, tr)
    exact = {k: first[k] for k in tracer.EXACT}
    assert exact == {k: second[k] for k in tracer.EXACT}
    assert sum(first[f"quadrature.status.{s}"] for s in tracer.STATUSES) > 0
    assert first["exprlang.scalar_evals"] > 0
    if workload == "screen":
        assert first["solver.picard_iterations"] > 0
        assert first["solver.errors"] == 1  # the r0 > 100 draw


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import annulus_radial, tracer, workloads, test_perfbench
from pathlib import Path
lib = tracer.library(annulus_radial)
wl = workloads.build("audit", lib, 2, Path(sys.argv[3]))
m = test_perfbench._traced_cycle(wl, tracer.Tracer(lib))
print(json.dumps({k: m[k] for k in tracer.EXACT}))
"""


def test_exact_counts_repeat_across_processes(tmp_path):
    def counts():
        out = subprocess.run(
            [sys.executable, "-c", _COUNTS_SCRIPT, str(HERE.parent / "src"), str(HERE),
             str(tmp_path)], capture_output=True, text=True, check=True, timeout=120)
        return json.loads(out.stdout.splitlines()[-1])

    assert counts() == counts()
