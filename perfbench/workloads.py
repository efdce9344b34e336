"""Operations and CLI command sets of the three workloads.

An operation calls the library through its module attributes at call time
(``lib.solver.picard_solve``), so the tracer's wrappers see every call.
Each operation returns its outputs; checking happens outside the timed
region.  A cycle is the fixed sequence of operations a workload repeats:
the four examples (audit), one two-step operation (fine-grid) or the pool
of eight draws (screen), so exact counters can be compared cycle by cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen


@dataclass
class Op:
    label: str
    run: Callable          # (outputs dict) -> None, filling it step by step
    check: Callable        # outputs -> problems
    known_rejection: Callable = staticmethod(lambda exc: False)


@dataclass
class CliJob:
    label: str
    argv: list
    expected_rc: int
    check: Callable        # stdout -> problems


@dataclass
class Workload:
    name: str
    cycle: list
    cli_jobs: list = field(default_factory=list)
    sizes: str = ""


def _dump(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------


def audit(lib, seed: int, workdir: Path) -> Workload:
    examples = gen.audit_inputs(seed)["examples"]
    reports: dict = {}  # first in-process report of each example, for the CLI

    def make(k):
        def run(out):
            out["report"] = lib.reproduce.reproduce(k)

        def check(out):
            reports.setdefault(k, _dump(out["report"]))
            return checks.check_audit(k, out["report"])

        return Op(f"reproduce({k})", run, check)

    def cli_check(k):
        def check(stdout):
            problems = checks.check_audit(k, json.loads(stdout))
            if stdout != reports.get(k):
                problems.append(f"reproduce --example {k}: CLI report differs from "
                                "the in-process report")
            return problems

        return check

    jobs = [CliJob(f"reproduce --example {k}", ["reproduce", "--example", str(k)], 0,
                   cli_check(k)) for k in examples]
    return Workload("audit", [make(k) for k in examples], jobs,
                    "examples 1-4 as published (quadrature ladder 1e-2..1e-8)")


# ---------------------------------------------------------------------------


def fine_grid(lib, seed: int, workdir: Path) -> Workload:
    inp = gen.fine_grid_inputs(seed)
    ref = gen.fine_grid_references(inp)
    kcfg = lib.config.config_from_dict(inp["kernel_doc"])
    scfg = lib.config.config_from_dict(inp["system_doc"])
    spec = scfg.problem_spec()
    tol = float(scfg.numerics["tol"])
    max_iter = int(scfg.numerics["max_iter"])
    sups: list = []

    def run(out):
        out["bounds"] = lib.kernel.verify_kernel_bounds(
            kcfg.kernel, grid_size=gen.FINE_CERTIFY_GRID)
        u, trace = lib.solver.picard_solve(spec, tol=tol, max_iter=max_iter)
        out["u"], out["trace"] = u, trace
        out["c64"] = lib.solver.recover_components(spec, u, tol=gen.FINE_RECOVER_TOL)
        out["cld"] = lib.solver.recover_components(
            spec, u, tol=gen.FINE_RECOVER_TOL, extended_precision=True)
        out["residual"] = lib.solver.residual_check(spec, out["cld"])

    def check(out):
        problems = checks.check_bounds(out["bounds"].to_dict(), ref["kernel"],
                                       gen.FINE_CERTIFY_GRID, "fine-grid certificate")
        problems += checks.check_solve(
            out["u"], out["trace"], out["cld"], out["residual"], gen.FINE_RECOVER_TOL,
            ref["system"]["cone_floor"], spec.kernel.r0, "fine-grid solve")
        sup = max(float(np.max(np.abs(c.values))) for c in out["cld"])
        for i, (a, b) in enumerate(zip(out["c64"], out["cld"])):
            gap = float(np.max(np.abs(a.values - np.asarray(b.values, dtype=float))))
            if gap > 1e-9 * sup:
                problems.append(f"fine-grid: float64 and longdouble u{i + 1} differ by {gap:.3e}")
        if not sups:
            sups.extend(float(np.max(np.abs(c.values))) for c in out["c64"])
        return problems

    kpath = _write(workdir, "fine-kernel.json", inp["kernel_doc"])
    spath = _write(workdir, "fine-system.json", inp["system_doc"])
    jobs = [
        CliJob("kernel --grid 4001",
               ["kernel", "--config", kpath, "--grid", str(gen.FINE_CERTIFY_GRID)], 0,
               lambda stdout: checks.check_kernel_cli(
                   json.loads(stdout[stdout.index("{"):]), stdout, ref["kernel"],
                   gen.FINE_CERTIFY_GRID)),
        CliJob("solve (example 4, m=1000001)", ["solve", "--config", spath], 0,
               lambda stdout: checks.check_solve_cli(
                   json.loads(stdout), ref["system"]["cone_floor"], sups)),
    ]
    return Workload("fine-grid", [Op("certify+solve", run, check)], jobs,
                    f"certify m={gen.FINE_CERTIFY_GRID}; example 4 on m={gen.FINE_SOLVE_GRID}")


# ---------------------------------------------------------------------------


def screen(lib, seed: int, workdir: Path) -> Workload:
    draws = gen.screen_inputs(seed)["draws"]
    for d in draws:
        d["text"] = json.dumps(d["doc"])
        d["ref"] = gen.screen_reference(d)

    def make(d):
        ref = d["ref"]
        rhs = gen.green_rhs(d)
        A, B, _ = d["green"]
        win = d["doc"]["windows"]
        num = d["doc"]["numerics"]

        def run(out):
            cfg = lib.config.config_from_dict(json.loads(d["text"]))
            out["bounds"] = lib.kernel.verify_kernel_bounds(
                cfg.kernel, grid_size=gen.SCREEN_CERTIFY_GRID)
            cs = lib.conditions.compute_constants(
                cfg.kernel, cfg.weights, cfg.transform, float(num["q"]))
            out["constants"] = cs
            out["windows"] = lib.conditions.check_krasnoselskii(
                cfg.g, win["a1"], win["a2"], cs)
            out["contraction"] = lib.conditions.contraction_constant(
                cfg.kernel, cfg.weights, cfg.transform, win["K"], cfg.n,
                float(num["p"]), float(num["q"]))
            spec = cfg.problem_spec()
            u, trace = lib.solver.picard_solve(spec, tol=num["tol"], max_iter=num["max_iter"])
            out["u"], out["trace"] = u, trace
            out["comps"] = lib.solver.recover_components(spec, u, tol=num["tol"])
            out["residual"] = lib.solver.residual_check(spec, out["comps"])
            out["green"] = lib.oracle.green_consistency(cfg.kernel, rhs, gen.SCREEN_GREEN_GRID)

        def check(out):
            label = f"screen draw {d['index']}"
            problems: list = []
            if "bounds" in out:
                problems += checks.check_bounds(out["bounds"].to_dict(), ref,
                                                gen.SCREEN_CERTIFY_GRID, label)
            if "constants" in out:
                problems += checks.check_constants(out["constants"].to_dict(), ref, label)
            if "windows" in out:
                problems += checks.check_windows([w.to_dict() for w in out["windows"]],
                                                 ref, label)
            if "contraction" in out:
                problems += checks.check_contraction(out["contraction"].to_dict(), ref,
                                                     label)
            if "residual" in out:
                problems += checks.check_solve(
                    out["u"], out["trace"], out["comps"], out["residual"], num["tol"],
                    ref["cone_floor"], d["doc"]["kernel"]["r0"], label)
            if "green" in out:
                problems += checks.check_green(out["green"], A + B, label)
            return problems

        def known_rejection(exc):
            # the solver refuses r0 > 100 (it keeps unscaled phi/psi)
            return d["large_r0"] and isinstance(exc, ValueError) and "r0" in str(exc)

        return Op(f"draw {d['index']}", run, check, known_rejection)

    def constants_check(d):
        def check(stdout):
            payload = json.loads(stdout)
            problems = checks.check_constants(payload["constants"], d["ref"],
                                              f"constants CLI draw {d['index']}")
            checks.expect_close(problems, "constants CLI varrho", payload["varrho"],
                                 d["ref"]["varrho"])
            return problems

        return check

    def windows_check(d):
        def check(stdout):
            payload = json.loads(stdout)
            label = f"check CLI draw {d['index']}"
            return (checks.check_constants(payload["constants"], d["ref"], label)
                    + checks.check_windows(payload["windows"], d["ref"], label))

        return check

    jobs = []
    for d in (draws[0], draws[1], draws[gen.SCREEN_LARGE_R0_INDEX]):
        path = _write(workdir, f"screen-{d['index']}.json", d["doc"])
        rc = checks.screen_exit_codes(d["ref"])
        jobs.append(CliJob(f"constants draw {d['index']}", ["constants", "--config", path],
                           rc["constants"], constants_check(d)))
        jobs.append(CliJob(f"check krasnoselskii draw {d['index']}",
                           ["check", "--config", path, "--which", "krasnoselskii"],
                           rc["check"], windows_check(d)))
    return Workload("screen", [make(d) for d in draws], jobs,
                    f"{gen.SCREEN_POOL} draws: certify m={gen.SCREEN_CERTIFY_GRID}, "
                    f"Picard m={gen.SCREEN_SOLVE_GRID}, FD m={gen.SCREEN_GREEN_GRID}")


def build(name: str, lib, seed: int, workdir: Path) -> Workload:
    return {"audit": audit, "fine-grid": fine_grid, "screen": screen}[name](lib, seed, workdir)


def build_configs(name: str, lib, seed: int) -> int:
    """What set-up builds: the workload's config objects from its documents."""
    if name == "audit":
        docs = [lib.reproduce.example_config(k) for k in gen.audit_inputs(seed)["examples"]]
    else:
        docs = gen.config_documents(name, gen.inputs(name, seed))
    return len([lib.config.config_from_dict(doc) for doc in docs])
