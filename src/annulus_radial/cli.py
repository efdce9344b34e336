"""Command-line front end.

    annulus-radial kernel     --config cfg.json [--grid N] [--table] [--out DIR]
    annulus-radial constants  --config cfg.json [--out DIR]
    annulus-radial check      --config cfg.json --which NAME [--out DIR]
    annulus-radial solve      --config cfg.json [--init LEVEL | --multistart] [--out DIR]
    annulus-radial reproduce  --example K [--out DIR]

Reports are JSON with sorted keys (byte-stable across runs for identical
configs); profiles are CSV with a header row and '.' decimals, built only
when --out is given.  Exit codes: 0 success / all checks pass; 1 a verdict
failed; 2 configuration problem; 3 divergent or inconclusive ingredients
(including an expression that fails to evaluate while constants or check
run); 4 the iteration did not converge, its defect gate failed, or solve
failed at run time (an expression that fails to evaluate, a cycle that does
not close).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .conditions import (
    WINDOW_FAMILIES,
    ConjugateExponentError,
    check_windows,
    compute_constants,
    contraction_constants,
)
from .config import AppConfig, ConfigError, load_config
from .exprlang import ExprDomainError, ExprError
from .kernel import (
    DegenerateParametersError,
    cone_floor,
    kernel_eval,
    varrho,
    verify_kernel_bounds,
    wp,
)
from .quadrature import CONVERGED, EvaluationError
from .reproduce import EXAMPLE_IDS, reproduce
from .solver import (
    CycleConsistencyError,
    multistart_solve,
    picard_solve,
    recover_components,
    worst_defects,
)
from .weights import kelvin_r

_PROPERTY_LABELS = (
    "(i) nonnegativity",
    "(ii) diagonal domination",
    "(iii) cone lower bound",
)


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write_json(out: Path | None, name: str, payload: dict) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def _write_text(out: Path | None, name: str, text: str) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")


def cmd_kernel(cfg: AppConfig, grid: int, table: bool, out: Path | None) -> int:
    if table:
        if grid < 2:
            raise ValueError("grid_size must be >= 2")
        nodes = np.linspace(0.0, 1.0, grid)
        M = kernel_eval(cfg.kernel, nodes[:, None], nodes[None, :])
        lines = ["s,t,value"]
        for i, s in enumerate(nodes):
            for j, t in enumerate(nodes):
                lines.append(f"{float(s)!r},{float(t)!r},{float(M[i, j])!r}")
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
        _write_text(out, "kernel_table.csv", text)
        return 0
    report = verify_kernel_bounds(cfg.kernel, grid_size=grid)
    for label, ok in zip(_PROPERTY_LABELS, report.passed):
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {label}\n")
    payload = {
        "varrho": varrho(cfg.kernel),
        "wp": wp(cfg.kernel),
        "bounds": report.to_dict(),
    }
    _emit(payload)
    _write_json(out, "kernel_check.json", payload)
    return 0 if report.all_passed else 1


def cmd_constants(cfg: AppConfig, out: Path | None) -> int:
    constants = compute_constants(
        cfg.kernel, cfg.weights, cfg.transform, float(cfg.numerics["q"])
    )
    payload = {
        "varrho": varrho(cfg.kernel),
        "constants": constants.to_dict(),
    }
    _emit(payload)
    _write_json(out, "constants.json", payload)
    return 0 if all(c.status == CONVERGED for c in constants.table.values()) else 3


def _need(cfg: AppConfig, *keys: str) -> list:
    missing = [k for k in keys if k not in cfg.windows]
    if missing:
        raise ConfigError(f"windows section is missing {missing}")
    return [cfg.windows[k] for k in keys]


def _checks_exit(checks) -> int:
    if any(not c.verdict and c.conclusive for c in checks):
        return 1
    if any(not c.conclusive for c in checks):
        return 3
    return 0


def cmd_check(cfg: AppConfig, which: str, out: Path | None) -> int:
    if which == "uniqueness":
        (K,) = _need(cfg, "K")
        p = float(cfg.numerics["p"])
        q = float(cfg.numerics["q"])
        results = contraction_constants(
            cfg.kernel, cfg.weights, cfg.transform, K, cfg.n, p, q
        )
        payload = {
            "which": which,
            "contraction": {k: v.to_dict() for k, v in results.items()},
        }
        _emit(payload)
        _write_json(out, "check.json", payload)
        main = results["without_wp"]
        if main.status != CONVERGED:
            return 3
        return 0 if main.value < 1.0 else 1

    constants = compute_constants(
        cfg.kernel, cfg.weights, cfg.transform, float(cfg.numerics["q"])
    )
    values = _need(cfg, *WINDOW_FAMILIES[which].keys)
    (checks,) = check_windows(which, cfg.g, values, [constants])
    payload = {
        "which": which,
        "constants": constants.to_dict(),
        "windows": [c.to_dict() for c in checks],
    }
    _emit(payload)
    _write_json(out, "check.json", payload)
    return _checks_exit(checks)


def _profile_csv(spec, components) -> str:
    nodes = components[0].nodes
    r = kelvin_r(nodes, spec.transform)
    header = "s,r," + ",".join(f"u{i + 1}" for i in range(len(components)))
    # one tolist() per column: a float() per value takes ~40% longer at m = 1e6
    columns = [np.asarray(col, dtype=float).tolist()
               for col in (nodes, r, *(c.values for c in components))]
    rows = map(",".join, zip(*(map(repr, col) for col in columns)))
    return "\n".join([header, *rows]) + "\n"


def cmd_solve(
    cfg: AppConfig, init: float | None, multistart: bool, out: Path | None
) -> int:
    spec = cfg.problem_spec()
    tol = float(cfg.numerics["tol"])
    max_iter = int(cfg.numerics["max_iter"])

    if multistart:
        levels = [0.0] + sorted(
            v for k, v in cfg.windows.items() if k != "K" and v > 0
        )
        branches = multistart_solve(spec, levels, tol=tol, max_iter=max_iter)
        payload = {
            "multistart_levels": levels,
            "solutions_found": len(branches),
            "traces": [t.to_dict() for _, t in branches],
        }
        _emit(payload)
        _write_json(out, "multistart.json", payload)
        return 0 if branches else 4

    if init is not None and not math.isfinite(init):
        raise ConfigError(f"--init must be finite, got {init!r}")
    u, trace = picard_solve(spec, init=init, tol=tol, max_iter=max_iter)
    if not trace.converged:
        payload = {"trace": trace.to_dict()}
        _emit(payload)
        _write_json(out, "trace.json", payload)
        return 4

    components = recover_components(spec, u, tol=tol)
    residual, rel_defect = worst_defects(spec, components)
    # the gap is measured against the certified floor: wp bounds the kernel
    # from below only for symmetric parameters
    floor = cone_floor(cfg.kernel)
    cone = [
        {
            "component": i + 1,
            "min": float(c.values.min()),
            "max": float(c.values.max()),
            "cone_gap": float(c.values.min() - floor * c.values.max()),
        }
        for i, c in enumerate(components)
    ]
    payload = {
        "trace": trace.to_dict(),
        "residual_max": residual,
        "relative_defect": rel_defect,
        "cone": cone,
        "wp": wp(cfg.kernel),
        "cone_floor": floor,
        "sup_norms": [float(np.max(np.abs(c.values))) for c in components],
    }
    _emit(payload)
    _write_json(out, "trace.json", payload)
    if out is not None:  # the profile of a fine grid is the costliest output
        _write_text(out, "profile.csv", _profile_csv(spec, components))
    return 0 if rel_defect <= 1e-3 else 4


def cmd_reproduce(example: int, out: Path | None) -> int:
    report = reproduce(example)
    _emit(report)
    _write_json(out, f"reproduce-example-{example}.json", report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annulus-radial",
        description=(
            "Two-point reduction of radial elliptic systems: kernel bounds, "
            "existence/uniqueness constants, hypothesis windows, and Picard "
            "iteration with an audit harness for the published examples."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="kernel table or bound certification")
    k.add_argument("--config", required=True)
    k.add_argument("--grid", type=int, default=101)
    k.add_argument("--table", action="store_true", help="print Xi as CSV instead")
    k.add_argument("--out", default=None)

    c = sub.add_parser("constants", help="compute every window constant")
    c.add_argument("--config", required=True)
    c.add_argument("--out", default=None)

    ch = sub.add_parser("check", help="verify one hypothesis family")
    ch.add_argument("--config", required=True)
    ch.add_argument(
        "--which",
        required=True,
        choices=[*WINDOW_FAMILIES, "uniqueness"],
    )
    ch.add_argument("--out", default=None)

    s = sub.add_parser("solve", help="Picard iteration on the configured system")
    s.add_argument("--config", required=True)
    start = s.add_mutually_exclusive_group()
    start.add_argument("--init", type=float, default=None)
    start.add_argument("--multistart", action="store_true")
    s.add_argument("--out", default=None)

    r = sub.add_parser("reproduce", help="audit one built-in published example")
    r.add_argument("--example", type=int, required=True, choices=list(EXAMPLE_IDS))
    r.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out) if getattr(args, "out", None) else None
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.example, out)
        cfg = load_config(args.config)
        if args.command == "kernel":
            return cmd_kernel(cfg, args.grid, args.table, out)
        if args.command == "constants":
            return cmd_constants(cfg, out)
        if args.command == "check":
            return cmd_check(cfg, args.which, out)
        return cmd_solve(cfg, args.init, args.multistart, out)
    except (EvaluationError, CycleConsistencyError, ExprDomainError) as exc:
        # raised while running a config that loaded: load_config only parses
        # expressions, it never evaluates them
        sys.stderr.write(f"error: {exc}\n")
        return 4 if args.command == "solve" else 3
    except (ConfigError, ConjugateExponentError, DegenerateParametersError,
            ExprError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
