"""Output checker: every function returns a list of problems (empty = pass).

Each output is compared with a second route: closed forms and Simpson
references from ``gen``, independent recomputation, or a second run.
Reports are taken in their ``to_dict``/JSON form so the in-process results
and the CLI's stdout go through the same checks.
"""

from __future__ import annotations

import math

import numpy as np

CONVERGED = "converged"
DIVERGENT = "divergent_suspected"
CUTOFF_LIMITED = "cutoff_limited"
VALUE_RTOL = 1e-8
CLOSED_RTOL = 1e-12
CONSTANT_NAMES = ("Q1", "Q2", "N2", "M2", "k1", "k2", "k3", "k4",
                  "O1", "O2", "O3", "O4")


class Known(str):
    """A problem caused by a documented library defect.  It counts in
    failed_ratio like any failure, but does not make the run incorrect."""


# Constants that carry sup Xi(t,t).  The library's grid-refined supremum
# stops once two refinements agree to tol, which leaves it up to ~2e-8
# (relative) below the true maximum on some draws, though it reports
# `converged` at tol 1e-9; rarely the suprema of the last two cutoffs then
# differ by more than tol and it reports `cutoff_limited` instead.  The
# side tells which way the shortfall moves each constant.
SUP_BASED = {"k3": -1, "k4": -1, "O3": -1, "O4": -1, "N2": 1, "M2": 1}


def _sup_shortfall(name, got, want) -> bool:
    rel = (got - want) / want
    return 0.0 < SUP_BASED[name] * rel <= 1e-6


def _close(got, want, rtol) -> bool:
    return got is not None and abs(got - want) <= rtol * max(abs(want), 1e-300)


def expect_close(problems, label, got, want, rtol=CLOSED_RTOL):
    if not _close(got, want, rtol):
        problems.append(f"{label}: got {got!r}, expected {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# audit: the four published examples
# ---------------------------------------------------------------------------

_E = math.e
# Expected row statuses.  varrho/wp have closed forms; every published
# constant rests on an integral that diverges at s -> 0; the factor infima
# tend to 0 there, so the ladder cannot settle them; the sampled Lipschitz
# slopes converge.
AUDIT_ROWS = {
    1: {"varrho": CONVERGED, "wp": CONVERGED, "star_product": CUTOFF_LIMITED,
        "Q1": DIVERGENT, "Q2": DIVERGENT},
    2: {"varrho": CONVERGED, "wp": CONVERGED, "star_product": CUTOFF_LIMITED,
        "k1": DIVERGENT, "k2": DIVERGENT},
    3: {"varrho": CONVERGED, "wp": CONVERGED, "star_product": CUTOFF_LIMITED,
        "O1": DIVERGENT, "O2": DIVERGENT, "O1_star_integral_form": DIVERGENT,
        "O2_holder_form": DIVERGENT},
    4: {"varrho": CONVERGED, "wp": CONVERGED, "star_product": CUTOFF_LIMITED,
        "K_g1": CONVERGED, "K_g2": CONVERGED,
        "contraction_without_wp": DIVERGENT, "contraction_with_wp": DIVERGENT},
}
# Endpoint exponent of the weight t^-4 * prod f_i(1/t) for N = 3: each
# factor decaying like r^-d contributes +d.
AUDIT_WEIGHT_EXPONENT = {1: -4 + 2 + 0.5, 2: -4 + 1 + 2, 3: -4 + 0.5 + 1, 4: -4 + 1 + 1}
EXPONENT_ATOL = 0.2


def check_audit(example: int, report: dict) -> list:
    problems: list = []
    if report.get("example") != example:
        return [f"report is for example {report.get('example')!r}, not {example}"]
    rows = {r["location"].split("/")[-1]: r for r in report["rows"]}
    expected = AUDIT_ROWS[example]
    if set(rows) != set(expected):
        problems.append(f"example {example}: rows {sorted(rows)} != {sorted(expected)}")
    for name, status in expected.items():
        row = rows.get(name)
        if row is None:
            continue
        if row["status"] != status:
            problems.append(f"example {example}/{name}: status {row['status']!r} != {status!r}")
        if status == DIVERGENT and row["computed"] is not None:
            problems.append(f"example {example}/{name}: divergent row carries a number")
    # all four examples use alpha = beta = gamma = delta = r0 = 1
    if "varrho" in rows:
        expect_close(problems, f"example {example}/varrho", rows["varrho"]["computed"],
                      2.0 * math.cosh(1.0) + 2.0 * math.sinh(1.0))
    if "wp" in rows:
        expect_close(problems, f"example {example}/wp", rows["wp"]["computed"], 1.0 / _E)
    star = rows.get("star_product", {}).get("computed")
    if star is None or not 0.0 <= star <= 1e-12:
        problems.append(f"example {example}/star_product: infimum {star!r} is not ~0")
    for name in ("K_g1", "K_g2"):
        if name in rows:  # max |g'| of cos(u)/1e4 and u/(1e4 (u+1)) on [0, 20]
            expect_close(problems, f"example {example}/{name}", rows[name]["computed"],
                          1e-4, rtol=1e-3)

    fitted = report["diagnostics"]["weight_endpoint_exponent"]
    if abs(fitted - AUDIT_WEIGHT_EXPONENT[example]) > EXPONENT_ATOL:
        problems.append(f"example {example}: weight exponent {fitted} != "
                        f"{AUDIT_WEIGHT_EXPONENT[example]} +- {EXPONENT_ATOL}")
    if example == 4:
        # the contraction integrand is Xi(t,t) t^-4 times the factors: t^-2
        for label, res in report["contraction"].items():
            exp_ = res["exponent_estimate"]
            if exp_ is None or abs(exp_ - AUDIT_WEIGHT_EXPONENT[4]) > EXPONENT_ATOL:
                problems.append(f"example 4/contraction_{label}: exponent {exp_!r}")
    else:
        ingr = report["constants_computed"]["k1"]["ingredients"]["diag_weight_integral"]
        exp_ = ingr["exponent_estimate"]
        if exp_ is None or abs(exp_ + 4.0) > EXPONENT_ATOL:
            problems.append(f"example {example}: diag-weight exponent {exp_!r} != -4")
        for w in report["windows_bypass"]:
            if not (w["verdict"] and w["conclusive"]):
                problems.append(f"example {example}: bypass window {w['hypothesis_id']} "
                                f"verdict={w['verdict']} conclusive={w['conclusive']}")
        if not report["windows_bypass"]:
            problems.append(f"example {example}: no bypass windows")
        for w in report["windows_computed"]:
            if w["conclusive"]:  # the computed constants diverge
                problems.append(f"example {example}: window {w['hypothesis_id']} "
                                "conclusive on divergent constants")
    return problems


# ---------------------------------------------------------------------------
# kernel bound certificates
# ---------------------------------------------------------------------------


def check_bounds(bounds: dict, ref: dict, grid: int, label: str) -> list:
    problems: list = []
    if bounds["grid_size"] != grid:
        problems.append(f"{label}: grid {bounds['grid_size']} != {grid}")
    if list(bounds["passed"]) != [True, True, True]:
        problems.append(f"{label}: admissible kernel failed {bounds['passed']}")
    # cone claims rest on the certified floor, never on wp
    expect_close(problems, f"{label}: floor used", bounds["wp_used"], ref["cone_floor"])
    for key in ("max_negativity", "max_excess_over_diagonal", "max_lower_bound_violation"):
        if not 0.0 <= bounds[key] <= bounds["tol"]:
            problems.append(f"{label}: {key} = {bounds[key]!r}")
    return problems


def check_kernel_cli(payload: dict, stdout: str, ref: dict, grid: int) -> list:
    problems = check_bounds(payload["bounds"], ref, grid, "kernel CLI")
    expect_close(problems, "kernel CLI varrho", payload["varrho"], ref["varrho"])
    expect_close(problems, "kernel CLI wp", payload["wp"], ref["wp"])
    if stdout.count("PASS (") != 3:
        problems.append("kernel CLI: expected three PASS lines")
    return problems


# ---------------------------------------------------------------------------
# cyclic solves
# ---------------------------------------------------------------------------


def cone_problems(mins_maxs, floor: float, label: str) -> list:
    problems = []
    for i, (lo, hi) in enumerate(mins_maxs):
        if lo < floor * hi - 1e-12 * abs(hi):
            problems.append(f"{label}: component {i + 1} leaves the cone "
                            f"(min {lo!r} < cone_floor {floor!r} * max {hi!r})")
    return problems


def check_solve(u, trace, comps, residual: float, tol: float, floor: float,
                r0: float, label: str) -> list:
    """Picard converged, the recovered cycle closes, the defect is small
    against the equation's scale, and every component lies in the cone."""
    problems: list = []
    if not trace.converged:
        return [f"{label}: Picard did not converge ({trace.status})"]
    closure = float(np.max(np.abs(np.asarray(comps[0].values, dtype=float) - u.values)))
    if closure > 10.0 * tol:
        problems.append(f"{label}: cycle closure {closure:.3e} > {10 * tol:.1e}")
    sup = max(float(np.max(np.abs(c.values))) for c in comps)
    # 1e-4 * sup for r0 <= 1; beyond that the r0^2 u term sets the scale
    gate = 1e-4 * sup * max(1.0, r0 * r0)
    if not residual <= gate:
        problems.append(f"{label}: residual {residual:.3e} > {gate:.3e}")
    problems += cone_problems(
        [(float(np.min(c.values)), float(np.max(c.values))) for c in comps], floor, label)
    return problems


def check_solve_cli(payload: dict, floor: float, sups) -> list:
    problems: list = []
    if not payload["trace"]["converged"]:
        return ["solve CLI: not converged"]
    if not payload["relative_defect"] <= 1e-3:
        problems.append(f"solve CLI: relative defect {payload['relative_defect']!r}")
    problems += cone_problems([(c["min"], c["max"]) for c in payload["cone"]], floor,
                              "solve CLI")
    for i, (got, want) in enumerate(zip(payload["sup_norms"], sups)):
        expect_close(problems, f"solve CLI sup u{i + 1}", got, want, rtol=1e-9)
    return problems


# ---------------------------------------------------------------------------
# screen draws
# ---------------------------------------------------------------------------


def check_constants(cdict: dict, ref: dict, label: str) -> list:
    problems: list = []
    for name in CONSTANT_NAMES:
        got = cdict[name]
        want = ref["status"][name]
        value, ref_value = got["value"], ref["value"][name]
        if got["status"] != want:
            msg = f"{label}/{name}: status {got['status']!r} != {want!r}"
            if name in SUP_BASED and (want, got["status"]) == (CONVERGED, CUTOFF_LIMITED):
                msg = Known(msg + "; known: grid suprema of two cutoffs differ beyond tol")
            problems.append(msg)
        elif want != CONVERGED:
            if value is not None:
                problems.append(f"{label}/{name}: non-converged constant carries a number")
        elif not _close(value, ref_value, VALUE_RTOL):
            msg = f"{label}/{name}: got {value!r}, expected {ref_value!r} (rtol {VALUE_RTOL:g})"
            if name in SUP_BASED and value is not None and _sup_shortfall(name, value, ref_value):
                msg = Known(msg + "; known: grid supremum stopped early")
            problems.append(msg)
    expect_close(problems, f"{label}/wp", cdict["wp"], ref["wp"])
    star = cdict["star_product"]
    if star["status"] != CONVERGED:
        problems.append(f"{label}/star_product: status {star['status']!r}")
    else:
        expect_close(problems, f"{label}/star_product", star["value"], ref["star"])
    if cdict["p_case"] != "sum<1":
        problems.append(f"{label}: p_case {cdict['p_case']!r} != 'sum<1'")
    return problems


def check_windows(windows: list, ref: dict, label: str) -> list:
    got = [(w["hypothesis_id"], w["verdict"], w["conclusive"]) for w in windows]
    want = [(h, v, c) for h, v, c, _ in ref["krasnoselskii"]]
    return [] if got == want else [f"{label}: windows {got} != {want}"]


def check_contraction(res: dict, ref: dict, label: str) -> list:
    problems: list = []
    if res["status"] != ref["contraction_status"]:
        problems.append(f"{label}: contraction status {res['status']!r} != "
                        f"{ref['contraction_status']!r}")
    elif ref["contraction"] is not None:
        expect_close(problems, f"{label}: contraction", res["value"], ref["contraction"],
                      VALUE_RTOL)
    return problems


def check_green(value: float, rhs_sup: float, label: str) -> list:
    # FD and kernel routes agree to O(h^2); at 257 nodes far inside 1e-4
    if not (math.isfinite(value) and value <= 1e-4 * rhs_sup):
        return [f"{label}: green consistency {value!r} > {1e-4 * rhs_sup:.3e}"]
    return []


def screen_exit_codes(ref: dict) -> dict:
    """Documented CLI exit codes: constants 0 iff all converge, else 3;
    a window check 1 on a conclusive failure, else 3 if inconclusive."""
    constants_rc = 0 if all(s == CONVERGED for s in ref["status"].values()) else 3
    wins = ref["krasnoselskii"]
    if any(c and not v for _, v, c, _ in wins):
        check_rc = 1
    elif any(not c for _, _, c, _ in wins):
        check_rc = 3
    else:
        check_rc = 0
    return {"constants": constants_rc, "check": check_rc}
