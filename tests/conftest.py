"""Shared fixtures and the independent brute-force oracles.

The oracles here deliberately avoid the library's quadrature module: they
are the second route for every dual-route check, so they stay primitive
(composite Simpson / midpoint Riemann on dense uniform grids).
"""

import importlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from annulus_radial import KernelParams, TransformSpec, WeightSpec, cli, solver
from annulus_radial.conditions import (
    _AH_UPPER_BY_CASE,
    _UPPER_BY_CASE,
    _bound_from,
    _worst,
    WindowCheck,
    window_extremum,
)
from annulus_radial.exprlang import parse
from annulus_radial.kernel import BoundReport, cone_floor, kernel_diag, kernel_matrix, wp
from annulus_radial.quadrature import (
    CONVERGED,
    DEFAULT_CUTOFFS,
    IntegralResult,
    integrate,
    p_norm,
)
from annulus_radial.weights import kelvin_r, upsilon


def composite_simpson(f, a, b, panels=1_000_000):
    """Plain composite Simpson rule with vectorized evaluation."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def riemann_midpoint(f, a, b, n=1_000_000):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(np.asarray(f(x), dtype=float)) * (b - a) / n)


def dense_bound_report(p, grid_size, tol=1e-12):
    """Bound certificate over every entry of the dense m x m kernel matrix:
    the reference route for the O(m) verify_kernel_bounds."""
    nodes = np.linspace(0.0, 1.0, grid_size)
    M = kernel_matrix(p, nodes)
    diag = np.diag(M)
    floor = cone_floor(p)
    neg = max(0.0, float(-M.min()))
    excess = float((M - diag[None, :]).max())
    lower = float((floor * diag[None, :] - M).max())
    return BoundReport(
        grid_size=grid_size,
        tol=tol,
        wp_used=floor,
        max_negativity=neg,
        max_excess_over_diagonal=max(0.0, excess),
        max_lower_bound_violation=max(0.0, lower),
        passed=(neg <= tol, excess <= tol, lower <= tol),
    )


def per_node_green_representation(params, s_nodes, rhs, n_gauss=64):
    """The Green representation one node and one panel at a time, skipping
    a zero-width panel: the reference route for the one-pass
    oracle._green_representation."""
    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    out = np.empty_like(s_nodes)
    for i, s in enumerate(s_nodes):
        total = 0.0
        for a, b in ((0.0, float(s)), (float(s), 1.0)):
            if b <= a:
                continue
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            t = mid + half * xg
            row = kernel_matrix(params, np.array([s]), t)[0]
            total += half * float(np.sum(wg * row * np.asarray(rhs(t), dtype=float)))
        out[i] = total
    return out


def _branchy_factor_product(ws, s, ts):
    out = np.ones(s.shape)
    for f in ws.factors:
        out = out * np.asarray(f(ts.r0 * s ** (1.0 / (2.0 - ts.N))))
    return out


def branchy_weight_ell(s, ws, ts):
    """The transformed weight with its own synthetic branch, prefactor, power
    and factor loop: the reference route for weights.weight_ell through
    weights.weight_bundle."""
    s = np.asarray(s, dtype=float)
    if ws.synthetic:
        return np.asarray(ws.synthetic_override(s))
    pref = ts.r0 ** 2 / (ts.N - 2.0) ** 2
    power = 2.0 * (ts.N - 1.0) / (2.0 - ts.N)
    return pref * s ** power * _branchy_factor_product(ws, s, ts)


def branchy_hhat(params, ws):
    """The diagonal-weighted kernel without the factors, Xi(t,t) for a
    synthetic weight and Xi(t,t) * t^(2(N-1)/(2-N)) with N from the kernel
    otherwise: the reference route for compute_constants' integrand."""
    if ws.synthetic:
        return lambda t: kernel_diag(params, t)
    power = 2.0 * (params.N - 1.0) / (2.0 - params.N)
    return lambda t: kernel_diag(params, t) * np.asarray(t, dtype=float) ** power


def branchy_upsilon(t, params, ws, ts):
    """upsilon with a synthetic branch: the reference route for
    weights.upsilon through weights.weight_bundle."""
    t = np.asarray(t, dtype=float)
    if ws.synthetic:
        return kernel_diag(params, t) * np.asarray(ws.synthetic_override(t))
    return branchy_hhat(params, ws)(t) * _branchy_factor_product(ws, t, ts)


def per_point_singularity_exponent(ws, ts, cutoffs=DEFAULT_CUTOFFS):
    """The log-log slope of t^power * prod factors evaluated one cutoff at a
    time: the reference route for the one array call of
    weights.singularity_exponent (factor weights only)."""
    power = 2.0 * (ts.N - 1.0) / (2.0 - ts.N)
    t = np.asarray(sorted(cutoffs))
    vals = []
    for x in t:
        x = np.asarray(x, dtype=float)
        vals.append(float(x ** power * _branchy_factor_product(ws, x, ts)))
    return float(np.polyfit(np.log10(t), np.log10(vals), 1)[0])


def whole_array_fold(asm, c):
    """The separable kernel fold as one whole-array cumsum each way: the
    reference route for the blocked solver._Assembled.kernel_fold."""
    a = asm.phi * c
    pre = np.cumsum(a)
    pre -= a  # strictly below the diagonal
    np.multiply(asm.psi, c, out=a)
    suf = np.cumsum(a[::-1])[::-1]  # diagonal and above
    pre *= asm.psi
    suf *= asm.phi
    pre += suf
    return pre


def row_by_row_profile_csv(spec, components):
    """The solve profile CSV formatted one row at a time, each value through
    float(): the reference route for the column-wise cli._profile_csv."""
    nodes = components[0].nodes
    r = np.asarray(kelvin_r(nodes, spec.transform))
    header = "s,r," + ",".join(f"u{i + 1}" for i in range(len(components)))
    lines = [header]
    for k in range(nodes.size):
        vals = ",".join(repr(float(c.values[k])) for c in components)
        lines.append(f"{float(nodes[k])!r},{float(r[k])!r},{vals}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def solver_route(monkeypatch):
    """route(workers) sends the solver's block work to a fresh pool of that
    many threads, whatever the CPUs of this process, and route(1) keeps it on
    the calling thread (the inline route of a process that may use one CPU).
    Returns the pool, or None; the previous pool is back after the test."""
    pools = []

    def route(workers):
        pool = ThreadPoolExecutor(workers) if workers > 1 else None
        if pool is not None:
            pools.append(pool)
        monkeypatch.setattr(solver, "_POOL", (pool, workers))
        return pool

    yield route
    for pool in pools:
        pool.shutdown()


def per_call_window(hypothesis_id, g_index, g, lo, hi, direction, bound,
                    bound_note=""):
    """One window judged on its own extremum: the reference route for the
    planned, shared-extremum window judge in conditions."""
    mode = "max" if direction in ("<=", "<") else "min"
    worst, point = window_extremum(g, lo, hi, mode)
    if bound is None or not math.isfinite(bound):
        return WindowCheck(
            hypothesis_id, g_index, (lo, hi), None, direction, worst, point,
            verdict=False, margin=None, conclusive=False,
            note=bound_note or "bound unavailable",
        )
    margin = (bound - worst) if direction in ("<=", "<") else (worst - bound)
    strict = direction in ("<", ">")
    verdict = margin > 0.0 if strict else margin >= 0.0
    resolution = 1e-9 * max(1.0, abs(bound), abs(worst))
    return WindowCheck(
        hypothesis_id, g_index, (lo, hi), bound, direction, worst, point,
        verdict=verdict, margin=margin, conclusive=abs(margin) > resolution,
        note=bound_note,
    )


def per_call_checks(which, g_list, values, cs):
    """The window checks of one family, each window evaluated on its own."""
    checks = []
    if which == "krasnoselskii":
        a1, a2 = values
        upper_id, upper_name = _UPPER_BY_CASE[cs.p_case]
        for j, g in enumerate(g_list):
            bound, note = _bound_from(cs[upper_name], a2, False)
            checks.append(per_call_window(upper_id, j, g, 0.0, a2, "<=", bound, note))
            bound, note = _bound_from(cs.Q1, a1, False)
            checks.append(per_call_window("J5", j, g, 0.0, a1, ">=", bound, note))
    elif which == "avery-henderson":
        ap, bp, cp = values
        w = cs.wp
        upper_id, upper_name = _AH_UPPER_BY_CASE[cs.p_case]
        for j, g in enumerate(g_list):
            bound, note = _bound_from(cs.k1, cp, True)
            checks.append(per_call_window("J8", j, g, cp, cp / w, ">", bound, note))
            bound, note = _bound_from(cs[upper_name], bp, True)
            checks.append(per_call_window(upper_id, j, g, 0.0, bp / w, "<", bound, note))
            bound, note = _bound_from(cs.k1, ap, True)
            checks.append(per_call_window("J10", j, g, ap, ap / w, ">", bound, note))
    else:
        ap, bp, cp = values
        for j, g in enumerate(g_list):
            bound, note = _bound_from(cs.O1, ap, True)
            checks.append(per_call_window("J11", j, g, 0.0, ap, "<", bound, note))
            bound, note = _bound_from(cs.O2, bp, True)
            checks.append(per_call_window("J12", j, g, bp, cp, ">", bound, note))
            bound, note = _bound_from(cs.O1, cp, True)
            checks.append(per_call_window("J13", j, g, 0.0, cp, "<", bound, note))
    return checks


def per_call_contraction_constant(params, ws, ts, K, n, p, q, include_wp=False,
                                  tol=1e-9, cutoffs=DEFAULT_CUTOFFS):
    """The contraction value of one variant from its own two integrals: the
    reference route for conditions.contraction_constants.  Validation is
    left to the library route."""
    if K == 0.0:
        return IntegralResult(0.0, 0.0, CONVERGED, [(min(cutoffs), 0.0)])

    def ups(t):
        return np.abs(np.asarray(upsilon(t, params, ws, ts)))

    I1 = integrate(ups, tol=tol, cutoffs=cutoffs)
    Nq = p_norm(ups, q, tol=tol, cutoffs=cutoffs)
    pref = 1.0 if ws.synthetic else params.r0 ** 2 / (params.N - 2.0) ** 2
    factor = K * pref * (wp(params) if include_wp else 1.0)
    lead = factor ** (n + 1)
    nq_trace = dict(Nq.cutoff_trace)
    trace = [(eps, lead * v1**n * nq_trace[eps])
             for eps, v1 in I1.cutoff_trace if eps in nq_trace]
    value = lead * I1.value**n * Nq.value
    rel = 0.0
    if I1.value != 0.0:
        rel += n * I1.abs_error_estimate / abs(I1.value)
    if Nq.value != 0.0:
        rel += Nq.abs_error_estimate / abs(Nq.value)
    exponent = (I1.exponent_estimate if I1.exponent_estimate is not None
                else Nq.exponent_estimate)
    return IntegralResult(value, abs(value) * rel, _worst(I1.status, Nq.status),
                          trace, exponent)


def use_per_call_route(monkeypatch):
    """Send cli and reproduce through the reference routes: every window of
    every constants set evaluated on its own, two contraction calls."""

    def check_windows(which, g_list, values, constant_sets):
        return [per_call_checks(which, g_list, values, cs) for cs in constant_sets]

    def contraction_constants(*args):
        return {label: per_call_contraction_constant(*args, include_wp=flag)
                for label, flag in (("without_wp", False), ("with_wp", True))}

    for mod in (cli, importlib.import_module("annulus_radial.reproduce")):
        monkeypatch.setattr(mod, "check_windows", check_windows)
        monkeypatch.setattr(mod, "contraction_constants", contraction_constants)


def count_calls(monkeypatch, module, name):
    """Wrap module.name so each call appends its positional arguments to the
    returned list."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="session")
def default_params():
    return KernelParams.default()


@pytest.fixture(scope="session")
def asym_params():
    # asymmetric but admissible; diagonal is genuinely non-constant
    return KernelParams(2.0, 1.0, 1.0, 3.0, 1.5, 3)


@pytest.fixture(scope="session")
def transform():
    return TransformSpec(1.0, 3)


@pytest.fixture(scope="session")
def synthetic_unit_weight():
    return WeightSpec(synthetic_override=parse("1", "t"), eval_floor=1e-9)


@pytest.fixture(scope="session")
def example1_weights():
    return WeightSpec(
        factors=(parse("1/(t^2+1)", "t"), parse("1/sqrt(t+2)", "t")),
        p_exponents=(2.0, 3.0),
    )


@pytest.fixture(scope="session")
def example4_weights():
    return WeightSpec(
        factors=(parse("1/(t+1)", "t"), parse("1/(t+1)", "t")),
        p_exponents=(2.0, 2.0),
    )


@pytest.fixture(scope="session")
def example4_nonlinearities():
    return (parse("cos(u)/10000", "u"), parse("u/(10000*(u+1))", "u"))
