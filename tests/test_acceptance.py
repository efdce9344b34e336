"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import composite_simpson

from annulus_radial import cli
from annulus_radial.conditions import (
    check_avery_henderson,
    check_krasnoselskii,
    check_leggett_williams,
    compute_constants,
    contraction_constant,
    injected_constants,
)
from annulus_radial.exprlang import ExprError, parse
from annulus_radial.kernel import (
    KernelParams,
    kernel_diag,
    varrho,
    verify_kernel_bounds,
    wp,
)
from annulus_radial.oracle import LinearBVP, green_consistency, solve_linear_fd
from annulus_radial.quadrature import CONVERGED, DIVERGENT, integrate
from annulus_radial.reproduce import EXAMPLE_IDS, example_config, reproduce
from annulus_radial.solver import (
    ProblemSpec,
    picard_solve,
    recover_components,
    residual_check,
)
from annulus_radial.weights import TransformSpec, WeightSpec, upsilon

TS = TransformSpec(1.0, 3)

RECORDED_TRACES = []


def _record(trace):
    RECORDED_TRACES.append(trace)
    return trace


def test_criterion_01_kernel_constants(default_params):
    varrho(default_params)  # warm up
    t0 = time.perf_counter()
    v = varrho(default_params)
    w = wp(default_params)
    elapsed = time.perf_counter() - t0
    assert v == pytest.approx(5.436563658, abs=1e-8)
    assert v == pytest.approx(2.0 * math.e, rel=1e-12)
    assert w == pytest.approx(1.0 / math.e, abs=1e-12)
    assert elapsed < 1e-3
    print(f"\nACCEPTANCE 1 PASS: varrho={v:.9f} wp={w:.12f} ({elapsed * 1e6:.0f} us)")


def test_criterion_02_kernel_bound_certification(default_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    params = [default_params]
    for _ in range(20):
        a, b, g, d = rng.uniform(0.1, 10.0, size=4)
        params.append(KernelParams(a, b, g, d, rng.uniform(0.1, 5.0), 3))
    worst = 0.0
    for p in params:
        rep = verify_kernel_bounds(p, grid_size=101)
        assert rep.tol == 1e-12
        assert rep.all_passed, p
        worst = max(
            worst,
            rep.max_negativity,
            rep.max_excess_over_diagonal,
            rep.max_lower_bound_violation,
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 PASS: 21 parameter sets on 101x101, worst violation "
        f"{worst:.2e} ({elapsed:.2f} s)"
    )


def test_criterion_03_green_representation_equivalence(default_params):
    t0 = time.perf_counter()
    ratios = []
    for rhs in (
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.sin(np.pi * np.asarray(t, dtype=float)),
    ):
        errs = [green_consistency(default_params, rhs, m) for m in (129, 257, 513)]
        ratios.append(errs[0] / errs[1])
        ratios.append(errs[1] / errs[2])
    elapsed = time.perf_counter() - t0
    assert all(3.0 <= r <= 5.0 for r in ratios), ratios
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 3 PASS: FD vs kernel-representation ratios "
        f"{[round(r, 3) for r in ratios]} ({elapsed:.2f} s)"
    )


def test_criterion_04_divergence_detection_and_audit_report(default_params):
    cutoffs = tuple(10.0 ** (-k) for k in range(2, 7))  # 1e-2 .. 1e-6
    # upsilon with a unit factor: Xi(t,t) * t^(2(N-1)/(2-N))
    unit = WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,))
    res = integrate(lambda t: upsilon(t, default_params, unit, TS), tol=1e-10, cutoffs=cutoffs)
    assert res.status == DIVERGENT
    assert res.exponent_estimate is not None
    assert res.exponent_estimate <= -1.0
    assert res.exponent_estimate == pytest.approx(-4.0, abs=0.2)
    # also for a left-Dirichlet kernel (diagonal vanishing at 0)
    p_dir = KernelParams(1.0, 0.0, 1.0, 1.0, 1.0, 3)
    res_dir = integrate(lambda t: upsilon(t, p_dir, unit, TS), tol=1e-10, cutoffs=cutoffs)
    assert res_dir.status == DIVERGENT
    assert res_dir.exponent_estimate <= -1.0

    # the audit reports list every published value next to the computed status
    expected = {
        1: ["Q1", "Q2"],
        2: ["k1", "k2"],
        3: ["O1", "O2"],
        4: ["contraction_without_wp", "contraction_with_wp"],
    }
    for k, names in expected.items():
        report = reproduce(k)
        rows = {r["location"].split("/")[-1]: r for r in report["rows"]}
        for name in names:
            row = rows[name]
            assert row["published"] is not None
            assert row["computed"] is None
            assert row["status"] == DIVERGENT
    print(
        f"\nACCEPTANCE 4 PASS: diag-weight integral divergent with exponent "
        f"{res.exponent_estimate:.3f}; all four audit reports flag the "
        f"published constants as non-reproducible"
    )


def test_criterion_05_convergent_surrogate_oracle(default_params,
                                                  synthetic_unit_weight):
    t0 = time.perf_counter()
    diag = lambda t: kernel_diag(default_params, t)
    cs = compute_constants(default_params, synthetic_unit_weight, TS, q=2.0)
    oracle_q1 = 1.0 / (wp(default_params) * composite_simpson(diag, 0.0, 1.0))
    assert cs.Q1.status == CONVERGED
    rel_q1 = abs(cs.Q1.value - oracle_q1) / oracle_q1
    assert rel_q1 <= 1e-8

    lhs = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=1.0, n=1, p=2.0, q=2.0
    )
    oracle_lhs = composite_simpson(diag, 0.0, 1.0) * math.sqrt(
        composite_simpson(lambda t: diag(t) ** 2, 0.0, 1.0)
    )
    assert lhs.status == CONVERGED
    rel_lhs = abs(lhs.value - oracle_lhs) / oracle_lhs
    assert rel_lhs <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 5 PASS: surrogate constants match Simpson oracle "
        f"(rel errors {rel_q1:.2e}, {rel_lhs:.2e}; {elapsed:.2f} s)"
    )


def test_criterion_06_window_checkers_bypass_mode():
    budgets = []

    t0 = time.perf_counter()
    g1 = parse("1+cos(1+u)/5+1/(1+u)", "u")
    c1 = injected_constants(
        {"Q1": 0.1153270463e-4, "Q2": 0.4577977612e-7}, wp_value=1.0 / math.e
    )
    checks1 = check_krasnoselskii([g1, g1], 1e3, 1e8, c1)
    budgets.append(time.perf_counter() - t0)
    assert all(c.verdict for c in checks1)
    bounds = {c.hypothesis_id: c.bound for c in checks1}
    assert bounds["J4"] == pytest.approx(4.577977612, rel=1e-9)
    assert bounds["J5"] == pytest.approx(0.011532704, abs=1e-9)

    t0 = time.perf_counter()
    g2 = parse("piecewise((u>=1, 1e16), (else, 1e16*u^2 - u + 1))", "u")
    c2 = injected_constants(
        {"k1": 0.1630970729e-4, "k2": 4.388193758e-8}, wp_value=1.0 / math.e
    )
    checks2 = check_avery_henderson([g2, g2], 1e4, 1e9, 1e10, c2)
    budgets.append(time.perf_counter() - t0)
    assert all(c.verdict for c in checks2)

    t0 = time.perf_counter()
    g3 = parse("piecewise((u>=1, 3/2), (else, u^2/2 + 1))", "u")
    c3 = injected_constants(
        {"O1": 4.627034665e6, "O2": 9.696074194e7}, wp_value=1.0 / math.e
    )
    checks3 = check_leggett_williams([g3, g3], 1e7, 1e8, 1e9, c3)
    budgets.append(time.perf_counter() - t0)
    assert all(c.verdict for c in checks3)

    assert all(b < 1.0 for b in budgets)
    print(
        f"\nACCEPTANCE 6 PASS: published inequalities reproduced in bypass "
        f"mode for all three window families ({[round(b, 2) for b in budgets]} s)"
    )


def test_criterion_07_picard_solver(default_params, synthetic_unit_weight,
                                    example4_weights, example4_nonlinearities):
    t_all = time.perf_counter()

    # (a) zero nonlinearity: one iteration to the zero profile
    spec_a = ProblemSpec(
        g=(parse("0", "u"), parse("0", "u")), kernel=default_params,
        weights=synthetic_unit_weight, transform=TS, grid_size=257, cutoff=1e-6,
        metric_p=2.0,
    )
    u_a, tr_a = picard_solve(spec_a, tol=1e-10, max_iter=100)
    _record(tr_a)
    assert tr_a.converged and tr_a.iterates == 1
    assert np.max(np.abs(u_a.values)) == 0.0

    # (b) linear nonlinearity: certified ratio bound and FD-oracle agreement
    diffs = []
    ratio = alpha2 = None
    for m in (513, 1025):
        spec_b = ProblemSpec(
            g=(parse("u/100", "u"),), kernel=default_params,
            weights=synthetic_unit_weight, transform=TS, grid_size=m, cutoff=1e-6,
            metric_p=2.0,
        )
        u_b, tr_b = picard_solve(spec_b, init=1.0, tol=1e-13, max_iter=100)
        _record(tr_b)
        assert tr_b.converged
        alpha2 = contraction_constant(
            default_params, synthetic_unit_weight, TS, K=0.01, n=1, p=2.0, q=2.0
        )
        assert alpha2.status == CONVERGED and alpha2.value < 1.0
        ratio = tr_b.empirical_ratio
        assert ratio <= alpha2.value + 0.05
        induced = lambda t: 0.01 * u_b(np.asarray(t, dtype=float))
        w_fd = solve_linear_fd(LinearBVP(default_params, induced, m))
        diffs.append(float(np.max(np.abs(u_b(w_fd.nodes) - w_fd.values))))
    assert diffs[-1] <= 1e-6

    # (c) regularized coupled example with the singular weight
    spec_c = ProblemSpec(
        g=example4_nonlinearities, kernel=default_params,
        weights=example4_weights, transform=TS, grid_size=32001, cutoff=1e-3,
        metric_p=2.0,
    )
    u_c, tr_c = picard_solve(spec_c, tol=1e-12, max_iter=100)
    _record(tr_c)
    assert tr_c.converged
    comps = recover_components(spec_c, u_c, tol=1e-10)
    res = residual_check(spec_c, comps)
    sup = max(float(np.max(np.abs(c.values))) for c in comps)
    assert res <= 1e-4 * sup
    w = wp(default_params)
    for c in comps:
        assert float(np.min(c.values)) >= w * float(np.max(c.values)) - 1e-6

    elapsed = time.perf_counter() - t_all
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 7 PASS: (a) 1 iteration; (b) ratio {ratio:.2e} <= "
        f"alpha2+0.05 = {alpha2.value + 0.05:.2e}, FD match {diffs[-1]:.2e}; "
        f"(c) residual {res:.2e} <= {1e-4 * sup:.2e}, cone bound holds "
        f"({elapsed:.1f} s total)"
    )


def test_criterion_08_metric_domination(default_params, synthetic_unit_weight):
    if not RECORDED_TRACES:  # allow running this criterion in isolation
        for srcs, init in ((("u/100",), 1.0), (("1/(1+u)", "1/(1+u)"), 0.0)):
            spec = ProblemSpec(
                g=tuple(parse(s, "u") for s in srcs),
                kernel=default_params, weights=synthetic_unit_weight,
                transform=TS, grid_size=257, cutoff=1e-6,
                metric_p=2.0,
            )
            _record(picard_solve(spec, init=init, tol=1e-12, max_iter=100)[1])
    steps = 0
    for trace in RECORDED_TRACES:
        for rho, d in zip(trace.rho_history, trace.d_history):
            assert rho <= d + 1e-12
            steps += 1
    print(
        f"\nACCEPTANCE 8 PASS: rho <= d at every one of {steps} recorded "
        f"Picard steps across {len(RECORDED_TRACES)} traces"
    )


def test_criterion_09_parser_robustness():
    t0 = time.perf_counter()
    # every built-in example expression parses and evaluates
    for k in EXAMPLE_IDS:
        cfg = example_config(k)
        for src in cfg["weights"]["factors"]:
            expr = parse(src, "t")
            assert math.isfinite(expr.eval(1.0))
        for src in cfg["system"]["g"]:
            expr = parse(src, "u")
            assert math.isfinite(expr.eval(0.5))

    rng = random.Random(987654321)
    crashes = 0
    for _ in range(100_000):
        n = rng.randrange(1, 48)
        blob = bytes(rng.randrange(256) for _ in range(n))
        try:
            parse(blob.decode("latin-1"), "u")
        except ExprError:
            pass
        except Exception:  # anything unstructured is a crash
            crashes += 1
    elapsed = time.perf_counter() - t0
    assert crashes == 0
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 9 PASS: built-ins evaluate; 100000 random byte strings, "
        f"0 unstructured failures ({elapsed:.1f} s)"
    )


def test_criterion_10_reproduce_determinism(capsys):
    for k in EXAMPLE_IDS:
        outputs = []
        for _ in range(2):
            assert cli.main(["reproduce", "--example", str(k)]) == 0
            outputs.append(capsys.readouterr().out.encode("utf-8"))
        assert outputs[0] == outputs[1], f"example {k} output not byte-stable"
        json.loads(outputs[0])  # and it is valid JSON
    print(
        "\nACCEPTANCE 10 PASS: reproduce output byte-identical across runs "
        "for all four examples"
    )
