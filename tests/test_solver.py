import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import count_calls, whole_array_fold

from annulus_radial import solver
from annulus_radial.conditions import contraction_constant
from annulus_radial.exprlang import parse
from annulus_radial.grid import GridFunction, trapezoid_weights
from annulus_radial.kernel import KernelParams, varrho, wp
from annulus_radial.oracle import LinearBVP, solve_linear_fd
from annulus_radial.quadrature import EvaluationError
from annulus_radial.solver import (
    CycleConsistencyError,
    ProblemSpec,
    apply_operator,
    make_grid,
    multistart_solve,
    picard_solve,
    radial_profile,
    recover_components,
    residual_check,
    worst_defects,
    _Assembled,
)
from annulus_radial.weights import TransformSpec, WeightSpec

TS = TransformSpec(1.0, 3)


def synthetic_spec(default_params, ws, g_sources, grid_size=513, cutoff=1e-6):
    return ProblemSpec(
        n=len(g_sources),
        g=tuple(parse(src, "u") for src in g_sources),
        kernel=default_params,
        weights=ws,
        transform=TS,
        grid_size=grid_size,
        cutoff=cutoff,
    )


def test_zero_nonlinearity_annihilates(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["0", "0"])
    u0 = GridFunction.constant(make_grid(spec), 3.0)
    out = apply_operator(spec, u0)
    assert np.max(np.abs(out.values)) == 0.0


def test_constant_forcing_matches_fd_oracle(default_params, synthetic_unit_weight):
    # cutoff far below the h^2 error so the domain truncation cannot mask
    # the second-order agreement between the two routes
    diffs = []
    for m in (257, 513):
        spec = synthetic_spec(
            default_params, synthetic_unit_weight, ["1"], grid_size=m, cutoff=1e-9
        )
        u, trace = picard_solve(spec, tol=1e-12)
        assert trace.converged
        w = solve_linear_fd(
            LinearBVP(default_params, lambda t: np.ones_like(np.asarray(t)), m)
        )
        diffs.append(float(np.max(np.abs(u(w.nodes) - w.values))))
    assert 3.0 <= diffs[0] / diffs[1] <= 5.0  # both sides are O(h^2)


def test_fixed_point_is_fixed(default_params, synthetic_unit_weight):
    spec = synthetic_spec(
        default_params, synthetic_unit_weight, ["1/(1+u)", "1/(1+u)"]
    )
    u, trace = picard_solve(spec, tol=1e-12)
    assert trace.converged
    again = apply_operator(spec, u)
    assert np.max(np.abs(again.values - u.values)) <= 1e-11


def test_picard_zero_map_converges_in_one_iteration(
    default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["0", "0"])
    u, trace = picard_solve(spec)
    assert trace.converged
    assert trace.iterates == 1
    assert np.max(np.abs(u.values)) == 0.0


def test_linear_contraction_ratio_below_certified_bound(
    default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/100"])
    u, trace = picard_solve(spec, init=1.0, tol=1e-13)
    assert trace.converged
    alpha2 = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=0.01, n=1, p=2.0, q=2.0
    )
    assert alpha2.converged and alpha2.value < 1.0
    assert trace.empirical_ratio <= alpha2.value + 0.05


def test_metric_domination_every_step(default_params, synthetic_unit_weight):
    for srcs, init in ((["u/100"], 1.0), (["1/(1+u)", "1/(1+u)"], 0.0)):
        spec = synthetic_spec(default_params, synthetic_unit_weight, srcs)
        _, trace = picard_solve(spec, init=init, tol=1e-12)
        assert len(trace.rho_history) == len(trace.d_history)
        for rho, d in zip(trace.rho_history, trace.d_history):
            assert rho <= d + 1e-12


def test_divergence_detection(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["50*u"], grid_size=257)
    _, trace = picard_solve(spec, init=1.0, tol=1e-12, max_iter=50)
    assert not trace.converged
    assert trace.status == "diverging"
    assert trace.iterates < 50


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_picard_rejects_a_non_finite_start(level, default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/100"])
    with pytest.raises(ValueError, match="init must be finite"):
        picard_solve(spec, init=level)


def test_picard_lp_distance_survives_an_overflowing_power(
    default_params, synthetic_unit_weight
):
    # |new - u|^2 overflows at u = 1e308: the step's L^p distance is then
    # measured in units of the sup distance
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/100"])
    _, trace = picard_solve(spec, init=1e308, tol=1e-12, max_iter=3)
    assert all(math.isfinite(rho) for rho in trace.rho_history)
    # the first step moves every node by about 1e308 (new is ~1e306)
    total_w = float(np.sum(trapezoid_weights(make_grid(spec))))
    assert trace.rho_history[0] == pytest.approx(
        trace.d_history[0] * math.sqrt(total_w), rel=1e-2)
    for rho, d in zip(trace.rho_history, trace.d_history):
        assert rho <= d


def test_max_iter_report(default_params, synthetic_unit_weight):
    # contraction too slow for two iterations: report max_iter, not success
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/2 + 1"])
    _, trace = picard_solve(spec, tol=1e-14, max_iter=2)
    assert trace.status == "max_iter"
    assert not trace.converged


def test_cone_preservation(default_params, synthetic_unit_weight):
    spec = synthetic_spec(
        default_params, synthetic_unit_weight, ["1 + u/(1+u)", "2 + cos(u)"]
    )
    u0 = GridFunction.constant(make_grid(spec), 1.0)
    out = apply_operator(spec, u0)
    w = wp(default_params)
    assert (out.values >= 0.0).all()
    assert out.values.min() >= w * out.values.max() - 1e-10


def test_recover_components_zero_case(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["0", "0"])
    u, _ = picard_solve(spec)
    comps = recover_components(spec, u)
    assert len(comps) == 2
    for c in comps:
        assert np.max(np.abs(c.values)) == 0.0


def test_recover_single_equation_equals_operator(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1/(2+u)"])
    u, _ = picard_solve(spec, tol=1e-12)
    comps = recover_components(spec, u, tol=1e-10)
    direct = apply_operator(spec, u)
    assert np.max(np.abs(comps[0].values - direct.values)) == 0.0


def test_recover_detects_cycle_inconsistency(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1 + u", "2 + u"])
    bogus = GridFunction.constant(make_grid(spec), 5.0)
    with pytest.raises(CycleConsistencyError):
        recover_components(spec, bogus, tol=1e-12)


def test_example4_components_nonnegative_in_cone(
    default_params, example4_weights, example4_nonlinearities
):
    spec = ProblemSpec(
        n=2,
        g=example4_nonlinearities,
        kernel=default_params,
        weights=example4_weights,
        transform=TS,
        grid_size=8001,
        cutoff=1e-3,
    )
    u, trace = picard_solve(spec, tol=1e-12)
    assert trace.converged
    comps = recover_components(spec, u, tol=1e-10)
    w = wp(default_params)
    for c in comps:
        assert (c.values >= 0.0).all()
        assert c.values.min() >= w * c.values.max() - 1e-6


def test_residual_zero_for_zero_solution(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["0"])
    zero = GridFunction.constant(make_grid(spec), 0.0)
    assert residual_check(spec, [zero]) == 0.0


def test_residual_second_order_on_manufactured_solution(default_params):
    # synthetic weight equal to -u*'' + u* with g == 1 makes the quartic u*
    # an exact solution; the defect must then shrink ~4x per grid doubling
    # (a cubic would not do: central differences are exact on cubics)
    u_star = lambda t: 1.0 + t + t**2 - 2.75 * t**3 + t**4
    forcing = parse("-(2 - 16.5*t + 12*t^2) + 1 + t + t^2 - 2.75*t^3 + t^4", "t")
    ws = WeightSpec(synthetic_override=forcing, eval_floor=1e-9)
    res = []
    for m in (257, 513):
        spec = ProblemSpec(
            n=1, g=(parse("1", "u"),), kernel=default_params, weights=ws,
            transform=TS, grid_size=m, cutoff=1e-6,
        )
        nodes = make_grid(spec)
        comps = [GridFunction(nodes, u_star(nodes))]
        res.append(residual_check(spec, comps))
    assert 3.0 <= res[0] / res[1] <= 5.0


def test_residual_large_for_non_solution(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1"])
    nodes = make_grid(spec)
    junk = GridFunction(nodes, np.sin(17.0 * nodes) + 2.0)
    assert residual_check(spec, [junk]) > 1e3 * 1e-10


def test_radial_profile_mapping(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1"], cutoff=1e-3)
    u, _ = picard_solve(spec, tol=1e-12)
    comps = recover_components(spec, u)
    table = radial_profile(comps, TS, [1.0, 2.0])
    # r = r0 maps to s = 1; r = 2 maps to s = 1/2 for N = 3
    assert table[0, 1] == pytest.approx(float(u.values[-1]), rel=1e-12)
    assert table[1, 1] == pytest.approx(float(u(0.5)), rel=1e-10)
    # s-profile decreasing in s <=> increasing in r here: check reversal
    r = np.linspace(1.0, 5.0, 9)
    s_vals = (r / 1.0) ** (2 - 3)
    prof = radial_profile(comps, TS, r)
    assert np.allclose(prof[:, 1], u(s_vals), rtol=1e-12)
    with pytest.raises(ValueError):
        radial_profile(comps, TS, [2000.0])  # maps below the grid cutoff


def test_multistart_finds_fixed_point(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1/(1+u)"])
    found = multistart_solve(spec, [0.0, 0.5, 2.0], tol=1e-11)
    assert len(found) == 1  # contraction: all starts collapse to one point


def test_problem_spec_validation(default_params, synthetic_unit_weight):
    with pytest.raises(ValueError):
        ProblemSpec(n=0, g=(), kernel=default_params,
                    weights=synthetic_unit_weight, transform=TS)
    with pytest.raises(ValueError):
        ProblemSpec(n=2, g=(parse("0", "u"),), kernel=default_params,
                    weights=synthetic_unit_weight, transform=TS)
    with pytest.raises(ValueError):
        ProblemSpec(n=1, g=(parse("0", "u"),), kernel=default_params,
                    weights=synthetic_unit_weight, transform=TS, grid_size=8)
    with pytest.raises(ValueError):
        ProblemSpec(n=1, g=(parse("0", "u"),), kernel=default_params,
                    weights=synthetic_unit_weight, transform=TS, cutoff=0.0)


# ---------------------------------------------------------------------------
# longdouble recovery (extended_precision=True)
# ---------------------------------------------------------------------------


def _mp_exact(mpmath, x):
    """A longdouble as an mpf, without rounding it to float64 first."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


@pytest.mark.parametrize("r0", [0.1, 5.0, 50.0])
@pytest.mark.parametrize(
    "bc", [(1.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0, 0.0), (1.0, 1.0, 1.0, 1.0)],
    ids=["beta0", "delta0", "unit"],
)
def test_longdouble_factors_match_mpmath(bc, r0, synthetic_unit_weight):
    mpmath = pytest.importorskip("mpmath")
    p = KernelParams(*bc, r0=r0)
    m = 1025
    spec = ProblemSpec(n=1, g=(parse("u", "u"),), kernel=p,
                       weights=synthetic_unit_weight, transform=TS,
                       grid_size=m, cutoff=1e-3)
    asm = _Assembled(spec, extended=True)
    assert asm.phi.dtype == asm.psi.dtype == np.longdouble
    eps = float(np.finfo(np.longdouble).eps)
    r0_ld = np.longdouble(r0)
    with mpmath.workdps(40):
        R = mpmath.mpf(r0)
        root = mpmath.sqrt(mpmath.mpf(varrho(p)))
        for k in (0, 1, 2, m // 2, m - 3, m - 2, m - 1):  # cutoff, middle, s -> 1
            x = asm.nodes[k]
            for got, (a, b), y_ld, y_exact in (
                (asm.phi[k], bc[:2], r0_ld * x, R * _mp_exact(mpmath, x)),
                (asm.psi[k], bc[2:], r0_ld * (1 - x), R * (1 - _mp_exact(mpmath, x))),
            ):
                got = _mp_exact(mpmath, got)
                # the factor formula at the argument the code forms in
                # longdouble: the error of the expm1 combination itself
                y = _mp_exact(mpmath, y_ld)
                exact = (a * mpmath.sinh(y) + b * R * mpmath.cosh(y)) / root
                assert abs(got - exact) <= 16 * eps * abs(exact), (k, got, exact)
                # at the exact node, rounding the argument r0*x (resp.
                # r0*(1-x)) to longdouble adds up to ~y ulps, since sinh and
                # cosh have condition number ~y there (measured 17 eps at
                # r0 = 50, for np.sinh/np.cosh as well)
                exact = (a * mpmath.sinh(y_exact) + b * R * mpmath.cosh(y_exact)) / root
                bound = 16 * eps * max(1.0, float(y_exact)) * abs(exact)
                assert abs(got - exact) <= bound, (k, got, exact)


@pytest.fixture(scope="module")
def example4_fine(default_params, example4_weights, example4_nonlinearities):
    spec = ProblemSpec(
        n=2, g=example4_nonlinearities, kernel=default_params,
        weights=example4_weights, transform=TS, grid_size=2**18 + 1, cutoff=1e-3,
    )
    u, trace = picard_solve(spec, tol=1e-12)
    assert trace.converged
    return spec, u


def test_longdouble_recovery_matches_float64_on_example4(example4_fine):
    spec, u = example4_fine
    c64 = recover_components(spec, u, tol=1e-10)
    cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert all(c.values.dtype == np.longdouble for c in cld)
    sup = max(float(np.max(np.abs(c.values))) for c in cld)
    for a, b in zip(c64, cld):
        assert float(np.max(np.abs(a.values - b.values.astype(float)))) <= 1e-9 * sup
    assert residual_check(spec, cld) <= 1e-4 * sup


def test_longdouble_recovery_takes_u1_on_the_float64_grid_as_it_is(
    example4_fine, monkeypatch
):
    spec, u = example4_fine
    assert np.array_equal(u.nodes, make_grid(spec))

    def no_interpolation(self, x):
        raise AssertionError("u1 was interpolated")

    with monkeypatch.context() as m:
        m.setattr(GridFunction, "__call__", no_interpolation)
        cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
        # a u1 on other nodes still goes through interpolation
        shifted = GridFunction(np.linspace(1e-3, 1.0, spec.grid_size - 2), u.values[1:-1])
        with pytest.raises(AssertionError, match="interpolated"):
            recover_components(spec, shifted, extended_precision=True)
    # the longdouble nodes round to float64 off the grid by an ulp here and
    # there; interpolating u1 onto them moves the components by ~1 ulp
    rounded = np.asarray(_Assembled(spec, extended=True).nodes, dtype=float)
    assert not np.array_equal(rounded, u.nodes)
    old = recover_components(spec, GridFunction(rounded, u(rounded)), tol=1e-10,
                             extended_precision=True)
    sup = max(float(np.max(np.abs(c.values))) for c in cld)
    for a, b in zip(old, cld):
        assert float(np.max(np.abs(a.values - b.values))) <= 1e-15 * sup


# ---------------------------------------------------------------------------
# blocked passes over the grid
# ---------------------------------------------------------------------------

_G3 = ("cos(u)/10000", "u/(10000*(u+1))", "(1 + sin(u))/20000")


def _example4_spec(default_params, example4_weights, m, g):
    return ProblemSpec(
        n=len(g), g=tuple(parse(src, "u") for src in g), kernel=default_params,
        weights=example4_weights, transform=TS, grid_size=m, cutoff=1e-3,
    )


def _whole_array(mp, m):
    """Make every pass one block and the fold the whole-array reference."""
    mp.setattr(solver, "_BLOCK", m)
    mp.setattr(_Assembled, "kernel_fold", whole_array_fold)


def _pipeline(spec):
    u, trace = picard_solve(spec, tol=1e-12)
    c64 = recover_components(spec, u, tol=1e-10)
    cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    return (u, trace.d_history, trace.rho_history, c64, cld,
            worst_defects(spec, c64), worst_defects(spec, cld))


def _same_pipeline(got, want):
    """Assert that two _pipeline results agree bit for bit."""
    u, d_hist, rho_hist, c64, cld, d64, dld = got
    assert np.array_equal(u.values, want[0].values)
    assert (d_hist, rho_hist) == want[1:3]
    for a, b in zip(c64 + cld, want[3] + want[4]):
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.nodes, b.nodes)
    assert (d64, dld) == want[5:]


@pytest.mark.parametrize("m", [2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocked_passes_bit_identical_to_whole_array(
    m, n, monkeypatch, default_params, example4_weights
):
    spec = _example4_spec(default_params, example4_weights, m, _G3[:n])
    blocked = _pipeline(spec)
    with monkeypatch.context() as mp:
        _whole_array(mp, m)
        _same_pipeline(blocked, _pipeline(spec))


def test_nonlinearity_failing_past_first_block_keeps_its_error(
    monkeypatch, default_params, example4_weights
):
    m, k = 2**17 + 1, 2**16 + 5
    spec = _example4_spec(default_params, example4_weights, m, ("1/(u - 1)",))
    # a step from 0 to 1 at node k: g divides by zero from there on only
    u1 = GridFunction(make_grid(spec), (np.arange(m) >= k).astype(float))
    runs = (
        lambda: picard_solve(spec, init=u1),
        lambda: recover_components(spec, u1),
        lambda: recover_components(spec, u1, extended_precision=True),
    )

    def messages():
        out = []
        for run in runs:
            with pytest.raises(EvaluationError) as info:
                run()
            out.append(str(info.value))
        return out

    blocked = messages()
    with monkeypatch.context() as mp:
        _whole_array(mp, m)
        assert messages() == blocked
    assert all(msg.startswith("nonlinearity 1 failed: division by zero")
               for msg in blocked)


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recovery_and_defect_memory_on_example4(example4_fine):
    # tracemalloc peaks measured at m = 2^18 + 1, pinned with ~10% headroom
    spec, u = example4_fine
    peak = _traced_peak(lambda: recover_components(spec, u, tol=1e-10))
    assert peak <= 18.0e6  # measured 16.3 MB, 62 B/node
    peak = _traced_peak(
        lambda: recover_components(spec, u, tol=1e-10, extended_precision=True))
    assert peak <= 38.0e6  # measured 34.6 MB, 132 B/node
    cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    # every temporary of the defect is one block long, whatever m
    assert _traced_peak(lambda: worst_defects(spec, cld)) <= 8.1e6  # measured 7.3 MB


# ---------------------------------------------------------------------------
# block work on the thread pool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2**16 + 1, 2**17 + 1, 2**18 + 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pool_bit_identical_to_inline(m, n, solver_route, default_params,
                                      example4_weights):
    spec = _example4_spec(default_params, example4_weights, m, _G3[:n])
    solver_route(2)
    pooled = _pipeline(spec)
    solver_route(1)
    _same_pipeline(pooled, _pipeline(spec))


def test_pool_stress_many_blocks_more_workers_than_cores(
    solver_route, monkeypatch, default_params, example4_weights
):
    # 16-node blocks make 17 blocks of 257 nodes, so the two sweeps of each
    # fold meet 17 times and each longdouble fill has 17 tasks for 4 threads;
    # a switch interval of a microsecond makes the threads interleave densely
    monkeypatch.setattr(solver, "_BLOCK", 16)
    spec = _example4_spec(default_params, example4_weights, 257, _G3[:1])
    c = np.random.default_rng(7).random(spec.grid_size)
    solver_route(1)
    asm = _Assembled(spec)
    want = asm.kernel_fold(c)
    want_ld = _Assembled(spec, extended=True)
    solver_route(4)
    asm = _Assembled(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(1500):
            assert np.array_equal(asm.kernel_fold(c), want)
        for _ in range(20):
            got_ld = _Assembled(spec, extended=True)
            assert np.array_equal(got_ld.phi, want_ld.phi)
            assert np.array_equal(got_ld.psi, want_ld.psi)
            assert np.array_equal(got_ld.w, want_ld.w)
    finally:
        sys.setswitchinterval(interval)


def test_public_calls_stay_on_the_calling_thread(
    solver_route, monkeypatch, default_params, example4_weights
):
    solver_route(2)
    threads = {"public": [], "expm1": []}

    def on_thread(key, fn):
        def recorded(*args, **kwargs):
            threads[key].append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for name in ("weight_ell", "trapezoid_weights", "phi", "psi"):
        monkeypatch.setattr(solver, name, on_thread("public", getattr(solver, name)))
    monkeypatch.setattr(solver, "_sinh_cosh", on_thread("expm1", solver._sinh_cosh))
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    spec = dataclasses.replace(spec, g=tuple(on_thread("public", g) for g in spec.g))
    _pipeline(spec)
    assert len(threads["public"]) > 20
    assert set(threads["public"]) == {threading.get_ident()}
    # the pool did run the longdouble factors, so the check above means something
    assert threads["expm1"]
    assert threading.get_ident() not in threads["expm1"]


def test_worker_exception_reaches_the_caller(
    solver_route, monkeypatch, default_params, example4_weights
):
    solver_route(2)
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    u, _ = picard_solve(spec, tol=1e-12)
    want = recover_components(spec, u, tol=1e-10, extended_precision=True)
    raised = []
    sinh_cosh = solver._sinh_cosh

    def fails_on_the_last_block(y, sh, e):
        if y.size < solver._BLOCK:  # the short last block only
            raised.append(ArithmeticError("block failed"))
            raise raised[-1]
        return sinh_cosh(y, sh, e)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_sinh_cosh", fails_on_the_last_block)
        with pytest.raises(ArithmeticError) as info:
            recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert info.value is raised[0]
    # the pool is still there and serves the next call
    got = recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork() with threads
def test_forked_child_runs_its_own_pool(solver_route, default_params,
                                        example4_weights):
    solver_route(2)
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    u0 = GridFunction.constant(make_grid(spec), 1.0)
    want = apply_operator(spec, u0).values  # the parent's pool is running
    pid = os.fork()
    if pid == 0:  # child: never return into pytest
        code = 1
        try:
            code = 0 if np.array_equal(apply_operator(spec, u0).values, want) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("m", [4097, 2**16])
def test_one_block_grid_submits_nothing(m, solver_route, monkeypatch,
                                        default_params, example4_weights):
    pool = solver_route(2)
    submitted = count_calls(monkeypatch, pool, "submit")
    _pipeline(_example4_spec(default_params, example4_weights, m, _G3[:2]))
    assert submitted == []
    _pipeline(_example4_spec(default_params, example4_weights, 2**16 + 1, _G3[:2]))
    assert submitted
