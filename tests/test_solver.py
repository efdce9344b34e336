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
            default_params, synthetic_unit_weight, ["1"], grid_size=m, cutoff=1e-8
        )
        u, trace = picard_solve(spec, tol=1e-12, max_iter=100)
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
    u, trace = picard_solve(spec, tol=1e-12, max_iter=100)
    assert trace.converged
    again = apply_operator(spec, u)
    assert np.max(np.abs(again.values - u.values)) <= 1e-11


def test_picard_zero_map_converges_in_one_iteration(
    default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["0", "0"])
    u, trace = picard_solve(spec, tol=1e-10, max_iter=100)
    assert trace.converged
    assert trace.iterates == 1
    assert np.max(np.abs(u.values)) == 0.0


def test_linear_contraction_ratio_below_certified_bound(
    default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/100"])
    u, trace = picard_solve(spec, init=1.0, tol=1e-13, max_iter=100)
    assert trace.converged
    alpha2 = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=0.01, n=1, p=2.0, q=2.0
    )
    assert alpha2.converged and alpha2.value < 1.0
    assert trace.empirical_ratio <= alpha2.value + 0.05


def test_metric_domination_every_step(default_params, synthetic_unit_weight):
    for srcs, init in ((["u/100"], 1.0), (["1/(1+u)", "1/(1+u)"], 0.0)):
        spec = synthetic_spec(default_params, synthetic_unit_weight, srcs)
        _, trace = picard_solve(spec, init=init, tol=1e-12, max_iter=100)
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
        picard_solve(spec, init=level, tol=1e-10, max_iter=100)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_picard_rejects_a_tol_that_is_not_finite_and_positive(
    tol, default_params, synthetic_unit_weight
):
    # nan and negative values ran to max_iter, inf stopped after one step
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["u/100"])
    with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol!r}"):
        picard_solve(spec, tol=tol, max_iter=100)


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
    u, _ = picard_solve(spec, tol=1e-10, max_iter=100)
    comps = recover_components(spec, u, tol=1e-8)
    assert len(comps) == 2
    for c in comps:
        assert np.max(np.abs(c.values)) == 0.0


def test_recover_single_equation_equals_operator(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1/(2+u)"])
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    comps = recover_components(spec, u, tol=1e-10)
    direct = apply_operator(spec, u)
    assert np.max(np.abs(comps[0].values - direct.values)) == 0.0


def test_recover_detects_cycle_inconsistency(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1 + u", "2 + u"])
    bogus = GridFunction.constant(make_grid(spec), 5.0)
    with pytest.raises(CycleConsistencyError):
        recover_components(spec, bogus, tol=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_recover_rejects_a_tol_that_is_not_finite_and_positive(
    tol, default_params, example4_weights, example4_nonlinearities
):
    # nan and inf skipped the closure check: this u_1 closes the cycle only
    # to 4.98, and came back as components
    spec = ProblemSpec(n=2, g=example4_nonlinearities, kernel=default_params,
                       weights=example4_weights, transform=TS, grid_size=1025)
    bogus = GridFunction.constant(make_grid(spec), 5.0)
    for extended in (False, True):
        with pytest.raises(ValueError,
                           match=f"tol must be finite and positive, got {tol!r}"):
            recover_components(spec, bogus, tol=tol, extended_precision=extended)


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
    u, trace = picard_solve(spec, tol=1e-12, max_iter=100)
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
    ws = WeightSpec(synthetic_override=forcing)
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


_INF, _NAN, _TINY = math.inf, math.nan, 5e-324


@pytest.mark.parametrize("nodes", [
    [0.0, 1.0], [0.0, 0.5, 1.0], [1.0, 0.0], [0.0, 0.0], [-0.0, 0.0],
    [0.0, _TINY], [_TINY, _TINY], [-1e308, 1e308], [-_INF, 0.0], [0.0, _INF],
    [-_INF, _INF], [_INF, _INF], [-_INF, -_INF], [0.0, _NAN], [_NAN, 1.0],
    [0.0, _NAN, 1.0], [0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0],
])
def test_grid_function_node_order_matches_np_diff(nodes):
    # the neighbour comparison gives the verdict of np.diff(nodes) > 0
    nodes = np.array(nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 2e308
        increasing = bool((np.diff(nodes) > 0).all())
    assert bool((nodes[1:] > nodes[:-1]).all()) == increasing
    if increasing:
        GridFunction(nodes, np.zeros_like(nodes))
    else:
        with pytest.raises(ValueError, match="increase strictly"):
            GridFunction(nodes, np.zeros_like(nodes))


def test_radial_profile_mapping(default_params, synthetic_unit_weight):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1"], cutoff=1e-3)
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    comps = recover_components(spec, u, tol=1e-8)
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
    found = multistart_solve(spec, [0.0, 0.5, 2.0], tol=1e-11, max_iter=100)
    assert len(found) == 1  # contraction: all starts collapse to one point


def test_multistart_counts_an_overflowing_start_as_diverging(synthetic_unit_weight):
    # u'' - u + 2 e^u = 0 with Dirichlet ends: Picard reaches only the lower
    # of its two solutions, and from level 6 its iterates overflow exp
    dirichlet = KernelParams(1.0, 0.0, 1.0, 0.0, 1.0, 3)
    spec = ProblemSpec(n=1, g=(parse("2*exp(u)", "u"),), kernel=dirichlet,
                       weights=synthetic_unit_weight, transform=TS, grid_size=2049)
    with pytest.raises(EvaluationError, match="overflow in 'exp\\(u\\)'"):
        picard_solve(spec, init=6.0, tol=1e-10, max_iter=100)
    found = multistart_solve(spec, [0.0, 0.5, 6.0], tol=1e-10, max_iter=100)
    assert len(found) == 1
    # the shooting method gives max u = 0.28818 on [0, 1]
    assert float(np.max(found[0][0].values)) == pytest.approx(0.288177, abs=1e-6)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
def test_multistart_rejects_a_tol_that_is_not_finite_and_positive(
    tol, default_params, synthetic_unit_weight
):
    # checked before any start runs, so an empty level list refuses it too
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1/(1+u)"])
    for levels in ([0.0, 2.0], []):
        with pytest.raises(ValueError,
                           match=f"tol must be finite and positive, got {tol!r}"):
            multistart_solve(spec, levels, tol=tol, max_iter=100)


def test_worst_defects_evaluates_g_in_float64(default_params, synthetic_unit_weight):
    seen = []

    def g(v):
        seen.append(v.dtype)
        return 1.0 / (1.0 + v)

    spec = ProblemSpec(n=1, g=(g,), kernel=default_params,
                       weights=synthetic_unit_weight, transform=TS, grid_size=257)
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    components = recover_components(spec, u, extended_precision=True, tol=1e-8)
    assert components[0].values.dtype == np.longdouble
    seen.clear()
    worst_defects(spec, components)
    assert seen and set(seen) == {np.dtype(float)}


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


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_problem_spec_refuses_a_non_finite_metric(p, default_params,
                                                  synthetic_unit_weight):
    # inf made every rho_history entry sum(diff**inf)**0 = 1.0
    with pytest.raises(ValueError, match=f"metric exponent must be finite, got {p!r}"):
        ProblemSpec(n=1, g=(parse("0", "u"),), kernel=default_params,
                    weights=synthetic_unit_weight, transform=TS, metric_p=p)


# ---------------------------------------------------------------------------
# longdouble recovery (extended_precision=True)
# ---------------------------------------------------------------------------


def _mp_exact(mpmath, x):
    """A longdouble as an mpf, without rounding it to float64 first."""
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


_END_CONDITIONS = {
    "beta0": (1.0, 0.0, 1.0, 1.0), "delta0": (1.0, 1.0, 1.0, 0.0),
    "unit": (1.0, 1.0, 1.0, 1.0),
}


def _factor_spec(bc, r0, m, weight):
    return ProblemSpec(n=1, g=(parse("u", "u"),), kernel=KernelParams(*bc, r0=r0),
                       weights=weight, transform=TS, grid_size=m, cutoff=1e-3)


# (ends, r0, segment length): the default _SEGMENT makes one segment of
# the 1025 nodes, 16-node segments make 65 per factor
_FACTOR_CASES = [
    pytest.param(_END_CONDITIONS[ends], r0, seg,
                 id=f"{ends}-{r0}" + (f"-seg{seg}" if seg else ""))
    for seg in (None, 16) for r0 in (0.1, 5.0, 50.0) for ends in _END_CONDITIONS
]


@pytest.mark.parametrize("bc, r0, segment", _FACTOR_CASES)
def test_longdouble_factors_match_mpmath(bc, r0, segment, monkeypatch,
                                         synthetic_unit_weight):
    mpmath = pytest.importorskip("mpmath")
    if segment is not None:
        monkeypatch.setattr(solver, "_SEGMENT", segment)
    m = 1025
    spec = _factor_spec(bc, r0, m, synthetic_unit_weight)
    asm = _Assembled(spec, extended=True)
    assert asm.phi.dtype == asm.psi.dtype == np.longdouble
    eps = float(np.finfo(np.longdouble).eps)
    # the exact abscissae: the longdouble linspace the anchors are taken from
    x = np.linspace(np.longdouble(spec.cutoff), np.longdouble(1.0), m, dtype=np.longdouble)
    seg = solver._SEGMENT
    with mpmath.workdps(40):
        R = mpmath.mpf(r0)
        root = mpmath.sqrt(mpmath.mpf(varrho(spec.kernel)))
        # r0*step as the fill forms it in longdouble, then taken exactly
        t = _mp_exact(mpmath, r0 * ((x[-1] - x[0]) / (m - 1)))
        for k in (0, 1, 2, m // 2, m - 3, m - 2, m - 1):  # cutoff, middle, s -> 1
            # phi runs from the anchor at the left end of k's segment, psi
            # from the one at its right end, each k*step away from it
            left, right = k // seg * seg, m - 1 - (m - 1 - k) // seg * seg
            for got, (a, b), anchor, steps, y_exact in (
                (asm.phi[k], bc[:2], r0 * x[left], k - left,
                 R * _mp_exact(mpmath, x[k])),
                (asm.psi[k], bc[2:], r0 * (1 - x[right]), right - k,
                 R * (1 - _mp_exact(mpmath, x[k]))),
            ):
                got = _mp_exact(mpmath, got)
                # the factor formula at the argument the rotation forms:
                # the anchor's longdouble argument plus steps*t, exactly
                y = _mp_exact(mpmath, anchor) + steps * t
                exact = (a * mpmath.sinh(y) + b * R * mpmath.cosh(y)) / root
                assert abs(got - exact) <= 16 * eps * abs(exact), (k, got, exact)
                # at the exact node, rounding the argument r0*x (resp.
                # r0*(1-x)) to longdouble adds up to ~y ulps, since sinh and
                # cosh have condition number ~y there (measured 17 eps at
                # r0 = 50, for np.sinh/np.cosh as well)
                exact = (a * mpmath.sinh(y_exact) + b * R * mpmath.cosh(y_exact)) / root
                bound = 16 * eps * max(1.0, float(y_exact)) * abs(exact)
                assert abs(got - exact) <= bound, (k, got, exact)


# max |D2 phi - r0^2 phi| and max |D2 psi - r0^2 psi| of the longdouble
# factors at m = 2^18 + 1, D2 on the grid's own step, as measured when
# phi/psi took one expm1 per node and factor: (cutoff, r0) -> (phi, psi) of
# beta0, delta0, unit.  x[1] - x[0] misses the grid's step by 8 eps at
# cutoff 1e-3 and by 3.7e4 eps at 0.3, where a fill that steps by it reads
# 47-204x these figures.  The rotation measured 2.4-7.7x less at r0 <= 5.
# At r0 = 50 both fills sit at the rounding floor of the check itself: 5-6%
# less at 1e-3, 16-20% less at 0.3, and 1% more on a cutoff-0.1 grid, where
# correctly rounded values read 6193.5 for beta0's phi, this fill 6249.7.
_PARENT_FACTOR_NOISE = {
    (1e-3, 0.1): (2.8340e-08, 4.5951e-08, 4.2482e-08, 3.2480e-08, 4.0748e-08, 4.0283e-08),
    (1e-3, 1.0): (2.3136e-08, 4.4502e-08, 4.9657e-08, 2.3103e-08, 3.4414e-08, 3.8521e-08),
    (1e-3, 5.0): (1.2994e-07, 8.3312e-07, 7.9248e-07, 1.2401e-07, 3.1479e-07, 3.0486e-07),
    (1e-3, 50.0): (8.0138e03, 3.9197e05, 4.0851e05, 7.6903e03, 5.7208e04, 5.4913e04),
    (0.3, 0.1): (5.3613e-08, 8.8937e-08, 9.5155e-08, 4.5064e-08, 7.7709e-08, 6.5618e-08),
    (0.3, 1.0): (4.4200e-08, 9.5477e-08, 8.7277e-08, 3.0654e-08, 6.9459e-08, 5.2341e-08),
    (0.3, 5.0): (2.4867e-07, 3.5350e-07, 1.5434e-06, 5.3471e-08, 6.0435e-07, 1.3776e-07),
    (0.3, 50.0): (4.4963e03, 7.2984e-02, 2.2882e05, 1.4362e-03, 3.2145e04, 1.0249e-02),
}


@pytest.mark.parametrize("cutoff", [1e-3, 0.3])
@pytest.mark.parametrize("r0", [0.1, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("ends", list(_END_CONDITIONS))
def test_longdouble_factor_noise_stays_below_the_per_node_fill(
    ends, r0, cutoff, synthetic_unit_weight
):
    m = 2**18 + 1
    spec = dataclasses.replace(
        _factor_spec(_END_CONDITIONS[ends], r0, m, synthetic_unit_weight), cutoff=cutoff)
    asm = _Assembled(spec, extended=True)
    h2 = ((np.longdouble(1.0) - np.longdouble(cutoff)) / (m - 1)) ** 2
    noise = []
    for f in (asm.phi, asm.psi):
        d2 = (f[:-2] - 2 * f[1:-1] + f[2:]) / h2
        noise.append(float(np.max(np.abs(d2 - np.longdouble(r0) ** 2 * f[1:-1]))))
    k = 2 * list(_END_CONDITIONS).index(ends)
    want = _PARENT_FACTOR_NOISE[cutoff, r0][k:k + 2]
    assert noise[0] <= want[0] and noise[1] <= want[1], (noise, want)


@pytest.mark.parametrize("m", [17, 4097, 2**17 + 1])
def test_longdouble_fill_takes_expm1_at_anchors_and_one_table(
    m, monkeypatch, default_params, synthetic_unit_weight
):
    calls = count_calls(monkeypatch, solver, "_sinh_coshm1")
    spec = ProblemSpec(n=1, g=(parse("u", "u"),), kernel=default_params,
                       weights=synthetic_unit_weight, transform=TS, grid_size=m)
    _Assembled(spec, extended=True)
    seg = solver._SEGMENT
    anchors = -(-m // seg)
    # phi's and psi's anchors, then the table
    assert [y.size for (y,) in calls] == [anchors, anchors, min(seg, m)]
    calls.clear()
    _Assembled(spec)  # the float64 path takes kernel.phi/psi
    assert calls == []


@pytest.mark.parametrize("m", [16, 100, 4097, 8193, 2**17 + 1])
def test_longdouble_anchors_sit_on_the_longdouble_linspace(
    m, monkeypatch, synthetic_unit_weight
):
    # at r0 = 1 the expm1 pass sees phi's anchor abscissae x and psi's 1 - x
    # as they are.  linspace sets node m - 1 to 1 exactly, where lo + (m-1)*step
    # is an ulp off at m = 100; m = 8193 puts a phi anchor there too
    seen = []
    orig = solver._sinh_coshm1
    monkeypatch.setattr(solver, "_sinh_coshm1", lambda y: seen.append(y.copy()) or orig(y))
    spec = _factor_spec(_END_CONDITIONS["unit"], 1.0, m, synthetic_unit_weight)
    _Assembled(spec, extended=True)
    x = np.linspace(np.longdouble(spec.cutoff), np.longdouble(1.0), m, dtype=np.longdouble)
    seg = solver._SEGMENT
    phi_x, psi_y = seen[:2]
    assert phi_x.dtype == psi_y.dtype == np.longdouble
    assert np.array_equal(phi_x, x[::seg])
    assert np.array_equal(psi_y, 1.0 - x[::-1][::seg])


@pytest.fixture(scope="module")
def example4_fine(default_params, example4_weights, example4_nonlinearities):
    spec = ProblemSpec(
        n=2, g=example4_nonlinearities, kernel=default_params,
        weights=example4_weights, transform=TS, grid_size=2**18 + 1, cutoff=1e-3,
    )
    u, trace = picard_solve(spec, tol=1e-12, max_iter=100)
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
    # both precisions share the float64 grid
    assert np.array_equal(_Assembled(spec, extended=True).nodes, make_grid(spec))

    def no_interpolation(self, x):
        raise AssertionError("u1 was interpolated")

    with monkeypatch.context() as m:
        m.setattr(GridFunction, "__call__", no_interpolation)
        c64 = recover_components(spec, u, tol=1e-10)
        cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    for a, b in zip(c64, cld):
        assert np.array_equal(a.nodes, b.nodes)


# max relative defect of the longdouble components of example4_fine when the
# longdouble recovery ran on rounded longdouble nodes with longdouble weights
_DEFECT_ON_LONGDOUBLE_NODES = 1.7116e-08  # measured 1.711592e-08


def test_longdouble_defect_on_the_float64_grid_stays_near_its_old_value(example4_fine):
    # the float64 trapezoid weights jitter by ~ulp(s)/h, up to ~6e-11 relative here
    spec, u = example4_fine
    cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert worst_defects(spec, cld)[1] <= 1.25 * _DEFECT_ON_LONGDOUBLE_NODES  # measured 1.650e-08


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


def _pipeline(spec, fresh=False):
    """Solve, both recoveries and both defects on spec; with fresh set, each
    call takes a copy of spec that has not built its grid yet."""
    on = (lambda: dataclasses.replace(spec)) if fresh else (lambda: spec)
    u, trace = picard_solve(on(), tol=1e-12, max_iter=100)
    c64 = recover_components(on(), u, tol=1e-10)
    cld = recover_components(on(), u, tol=1e-10, extended_precision=True)
    return (u, trace.d_history, trace.rho_history, c64, cld,
            worst_defects(on(), c64), worst_defects(on(), cld))


def _significant(a):
    """a's bytes that carry its values: x87 longdouble pads 10 bytes to 16."""
    if a.dtype == np.longdouble and np.finfo(np.longdouble).nmant == 63:
        return a.view(np.uint8).reshape(a.size, a.itemsize)[:, :10]
    return a


def _same_pipeline(got, want):
    """Assert that two _pipeline results agree bit for bit."""
    u, d_hist, rho_hist, c64, cld, d64, dld = got
    assert np.array_equal(u.values, want[0].values)
    assert (d_hist, rho_hist) == want[1:3]
    for a, b in zip(c64 + cld, want[3] + want[4]):
        assert a.values.dtype == b.values.dtype
        assert np.array_equal(_significant(a.values), _significant(b.values))
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
        # a fresh spec, so that its grid is built in one block too
        _same_pipeline(blocked, _pipeline(dataclasses.replace(spec)))


@pytest.mark.parametrize("m", [2**16, 2**16 + 1, 16 * 2**16 + 3])  # 1, 2, 17 blocks
@pytest.mark.parametrize("spacing", [np.linspace, np.geomspace])
def test_plain_weights_by_block_equal_the_whole_array_weights(m, spacing):
    nodes = spacing(1e-3, 1.0, m)
    w = np.empty(m)
    for a, b in solver._blocks(m):
        w[a:b] = solver._block_weights(nodes, a, b)
    assert np.array_equal(w, trapezoid_weights(nodes))


def test_picard_distances_match_whole_array_plain_weights(
    monkeypatch, default_params, example4_weights
):
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    _, want = picard_solve(spec, tol=1e-12, max_iter=100)
    whole = trapezoid_weights(make_grid(spec))
    monkeypatch.setattr(solver, "_block_weights", lambda nodes, a, b: whole[a:b])
    _, got = picard_solve(spec, tol=1e-12, max_iter=100)
    assert got.rho_history == want.rho_history and len(want.rho_history) == 3


def test_nonlinearity_failing_past_first_block_keeps_its_error(
    monkeypatch, default_params, example4_weights
):
    m, k = 2**17 + 1, 2**16 + 5
    spec = _example4_spec(default_params, example4_weights, m, ("1/(u - 1)",))
    # a step from 0 to 1 at node k: g divides by zero from there on only
    u1 = GridFunction(make_grid(spec), (np.arange(m) >= k).astype(float))
    runs = (
        lambda: picard_solve(spec, init=u1, tol=1e-10, max_iter=100),
        lambda: recover_components(spec, u1, tol=1e-8),
        lambda: recover_components(spec, u1, extended_precision=True, tol=1e-8),
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
    # tracemalloc peaks measured at m = 2^18 + 1, pinned with ~10% headroom;
    # the spec's grid (nodes, ell, w) was built by the fixture's solve
    spec, u = example4_fine
    peak = _traced_peak(lambda: recover_components(spec, u, tol=1e-10))
    assert peak <= 14.0e6  # measured 12.6 MB, 48 B/node
    peak = _traced_peak(
        lambda: recover_components(spec, u, tol=1e-10, extended_precision=True))
    assert peak <= 25.7e6  # measured 23.3 MB, 89 B/node
    cld = recover_components(spec, u, tol=1e-10, extended_precision=True)
    # every temporary of the defect is one block long, whatever m
    assert _traced_peak(lambda: worst_defects(spec, cld)) <= 5.3e6  # measured 4.8 MB


# ---------------------------------------------------------------------------
# block work on the helper thread
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2**16 + 1, 2**17 + 1, 2**18 + 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pool_bit_identical_to_inline(m, n, solver_route, default_params,
                                      example4_weights):
    # the helper-thread route against the inline route of one CPU
    spec = _example4_spec(default_params, example4_weights, m, _G3[:n])
    solver_route(2)
    threaded = _pipeline(spec)
    solver_route(1)
    _same_pipeline(threaded, _pipeline(spec))


def test_pool_stress_many_blocks_more_workers_than_cores(
    solver_route, monkeypatch, default_params, example4_weights
):
    # 16-node blocks make 17 blocks of 257 nodes, so the two sweeps of each
    # fold meet 17 times, and 16-node segments make the longdouble phi and
    # psi rotations 17 segments each, side by side; a switch interval of a
    # microsecond makes the two threads interleave densely
    monkeypatch.setattr(solver, "_BLOCK", 16)
    monkeypatch.setattr(solver, "_SEGMENT", 16)
    spec = _example4_spec(default_params, example4_weights, 257, _G3[:1])
    c = np.random.default_rng(7).random(spec.grid_size)
    solver_route(1)
    asm = _Assembled(spec)
    want = asm.kernel_fold(c)
    want_ld = _Assembled(spec, extended=True)
    solver_route(2)
    asm = _Assembled(spec)
    assert not asm.inline
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(1500):
            assert np.array_equal(asm.kernel_fold(c), want)
        for _ in range(20):
            got_ld = _Assembled(spec, extended=True)
            assert np.array_equal(got_ld.phi, want_ld.phi)
            assert np.array_equal(got_ld.psi, want_ld.psi)
    finally:
        sys.setswitchinterval(interval)


def test_public_calls_stay_on_the_calling_thread(
    solver_route, monkeypatch, default_params, example4_weights
):
    solver_route(2)
    threads = {"public": [], "fill": []}

    def on_thread(key, fn):
        def recorded(*args, **kwargs):
            threads[key].append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for name in ("weight_ell", "trapezoid_weights", "phi", "psi"):
        monkeypatch.setattr(solver, name, on_thread("public", getattr(solver, name)))
    monkeypatch.setattr(solver, "_rotate", on_thread("fill", solver._rotate))
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    spec = dataclasses.replace(spec, g=tuple(on_thread("public", g) for g in spec.g))
    _pipeline(spec)
    assert len(threads["public"]) > 20
    assert set(threads["public"]) == {threading.get_ident()}
    # the helper thread did run a longdouble factor rotation, so the check
    # above means something
    assert set(threads["fill"]) - {threading.get_ident()}


def test_worker_exception_reaches_the_caller(
    solver_route, monkeypatch, default_params, example4_weights
):
    solver_route(2)
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    want = recover_components(spec, u, tol=1e-10, extended_precision=True)
    raised = []
    rotate = solver._rotate

    def fails_on_psi(out, *args):
        if out.strides[0] < 0:  # psi, filled from its right end
            raised.append(ArithmeticError("fill failed"))
            raise raised[-1]
        return rotate(out, *args)

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_rotate", fails_on_psi)
        with pytest.raises(ArithmeticError) as info:
            recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert info.value is raised[0]
    # nothing is left behind: the next call runs as before
    got = recover_components(spec, u, tol=1e-10, extended_precision=True)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_forked_child_runs_its_own_pool(solver_route, default_params,
                                        example4_weights):
    # a forked child folds a multi-block grid without hanging
    solver_route(2)
    spec = _example4_spec(default_params, example4_weights, 2**17 + 1, _G3[:2])
    u0 = GridFunction.constant(make_grid(spec), 1.0)
    want = apply_operator(spec, u0).values  # the parent has used its helper
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
            pytest.fail("the forked child hung")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("m", [4097, 2**16])
def test_one_block_grid_submits_nothing(m, solver_route, monkeypatch,
                                        default_params, example4_weights):
    # a one-block grid starts no helper thread
    solver_route(2)
    started = count_calls(monkeypatch, threading.Thread, "start")
    _pipeline(_example4_spec(default_params, example4_weights, m, _G3[:2]))
    assert started == []
    _pipeline(_example4_spec(default_params, example4_weights, 2**16 + 1, _G3[:2]))
    assert started


# ---------------------------------------------------------------------------
# the spec's grid: nodes, ell and w, built once per spec
# ---------------------------------------------------------------------------


def test_worst_defects_refuses_components_off_the_spec_grid(
    default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1"])
    nodes = make_grid(spec)
    values = np.sin(17.0 * nodes) + 2.0
    want = worst_defects(spec, [GridFunction(nodes, values)])
    shifted = np.append(nodes[1:], 2.0 * nodes[-1] - nodes[-2])  # one node right
    other_m = make_grid(dataclasses.replace(spec, grid_size=spec.grid_size + 1))
    for off in (shifted, other_m):
        with pytest.raises(ValueError, match="make_grid"):
            worst_defects(spec, [GridFunction(off, np.sin(17.0 * off) + 2.0)])
    assert worst_defects(spec, [GridFunction(nodes.copy(), values)]) == want


_ENTRY_POINTS = {
    "apply_operator": lambda spec, u: apply_operator(spec, u),
    "picard_solve": lambda spec, u: picard_solve(spec, init=u, tol=1e-12, max_iter=100),
    "recover_components": lambda spec, u: recover_components(spec, u, tol=1e-10),
    "recover_components_longdouble": lambda spec, u: recover_components(
        spec, u, tol=1e-10, extended_precision=True),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_every_entry_point_refuses_an_off_grid_input(
    name, default_params, synthetic_unit_weight
):
    spec = synthetic_spec(default_params, synthetic_unit_weight, ["1/(1+u)", "1/(1+u)"])
    u, _ = picard_solve(spec, tol=1e-12, max_iter=100)
    nodes = make_grid(spec)
    shifted = np.append(nodes[1:], 2.0 * nodes[-1] - nodes[-2])  # one node right
    other_m = make_grid(dataclasses.replace(spec, grid_size=spec.grid_size + 1))
    for off in (shifted, other_m):
        with pytest.raises(ValueError, match="must sit on the grid make_grid"):
            _ENTRY_POINTS[name](spec, GridFunction(off, u(off)))
    _ENTRY_POINTS[name](spec, GridFunction(nodes.copy(), u.values))  # equal nodes pass


@pytest.mark.parametrize("m", [4097, 2**17 + 1])
def test_weight_ell_runs_once_per_block_per_spec(
    m, monkeypatch, default_params, example4_weights
):
    calls = count_calls(monkeypatch, solver, "weight_ell")
    spec = _example4_spec(default_params, example4_weights, m, _G3[:2])
    _pipeline(spec)
    assert len(multistart_solve(spec, [0.0, 0.5, 1.0], tol=1e-12, max_iter=100)) == 1
    assert [s.size for s, *_ in calls] == [b - a for a, b in solver._blocks(m)]
    assert len(calls) == -(-m // 2**16)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("m", [4097, 2**17 + 1])
def test_shared_spec_matches_a_fresh_spec_per_call(
    m, cpus, solver_route, default_params, example4_weights
):
    solver_route(cpus)
    spec = _example4_spec(default_params, example4_weights, m, _G3[:2])
    got = _pipeline(spec)
    _same_pipeline(got, _pipeline(spec, fresh=True))
    u, c64, cld = got[0], got[3], got[4]
    grid = spec._grid
    assert u.nodes is grid.nodes and all(c.nodes is grid.nodes for c in c64 + cld)
    for x in (u.nodes, grid.ell, grid.w):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.5


def test_failed_grid_build_keeps_nothing(default_params):
    # ell fails in the grid's last block only: s > 0.9
    ws = WeightSpec(synthetic_override=parse("sqrt(0.9 - t)", "t"))
    spec = ProblemSpec(n=1, g=(parse("u/100", "u"),), kernel=default_params, weights=ws,
                       transform=TS, grid_size=2**17 + 1, cutoff=1e-3)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            picard_solve(spec, tol=1e-10, max_iter=100)
        errors.append((type(info.value), str(info.value)))
        assert "_grid" not in vars(spec)
    assert errors[0] == errors[1]
    assert "sqrt of negative value" in errors[0][1]
