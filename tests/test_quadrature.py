import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import composite_simpson, read_only, riemann_midpoint

from annulus_radial import quadrature
from annulus_radial.config import config_from_dict
from annulus_radial.exprlang import ExprDomainError, parse
from annulus_radial.kernel import KernelParams, kernel_diag
from annulus_radial.quadrature import (
    CONVERGED,
    CUTOFF_LIMITED,
    DEFAULT_CUTOFFS,
    DIVERGENT,
    EvaluationError,
    endpoint_infimum,
    endpoint_supremum,
    holder_conjugate_check,
    integrate,
    p_norm,
)
from annulus_radial.reproduce import EXAMPLE_IDS, example_config
from annulus_radial.weights import weight_bundle

RNG = np.random.default_rng(11)


def test_polynomial_integral():
    res = integrate(lambda t: t * t, tol=1e-12)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.abs_error_estimate <= 1e-12


def test_power_divergence_detected():
    res = integrate(lambda t: t**-4.0, tol=1e-10)
    assert res.status == DIVERGENT
    assert res.exponent_estimate == pytest.approx(-4.0, abs=0.1)
    # truncated values grow like eps^-3 / 3
    eps0, v0 = res.cutoff_trace[0]
    assert v0 == pytest.approx((eps0**-3.0 - 1.0) / 3.0, rel=1e-9)
    values = [v for _, v in res.cutoff_trace]
    assert values == sorted(values)


def test_log_divergence_maps_to_borderline_exponent():
    res = integrate(lambda t: 1.0 / t, tol=1e-10)
    assert res.status == DIVERGENT
    assert res.exponent_estimate == pytest.approx(-1.0, abs=0.1)


def test_integrable_endpoint_singularity_extrapolates_exactly():
    res = integrate(lambda t: t**-0.5, tol=1e-9)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_smooth_kernel_diagonal_matches_simpson(default_params, asym_params):
    for p in (default_params, asym_params):
        res = integrate(lambda t: kernel_diag(p, t), tol=1e-10)
        oracle = composite_simpson(lambda t: kernel_diag(p, t), 0.0, 1.0)
        assert res.status == CONVERGED
        assert res.value == pytest.approx(oracle, abs=1e-10)


def test_monotone_trace_for_nonnegative_integrands():
    for f in (lambda t: t**-1.5, lambda t: np.exp(-t), lambda t: t**-4.0):
        res = integrate(f, tol=1e-10)
        values = [v for _, v in res.cutoff_trace]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_p_norms_closed_forms():
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    for p in (1.0, 2.0, 3.0, math.inf):
        assert p_norm(one, p).value == pytest.approx(1.0, abs=1e-10)
    ident = lambda t: np.asarray(t, dtype=float)
    assert p_norm(ident, 2.0).value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)


def test_p_norm_against_riemann_oracle():
    f = lambda t: 1.0 / (np.asarray(t, dtype=float) ** 2 + 1.0)
    res = p_norm(f, 2.0, tol=1e-10)
    oracle = riemann_midpoint(lambda t: f(t) ** 2, 0.0, 1.0) ** 0.5
    assert res.status == CONVERGED
    assert res.value == pytest.approx(oracle, abs=1e-8)


def test_sup_norm_divergence(default_params):
    f = lambda t: kernel_diag(default_params, t) * np.asarray(t, dtype=float) ** -4.0
    res = p_norm(f, math.inf)
    assert res.status == DIVERGENT
    assert res.exponent_estimate == pytest.approx(-4.0, abs=0.2)


def test_sup_norm_smooth(default_params):
    res = p_norm(lambda t: kernel_diag(default_params, t), math.inf)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(0.5, abs=1e-10)


def test_holder_conjugate_examples():
    assert holder_conjugate_check([2, 3], 6)
    assert holder_conjugate_check([3, 6], 2)
    assert not holder_conjugate_check([2, 2], 2)
    assert holder_conjugate_check([math.inf], 1.0)


def test_holder_inequality_property():
    # |fg|_1 <= |f|_p |g|_q for random bounded smooth functions
    for _ in range(6):
        cf = RNG.normal(size=4)
        cg = RNG.normal(size=4)
        f = lambda t: 2.0 + np.cos(cf[0] + 3 * cf[1] * np.asarray(t)) * cf[2] + cf[3] * np.asarray(t)
        g = lambda t: 1.5 + np.sin(cg[0] + 2 * cg[1] * np.asarray(t)) * cg[2] + cg[3] * np.asarray(t) ** 2
        for p, q in ((2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)):
            lhs = integrate(lambda t: np.abs(f(t) * g(t)), tol=1e-9).value
            rhs = p_norm(f, p, tol=1e-9).value * p_norm(g, q, tol=1e-9).value
            assert lhs <= rhs + 1e-8


def test_evaluation_error_carries_abscissa():
    # the expression's own message names the first failing point
    with pytest.raises(EvaluationError, match=r"^integrand failed: .* at x=0\.0"):
        integrate(parse("log(t - 0.05)", variable="t"), tol=1e-9)


def test_endpoint_infimum_behaviour(default_params):
    res = endpoint_infimum(lambda t: np.ones_like(np.asarray(t, dtype=float)))
    assert res.status == CONVERGED
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # fast decay collapses within tolerance: converged to (numerically) zero
    fast = endpoint_infimum(lambda t: np.asarray(t, dtype=float) ** 2)
    assert fast.value <= 1e-12
    # slow decay is still moving at the last cutoff: flagged, not asserted
    slow = endpoint_infimum(lambda t: np.asarray(t, dtype=float) ** 0.5)
    assert slow.status == CUTOFF_LIMITED
    assert slow.value == pytest.approx(1e-4, rel=1e-6)


def test_endpoint_supremum_trace_is_classified(default_params):
    res = endpoint_supremum(lambda t: np.asarray(t, dtype=float) ** -2.0)
    assert res.status == DIVERGENT
    levels = [v for _, v in res.cutoff_trace]
    assert levels[-1] > levels[0]


def test_converged_implies_error_within_tol():
    for f, tol in ((lambda t: np.exp(-t), 1e-9), (lambda t: t**3, 1e-11)):
        res = integrate(f, tol=tol)
        if res.status == CONVERGED:
            assert res.abs_error_estimate <= tol


def test_cutoff_validation():
    with pytest.raises(ValueError):
        integrate(lambda t: t, cutoffs=[])
    with pytest.raises(ValueError):
        integrate(lambda t: t, cutoffs=[0.5, 0.5])
    with pytest.raises(ValueError):
        integrate(lambda t: t, cutoffs=[1.5])


# ---------------------------------------------------------------------------
# the graded Gauss-Legendre panel rule against closed forms
# ---------------------------------------------------------------------------

LADDER = [1.0, *DEFAULT_CUTOFFS]
RUNGS = list(zip(LADDER[1:], LADDER[:-1]))  # (a, b), top rung first


def _power_antiderivative(a):
    if a == -1.0:
        return math.log
    return lambda t: t ** (a + 1.0) / (a + 1.0)


def _power_log_antiderivative(a):
    if a == -1.0:
        return lambda t: 0.5 * math.log(t) ** 2
    return lambda t: t ** (a + 1.0) * (math.log(t) / (a + 1.0) - 1.0 / (a + 1.0) ** 2)


@pytest.mark.parametrize("a", [-6.0, -4.0, -2.0, -1.0, -0.5, 0.0, 2.5])
def test_panel_rule_power_on_every_rung(a):
    values, errors = quadrature._panels(lambda t: t**a, LADDER, 1e-10)
    F = _power_antiderivative(a)
    for (lo, hi), v, e in zip(RUNGS, values, errors):
        exact = F(hi) - F(lo)
        assert abs(v - exact) <= 1e-13 * abs(exact)
        assert e <= max(1e-12, 1e-13 * abs(exact))


@pytest.mark.parametrize("a", [-2.0, -1.0, -0.5, 1.5])
def test_panel_rule_power_times_log(a):
    values, _ = quadrature._panels(lambda t: t**a * np.log(t), LADDER, 1e-10)
    F = _power_log_antiderivative(a)
    for (lo, hi), v in zip(RUNGS, values):
        exact = F(hi) - F(lo)
        assert abs(v - exact) <= 1e-13 * abs(exact)


def test_panel_rule_oscillatory():
    values, _ = quadrature._panels(lambda t: np.cos(40.0 * t), LADDER, 1e-10)
    for (lo, hi), v in zip(RUNGS, values):
        exact = (math.sin(40.0 * hi) - math.sin(40.0 * lo)) / 40.0
        assert abs(v - exact) <= 1e-12  # epsabs = 1e-2 tol
    res = integrate(lambda t: np.cos(40.0 * t), tol=1e-10)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)


def test_non_integrable_spike_stops_at_the_subinterval_cap():
    points = []

    def spike(t):
        points.append(t.size)
        return np.abs(t - 0.3) ** -1.5

    values, errors = quadrature._panels(spike, [1.0, 0.01], 1e-10)
    # each split evaluates two children: 2 * 200 - 1 subintervals in all
    nodes = 30  # a 10- and a 20-point rule per subinterval
    assert sum(points) == (2 * quadrature._MAX_SUBINTERVALS - 1) * nodes
    assert math.isfinite(values[0]) and math.isfinite(errors[0])
    assert errors[0] > 1e-12
    res = integrate(lambda t: np.abs(t - 0.3) ** -1.5, tol=1e-10)
    assert res.status != CONVERGED
    assert math.isfinite(res.abs_error_estimate)


# ---------------------------------------------------------------------------
# the shared-sample extremum ladder, and the whole-grid ladder it replaced
# ---------------------------------------------------------------------------


def whole_grid_extremum_on(f, lo, tol, mode):
    """The extremum ladder before nesting: each level evaluates its whole
    grid, linspace and geomspace on n points, from 2049 to 2^18 + 1."""
    pick = np.max if mode == "max" else np.min
    n = 2049
    last = None
    best = None
    while n <= (1 << 18) + 1:
        grid = np.sort(np.concatenate([np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, n)]))
        grid = grid[np.append(True, grid[1:] != grid[:-1])]
        vals = np.asarray(f(grid), dtype=float)
        best = float(pick(vals))
        if last is not None and abs(best - last) <= tol * max(1.0, abs(best)):
            return best
        last = best
        n = 2 * (n - 1) + 1
    return best


def whole_grid_ladder(f, mode, tol, cutoffs):
    eps = list(cutoffs)
    levels = [whole_grid_extremum_on(f, e, tol, mode) for e in eps]
    return quadrature._classify_levels(eps, levels, tol, mode)


LEVEL_SIZES = [(1 << k) + 1 for k in range(11, 19)]  # 2049 .. 2^18 + 1
NEW_AT_SECOND = float(np.linspace(1e-2, 1.0, 4097)[2049])  # not on level 2049


@pytest.mark.parametrize("lo", DEFAULT_CUTOFFS)
def test_sample_families_nest_bit_for_bit(lo):
    for n in LEVEL_SIZES[:-1]:
        for family in (np.linspace, np.geomspace):
            assert np.array_equal(family(lo, 1.0, 2 * n - 1)[::2], family(lo, 1.0, n))


# (f in max mode, tol, cutoffs); min mode takes -f.  Where the whole grid
# settles on a point the shared sample also holds (an end, or any point of
# the second level on a one-cutoff ladder, whose sample is that level), the
# two ladders agree bit for bit.
LADDER_CASES = {
    "stops_at_first_check": (lambda t: np.exp(-t), 1e-10, DEFAULT_CUTOFFS),
    "extremum_at_a_new_point": (lambda t: -((t - NEW_AT_SECOND) ** 2), 1e-10, (1e-2,)),
    "nan_at_a_new_point": (lambda t: np.where(t == NEW_AT_SECOND, np.nan, t), 1e-10, (1e-2,)),
    "nan_from_the_start": (lambda t: np.log(t - 0.5), 1e-10, DEFAULT_CUTOFFS),
    "power_ladder": (lambda t: t**-2.0, 1e-10, DEFAULT_CUTOFFS),
}


@pytest.mark.parametrize("name", sorted(LADDER_CASES))
@pytest.mark.parametrize("mode", ["max", "min"])
def test_nested_ladder_matches_whole_grid_reference(name, mode):
    f, tol, cutoffs = LADDER_CASES[name]
    g = f if mode == "max" else (lambda t: -f(t))
    ladder = endpoint_supremum if mode == "max" else endpoint_infimum
    with np.errstate(invalid="ignore"):
        got = ladder(g, tol=tol, cutoffs=cutoffs).to_dict()
        want = whole_grid_ladder(g, mode, tol, cutoffs).to_dict()
    # json text, so that NaN equals NaN
    assert json.dumps(got) == json.dumps(want)


def recorded(f):
    """f, and a dict that collects every point f is called on with its value,
    and the list of its calls' sizes."""
    seen, sizes = {}, []

    def g(t):
        y = np.asarray(f(t), dtype=float)
        seen.update(zip(t.tolist(), np.broadcast_to(y, t.shape).tolist()))
        sizes.append(t.size)
        return y

    return g, seen, sizes


def _example_integrands():
    for k in EXAMPLE_IDS:
        cfg = config_from_dict(example_config(k))
        _, power, factors = weight_bundle(cfg.weights, cfg.transform, cfg.kernel)
        for i, f in enumerate(factors):
            yield f"example-{k}/factor-{i + 1}", f
        yield f"example-{k}/hhat", (lambda t, p=cfg.kernel, a=power: kernel_diag(p, t) * t**a)


MONOTONE = {"t^-2": lambda t: t**-2.0, **dict(_example_integrands())}


@pytest.mark.parametrize("name", sorted(MONOTONE))
def test_monotone_integrands_keep_the_sampled_end_value(name):
    # the zoom never moves an extremum that sits at a cutoff or at 1
    for ladder, pick in ((endpoint_supremum, max), (endpoint_infimum, min)):
        g, seen, _ = recorded(MONOTONE[name])
        res = ladder(g, tol=1e-9)
        for eps, value in res.cutoff_trace:
            assert value == pick(seen[eps], seen[1.0])
    sample = quadrature._sample(DEFAULT_CUTOFFS)[0]
    values = np.asarray(MONOTONE[name](sample))
    assert np.all(np.diff(values) > 0) or np.all(np.diff(values) < 0)


RESOLVED_PEAKS = {  # (f, its maximum) for a peak at c; a bump's width is w * c
    "square": lambda c, a, w: (lambda t: -((t - c) * (t - c)), 0.0),
    "cusp": lambda c, a, w: (lambda t: -np.abs(t - c), 0.0),
    "bump": lambda c, a, w: (lambda t: a * np.exp(-(((t - c) / (w * c)) ** 2)), a),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(RESOLVED_PEAKS)),
    st.floats(-8.0, 0.0),
    st.floats(0.1, 10.0),
    st.floats(0.05, 0.3),
)
def test_ladder_lands_on_a_resolved_extremum(kind, log_c, a, w):
    # a peak anywhere in [1e-8, 1]: within 1e-10 of it on the rungs that
    # hold it, never past it, and on the rungs above it the cutoff's value
    c = 10.0**log_c
    f, peak = RESOLVED_PEAKS[kind](c, a, w)
    g, seen, _ = recorded(f)
    sup = endpoint_supremum(g)
    inf = endpoint_infimum(lambda t: -f(t))
    for (eps, high), (_, low) in zip(sup.cutoff_trace, inf.cutoff_trace):
        assert low == -high
        if c < eps:
            assert high == seen[eps]
        else:
            assert peak - 1e-10 * max(1.0, abs(peak)) <= high <= peak


# Robin kernels whose diagonal has its maximum inside (0, 1), at t ~ 0.73,
# 0.16, 0.67, 0.16, 0.90 and 0.55
INTERIOR_DIAGONAL_MAXIMA = [
    (3.0, 1.0, 4.0, 3.0, 0.5),
    (1.23, 0.97, 3.14, 0.41, 0.3),
    (3.42, 1.64, 4.4, 3.38, 0.57),
    (4.26, 4.74, 4.54, 2.93, 0.61),
    (3.28, 2.93, 2.01, 2.17, 0.87),
    (3.81, 0.32, 1.99, 0.35, 0.54),
]


@pytest.mark.parametrize("params", INTERIOR_DIAGONAL_MAXIMA)
def test_interior_diagonal_supremum_matches_a_refined_grid(params):
    p = KernelParams(*params, N=3)
    t = np.linspace(0.0, 1.0, 100_001)
    i = int(np.argmax(kernel_diag(p, t)))
    assert 0 < i < t.size - 1
    want = float(np.max(kernel_diag(p, np.linspace(t[i - 1], t[i + 1], 20_001))))
    res = endpoint_supremum(lambda s: kernel_diag(p, s))
    assert res.status == CONVERGED
    for _, value in res.cutoff_trace:
        assert abs(value - want) <= 1e-10 * want


@pytest.mark.parametrize("cutoffs", [DEFAULT_CUTOFFS, (0.5,), (0.3, 1e-3, 2e-7)])
def test_sample_is_cached_read_only_and_fine_on_every_rung(cutoffs):
    grid, starts, ends, calls = quadrature._sample(tuple(cutoffs))
    assert quadrature._sample(tuple(cutoffs))[0] is grid
    assert np.all(np.diff(grid) > 0.0) and grid[-1] == 1.0
    assert not grid.flags.writeable and not any(c.flags.writeable for c in calls)
    with pytest.raises(ValueError):
        grid[0] = 0.0
    assert grid[list(starts)].tolist() == list(cutoffs) and starts[-1] == 0
    # linear and log steps no coarser than the whole grid's second level
    for eps in cutoffs:
        part = grid[grid >= eps]
        assert np.diff(part).max() <= (1.0 - eps) / 4096 * (1.0 + 1e-9)
        assert np.diff(np.log(part)).max() <= math.log(1.0 / eps) / 4096 * (1.0 + 1e-9)
    # the calls hold each rung's own part in rung order, ascending within
    parts = [grid[lo:hi] for lo, hi in zip(starts, ends)]
    assert np.array_equal(np.concatenate(calls), np.concatenate(parts))
    assert all(c.size <= 8192 for c in calls)
    f = lambda t: np.cos(7.0 * t) / t
    for ladder in (endpoint_supremum, endpoint_infimum):
        assert ladder(f, cutoffs=cutoffs).to_dict() == ladder(f, cutoffs=cutoffs).to_dict()


def test_default_ladder_budget():
    sample_calls = len(quadrature._sample(DEFAULT_CUTOFFS)[3])
    # t^-2 peaks at every cutoff (seven brackets), its minimum is at 1 (one)
    for ladder, brackets in ((endpoint_supremum, 7), (endpoint_infimum, 1)):
        g, _, sizes = recorded(lambda t: t**-2.0)
        ladder(g)
        assert sum(sizes[:sample_calls]) <= 21_000
        assert max(sizes) <= 8192
        # two quiet rounds close a bracket, each round one call
        assert sizes[sample_calls:] == [15 * brackets] * 2


def test_nan_in_a_rungs_sample_or_zoom_is_its_value():
    sample = quadrature._sample(DEFAULT_CUTOFFS)[0]
    third = DEFAULT_CUTOFFS[3]
    above = float(sample[np.searchsorted(sample, third) + 1])

    def in_the_sample(t):  # NaN off the sample: in every zoom
        return np.where(np.isin(t, sample), t, np.nan)

    def on_the_fourth_cutoff(t):  # NaN sampled on the fourth rung
        return np.where(t == third, np.nan, 1.0 / t)

    def beside_the_fourth_cutoff(t):  # NaN only in the fourth rung's zoom
        return np.where((third < t) & (t < above), np.nan, 1.0 / t)

    for ladder in (endpoint_supremum, endpoint_infimum):
        res = ladder(in_the_sample)
        assert all(math.isnan(v) for _, v in res.cutoff_trace)
        assert res.status == CUTOFF_LIMITED
    for f in (on_the_fourth_cutoff, beside_the_fourth_cutoff):
        levels = [v for _, v in endpoint_supremum(f).cutoff_trace]
        assert levels[:3] == [1.0 / e for e in DEFAULT_CUTOFFS[:3]]
        assert all(math.isnan(v) for v in levels[3:])


@pytest.mark.parametrize("ladder", [endpoint_supremum, endpoint_infimum])
def test_one_cutoff_nan_extremum_is_not_converged(ladder):
    with np.errstate(invalid="ignore"):
        res = ladder(lambda t: np.log(t - 0.5), cutoffs=(1e-2,))
        integral = integrate(lambda t: np.log(t - 0.5), cutoffs=(1e-2,))
    assert math.isnan(res.value)
    assert res.status == integral.status == CUTOFF_LIMITED
    assert quadrature._classify_levels([0.5], [1.0], 1e-10, "max").status == CONVERGED


# ---------------------------------------------------------------------------
# plain callables in the extremum ladder
# ---------------------------------------------------------------------------


EXTREMA = {
    "endpoint_supremum": endpoint_supremum,
    "endpoint_infimum": endpoint_infimum,
    "p_norm_inf": lambda f, **kw: p_norm(f, math.inf, **kw),
}


@pytest.mark.parametrize("name", sorted(EXTREMA))
def test_extremum_ladder_names_the_failing_abscissa(name):
    # the expression's own message names the first failing point
    with pytest.raises(EvaluationError, match=r"^integrand failed: .* at x=0\.0"):
        EXTREMA[name](parse("log(t - 0.05)", variable="t"))


# the quadrature as a whole: integrate and the extremum ladders
EVERY_LADDER = {"integrate": integrate, **EXTREMA}


@pytest.mark.parametrize("name", sorted(EVERY_LADDER))
def test_scalar_result_is_broadcast(name):
    calls = []

    def constant(t):
        calls.append(t.shape)
        return 2.0

    res = EVERY_LADDER[name](constant)
    assert res.status == CONVERGED
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert calls and all(len(shape) == 1 and shape[0] > 1 for shape in calls)


# the same values handed back as a fresh array, a read-only array, the input
# array itself, or a scalar
SAME_VALUES = {
    "identity": [lambda t: t * 1.0, lambda t: read_only(t), lambda t: t],
    "constant": [lambda t: np.full(t.shape, 2.0), lambda t: read_only(np.full(t.shape, 2.0)),
                 lambda t: 2.0],
}


@pytest.mark.parametrize("values", sorted(SAME_VALUES))
@pytest.mark.parametrize("name", sorted(EVERY_LADDER))
def test_ladders_read_any_result_of_the_input_shape_alike(name, values):
    reference, *others = SAME_VALUES[values]
    want = EVERY_LADDER[name](reference).to_dict()
    for f in others:
        assert EVERY_LADDER[name](f).to_dict() == want


@pytest.mark.parametrize("name", sorted(EVERY_LADDER))
def test_array_refusing_callable_raises_evaluation_error(name):
    def scalar_only(t):
        return math.exp(-t)  # TypeError on an array of several points

    with pytest.raises(EvaluationError, match="^integrand failed: ") as err:
        EVERY_LADDER[name](scalar_only)
    assert isinstance(err.value.__cause__, TypeError)


def test_expression_domain_error_names_the_whole_grid_abscissa():
    # (t - c)^2 is 0 only at c, a point the second level adds
    f = parse(f"log((t - {NEW_AT_SECOND!r})^2)", variable="t")
    with pytest.raises(ExprDomainError) as before:
        whole_grid_ladder(f, "max", 1e-10, (1e-2,))
    with pytest.raises(EvaluationError) as after:
        endpoint_supremum(f, cutoffs=(1e-2,))
    assert f"at x={NEW_AT_SECOND!r}" in str(before.value)
    assert str(after.value).startswith("integrand failed: ")
    assert f"at x={NEW_AT_SECOND!r}" in str(after.value)
