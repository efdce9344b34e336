import itertools
import json
import math

import numpy as np
import pytest

from conftest import composite_simpson, read_only, riemann_midpoint

from annulus_radial import quadrature
from annulus_radial.exprlang import ExprDomainError, parse
from annulus_radial.kernel import kernel_diag
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
# the nested, memoized extremum ladder against the whole-grid ladder it
# replaced
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


def level_points(lo):
    """The new points of each level on [lo, 1], coarsest first: the opening
    two split back from _opening_points, the deeper ones from _new_points."""
    both, n = quadrature._opening_points(lo)
    deeper = (quadrature._new_points(lo, k) for k in LEVEL_SIZES[2:])
    return [both[:n], both[n:], *deeper]


def levels_evaluated(f, lo, tol, mode):
    """How many levels _extremum_on evaluated, told by the points it
    evaluated: these must add up to the new points of the first k levels."""
    points = []

    def evaluate(t):
        points.append(t.size)
        return np.asarray(f(t), dtype=float)

    quadrature._extremum_on(evaluate, lo, tol, mode)
    reached = list(itertools.accumulate(new.size for new in level_points(lo)))
    return reached.index(sum(points)) + 1


LEVEL_SIZES = [(1 << k) + 1 for k in range(11, 19)]  # 2049 .. 2^18 + 1
LO = 1e-6
THIRD = LO + (1.0 - LO) / 3.0  # never on linspace(LO, 1, 2^k + 1)
NEW_AT_SECOND = float(np.linspace(1e-2, 1.0, 4097)[2049])  # not on level 2049


def test_level_sizes_are_the_ladders():
    assert LEVEL_SIZES[0] == quadrature._FIRST_LEVEL
    assert LEVEL_SIZES[-1] == quadrature._LAST_LEVEL


@pytest.mark.parametrize("lo", DEFAULT_CUTOFFS)
def test_sample_families_nest_bit_for_bit(lo):
    for n in LEVEL_SIZES[:-1]:
        for family in (np.linspace, np.geomspace):
            assert np.array_equal(family(lo, 1.0, 2 * n - 1)[::2], family(lo, 1.0, n))


@pytest.mark.parametrize("lo", DEFAULT_CUTOFFS)
def test_new_points_make_up_each_whole_grid(lo):
    seen = np.empty(0)
    for n, new in zip(LEVEL_SIZES, level_points(lo)):
        assert np.all(np.diff(new) > 0.0)
        grid = np.union1d(np.linspace(lo, 1.0, n), np.geomspace(lo, 1.0, n))
        seen = np.union1d(seen, new)
        assert np.array_equal(seen, grid)


# (f in max mode, tol, cutoffs); min mode takes -f
LADDER_CASES = {
    "stops_at_first_check": (lambda t: np.exp(-t), 1e-10, DEFAULT_CUTOFFS),
    "stops_at_a_middle_level": (lambda t: -np.abs(t - THIRD), 1e-5, (LO,)),
    "reaches_the_cap": (lambda t: -np.abs(t - THIRD), 1e-10, (LO,)),
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


def test_ladder_cases_stop_where_they_are_named_for():
    with np.errstate(invalid="ignore"):
        stops = {name: levels_evaluated(f, cutoffs[0], tol, "max")
                 for name, (f, tol, cutoffs) in LADDER_CASES.items()}
    assert stops["stops_at_first_check"] == 2
    assert 2 < stops["stops_at_a_middle_level"] < len(LEVEL_SIZES)
    assert stops["reaches_the_cap"] == len(LEVEL_SIZES)
    assert stops["nan_at_a_new_point"] == len(LEVEL_SIZES)
    assert stops["extremum_at_a_new_point"] == 3
    res = endpoint_supremum(LADDER_CASES["extremum_at_a_new_point"][0], cutoffs=(1e-2,))
    assert res.value == 0.0  # attained only at NEW_AT_SECOND
    res = endpoint_supremum(LADDER_CASES["nan_at_a_new_point"][0], cutoffs=(1e-2,))
    assert math.isnan(res.value)


def test_opening_levels_are_cached_read_only():
    both, n = quadrature._opening_points(1e-3)
    assert quadrature._opening_points(1e-3)[0] is both
    assert not both.flags.writeable
    with pytest.raises(ValueError):
        both[0] = 0.0
    # the first level's new points ahead of the second's
    for size, grid in zip(LEVEL_SIZES, (both[:n], both[n:])):
        assert np.array_equal(grid, quadrature._new_points(1e-3, size))
    f = lambda t: np.cos(7.0 * t) / t
    assert endpoint_supremum(f).to_dict() == endpoint_supremum(f).to_dict()
    assert endpoint_infimum(f).to_dict() == endpoint_infimum(f).to_dict()


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
