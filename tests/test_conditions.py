import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import composite_simpson, count_calls, per_call_contraction_constant, read_only

from annulus_radial import conditions
from annulus_radial.conditions import (
    ConjugateExponentError,
    _p_case,
    check_avery_henderson,
    check_krasnoselskii,
    check_leggett_williams,
    check_windows,
    compute_constants,
    contraction_constant,
    contraction_constants,
    injected_constants,
    lipschitz_estimate,
    window_extremum,
)
from annulus_radial.exprlang import parse
from annulus_radial.kernel import KernelParams, kernel_diag, wp
from annulus_radial.quadrature import (
    CONVERGED,
    DIVERGENT,
    _reciprocal_sum,
    _sampled,
    holder_conjugate_check,
)
from annulus_radial.reproduce import EXAMPLE_IDS, reproduce
from annulus_radial.weights import TransformSpec, WeightSpec

TS = TransformSpec(1.0, 3)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_synthetic_constants_match_brute_force(default_params, synthetic_unit_weight):
    cs = compute_constants(default_params, synthetic_unit_weight, TS, q=2.0)
    diag = lambda t: kernel_diag(default_params, t)
    oracle_Q1 = 1.0 / (wp(default_params) * composite_simpson(diag, 0.0, 1.0))
    assert cs.Q1.status == CONVERGED
    assert cs.Q1.value == pytest.approx(oracle_Q1, rel=1e-8)
    oracle_Q2 = 1.0 / composite_simpson(lambda t: diag(t) ** 2, 0.0, 1.0) ** 0.5
    assert cs.Q2.value == pytest.approx(oracle_Q2, rel=1e-8)
    assert cs.star.value == pytest.approx(1.0, abs=1e-10)


def test_synthetic_constants_asymmetric_params(asym_params, synthetic_unit_weight):
    cs = compute_constants(asym_params, synthetic_unit_weight, TS, q=2.0)
    diag = lambda t: kernel_diag(asym_params, t)
    oracle = 1.0 / (wp(asym_params) * composite_simpson(diag, 0.0, 1.0))
    assert cs.Q1.value == pytest.approx(oracle, rel=1e-8)


def test_reciprocal_consistency(default_params, synthetic_unit_weight):
    cs = compute_constants(default_params, synthetic_unit_weight, TS, q=2.0)
    assert cs.Q1.value * cs.k1.value == pytest.approx(1.0, abs=1e-10)
    assert cs.Q2.value * cs.k2.value == pytest.approx(1.0, abs=1e-10)
    # section-5 symbols alias the same two forms
    assert cs.O1.value == cs.k2.value
    assert cs.O2.value == cs.k1.value


def test_example1_constants_flagged_divergent(default_params, example1_weights):
    cs = compute_constants(default_params, example1_weights, TS, q=6.0)
    for name in ("Q1", "Q2", "k1", "k2", "O1", "O2"):
        assert cs[name].value is None
        assert cs[name].status == DIVERGENT, name
    assert cs.p_case == "sum<1"
    assert cs.star.status != CONVERGED  # infimum keeps shrinking


def test_declared_lower_bounds_are_used(default_params, example1_weights):
    import dataclasses

    declared = dataclasses.replace(example1_weights, lower_bounds=(1.0, math.sqrt(2.0)))
    cs = compute_constants(default_params, declared, TS, q=6.0)
    assert cs.star.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert cs.star.status == CONVERGED


def test_conjugate_mismatch_raises(default_params, example1_weights):
    with pytest.raises(ConjugateExponentError):
        compute_constants(default_params, example1_weights, TS, q=2.0)


# exponents >= 1: finite, infinite, and the partner that puts the
# reciprocal sum within a few 1e-12 of 1 on either side
_EXPONENT = st.one_of(st.floats(1.0, 1e6), st.just(math.inf))
_NEAR_ONE = st.one_of(st.just(0.0), st.floats(-3e-12, 3e-12),
                      st.sampled_from([-1e-12, 1e-12]).map(lambda d: d * (1 + 2**-40)),
                      st.sampled_from([-1e-12, 1e-12]).map(lambda d: d * (1 - 2**-40)))


@st.composite
def _exponents_and_partner(draw):
    p_list = draw(st.lists(_EXPONENT, min_size=1, max_size=3))
    s = _reciprocal_sum(p_list)
    gap = 1.0 - s + draw(_NEAR_ONE)
    q = draw(st.one_of(st.floats(1.0, 1e6, exclude_min=True), st.just(math.inf),
                       st.just(1.0 / gap) if 0.0 < gap < 1.0 else st.just(2.0)))
    return p_list, q


@st.composite
def _exponents_near_one(draw):
    """Exponents whose own reciprocal sum lies within a few 1e-12 of 1,
    partnered with q = inf."""
    head = draw(st.lists(_EXPONENT, max_size=2))
    gap = 1.0 - _reciprocal_sum(head) + draw(_NEAR_ONE)
    return head + [1.0 / gap if 0.0 < gap <= 1.0 else math.inf], math.inf


class _Reached(Exception):
    """The exponents passed validation and the weight was composed."""


def _stop_at_weight(*args):
    raise _Reached


@given(st.one_of(_exponents_and_partner(), _exponents_near_one()))
def test_conjugacy_is_one_decision(case):
    p_list, q = case
    ws = WeightSpec(factors=tuple(parse("1", "t") for _ in p_list),
                    p_exponents=tuple(p_list))
    conjugate = holder_conjugate_check(p_list, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditions, "weight_bundle", _stop_at_weight)
        with pytest.raises(ConjugateExponentError if not conjugate else _Reached):
            compute_constants(KernelParams.default(), ws, TS, q)
    # the summability case reads the same sum: "sum=1" is conjugacy with q = inf
    case_of = _p_case(p_list)
    assert (case_of == "sum=1") == holder_conjugate_check(p_list, math.inf)
    if case_of != "sum=1":
        assert (case_of == "sum<1") == (_reciprocal_sum(p_list) < 1.0)


@given(st.one_of(st.floats(1e-3, 1e6), st.just(math.inf)),
       st.one_of(st.floats(1e-3, 1e6), st.just(math.inf)), _NEAR_ONE)
def test_contraction_conjugacy_is_holder_check(p, q, delta):
    gap = 1.0 - _reciprocal_sum([p]) + delta
    for q in (q, 1.0 / gap if gap > 0.0 else math.inf):
        valid = p > 1 and q > 1 and holder_conjugate_check([p], q)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "weight_bundle", _stop_at_weight)
            with pytest.raises(_Reached if valid else ConjugateExponentError):
                contraction_constants(KernelParams.default(), WeightSpec(
                    synthetic_override=parse("1", "t")), TS, 1.0, 1, p, q)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------


def test_krasnoselskii_bypass_reproduces_published_verdicts(default_params):
    g = parse("1+cos(1+u)/5+1/(1+u)", "u")
    constants = injected_constants(
        {"Q1": 0.1153270463e-4, "Q2": 0.4577977612e-7}, wp_value=1.0 / math.e
    )
    checks = check_krasnoselskii([g, g], 1e3, 1e8, constants)
    upper = [c for c in checks if c.hypothesis_id == "J4"]
    lower = [c for c in checks if c.hypothesis_id == "J5"]
    assert all(c.verdict and c.conclusive for c in checks)
    assert upper[0].bound == pytest.approx(4.577977612, rel=1e-9)
    assert lower[0].bound == pytest.approx(0.011532704, abs=1e-9)


def test_krasnoselskii_zero_function(default_params, synthetic_unit_weight):
    cs = compute_constants(default_params, synthetic_unit_weight, TS, q=2.0)
    checks = check_krasnoselskii([parse("0", "u")], 1.0, 2.0, cs)
    by_id = {c.hypothesis_id: c for c in checks}
    assert by_id["J4"].verdict
    assert not by_id["J5"].verdict


def test_extremum_matches_calculus_on_cubic():
    # g(u) = u^3 - 3u has interior extrema at u = +-1
    g = parse("u^3 - 3*u", "u")
    vmin, xmin = window_extremum(g, 0.0, 2.0, "min")
    vmax, xmax = window_extremum(g, 0.0, 2.0, "max")
    assert vmin == pytest.approx(-2.0, abs=1e-6)
    assert xmin == pytest.approx(1.0, abs=1e-6)
    assert vmax == pytest.approx(2.0, abs=1e-6)


def test_piecewise_constant_extrema_exact():
    g = parse("piecewise((u>=1, 1e16), (else, 1e16*u^2 - u + 1))", "u")
    vmin, _ = window_extremum(g, 1e10, math.e * 1e10, "min")
    assert vmin == 1e16
    vmax, _ = window_extremum(g, 0.0, math.e * 1e9, "max")
    assert vmax == 1e16


def test_extremum_monotone_under_interval_growth():
    g = parse("sin(u) + u/10", "u")
    sup_small, _ = window_extremum(g, 0.0, 5.0, "max")
    sup_big, _ = window_extremum(g, 0.0, 10.0, "max")
    assert sup_big >= sup_small - 1e-12


def test_verdicts_stable_under_refinement(default_params, monkeypatch):
    g = parse("1+cos(1+u)/5+1/(1+u)", "u")
    constants = injected_constants(
        {"Q1": 0.1153270463e-4, "Q2": 0.4577977612e-7}, wp_value=1.0 / math.e
    )
    coarse = check_krasnoselskii([g], 1e3, 1e8, constants)
    monkeypatch.setattr(conditions, "_WINDOW_SAMPLES", 20001)
    fine = check_krasnoselskii([g], 1e3, 1e8, constants)
    for a, b in zip(coarse, fine):
        assert a.verdict == b.verdict


def test_avery_henderson_bypass_reproduces_published_verdicts():
    g = parse("piecewise((u>=1, 1e16), (else, 1e16*u^2 - u + 1))", "u")
    constants = injected_constants(
        {"k1": 0.1630970729e-4, "k2": 4.388193758e-8}, wp_value=1.0 / math.e
    )
    checks = check_avery_henderson([g, g], 1e4, 1e9, 1e10, constants)
    assert all(c.verdict and c.conclusive for c in checks)
    by_id = {c.hypothesis_id: c for c in checks}
    assert by_id["J8"].bound == pytest.approx(6.131317885e14, rel=1e-9)
    assert by_id["J9"].bound == pytest.approx(2.278841945e16, rel=1e-9)
    assert by_id["J10"].bound == pytest.approx(6.131317885e8, rel=1e-9)


def test_avery_henderson_constant_function():
    constants = injected_constants({"k1": 1.0, "k2": 0.1}, wp_value=0.5)
    g = parse("5", "u")  # between a'/k1=1 and b'/k2=20, above c'/k1=3
    checks = check_avery_henderson([g], 1.0, 2.0, 3.0, constants)
    assert all(c.verdict for c in checks)


def test_avery_henderson_linear_arithmetic():
    constants = injected_constants({"k1": 2.0, "k2": 0.5}, wp_value=0.5)
    g = parse("u", "u")
    a, b, c = 1.0, 2.0, 3.0
    checks = check_avery_henderson([g], a, b, c, constants)
    by_id = {ch.hypothesis_id: ch for ch in checks}
    # J8: min u on [3, 6] is 3 > c/k1 = 1.5
    assert by_id["J8"].worst_value == pytest.approx(3.0, abs=1e-9)
    assert by_id["J8"].verdict
    # J9: max u on [0, 4] is 4 vs b/k2 = 4 -> strict '<' fails
    assert by_id["J9"].worst_value == pytest.approx(4.0, abs=1e-9)
    assert not by_id["J9"].verdict
    # J10: min u on [1, 2] is 1 > a/k1 = 0.5
    assert by_id["J10"].verdict


def test_leggett_williams_bypass_reproduces_published_verdicts():
    g = parse("piecewise((u>=1, 3/2), (else, u^2/2 + 1))", "u")
    constants = injected_constants(
        {"O1": 4.627034665e6, "O2": 9.696074194e7}, wp_value=1.0 / math.e
    )
    checks = check_leggett_williams([g, g], 1e7, 1e8, 1e9, constants)
    assert all(c.verdict and c.conclusive for c in checks)
    by_id = {c.hypothesis_id: c for c in checks}
    assert by_id["J11"].bound == pytest.approx(2.161211386, rel=1e-9)
    assert by_id["J12"].bound == pytest.approx(1.031345243, rel=1e-9)
    assert by_id["J13"].bound == pytest.approx(216.1211386, rel=1e-9)


def test_leggett_williams_zero_function():
    constants = injected_constants({"O1": 1.0, "O2": 1.0}, wp_value=0.5)
    checks = check_leggett_williams([parse("0", "u")], 1.0, 2.0, 3.0, constants)
    by_id = {c.hypothesis_id: c for c in checks}
    assert by_id["J11"].verdict
    assert not by_id["J12"].verdict
    assert by_id["J13"].verdict


def test_divergent_constants_make_checks_inconclusive(
    default_params, example1_weights
):
    cs = compute_constants(default_params, example1_weights, TS, q=6.0)
    g = parse("1", "u")
    checks = check_krasnoselskii([g], 1e3, 1e8, cs)
    assert all(not c.conclusive for c in checks)


def test_window_parameter_ordering_enforced():
    constants = injected_constants({"k1": 1.0, "k2": 1.0}, wp_value=0.5)
    with pytest.raises(ValueError):
        check_avery_henderson([parse("1", "u")], 2.0, 1.0, 3.0, constants)
    with pytest.raises(ValueError):
        check_krasnoselskii([parse("1", "u")], 2.0, 1.0, constants)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_window_values_must_be_finite(bad):
    constants = injected_constants(
        {"Q1": 1e-3, "Q2": 1e-3, "k1": 1.0, "k2": 1.0, "O1": 1.0, "O2": 1.0},
        wp_value=0.5,
    )
    g = [parse("1", "u")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # before, inf escaped as a RuntimeWarning
        with pytest.raises(ValueError, match=f"a2 must be finite, got {bad!r}"):
            check_krasnoselskii(g, 1.0, bad, constants)
        with pytest.raises(ValueError, match=f"c' must be finite, got {bad!r}"):
            check_avery_henderson(g, 1.0, 2.0, bad, constants)
        with pytest.raises(ValueError, match=f"b' must be finite, got {bad!r}"):
            check_leggett_williams(g, 1.0, bad, 3.0, constants)


def test_golden_polish_hands_g_python_floats():
    seen = []

    def plain(u):
        seen.append(type(u))
        return 1.0 + math.cos(1.0 + u) / 5.0 + 1.0 / (1.0 + u)

    expr = parse("1 + cos(1+u)/5 + 1/(1+u)", "u")
    for g in (plain, expr):
        want = conditions._golden(g, 0.5, 3.0, -1.0)
        # numpy scalar ends, as window_extremum passes them, give the same bits
        assert conditions._golden(g, np.float64(0.5), np.float64(3.0), -1.0) == want
    assert set(seen) == {float}


def test_window_grids_broadcast_a_scalar_result():
    def constant(u):
        return 3.0

    for mode in ("max", "min"):
        value, point = window_extremum(constant, 0.0, 2.0, mode)
        assert value == 3.0 and 0.0 <= point <= 2.0
    assert lipschitz_estimate(constant, (0.0, 2.0)) == 0.0


@pytest.mark.parametrize("shape", ["identity", "constant", "plateau"])
def test_window_grids_read_any_result_of_the_input_shape_alike(shape):
    # a fresh array, a read-only array, the input array itself, or a scalar
    same = {
        "identity": [lambda u: u * 1.0, lambda u: read_only(u), lambda u: u],
        "constant": [lambda u: np.full(np.shape(u), 2.0),
                     lambda u: read_only(np.full(np.shape(u), 2.0)), lambda u: 2.0],
        "plateau": [lambda u: np.minimum(u, 1.5), lambda u: read_only(np.minimum(u, 1.5))],
    }[shape]
    def searches(g):
        return ([window_extremum(g, 0.0, 2.0, mode) for mode in ("max", "min")],
                lipschitz_estimate(g, (0.0, 2.0)))

    want = searches(same[0])
    for g in same[1:]:
        assert searches(g) == want


# tie-prone values: a few numbers, signed zeros, infinities and NaN
_TIE_PRONE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])


@given(st.lists(st.one_of(_TIE_PRONE, st.floats()), max_size=40), st.integers(-2, 45))
def test_top_is_the_head_of_a_full_argsort(values, k):
    v = np.array(values, dtype=float)
    assert np.array_equal(conditions._top(v, k), np.argsort(v)[::-1][:k])


@pytest.mark.parametrize("seed", range(4))
def test_top_is_the_head_of_a_full_argsort_on_window_sized_samples(seed):
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(10001), rng.integers(0, 50, 10001).astype(float),
             np.round(rng.standard_normal(10001), 2)]
    with_nan = rng.standard_normal(10001)
    with_nan[rng.integers(0, 10001, 3)] = np.nan
    draws.append(with_nan)
    for v in draws:
        for k in (1, 5, 10, 10000, 10001, 10002):
            assert np.array_equal(conditions._top(v, k), np.argsort(v)[::-1][:k])


def test_window_grids_keep_the_error_of_an_array_refusing_callable():
    def scalar_only(u):
        return math.cos(u)  # TypeError on an array of several points

    with pytest.raises(TypeError):
        window_extremum(scalar_only, 0.0, 2.0, "max")
    with pytest.raises(TypeError):
        lipschitz_estimate(scalar_only, (0.0, 2.0))


def test_shared_windows_are_evaluated_once(monkeypatch):
    constants = injected_constants({"Q1": 1e-3, "Q2": 1e-3}, wp_value=0.5)
    extrema = count_calls(monkeypatch, conditions, "window_extremum")
    # equal expression trees share their extrema, within and across sets
    twins = [parse("1 + u/10", "u"), parse("1 + u/10", "u")]
    per_set = check_windows("krasnoselskii", twins, [1.0, 2.0], [constants, constants])
    assert len(extrema) == 2
    assert per_set[0] == per_set[1]
    extremum = [(c.worst_value, c.worst_point) for c in per_set[0]]
    assert extremum[:2] == extremum[2:]
    # other callables compare by identity
    f = lambda u: 1.0 + u / 10.0  # noqa: E731
    g = lambda u: 1.0 + u / 10.0  # noqa: E731
    extrema.clear()
    check_krasnoselskii([f, f], 1.0, 2.0, constants)
    assert len(extrema) == 2
    extrema.clear()
    check_krasnoselskii([f, g], 1.0, 2.0, constants)
    assert len(extrema) == 4


def test_window_evaluation_error_comes_from_the_first_window(monkeypatch):
    constants = injected_constants({"Q1": 1e-3, "Q2": 1e-3}, wp_value=0.5)
    seen = []

    def failing(g, lo, hi, mode):
        seen.append((lo, hi, mode))
        raise RuntimeError("window failed")

    monkeypatch.setattr(conditions, "window_extremum", failing)
    with pytest.raises(RuntimeError, match="window failed"):
        check_krasnoselskii([parse("u", "u")], 1.0, 2.0, constants)
    assert seen == [(0.0, 2.0, "max")]


# ---------------------------------------------------------------------------
# window polish: which candidates the sample leaves open
# ---------------------------------------------------------------------------


def _ten_polish_extremum(g, lo, hi, mode="max"):
    """The second route: window_extremum as it was when it polished each of
    its ten candidates, whatever the sample says."""
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return float(g(lo)), lo
    xs = np.linspace(lo, hi, conditions._WINDOW_SAMPLES)
    vals = _sampled(g, xs)
    sign = 1.0 if mode == "max" else -1.0
    order = conditions._top(sign * vals, 10)
    best_val = float(vals[order[0]])
    best_x = float(xs[order[0]])
    step = xs[1] - xs[0]
    for idx in order:
        a = max(lo, xs[idx] - step)
        b = min(hi, xs[idx] + step)
        val, x = conditions._golden(g, a, b, sign)
        if sign * val > sign * best_val:
            best_val, best_x = float(val), float(x)
    return best_val, best_x


def _outcome(search, g, lo, hi, mode):
    """What search returns, or the type and message of what it raises."""
    try:
        return search(g, lo, hi, mode)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _bits(outcome):
    """An outcome with its floats as hex strings (so -0.0 is not 0.0) and
    every NaN alike."""
    if isinstance(outcome[0], str):
        return outcome
    return tuple("nan" if math.isnan(x) else float(x).hex() for x in outcome)


def _assert_routes_agree(source, lo, hi, modes=("max", "min")):
    g = parse(source, "u")
    for mode in modes:
        want = _bits(_outcome(_ten_polish_extremum, g, lo, hi, mode))
        got = _bits(_outcome(window_extremum, g, lo, hi, mode))
        assert got == want, (source, lo, hi, mode)


@st.composite
def _polish_windows(draw, resolved: bool):
    """(source, lo, hi): a window from 1e-3 to 1e9 wide and a sum of up to
    three terms over it, among sines and cosines, cubic polynomials,
    constants, abs kinks, piecewise steps and Gaussian bumps.

    resolved=True draws a g that the sample resolves: its sines and cosines
    turn by at most half a radian per sample step, its bumps are at least
    two sample steps wide, and at most one term is a kink, a step or a
    bump.  resolved=False draws aliased sines and cosines, bumps down to a
    hundredth of a sample step, and any number of kinks, steps and bumps.
    """
    lo = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))
    width = 10.0 ** draw(st.floats(-3.0, 9.0))
    step = width / (conditions._WINDOW_SAMPLES - 1)

    def inside():
        return repr(lo + width * draw(st.floats(0.0, 1.0)))

    coefficient = st.floats(-5.0, 5.0).map(lambda c: repr(round(c, 3)))
    smooth = ["sin", "cos", "poly", "const"]
    located = ["kink", "step", "bump"]
    kinds = smooth + located
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        a = draw(coefficient)
        if kind in ("sin", "cos"):
            top = math.log10(0.5 / step) if resolved else 3.0
            k = 10.0 ** draw(st.floats(top - 6.0, top))
            terms.append(f"{a}*{kind}({k!r}*u)")
        elif kind == "poly":
            scale = width * 10.0 ** draw(st.floats(-6.0, 0.0))
            p = draw(st.sampled_from([1, 3]))
            terms.append(f"{a}*((u - {inside()})/{scale!r})^{p}")
        elif kind == "const":
            terms.append(a)
        elif kind == "kink":
            terms.append(f"{a}*abs(u - {inside()})")
        elif kind == "step":
            terms.append(f"piecewise((u < {inside()}, {a}), (else, {draw(coefficient)}))")
        else:
            low = math.log10(2.0 * step) if resolved else math.log10(0.01 * step)
            sigma = 10.0 ** draw(st.floats(low, math.log10(width) + 1.0))
            terms.append(f"{a}*exp(-((u - {inside()})/{sigma!r})^2)")
        if resolved and kind in located:
            kinds = smooth
    return " + ".join(terms), lo, lo + width


@settings(max_examples=60, deadline=None)
@given(_polish_windows(resolved=True))
def test_open_candidates_give_the_ten_polish_extremum(window):
    _assert_routes_agree(*window)


@settings(max_examples=60, deadline=None)
@given(_polish_windows(resolved=False))
def test_open_candidates_never_beat_the_ten_polish_extremum(window):
    # where g has an extremum between samples that the sample does not show
    # (aliasing, a narrow bump), the polish of a skipped candidate may have
    # found a better value, or an equal one first; the rule's value is then
    # no better than the ten-polish route's, and never worse than the best
    # sample
    source, lo, hi = window
    g = parse(source, "u")
    for mode, sign in (("max", 1.0), ("min", -1.0)):
        want = _outcome(_ten_polish_extremum, g, lo, hi, mode)
        got = _outcome(window_extremum, g, lo, hi, mode)
        if _bits(got) == _bits(want):
            continue
        # an error or a NaN comes from the sample, alike for both routes
        assert not isinstance(want[0], str) and not math.isnan(want[0])
        sampled = sign * _sampled(g, np.linspace(lo, hi, conditions._WINDOW_SAMPLES))
        assert sampled.max() <= sign * got[0] <= sign * want[0]
        assert lo <= got[1] <= hi


def test_an_aliased_window_can_skip_a_winning_polish():
    # cos(u) turns by ~490 radians per sample step, so the sample shows a
    # slow wave of aliased values; the polish of a candidate on its slope,
    # which the rule skips, lands in a deeper trough between samples.
    # Neither route finds the minimum, about exp(-1) - 1 near the right end.
    g = parse("cos(u) + exp(-(u/4.9e6)^2)", "u")
    want = _ten_polish_extremum(g, 0.0, 4.9e6, "min")
    got = window_extremum(g, 0.0, 4.9e6, "min")
    assert want[0] < got[0] < want[0] + 1e-3
    assert want[0] > math.exp(-1.0) - 1.0


@functools.cache
def _seeded_windows(seed: int, count: int) -> tuple:
    """count windows (source, lo, hi, mode) from numpy's generator at seed,
    eight kinds in turn: resolved or aliased sines, Gaussian spikes from
    ~1/30 to ~30 sample steps wide, two abs kinks, a two-edged step, a cubic
    whose minimum sits in the first sample step of a wide window, a
    constant, a plateau reached by a quadratic ramp, and an oscillation
    under a quadratic envelope."""
    rng = np.random.default_rng(seed)

    def uniform(low, high):  # a Python float, whose repr the grammar reads
        return float(rng.uniform(low, high))

    out = []
    for j in range(count):
        width = 10.0 ** uniform(-3.0, 9.0)
        lo = 0.0 if rng.random() < 0.4 else uniform(-1.0, 1.0) * 10.0 ** uniform(-3.0, 6.0)
        hi = lo + width
        c, d = sorted(lo + width * uniform(0.0, 1.0) for _ in range(2))
        k = 10.0 ** uniform(-2.0, 4.0)
        a = round(uniform(-3.0, 3.0), 3)
        kind = j % 8
        if kind == 0:
            source = f"{a} + sin({k!r}*u) + cos(3*u)/5"
        elif kind == 1:
            sigma = width / 10000.0 * 10.0 ** uniform(-1.5, 1.5)
            source = f"{a}*u/{width!r} + exp(-((u - {c!r})/{sigma!r})^2)"
        elif kind == 2:
            source = f"abs(u - {c!r}) - {a}*abs(u - {d!r})"
        elif kind == 3:
            source = f"piecewise((u < {c!r}, {a}), (u < {d!r}, {a + 1}), (else, {a}))"
        elif kind == 4:
            source = f"u^3 - {abs(a) + 1}*u + {a}*u^2/{width!r}"
        elif kind == 5:
            source = f"{a}"
        elif kind == 6:
            source = (f"piecewise((u < {c!r}, {a}), "
                      f"(u < {d!r}, {a} + ((u - {c!r})/{d - c!r})^2), (else, {a + 1}))")
        else:
            source = f"sin(u/{width!r}*{k!r})*(u/{width!r})^2 - {a}*cos(u/{width!r})"
        out.append((source, lo, hi, "max" if rng.random() < 0.5 else "min"))
    return tuple(out)


@pytest.mark.parametrize("part", range(10))
def test_open_candidates_give_the_ten_polish_extremum_on_seeded_windows(part):
    # 5,000 windows in ten parts of 500.  On the aliased and spike windows
    # among them the routes agree because these windows hide no winning
    # extremum from the rule, which it does not guarantee (see the aliased
    # window above); a rule that skips more polishes shows here first.
    for source, lo, hi, mode in _seeded_windows(2026, 5000)[part::10]:
        _assert_routes_agree(source, lo, hi, (mode,))


def test_endpoint_candidates_are_polished():
    # the minimum, -(4/3)sqrt(2/3) at sqrt(2/3), lies inside the first of
    # the sample steps of 5e4; the polish of the endpoint sample finds it
    _assert_routes_agree("u^3 - 2*u", 0.0, 5e8, ("min",))
    value, point = window_extremum(parse("u^3 - 2*u", "u"), 0.0, 5e8, "min")
    assert value == pytest.approx(-4.0 / 3.0 * math.sqrt(2.0 / 3.0), rel=1e-12)
    assert point == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-6)


def test_the_neighbours_of_a_weak_sample_are_polished():
    # the kink lies between two samples; polishing the nearest sample alone
    # returns a point a few ulp further from it
    _assert_routes_agree("abs(u - 1/3)", 0.0, 1.0, ("min",))


def test_polish_budget(monkeypatch):
    polishes = count_calls(monkeypatch, conditions, "_golden")

    def count(source, lo, hi, mode):
        polishes.clear()
        window_extremum(parse(source, "u"), lo, hi, mode)
        return len(polishes)

    # a flat sample settles every candidate, its endpoints too
    assert [count("2", 0.0, 2.0, mode) for mode in ("max", "min")] == [0, 0]
    # one resolved interior peak: its sample and the two beside it
    assert count("1 + sin(u)/3", 0.0, 3.0, "max") <= 3
    assert count("2 + cos(3*u)/5", 0.0, 2.0, "min") <= 3
    # a monotone window: the endpoint sample and its neighbour
    assert count("u", 0.0, 2.0, "max") <= 2
    assert count("u", 0.0, 2.0, "min") <= 2


def test_polish_budget_of_the_published_examples(monkeypatch):
    polishes = count_calls(monkeypatch, conditions, "_golden")
    for k in EXAMPLE_IDS:
        reproduce(k)
    assert len(polishes) == 20  # 80 with every candidate polished


# ---------------------------------------------------------------------------
# contraction / Lipschitz
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weights", ["synthetic_unit_weight", "example4_weights"])
def test_contraction_variants_share_one_integral_pass(
    weights, request, default_params, monkeypatch
):
    ws = request.getfixturevalue(weights)
    args = (default_params, ws, TS, 1e-4, 2, 2.0, 2.0)
    integrals = count_calls(monkeypatch, conditions, "integrate")
    norms = count_calls(monkeypatch, conditions, "p_norm")
    both = contraction_constants(*args)
    assert (len(integrals), len(norms)) == (1, 1)
    assert list(both) == ["without_wp", "with_wp"]
    for label, include_wp in (("without_wp", False), ("with_wp", True)):
        ref = per_call_contraction_constant(*args, include_wp=include_wp)
        assert both[label].to_dict() == ref.to_dict()
    assert contraction_constant(*args).to_dict() == both["without_wp"].to_dict()



def test_contraction_zero_lipschitz(default_params, synthetic_unit_weight):
    res = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=0.0, n=3, p=2.0, q=2.0
    )
    assert res.value == 0.0
    assert res.status == CONVERGED


def test_contraction_synthetic_matches_brute_force(
    default_params, synthetic_unit_weight
):
    res = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=1.0, n=1, p=2.0, q=2.0
    )
    diag = lambda t: kernel_diag(default_params, t)
    oracle = composite_simpson(diag, 0.0, 1.0) * composite_simpson(
        lambda t: diag(t) ** 2, 0.0, 1.0
    ) ** 0.5
    assert res.status == CONVERGED
    assert res.value == pytest.approx(oracle, rel=1e-8)


def test_contraction_example4_reports_divergence(default_params, example4_weights):
    both = contraction_constants(
        default_params, example4_weights, TS, K=1e-4, n=2, p=2.0, q=2.0
    )
    for res in both.values():
        assert res.status == DIVERGENT
        assert res.exponent_estimate is not None
        assert res.exponent_estimate <= -1.0
        assert len(res.cutoff_trace) > 0


def test_contraction_wp_factor_scales(default_params, synthetic_unit_weight):
    base = contraction_constant(
        default_params, synthetic_unit_weight, TS, K=1.0, n=1, p=2.0, q=2.0
    )
    with_wp = contraction_constants(
        default_params, synthetic_unit_weight, TS, K=1.0, n=1, p=2.0, q=2.0
    )["with_wp"]
    assert with_wp.value == pytest.approx(
        base.value * wp(default_params) ** 2, rel=1e-12
    )


def test_contraction_requires_conjugate_pair(default_params, synthetic_unit_weight):
    with pytest.raises(ConjugateExponentError):
        contraction_constant(
            default_params, synthetic_unit_weight, TS, K=1.0, n=1, p=2.0, q=3.0
        )


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_contraction_lipschitz_bound_must_be_finite(
    bad, default_params, synthetic_unit_weight
):
    with pytest.raises(ValueError, match=f"Lipschitz bound K must be finite, got {bad!r}"):
        contraction_constants(default_params, synthetic_unit_weight, TS, K=bad, n=1,
                              p=2.0, q=2.0)


@pytest.mark.parametrize("interval, name", [((0.0, math.inf), "interval end"),
                                            ((math.nan, 1.0), "interval start")])
def test_lipschitz_interval_must_be_finite(interval, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        lipschitz_estimate(parse("u", "u"), interval)


def test_lipschitz_estimates():
    assert lipschitz_estimate(parse("cos(u)/10000", "u"), (0.0, 20.0)) == pytest.approx(
        1e-4, rel=1e-3
    )
    assert lipschitz_estimate(parse("7", "u"), (0.0, 1.0)) == 0.0
    assert lipschitz_estimate(parse("u^2", "u"), (0.0, 1.0)) == pytest.approx(
        2.0, rel=1e-3
    )
