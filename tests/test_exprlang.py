import math
import operator
import random
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_radial.exprlang import (
    FUNCTIONS,
    Bin,
    Call,
    Cond,
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    Neg,
    Num,
    Piecewise,
    UnknownIdentifierError,
    Var,
    _check,
    _power,
    parse,
    to_source,
)


def test_basic_arithmetic():
    assert parse("1/(t^2+1)", "t").eval(1.0) == 0.5
    assert parse("2 + 3*4", "t").eval(0.0) == 14.0
    assert parse("2^3^2", "t").eval(0.0) == 512.0  # right associative
    assert parse("-t^2", "t").eval(3.0) == -9.0  # power binds tighter
    assert parse("(-t)^2", "t").eval(3.0) == 9.0
    assert parse("2^-2", "t").eval(0.0) == 0.25
    assert parse("u^3", "u").eval(-2.0) == -8.0


def test_example_nonlinearity_value():
    g = parse("1+cos(1+u)/5+1/(1+u)", "u")
    assert g.eval(0.0) == pytest.approx(1 + math.cos(1.0) / 5 + 1, abs=1e-12)


def test_call_takes_the_scalar_route_for_every_scalar():
    g = parse("1+cos(1+u)/5+1/(1+u)", "u")
    want = g.eval(0.3)
    for x in (0.3, np.float64(0.3), np.array(0.3), np.array([0.3])[0]):
        got = g(x)
        assert type(got) is float and got == want
    assert parse("u^2", "u")(3) == 9.0
    arr = g(np.array([0.3, 0.3]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_piecewise_selects_first_true_branch():
    g = parse("piecewise((u>=1, 1e16), (else, 1e16*u^2 - u + 1))", "u")
    assert g.eval(2.0) == 1e16
    assert g.eval(0.0) == 1.0
    assert g.eval(0.5) == 1e16 * 0.25 - 0.5 + 1


def test_piecewise_array_matches_scalar():
    g = parse("piecewise((u>=1, 3/2), (u>=0, u^2/2 + 1), (else, 0))", "u")
    xs = np.linspace(-1.0, 2.0, 301)
    arr = g.eval_array(xs)
    scal = np.array([g.eval(float(x)) for x in xs])
    # branch selection must agree exactly; values may differ by one ulp
    # because numpy's vectorized pow is not libm's pow
    assert np.allclose(arr, scal, rtol=4e-16, atol=0.0)
    plateau = xs >= 1.0
    assert np.array_equal(arr[plateau], scal[plateau])


def test_piecewise_requires_else():
    with pytest.raises(ExprSyntaxError):
        parse("piecewise((u>=1, 2))", "u")
    with pytest.raises(ExprSyntaxError):
        parse("piecewise((else, 1), (u>=1, 2))", "u")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1/(t+", "t")
    assert err.value.position == 5


@pytest.mark.parametrize("src, offset", [("1e400*u", 0), ("2*1e400", 2),
                                         ("u^1.8e308", 2)])
def test_overflowing_literal_is_a_syntax_error(src, offset):
    literal = src[offset:].split("*")[0]
    message = re.escape(f"'{literal}' overflows")
    with pytest.raises(ExprSyntaxError, match=message) as exc:
        parse(src, "u")
    assert exc.value.position == offset


def test_underflowing_literal_round_trips():
    g = parse("1e-400*u", "u")
    assert g == Bin("*", Num(0.0), Var("u"))
    assert parse(to_source(g), "u") == g


def test_unknown_identifier_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse("1 + x", "t")
    with pytest.raises(UnknownIdentifierError):
        parse("foo(1)", "t")
    # the declared variable decides which letter is free
    parse("u+1", "u")
    with pytest.raises(UnknownIdentifierError):
        parse("u+1", "t")


@pytest.mark.parametrize(
    "src,x",
    [
        ("1/u", 0.0),
        ("1/u", 1e-320),  # overflows
        ("log(u)", -1.0),
        ("log(u)", 0.0),
        ("sqrt(u)", -2.0),
        ("u^0.5", -1.0),
        ("u^-1", 0.0),
        ("exp(exp(u))", 100.0),
    ],
)
def test_domain_errors_are_structured(src, x):
    g = parse(src, "u")
    with pytest.raises(ExprDomainError) as scalar:
        g.eval(x)
    with pytest.raises(ExprDomainError) as array:
        g.eval_array(np.array([1.0, x, x]))
    assert str(array.value) == str(scalar.value)
    assert str(scalar.value).endswith(f" at x={x!r}")


def test_array_domain_errors_match_scalar():
    g = parse("log(u)", "u")
    with pytest.raises(ExprDomainError) as array:
        g.eval_array(np.array([1.0, 0.5, -1.0, -2.0]))
    with pytest.raises(ExprDomainError) as scalar:
        g.eval(-1.0)
    assert str(array.value) == str(scalar.value)
    assert str(array.value) == "log of nonpositive value in 'log(u)' at x=-1.0"


def test_piecewise_tests_each_condition_only_where_no_branch_took():
    g = parse("piecewise((u <= 0, 1), (log(u) > 1, 2), (else, 1))", "u")
    xs = np.linspace(-2.0, 5.0, 701)
    arr = g.eval_array(xs)
    assert np.array_equal(arr, [g.eval(float(x)) for x in xs])
    assert np.array_equal(arr, np.where(xs > math.e, 2.0, 1.0))


def test_eval_array_emits_no_runtime_warning():
    g = parse("u*u + sin(u) + (u - u) + exp(-u)", "u")
    x = np.array([1e200, np.inf, -np.inf, np.nan, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g.eval_array(x)
        with pytest.raises(ExprDomainError):
            parse("1/u", "u").eval_array(np.array([1.0, 1e-320]))
    assert out[0] == np.inf and np.isnan(out[1:4]).all()


def test_eval_deterministic_bitwise():
    g = parse("sin(u)*exp(u/3) - u^2/7", "u")
    vals = {g.eval(0.7371) for _ in range(20)}
    assert len(vals) == 1


CANONICAL_SOURCES = [
    "1/(t^2+1)",
    "1/sqrt(t+2)",
    "1+cos(1+u)/5+1/(1+u)",
    "piecewise((u>=1, 1e16), (else, 1e16*u^2 - u + 1))",
    "piecewise((u>=1, 3/2), (else, u^2/2 + 1))",
    "cos(u)/10000",
    "u/(10000*(u+1))",
    "-(u - 1)^2 + exp(-u)",
    "2^-3 + t*t/(1 - t + t^2)",
]


@pytest.mark.parametrize("src", CANONICAL_SOURCES)
def test_pretty_print_round_trip(src):
    once = to_source(parse(src, "u" if "u" in src else "t"))
    var = "u" if "u" in src else "t"
    twice = to_source(parse(once, var))
    assert once == twice
    # and the canonical form parses to the same tree
    assert parse(once, var) == parse(twice, var)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_never_crashes_on_text(src):
    try:
        parse(src, "u")
    except ExprError:
        pass


def test_parser_never_crashes_on_random_bytes():
    rng = random.Random(20240309)
    for _ in range(5000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        try:
            parse(blob.decode("latin-1"), "t")
        except ExprError:
            pass


def test_deep_nesting_is_a_structured_error():
    with pytest.raises(ExprSyntaxError):
        parse("(" * 10_000 + "1" + ")" * 10_000, "t")
    with pytest.raises(ExprSyntaxError):
        parse("-" * 10_000 + "1", "t")


def test_array_scalar_agreement_on_smooth_expressions():
    xs = np.linspace(0.05, 3.0, 97)
    for src in ("1/(t^2+1)", "sinh(t)/cosh(t)", "t^2.5", "exp(-t)*log(t+1)"):
        e = parse(src, "t")
        arr = e.eval_array(xs)
        scal = np.array([e.eval(float(x)) for x in xs])
        assert np.allclose(arr, scal, rtol=5e-15, atol=0)


# ---------------------------------------------------------------------------
# one set of rules: scalar and array evaluation of random trees
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.just(Var("u")),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, -1.0, 3.0, 1e300, 1e-300]).map(Num),
    st.floats(-10.0, 10.0).map(Num),
)


def _grow(children):
    conds = st.builds(Cond, st.sampled_from(["<", "<=", ">", ">=", "=="]),
                      children, children)
    branches = st.lists(st.tuples(conds, children), max_size=2)
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        st.builds(lambda bs, last: Piecewise((*bs, (None, last))), branches, children),
    )


_TREES = st.recursive(_LEAVES, _grow, max_leaves=12)
_POINTS = st.lists(
    st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.e])),
    min_size=1, max_size=8,
)


def _scalar(g, x):
    try:
        return g.eval(x), None
    except ExprDomainError as exc:
        return None, str(exc)


def _exact_values(g) -> bool:
    """Whether g holds no function and no power: then both paths run the
    same IEEE operations."""
    text = to_source(g)
    return "^" not in text and not any(f"{name}(" in text for name in FUNCTIONS)


@settings(max_examples=400, deadline=None)
@given(_TREES, _POINTS)
def test_scalar_and_array_paths_share_every_rule(g, points):
    xs = np.array(points)
    scalar = [_scalar(g, float(x)) for x in xs]
    for x, (_, message) in zip(xs, scalar):
        try:
            g.eval_array(np.array([x]))
        except ExprDomainError as exc:
            assert str(exc) == message
        else:
            assert message is None, message
    try:
        arr = g.eval_array(xs)
    except ExprDomainError as exc:
        # the first point that breaks the first broken rule, in node order
        at = float(re.search(r" at x=(\S+)$", str(exc)).group(1))
        assert str(exc) == _scalar(g, at)[1]
        return
    assert all(message is None for _, message in scalar)
    if _exact_values(g):
        assert np.array_equal(arr, [value for value, _ in scalar], equal_nan=True)


# ---------------------------------------------------------------------------
# the scalar route's power: math.pow after the domain checks
# ---------------------------------------------------------------------------


def test_scalar_power_is_within_one_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2027)
    bases = 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    exponents = rng.uniform(-4.0, 4.0, 2000)
    checked = 0
    with mp.workdps(40):
        for a, b in zip(bases.tolist(), exponents.tolist()):
            want = mp.mpf(a) ** mp.mpf(b)
            if not 2.3e-308 < want < 1.7e308:  # overflow, or below the normal range
                continue
            got = Bin("^", Var("u"), Num(b)).eval(a)
            assert abs(mp.mpf(got) - want) <= math.ulp(float(want)), (a, b)
            checked += 1
    assert checked > 900


@pytest.mark.parametrize("x, message", [
    (12830352364121.0,
     "log of nonpositive value in 'log(sin(u^1.5))' at x=12830352364121.0"),
    (294305329074777.0, None),
])
def test_fractional_power_keeps_both_routes_on_one_side_of_a_zero(x, message):
    # exp(1.5*log(u)) sat a few ulps from np.power's value, and sin of it on
    # the other side of a zero
    g = parse("log(sin(u^1.5))", "u")
    try:
        g.eval_array(np.array([x]))
    except ExprDomainError as exc:
        assert str(exc) == message
    else:
        assert message is None
    assert _scalar(g, x)[1] == message


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_one_to_any_power_is_one(x):
    g = parse("1^u", "u")
    assert g.eval(x) == 1.0  # exp(b*log(a)) gave NaN
    assert g.eval_array(np.array([x]))[0] == 1.0


# ---------------------------------------------------------------------------
# the float closures against the tree-walker they replaced
# ---------------------------------------------------------------------------

# Expr.eval's former route, kept as the reference: each node's float branch
# of _ev, with the float branches of _apply, _power, _finite and _check.

_REF_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "==": operator.eq}


def _ref_ev(e, x):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_ref_ev(e.operand, x)
    if isinstance(e, Bin):
        a = _ref_ev(e.lhs, x)
        b = _ref_ev(e.rhs, x)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            _ref_check(b == 0.0, "division by zero", e, x)
            return _ref_finite(a / b, e, x, a, b)
        return _ref_finite(_ref_power(a, b, e, x), e, x, a, b)
    if isinstance(e, Call):
        v = _ref_ev(e.arg, x)
        if e.func == "sqrt":
            _ref_check(v < 0.0, "sqrt of negative value", e, x)
        elif e.func == "log":
            _ref_check(v <= 0.0, "log of nonpositive value", e, x)
        out = _ref_apply(e.func, v)
        if e.func in ("exp", "sinh", "cosh"):
            out = _ref_finite(out, e, x, v)
        return out
    if isinstance(e, Cond):
        return _REF_COMPARE[e.op](_ref_ev(e.lhs, x), _ref_ev(e.rhs, x))
    for cond, expr in e.branches:
        if cond is None or _ref_ev(cond, x):
            return _ref_ev(expr, x)


def _ref_apply(func, v):
    try:
        return (abs if func == "abs" else getattr(math, func))(v)
    except OverflowError:  # exp, sinh or cosh of a finite value
        return math.inf
    except ValueError:  # sin or cos of an infinity
        return math.nan


def _ref_power(a, b, node, x):
    frac = not b.is_integer()
    _ref_check((a < 0.0) & frac, "negative base with fractional exponent", node, x)
    _ref_check((a == 0.0) & (b < 0.0), "zero raised to negative power", node, x)
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf


def _ref_finite(out, node, x, *operands):
    if isinstance(out, float) and math.isfinite(out):
        return out
    _ref_check(all(map(math.isfinite, operands)), "overflow", node, x)
    return out


def _ref_check(bad, rule, node, x):
    if bad:
        raise ExprDomainError(f"{rule} in '{node}' at x={x!r}")


def _outcome(f, x):
    """(the bits of f(x), None), or (None, the ExprDomainError message).

    Any NaN reads "nan", whatever its sign and payload: CPython 3.11
    specializes float ``*`` and ``+`` after a few executions, and the
    specialized op returns the other NaN operand where the generic one
    returned its own (-NaN * NaN gives 0x7ff8... for 7 calls, then
    0xfff8...), so the same closure's NaN can flip sign between calls."""
    try:
        value = f(x)
    except ExprDomainError as exc:
        return None, str(exc)
    return ("nan" if math.isnan(value) else struct.pack("<d", value)), None


_FIXED_POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 1e300, -1e300, 709.78, 710.0, -709.78, -710.0, 1.0, -1.0, 0.5]


def _assert_closure_is_reference(g, points):
    for x in points:
        assert _outcome(g.eval, x) == _outcome(lambda x: _ref_ev(g, x), x), (g, x)


@settings(max_examples=400, deadline=None)
@given(_TREES, _POINTS)
def test_closure_equals_the_tree_walker_bit_for_bit(g, points):
    _assert_closure_is_reference(g, [float(x) for x in points] + _FIXED_POINTS)


@pytest.mark.parametrize("src", CANONICAL_SOURCES + [
    "exp(u)", "sinh(u)", "cosh(u)", "exp(-u)", "u^0.5", "u^-1", "u^-0.7",
    "u^u", "2^u", "(-2)^u", "u^1e300", "1/u", "sqrt(u)", "log(u)", "abs(u)",
    "sin(u)*cos(u)", "piecewise((u < 0, -u), (u == 0, 1/u), (else, u^2))",
])
def test_closure_equals_the_tree_walker_at_fixed_points(src):
    g = parse(src, "u" if "u" in src else "t")
    _assert_closure_is_reference(g, _FIXED_POINTS)
    fn = g._fn
    g.eval(1.0)
    assert g._fn is fn  # built once, kept on the node


# ---------------------------------------------------------------------------
# the array route's shortcuts against its general route
# ---------------------------------------------------------------------------

_BASES = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1e300,
                   math.inf, -math.inf, math.nan])
_EXPONENTS = [2.0, 0.5, -1.0, -0.7, 3.0, 0.0, -0.0, math.inf, math.nan, 1e300]


def _power_outcome(a, b, x):
    try:
        with np.errstate(all="ignore"):
            out = _power(a, b, Bin("^", Var("u"), Num(0.0)), x)
        return np.asarray(out).tobytes(), None
    except ExprDomainError as exc:
        return None, str(exc)


@pytest.mark.parametrize("b", _EXPONENTS)
def test_power_with_one_exponent_equals_its_full_array(b):
    for x in [_BASES, *(_BASES[i:i + 1] for i in range(len(_BASES)))]:
        assert _power_outcome(x, b, x) == _power_outcome(x, np.full(x.shape, b), x)
        assert _power_outcome(x, np.float64(b), x) == _power_outcome(
            x, np.full(x.shape, b), x)
    for a in _BASES:  # a constant base too
        a = float(a)
        assert _power_outcome(a, b, _BASES) == _power_outcome(
            a, np.full(_BASES.shape, b), _BASES)


def _check_outcome(bad, x):
    try:
        _check(bad, "rule", Var("u"), x)
    except ExprDomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("shape", [(), (1,), (4,), (2, 3)])
def test_check_with_one_verdict_equals_its_broadcast_array(shape):
    x = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape) / 3
    for verdict in (True, False, np.True_, np.False_):
        assert _check_outcome(verdict, x) == _check_outcome(
            np.full(shape, bool(verdict)), x)
    assert _check_outcome(True, x) == f"rule in 'u' at x={float(x.flat[0])!r}"
