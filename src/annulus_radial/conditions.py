"""Existence/multiplicity/uniqueness constants and hypothesis-window checks.

Twelve scalar constants are built from four ingredients: the integral of the
diagonal-weighted kernel, its L^q and L^inf norms, the product of factor
L^p norms, and the product of factor infima.  The prefactor, the singular
power and the factors come from weights.weight_bundle, the one place the
weight is composed (a synthetic weight is the single factor omega with
prefactor 1 and power 0); a factor weight's transform must agree with the
kernel on r0 and N.  Several constants are defined as reciprocals; a
reciprocal is only taken when every ingredient integral converged, otherwise
the constant carries the ingredient's status instead of a number (a
divergent integral must never silently become a digit string).

Window checks sample a nonlinearity over a stated u-interval (stratified
grid plus golden-section refinement around those of the best candidates that
the sample leaves open, see window_extremum), compare the extremum against
bound * window-parameter, and report the margin; borderline margins are
flagged inconclusive rather than asserted.  The refinement assumes that g
has no extremum between two samples that the sample does not show; an
aliased or spiky g breaks that assumption, and the sampled extremum with it.
A grid of window extremum or Lipschitz estimate is one array call of the
nonlinearity: an array result of the grid's shape is read as it is, a scalar
result is broadcast to the grid, and an exception propagates; the
golden-section polish calls it one point at a time, which an expression
answers through its float closure (Expr.eval).  Each family first plans
its windows (WINDOW_FAMILIES maps a family to its window parameters and
planner); one judge then evaluates each distinct window once, so equal
nonlinearities, and several constants sets judged together by check_windows,
share their extrema.  Expression trees compare by value, any other callable
by identity; nothing is kept past the call.

The contraction condition of the uniqueness theorem comes in two variants,
with and without the wp factor; contraction_constants computes the two
integrals they share once and combines them for both.

The numerics are fixed, not settings: every ladder integral and extremum
runs over quadrature.DEFAULT_CUTOFFS at tolerance _TOL, and every window
extremum and Lipschitz estimate samples _WINDOW_SAMPLES points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exprlang import Expr
from .kernel import KernelParams, kernel_diag, wp as kernel_wp
from .quadrature import (
    CONVERGED,
    CUTOFF_LIMITED,
    DEFAULT_CUTOFFS,
    DIVERGENT,
    IntegralResult,
    _reciprocal_sum,
    _sampled,
    endpoint_infimum,
    holder_conjugate_check,
    integrate,
    p_norm,
)
from .weights import TransformSpec, WeightSpec, upsilon, weight_bundle

__all__ = [
    "ConjugateExponentError",
    "ConstantValue",
    "ConstantsSet",
    "WindowCheck",
    "compute_constants",
    "injected_constants",
    "star_product",
    "check_krasnoselskii",
    "check_avery_henderson",
    "check_leggett_williams",
    "check_windows",
    "WINDOW_FAMILIES",
    "contraction_constant",
    "contraction_constants",
    "lipschitz_estimate",
    "window_extremum",
]

INJECTED = "injected"
_STATUS_RANK = {CONVERGED: 0, CUTOFF_LIMITED: 1, DIVERGENT: 2}
_TOL = 1e-9  # the ladder tolerance of every constant


class ConjugateExponentError(ValueError):
    """Provided exponents are not Holder-conjugate."""


def _worst(*statuses: str) -> str:
    return max(statuses, key=_STATUS_RANK.__getitem__)


@dataclass
class ConstantValue:
    name: str
    value: float | None
    status: str
    note: str = ""
    ingredients: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "status": self.status,
            "note": self.note,
            "ingredients": self.ingredients,
        }


# Q1, Q2, N2, M2 are reciprocals of the brackets k1..k4; O1..O4 are the
# theorem's names for the same brackets (note the crossed k1/k2 assignment)
_RECIPROCALS = {"Q1": "k1", "Q2": "k2", "N2": "k3", "M2": "k4"}
_ALIASES = {
    "O1": ("k2", "Holder form (theorem assignment)"),
    "O2": ("k1", "star-integral form (theorem assignment)"),
    "O3": ("k3", "sup form with factor p-norms"),
    "O4": ("k4", "sup form with factor 1-norms"),
}
_NAMES = (*_RECIPROCALS, "k1", "k2", "k3", "k4", *_ALIASES)


@dataclass
class ConstantsSet:
    """The twelve constants by name, read as cs[name] or cs.name, plus wp,
    the prefactor, the summability case and the star product."""

    table: dict
    wp: float
    prefactor: float
    p_case: str
    star: ConstantValue

    def __getitem__(self, name: str) -> ConstantValue:
        return self.table[name]

    def __getattr__(self, name: str) -> ConstantValue:
        try:
            return self.__dict__["table"][name]
        except KeyError:
            raise AttributeError(name) from None

    def to_dict(self) -> dict:
        out = {name: cv.to_dict() for name, cv in self.table.items()}
        out["wp"] = self.wp
        out["prefactor"] = self.prefactor
        out["p_case"] = self.p_case
        out["star_product"] = self.star.to_dict()
        return out


def _p_case(p_list: Sequence[float]) -> str:
    """The summability case of sum(1/p_i): "sum=1" is Holder conjugacy with
    q = inf, decided by holder_conjugate_check."""
    if holder_conjugate_check(p_list, math.inf):
        return "sum=1"
    return "sum<1" if _reciprocal_sum(p_list) < 1.0 else "sum>1"


def _combine(name, raw_value, statuses, note="", **ingredients) -> ConstantValue:
    status = _worst(*statuses)
    value = float(raw_value) if status == CONVERGED else None
    if status == CONVERGED and not math.isfinite(raw_value):
        value, status = None, "degenerate"
    return ConstantValue(name, value, status, note, dict(ingredients))


def _reciprocal(name, bracket: ConstantValue, note="") -> ConstantValue:
    if bracket.status == CONVERGED and bracket.value not in (None, 0.0):
        return ConstantValue(
            name, 1.0 / bracket.value, CONVERGED, note, dict(bracket.ingredients)
        )
    status = bracket.status if bracket.status != CONVERGED else "degenerate"
    extra = "reciprocal not taken: ingredient did not converge to a nonzero value"
    return ConstantValue(
        name, None, status, (note + "; " if note else "") + extra,
        dict(bracket.ingredients),
    )


def _over_factors(factors, exponents) -> tuple:
    """Product over the factors of p_norm(f, p), or of the endpoint infimum
    where p is None, with the statuses and each factor's result by name."""
    value = 1.0
    statuses = []
    details = {}
    for i, (f, p) in enumerate(zip(factors, exponents)):
        if p is None:
            res, key = endpoint_infimum(f, tol=_TOL), "inf"
        else:
            res, key = p_norm(f, p, tol=_TOL), f"p{p:g}"
        value *= res.value
        statuses.append(res.status)
        details[f"factor_{i + 1}_{key}"] = res.to_dict()
    return value, statuses, details


def star_product(ws: WeightSpec, ts: TransformSpec) -> ConstantValue:
    """Product of the factor infima: the declared lower bounds when given,
    else each factor's numeric infimum over the cutoff ladder."""
    if ws.lower_bounds is not None:
        return ConstantValue(
            "star_product",
            float(np.prod(ws.lower_bounds)),
            CONVERGED,
            "declared per-factor lower bounds",
        )
    factors = weight_bundle(ws, ts)[2]
    value, statuses, details = _over_factors(factors, [None] * len(factors))
    return ConstantValue(
        "star_product",
        value,
        _worst(*statuses),
        "numeric infima over the cutoff ladder",
        details,
    )


def compute_constants(
    params: KernelParams,
    ws: WeightSpec,
    ts: TransformSpec,
    q: float,
) -> ConstantsSet:
    """All twelve constants with statuses and ingredient provenance.

    q is the Holder partner of the factor exponents (a synthetic weight's
    single factor takes q/(q-1), or 1 when q is infinite); the conjugacy
    identity is validated up front and violations raise
    ConjugateExponentError.
    """
    if not q > 1:
        raise ConjugateExponentError("q must exceed 1")
    p_list = tuple(ws.p_exponents) or (1.0 if math.isinf(q) else q / (q - 1.0),)
    if not holder_conjugate_check(p_list, q):
        raise ConjugateExponentError(
            f"sum(1/p_i) + 1/q = {_reciprocal_sum(p_list) + 1.0 / q:.6f}, expected 1"
        )

    pref, power, factors = weight_bundle(ws, ts, params)
    w = kernel_wp(params)

    def hhat(t):
        return kernel_diag(params, t) * t ** power

    integral_hat = integrate(hhat, tol=_TOL)
    norm_q = p_norm(hhat, q, tol=_TOL)
    norm_inf = p_norm(hhat, math.inf, tol=_TOL)

    norm_p_prod, norm_p_stats, norm_p_detail = _over_factors(factors, p_list)
    norm_1_prod, norm_1_stats, norm_1_detail = _over_factors(factors, [1.0] * len(factors))

    star = star_product(ws, ts)

    # brackets (the non-reciprocal forms)
    star_value = star.value if star.value is not None else float("nan")
    k1 = _combine(
        "k1",
        w * pref * star_value * integral_hat.value,
        [integral_hat.status, star.status],
        note="wp * prefactor * star_product * integral(diag_weight)",
        diag_weight_integral=integral_hat.to_dict(),
        star_product=star.to_dict(),
    )
    k2 = _combine(
        "k2",
        pref * norm_q.value * norm_p_prod,
        [norm_q.status, *norm_p_stats],
        note="prefactor * norm_q(diag_weight) * prod(factor p-norms)",
        diag_weight_norm_q=norm_q.to_dict(),
        **norm_p_detail,
    )
    k3 = _combine(
        "k3",
        pref * norm_inf.value * norm_p_prod,
        [norm_inf.status, *norm_p_stats],
        note="prefactor * sup(diag_weight) * prod(factor p-norms)",
        diag_weight_norm_inf=norm_inf.to_dict(),
        **norm_p_detail,
    )
    k4 = _combine(
        "k4",
        pref * norm_inf.value * norm_1_prod,
        [norm_inf.status, *norm_1_stats],
        note="prefactor * sup(diag_weight) * prod(factor 1-norms)",
        diag_weight_norm_inf=norm_inf.to_dict(),
        **norm_1_detail,
    )

    brackets = {"k1": k1, "k2": k2, "k3": k3, "k4": k4}
    table = {name: _reciprocal(name, brackets[src]) for name, src in _RECIPROCALS.items()}
    table.update(brackets)
    for name, (src, note) in _ALIASES.items():
        b = brackets[src]
        table[name] = ConstantValue(name, b.value, b.status, note, dict(b.ingredients))
    return ConstantsSet(table, wp=w, prefactor=pref, p_case=_p_case(p_list), star=star)


def injected_constants(values: dict, wp_value: float, p_case: str = "sum<1") -> ConstantsSet:
    """Bypass mode: wrap externally supplied constants (the published example
    values) so the window checkers can run against them verbatim."""

    def cv(name: str) -> ConstantValue:
        v = values.get(name)
        status = INJECTED if v is not None else "degenerate"
        return ConstantValue(name, v, status, "externally supplied")

    return ConstantsSet(
        {name: cv(name) for name in _NAMES},
        wp=wp_value, prefactor=values.get("prefactor", 1.0),
        p_case=p_case, star=cv("star"),
    )


# ---------------------------------------------------------------------------
# window checks
# ---------------------------------------------------------------------------


@dataclass
class WindowCheck:
    hypothesis_id: str
    g_index: int
    interval: tuple
    bound: float | None
    direction: str  # one of <=, >=, <, >
    worst_value: float
    worst_point: float
    verdict: bool
    margin: float | None
    conclusive: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "hypothesis_id": self.hypothesis_id,
            "g_index": self.g_index,
            "interval": list(self.interval),
            "bound": self.bound,
            "direction": self.direction,
            "worst_value": self.worst_value,
            "worst_point": self.worst_point,
            "verdict": self.verdict,
            "margin": self.margin,
            "conclusive": self.conclusive,
            "note": self.note,
        }


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_WINDOW_SAMPLES = 10001  # grid points of a window extremum or Lipschitz estimate


def _top(v: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(v)[::-1][:k]: the indices of v's k largest entries, largest
    first.  When those k values are distinct and above all the others, that
    order is unique and a partition finds it without sorting all of v; ties,
    NaN and k outside (0, v.size) leave it to the full sort."""
    n = v.size
    if 0 < k < n:
        top = np.argpartition(v, n - k)[n - k:]
        top = top[np.argsort(v[top])[::-1]]
        best = v[top]
        if np.all(best[:-1] > best[1:]) and np.count_nonzero(v >= best[-1]) == k:
            return top
    return np.argsort(v)[::-1][:k]


def _golden(g: Callable, a: float, b: float, sign: float) -> tuple:
    """Golden-section refinement of sign*g (sign=+1 maximizes), at most 80
    steps."""
    a, b = float(a), float(b)  # Python floats: no numpy scalar arithmetic
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc = sign * float(g(c))
    fd = sign * float(g(d))
    for _ in range(80):
        if b - a < 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = sign * float(g(c))
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = sign * float(g(d))
    if fc >= fd:
        return sign * fc, c
    return sign * fd, d


def _open(s: np.ndarray, i: int) -> bool:
    """Whether window_extremum polishes candidate i of the sample s (sign *
    values): one of samples i-1, i, i+1 is at least both its neighbours (a
    missing neighbour counts as -inf), and sample i does not equal each
    neighbour it has.  Reads the five samples around i."""
    n = s.size
    start = max(i - 2, 0)
    near = [-math.inf] * (start - i + 2) + s[start:i + 3].tolist()
    near += [-math.inf] * (5 - len(near))
    if (i == 0 or near[2] == near[1]) and (i == n - 1 or near[2] == near[3]):
        return False
    return any(
        0 <= i + k - 2 < n and near[k - 1] <= near[k] >= near[k + 1]
        for k in (1, 2, 3)
    )


def window_extremum(g: Callable, lo: float, hi: float, mode: str = "max") -> tuple:
    """(extremal value, abscissa) of g over [lo, hi].

    Deterministic stratified grid of _WINDOW_SAMPLES points plus
    golden-section polish around the ten best candidates; the polished
    result never loses to a sampled value.  The candidates are the first ten
    of the samples in np.argsort order, best first: a partition picks them
    when their values are distinct and beat every other sample, the full
    sort when they tie (a constant or plateau g).

    A candidate is polished over its bracket, one sample step to each side,
    only where the sample leaves it open (_open): with s = sign * values,
    call sample j weak when s[j] is at least both its neighbours (a missing
    neighbour counts as -inf); candidate i is polished iff one of samples
    i-1, i, i+1 is weak and i is not flat, equal to each neighbour it has.
    A skipped candidate sits on a flat run, or where the sample rises
    strictly through its bracket towards a better sample.  Its polish could
    change the result only if g had an extremum between two samples that
    the sample does not show: an aliased or spiky g, where the sampled
    search misses the extremum anyway.  The result is never better than
    polishing all ten would give, and never worse than the best sample.
    """
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return float(g(lo)), lo
    xs = np.linspace(lo, hi, _WINDOW_SAMPLES)
    vals = _sampled(g, xs)
    sign = 1.0 if mode == "max" else -1.0
    s = sign * vals
    order = _top(s, 10)
    best_val = float(vals[order[0]])
    best_x = float(xs[order[0]])
    step = xs[1] - xs[0]
    for idx in order.tolist():
        if not _open(s, idx):
            continue
        a = max(lo, xs[idx] - step)
        b = min(hi, xs[idx] + step)
        val, x = _golden(g, a, b, sign)
        if sign * val > sign * best_val:
            best_val, best_x = float(val), float(x)
    return best_val, best_x


@dataclass(frozen=True, eq=False)
class _Planned:
    """One window before judgement: g against bound over [lo, hi]."""

    hypothesis_id: str
    g_index: int
    g: Callable
    lo: float
    hi: float
    direction: str
    bound: float | None
    note: str

    @property
    def mode(self) -> str:
        return "max" if self.direction in ("<=", "<") else "min"

    @property
    def window(self) -> tuple:
        """The key of this window's extremum: expression trees compare by
        value, any other callable by identity."""
        g = self.g if isinstance(self.g, Expr) else id(self.g)
        return g, self.lo, self.hi, self.mode


def _verdict(w: _Planned, worst: float, point: float) -> WindowCheck:
    if w.bound is None or not math.isfinite(w.bound):
        return WindowCheck(
            w.hypothesis_id, w.g_index, (w.lo, w.hi), None, w.direction, worst,
            point, verdict=False, margin=None, conclusive=False,
            note=w.note or "bound unavailable",
        )
    margin = (w.bound - worst) if w.mode == "max" else (worst - w.bound)
    strict = w.direction in ("<", ">")
    verdict = margin > 0.0 if strict else margin >= 0.0
    resolution = 1e-9 * max(1.0, abs(w.bound), abs(worst))
    return WindowCheck(
        w.hypothesis_id, w.g_index, (w.lo, w.hi), w.bound, w.direction, worst,
        point, verdict=verdict, margin=margin,
        conclusive=abs(margin) > resolution, note=w.note,
    )


def _judge(plans: Sequence[list]) -> list:
    """One WindowCheck list per plan.  window_extremum runs once per
    distinct window across all plans, in plan order, so the first failing
    evaluation is the one a window-by-window pass would hit."""
    done: dict = {}  # window -> (worst value, abscissa)
    out = []
    for plan in plans:
        checks = []
        for w in plan:
            key = w.window
            if key not in done:
                done[key] = window_extremum(w.g, w.lo, w.hi, w.mode)
            extremum = done[key]
            checks.append(_verdict(w, *extremum))
        out.append(checks)
    return out


def _bound_from(constant: ConstantValue, scale: float, reciprocal_of_constant: bool):
    """scale * constant (reciprocal_of_constant=False) or scale / constant."""
    if constant.value is None:
        return None, f"constant {constant.name} unavailable ({constant.status})"
    if reciprocal_of_constant:
        if constant.value == 0.0:
            return None, f"constant {constant.name} is zero"
        return scale / constant.value, ""
    return scale * constant.value, ""


_UPPER_BY_CASE = {"sum<1": ("J4", "Q2"), "sum=1": ("J6", "N2"), "sum>1": ("J7", "M2")}
_AH_UPPER_BY_CASE = {"sum<1": ("J9", "k2"), "sum=1": ("J9'", "k3"), "sum>1": ("J9''", "k4")}


def _require_finite(values: dict) -> None:
    """ValueError naming the first non-finite entry of {name: value}."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _plan_krasnoselskii(g_list, a1, a2, constants) -> list:
    _require_finite({"a1": a1, "a2": a2})
    if not 0 < a1 < a2:
        raise ValueError("need 0 < a1 < a2")
    upper_id, upper_name = _UPPER_BY_CASE[constants.p_case]
    upper = constants[upper_name]
    plan = []
    for j, g in enumerate(g_list):
        bound = _bound_from(upper, a2, reciprocal_of_constant=False)
        plan.append(_Planned(upper_id, j, g, 0.0, a2, "<=", *bound))
        bound = _bound_from(constants.Q1, a1, reciprocal_of_constant=False)
        plan.append(_Planned("J5", j, g, 0.0, a1, ">=", *bound))
    return plan


def _plan_avery_henderson(g_list, a_prime, b_prime, c_prime, constants) -> list:
    _require_finite({"a'": a_prime, "b'": b_prime, "c'": c_prime})
    if not 0 < a_prime < b_prime < c_prime:
        raise ValueError("need 0 < a' < b' < c'")
    w = constants.wp
    if not 0 < w <= 1:
        raise ValueError("wp must lie in (0, 1]")
    upper_id, upper_name = _AH_UPPER_BY_CASE[constants.p_case]
    upper = constants[upper_name]
    plan = []
    for j, g in enumerate(g_list):
        bound = _bound_from(constants.k1, c_prime, reciprocal_of_constant=True)
        plan.append(_Planned("J8", j, g, c_prime, c_prime / w, ">", *bound))
        bound = _bound_from(upper, b_prime, reciprocal_of_constant=True)
        plan.append(_Planned(upper_id, j, g, 0.0, b_prime / w, "<", *bound))
        bound = _bound_from(constants.k1, a_prime, reciprocal_of_constant=True)
        plan.append(_Planned("J10", j, g, a_prime, a_prime / w, ">", *bound))
    return plan


def _plan_leggett_williams(g_list, a_prime, b_prime, c_prime, constants) -> list:
    _require_finite({"a'": a_prime, "b'": b_prime, "c'": c_prime})
    if not 0 < a_prime < b_prime < c_prime:
        raise ValueError("need 0 < a' < b' < c'")
    plan = []
    for j, g in enumerate(g_list):
        bound = _bound_from(constants.O1, a_prime, reciprocal_of_constant=True)
        plan.append(_Planned("J11", j, g, 0.0, a_prime, "<", *bound))
        bound = _bound_from(constants.O2, b_prime, reciprocal_of_constant=True)
        plan.append(_Planned("J12", j, g, b_prime, c_prime, ">", *bound))
        bound = _bound_from(constants.O1, c_prime, reciprocal_of_constant=True)
        plan.append(_Planned("J13", j, g, 0.0, c_prime, "<", *bound))
    return plan


class _Family(NamedTuple):
    keys: tuple  # the config's window parameters, in the planner's order
    plan: Callable  # (g_list, *window values, constants) -> planned windows


WINDOW_FAMILIES = {
    "krasnoselskii": _Family(("a1", "a2"), _plan_krasnoselskii),
    "avery-henderson": _Family(
        ("a_prime", "b_prime", "c_prime"), _plan_avery_henderson
    ),
    "leggett-williams": _Family(
        ("a_prime", "b_prime", "c_prime"), _plan_leggett_williams
    ),
}


def check_windows(
    which: str,
    g_list: Sequence[Callable],
    window_values: Sequence[float],
    constant_sets: Sequence[ConstantsSet],
) -> list:
    """The windows of one family against each constants set, one
    WindowCheck list per set; a window the sets share is evaluated once."""
    plan = WINDOW_FAMILIES[which].plan
    plans = [plan(g_list, *window_values, cs) for cs in constant_sets]
    return _judge(plans)


def check_krasnoselskii(g_list: Sequence[Callable], a1: float, a2: float,
                        constants: ConstantsSet) -> list:
    """Upper window g <= C*a2 on [0, a2] and lower window g >= Q1*a1 on
    [0, a1]; the upper constant follows the summability case."""
    return check_windows("krasnoselskii", g_list, (a1, a2), [constants])[0]


def check_avery_henderson(g_list: Sequence[Callable], a_prime: float, b_prime: float,
                          c_prime: float, constants: ConstantsSet) -> list:
    """Three windows per nonlinearity: g > c'/k1 on [c', c'/wp],
    g < b'/k_upper on [0, b'/wp], g > a'/k1 on [a', a'/wp]."""
    values = (a_prime, b_prime, c_prime)
    return check_windows("avery-henderson", g_list, values, [constants])[0]


def check_leggett_williams(g_list: Sequence[Callable], a_prime: float, b_prime: float,
                           c_prime: float, constants: ConstantsSet) -> list:
    """g < a'/O1 on [0, a'], g > b'/O2 on [b', c'], g < c'/O1 on [0, c']."""
    values = (a_prime, b_prime, c_prime)
    return check_windows("leggett-williams", g_list, values, [constants])[0]


# ---------------------------------------------------------------------------
# uniqueness machinery
# ---------------------------------------------------------------------------


_CONTRACTION_VARIANTS = (("without_wp", False), ("with_wp", True))


def contraction_constants(
    params: KernelParams,
    ws: WeightSpec,
    ts: TransformSpec,
    K: float,
    n: int,
    p: float,
    q: float,
) -> dict:
    """Left side of the two-metric contraction condition,

        [wp? * K * prefactor]^(n+1) * (int |Y|)^n * (int |Y|^q)^(1/q)

    with Y the diagonal-weighted kernel, as {"without_wp": ..., "with_wp":
    ...}.  The worked example and the derivation drop the wp factor; the CLI
    reports both.  One pass computes the two Y integrals for both variants,
    and their divergence statuses propagate.
    """
    _require_finite({"Lipschitz bound K": K})
    if K < 0:
        raise ValueError("Lipschitz bound must be nonnegative")
    if n < 1:
        raise ValueError("system size must be >= 1")
    if not (p > 1 and q > 1 and holder_conjugate_check([p], q)):
        raise ConjugateExponentError("need p, q > 1 with 1/p + 1/q = 1")
    pref = weight_bundle(ws, ts, params)[0]
    if K == 0.0:
        return {
            label: IntegralResult(0.0, 0.0, CONVERGED, [(min(DEFAULT_CUTOFFS), 0.0)])
            for label, _ in _CONTRACTION_VARIANTS
        }

    def ups(t):
        return np.abs(np.asarray(upsilon(t, params, ws, ts)))

    I1 = integrate(ups, tol=_TOL)
    Nq = p_norm(ups, q, tol=_TOL)
    nq_trace = dict(Nq.cutoff_trace)
    status = _worst(I1.status, Nq.status)
    rel = 0.0
    if I1.value != 0.0:
        rel += n * I1.abs_error_estimate / abs(I1.value)
    if Nq.value != 0.0:
        rel += Nq.abs_error_estimate / abs(Nq.value)
    exponent = I1.exponent_estimate if I1.exponent_estimate is not None else Nq.exponent_estimate

    w = kernel_wp(params)
    out = {}
    for label, include_wp in _CONTRACTION_VARIANTS:
        factor = K * pref * (w if include_wp else 1.0)
        lead = factor ** (n + 1)
        trace = [
            (eps, lead * v1**n * nq_trace[eps])
            for eps, v1 in I1.cutoff_trace
            if eps in nq_trace
        ]
        value = lead * I1.value**n * Nq.value
        out[label] = IntegralResult(value, abs(value) * rel, status, trace, exponent)
    return out


def contraction_constant(
    params: KernelParams,
    ws: WeightSpec,
    ts: TransformSpec,
    K: float,
    n: int,
    p: float,
    q: float,
) -> IntegralResult:
    """The variant of contraction_constants without the wp factor, the one
    the worked example uses."""
    return contraction_constants(params, ws, ts, K, n, p, q)["without_wp"]


def lipschitz_estimate(g: Callable, interval: tuple) -> float:
    """Largest finite-difference slope over a stratified sample of
    _WINDOW_SAMPLES points of the interval, refined near the steepest pairs;
    a lower estimate of the best Lipschitz constant."""
    lo, hi = float(interval[0]), float(interval[1])
    _require_finite({"interval start": lo, "interval end": hi})
    if hi <= lo:
        raise ValueError("interval must have positive length")
    xs = np.linspace(lo, hi, _WINDOW_SAMPLES)
    vals = _sampled(g, xs)
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    best = float(slopes.max())
    for idx in _top(slopes, 5):
        a = xs[max(0, idx - 1)]
        b = xs[min(len(xs) - 1, idx + 2)]
        fine = np.linspace(a, b, 1001)
        fvals = _sampled(g, fine)
        best = max(best, float(np.max(np.abs(np.diff(fvals) / np.diff(fine)))))
    return best
