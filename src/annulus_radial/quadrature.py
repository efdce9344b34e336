"""Integration on (0, 1] with an endpoint-singularity protocol.

Every improper integral is computed on a ladder of truncated domains
[eps, 1] for a decreasing cutoff sequence; behaviour is classified from the
increments between consecutive cutoffs:

  * increments shrinking geometrically -> the missing tail below the last
    cutoff is summed by geometric extrapolation (exact for power tails) and
    the result is `converged` when the remaining error estimate meets tol;
  * increments flat or growing like a power of eps -> `divergent_suspected`,
    with the fitted integrand exponent attached (slope - 1, so a flat
    increment ladder maps to the borderline exponent -1);
  * anything else -> `cutoff_limited`.

Each rung [a, b] of the ladder is integrated by an adaptive Gauss-Legendre
rule in the graded variable s of t = a (b/a)^s, in which power-law tails are
smooth exponentials; all rungs of a ladder share one array call per round.
The independent composite-Simpson cross-checks live in the test suite, not
here.

Every function handed to this module is called on float64 arrays of
abscissae only.  It returns an array of the input's shape, which is read
as it is and never written (it may be read-only, or the input itself), or a
scalar, which is broadcast to it; any exception it raises becomes an
EvaluationError("integrand failed: ...").

The endpoint suprema and infima sample each rung [eps, 1] on
linspace(eps, 1, n) together with geomspace(eps, 1, n), for n = 2049, 4097,
... up to 2^18 + 1, and stop once two levels agree within tol.  Both
families nest bit for bit (the even entries of the 2n - 1 points are the n
points), so each level evaluates only the points the level before lacks.
The first two levels' points are kept per cutoff, read-only, in one array
in a bounded cache, and a rung evaluates them in one call (~8,200 points),
whose values are split back by level: every rung needs both, because the
stopping rule compares two levels, and most rungs stop there.  Deeper
levels are built when reached, one call each.  A call costs 10-20 us of
dispatch whatever its size, which is why the opening levels share one; the
rungs do not, since past ~16k points a call's cost per point nearly doubles
(5.3 -> 9.3 ns for 1/(t^2+1) at 16k -> 32k points).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "IntegralResult",
    "EvaluationError",
    "CONVERGED",
    "DIVERGENT",
    "CUTOFF_LIMITED",
    "DEFAULT_CUTOFFS",
    "integrate",
    "p_norm",
    "holder_conjugate_check",
    "endpoint_infimum",
    "endpoint_supremum",
]

CONVERGED = "converged"
DIVERGENT = "divergent_suspected"
CUTOFF_LIMITED = "cutoff_limited"

DEFAULT_CUTOFFS = tuple(10.0 ** (-k) for k in range(2, 9))  # 1e-2 .. 1e-8


class EvaluationError(ValueError):
    """The integrand raised; the message carries its own error."""


@dataclass
class IntegralResult:
    value: float
    abs_error_estimate: float
    status: str
    cutoff_trace: list = field(default_factory=list)
    exponent_estimate: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "abs_error_estimate": self.abs_error_estimate,
            "status": self.status,
            "exponent_estimate": self.exponent_estimate,
            "cutoff_trace": [[e, v] for e, v in self.cutoff_trace],
        }


def _validate_cutoffs(cutoffs: Sequence[float]) -> list:
    eps = list(cutoffs)
    if not eps:
        raise ValueError("need at least one cutoff")
    if any(not (0.0 < e < 1.0) for e in eps):
        raise ValueError("cutoffs must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("cutoffs must decrease strictly")
    return eps


def _unit_rule(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the 10-point value's distance from the 20-point value is the error
# estimate of the 20-point value, which is the one kept
_X10, _W10 = _unit_rule(10)
_X20, _W20 = _unit_rule(20)
_NODES = np.concatenate([_X10, _X20])
_EPSREL = 1e-13
_MAX_SUBINTERVALS = 200  # per rung


def _sampled(f: Callable, t: np.ndarray) -> np.ndarray:
    """f at every point of t in one array call, as float values of t's
    shape: an array of that shape is returned as it is (it may be read-only
    or t itself; callers only read it), a scalar is broadcast to it."""
    y = np.asarray(f(t), dtype=float)
    return y if y.shape == t.shape else np.broadcast_to(y, t.shape)


def _evaluator(f: Callable) -> Callable:
    """_sampled(f, .), with any exception of f turned into an
    EvaluationError."""

    def evaluate(t: np.ndarray) -> np.ndarray:
        try:
            return _sampled(f, t)
        except Exception as exc:
            raise EvaluationError(f"integrand failed: {exc}") from exc

    return evaluate


def _panels(f: Callable, edges: Sequence[float], tol: float) -> tuple:
    """Integrals of f over [edges[k + 1], edges[k]] with error estimates.

    Each rung is bisected in s until the sum of its subintervals' error
    estimates meets max(1e-2 tol, 1e-13 |value|), or it holds
    _MAX_SUBINTERVALS subintervals.  A rung that misses its tolerance splits
    those subintervals whose error exceeds their share of it, worst first.
    """
    b = np.asarray(edges[:-1], dtype=float)
    a = np.asarray(edges[1:], dtype=float)
    log_ratio = np.log(b / a)
    rungs = a.size
    evaluate = _evaluator(f)
    epsabs = 1e-2 * tol

    # every subinterval so far: rung, left end and width in s, value, error
    rung = np.arange(rungs)
    left = np.zeros(rungs)
    width = np.ones(rungs)
    val = np.empty(0)
    err = np.empty(0)
    fresh = rung.size  # the trailing subintervals not yet evaluated
    while fresh:
        k, s0, ds = rung[-fresh:], left[-fresh:], width[-fresh:]
        t = a[k, None] * np.exp((s0[:, None] + ds[:, None] * _NODES) * log_ratio[k, None])
        y = evaluate(t.ravel()).reshape(t.shape) * t * (ds * log_ratio[k])[:, None]
        g10 = y[:, :10] @ _W10
        g20 = y[:, 10:] @ _W20
        val = np.concatenate([val, g20])
        err = np.concatenate([err, np.abs(g20 - g10)])

        total = np.bincount(rung, weights=val, minlength=rungs)
        total_err = np.bincount(rung, weights=err, minlength=rungs)
        count = np.bincount(rung, minlength=rungs)
        goal = np.maximum(epsabs, _EPSREL * np.abs(total))
        room = np.where(total_err > goal, _MAX_SUBINTERVALS - count, 0)
        if not room.any():
            break
        over = np.flatnonzero(err > goal[rung] * width)
        over = over[np.lexsort((-err[over], rung[over]))]
        rank = np.arange(over.size) - np.searchsorted(rung[over], rung[over])
        split = over[rank < room[rung[over]]]

        keep = np.ones(rung.size, dtype=bool)
        keep[split] = False
        half = 0.5 * width[split]
        rung = np.concatenate([rung[keep], np.repeat(rung[split], 2)])
        left = np.concatenate([left[keep], np.stack([left[split], left[split] + half], 1).ravel()])
        width = np.concatenate([width[keep], np.repeat(half, 2)])
        val, err = val[keep], err[keep]
        fresh = 2 * split.size
    return total.tolist(), total_err.tolist()


def _log_log_slope(eps: Sequence[float], values: Sequence[float]):
    pts = [(e, abs(v)) for e, v in zip(eps, values) if abs(v) > 0.0]
    if len(pts) < 2:
        return None
    x = np.log10([p[0] for p in pts])
    y = np.log10([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


def integrate(
    f: Callable,
    tol: float = 1e-10,
    cutoffs: Sequence[float] = DEFAULT_CUTOFFS,
) -> IntegralResult:
    """Integral of f over (0, 1] via the truncated-domain ladder."""
    eps = _validate_cutoffs(cutoffs)
    segs, errs = _panels(f, [1.0, *eps], tol)

    value, quad_err = segs[0], errs[0]
    trace = [(eps[0], value)]
    incs = []
    for lo, seg, err in zip(eps[1:], segs[1:], errs[1:]):
        value += seg
        quad_err += err
        incs.append(seg)
        trace.append((lo, value))

    if not incs:
        status = CONVERGED if quad_err <= tol else CUTOFF_LIMITED
        return IntegralResult(value, quad_err, status, trace)

    scale = max(1.0, abs(value))
    tiny = 1e-15 * scale
    if all(abs(v) <= max(tol, tiny) for v in incs):
        err = quad_err + abs(incs[-1])
        status = CONVERGED if err <= max(tol, tiny) else CUTOFF_LIMITED
        return IntegralResult(value, err, status, trace)

    last, prev = incs[-1], incs[-2] if len(incs) >= 2 else incs[-1]
    same_sign = all(v > 0 for v in incs[-3:]) or all(v < 0 for v in incs[-3:])

    if same_sign and prev != 0.0 and abs(last) < 0.95 * abs(prev):
        # geometrically shrinking tail: extrapolate it
        ratio = last / prev
        tail = last * ratio / (1.0 - ratio)
        model_dev = abs(tail)
        if len(incs) >= 3 and incs[-3] != 0.0:
            predicted = incs[-2] * (incs[-2] / incs[-3])
            model_dev = abs(last - predicted) / (1.0 - abs(ratio))
        err = quad_err + model_dev + tiny
        status = CONVERGED if err <= max(tol, tiny) else CUTOFF_LIMITED
        return IntegralResult(value + tail, err, status, trace)

    slope = _log_log_slope(eps[1:], incs)
    if slope is not None and slope <= 0.05 and abs(last) >= abs(incs[0]) * 0.5:
        return IntegralResult(
            value,
            abs(last),
            DIVERGENT,
            trace,
            exponent_estimate=slope - 1.0,
        )
    return IntegralResult(
        value,
        quad_err + abs(last),
        CUTOFF_LIMITED,
        trace,
        exponent_estimate=None if slope is None else slope - 1.0,
    )


# ---------------------------------------------------------------------------
# extrema on the truncated domains (sup for the L^inf norm, inf for the
# declared-lower-bound audit)
# ---------------------------------------------------------------------------


_FIRST_LEVEL = 2049
_LAST_LEVEL = (1 << 18) + 1


def _new_points(lo: float, n: int) -> np.ndarray:
    """The sorted abscissae that level n adds on [lo, 1]: every point of
    linspace(lo, 1, n) and geomspace(lo, 1, n) at the first level, their odd
    entries after it (the even entries are the previous level's, bit for bit)."""
    start, step = (0, 1) if n == _FIRST_LEVEL else (1, 2)
    grid = np.sort(np.concatenate([np.linspace(lo, 1.0, n)[start::step],
                                   np.geomspace(lo, 1.0, n)[start::step]]))
    # np.unique's result, without the numpy.ma import np.unique makes on
    # first use (~16 ms in a fresh process)
    return grid[np.append(True, grid[1:] != grid[:-1])]


@functools.lru_cache(maxsize=32)
def _opening_points(lo: float) -> tuple:
    """The new points of the first two levels, which every rung evaluates,
    in one array (the first level's ahead of the second's), and the first
    level's count; read-only, since it is shared between calls (~65 KB per
    cutoff)."""
    first = _new_points(lo, _FIRST_LEVEL)
    both = np.concatenate([first, _new_points(lo, 2 * _FIRST_LEVEL - 1)])
    both.flags.writeable = False
    return both, first.size


def _extremum_on(evaluate: Callable, lo: float, tol: float, mode: str) -> float:
    """Extremum of the sampled values on [lo, 1], the sample refined until
    two levels agree within tol or the last level is reached.  Each level
    evaluates only its new points, the opening two in one call whose values
    are split back by level; np.max/np.min fold each level into the running
    extremum, so a NaN propagates as it does over the whole grid."""
    pick = np.max if mode == "max" else np.min
    both, k = _opening_points(lo)
    values = evaluate(both)
    best, level = float(pick(values[:k])), pick(values[k:])
    n = 2 * _FIRST_LEVEL - 1
    while True:
        last, best = best, float(pick([best, level]))
        if abs(best - last) <= tol * max(1.0, abs(best)) or n == _LAST_LEVEL:
            return best
        n = 2 * (n - 1) + 1
        level = pick(evaluate(_new_points(lo, n)))


def _classify_levels(eps: list, levels: list, tol: float, mode: str) -> IntegralResult:
    trace = list(zip(eps, levels))
    value = levels[-1]
    if len(levels) == 1:
        return IntegralResult(value, 0.0, CONVERGED, trace)
    delta = abs(levels[-1] - levels[-2])
    if delta <= tol * max(1.0, abs(value)):
        return IntegralResult(value, delta, CONVERGED, trace)
    slope = _log_log_slope(eps, levels)
    growing = mode == "max" and levels[-1] > levels[0] * (1.0 + 1e-9)
    if growing and slope is not None and slope <= -0.01:
        return IntegralResult(value, delta, DIVERGENT, trace, exponent_estimate=slope)
    return IntegralResult(value, delta, CUTOFF_LIMITED, trace, exponent_estimate=slope)


def _extremum_ladder(f: Callable, tol: float, cutoffs: Sequence[float], mode: str):
    eps = _validate_cutoffs(cutoffs)
    evaluate = _evaluator(f)
    levels = [_extremum_on(evaluate, e, tol, mode) for e in eps]
    return _classify_levels(eps, levels, tol, mode)


def endpoint_supremum(
    f: Callable, tol: float = 1e-10, cutoffs: Sequence[float] = DEFAULT_CUTOFFS
) -> IntegralResult:
    """sup of f over [eps, 1] across the cutoff ladder."""
    return _extremum_ladder(f, tol, cutoffs, "max")


def endpoint_infimum(
    f: Callable, tol: float = 1e-10, cutoffs: Sequence[float] = DEFAULT_CUTOFFS
) -> IntegralResult:
    """inf of f over [eps, 1] across the cutoff ladder (nonincreasing in eps)."""
    return _extremum_ladder(f, tol, cutoffs, "min")


def p_norm(
    f: Callable,
    p: float,
    tol: float = 1e-10,
    cutoffs: Sequence[float] = DEFAULT_CUTOFFS,
) -> IntegralResult:
    """L^p norm of f on (0, 1]; p = inf uses grid-refined suprema of |f|."""
    if not p >= 1:
        raise ValueError("p must be >= 1 (or infinity)")
    if math.isinf(p):
        return endpoint_supremum(lambda t: np.abs(np.asarray(f(t), dtype=float)), tol, cutoffs)

    def fp(t):
        return np.abs(np.asarray(f(t), dtype=float)) ** p

    inner = integrate(fp, tol=tol, cutoffs=cutoffs)
    if inner.value < 0.0:  # |f|^p integration cannot go negative except rounding
        inner.value = 0.0
    norm = inner.value ** (1.0 / p)
    if inner.value > 0.0:
        err = inner.abs_error_estimate * norm / (p * inner.value)
    else:
        err = inner.abs_error_estimate ** (1.0 / p)
    trace = [(e, max(v, 0.0) ** (1.0 / p)) for e, v in inner.cutoff_trace]
    return IntegralResult(norm, err, inner.status, trace, inner.exponent_estimate)


_HOLDER_TOL = 1e-12  # the conjugacy identity's tolerance


def _reciprocal_sum(exponents: Sequence[float]) -> float:
    """sum(1/p) over the exponents; an infinite exponent contributes 0."""
    return sum(0.0 if math.isinf(p) else 1.0 / p for p in exponents)


def holder_conjugate_check(p_list: Sequence[float], q: float) -> bool:
    """True iff sum(1/p_i) + 1/q == 1 within 1e-12 (infinities contribute 0)."""
    return abs(_reciprocal_sum(p_list) + _reciprocal_sum((q,)) - 1.0) <= _HOLDER_TOL
