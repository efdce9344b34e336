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

The endpoint suprema and infima of a cutoff ladder eps_0 > ... > eps_K
share one cached, read-only sample (~20,500 points by default): a linspace
and a geomspace on [eps_K, 1] with every cutoff and 1.0, whose linear step
is at most (1 - eps_k)/4096 and log step at most log(1/eps_k)/4096 on every
rung [eps_k, 1].  It is evaluated rung by rung ([eps_0, 1], then each further
part), and each rung zooms on the neighbours of its best point so far; rungs
with the same bracket share it.  A zoom round evaluates 15 inner points of
every open bracket in one call and narrows each to the neighbours of its
round's best point.  Bracket ends are never evaluated again, so an extremum
at a cutoff or at 1 keeps its sampled value bit for bit.  A bracket closes
on a NaN, once narrower than 1e-14 relative, or after two rounds in a row
that each gain at most tol * max(1, |best|) and, unless the best point is
the rung's end, leave all their points within that of the best.  Calls hold
at most 8,192 points, so their temporaries (64 KB) stay under glibc's mmap
threshold; past it, glibc maps or trims them on every call.  1/(t^2+1) ran
at 1.6-2.1 ns per point up to 20,000 points with no page faults, at 6.6 ns
and 96 faults per call at 32,768, and at 1.5 ns with none once
MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ were raised (2-vCPU Xeon
guest, glibc 2.36): the allocator, not the cache, sets this limit.
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


_STEPS = 4096  # sample steps per rung, on each of the two families
_CALL = 8192  # sample points per call, at most
_ZOOM = np.arange(1, 16) / 16.0  # a zoom round's points, as fractions of a bracket


@functools.lru_cache(maxsize=32)
def _sample(eps: tuple) -> tuple:
    """The ladder's sample (ascending, read-only); the index in it of each
    cutoff, and of the end of each rung's own part ([eps[0], 1], then
    [eps[k], eps[k - 1])); and those parts in rung order, cut into calls."""
    top, bottom = eps[0], eps[-1]
    lin = np.linspace(bottom, 1.0, math.ceil(_STEPS * (1.0 - bottom) / (1.0 - top)) + 1)
    log = np.geomspace(bottom, 1.0, math.ceil(_STEPS * math.log(bottom) / math.log(top)) + 1)
    grid = np.sort(np.concatenate([lin, log, eps]))
    # np.unique's result, without the numpy.ma import np.unique makes on
    # first use (~16 ms in a fresh process)
    grid = grid[np.append(True, grid[1:] != grid[:-1])]
    starts = tuple(np.searchsorted(grid, eps).tolist())
    ends = (grid.size, *starts[:-1])
    order = np.concatenate([grid[lo:hi] for lo, hi in zip(starts, ends)])
    grid.flags.writeable = order.flags.writeable = False
    return grid, starts, ends, tuple(np.array_split(order, -(-order.size // _CALL)))


def _zoom(evaluate: Callable, brackets: list, tol: float, sign: float) -> None:
    """Narrow each [lo, hi, best, pinned, quiet rounds] of `brackets` in
    place onto the maximum of sign * f on [lo, hi], by the module docstring's
    rounds; best is sign * f at the best point, pinned if that is a rung end."""
    live = [b for b in brackets if b[1] - b[0] >= 1e-14 * b[1]]
    while live:
        lo = np.array([b[0] for b in live])
        t = lo[:, None] + (np.array([b[1] for b in live]) - lo)[:, None] * _ZOOM
        y = sign * evaluate(t.ravel()).reshape(t.shape)
        still = []
        for b, j, ts, ys in zip(live, y.argmax(axis=1).tolist(), t.tolist(), y.tolist()):
            lo, hi, best, pinned, quiet = b
            gain = ys[j] - best
            if not gain <= 0.0:  # a gain, or a NaN
                best, pinned = ys[j], False
            near = tol * max(1.0, abs(best))
            quiet = quiet + 1 if gain <= near and (pinned or best - min(ys) <= near) else 0
            lo, hi = ts[j - 1] if j else lo, ts[j + 1] if j < len(ts) - 1 else hi
            b[:] = lo, hi, best, pinned, quiet
            if quiet < 2 and best == best and hi - lo >= 1e-14 * hi:
                still.append(b)
        live = still


def _classify_levels(eps: list, levels: list, tol: float, mode: str) -> IntegralResult:
    trace = list(zip(eps, levels))
    value = levels[-1]
    if len(levels) == 1:
        if math.isnan(value):
            return IntegralResult(value, value, CUTOFF_LIMITED, trace)
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
    """Each rung's extremum, no worse than the rung above's; a NaN sampled
    on a rung or in its zoom is its value, as np.max/np.min would have it."""
    eps = _validate_cutoffs(cutoffs)
    evaluate = _evaluator(f)
    grid, starts, ends, calls = _sample(tuple(eps))
    sign = 1.0 if mode == "max" else -1.0
    values = np.concatenate([evaluate(t) for t in calls])
    brackets = {}  # grid indices (lo, best point) -> _zoom's bracket
    rungs = []  # each rung's bracket, or None once a NaN is sampled
    offset, best, at = 0, None, 0
    for lo, hi in zip(starts, ends):
        part = values[offset:offset + hi - lo]
        offset += hi - lo
        i = int(part.argmax() if mode == "max" else part.argmin())
        v = sign * float(part[i])
        if best is None or v > best or v != v:
            best, at = v, lo + i
        below, above = max(at - 1, lo), min(at + 1, grid.size - 1)
        pinned = at in (below, above)  # at the rung's cutoff or at 1
        rungs.append(None if best != best else brackets.setdefault(
            (below, at), [float(grid[below]), float(grid[above]), best, pinned, 0]))
    _zoom(evaluate, list(brackets.values()), tol, sign)
    levels = np.array([math.nan if b is None else sign * b[2] for b in rungs])
    levels = (np.maximum if mode == "max" else np.minimum).accumulate(levels)
    return _classify_levels(eps, levels.tolist(), tol, mode)


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
