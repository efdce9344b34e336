"""Cone operator for the cyclic system and its Picard iteration.

The system couples n components through u_i'' - r0^2 u_i + ell*g_i(u_{i+1})=0
with u_{n+1} = u_1, so one application of the operator folds the n layers

    v  <-  integral of Xi(., t) ell(t) g_i(v(t)) dt,   i = n, n-1, ..., 1

starting from v = u_1.  The kernel is separable, Xi(s,t) =
phi(min) psi(max) / varrho, so each layer costs O(m) with prefix/suffix
cumulative sums over the grid; no kernel matrix is materialized (a dense
matrix caps the usable grid far below what the singular-weight residual
targets need).

Discretization: uniform grid on [cutoff, 1], trapezoid weights, piecewise
linear interpolation between nodes.  Both iteration metrics (sup and L^p)
are recorded at every Picard step.

Memory: every pass over the grid runs in blocks of _BLOCK = 2^16 nodes, so
the only m-long arrays are those a step keeps.  tracemalloc peaks per node
(example 4, m = 2^20 + 1): Picard 80 B for n >= 2 (nodes, phi, psi, w, the
iterate, plain trapezoid weights, the |new - u| buffer, one g*w workspace
and two layer outputs; 72 B for n = 1), float64 recovery (5 + n)*8 B,
longdouble recovery (5 + n)*16 + 8 B, and the defect check none: it peaks
at ~7.3 MB whatever m (~112 B per block node).  On top of the m-long
arrays, Picard and the float64 recovery hold ~2.1 MB of block buffers and
the longdouble recovery ~4.2 MB.  Grids of at most 2^16 nodes run as one
block.

Threads: a grid of several blocks hands the block work that touches numpy
only to a module-level thread pool, made on first use, with as many
threads as this process may use CPUs, at most _MAX_WORKERS.  The calling
thread keeps everything else: every public library call (weight_ell,
trapezoid_weights, kernel.phi/psi, the nonlinearities), the prefix sweep
of each kernel fold and the ell-weighted weights w.  The pool runs the
suffix sweep of each fold and the longdouble phi/psi fill, one block per
task.  Workers allocate nothing: they write into slices of phi, psi and
the fold's output, and into block buffers that the calling thread
allocated.  Every operation is the one the inline route performs, in the
same order, so every float64 and longdouble number is the same bit for
bit.  With one CPU or one block, the same per-block functions run inline;
a child made by fork() makes its own pool.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .grid import GridFunction, sup_distance, trapezoid_weights
from .kernel import KernelParams, phi, psi, varrho
from .quadrature import EvaluationError
from .weights import TransformSpec, WeightSpec, kelvin_s, weight_ell

__all__ = [
    "ProblemSpec",
    "SolveTrace",
    "CycleConsistencyError",
    "make_grid",
    "apply_operator",
    "picard_solve",
    "recover_components",
    "residual_check",
    "worst_defects",
    "radial_profile",
    "multistart_solve",
]


class CycleConsistencyError(ValueError):
    """Re-derived first component strays from the input fixed point."""


@dataclass(frozen=True)
class ProblemSpec:
    """Cyclic system description: n nonlinearities over one kernel/weight."""

    n: int
    g: tuple
    kernel: KernelParams
    weights: WeightSpec
    transform: TransformSpec
    grid_size: int = 1025
    cutoff: float = 1e-3
    metric_p: float = 2.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one equation")
        if len(self.g) != self.n:
            raise ValueError("nonlinearity list must have length n")
        if self.grid_size < 16:
            raise ValueError("grid_size must be >= 16")
        if not (0.0 < self.cutoff < 1.0):
            raise ValueError("cutoff must lie in (0, 1)")
        if self.cutoff < self.weights.eval_floor:
            raise ValueError("cutoff below the weight evaluation floor")
        if not self.metric_p > 1.0:
            raise ValueError("metric exponent must exceed 1")


@dataclass
class SolveTrace:
    iterates: int
    d_history: list
    rho_history: list
    empirical_ratio: float | None
    converged: bool
    status: str  # converged | max_iter | diverging
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "iterates": self.iterates,
            "d_history": self.d_history,
            "rho_history": self.rho_history,
            "empirical_ratio": self.empirical_ratio,
            "converged": self.converged,
            "status": self.status,
            "detail": self.detail,
        }


def make_grid(spec: ProblemSpec) -> np.ndarray:
    return np.linspace(spec.cutoff, 1.0, spec.grid_size)


# Every pass over the m nodes runs in blocks of this many, so temporaries
# stay O(_BLOCK) whatever the grid; grids of up to _BLOCK nodes are one block.
_BLOCK = 1 << 16


# A grid of several blocks hands its numpy-only block work to a pool of at
# most this many threads, and no more than the CPUs this process may use.
_MAX_WORKERS = 4

_POOL = None  # (executor or None, workers), made on first use by _pool()


def _blocks(m: int) -> list:
    """(start, stop) of the consecutive blocks of m nodes, left to right."""
    return [(a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK)]


def _pool() -> tuple:
    """(executor, workers) of the module's thread pool; (None, 1) where this
    process may use one CPU only, and everything then runs inline."""
    global _POOL
    if _POOL is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        workers = min(cpus, _MAX_WORKERS)
        _POOL = (
            (ThreadPoolExecutor(workers, thread_name_prefix="annulus-radial"), workers)
            if workers > 1 else (None, 1)
        )
    return _POOL


def _forget_pool() -> None:
    # a child made by fork() inherits the pool object but none of its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _together(here, tasks: list, buffers, inline: bool) -> None:
    """Run the tasks on the pool while here() runs on the calling thread.

    buffers() makes one set of block buffers.  The calling thread makes one
    set per task that may run at once; each task is called with a set and
    hands it back when done.  Tasks touch numpy only: no public library
    function, and no allocation.  Returns when every task has finished; an
    exception of here(), else the first one of a task in list order,
    propagates as it was raised.  Without a pool, or with inline set,
    here() and then each task run on the calling thread.
    """
    pool, workers = (None, 1) if inline else _pool()
    sets = [buffers() for _ in range(min(workers, len(tasks)))]
    if pool is None:
        here()
        for task in tasks:
            task(*sets[0])
        return
    free: queue.SimpleQueue = queue.SimpleQueue()
    for bufs in sets:
        free.put(bufs)

    def run(task):
        bufs = free.get()
        try:
            task(*bufs)
        finally:
            free.put(bufs)

    futures = [pool.submit(run, task) for task in tasks]
    try:
        here()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _sinh_cosh(y: np.ndarray, sh: np.ndarray, e: np.ndarray) -> tuple:
    """(sinh y, cosh y) for y >= 0 from a single expm1 pass in y's dtype,
    written into sh and over y; e is a third buffer of y's size.

    With em = expm1(y): sinh y = (em + em/(1+em))/2, cosh y = ((1+em) +
    1/(1+em))/2.  Neither sum cancels, unlike E - 1/E with E = exp(y), which
    loses sinh's relative accuracy as y -> 0.
    """
    em = np.expm1(y, out=y)
    np.add(1.0, em, out=e)
    np.divide(em, e, out=sh)
    np.add(em, sh, out=sh)
    sh *= 0.5
    ch = np.divide(1.0, e, out=y)
    np.add(e, ch, out=ch)
    ch *= 0.5
    return sh, ch


class _Assembled:
    """Grid, weights, and scaled kernel factors precomputed once per spec.

    extended=True runs the kernel folds in numpy's longdouble: the component
    values then carry sub-float64 representation noise, which is what a
    second-difference defect check needs on fine grids (the float64 ulp of
    the values alone contributes ~4*ulp(u)/h^2 of defect noise).  Its phi/psi
    take one expm1 pass per factor (_sinh_cosh).  The float64 path keeps
    kernel.phi/kernel.psi bit for bit: at m = 1e6 a 1- or 2-ulp change there
    moves the solve report's relative defect by 2-5%, against its 1e-3 gate.

    phi, psi and the ell-weighted trapezoid weights w are filled one block
    at a time; ell itself is never held for the whole grid.  The longdouble
    phi/psi blocks are filled on the pool while the calling thread fills w.
    """

    def __init__(self, spec: ProblemSpec, extended: bool = False):
        if spec.kernel.r0 > 100.0:
            raise ValueError(
                "solver path keeps unscaled phi/psi; r0 this large needs the "
                "overflow-safe pointwise kernel instead"
            )
        self.spec = spec
        dtype = np.longdouble if extended else np.float64
        m = spec.grid_size
        # the abscissae themselves must carry the working precision: float64
        # node jitter alone injects ~2*ulp(node)*u'/h^2 into defect checks
        self.nodes = np.linspace(dtype(spec.cutoff), dtype(1.0), m, dtype=dtype)
        self.blocks = _blocks(m)
        # one block leaves the threads nothing to share
        self.inline = len(self.blocks) == 1
        self.phi, self.psi, self.w = (np.empty_like(self.nodes) for _ in range(3))
        self.root = np.sqrt(dtype(varrho(spec.kernel)))
        if extended:
            _together(self._weights,
                      [partial(self._factors, a, b) for a, b in self.blocks],
                      lambda: self._block_buffers(3), self.inline)
        else:
            self._weights()
            k = spec.kernel
            for a, b in self.blocks:
                x = self.nodes[a:b]
                np.divide(phi(k, x), self.root, out=self.phi[a:b])
                np.divide(psi(k, x), self.root, out=self.psi[a:b])

    def _weights(self) -> None:
        """Fill w block by block (calling thread: it evaluates ell)."""
        spec, m = self.spec, self.nodes.size
        for a, b in self.blocks:
            # one neighbour node on each side gives the block's own weights
            lo, hi = max(a - 1, 0), min(b + 1, m)
            ell = weight_ell(np.asarray(self.nodes[a:b], dtype=float), spec.weights,
                             spec.transform)
            np.multiply(
                trapezoid_weights(self.nodes[lo:hi])[a - lo:b - lo],
                np.asarray(ell, dtype=float),
                out=self.w[a:b],
            )

    def _factors(self, a: int, b: int, y, sh, e) -> None:
        """Fill the longdouble phi/psi of block [a, b) through the block
        buffers y, sh and e; numpy only, so it may run on a worker."""
        k = self.spec.kernel
        x = self.nodes[a:b]
        y, sh, e = y[:b - a], sh[:b - a], e[:b - a]

        def factor(out, c_sh, c_ch):
            # out = (c_sh sinh y + c_ch cosh y) / root, y in buffer y
            s, c = _sinh_cosh(y, sh, e)
            s *= c_sh
            c *= c_ch
            np.add(s, c, out=out)
            np.divide(out, self.root, out=out)

        np.multiply(k.r0, x, out=y)
        factor(self.phi[a:b], k.alpha, k.beta * k.r0)
        np.multiply(k.r0, np.subtract(1.0, x, out=y), out=y)
        factor(self.psi[a:b], k.gamma, k.delta * k.r0)

    def kernel_fold(self, c: np.ndarray) -> np.ndarray:
        """sum_j Xi(s_i, t_j) c_j via the separable form (ties go to s<=t).

        Prefix sums run left to right on the calling thread while suffix
        sums run right to left on a worker, one block at a time.  Each block
        adds the running sum into its first term before its cumsum, so every
        partial sum associates exactly as a whole-array cumsum would.  Per
        block, the sweep that finishes first stores its part of the output
        and the other adds its part in, always as prefix + suffix.
        """
        out = np.empty_like(c)
        lock = threading.Lock()
        stored: set = set()  # blocks that hold one sweep's part

        def meet(k, part, prefix):
            a, b = self.blocks[k]
            with lock:
                if k not in stored:
                    stored.add(k)
                    out[a:b] = part
                elif prefix:
                    np.add(part, out[a:b], out=out[a:b])
                else:
                    out[a:b] += part

        def prefixes(t, p):
            carry = None
            for k, (a, b) in enumerate(self.blocks):
                t_k, p_k = t[:b - a], p[:b - a]
                np.multiply(self.phi[a:b], c[a:b], out=t_k)
                first = t_k[0]
                if carry is not None:
                    t_k[0] += carry
                np.cumsum(t_k, out=p_k)
                carry = p_k[-1]
                t_k[0] = first
                p_k -= t_k  # strictly below the diagonal
                p_k *= self.psi[a:b]
                meet(k, p_k, True)

        def suffixes(t, s):
            carry = None
            for k in range(len(self.blocks) - 1, -1, -1):
                a, b = self.blocks[k]
                t_k, s_k = t[:b - a], s[:b - a]
                np.multiply(self.psi[a:b], c[a:b], out=t_k)
                if carry is not None:
                    t_k[-1] += carry
                np.cumsum(t_k[::-1], out=s_k[::-1])  # diagonal and above
                carry = s_k[0]
                s_k *= self.phi[a:b]
                meet(k, s_k, False)

        mine = self._block_buffers(2)
        _together(lambda: prefixes(*mine), [suffixes], lambda: self._block_buffers(2),
                  self.inline)
        return out

    def _block_buffers(self, count: int) -> tuple:
        """count empty arrays of one block each, in the working dtype."""
        size = min(_BLOCK, self.nodes.size)
        return tuple(np.empty(size, self.nodes.dtype) for _ in range(count))

    def layer(self, i: int, v: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Fold g_i(v) through the kernel; work (m values of the working
        dtype, reused across the layers of a call) receives g_i(v) * w."""
        g = self.spec.g[i]
        for a, b in self.blocks:
            try:
                gv = np.asarray(g(np.asarray(v[a:b], dtype=float)), dtype=float)
            except Exception as exc:
                raise EvaluationError(f"nonlinearity {i + 1} failed: {exc}") from exc
            # g itself is evaluated in double precision: its error enters
            # through the integrand, which the kernel smooths; only the
            # fold's output representation matters for defect checks
            np.multiply(gv, self.w[a:b], out=work[a:b])
        return self.kernel_fold(work)

    def layers(self, values: np.ndarray):
        """Yield the outputs of layers n, n-1, ..., 1 applied in turn to
        values (u_n first, u_1 last); one g*w workspace serves them all."""
        work = np.empty_like(self.w)
        for i in range(self.spec.n - 1, -1, -1):
            values = self.layer(i, values, work)
            yield values

    def apply(self, values: np.ndarray) -> np.ndarray:
        for values in self.layers(values):
            pass
        return values


def _match_grid(asm: _Assembled, u: GridFunction) -> np.ndarray:
    """u's values at asm's nodes.  A u on the float64 grid make_grid(spec)
    is taken as it is, also by a longdouble assembly: its nodes round to
    that grid within 1 ulp, and interpolating across an ulp only blurs u."""
    grid = asm.nodes if asm.nodes.dtype == np.float64 else make_grid(asm.spec)
    if u.nodes.shape == grid.shape and np.array_equal(u.nodes, grid):
        return u.values
    return u(np.asarray(asm.nodes, dtype=float))


def apply_operator(spec: ProblemSpec, u1: GridFunction) -> GridFunction:
    """One application of the folded n-layer operator to u1."""
    asm = _Assembled(spec)
    return GridFunction(asm.nodes, asm.apply(_match_grid(asm, u1)))


def _lp_norm(diff: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum_j w_j diff_j^p)^(1/p) for diff >= 0, computed over diff; inf
    where diff^p overflows."""
    with np.errstate(over="ignore"):
        diff **= p
        diff *= w
        return float(np.sum(diff) ** (1.0 / p))


def picard_solve(
    spec: ProblemSpec,
    init: GridFunction | float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple:
    """Iterate u <- operator(u) until the sup metric drops below tol.

    Returns (fixed point candidate, SolveTrace); the trace carries the sup
    and L^p distances of every step and a tail-ratio decay estimate.  init
    is None (zero), a finite level, or a GridFunction.
    Divergence (sup distance growing 10x over five steps, or non-finite
    iterates) stops the loop with status 'diverging'.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    asm = _Assembled(spec)
    if init is None:
        u = np.zeros_like(asm.nodes)
    elif isinstance(init, GridFunction):
        u = np.asarray(_match_grid(asm, init), dtype=float).copy()
    else:
        level = float(init)
        if not math.isfinite(level):
            raise ValueError(f"init must be finite, got {level!r}")
        u = np.full(asm.nodes.shape, level)

    d_hist: list = []
    rho_hist: list = []
    status = "max_iter"
    detail = ""
    w_plain = trapezoid_weights(asm.nodes)
    diff = np.empty_like(u)
    for _ in range(max_iter):
        new = asm.apply(u)
        if not np.isfinite(new).all():
            status, detail = "diverging", "non-finite iterate"
            u = np.where(np.isfinite(new), new, 0.0)
            break
        np.subtract(new, u, out=diff)
        np.abs(diff, out=diff)
        d = float(diff.max())
        rho = _lp_norm(diff, w_plain, spec.metric_p)
        if not math.isfinite(rho) and 0.0 < d < math.inf:
            # |new - u|^p overflowed: the same distance in units of d
            np.subtract(new, u, out=diff)
            np.abs(diff, out=diff)
            diff /= d
            rho = d * _lp_norm(diff, w_plain, spec.metric_p)
        d_hist.append(d)
        rho_hist.append(rho)
        u = new
        if d <= tol:
            status = "converged"
            break
        if len(d_hist) >= 6 and d_hist[-1] > 10.0 * d_hist[-6]:
            status, detail = "diverging", (
                f"sup distance grew from {d_hist[-6]:.3e} to {d_hist[-1]:.3e} "
                "over five steps"
            )
            break

    ratio = None
    if len(d_hist) >= 3:
        tail_vals = d_hist[-6:]
        tail = [
            b / a
            for a, b in zip(tail_vals[:-1], tail_vals[1:])
            if a > 0.0 and b > 0.0
        ]
        if tail:
            ratio = float(np.exp(np.mean(np.log(tail))))

    trace = SolveTrace(
        iterates=len(d_hist),
        d_history=d_hist,
        rho_history=rho_hist,
        empirical_ratio=ratio,
        converged=status == "converged",
        status=status,
        detail=detail,
    )
    return GridFunction(asm.nodes, u), trace


def recover_components(
    spec: ProblemSpec, u1: GridFunction, tol: float = 1e-8,
    extended_precision: bool = False,
) -> list:
    """Rebuild (u_1, ..., u_n) from a fixed point of the folded operator.

    u_n comes from u_1, then u_{n-1} from u_n, and so on; the re-derived u_1
    must close the cycle to within 10*tol.  extended_precision reruns the
    layer folds in longdouble so the component values are clean enough for
    second-difference defect checks on very fine grids.
    """
    asm = _Assembled(spec, extended=extended_precision)
    # one float64 copy of the nodes for all n.  It is made before the layers:
    # made after them, it let the peak RSS of repeated m = 1e6 recoveries
    # creep up by ~20 MB (glibc heap layout)
    nodes = np.asarray(asm.nodes, dtype=float)
    base = _match_grid(asm, u1)
    comps = list(asm.layers(base))[::-1]
    dtype = asm.w.dtype
    closure = float(np.max([
        np.max(np.abs(comps[0][a:b] - base[a:b].astype(dtype))) for a, b in asm.blocks
    ]))
    if closure > 10.0 * tol:
        raise CycleConsistencyError(
            f"cyclic closure residual {closure:.3e} exceeds {10.0 * tol:.3e}"
        )
    return [GridFunction(nodes, c) for c in comps]


def worst_defects(spec: ProblemSpec, components: Sequence[GridFunction]) -> tuple:
    """(absolute, relative) worst defect of D2 u_i - r0^2 u_i + ell * g_i(u_{i+1})
    over interior nodes.

    Runs block by block: each block evaluates ell and every g_i at its nodes
    and their two neighbours only, and keeps running maxima.

    The absolute defect is O(h^2), but its constant grows like the weight's
    second derivative near the cutoff; the relative one divides by the local
    magnitude |D2 u| + r0^2 |u| + |ell g| and is the one to gate on.
    """
    if len(components) != spec.n:
        raise ValueError("component count must equal n")
    nodes = components[0].nodes
    if nodes.size < 3:
        raise ValueError("need an interior node")
    h = nodes[1] - nodes[0]
    r2 = spec.kernel.r0 ** 2
    # per component, the block maxima of the defect and the relative defect
    res_max: list = [[] for _ in range(spec.n)]
    rel_max: list = [[] for _ in range(spec.n)]
    for a, b in _blocks(nodes.size - 2):
        win = slice(a, b + 2)  # the block's interior nodes and both neighbours
        ell = np.asarray(
            weight_ell(nodes[win], spec.weights, spec.transform), dtype=float
        )
        for i in range(spec.n):
            u = components[i].values[win]
            gv = np.asarray(spec.g[i](components[(i + 1) % spec.n].values[win]),
                            dtype=float)
            if gv.ndim == 0:
                gv = np.full(u.shape, float(gv))
            # only the second difference needs the components' precision;
            # the rest runs in float64 (a no-op for float64 components)
            d2 = np.asarray((u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2, dtype=float)
            mid = np.asarray(u[1:-1], dtype=float)
            forcing = ell[1:-1] * gv[1:-1]
            res = np.abs(d2 - r2 * mid + forcing)
            scale = 1e-30 + np.abs(d2) + r2 * np.abs(mid) + np.abs(forcing)
            res_max[i].append(np.max(res))
            rel_max[i].append(np.max(res / scale))
    worst = relative = 0.0
    for i in range(spec.n):
        worst = max(worst, float(np.max(res_max[i])))
        relative = max(relative, float(np.max(rel_max[i])))
    return worst, relative


def residual_check(spec: ProblemSpec, components: Sequence[GridFunction]) -> float:
    """Worst absolute defect |D2 u_i - r0^2 u_i + ell * g_i(u_{i+1})| over
    interior nodes; see worst_defects."""
    return worst_defects(spec, components)[0]


def radial_profile(
    components: Sequence[GridFunction],
    ts: TransformSpec,
    r_grid: Sequence[float],
) -> np.ndarray:
    """Table (r, u_1(r), ..., u_n(r)) through s = (r/r0)^(2-N).

    r must stay inside the radial image of the solution grid.
    """
    r = np.asarray(r_grid, dtype=float)
    s = np.asarray(kelvin_s(r, ts))
    lo, hi = components[0].nodes[0], components[0].nodes[-1]
    slack = 1e-12
    if (s < lo - slack).any() or (s > hi + slack).any():
        raise ValueError(
            f"radial points map outside the solution grid [{lo:g}, {hi:g}] in s"
        )
    s = np.clip(s, lo, hi)
    cols = [r] + [c(s) for c in components]
    return np.column_stack(cols)


def multistart_solve(
    spec: ProblemSpec,
    levels: Sequence[float],
    tol: float = 1e-10,
    max_iter: int = 100,
) -> list:
    """Picard from several constant starts; dedupe converged fixed points.

    Best-effort probe of multiple-solution regimes; no guarantee that every
    solution promised by the cone theorems is found.
    """
    found: list = []
    for level in levels:
        u, trace = picard_solve(spec, init=float(level), tol=tol, max_iter=max_iter)
        if not trace.converged:
            continue
        scale = max(1.0, float(np.max(np.abs(u.values))))
        if all(sup_distance(u, v) > 100.0 * tol * scale for v, _ in found):
            found.append((u, trace))
    return found
