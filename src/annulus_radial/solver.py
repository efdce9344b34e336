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
are recorded at every Picard step.  A GridFunction handed to an entry point
must sit on the spec's grid make_grid(spec); any other raises ValueError.

Memory: every pass over the grid runs in blocks of _BLOCK = 2^16 nodes, so
the only m-long arrays are those a step keeps.  A spec keeps its grid
(ProblemSpec._grid: the nodes, ell and the ell-weighted trapezoid weights
w, 24 B per node) from its first solver step for as long as it lives.
tracemalloc peaks per node on top of that grid (example 4, m = 2^20 + 1):
Picard 64 B for n >= 2 (phi, psi, the iterate, plain trapezoid weights,
the |new - u| buffer, one g*w workspace and two layer outputs; 56 B for
n = 1; the plain weights are filled block by block like w, so their build
makes no m-long temporary), float64 recovery (3 + n)*8 B, longdouble
recovery (5 + 2n)*8 B (its phi, psi and n outputs are longdouble, the rest
is float64), and the defect check none: it peaks at ~4.8 MB whatever m
(~73 B per block node).  On top of the m-long arrays, Picard and the
float64 recovery hold ~2.1 MB of block buffers, the longdouble recovery
~4.5 MB (block and segment buffers and the rotation table) and the grid's
build ~2.7 MB.
Grids of at most 2^16 nodes run as one block.

Threads: a grid of several blocks, in a process that may use more than one
CPU, hands two jobs that touch numpy only to one helper thread, started and
joined per call (_beside): the suffix sweep of each kernel fold, beside the
prefix sweep, and the longdouble psi rotation from the table and anchors,
beside the phi rotation.  The calling thread keeps everything else: every
public library call (weight_ell, trapezoid_weights, kernel.phi/psi, the
nonlinearities), the spec's grid, the prefix sweeps, the phi rotation, and
the table and anchors of the longdouble phi/psi (a few thousand expm1
points).  The helper allocates nothing: it writes into psi and the fold's
output, and into buffers that the calling thread allocated.  Every
operation is the one the inline route performs, in the same order, so every
float64 and longdouble number is the same bit for bit.  With one CPU or one
block, both jobs run inline.  No thread outlives a call, so a child made by
fork() needs no care.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .grid import GridFunction, sup_distance, trapezoid_weights
from .kernel import KernelParams, phi, psi, varrho
from .quadrature import EvaluationError
from .weights import (
    DEFAULT_EVAL_FLOOR,
    TransformSpec,
    WeightSpec,
    kelvin_s,
    weight_bundle,
    weight_ell,
)

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


class _Grid(NamedTuple):
    """A spec's nodes make_grid(spec), ell at them, and the ell-weighted
    trapezoid weights w: float64, read-only."""

    nodes: np.ndarray
    ell: np.ndarray
    w: np.ndarray


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
        if self.cutoff < DEFAULT_EVAL_FLOOR:
            raise ValueError("cutoff below the weight evaluation floor")
        if not math.isfinite(self.metric_p):
            raise ValueError(f"metric exponent must be finite, got {self.metric_p!r}")
        if not self.metric_p > 1.0:
            raise ValueError("metric exponent must exceed 1")
        # a factor weight's transform must carry the kernel's r0 and N
        weight_bundle(self.weights, self.transform, self.kernel)

    @cached_property
    def _grid(self) -> _Grid:
        """The spec's grid, built block by block on the calling thread at
        first use and kept, read-only, as long as the spec: 24 B per node.
        A build that raises keeps nothing, so the next use starts afresh."""
        nodes = make_grid(self)
        m = nodes.size
        ell, w = np.empty(m), np.empty(m)
        for a, b in _blocks(m):
            ell[a:b] = weight_ell(nodes[a:b], self.weights, self.transform)
            np.multiply(_block_weights(nodes, a, b), ell[a:b], out=w[a:b])
        for x in (nodes, ell, w):
            x.flags.writeable = False
        return _Grid(nodes, ell, w)


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


def _blocks(m: int) -> list:
    """(start, stop) of the consecutive blocks of m nodes, left to right."""
    return [(a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK)]


def _block_weights(nodes: np.ndarray, a: int, b: int) -> np.ndarray:
    """trapezoid_weights(nodes)[a:b], bit for bit, from the block and one
    neighbour node on each side."""
    lo, hi = max(a - 1, 0), min(b + 1, nodes.size)
    return trapezoid_weights(nodes[lo:hi])[a - lo:b - lo]


def _cpus() -> int:
    """The number of CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _beside(here, task, inline: bool) -> None:
    """Run task() on a helper thread while here() runs on the calling thread.

    task touches numpy only: no public library function, and no allocation.
    Returns when both have finished; an exception of here(), else of task(),
    propagates as it was raised.  With inline set, here() and then task()
    run on the calling thread.
    """
    if inline:
        here()
        task()
        return
    raised = []

    def run():
        try:
            task()
        except BaseException as exc:  # re-raised on the calling thread
            raised.append(exc)

    helper = threading.Thread(target=run, name="annulus-radial")
    helper.start()
    try:
        here()
    finally:
        helper.join()
    if raised:
        raise raised[0]


def _sinh_coshm1(y: np.ndarray) -> tuple:
    """(sinh y, cosh y - 1) for y >= 0 from a single expm1 pass in y's dtype;
    cosh y - 1 is written over y.

    With em = expm1(y): sinh y = (em + em/(1+em))/2 and cosh y - 1 =
    em^2/(2(1+em)).  Neither cancels, unlike E - 1/E with E = exp(y), which
    loses sinh's relative accuracy as y -> 0.
    """
    em = np.expm1(y, out=y)
    e = 1.0 + em
    sh = em / e
    sh += em
    sh *= 0.5
    em *= em
    e *= 2.0
    em /= e
    return sh, em


# The longdouble phi/psi run from an anchor every this many nodes, counted
# from node 0 for phi and from node m-1 for psi.  A power of two: the
# rotation table's split relies on it.
_SEGMENT = 1 << 12


def _rotation_table(t, n: int) -> tuple:
    """(sinh, cosh - 1) at the exact products k*t, k < n <= _SEGMENT.

    fl(k*t) misses k*t by up to half an ulp, which sinh and cosh amplify
    like k*t does (16 eps at k*t = 50).  So t splits into a head whose
    products with k < _SEGMENT are exact and a short tail, the rounding d of
    each sum is kept, and the table takes it in to first order: sinh(y+d) =
    sinh y + d cosh y and cosh(y+d) - 1 = (cosh y - 1) + d sinh y; d^2 is
    below eps^2 y^2.
    """
    c = t * (_SEGMENT + 1)
    head = c - (c - t)  # log2(_SEGMENT) bits shorter than t (Veltkamp)
    d = np.arange(n, dtype=t.dtype)
    tail = d * (t - head)
    d *= head  # exact
    y = d + tail
    d -= y
    d += tail  # the rounding of y
    sh, chm1 = _sinh_coshm1(y)
    fix = chm1 + 1.0
    fix *= d
    d *= sh
    chm1 += d
    sh += fix
    return sh, chm1


def _abscissae(spec: ProblemSpec, idx: np.ndarray) -> tuple:
    """(x, step): the nodes idx of np.linspace(longdouble(cutoff),
    longdouble(1), m, dtype=longdouble) by linspace's own formula, lo +
    i*step with the last node exactly 1, and that step."""
    lo = np.longdouble(spec.cutoff)
    step = (np.longdouble(1.0) - lo) / (spec.grid_size - 1)
    x = idx.astype(np.longdouble)
    x *= step
    x += lo
    x[idx == spec.grid_size - 1] = 1.0
    return x, step


def _rotate(out, anchors, table, tmp) -> None:
    """Fill out[i] = A + (A*(cosh - 1) + B*sinh) for the nodes counted from
    the anchor end, with (A, B) the anchor pair of node i's segment and the
    table row of its offset in it; numpy only and into tmp, so it may run on
    the helper thread."""
    (a_values, b_values), (sh, chm1) = anchors, table
    for j, lo in enumerate(range(0, out.size, _SEGMENT)):
        o = out[lo:lo + _SEGMENT]
        part = tmp[:o.size]
        np.multiply(chm1[:o.size], a_values[j], out=o)
        np.multiply(sh[:o.size], b_values[j], out=part)
        o += part
        o += a_values[j]


class _Assembled:
    """Scaled kernel factors over the spec's grid, precomputed once per call.

    extended=True runs the kernel folds in numpy's longdouble: the component
    values then carry sub-float64 representation noise, which is what a
    second-difference defect check needs on fine grids (the float64 ulp of
    the values alone contributes ~4*ulp(u)/h^2 of defect noise).  Only phi,
    psi and the folds (their block buffers and their output) are longdouble.
    The nodes make_grid(spec), the weights w and the g*w workspace are the
    float64 path's own: g*w rounds once per node into a sum the kernel
    smooths, and the float64 trapezoid weights jitter by ~ulp(s)/h, ~2e-10
    relative at m = 1e6, below the longdouble defect's floor.  The float64
    path keeps kernel.phi/kernel.psi bit for bit: at m = 1e6 a 1- or 2-ulp
    change there moves the solve report's relative defect by 2-5%, against
    its 1e-3 gate.

    The longdouble phi/psi come by rotation.  Both solve u'' = r0^2 u, so
    phi(x + d) = phi(x) cosh(r0 d) + (phi'(x)/r0) sinh(r0 d), and psi obeys
    the same law leftwards with -psi'/r0.  The expm1 passes (_sinh_coshm1)
    see one table of _SEGMENT offsets and an anchor pair per _SEGMENT nodes
    and factor: _SEGMENT + 2*ceil(m/_SEGMENT) points, 4,586 at m = 1e6
    against 2m for one pass per node and factor.  A node's value is the
    factor at its anchor plus whole grid steps, not at its own rounded
    abscissa; the two differ by that rounding times the factor's slope.  So
    the anchors, not the nodes, carry longdouble abscissae: the nodes of
    np.linspace in longdouble at the anchor indices (_abscissae).

    The nodes and the ell-weighted trapezoid weights w are the spec's
    grid (ProblemSpec._grid), shared by every assembly of the spec.  The
    float64 phi and psi are filled one block at a time.  The calling thread
    makes the rotation's table and anchors, then fills the longdouble phi
    from them one segment at a time while the helper thread fills psi.
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
        self.nodes, _, self.w = spec._grid
        self.blocks = _blocks(m)
        # one block, or one CPU, leaves a helper thread nothing to overlap
        self.inline = len(self.blocks) == 1 or _cpus() == 1
        self.phi, self.psi = np.empty(m, dtype), np.empty(m, dtype)
        self.root = np.sqrt(dtype(varrho(spec.kernel)))
        if extended:
            phi_anchors, psi_anchors, table = self._rotation()
            # one segment buffer per factor, allocated here
            tmp = [np.empty(min(_SEGMENT, m), dtype) for _ in range(2)]
            _beside(lambda: _rotate(self.phi, phi_anchors, table, tmp[0]),
                    lambda: _rotate(self.psi[::-1], psi_anchors, table, tmp[1]),
                    self.inline)
        else:
            k = spec.kernel
            for a, b in self.blocks:
                x = self.nodes[a:b]
                np.divide(phi(k, x), self.root, out=self.phi[a:b])
                np.divide(psi(k, x), self.root, out=self.psi[a:b])

    def _rotation(self) -> tuple:
        """(phi anchors, psi anchors, table) of the longdouble fill.

        The table holds sinh and cosh - 1 at k*r0*step for k < _SEGMENT,
        with the grid's own step (1 - cutoff)/(m - 1) in longdouble: the
        difference of two nodes carries the rounding of both, and segments
        built on it drift apart.  An anchor pair is (phi, phi'/r0) at each
        segment's left end, resp. (psi, -psi'/r0) at its right end, divided
        by sqrt(varrho); every term is nonnegative, so nothing cancels, with
        Dirichlet ends too.

        Both are built in place: their short-lived blocks land on the heap
        between the m-long arrays, and with a dozen more of them the
        fine-grid benchmark's peak RSS sat 7 MB higher (glibc heap layout,
        not live memory: with a fixed mmap threshold both read the same).
        """
        k, m = self.spec.kernel, self.nodes.size

        def pair(y, c_sh, c_ch):
            # (c_sh sinh + c_ch cosh, c_sh cosh + c_ch sinh) / root at r0*y
            y *= k.r0
            sh, ch = _sinh_coshm1(y)
            ch += 1.0
            a = sh * c_sh
            b = ch * c_sh
            ch *= c_ch
            a += ch
            sh *= c_ch
            b += sh
            a /= self.root
            b /= self.root
            return a, b

        # the abscissae themselves must carry the working precision: float64
        # node jitter alone injects ~2*ulp(node)*u'/h^2 into defect checks
        x, step = _abscissae(self.spec, np.arange(0, m, _SEGMENT))
        right = _abscissae(self.spec, np.arange(m - 1, -1, -_SEGMENT))[0]
        np.subtract(1.0, right, out=right)
        return (
            pair(x, k.alpha, k.beta * k.r0),
            pair(right, k.gamma, k.delta * k.r0),
            _rotation_table(k.r0 * step, min(_SEGMENT, m)),
        )

    def kernel_fold(self, c: np.ndarray) -> np.ndarray:
        """sum_j Xi(s_i, t_j) c_j via the separable form (ties go to s<=t).

        Prefix sums run left to right on the calling thread while suffix
        sums run right to left on the helper thread, one block at a time.
        Each block adds the running sum into its first term before its
        cumsum, so every partial sum associates exactly as a whole-array
        cumsum would.  Per block, the sweep that finishes first stores its
        part of the output and the other adds its part in, always as
        prefix + suffix.
        """
        out = np.empty(c.size, self.phi.dtype)
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

        # two block buffers per sweep, allocated here
        bufs = [np.empty(min(_BLOCK, c.size), self.phi.dtype) for _ in range(4)]
        _beside(lambda: prefixes(*bufs[:2]), lambda: suffixes(*bufs[2:]), self.inline)
        return out

    def layer(self, i: int, v: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Fold g_i(v) through the kernel; work (m float64 values, reused
        across the layers of a call) receives g_i(v) * w."""
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


def _grid_values(spec: ProblemSpec, u: GridFunction, name: str) -> np.ndarray:
    """u's values; ValueError unless u sits on the spec's grid make_grid(spec)."""
    grid = spec._grid.nodes
    if not (u.nodes is grid or np.array_equal(u.nodes, grid)):
        raise ValueError(f"{name} must sit on the grid make_grid(spec)")
    return u.values


def apply_operator(spec: ProblemSpec, u1: GridFunction) -> GridFunction:
    """One application of the folded n-layer operator to u1, which must sit
    on the grid make_grid(spec)."""
    asm = _Assembled(spec)
    return GridFunction(asm.nodes, asm.apply(_grid_values(spec, u1, "u1")))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


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
    *,
    tol: float,
    max_iter: int,
) -> tuple:
    """Iterate u <- operator(u) until the sup metric drops below tol.

    Returns (fixed point candidate, SolveTrace); the trace carries the sup
    and L^p distances of every step and a tail-ratio decay estimate.  init
    is None (zero), a finite level, or a GridFunction on the grid
    make_grid(spec).
    Divergence (sup distance growing 10x over five steps, or non-finite
    iterates) stops the loop with status 'diverging'.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    _check_tol(tol)
    asm = _Assembled(spec)
    if init is None:
        u = np.zeros_like(asm.nodes)
    elif isinstance(init, GridFunction):
        u = np.array(_grid_values(spec, init, "init"), dtype=float)
    else:
        level = float(init)
        if not math.isfinite(level):
            raise ValueError(f"init must be finite, got {level!r}")
        u = np.full(asm.nodes.shape, level)

    d_hist: list = []
    rho_hist: list = []
    status = "max_iter"
    detail = ""
    w_plain = np.empty_like(asm.nodes)
    for a, b in asm.blocks:
        w_plain[a:b] = _block_weights(asm.nodes, a, b)
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
    spec: ProblemSpec, u1: GridFunction, *, tol: float,
    extended_precision: bool = False,
) -> list:
    """Rebuild (u_1, ..., u_n) from a fixed point of the folded operator.

    u_n comes from u_1, then u_{n-1} from u_n, and so on; the re-derived u_1
    must close the cycle to within 10*tol.  extended_precision reruns the
    layer folds in longdouble so the component values are clean enough for
    second-difference defect checks on very fine grids.  u1 must sit on the
    float64 grid make_grid(spec), and the components sit on it in both
    precisions.
    """
    _check_tol(tol)
    asm = _Assembled(spec, extended=extended_precision)
    base = np.asarray(_grid_values(spec, u1, "u1"), dtype=float)
    comps = list(asm.layers(base))[::-1]
    # in float64 on the rounded u_1: the check is against 10*tol
    closure = float(np.max([
        np.max(np.abs(np.asarray(comps[0][a:b], dtype=float) - base[a:b]))
        for a, b in asm.blocks
    ]))
    if closure > 10.0 * tol:
        raise CycleConsistencyError(
            f"cyclic closure residual {closure:.3e} exceeds {10.0 * tol:.3e}"
        )
    return [GridFunction(asm.nodes, c) for c in comps]


def worst_defects(spec: ProblemSpec, components: Sequence[GridFunction]) -> tuple:
    """(absolute, relative) worst defect of D2 u_i - r0^2 u_i + ell * g_i(u_{i+1})
    over interior nodes.

    The components must sit on the spec's grid make_grid(spec), whose ell
    the defect reads.  Runs block by block: each block evaluates every g_i
    at its nodes and their two neighbours only, and keeps running maxima.

    The absolute defect is O(h^2), but its constant grows like the weight's
    second derivative near the cutoff; the relative one divides by the local
    magnitude |D2 u| + r0^2 |u| + |ell g| and is the one to gate on.
    """
    if len(components) != spec.n:
        raise ValueError("component count must equal n")
    for c in components:
        _grid_values(spec, c, "components")
    nodes, ell, _ = spec._grid
    h = nodes[1] - nodes[0]
    r2 = spec.kernel.r0 ** 2
    # per component, the block maxima of the defect and the relative defect
    res_max: list = [[] for _ in range(spec.n)]
    rel_max: list = [[] for _ in range(spec.n)]
    for a, b in _blocks(nodes.size - 2):
        win = slice(a, b + 2)  # the block's interior nodes and both neighbours
        for i in range(spec.n):
            u = components[i].values[win]
            v = np.asarray(components[(i + 1) % spec.n].values[win], dtype=float)
            gv = np.asarray(spec.g[i](v), dtype=float)
            if gv.ndim == 0:
                gv = np.full(u.shape, float(gv))
            # only the second difference needs the components' precision;
            # the rest runs in float64 (a no-op for float64 components).  In
            # place, as (u[:-2] - 2 u[1:-1]) + u[2:], with one temporary
            d2 = np.multiply(u[1:-1], 2.0)
            np.subtract(u[:-2], d2, out=d2)
            d2 += u[2:]
            d2 = np.asarray(d2, dtype=float) / h**2
            mid = np.asarray(u[1:-1], dtype=float)
            forcing = ell[a + 1:b + 1] * gv[1:-1]
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
    *,
    tol: float,
    max_iter: int,
) -> list:
    """Picard from several constant starts; dedupe converged fixed points.

    Best-effort probe of multiple-solution regimes; no guarantee that every
    solution promised by the cone theorems is found.  A start whose iterates
    leave the domain of some g_i (an overflow, say) counts as diverging.
    """
    _check_tol(tol)
    found: list = []
    for level in levels:
        try:
            u, trace = picard_solve(spec, init=float(level), tol=tol,
                                    max_iter=max_iter)
        except EvaluationError:
            continue
        if not trace.converged:
            continue
        scale = max(1.0, float(np.max(np.abs(u.values))))
        if all(sup_distance(u, v) > 100.0 * tol * scale for v, _ in found):
            found.append((u, trace))
    return found
