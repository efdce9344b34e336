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
at ~7.3 MB whatever m (~112 B per block node).  Grids of at most 2^16 nodes
run as one block.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _blocks(m: int) -> list:
    """(start, stop) of the consecutive blocks of m nodes, left to right."""
    return [(a, min(a + _BLOCK, m)) for a in range(0, m, _BLOCK)]


def _sinh_cosh(y: np.ndarray) -> tuple:
    """(sinh y, cosh y) for y >= 0 from a single expm1 pass in y's dtype.

    With em = expm1(y): sinh y = (em + em/(1+em))/2, cosh y = ((1+em) +
    1/(1+em))/2.  Neither sum cancels, unlike E - 1/E with E = exp(y), which
    loses sinh's relative accuracy as y -> 0.
    """
    em = np.expm1(y)
    e = 1.0 + em
    return 0.5 * (em + em / e), 0.5 * (e + 1.0 / e)


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
    at a time; ell itself is never held for the whole grid.
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
        self.phi, self.psi, self.w = (np.empty_like(self.nodes) for _ in range(3))
        root = np.sqrt(dtype(varrho(spec.kernel)))
        k = spec.kernel
        for a, b in self.blocks:
            x = self.nodes[a:b]
            # one neighbour node on each side gives the block's own weights
            lo, hi = max(a - 1, 0), min(b + 1, m)
            ell = weight_ell(np.asarray(x, dtype=float), spec.weights, spec.transform)
            np.multiply(
                trapezoid_weights(self.nodes[lo:hi])[a - lo:b - lo],
                np.asarray(ell, dtype=float),
                out=self.w[a:b],
            )
            if extended:
                sh, ch = _sinh_cosh(k.r0 * x)
                self.phi[a:b] = (k.alpha * sh + k.beta * k.r0 * ch) / root
                sh, ch = _sinh_cosh(k.r0 * (1.0 - x))
                self.psi[a:b] = (k.gamma * sh + k.delta * k.r0 * ch) / root
            else:
                np.divide(phi(k, x), root, out=self.phi[a:b])
                np.divide(psi(k, x), root, out=self.psi[a:b])

    def kernel_fold(self, c: np.ndarray) -> np.ndarray:
        """sum_j Xi(s_i, t_j) c_j via the separable form (ties go to s<=t).

        Prefix sums run left to right and suffix sums right to left, one
        block at a time.  Each block adds the running sum into its first
        term before its cumsum, so every partial sum associates exactly as a
        whole-array cumsum would.
        """
        out = np.empty_like(c)
        carry = None
        for a, b in self.blocks:
            t = self.phi[a:b] * c[a:b]
            first = t[0]
            if carry is not None:
                t[0] += carry
            np.cumsum(t, out=out[a:b])
            carry = out[b - 1]
            t[0] = first
            out[a:b] -= t  # strictly below the diagonal
            out[a:b] *= self.psi[a:b]
        carry = None
        for a, b in reversed(self.blocks):
            t = self.psi[a:b] * c[a:b]
            if carry is not None:
                t[-1] += carry
            suf = np.cumsum(t[::-1])[::-1]  # diagonal and above
            carry = suf[0]
            suf *= self.phi[a:b]
            out[a:b] += suf
        return out

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


def picard_solve(
    spec: ProblemSpec,
    init: GridFunction | float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple:
    """Iterate u <- operator(u) until the sup metric drops below tol.

    Returns (fixed point candidate, SolveTrace); the trace carries the sup
    and L^p distances of every step and a tail-ratio decay estimate.
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
        u = np.full(asm.nodes.shape, float(init))

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
        diff **= spec.metric_p
        diff *= w_plain
        rho = float(np.sum(diff) ** (1.0 / spec.metric_p))
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
