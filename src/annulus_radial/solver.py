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
    """

    def __init__(self, spec: ProblemSpec, extended: bool = False):
        if spec.kernel.r0 > 100.0:
            raise ValueError(
                "solver path keeps unscaled phi/psi; r0 this large needs the "
                "overflow-safe pointwise kernel instead"
            )
        self.spec = spec
        dtype = np.longdouble if extended else np.float64
        # the abscissae themselves must carry the working precision: float64
        # node jitter alone injects ~2*ulp(node)*u'/h^2 into defect checks
        self.nodes = np.linspace(
            dtype(spec.cutoff), dtype(1.0), spec.grid_size, dtype=dtype
        )
        self.ell = np.asarray(
            weight_ell(self.nodes.astype(float), spec.weights, spec.transform),
            dtype=float,
        )
        self.w = trapezoid_weights(self.nodes) * self.ell.astype(dtype)
        root = np.sqrt(dtype(varrho(spec.kernel)))
        if extended:
            k = spec.kernel
            sh, ch = _sinh_cosh(k.r0 * self.nodes)
            self.phi = (k.alpha * sh + k.beta * k.r0 * ch) / root
            sh, ch = _sinh_cosh(k.r0 * (1.0 - self.nodes))
            self.psi = (k.gamma * sh + k.delta * k.r0 * ch) / root
        else:
            self.phi = np.asarray(phi(spec.kernel, self.nodes)) / root
            self.psi = np.asarray(psi(spec.kernel, self.nodes)) / root

    def kernel_fold(self, c: np.ndarray) -> np.ndarray:
        """sum_j Xi(s_i, t_j) c_j via the separable form (ties go to s<=t)."""
        a = self.phi * c
        pre = np.cumsum(a)
        pre -= a  # strictly below the diagonal
        np.multiply(self.psi, c, out=a)
        suf = np.cumsum(a[::-1])[::-1]  # diagonal and above
        pre *= self.psi
        suf *= self.phi
        pre += suf
        return pre

    def layer(self, i: int, v: np.ndarray) -> np.ndarray:
        try:
            gv = np.asarray(self.spec.g[i](np.asarray(v, dtype=float)), dtype=float)
        except Exception as exc:
            raise EvaluationError(f"nonlinearity {i + 1} failed: {exc}") from exc
        if gv.ndim == 0:
            gv = np.full(v.shape, float(gv))
        # g itself is evaluated in double precision: its error enters through
        # the integrand, which the kernel smooths; only the fold's output
        # representation matters for defect checks
        c = gv.astype(self.w.dtype)
        c *= self.w
        return self.kernel_fold(c)

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = values
        for i in range(self.spec.n - 1, -1, -1):
            v = self.layer(i, v)
        return v


def _match_grid(asm: _Assembled, u: GridFunction) -> np.ndarray:
    if u.nodes.shape == asm.nodes.shape and np.array_equal(
        u.nodes, asm.nodes.astype(float)
    ):
        return u.values
    return u(asm.nodes.astype(float))


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
    for _ in range(max_iter):
        new = asm.apply(u)
        if not np.isfinite(new).all():
            status, detail = "diverging", "non-finite iterate"
            u = np.where(np.isfinite(new), new, 0.0)
            break
        diff = np.abs(new - u)
        d = float(diff.max())
        rho = float(np.sum(w_plain * diff**spec.metric_p) ** (1.0 / spec.metric_p))
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
    base = _match_grid(asm, u1).astype(asm.w.dtype)
    comps: list = [None] * spec.n
    v = asm.layer(spec.n - 1, base)
    comps[spec.n - 1] = v
    for i in range(spec.n - 2, -1, -1):
        v = asm.layer(i, v)
        comps[i] = v
    closure = float(np.max(np.abs(comps[0] - base)))
    if closure > 10.0 * tol:
        raise CycleConsistencyError(
            f"cyclic closure residual {closure:.3e} exceeds {10.0 * tol:.3e}"
        )
    return [GridFunction(asm.nodes, c) for c in comps]


def worst_defects(spec: ProblemSpec, components: Sequence[GridFunction]) -> tuple:
    """(absolute, relative) worst defect of D2 u_i - r0^2 u_i + ell * g_i(u_{i+1})
    over interior nodes, evaluating each g_i once.

    The absolute defect is O(h^2), but its constant grows like the weight's
    second derivative near the cutoff; the relative one divides by the local
    magnitude |D2 u| + r0^2 |u| + |ell g| and is the one to gate on.
    """
    if len(components) != spec.n:
        raise ValueError("component count must equal n")
    nodes = components[0].nodes
    h = nodes[1] - nodes[0]
    ell = np.asarray(weight_ell(nodes, spec.weights, spec.transform), dtype=float)
    r2 = spec.kernel.r0 ** 2
    worst = relative = 0.0
    for i in range(spec.n):
        u = components[i].values
        u_next = components[(i + 1) % spec.n].values
        gv = np.asarray(spec.g[i](u_next), dtype=float)
        if gv.ndim == 0:
            gv = np.full(u.shape, float(gv))
        # only the second difference needs the components' precision; the
        # rest runs in float64 (a no-op for float64 components)
        d2 = np.asarray((u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2, dtype=float)
        mid = np.asarray(u[1:-1], dtype=float)
        forcing = ell[1:-1] * gv[1:-1]
        res = np.abs(d2 - r2 * mid + forcing)
        scale = 1e-30 + np.abs(d2) + r2 * np.abs(mid) + np.abs(forcing)
        worst = max(worst, float(np.max(res)))
        relative = max(relative, float(np.max(res / scale)))
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
