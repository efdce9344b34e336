"""Green's kernel of the two-point problem -u'' + r0^2 u = f with Robin ends.

The kernel factors as phi(min(s,t)) * psi(max(s,t)) / varrho, where

    phi(x) = alpha*sinh(r0*x) + beta*r0*cosh(r0*x)      (grows off the left end)
    psi(x) = gamma*sinh(r0*(1-x)) + delta*r0*cosh(r0*(1-x))  (decays to the right)

and varrho is the (constant) negative Wronskian of the pair.  All hyperbolic
pieces are evaluated with exp(r0*...) factored out so nothing overflows for
large r0; cosh/sinh themselves blow up near argument 710 in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParams",
    "BoundReport",
    "DegenerateParametersError",
    "DomainError",
    "varrho",
    "kernel_eval",
    "kernel_diag",
    "kernel_matrix",
    "wp",
    "cone_floor",
    "verify_kernel_bounds",
    "phi",
    "psi",
    "phi_prime",
    "psi_prime",
]


class DegenerateParametersError(ValueError):
    """Kernel parameters make the boundary problem singular."""


class DomainError(ValueError):
    """Argument outside the kernel's [0,1] x [0,1] domain."""


@dataclass(frozen=True)
class KernelParams:
    """Boundary weights (alpha..delta), radial scale r0, and dimension N."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    r0: float = 1.0
    N: int = 3

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) < 0:
                raise DegenerateParametersError(f"{name} must be nonnegative")
        if self.alpha + self.beta <= 0:
            raise DegenerateParametersError("alpha + beta must be positive")
        if self.gamma + self.delta <= 0:
            raise DegenerateParametersError("gamma + delta must be positive")
        if not self.r0 > 0:
            raise DegenerateParametersError("r0 must be positive")
        if int(self.N) != self.N or self.N < 3:
            raise DegenerateParametersError("N must be an integer >= 3")
        try:
            value = _varrho_scaled(self) * math.exp(self.r0)
        except OverflowError:  # exp(r0) leaves the double range past r0 = 709.78
            value = math.inf
        if not 0.0 < value < math.inf:
            cause = "overflows a double" if value else "is zero (no Green's kernel)"
            raise DegenerateParametersError(f"varrho {cause} at r0={self.r0!r}")

    @classmethod
    def default(cls) -> "KernelParams":
        return cls(1.0, 1.0, 1.0, 1.0, 1.0, 3)


# -- scaled building blocks (carry an implicit factor exp(r0*x) resp.
#    exp(r0*(1-x)); exp(-2*r0*...) never overflows) -------------------------


def _phi_scaled(p: KernelParams, x):
    e = np.exp(-2.0 * p.r0 * np.asarray(x, dtype=float))
    return 0.5 * (p.alpha * (1.0 - e) + p.beta * p.r0 * (1.0 + e))


def _psi_scaled(p: KernelParams, x):
    e = np.exp(-2.0 * p.r0 * (1.0 - np.asarray(x, dtype=float)))
    return 0.5 * (p.gamma * (1.0 - e) + p.delta * p.r0 * (1.0 + e))


def _varrho_scaled(p: KernelParams) -> float:
    e = math.exp(-2.0 * p.r0)
    return 0.5 * (
        p.r0 ** 2 * (p.alpha * p.delta + p.beta * p.gamma) * (1.0 + e)
        + p.r0 * (p.alpha * p.gamma + p.beta * p.delta * p.r0 ** 2) * (1.0 - e)
    )


def _as_float_array(x):
    # preserve extended-precision inputs; everything else becomes float64
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(float)


def phi(p: KernelParams, x):
    """Left homogeneous solution alpha*sinh(r0 x) + beta*r0*cosh(r0 x)."""
    x = _as_float_array(x)
    return p.alpha * np.sinh(p.r0 * x) + p.beta * p.r0 * np.cosh(p.r0 * x)


def psi(p: KernelParams, x):
    """Right homogeneous solution gamma*sinh(r0(1-x)) + delta*r0*cosh(r0(1-x))."""
    x = _as_float_array(x)
    return p.gamma * np.sinh(p.r0 * (1.0 - x)) + p.delta * p.r0 * np.cosh(p.r0 * (1.0 - x))


def phi_prime(p: KernelParams, x):
    x = np.asarray(x, dtype=float)
    return p.r0 * (p.alpha * np.cosh(p.r0 * x) + p.beta * p.r0 * np.sinh(p.r0 * x))


def psi_prime(p: KernelParams, x):
    x = np.asarray(x, dtype=float)
    return -p.r0 * (
        p.gamma * np.cosh(p.r0 * (1.0 - x)) + p.delta * p.r0 * np.sinh(p.r0 * (1.0 - x))
    )


def varrho(p: KernelParams) -> float:
    """r0^2(ad+bc)cosh(r0) + r0(ac+bd r0^2)sinh(r0); finite and nonzero
    for every KernelParams (construction rejects the rest)."""
    return _varrho_scaled(p) * math.exp(p.r0)


def _entries(p: KernelParams, lo, hi):
    """Xi at node pairs lo <= hi (broadcast), in the scaled overflow-free form."""
    return (
        _phi_scaled(p, lo) * _psi_scaled(p, hi) * np.exp(p.r0 * (lo - hi))
        / _varrho_scaled(p)
    )


def kernel_eval(p: KernelParams, s, t):
    """Kernel value at (s, t) in [0,1]^2, broadcast over arrays; a float for
    scalar input.  Symmetric by the min/max form."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    bad = ~((0.0 <= s) & (s <= 1.0) & (0.0 <= t) & (t <= 1.0))  # True at NaN
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        s_k, t_k = (float(a[k]) for a in np.broadcast_arrays(s, t))
        raise DomainError(f"kernel arguments must lie in [0,1], got ({s_k}, {t_k})")
    value = _entries(p, np.minimum(s, t), np.maximum(s, t))
    return float(value) if value.ndim == 0 else value


def kernel_diag(p: KernelParams, t):
    """Diagonal slice Xi(t, t); vectorized."""
    t = np.asarray(t, dtype=float)
    return _phi_scaled(p, t) * _psi_scaled(p, t) / _varrho_scaled(p)


def kernel_matrix(p: KernelParams, s_nodes, t_nodes=None) -> np.ndarray:
    """Dense kernel matrix M[i, j] = Xi(s_i, t_j).

    O(m^2) time and memory: it serves `kernel --table` and the dense
    reference route of the bound certificate in the tests.  The solver uses
    the separable phi/psi form and verify_kernel_bounds evaluates O(m)
    entries with the same expression instead of this matrix.
    """
    s = np.asarray(s_nodes, dtype=float)
    t = s if t_nodes is None else np.asarray(t_nodes, dtype=float)
    return kernel_eval(p, s[:, None], t[None, :])


def _boundary_ratios(p: KernelParams) -> tuple:
    # phi(1), psi(0) are strictly positive for admissible parameters
    den1 = float(phi(p, 1.0))
    den2 = float(psi(p, 0.0))
    if den1 <= 0.0 or den2 <= 0.0:
        raise DegenerateParametersError("boundary ratio denominators vanish")
    return p.beta * p.r0 / den1, p.delta * p.r0 / den2


def wp(p: KernelParams) -> float:
    """max of the two boundary ratios beta*r0/phi(1) and delta*r0/psi(0).

    This is the constant the worked examples use.  It is a valid kernel
    lower-bound constant only when the two ratios coincide (symmetric
    parameters); certification uses cone_floor below.
    """
    return max(_boundary_ratios(p))


def cone_floor(p: KernelParams) -> float:
    """min of the two boundary ratios: the certified constant for
    floor * Xi(t,t) <= Xi(s,t) on the whole square.

    Each kernel branch is bounded below by its own boundary ratio, so the
    uniform constant is the smaller one; the max variant fails for
    asymmetric parameters.
    """
    return min(_boundary_ratios(p))


@dataclass
class BoundReport:
    """Grid certificate for nonnegativity, diagonal domination, and the
    cone lower bound of the kernel."""

    grid_size: int
    tol: float
    wp_used: float
    max_negativity: float
    max_excess_over_diagonal: float
    max_lower_bound_violation: float
    passed: tuple

    @property
    def all_passed(self) -> bool:
        return all(self.passed)

    def to_dict(self) -> dict:
        return {
            "grid_size": self.grid_size,
            "tol": self.tol,
            "wp_used": self.wp_used,
            "max_negativity": self.max_negativity,
            "max_excess_over_diagonal": self.max_excess_over_diagonal,
            "max_lower_bound_violation": self.max_lower_bound_violation,
            "passed": list(self.passed),
        }


_BOUND_TOL = 1e-12  # absolute tolerance of the three kernel bounds


def verify_kernel_bounds(p: KernelParams, grid_size: int = 101) -> BoundReport:
    """Check the three kernel bounds on the uniform grid {i/(grid_size-1)}^2.

    (i) Xi >= 0, (ii) Xi(s,t) <= Xi(t,t), (iii) floor * Xi(t,t) <= Xi(s,t)
    with floor = cone_floor (see its docstring for why not wp), each within
    the absolute tolerance 1e-12 that BoundReport.tol reports.

    O(m) time and memory: in each column Xi(s,t)/Xi(t,t) is phi(s)/phi(t)
    above the diagonal and psi(s)/psi(t) below it, with phi nondecreasing
    and psi nonincreasing.  So the largest excess (ii) sits next to the
    diagonal and each column's minimum, which decides (i) and (iii), sits in
    row 0 or row m-1; only those ~4m entries are evaluated, with
    kernel_matrix's expression.  The figures equal the dense m x m check's
    except on near-flat kernels (alpha = gamma = 0, r0 <= 1e-5, Xi ~ 1e12),
    where one ulp of Xi exceeds 1e-12 and neither route's verdict means much.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    x = np.linspace(0.0, 1.0, grid_size)
    diag = _entries(p, x, x)
    adjacent = _entries(p, x[:-1], x[1:])  # M[j, j+1] == M[j+1, j]
    column_min = np.minimum(_entries(p, x[0], x), _entries(p, x, x[-1]))
    floor = cone_floor(p)
    neg = max(0.0, -float(min(diag.min(), adjacent.min(), column_min.min())))
    excess = float(max((adjacent - diag[1:]).max(), (adjacent - diag[:-1]).max()))
    lower = float((floor * diag - column_min).max())
    passed = (neg <= _BOUND_TOL, excess <= _BOUND_TOL, lower <= _BOUND_TOL)
    return BoundReport(
        grid_size=grid_size,
        tol=_BOUND_TOL,
        wp_used=floor,
        max_negativity=neg,
        max_excess_over_diagonal=max(0.0, excess),
        max_lower_bound_violation=max(0.0, lower),
        passed=passed,
    )
