"""Independent finite-difference solver for -u'' + r0^2 u = f, Robin ends.

Central differences with ghost-point elimination at the two Robin boundaries
keep the scheme second order everywhere.  The solve path never touches the
Green's-kernel code; it exists to validate that code, so independence is the
point.  green_consistency is the comparison harness and is the only place
here that imports the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridFunction
from .kernel import DegenerateParametersError, KernelParams, varrho

__all__ = ["LinearBVP", "solve_linear_fd", "build_system", "green_consistency"]


@dataclass(frozen=True)
class LinearBVP:
    """-u'' + r0^2 u = rhs on [0,1] with alpha*u(0)-beta*u'(0)=0 and
    gamma*u(1)+delta*u'(1)=0; rhs is a vectorized callable."""

    params: KernelParams
    rhs: Callable
    grid_size: int = 129

    def __post_init__(self):
        if self.grid_size < 16:
            raise ValueError("grid_size must be >= 16")


def build_system(bvp: LinearBVP) -> tuple:
    """Banded matrix, rhs vector, and nodes.

    The matrix is stored by diagonals (LAPACK band layout): row 0 holds the
    superdiagonal in columns 1.., row 1 the diagonal, row 2 the subdiagonal
    in columns ..m-2.

    Interior rows are the plain 3-point stencil; boundary rows eliminate the
    ghost value through the Robin condition, which keeps them second order.
    """
    p = bvp.params
    m = bvp.grid_size
    h = 1.0 / (m - 1)
    x = np.linspace(0.0, 1.0, m)
    f = np.asarray(bvp.rhs(x), dtype=float)
    if f.ndim == 0:
        f = np.full(x.shape, float(f))

    lower = np.full(m, -1.0 / h**2)
    diag = np.full(m, 2.0 / h**2 + p.r0**2)
    upper = np.full(m, -1.0 / h**2)
    b = f.copy()

    if p.beta == 0.0:
        diag[0] = 1.0
        upper[0] = 0.0
        b[0] = 0.0
    else:
        diag[0] = 2.0 / h**2 + 2.0 * p.alpha / (p.beta * h) + p.r0**2
        upper[0] = -2.0 / h**2
    if p.delta == 0.0:
        diag[-1] = 1.0
        lower[-1] = 0.0
        b[-1] = 0.0
    else:
        diag[-1] = 2.0 / h**2 + 2.0 * p.gamma / (p.delta * h) + p.r0**2
        lower[-1] = -2.0 / h**2

    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab, b, x


def _tridiagonal_solve(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tridiagonal elimination in Python floats, in LAPACK dgtsv's order.

    A row is swapped with the next when its pivot is the smaller entry, as
    dgtsv does: a Dirichlet row (diagonal 1) and a Robin end row (subdiagonal
    -2/h^2) both meet such a pivot.  The swap fills a second superdiagonal,
    kept in the spent subdiagonal slot.  Every other row is diagonally
    dominant, so no pivot vanishes.
    """
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    u = b.tolist()
    last = len(d) - 2
    for i in range(last + 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            u[i + 1] -= fact * u[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - fact * d[i + 1], d[i + 1]
            if i < last:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            u[i], u[i + 1] = u[i + 1], u[i] - fact * u[i + 1]
    u[-1] /= d[-1]
    u[-2] = (u[-2] - du[-1] * u[-1]) / d[-2]
    for i in range(last - 1, -1, -1):
        u[i] = (u[i] - du[i] * u[i + 1] - dl[i] * u[i + 2]) / d[i]
    return np.array(u)


def solve_linear_fd(bvp: LinearBVP) -> GridFunction:
    """Solve the tridiagonal system; unique solution as a GridFunction."""
    if varrho(bvp.params) == 0.0:  # raises DegenerateParametersError on zero
        raise DegenerateParametersError("singular boundary problem")
    ab, b, x = build_system(bvp)
    return GridFunction(x, _tridiagonal_solve(ab, b))


def _green_representation(params: KernelParams, s_nodes: np.ndarray, rhs: Callable,
                          n_gauss: int = 64) -> np.ndarray:
    """integral of Xi(s, t) rhs(t) dt per node, split at the t = s kink."""
    from .kernel import kernel_matrix  # comparison harness; FD path stays clean

    xg, wg = np.polynomial.legendre.leggauss(n_gauss)
    out = np.empty_like(s_nodes)
    for i, s in enumerate(s_nodes):
        total = 0.0
        for a, b in ((0.0, float(s)), (float(s), 1.0)):
            if b <= a:
                continue
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            t = mid + half * xg
            row = kernel_matrix(params, np.array([s]), t)[0]
            total += half * float(np.sum(wg * row * np.asarray(rhs(t), dtype=float)))
        out[i] = total
    return out


def green_consistency(params: KernelParams, rhs: Callable, m: int) -> float:
    """max over the m-node grid of |FD solution - kernel representation|.

    Decreases ~4x under grid doubling for smooth rhs (both sides are
    second-order accurate or better).
    """
    u_fd = solve_linear_fd(LinearBVP(params, rhs, m))
    u_green = _green_representation(params, u_fd.nodes, rhs)
    return float(np.max(np.abs(u_fd.values - u_green)))
