"""Independent finite-difference solver for -u'' + r0^2 u = f, Robin ends.

Central differences with ghost-point elimination at the two Robin boundaries
keep the scheme second order everywhere.  The solve path calls no
Green's-kernel code; it exists to validate that code, so independence is the
point.  green_consistency is the comparison harness and the only place here
that evaluates the kernel.

With pure Neumann ends (alpha = gamma = 0) the matrix tends to a singular
one as r0 -> 0 (constants span its null space), and the last pivot, about
r0^2 (m - 1), sinks into the rounding error of entries of size 1/h^2.  The
solve raises ValueError when that pivot is under 100 times its
rounding-error bound, which for pure Neumann ends happens below r0 of about
3.2e-7 m (6.7e-4 at m = 2122, 4e-5 at m = 129); a last pivot of exactly 0
raises as such.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import GridFunction
from .kernel import KernelParams, kernel_eval

__all__ = ["LinearBVP", "solve_linear_fd", "build_system", "green_consistency"]

_N_GAUSS = 64  # Gauss-Legendre points per panel of the Green representation
_UNIT_ROUNDOFF = 2.0 ** -53


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

    Interior rows are the plain 3-point stencil.  A Robin end row eliminates
    the ghost value through the boundary condition, which keeps it second
    order, and is halved so its off-diagonal is -1/h^2 like every other row's;
    a Dirichlet end is the row (2/h^2) u = 0.
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
        diag[0] = 2.0 / h**2
        upper[0] = 0.0
        b[0] = 0.0
    else:
        diag[0] = 1.0 / h**2 + p.alpha / (p.beta * h) + 0.5 * p.r0**2
        b[0] *= 0.5
    if p.delta == 0.0:
        diag[-1] = 2.0 / h**2
        lower[-1] = 0.0
        b[-1] = 0.0
    else:
        diag[-1] = 1.0 / h**2 + p.gamma / (p.delta * h) + 0.5 * p.r0**2
        b[-1] *= 0.5

    ab = np.zeros((3, m))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab, b, x


def _tridiagonal_solve(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Thomas elimination in Python floats.

    Every pivot of build_system's matrix but the last is at least 1/h^2,
    the size of the subdiagonal entry below it, so LAPACK's dgtsv swaps no
    row either and this sweep repeats its arithmetic step for step.

    For the same reason an error in one pivot reaches the next damped by
    dl du / d^2 <= 1, so the rounding errors of the diagonal entries D and
    of the steps add up to at most 3u sum(D + |D - d|) in the last pivot
    (first order, unit roundoff u, pivots d).  A last pivot of exactly 0, or
    under 100 times that bound (fewer than two of its digits certain),
    raises ValueError.
    """
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    u = b.tolist()
    for i in range(len(dl)):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        u[i + 1] -= fact * u[i]
    if d[-1] == 0.0:
        raise ValueError("singular FD system: the last pivot is 0")
    diag = ab[1]
    bound = 3.0 * _UNIT_ROUNDOFF * float(np.sum(diag + np.abs(diag - d)))
    if abs(d[-1]) < 100.0 * bound:
        raise ValueError(
            f"near-singular FD system: the last pivot {d[-1]:.3g} is under 100 "
            f"times its rounding-error bound {bound:.3g}"
        )
    u[-1] /= d[-1]
    for i in range(len(du) - 1, -1, -1):
        u[i] = (u[i] - du[i] * u[i + 1]) / d[i]
    return np.array(u)


def solve_linear_fd(bvp: LinearBVP) -> GridFunction:
    """Solve the tridiagonal system; unique solution as a GridFunction."""
    ab, b, x = build_system(bvp)
    return GridFunction(x, _tridiagonal_solve(ab, b))


@functools.lru_cache(maxsize=1)
def _gauss_rule() -> tuple:
    """The _N_GAUSS-point Gauss-Legendre rule on [-1, 1], built on first use
    (not at import, which every CLI run pays) and kept read-only."""
    rule = np.polynomial.legendre.leggauss(_N_GAUSS)
    for a in rule:
        a.flags.writeable = False
    return rule


def _green_representation(params: KernelParams, s_nodes: np.ndarray,
                          rhs: Callable) -> np.ndarray:
    """integral of Xi(s, t) rhs(t) dt per node, split at the t = s kink; each
    panel of all nodes is one array (a zero-width one adds an exact 0)."""
    xg, wg = _gauss_rule()
    s = np.asarray(s_nodes, dtype=float)[:, None]
    out = np.zeros(s.shape[0])
    for a, b in ((0.0, s), (s, 1.0)):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = mid + half * xg
        vals = wg * kernel_eval(params, s, t) * np.asarray(rhs(t), dtype=float)
        out += half[:, 0] * np.sum(vals, axis=1)
    return out


def green_consistency(params: KernelParams, rhs: Callable, m: int) -> float:
    """max over the m-node grid of |FD solution - kernel representation|.

    Decreases ~4x under grid doubling for smooth rhs (both sides are
    second-order accurate or better).
    """
    u_fd = solve_linear_fd(LinearBVP(params, rhs, m))
    u_green = _green_representation(params, u_fd.nodes, rhs)
    return float(np.max(np.abs(u_fd.values - u_green)))
