"""Shared fixtures and the independent brute-force oracles.

The oracles here deliberately avoid the library's quadrature module: they
are the second route for every dual-route check, so they stay primitive
(composite Simpson / midpoint Riemann on dense uniform grids).
"""

import numpy as np
import pytest

from annulus_radial import KernelParams, TransformSpec, WeightSpec
from annulus_radial.exprlang import parse
from annulus_radial.kernel import BoundReport, cone_floor, kernel_matrix


def composite_simpson(f, a, b, panels=1_000_000):
    """Plain composite Simpson rule with vectorized evaluation."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def riemann_midpoint(f, a, b, n=1_000_000):
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.sum(np.asarray(f(x), dtype=float)) * (b - a) / n)


def dense_bound_report(p, grid_size, tol=1e-12):
    """Bound certificate over every entry of the dense m x m kernel matrix:
    the reference route for the O(m) verify_kernel_bounds."""
    nodes = np.linspace(0.0, 1.0, grid_size)
    M = kernel_matrix(p, nodes)
    diag = np.diag(M)
    floor = cone_floor(p)
    neg = max(0.0, float(-M.min()))
    excess = float((M - diag[None, :]).max())
    lower = float((floor * diag[None, :] - M).max())
    return BoundReport(
        grid_size=grid_size,
        tol=tol,
        wp_used=floor,
        max_negativity=neg,
        max_excess_over_diagonal=max(0.0, excess),
        max_lower_bound_violation=max(0.0, lower),
        passed=(neg <= tol, excess <= tol, lower <= tol),
    )


def whole_array_fold(asm, c):
    """The separable kernel fold as one whole-array cumsum each way: the
    reference route for the blocked solver._Assembled.kernel_fold."""
    a = asm.phi * c
    pre = np.cumsum(a)
    pre -= a  # strictly below the diagonal
    np.multiply(asm.psi, c, out=a)
    suf = np.cumsum(a[::-1])[::-1]  # diagonal and above
    pre *= asm.psi
    suf *= asm.phi
    pre += suf
    return pre


@pytest.fixture(scope="session")
def default_params():
    return KernelParams.default()


@pytest.fixture(scope="session")
def asym_params():
    # asymmetric but admissible; diagonal is genuinely non-constant
    return KernelParams(2.0, 1.0, 1.0, 3.0, 1.5, 3)


@pytest.fixture(scope="session")
def transform():
    return TransformSpec(1.0, 3)


@pytest.fixture(scope="session")
def synthetic_unit_weight():
    return WeightSpec(synthetic_override=parse("1", "t"), eval_floor=1e-9)


@pytest.fixture(scope="session")
def example1_weights():
    return WeightSpec(
        factors=(parse("1/(t^2+1)", "t"), parse("1/sqrt(t+2)", "t")),
        p_exponents=(2.0, 3.0),
    )


@pytest.fixture(scope="session")
def example4_weights():
    return WeightSpec(
        factors=(parse("1/(t+1)", "t"), parse("1/(t+1)", "t")),
        p_exponents=(2.0, 2.0),
    )


@pytest.fixture(scope="session")
def example4_nonlinearities():
    return (parse("cos(u)/10000", "u"), parse("u/(10000*(u+1))", "u"))
