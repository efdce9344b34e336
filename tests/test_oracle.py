import numpy as np
import pytest

from annulus_radial.kernel import KernelParams
from annulus_radial.oracle import LinearBVP, build_system, green_consistency, solve_linear_fd

RNG = np.random.default_rng(23)


def u_star(t):
    return 1.0 + t + t**2 - 1.5 * t**3


def u_star_rhs(t):
    # -u'' + u for the cubic above
    return -(2.0 - 9.0 * t) + u_star(t)


def test_manufactured_cubic_satisfies_both_boundary_conditions():
    # u(0)-u'(0) = 0 and u(1)+u'(1) = 0; coefficient identity 3a+3c+4d = 0
    a, b, c, d = 1.0, 1.0, 1.0, -1.5
    assert a - b == 0.0
    assert 3 * a + 3 * c + 4 * d == 0.0
    du = lambda t: 1.0 + 2.0 * t - 4.5 * t**2
    assert u_star(0.0) - du(0.0) == 0.0
    assert u_star(1.0) + du(1.0) == 0.0


def test_zero_rhs_gives_zero_solution(default_params):
    u = solve_linear_fd(LinearBVP(default_params, lambda t: 0.0 * np.asarray(t), 129))
    assert np.max(np.abs(u.values)) == 0.0


def test_manufactured_solution_second_order(default_params):
    errs = []
    for m in (129, 257, 513):
        u = solve_linear_fd(LinearBVP(default_params, u_star_rhs, m))
        errs.append(float(np.max(np.abs(u.values - u_star(u.nodes)))))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


def test_green_consistency_order_two(default_params):
    ones = lambda t: np.ones_like(np.asarray(t, dtype=float))
    errs = [green_consistency(default_params, ones, m) for m in (129, 257)]
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_green_consistency_random_params_sine():
    for _ in range(3):
        a, b, g, d = RNG.uniform(0.3, 3.0, size=4)
        p = KernelParams(a, b, g, d, RNG.uniform(0.5, 2.0), 3)
        err = green_consistency(p, lambda t: np.sin(np.pi * np.asarray(t)), 513)
        assert err < 1e-4


def test_rows_diagonally_dominant():
    for _ in range(10):
        a, b, g, d = RNG.uniform(0.1, 10.0, size=4)
        p = KernelParams(a, b, g, d, RNG.uniform(0.1, 5.0), 3)
        ab, rhs, x = build_system(LinearBVP(p, lambda t: np.ones_like(t), 65))
        upper, diag, lower = ab
        m = diag.size
        for k in range(m):
            off = abs(upper[k + 1]) if k + 1 < m else 0.0
            off += abs(lower[k - 1]) if k >= 1 else 0.0
            assert abs(diag[k]) > off


def test_maximum_principle_nonnegative_rhs(default_params):
    for _ in range(5):
        c = RNG.uniform(0.0, 2.0, size=3)
        rhs = lambda t: c[0] + c[1] * np.asarray(t) ** 2 + c[2] * (1 - np.asarray(t))
        u = solve_linear_fd(LinearBVP(default_params, rhs, 257))
        assert (u.values >= -1e-14).all()


def test_grid_size_floor():
    with pytest.raises(ValueError):
        LinearBVP(KernelParams.default(), lambda t: t, 8)


def _dense(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


@pytest.mark.parametrize("m", [16, 257, 4097])
@pytest.mark.parametrize("robin", [True, False], ids=["robin", "dirichlet"])
def test_tridiagonal_solve_matches_dense_solve(m, robin):
    ends = 1.0 if robin else 0.0  # beta = delta = 0 gives Dirichlet rows
    bvp = LinearBVP(KernelParams(1.0, ends, 1.0, ends, 1.3, 3),
                    lambda t: np.sin(3.0 * t) + 1.0, m)
    ab, rhs, _ = build_system(bvp)
    A = _dense(ab)
    u = solve_linear_fd(bvp).values
    eps = np.finfo(float).eps
    # a stable elimination leaves a residual of a few ulps of |A| |u|
    scale = np.max(np.abs(A).sum(axis=1)) * np.max(np.abs(u)) + np.max(np.abs(rhs))
    assert np.max(np.abs(A @ u - rhs)) <= 2.0 * eps * scale
    # A is an M-matrix (positive diagonal, nonpositive off-diagonal, strictly
    # diagonally dominant rows), so |A^-1|_inf = max(A^-1 1) comes from the
    # same dense solve
    dense, inv_ones = np.linalg.solve(A, np.stack([rhs, np.ones(m)], axis=1)).T
    gap = np.max(np.abs(u - dense)) / np.max(np.abs(dense))
    if robin:
        assert gap <= 1e-12
    else:
        # the unit Dirichlet row makes A ill-conditioned, and two pivoted
        # eliminations then agree only to about cond(A) eps
        kappa = np.max(np.abs(A).sum(axis=1)) * np.max(inv_ones)
        assert gap <= max(1e-12, kappa * eps)


def test_tridiagonal_solve_reproduces_lapack_banded_solve():
    linalg = pytest.importorskip("scipy.linalg")
    for _ in range(20):
        a, b, g, d = RNG.uniform(0.1, 10.0, size=4) * (RNG.random(4) > 0.3)
        p = KernelParams(a + 0.1, b, g + 0.1, d, RNG.uniform(0.1, 20.0), 3)
        bvp = LinearBVP(p, lambda t: np.cos(7.0 * t) + 0.5, int(RNG.integers(16, 2000)))
        ab, rhs, _ = build_system(bvp)
        assert np.array_equal(solve_linear_fd(bvp).values, linalg.solve_banded((1, 1), ab, rhs))
