import numpy as np
import pytest
from conftest import per_node_green_representation

from annulus_radial.kernel import KernelParams, varrho
from annulus_radial.oracle import (
    LinearBVP,
    _green_representation,
    build_system,
    green_consistency,
    solve_linear_fd,
)

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
    for k in range(10):
        a, b, g, d = RNG.uniform(0.1, 10.0, size=4)
        if k % 3 == 1:
            b = 0.0  # Dirichlet left end
        elif k % 3 == 2:
            d = 0.0  # Dirichlet right end
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
    dense = np.linalg.solve(A, rhs)
    assert np.max(np.abs(u - dense)) / np.max(np.abs(dense)) <= 1e-12
    if not robin:
        assert u[0] == 0.0 and u[-1] == 0.0


def _pivots(ab):
    """Pivots of tridiagonal elimination without row swaps."""
    du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
    for i in range(len(dl)):
        d[i + 1] -= dl[i] / d[i] * du[i]
    return np.array(d)


def test_elimination_needs_no_row_swap():
    # LAPACK's dgtsv swaps a row only when its pivot is smaller than the
    # subdiagonal entry below it; this holds off every swap, so the plain
    # sweep keeps dgtsv's arithmetic where scipy is not there to compare
    rng = np.random.default_rng(41)
    for k in range(40):
        a, b, g, d = rng.uniform(0.1, 10.0, size=4)
        if k % 3 == 0:
            a = 0.0
        elif k % 3 == 1:
            g = 0.0
        elif k % 2:
            b = 0.0
        else:
            d = 0.0
        r0 = float(np.exp(rng.uniform(np.log(1e-6), np.log(50.0))))
        m = int(rng.integers(16, 4098))
        ab, _, _ = build_system(LinearBVP(KernelParams(a, b, g, d, r0, 3),
                                          lambda t: np.ones_like(t), m))
        pivots = _pivots(ab)
        assert (np.abs(pivots[:-1]) >= np.abs(ab[2, :-1])).all(), (k, a, b, g, d, r0, m)
        assert (pivots > 0.0).all()


@pytest.mark.parametrize("r0", [1e-6, 1e-5])
def test_pure_neumann_small_r0_names_the_singular_pivot(r0):
    # alpha = gamma = 0: the last pivot cancels to exactly 0 at this size,
    # which used to surface as a bare ZeroDivisionError
    p = KernelParams(0.0, 1.0, 0.0, 1.0, r0, 3)
    with pytest.raises(ValueError, match="last pivot is 0"):
        green_consistency(p, lambda t: 1.0 + np.sin(3.0 * t), 2122)


@pytest.mark.parametrize("ends", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)],
                         ids=["robin", "dirichlet-left", "dirichlet-right", "dirichlet"])
def test_green_representation_matches_per_node_route(ends):
    rng = np.random.default_rng(43)
    for _ in range(5):
        a, b, g, d = rng.uniform(0.1, 5.0, size=4)
        p = KernelParams(a, b * ends[0], g, d * ends[1], rng.uniform(0.1, 20.0), 3)
        A, B, w = rng.uniform(-2.0, 2.0, size=3)
        rhs = lambda t: A + B * np.sin(w * np.asarray(t, dtype=float))
        # the grid's first and last nodes are s = 0 and s = 1, where one
        # panel has zero width
        nodes = np.linspace(0.0, 1.0, int(rng.integers(16, 300)))
        got = _green_representation(p, nodes, rhs)
        assert np.array_equal(got, per_node_green_representation(p, nodes, rhs))


def test_green_representation_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    p = KernelParams(2.0, 1.0, 1.0, 3.0, 1.5, 3)
    rhs = lambda t: 1.0 + np.sin(3.0 * np.asarray(t, dtype=float))
    nodes = np.array([0.0, 0.125, 0.5, 0.8, 1.0])
    got = _green_representation(p, nodes, rhs)
    with mp.workdps(30):
        r0 = mp.mpf(p.r0)
        rho = (r0**2 * (p.alpha * p.delta + p.beta * p.gamma) * mp.cosh(r0)
               + r0 * (p.alpha * p.gamma + p.beta * p.delta * r0**2) * mp.sinh(r0))
        assert float(rho) == pytest.approx(varrho(p), rel=1e-14)
        phi_mp = lambda x: p.alpha * mp.sinh(r0 * x) + p.beta * r0 * mp.cosh(r0 * x)
        psi_mp = lambda x: (p.gamma * mp.sinh(r0 * (1 - x))
                            + p.delta * r0 * mp.cosh(r0 * (1 - x)))
        f = lambda t: 1 + mp.sin(3 * t)
        for s, value in zip(nodes, got):
            s = mp.mpf(float(s))
            below = mp.quad(lambda t: phi_mp(t) * f(t), [0, s]) if s > 0 else 0
            above = mp.quad(lambda t: psi_mp(t) * f(t), [s, 1]) if s < 1 else 0
            exact = (psi_mp(s) * below + phi_mp(s) * above) / rho
            assert value == pytest.approx(float(exact), rel=1e-12)


def test_tridiagonal_solve_reproduces_lapack_banded_solve():
    linalg = pytest.importorskip("scipy.linalg")
    for _ in range(20):
        a, b, g, d = RNG.uniform(0.1, 10.0, size=4) * (RNG.random(4) > 0.3)
        p = KernelParams(a + 0.1, b, g + 0.1, d, RNG.uniform(0.1, 20.0), 3)
        bvp = LinearBVP(p, lambda t: np.cos(7.0 * t) + 0.5, int(RNG.integers(16, 2000)))
        ab, rhs, _ = build_system(bvp)
        assert np.array_equal(solve_linear_fd(bvp).values, linalg.solve_banded((1, 1), ab, rhs))
