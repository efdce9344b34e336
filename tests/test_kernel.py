import math
import tracemalloc

import numpy as np
import pytest
from conftest import dense_bound_report

from annulus_radial.kernel import (
    DegenerateParametersError,
    DomainError,
    KernelParams,
    cone_floor,
    kernel_diag,
    kernel_eval,
    phi,
    psi,
    varrho,
    verify_kernel_bounds,
    wp,
)

RNG = np.random.default_rng(20240309)


def random_params(n=20):
    out = []
    for _ in range(n):
        a, b, g, d = RNG.uniform(0.1, 10.0, size=4)
        r0 = RNG.uniform(0.1, 5.0)
        out.append(KernelParams(a, b, g, d, r0, 3))
    return out


def test_varrho_default_matches_reported_value(default_params):
    v = varrho(default_params)
    assert v == pytest.approx(5.436563658, abs=1e-8)
    # sinh + cosh collapse to the exponential
    assert v == pytest.approx(2.0 * math.e, rel=1e-14)


def test_varrho_pure_dirichlet_combination():
    p = KernelParams(1.0, 0.0, 1.0, 0.0, 1.0, 3)
    assert varrho(p) == pytest.approx(math.sinh(1.0), rel=1e-14)


def test_params_validation():
    with pytest.raises(DegenerateParametersError):
        KernelParams(0.0, 0.0, 1.0, 1.0, 1.0, 3)
    with pytest.raises(DegenerateParametersError):
        KernelParams(1.0, 1.0, 0.0, 0.0, 1.0, 3)
    with pytest.raises(DegenerateParametersError):
        KernelParams(1.0, 1.0, 1.0, 1.0, -1.0, 3)
    with pytest.raises(DegenerateParametersError):
        KernelParams(1.0, 1.0, 1.0, 1.0, 1.0, 2)
    with pytest.raises(DegenerateParametersError):
        KernelParams(-0.5, 1.0, 1.0, 1.0, 1.0, 3)
    # varrho = inf (r0 = 705) and exp(r0) out of range (r0 = 800)
    for r0 in (705.0, 800.0):
        with pytest.raises(DegenerateParametersError, match="varrho overflows"):
            KernelParams(1.0, 1.0, 1.0, 1.0, r0, 3)


@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta", "r0", "N"])
def test_non_finite_kernel_input_is_refused_by_name(field):
    base = dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, r0=1.0, N=3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateParametersError, match=f"^{field} must be finite"):
            KernelParams(**{**base, field: bad})


def test_kernel_corner_value(default_params):
    assert kernel_eval(default_params, 0.0, 0.0) == pytest.approx(0.5, rel=1e-14)


def test_kernel_symmetry_is_exact(default_params, asym_params):
    for p in (default_params, asym_params, *random_params(5)):
        for s, t in ((0.3, 0.7), (0.0, 1.0), (0.25, 0.9)):
            assert kernel_eval(p, s, t) == kernel_eval(p, t, s)


def test_dirichlet_left_edge_vanishes():
    p = KernelParams(1.0, 0.0, 2.0, 0.0, 1.0, 3)
    for t in np.linspace(0.0, 1.0, 7):
        assert kernel_eval(p, 0.0, float(t)) == 0.0


def test_kernel_domain_errors(default_params):
    with pytest.raises(DomainError):
        kernel_eval(default_params, -0.1, 0.5)
    with pytest.raises(DomainError):
        kernel_eval(default_params, 0.5, 1.2)


def test_kernel_eval_broadcasts_like_scalar_calls(asym_params):
    rng = np.random.default_rng(61)
    sets = [KernelParams(*rng.uniform(0.1, 10.0, size=4), rng.uniform(0.1, 50.0), 3)
            for _ in range(4)]
    for p in (asym_params, KernelParams(1.0, 0.0, 2.0, 0.0, 3.0, 3), *sets):
        s = np.concatenate([[0.0, 1.0, 0.5], rng.random(20)])
        t = np.concatenate([[1.0, 0.0, 0.5], rng.random(20)])
        pairwise = kernel_eval(p, s, t)
        assert np.array_equal(pairwise, [kernel_eval(p, float(a), float(b))
                                         for a, b in zip(s, t)])
        outer = kernel_eval(p, s[:, None], s[None, :])
        assert np.array_equal(outer, [[kernel_eval(p, float(a), float(b)) for b in s]
                                      for a in s])
        assert type(kernel_eval(p, 0.25, 0.75)) is float


def test_kernel_domain_error_names_the_first_bad_pair(default_params):
    s = np.array([0.2, 0.4, -0.5, 2.0])
    with pytest.raises(DomainError, match=r"got \(-0\.5, 0\.3\)"):
        kernel_eval(default_params, s, 0.3)
    # the first in row-major order of the broadcast shape
    with pytest.raises(DomainError, match=r"got \(0\.2, 1\.5\)"):
        kernel_eval(default_params, s[:2, None], np.array([0.1, 1.5]))
    for bad in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            kernel_eval(default_params, 0.5, bad)
        with pytest.raises(DomainError):
            x = np.array([0.0, bad, 1.0])
            kernel_eval(default_params, x[:, None], x[None, :])


def test_wp_values(default_params):
    assert wp(default_params) == pytest.approx(1.0 / math.e, abs=1e-12)
    assert wp(KernelParams(1.0, 0.0, 1.0, 0.0, 1.0, 3)) == 0.0
    p = KernelParams(0.0, 1.0, 0.0, 1.0, 1.0, 3)
    assert wp(p) == pytest.approx(1.0 / math.cosh(1.0), rel=1e-14)


def test_wp_within_unit_interval():
    for p in random_params(20):
        assert 0.0 <= wp(p) <= 1.0
        assert 0.0 <= cone_floor(p) <= wp(p)


def test_bound_report_default_grid(default_params):
    rep = verify_kernel_bounds(default_params, 101)
    assert rep.all_passed
    assert rep.max_negativity <= 1e-12
    assert rep.max_excess_over_diagonal <= 1e-12
    assert rep.max_lower_bound_violation <= 1e-12


def test_bound_report_dirichlet_lower_bound_vacuous():
    rep = verify_kernel_bounds(KernelParams(1.0, 0.0, 1.0, 0.0, 1.0, 3), 101)
    assert rep.all_passed
    assert rep.wp_used == 0.0


def test_bounds_hold_for_random_draws():
    for p in random_params(20):
        rep = verify_kernel_bounds(p, 101)
        assert rep.all_passed, p


def admissible_draw(rng):
    """Boundary weights with some Dirichlet-type zeros, r0 log-uniform in
    [1e-4, 300]."""
    a, b, g, d = rng.uniform(0.0, 10.0, size=4)
    zero = rng.integers(0, 4)
    a = 0.0 if zero in (1, 3) else a
    g = 0.0 if zero in (2, 3) else g
    b = 0.0 if a > 0.0 and rng.random() < 0.2 else b
    d = 0.0 if g > 0.0 and rng.random() < 0.2 else d
    return KernelParams(a, b, g, d, float(10.0 ** rng.uniform(-4.0, math.log10(300.0))), 3)


def test_certificate_matches_dense_reference():
    rng = np.random.default_rng(20261017)
    for k in range(120):
        p = admissible_draw(rng)
        m = (101, 401)[k % 2]
        assert verify_kernel_bounds(p, m).to_dict() == dense_bound_report(p, m).to_dict(), p


def test_certificate_fine_grid_is_linear_memory(asym_params):
    tracemalloc.start()
    try:
        rep = verify_kernel_bounds(asym_params, 4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20  # the dense 4001 x 4001 check peaks near 730 MB
    assert rep.to_dict() == dense_bound_report(asym_params, 4001).to_dict()


def test_certificate_near_flat_kernel_verdicts():
    # alpha = gamma = 0 with r0 = 1e-6 makes Xi ~ 1e12 and nearly constant:
    # one ulp of Xi is 2^-13 ~ 1.2e-4, so the absolute tol 1e-12 lies below
    # rounding and both routes' verdicts are rounding noise.  The dense route
    # also fails (iii) here; the O(m) route reports (ii) failing by one ulp.
    p = KernelParams(0.0, 1.0, 0.0, 1.0, 1e-6, 3)
    ulp = float(np.spacing(kernel_diag(p, 0.0)))
    assert ulp == 2.0**-13
    rep = verify_kernel_bounds(p, 101)
    assert rep.passed == (True, False, True)
    assert rep.max_excess_over_diagonal == ulp
    assert dense_bound_report(p, 101).passed == (True, False, False)


def test_max_ratio_constant_fails_where_min_succeeds():
    # documents why certification uses the min of the boundary ratios: with
    # strongly asymmetric ends the max variant violates the lower bound
    p = KernelParams(10.0, 0.1, 0.1, 10.0, 1.0, 3)
    nodes = np.linspace(0.0, 1.0, 51)
    M = kernel_eval(p, nodes[:, None], nodes[None, :])
    diag = np.diag(M)
    floor_violation = float((cone_floor(p) * diag[None, :] - M).max())
    max_violation = float((wp(p) * diag[None, :] - M).max())
    assert floor_violation <= 1e-12
    assert max_violation > 1e-3


def test_matrix_agrees_with_pointwise(asym_params):
    nodes = np.linspace(0.0, 1.0, 17)
    M = kernel_eval(asym_params, nodes[:, None], nodes[None, :])
    for i in (0, 5, 16):
        for j in (0, 3, 16):
            assert M[i, j] == pytest.approx(
                kernel_eval(asym_params, float(nodes[i]), float(nodes[j])),
                rel=1e-14,
            )


def test_kernel_solves_homogeneous_ode_off_diagonal(default_params, asym_params):
    # second difference of s -> Xi(s, t) equals r0^2 Xi + O(h^2) away from t
    for p in (default_params, asym_params):
        t = 0.618
        errs = []
        for h in (1e-3, 5e-4):
            s = 0.25
            d2 = (
                kernel_eval(p, s - h, t)
                - 2.0 * kernel_eval(p, s, t)
                + kernel_eval(p, s + h, t)
            ) / h**2
            errs.append(abs(d2 - p.r0**2 * kernel_eval(p, s, t)))
        assert errs[0] < 1e-5
        assert errs[1] < errs[0]


def test_wronskian_identity():
    # phi' and psi' by mpmath's differentiation of the closed forms
    mp = pytest.importorskip("mpmath")
    for p in (KernelParams.default(), *random_params(5)):
        a, b, g, d, r0 = map(mp.mpf, (p.alpha, p.beta, p.gamma, p.delta, p.r0))
        v = varrho(p)
        for x in np.linspace(0.0, 1.0, 9):
            dphi = mp.diff(lambda y: a * mp.sinh(r0 * y) + b * r0 * mp.cosh(r0 * y), x)
            dpsi = mp.diff(lambda y: g * mp.sinh(r0 * (1 - y)) + d * r0 * mp.cosh(r0 * (1 - y)), x)
            w = float(phi(p, x)) * float(dpsi) - float(dphi) * float(psi(p, x))
            assert w == pytest.approx(-v, rel=1e-10)


def test_large_r0_does_not_overflow():
    p = KernelParams(1.0, 1.0, 1.0, 1.0, 500.0, 3)
    d = kernel_diag(p, np.linspace(0.0, 1.0, 11))
    assert np.isfinite(d).all()
    assert (d >= 0.0).all()
    v = kernel_eval(p, 0.1, 0.9)
    assert 0.0 <= v <= float(kernel_diag(p, 0.9))
    assert 0.0 <= wp(p) <= 1.0


def test_diagonal_tie_goes_to_first_branch(default_params):
    # both branches agree on the diagonal, so the tie is invisible
    for t in (0.0, 0.37, 1.0):
        expected = float(
            phi(default_params, t) * psi(default_params, t) / varrho(default_params)
        )
        assert kernel_eval(default_params, t, t) == pytest.approx(expected, rel=1e-14)
