import math

import numpy as np
import pytest
from conftest import (
    branchy_hhat,
    branchy_upsilon,
    branchy_weight_ell,
    per_point_singularity_exponent,
)

from annulus_radial import conditions
from annulus_radial.config import config_from_dict
from annulus_radial.exprlang import parse
from annulus_radial.kernel import DomainError, KernelParams, kernel_diag
from annulus_radial.reproduce import example_config
from annulus_radial.solver import ProblemSpec
from annulus_radial.weights import (
    EstimationUnstableWarning,
    TransformSpec,
    WeightSpec,
    kelvin_r,
    kelvin_s,
    singularity_exponent,
    upsilon,
    weight_bundle,
    weight_ell,
)

RNG = np.random.default_rng(7)


def test_kelvin_forward_values():
    ts = TransformSpec(1.0, 3)
    assert kelvin_s(1.0, ts) == pytest.approx(1.0, rel=1e-15)
    assert kelvin_s(2.0, ts) == pytest.approx(0.5, rel=1e-15)
    assert kelvin_s(10.0, TransformSpec(1.0, 4)) == pytest.approx(1e-2, rel=1e-13)


def test_kelvin_inverse_values():
    ts = TransformSpec(1.0, 3)
    assert kelvin_r(1.0, ts) == pytest.approx(1.0, rel=1e-15)
    assert kelvin_r(0.5, ts) == pytest.approx(2.0, rel=1e-15)


def test_kelvin_domain_errors():
    ts = TransformSpec(1.0, 3)
    with pytest.raises(DomainError):
        kelvin_s(0.0, ts)
    with pytest.raises(DomainError):
        kelvin_s(-1.0, ts)
    with pytest.raises(DomainError):
        kelvin_r(0.0, ts)


def test_kelvin_round_trip_random():
    for _ in range(25):
        r0 = RNG.uniform(0.2, 4.0)
        N = int(RNG.integers(3, 8))
        ts = TransformSpec(r0, N)
        s = RNG.uniform(0.01, 1.0, size=8)
        back = kelvin_s(kelvin_r(s, ts), ts)
        assert np.allclose(back, s, rtol=1e-12)


def test_kelvin_monotone_decreasing():
    ts = TransformSpec(1.0, 3)
    r = np.linspace(1.0, 50.0, 200)
    s = kelvin_s(r, ts)
    assert (np.diff(s) < 0).all()


def test_weight_trivial_factors_is_pure_power():
    ts = TransformSpec(1.0, 3)
    ws = WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,))
    for s in (0.1, 0.5, 1.0):
        assert weight_ell(s, ws, ts) == pytest.approx(s**-4.0, rel=1e-13)


def test_weight_example_factors_at_endpoint(example1_weights):
    ts = TransformSpec(1.0, 3)
    val = weight_ell(1.0, example1_weights, ts)
    assert val == pytest.approx(0.5 / math.sqrt(3.0), rel=1e-12)
    assert val == pytest.approx(0.288675, abs=1e-6)


def test_weight_synthetic_override_path():
    ts = TransformSpec(1.0, 3)
    ws = WeightSpec(synthetic_override=parse("1", "t"))
    for s in (1e-6, 0.3, 1.0):
        assert weight_ell(s, ws, ts) == 1.0


def test_weight_positivity(example1_weights):
    ts = TransformSpec(1.0, 3)
    s = np.linspace(1e-4, 1.0, 300)
    assert (np.asarray(weight_ell(s, example1_weights, ts)) > 0).all()


def test_weight_floor_enforced(example1_weights):
    ts = TransformSpec(1.0, 3)
    with pytest.raises(DomainError):
        weight_ell(1e-12, example1_weights, ts)


UNIT_FACTOR = WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,))


def test_xi_hat_values(default_params):
    # xi_hat(t) = Xi(t,t) * t^(2(N-1)/(2-N)) is upsilon with a unit factor
    ts = TransformSpec(1.0, 3)
    assert upsilon(1.0, default_params, UNIT_FACTOR, ts) == pytest.approx(0.5, rel=1e-14)
    expected = float(kernel_diag(default_params, 0.5)) * 16.0
    assert upsilon(0.5, default_params, UNIT_FACTOR, ts) == pytest.approx(expected, rel=1e-14)
    assert upsilon(1e-6, default_params, UNIT_FACTOR, ts) > 1e22  # singular growth
    with pytest.raises(DomainError):
        upsilon(0.0, default_params, UNIT_FACTOR, ts)


def test_upsilon_unit_factors_reduces_to_xi_hat(default_params):
    ts = TransformSpec(1.0, 3)
    t = np.linspace(0.05, 1.0, 40)
    assert np.allclose(
        upsilon(t, default_params, UNIT_FACTOR, ts),
        kernel_diag(default_params, t) * t**-4.0,
        rtol=1e-14,
    )


def test_upsilon_example4_value(default_params, example4_weights):
    ts = TransformSpec(1.0, 3)
    assert upsilon(1.0, default_params, example4_weights, ts) == pytest.approx(
        0.125, rel=1e-13
    )


def test_upsilon_synthetic_is_diagonal(default_params, synthetic_unit_weight):
    ts = TransformSpec(1.0, 3)
    t = np.linspace(0.01, 1.0, 25)
    assert np.allclose(
        upsilon(t, default_params, synthetic_unit_weight, ts),
        kernel_diag(default_params, t),
        rtol=1e-14,
    )


def test_upsilon_consistency_with_factor_product(default_params, example1_weights):
    ts = TransformSpec(1.0, 3)
    t = np.linspace(0.02, 1.0, 60)
    lhs = np.asarray(upsilon(t, default_params, example1_weights, ts))
    factors = weight_bundle(example1_weights, ts)[2]
    rhs = np.asarray(upsilon(t, default_params, UNIT_FACTOR, ts))
    for f in factors:
        rhs = rhs * np.asarray(f(t))
    assert np.allclose(lhs, rhs, rtol=1e-14)


def test_singularity_exponents(example4_weights):
    ts = TransformSpec(1.0, 3)
    unit = WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,))
    assert singularity_exponent(unit, ts) == pytest.approx(-4.0, abs=1e-9)
    assert singularity_exponent(example4_weights, ts) == pytest.approx(-2.0, abs=0.05)
    syn = WeightSpec(synthetic_override=parse("1", "t"))
    assert singularity_exponent(syn, ts) == pytest.approx(0.0, abs=1e-12)


def test_singularity_exponent_warns_when_unstable():
    ts = TransformSpec(1.0, 3)
    wiggly = WeightSpec(synthetic_override=lambda t: 2.0 + np.sin(20.0 * np.log(t)))
    with pytest.warns(EstimationUnstableWarning):
        singularity_exponent(wiggly, ts)


def test_weightspec_validation():
    with pytest.raises(ValueError):
        WeightSpec()  # neither factors nor synthetic
    with pytest.raises(ValueError):
        WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,),
                   synthetic_override=parse("1", "t"))
    with pytest.raises(ValueError):
        WeightSpec(factors=(parse("1", "t"),), p_exponents=(0.5,))
    with pytest.raises(ValueError):
        WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0,),
                   lower_bounds=(0.0,))
    with pytest.raises(ValueError):
        WeightSpec(factors=(parse("1", "t"),), p_exponents=(2.0, 3.0))


def test_transform_validation():
    with pytest.raises(ValueError):
        TransformSpec(0.0, 3)
    with pytest.raises(ValueError):
        TransformSpec(1.0, 2)
    with pytest.raises(ValueError):
        TransformSpec(1.0, 3, R1=2.0, R2=1.0)
    with pytest.raises(ValueError):
        TransformSpec(1.0, 3, R1=1.0)
    ts = TransformSpec(1.0, 3, R1=1.0, R2=3.0)
    assert ts.R2 == 3.0


@pytest.mark.parametrize("field", ["r0", "N", "R1", "R2"])
def test_non_finite_transform_input_is_refused_by_name(field):
    base = dict(r0=1.0, N=3, R1=1.0, R2=3.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TransformSpec(**{**base, field: bad})


# ---------------------------------------------------------------------------
# the weight bundle against the branchy reference routes
# ---------------------------------------------------------------------------

BUNDLE_NODES = np.geomspace(1e-8, 1.0, 65537)
_WEIGHTS = {
    "factors-2": (WeightSpec(factors=(parse("1/(t^2+1)", "t"), parse("1/sqrt(t+2)", "t")),
                             p_exponents=(2.0, 3.0)), 6.0),
    "factor-exp": (WeightSpec(factors=(parse("2 + sin(t)*exp(-t/5)", "t"),),
                              p_exponents=(2.0,)), 2.0),
    "synthetic-power": (WeightSpec(synthetic_override=parse("1.3*t^(-0.41)", "t")), 2.0),
    "synthetic-lambda": (WeightSpec(synthetic_override=lambda t: 2.0 + np.sin(20.0 * np.log(t))),
                         3.0),
}


def _bundle_cases():
    rng = np.random.default_rng(14)
    cases = []
    for N in (3, 4, 5):
        for r0 in (0.1, float(10 ** rng.uniform(-1.0, math.log10(50.0))), 50.0):
            params = KernelParams(*rng.uniform(0.2, 5.0, size=4), r0, N)
            for name in _WEIGHTS:
                cases.append(pytest.param(params, name, id=f"N{N}-r0={r0:.3g}-{name}"))
    return cases


class _Stop(Exception):
    """Raised in place of compute_constants' first integral."""


def _stop_at_integrate(monkeypatch) -> list:
    """Make conditions.integrate raise _Stop; returns the integrands it saw."""
    seen = []

    def first_integral(f, **kwargs):
        seen.append(f)
        raise _Stop

    monkeypatch.setattr(conditions, "integrate", first_integral)
    return seen


def _hhat_of(monkeypatch, params, ws, ts, q):
    """compute_constants' diagonal-weighted integrand."""
    seen = _stop_at_integrate(monkeypatch)
    with pytest.raises(_Stop):
        conditions.compute_constants(params, ws, ts, q)
    return seen[0]


@pytest.mark.parametrize("params, name", _bundle_cases())
def test_bundle_routes_match_branchy_reference(monkeypatch, params, name):
    ws, q = _WEIGHTS[name]
    ts = TransformSpec(params.r0, params.N)
    s = BUNDLE_NODES
    assert np.array_equal(weight_ell(s, ws, ts), branchy_weight_ell(s, ws, ts))
    assert weight_ell(0.37, ws, ts) == float(branchy_weight_ell(0.37, ws, ts))
    assert np.array_equal(upsilon(s, params, ws, ts), branchy_upsilon(s, params, ws, ts))
    assert upsilon(0.37, params, ws, ts) == float(branchy_upsilon(0.37, params, ws, ts))
    hhat = _hhat_of(monkeypatch, params, ws, ts, q)
    assert np.array_equal(hhat(s), branchy_hhat(params, ws)(s))


def test_bundle_parts():
    ts = TransformSpec(2.0, 4)
    omega = parse("1 + t", "t")
    assert weight_bundle(WeightSpec(synthetic_override=omega), ts) == (1.0, 0.0, (omega,))
    ws, _ = _WEIGHTS["factors-2"]
    pref, power, factors = weight_bundle(ws, ts)
    assert (pref, power) == (1.0, -3.0)  # r0^2/(N-2)^2 and 2(N-1)/(2-N)
    assert len(factors) == 2
    assert factors[0](0.25) == ws.factors[0](2.0 * 0.25 ** -0.5)


def test_factor_product_of_synthetic_weight_is_omega():
    """A synthetic weight's single factor is omega itself, whatever the
    transform (it used to raise 'synthetic weight has no factor list')."""
    ws, _ = _WEIGHTS["synthetic-power"]
    s = np.linspace(0.01, 1.0, 50)
    for ts in (TransformSpec(1.7, 4), TransformSpec()):
        assert weight_bundle(ws, ts)[2] == (ws.synthetic_override,)
        assert np.array_equal(weight_ell(s, ws, ts), ws.synthetic_override(s))


@pytest.mark.parametrize("example", [1, 2, 3, 4])
def test_singularity_exponent_matches_per_point_fit(example):
    cfg = config_from_dict(example_config(example))
    assert singularity_exponent(cfg.weights, cfg.transform) == (
        per_point_singularity_exponent(cfg.weights, cfg.transform))


def _entry_points(monkeypatch, params, ws, ts):
    """Every place a weight meets kernel parameters, each stopped or made
    cheap once it is past the r0/N check."""
    def constants():
        _stop_at_integrate(monkeypatch)
        with pytest.raises(_Stop):
            conditions.compute_constants(params, ws, ts, 6.0 if ws.factors else 2.0)

    return {
        "compute_constants": constants,
        "contraction_constants": lambda: conditions.contraction_constants(
            params, ws, ts, 1e-3, 1, 2.0, 2.0),
        "contraction_constants K=0": lambda: conditions.contraction_constants(
            params, ws, ts, 0.0, 1, 2.0, 2.0),
        "upsilon": lambda: upsilon(0.5, params, ws, ts),
        "ProblemSpec": lambda: ProblemSpec(g=(parse("0", "u"),), kernel=params,
                                           weights=ws, transform=ts, grid_size=1025,
                                           cutoff=1e-3, metric_p=2.0),
    }


ENTRY_POINTS = ["compute_constants", "contraction_constants",
                "contraction_constants K=0", "upsilon", "ProblemSpec"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("ts", [TransformSpec(1.0, 3), TransformSpec(1.5, 4)],
                         ids=["r0", "N"])
def test_factor_weight_transform_must_match_kernel(monkeypatch, asym_params,
                                                   example1_weights, entry, ts):
    run = _entry_points(monkeypatch, asym_params, example1_weights, ts)[entry]
    with pytest.raises(ValueError, match="disagrees with the kernel"):
        run()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_synthetic_weight_ignores_transform_r0_and_N(monkeypatch, asym_params,
                                                    synthetic_unit_weight, entry):
    ts = TransformSpec(1.0, 4)  # the kernel has r0 = 1.5, N = 3
    _entry_points(monkeypatch, asym_params, synthetic_unit_weight, ts)[entry]()
