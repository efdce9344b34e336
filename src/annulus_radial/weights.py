"""Kelvin-type change of variables and the transformed weight.

The radial variable r > 0 maps to s = (r/r0)^(2-N), sending the annulus edge
r = r0 to s = 1 and r -> infinity to s -> 0.  In the s variable the equation's
weight becomes

    ell(s) = r0^2/(N-2)^2 * s^(2(N-1)/(2-N)) * prod_i f_i(r0 * s^(1/(2-N)))

where f_i are the raw radial factors.  The power s^(2(N-1)/(2-N)) is singular
at s = 0 (s^-4 for N = 3), so every evaluation is restricted to a positive
floor.  A synthetic override replaces the whole weight bundle with a given
omega(s), which keeps the solver and its oracles testable on integrable
weights.

weight_bundle is the one place the weight is composed: it returns the
prefactor, the power and the factors as functions of s, with omega standing
in as (1, 0, (omega,)).  Every other weight quantity here and in conditions
reads it.  The prefactor takes r0 and N from the TransformSpec, so where a
factor weight meets KernelParams the two must agree on r0 and N; a synthetic
weight uses neither and is exempt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exprlang import Expr
from .kernel import DomainError, KernelParams, kernel_diag
from .quadrature import DEFAULT_CUTOFFS

__all__ = [
    "TransformSpec",
    "WeightSpec",
    "EstimationUnstableWarning",
    "kelvin_s",
    "kelvin_r",
    "singular_power",
    "weight_bundle",
    "factor_product",
    "weight_ell",
    "xi_hat",
    "upsilon",
    "singularity_exponent",
    "DEFAULT_EVAL_FLOOR",
]

DEFAULT_EVAL_FLOOR = 1e-8
_RESIDUAL_THRESHOLD = 0.1  # log10 units: rms residual of an unstable exponent fit


class EstimationUnstableWarning(UserWarning):
    """Log-log exponent fit had a large residual."""


@dataclass(frozen=True)
class TransformSpec:
    """Radial scale r0, dimension N, optional annulus radii for reporting."""

    r0: float = 1.0
    N: int = 3
    R1: float | None = None
    R2: float | None = None

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")
        if int(self.N) != self.N or self.N < 3:
            raise ValueError("N must be an integer >= 3 (Kelvin exponent 2-N < 0)")
        if (self.R1 is None) != (self.R2 is None):
            raise ValueError("R1 and R2 must be given together")
        if self.R1 is not None and not (0 < self.R1 < self.R2):
            raise ValueError("annulus radii need 0 < R1 < R2")


@dataclass(frozen=True)
class WeightSpec:
    """Factor list with summability exponents, or a synthetic override.

    factors are expressions in the raw radial variable t; they are evaluated
    in the transformed variable through t = r0 * s^(1/(2-N)).  lower_bounds
    are the declared per-factor infima (when the user asserts them);
    synthetic_override is an expression in t that replaces the whole weight.
    """

    factors: tuple | None = None
    p_exponents: tuple = ()
    lower_bounds: tuple | None = None
    synthetic_override: Expr | Callable | None = None
    eval_floor: float = DEFAULT_EVAL_FLOOR

    def __post_init__(self):
        if (self.factors is None) == (self.synthetic_override is None):
            raise ValueError(
                "exactly one of factors / synthetic_override must drive the weight"
            )
        if self.factors is not None:
            if len(self.factors) < 1:
                raise ValueError("need at least one factor")
            if len(self.p_exponents) != len(self.factors):
                raise ValueError("p_exponents must match factors one-to-one")
        elif self.p_exponents:
            raise ValueError("synthetic weight takes no summability exponents")
        for p in self.p_exponents:
            if not p >= 1:
                raise ValueError("every summability exponent must be >= 1")
        if self.lower_bounds is not None:
            if self.factors is None or len(self.lower_bounds) != len(self.factors):
                raise ValueError("lower_bounds must match factors one-to-one")
            for lb in self.lower_bounds:
                if not lb > 0:
                    raise ValueError("declared lower bounds must be positive")
        if not (0 < self.eval_floor < 1):
            raise ValueError("eval_floor must lie in (0, 1)")

    @property
    def synthetic(self) -> bool:
        return self.synthetic_override is not None


def kelvin_s(r, ts: TransformSpec):
    """s = (r/r0)^(2-N); strictly decreasing in r for N >= 3."""
    r = np.asarray(r, dtype=float)
    if (r <= 0).any():
        raise DomainError("radial coordinate must be positive")
    out = (r / ts.r0) ** (2.0 - ts.N)
    return float(out) if out.ndim == 0 else out


def kelvin_r(s, ts: TransformSpec):
    """Inverse map r = r0 * s^(1/(2-N)); s = 0 maps to infinity and is rejected."""
    s = np.asarray(s, dtype=float)
    if (s <= 0).any():
        raise DomainError("transformed coordinate must be positive")
    out = ts.r0 * s ** (1.0 / (2.0 - ts.N))
    return float(out) if out.ndim == 0 else out


def singular_power(spec) -> float:
    """Exponent 2(N-1)/(2-N) of the weight's singular power (-4 for N=3);
    spec is a TransformSpec or KernelParams."""
    return 2.0 * (spec.N - 1.0) / (2.0 - spec.N)


def _check_floor(s: np.ndarray, floor: float):
    if (s < floor).any() or (s > 1.0).any():
        raise DomainError(
            f"weight evaluation restricted to [{floor:g}, 1]"
        )


def weight_bundle(ws: WeightSpec, ts: TransformSpec,
                  params: KernelParams | None = None) -> tuple:
    """(prefactor, power, factors) with ell(s) = prefactor * s^power *
    prod_i factors[i](s): factors[i](s) = f_i(r0 * s^(1/(2-N))), or
    (1.0, 0.0, (omega,)) for a synthetic weight.

    With params, a factor weight whose transform disagrees with the kernel
    on r0 or N raises ValueError.
    """
    if ws.synthetic:
        return 1.0, 0.0, (ws.synthetic_override,)
    if params is not None and (ts.r0, ts.N) != (params.r0, params.N):
        raise ValueError(
            f"transform (r0={ts.r0:g}, N={ts.N}) disagrees with the kernel "
            f"(r0={params.r0:g}, N={params.N})"
        )
    inv = 1.0 / (2.0 - ts.N)
    factors = tuple(
        (lambda s, _f=f: _f(ts.r0 * np.asarray(s, dtype=float) ** inv))
        for f in ws.factors
    )
    return ts.r0 ** 2 / (ts.N - 2.0) ** 2, singular_power(ts), factors


def _product(factors, s: np.ndarray) -> np.ndarray:
    out = np.ones(s.shape)
    for f in factors:
        out = out * np.asarray(f(s))
    return out


def factor_product(ws: WeightSpec, s, ts: TransformSpec):
    """Product of all transformed factors at s (omega for a synthetic weight)."""
    s_arr = np.asarray(s, dtype=float)
    out = _product(weight_bundle(ws, ts)[2], s_arr)
    return float(out) if out.ndim == 0 else out


def weight_ell(s, ws: WeightSpec, ts: TransformSpec):
    """Full transformed weight ell(s), or omega(s) in synthetic mode."""
    s_arr = np.asarray(s, dtype=float)
    _check_floor(s_arr, ws.eval_floor)
    pref, power, factors = weight_bundle(ws, ts)
    out = pref * s_arr ** power * _product(factors, s_arr)
    return float(out) if out.ndim == 0 else out


def xi_hat(t, params: KernelParams) -> float:
    """Kernel diagonal times the singular power: Xi(t,t) * t^(2(N-1)/(2-N))."""
    t_arr = np.asarray(t, dtype=float)
    if (t_arr <= 0).any() or (t_arr > 1).any():
        raise DomainError("xi_hat is defined on (0, 1]")
    out = kernel_diag(params, t_arr) * t_arr ** singular_power(params)
    return float(out) if out.ndim == 0 else out


def upsilon(t, params: KernelParams, ws: WeightSpec, ts: TransformSpec):
    """Diagonal-weighted kernel: xi_hat(t) * prod factors, or Xi(t,t)*omega(t)."""
    t_arr = np.asarray(t, dtype=float)
    _check_floor(t_arr, ws.eval_floor)
    _, power, factors = weight_bundle(ws, ts, params)
    out = kernel_diag(params, t_arr) * t_arr ** power * _product(factors, t_arr)
    return float(out) if out.ndim == 0 else out


def singularity_exponent(ws: WeightSpec, ts: TransformSpec) -> float:
    """Estimate e with weight(t) ~ c * t^e as t -> 0+ by a log-log slope fit
    over the cutoff ladder DEFAULT_CUTOFFS.

    e <= -1 signals that the downstream integrals diverge at the endpoint.
    Emits EstimationUnstableWarning when the fit's rms residual exceeds 0.1
    (in log10 units).
    """
    _, power, factors = weight_bundle(ws, ts)
    t = np.asarray(sorted(DEFAULT_CUTOFFS), dtype=float)
    vals = t ** power * _product(factors, t)
    if (vals <= 0).any():
        raise ValueError("exponent fit needs positive weight values")
    logs_t = np.log10(t)
    logs_v = np.log10(vals)
    coef, residuals, *_ = np.polyfit(logs_t, logs_v, 1, full=True)
    slope = float(coef[0])
    rss = float(residuals[0]) if len(residuals) else 0.0
    rms = (rss / len(t)) ** 0.5
    if rms > _RESIDUAL_THRESHOLD:
        warnings.warn(
            f"endpoint exponent fit residual {rms:.3g} exceeds {_RESIDUAL_THRESHOLD}",
            EstimationUnstableWarning,
        )
    return slope
