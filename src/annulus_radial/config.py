"""Problem configuration: JSON document -> validated specs.

Schema (unknown keys anywhere are errors, so typos in hypothesis names fail
loudly instead of silently skipping a check):

    kernel:   alpha, beta, gamma, delta, r0, N, [R1, R2]
    weights:  factors[] | synthetic, p[], [lower_bounds[]]
    system:   n, g[]
    numerics: grid_size, cutoff, tol, max_iter, p, q
    windows:  a1, a2 | a_prime, b_prime, c_prime | K

Weight factors are expressions in t, nonlinearities in u (see exprlang).
Every number must be finite, except the Holder exponents weights.p and
numerics.q, which may be Infinity; NaN and -Infinity are rejected everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .exprlang import ExprError, parse
from .kernel import DegenerateParametersError, KernelParams
from .solver import ProblemSpec
from .weights import TransformSpec, WeightSpec

__all__ = ["ConfigError", "AppConfig", "load_config", "config_from_dict"]


class ConfigError(ValueError):
    """Malformed or inconsistent problem configuration."""


_SECTIONS = {
    "kernel": {"alpha", "beta", "gamma", "delta", "r0", "N", "R1", "R2"},
    "weights": {"factors", "p", "lower_bounds", "synthetic"},
    "system": {"n", "g"},
    "numerics": {"grid_size", "cutoff", "tol", "max_iter", "p", "q"},
    "windows": {"a1", "a2", "a_prime", "b_prime", "c_prime", "K"},
}

_NUMERICS_DEFAULTS = {
    "grid_size": 1025,
    "cutoff": 1e-3,
    "tol": 1e-10,
    "max_iter": 200,
    "p": 2.0,
    "q": 2.0,
}


def _require_number(section: str, key: str, value, infinite_ok: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    number = float(value)
    if math.isnan(number):
        raise ConfigError(f"{section}.{key} must not be NaN")
    if math.isinf(number) and not (infinite_ok and number > 0):
        raise ConfigError(f"{section}.{key} must be finite, got {number!r}")
    return number


def _require_int(section: str, key: str, value) -> int:
    number = _require_number(section, key, value)
    if not number.is_integer():
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return int(number)


def _check_keys(name: str, mapping: dict):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    unknown = set(mapping) - _SECTIONS[name]
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {sorted(unknown)}")


@dataclass
class AppConfig:
    kernel: KernelParams
    transform: TransformSpec
    weights: WeightSpec
    n: int
    g: tuple
    numerics: dict
    windows: dict

    def problem_spec(self) -> ProblemSpec:
        return ProblemSpec(
            n=self.n,
            g=self.g,
            kernel=self.kernel,
            weights=self.weights,
            transform=self.transform,
            grid_size=int(self.numerics["grid_size"]),
            cutoff=float(self.numerics["cutoff"]),
            metric_p=float(self.numerics["p"]),
        )


def config_from_dict(doc: dict) -> AppConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a mapping")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    if "kernel" not in doc:
        raise ConfigError("missing required section 'kernel'")

    kernel_doc = doc["kernel"]
    _check_keys("kernel", kernel_doc)
    try:
        kernel = KernelParams(
            alpha=_require_number("kernel", "alpha", kernel_doc.get("alpha", 1.0)),
            beta=_require_number("kernel", "beta", kernel_doc.get("beta", 1.0)),
            gamma=_require_number("kernel", "gamma", kernel_doc.get("gamma", 1.0)),
            delta=_require_number("kernel", "delta", kernel_doc.get("delta", 1.0)),
            r0=_require_number("kernel", "r0", kernel_doc.get("r0", 1.0)),
            N=_require_int("kernel", "N", kernel_doc.get("N", 3)),
        )
    except DegenerateParametersError as exc:
        raise ConfigError(f"kernel parameters rejected: {exc}") from exc
    R1 = kernel_doc.get("R1")
    R2 = kernel_doc.get("R2")
    if R1 is not None:
        R1 = _require_number("kernel", "R1", R1)
    if R2 is not None:
        R2 = _require_number("kernel", "R2", R2)
    try:
        transform = TransformSpec(r0=kernel.r0, N=kernel.N, R1=R1, R2=R2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    weights_doc = doc.get("weights", {"synthetic": "1"})
    _check_keys("weights", weights_doc)
    factors_src = weights_doc.get("factors")
    synthetic_src = weights_doc.get("synthetic")
    if (factors_src is None) == (synthetic_src is None):
        raise ConfigError("weights needs exactly one of 'factors' or 'synthetic'")
    try:
        if synthetic_src is not None:
            if weights_doc.get("p") or weights_doc.get("lower_bounds"):
                raise ConfigError("synthetic weight takes no p/lower_bounds lists")
            weights = WeightSpec(synthetic_override=parse(str(synthetic_src), "t"))
        else:
            if not isinstance(factors_src, list) or not factors_src:
                raise ConfigError("weights.factors must be a nonempty list")
            factors = tuple(parse(str(src), "t") for src in factors_src)
            p_list = weights_doc.get("p")
            if not isinstance(p_list, list) or len(p_list) != len(factors):
                raise ConfigError("weights.p must list one exponent per factor")
            p_exp = tuple(
                math.inf if str(v).lower() in ("inf", "infinity") else
                _require_number("weights", "p", v, infinite_ok=True)
                for v in p_list
            )
            lb = weights_doc.get("lower_bounds")
            lower = None
            if lb is not None:
                if not isinstance(lb, list) or len(lb) != len(factors):
                    raise ConfigError("weights.lower_bounds must match factors")
                lower = tuple(_require_number("weights", "lower_bounds", v) for v in lb)
            weights = WeightSpec(
                factors=factors, p_exponents=p_exp, lower_bounds=lower
            )
    except ExprError as exc:
        raise ConfigError(f"weight expression rejected: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    system_doc = doc.get("system", {"n": 1, "g": ["0"]})
    _check_keys("system", system_doc)
    n = _require_int("system", "n", system_doc.get("n", 1))
    if n < 1:
        raise ConfigError("system.n must be a positive integer")
    g_src = system_doc.get("g", ["0"])
    if not isinstance(g_src, list) or len(g_src) != n:
        raise ConfigError("system.g must list exactly n expressions")
    try:
        g = tuple(parse(str(src), "u") for src in g_src)
    except ExprError as exc:
        raise ConfigError(f"nonlinearity expression rejected: {exc}") from exc

    numerics_doc = doc.get("numerics", {})
    _check_keys("numerics", numerics_doc)
    numerics = dict(_NUMERICS_DEFAULTS)
    for key, value in numerics_doc.items():
        if key in ("grid_size", "max_iter"):
            numerics[key] = _require_int("numerics", key, value)
        else:
            numerics[key] = _require_number("numerics", key, value, infinite_ok=key == "q")
    if numerics["grid_size"] < 16:
        raise ConfigError("numerics.grid_size must be >= 16")
    if not (0.0 < numerics["cutoff"] < 1.0):
        raise ConfigError("numerics.cutoff must lie in (0, 1)")
    if numerics["tol"] <= 0:
        raise ConfigError("numerics.tol must be positive")
    if numerics["max_iter"] < 1:
        raise ConfigError("numerics.max_iter must be >= 1")

    windows_doc = doc.get("windows", {})
    _check_keys("windows", windows_doc)
    windows = {
        key: _require_number("windows", key, value)
        for key, value in windows_doc.items()
    }

    return AppConfig(
        kernel=kernel,
        transform=transform,
        weights=weights,
        n=n,
        g=g,
        numerics=numerics,
        windows=windows,
    )


def load_config(path: str | Path) -> AppConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
