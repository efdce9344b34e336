"""Seeded input generator and the references the output checker compares to.

Everything the library sees is a config document produced here (or, for the
audit workload, an example id).  The same seed always gives the same
documents.  References come from closed forms and a composite-Simpson rule
written here, never from the library, so each checked output has a second
route.

Workloads:

* audit      -- the four published examples, ``reproduce(k)`` with k cycling.
* fine-grid  -- one admissible kernel draw certified on a 4001 x 4001 grid,
                plus the example-4 cyclic system on 1,000,001 nodes.
* screen     -- a pool of eight seeded draws (kernel, synthetic power weight
                c*t^a, two sine nonlinearities).  Draw 7 uses r0 > 100 on
                purpose: the solver currently rejects such kernels.
"""

from __future__ import annotations

import copy
import math

import numpy as np

WORKLOADS = ("audit", "fine-grid", "screen")

FINE_CERTIFY_GRID = 4001
FINE_SOLVE_GRID = 1_000_001
SCREEN_CERTIFY_GRID = 101  # the CLI default of `kernel --grid`
SCREEN_SOLVE_GRID = 4097
SCREEN_SOLVE_CUTOFF = 0.01
SCREEN_GREEN_GRID = 257
SCREEN_POOL = 8
SCREEN_LARGE_R0_INDEX = 7  # one draw in eight has r0 > 100
PICARD_TOL = 1e-12
FINE_RECOVER_TOL = 1e-10
SIMPSON_PANELS = 200_000

# The published example 4 (uniqueness) as a config document; fine-grid
# solves it on a much finer grid.
EXAMPLE4 = {
    "kernel": {"alpha": 1, "beta": 1, "gamma": 1, "delta": 1, "r0": 1.0,
               "N": 3, "R1": 1.0, "R2": 2.0},
    "weights": {"factors": ["1/(t+1)", "1/(t+1)"], "p": [2, 2]},
    "system": {"n": 2, "g": ["cos(u)/10000", "u/(10000*(u+1))"]},
    "numerics": {"p": 2, "q": 2, "cutoff": 1e-3, "grid_size": FINE_SOLVE_GRID,
                 "tol": PICARD_TOL, "max_iter": 200},
    "windows": {"K": 1e-4},
}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# closed forms of the Robin kernel (independent of the library's kernel.py)
# ---------------------------------------------------------------------------


class ClosedKernel:
    """phi, psi, varrho, wp and cone_floor straight from their definitions."""

    def __init__(self, alpha, beta, gamma, delta, r0):
        self.a, self.b, self.g, self.d, self.r0 = alpha, beta, gamma, delta, r0

    def phi(self, x):
        r0 = self.r0
        return self.a * np.sinh(r0 * x) + self.b * r0 * np.cosh(r0 * x)

    def psi(self, x):
        r0 = self.r0
        return self.g * np.sinh(r0 * (1 - x)) + self.d * r0 * np.cosh(r0 * (1 - x))

    @property
    def varrho(self) -> float:
        a, b, g, d, r0 = self.a, self.b, self.g, self.d, self.r0
        return (r0 ** 2 * (a * d + b * g) * math.cosh(r0)
                + r0 * (a * g + b * d * r0 ** 2) * math.sinh(r0))

    def _ratios(self):
        return (self.b * self.r0 / float(self.phi(1.0)),
                self.d * self.r0 / float(self.psi(0.0)))

    @property
    def wp(self) -> float:
        return max(self._ratios())

    @property
    def cone_floor(self) -> float:
        return min(self._ratios())

    def diag(self, t):
        t = np.asarray(t, dtype=float)
        return self.phi(t) * self.psi(t) / self.varrho

    def diag_slope0(self) -> float:
        a, b, g, d, r0 = self.a, self.b, self.g, self.d, self.r0
        psi0 = g * math.sinh(r0) + d * r0 * math.cosh(r0)
        dpsi0 = -r0 * (g * math.cosh(r0) + d * r0 * math.sinh(r0))
        return (r0 * a * psi0 + b * r0 * dpsi0) / self.varrho

    def matrix(self, s, t):
        lo = np.minimum(s[:, None], t[None, :])
        hi = np.maximum(s[:, None], t[None, :])
        return self.phi(lo) * self.psi(hi) / self.varrho


def kernel_of(doc: dict) -> ClosedKernel:
    k = doc["kernel"]
    return ClosedKernel(float(k["alpha"]), float(k["beta"]), float(k["gamma"]),
                        float(k["delta"]), float(k["r0"]))


def simpson(f, a: float, b: float, panels: int = SIMPSON_PANELS) -> float:
    x = np.linspace(a, b, panels + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / panels
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-2:2].sum()))


def simpson_singular(f, exponent: float, panels: int = SIMPSON_PANELS) -> float:
    """Integral over (0, 1] of f ~ t^exponent (exponent > -1) after the
    substitution t = x^k, k = 2/(1+exponent), which makes the integrand
    vanish linearly at x = 0."""
    k = 2.0 / (1.0 + exponent)

    def g(x):
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = f(xp ** k) * k * xp ** (k - 1.0)
        return out

    return simpson(g, 0.0, 1.0, panels)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def audit_inputs(seed: int) -> dict:
    """The example order starts at a seeded example and cycles."""
    start = int(rng_for("audit", seed).integers(4))
    return {"examples": [1 + (start + i) % 4 for i in range(4)]}


# ---------------------------------------------------------------------------
# fine-grid
# ---------------------------------------------------------------------------


def fine_grid_inputs(seed: int) -> dict:
    rng = rng_for("fine-grid", seed)
    a, b, g, d = (round(float(v), 6) for v in rng.uniform(0.1, 10.0, size=4))
    r0 = round(float(rng.uniform(0.1, 5.0)), 6)
    kernel_doc = {"kernel": {"alpha": a, "beta": b, "gamma": g, "delta": d,
                             "r0": r0, "N": 3}}
    return {"kernel_doc": kernel_doc, "system_doc": copy.deepcopy(EXAMPLE4)}


def fine_grid_references(inputs: dict) -> dict:
    kd = kernel_of(inputs["kernel_doc"])
    ks = kernel_of(inputs["system_doc"])
    return {
        "kernel": {"varrho": kd.varrho, "wp": kd.wp, "cone_floor": kd.cone_floor},
        "system": {"varrho": ks.varrho, "wp": ks.wp, "cone_floor": ks.cone_floor},
    }


# ---------------------------------------------------------------------------
# screen
# ---------------------------------------------------------------------------

# Integrand exponents in (-1.1, -0.3) sit in the quadrature classifier's
# conservative band: a power times a smooth non-power factor there comes
# back `cutoff_limited` although it converges (measured: t^-0.45 * exp(-t)
# already does).  The two weight classes keep every integrand exponent the
# constants use (a, 2a) outside it, on either side of -1.
_CONVERGENT_A = (-0.15, -0.05)  # a and 2a > -0.3: every ingredient converges
_DIVERGENT_A = (-0.8, -0.6)     # 2a < -1.2: the L^2 norms of the weight diverge


def _lambda_estimate(k: ClosedKernel, c: float, a: float, cutoff: float) -> float:
    """Spectral radius of v -> int Xi(., t) c t^a v(t) dt on [cutoff, 1],
    by power iteration on a 257-node trapezoid discretisation."""
    s = np.linspace(cutoff, 1.0, 257)
    w = np.full(s.size, s[1] - s[0])
    w[0] = w[-1] = 0.5 * (s[1] - s[0])
    A = k.matrix(s, s) * (w * c * s ** a)[None, :]
    v = np.ones(s.size)
    lam = 0.0
    for _ in range(200):
        nv = A @ v
        lam = float(np.max(np.abs(nv)))
        v = nv / lam
    return lam


def _sup_status(k: ClosedKernel):
    """Expected ladder status of sup Xi(t,t) over (0, 1], or None when the
    draw sits on the classifier's borderline.

    The ladder marks a supremum converged when its last two cutoffs agree to
    tol; a supremum approached at t -> 0 with a visible slope moves between
    1e-7 and 1e-8 and is marked cutoff_limited, though it is finite.
    """
    t = np.linspace(0.0, 1.0, 100_001)
    vals = k.diag(t)
    i = int(np.argmax(vals))
    # refine around the grid maximum: boundary layers of width 1/r0 make a
    # 1e-5 grid too coarse for a 1e-8 reference at r0 > 100
    fine = np.linspace(t[max(i - 1, 0)], t[min(i + 1, t.size - 1)], 20_001)
    top = max(float(vals[i]), float(k.diag(fine).max()))
    if float(vals[0]) < top * (1.0 - 1e-6):
        return "converged", top
    drift = abs(k.diag_slope0()) * 9e-8
    if i == 0 and drift > 10.0 * 1e-9 * max(1.0, top):
        return "cutoff_limited", top
    return None, top


def _screen_draw(rng: np.random.Generator, index: int) -> dict:
    large = index == SCREEN_LARGE_R0_INDEX
    divergent = index % 2 == 1
    while True:
        a_, b_, g_, d_ = (round(float(v), 6) for v in rng.uniform(0.2, 5.0, size=4))
        r0 = round(float(rng.uniform(101.0, 130.0) if large else rng.uniform(0.2, 1.0)), 6)
        lo, hi = _DIVERGENT_A if divergent else _CONVERGENT_A
        a = round(float(rng.uniform(lo, hi)), 6)
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        rate = float(np.exp(rng.uniform(np.log(0.02), np.log(0.4))))
        a1 = round(float(rng.uniform(0.2, 3.0)), 6)
        a2 = round(float(rng.uniform(3.5, 50.0)), 6)  # above every a1
        green = [round(float(v), 6) for v in
                 (rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 6.0))]
        k = ClosedKernel(a_, b_, g_, d_, r0)
        sup_status, _ = _sup_status(k)
        if sup_status is None:
            continue
        lam = _lambda_estimate(k, c, a, SCREEN_SOLVE_CUTOFF)
        K = float(f"{math.sqrt(rate) / lam:.6g}")
        b1 = float(f"{K * rng.uniform(1.2, 3.0):.6g}")
        b2 = float(f"{K * rng.uniform(1.2, 3.0):.6g}")
        doc = {
            "kernel": {"alpha": a_, "beta": b_, "gamma": g_, "delta": d_, "r0": r0,
                       "N": 3},
            "weights": {"synthetic": f"{c!r}*t^({a!r})"},
            "system": {"n": 2, "g": [f"{b1!r} + {K!r}*sin(u)", f"{b2!r} + {K!r}*sin(u)"]},
            "numerics": {"grid_size": SCREEN_SOLVE_GRID, "cutoff": SCREEN_SOLVE_CUTOFF,
                         "tol": PICARD_TOL, "max_iter": 200, "p": 2, "q": 2},
            "windows": {"a1": a1, "a2": a2, "K": K},
        }
        draw = {"index": index, "doc": doc, "c": c, "a": a, "b": (b1, b2), "K": K,
                "green": green, "sup_status": sup_status, "large_r0": large}
        # a coarse reference suffices to keep window margins away from zero
        if _windows_decisive(screen_reference(draw, panels=4000)):
            return draw


def screen_inputs(seed: int) -> dict:
    rng = rng_for("screen", seed)
    return {"draws": [_screen_draw(rng, i) for i in range(SCREEN_POOL)]}


def green_rhs(draw: dict):
    A, B, w = draw["green"]
    return lambda t: A + B * np.sin(w * np.asarray(t, dtype=float))


_RANK = {"converged": 0, "cutoff_limited": 1, "divergent_suspected": 2}


def _worst(*statuses):
    return max(statuses, key=_RANK.__getitem__)


def screen_reference(draw: dict, panels: int = SIMPSON_PANELS) -> dict:
    """Expected statuses and values of one screen draw (q = p = 2, n = 2).

    Convergence classes follow from the drawn exponent: int t^e converges
    iff e > -1.  The weight omega = c t^a is decreasing, so its infimum is
    omega(1) = c.
    """
    k = kernel_of(draw["doc"])
    c, a, K = draw["c"], draw["a"], draw["K"]
    omega = lambda t: c * t ** a
    d1 = simpson(k.diag, 0.0, 1.0, panels)
    dq = math.sqrt(simpson(lambda t: k.diag(t) ** 2, 0.0, 1.0, panels))
    _, dsup = _sup_status(k)
    w1 = simpson_singular(omega, a, panels)
    y1 = simpson_singular(lambda t: k.diag(t) * omega(t), a, panels)
    conv2 = 2 * a > -1.0
    w2 = yq = None
    if conv2:
        w2 = math.sqrt(simpson_singular(lambda t: omega(t) ** 2, 2 * a, panels))
        yq = math.sqrt(simpson_singular(
            lambda t: (k.diag(t) * omega(t)) ** 2, 2 * a, panels))

    s_p = "converged" if conv2 else "divergent_suspected"
    s_sup = draw["sup_status"]
    status = {"k1": "converged", "k2": s_p, "k3": _worst(s_sup, s_p), "k4": s_sup}
    value = {
        "k1": k.wp * c * d1,
        "k2": dq * w2 if conv2 else None,
        "k3": dsup * w2 if conv2 else None,
        "k4": dsup * w1,
    }
    for rec, br in (("Q1", "k1"), ("Q2", "k2"), ("N2", "k3"), ("M2", "k4")):
        status[rec] = status[br]
        value[rec] = 1.0 / value[br] if value[br] is not None else None
    for alias, br in (("O1", "k2"), ("O2", "k1"), ("O3", "k3"), ("O4", "k4")):
        status[alias], value[alias] = status[br], value[br]
    for name in status:
        if status[name] != "converged":
            value[name] = None
    contraction = (K ** 3) * y1 ** 2 * yq if conv2 else None
    return {
        "varrho": k.varrho, "wp": k.wp, "cone_floor": k.cone_floor,
        "star": c, "status": status, "value": value,
        "contraction_status": "converged" if conv2 else "divergent_suspected",
        "contraction": contraction,
        "krasnoselskii": _krasnoselskii_expected(draw, status, value),
    }


def _krasnoselskii_expected(draw, status, value) -> list:
    """(hypothesis, verdict, conclusive, margin) per window, in checker order.

    g = b + K sin(u): its max on [0, a2] is b + K sin(min(a2, pi/2)) and,
    for a1 <= pi, its min on [0, a1] is b (at u = 0).
    """
    a1, a2 = draw["doc"]["windows"]["a1"], draw["doc"]["windows"]["a2"]
    K = draw["K"]
    out = []
    for b in draw["b"]:
        top = b + K * math.sin(min(a2, math.pi / 2))
        if status["Q2"] == "converged":
            margin = value["Q2"] * a2 - top
            out.append(("J4", margin >= 0, True, margin))
        else:
            out.append(("J4", False, False, None))
        margin = b - value["Q1"] * a1
        out.append(("J5", margin >= 0, True, margin))
    return out


def _windows_decisive(ref: dict) -> bool:
    for _, _, conclusive, margin in ref["krasnoselskii"]:
        if conclusive and abs(margin) < 1e-2 * max(1.0, abs(margin)):
            return False
    return True


# ---------------------------------------------------------------------------


def inputs(workload: str, seed: int) -> dict:
    if workload == "audit":
        return audit_inputs(seed)
    if workload == "fine-grid":
        return fine_grid_inputs(seed)
    if workload == "screen":
        return screen_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def config_documents(workload: str, inp: dict) -> list:
    """Every config document the workload hands to the library."""
    if workload == "fine-grid":
        return [inp["kernel_doc"], inp["system_doc"]]
    if workload == "screen":
        return [d["doc"] for d in inp["draws"]]
    return []
