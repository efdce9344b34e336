"""Grid functions on [a, b] with piecewise-linear interpolation.

Shared by the fixed-point solver and the finite-difference oracle so the two
sides compare solutions without converting representations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridFunction", "trapezoid_weights", "sup_distance"]


@dataclass
class GridFunction:
    """Sampled scalar function; strictly increasing nodes, finite values."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        # keep the values' floating dtype: extended-precision components rely
        # on their representation surviving construction
        self.values = np.asarray(self.values)
        if self.values.dtype.kind != "f":
            self.values = self.values.astype(float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be matching 1-D arrays")
        if self.nodes.size < 2:
            raise ValueError("need at least two nodes")
        # one bool per node and no float difference; the verdict is that of
        # np.diff(nodes) > 0 for every input, NaN and infinities included
        if not (self.nodes[1:] > self.nodes[:-1]).all():
            raise ValueError("nodes must increase strictly")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    @classmethod
    def constant(cls, nodes, level: float) -> "GridFunction":
        nodes = np.asarray(nodes, dtype=float)
        return cls(nodes, np.full(nodes.shape, float(level)))


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for arbitrary strictly increasing nodes."""
    h = np.diff(nodes)
    w = np.zeros_like(nodes)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def sup_distance(u: GridFunction, v: GridFunction) -> float:
    """Node-wise sup metric."""
    return float(np.max(np.abs(u.values - v.values)))
