"""Base pseudo-Boolean benchmark functions on bitstrings.

Six untransformed functions: OneMax, LeadingOnes, Linear, LABS, IsingRing
and IsingTriangular.  Inputs are 0/1 vectors; values follow the usual
maximization-style conventions (higher = more structure), which is all the
identification task needs.  Each evaluator maps an (n, d) batch of 0/1 rows
to the (n,) float64 values.  Every sum is of small integers, exact in float64
in any order; LABS ends in one division.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


def one_max(x: np.ndarray) -> np.ndarray:
    return np.sum(x, axis=1)


def leading_ones(x: np.ndarray) -> np.ndarray:
    first_zero = np.argmin(x, axis=1).astype(np.float64)
    return np.where(np.all(x == 1.0, axis=1), float(x.shape[1]), first_zero)


def linear(x: np.ndarray) -> np.ndarray:
    """Weighted counting with weights 1..d."""
    return x @ np.arange(1.0, x.shape[1] + 1.0)


def labs(x: np.ndarray) -> np.ndarray:
    """Merit factor d^2 / (2E) of the +/-1 sequence, E the sidelobe energy."""
    n, d = x.shape
    if d < 2:
        return np.zeros(n)
    s = 2.0 * x - 1.0
    energy = np.zeros(n)
    for k in range(1, d):
        c_k = np.sum(s[:, : d - k] * s[:, k:], axis=1)
        energy += c_k * c_k
    return d * d / (2.0 * energy)


def ising_ring(x: np.ndarray) -> np.ndarray:
    """Number of agreeing neighbor pairs around the ring."""
    neighbor = np.roll(x, -1, axis=1)
    return np.sum(x * neighbor + (1 - x) * (1 - neighbor), axis=1)


def ising_triangular(x: np.ndarray) -> np.ndarray:
    """Agreeing pairs on a periodic triangular lattice; d must be square."""
    side = math.isqrt(x.shape[1])
    grid = x.reshape(-1, side, side)
    total = np.zeros(len(x))
    for shift in ((1, 0), (0, 1), (1, 1)):
        rolled = np.roll(grid, shift=(-shift[0], -shift[1]), axis=(1, 2))
        total += np.sum(grid * rolled + (1 - grid) * (1 - rolled), axis=(1, 2))
    return total


class Function(NamedTuple):
    """One pseudo-Boolean function: its row in ``FUNCTIONS``."""

    name: str
    evaluate: Callable


#: index -> function, in suite order
FUNCTIONS: dict[int, Function] = {
    1: Function("OneMax", one_max),
    2: Function("LeadingOnes", leading_ones),
    3: Function("Linear", linear),
    4: Function("LABS", labs),
    5: Function("IsingRing", ising_ring),
    6: Function("IsingTriangular", ising_triangular),
}


def validate_dim(k: int, d: int) -> None:
    if d < 1 or d > 64:
        raise ValueError(f"bitstring length {d} outside supported range 1..64")
    if k == 6 and math.isqrt(d) ** 2 != d:
        raise ValueError(f"IsingTriangular needs a square lattice; d={d} is not a perfect square")
