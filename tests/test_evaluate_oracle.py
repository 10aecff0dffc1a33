"""Byte oracle for the batched objective evaluators, and the evaluate shape contract.

The scalar reference below is the per-point code that first made every
pinned digest, kept verbatim: f1-f24 with their nonlinearities, and the six
pseudo-Boolean functions.  ``evaluate`` on an (n, d) batch must give each
row the float64 bytes this reference gives that point alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from funcid import rng
from funcid.suite import core
from funcid.suite import (
    Suite,
    SuiteError,
    evaluate,
    list_functions,
    make_instance,
    problem,
)

BBOB = Suite.CONTINUOUS_BBOB
PB = Suite.DISCRETE_PB

ORACLE_DIMS = [2, 3, 5, 8, 22, 40]
ORACLE_SEEDS = [0, 1, 7, 12345]
DISCRETE_DIMS = [1, 2, 4, 9, 16, 64]

_SCHWEFEL_X = 4.2096874633
_SCHWEFEL_Z = 100.0 * 2.0 * _SCHWEFEL_X / 2.0
_SCHWEFEL_C = _SCHWEFEL_Z * math.sin(math.sqrt(_SCHWEFEL_Z)) / 100.0


# -- scalar reference ---------------------------------------------------------


def _lin(d: int) -> np.ndarray:
    """i/(d-1) for i = 0..d-1 (all zeros when d == 1)."""
    if d == 1:
        return np.zeros(1)
    return np.arange(d, dtype=np.float64) / (d - 1)



def oscillate(v: np.ndarray | float) -> np.ndarray | float:
    """The oscillation nonlinearity T_osz, elementwise."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(divide="ignore"):
        x_hat = np.where(v == 0.0, 0.0, np.log(np.abs(v)))
    c1 = np.where(v > 0.0, 10.0, 5.5)
    c2 = np.where(v > 0.0, 7.9, 3.1)
    out = np.sign(v) * np.exp(x_hat + 0.049 * (np.sin(c1 * x_hat) + np.sin(c2 * x_hat)))
    return out if out.ndim else float(out)


def asymmetrize(v: np.ndarray, beta: float) -> np.ndarray:
    """The asymmetry nonlinearity T_asy^beta, elementwise."""
    d = v.shape[0]
    exponent = 1.0 + beta * _lin(d) * np.sqrt(np.maximum(v, 0.0))
    return np.where(v > 0.0, np.power(np.maximum(v, 0.0), exponent), v)


def boundary_penalty(x: np.ndarray) -> float:
    """Sum of squared overshoots beyond the [-5, 5] box."""
    return float(np.sum(np.square(np.maximum(0.0, np.abs(x) - 5.0))))



def _f01_sphere(p, x):
    z = x - p["x_opt"]
    return float(z @ z)


def _f02_ellipsoidal(p, x):
    z = oscillate(x - p["x_opt"])
    return float(np.sum(p["cond6"] * z * z))


def _f03_rastrigin(p, x):
    z = p["lam10"] * asymmetrize(oscillate(x - p["x_opt"]), 0.2)
    return float(10.0 * (p["d"] - np.sum(np.cos(2.0 * np.pi * z))) + z @ z)


def _f04_bueche_rastrigin(p, x):
    z = oscillate(x - p["x_opt"])
    s = p["s_base"].copy()
    boost = (z > 0.0) & (np.arange(p["d"]) % 2 == 0)
    s[boost] *= 10.0
    z = s * z
    core = 10.0 * (p["d"] - np.sum(np.cos(2.0 * np.pi * z))) + z @ z
    return float(core + 100.0 * boundary_penalty(x))


def _f05_linear_slope(p, x):
    x_opt = p["x_opt"]
    z = np.where(x_opt * x < 25.0, x, x_opt)
    s = p["slope"]
    return float(np.sum(5.0 * np.abs(s) - s * z))


def _f06_attractive_sector(p, x):
    z = p["Q"] @ (p["lam10"] * (p["R"] @ (x - p["x_opt"])))
    s = np.where(z * p["x_opt"] > 0.0, 100.0, 1.0)
    return float(oscillate(float(np.sum(np.square(s * z)))) ** 0.9)


def _f07_step_ellipsoidal(p, x):
    z_hat = p["lam10"] * (p["R"] @ (x - p["x_opt"]))
    z_tilde = np.where(
        np.abs(z_hat) > 0.5,
        np.floor(0.5 + z_hat),
        np.floor(0.5 + 10.0 * z_hat) / 10.0,
    )
    z = p["Q"] @ z_tilde
    core = 0.1 * max(abs(z_hat[0]) * 1e-4, float(np.sum(p["cond2"] * z * z)))
    return float(core + boundary_penalty(x))


def _rosenbrock_core(z):
    zi, zn = z[:-1], z[1:]
    return float(np.sum(100.0 * np.square(zi * zi - zn) + np.square(zi - 1.0)))


def _f08_rosenbrock(p, x):
    z = p["scale"] * (x - p["x_opt"]) + 1.0
    return _rosenbrock_core(z)


def _f09_rosenbrock_rotated(p, x):
    z = p["scale"] * (p["R"] @ x) + 0.5
    return _rosenbrock_core(z)


def _f10_ellipsoidal_rotated(p, x):
    z = oscillate(p["R"] @ (x - p["x_opt"]))
    return float(np.sum(p["cond6"] * z * z))


def _f11_discus(p, x):
    z = oscillate(p["R"] @ (x - p["x_opt"]))
    return float(1e6 * z[0] * z[0] + np.sum(z[1:] * z[1:]))


def _f12_bent_cigar(p, x):
    z = p["R"] @ asymmetrize(p["R"] @ (x - p["x_opt"]), 0.5)
    return float(z[0] * z[0] + 1e6 * np.sum(z[1:] * z[1:]))


def _f13_sharp_ridge(p, x):
    z = p["Q"] @ (p["lam10"] * (p["R"] @ (x - p["x_opt"])))
    return float(z[0] * z[0] + 100.0 * math.sqrt(float(np.sum(z[1:] * z[1:]))))


def _f14_different_powers(p, x):
    z = p["R"] @ (x - p["x_opt"])
    return float(math.sqrt(np.sum(np.power(np.abs(z), p["exponents"]))))


def _f15_rastrigin_rotated(p, x):
    z = asymmetrize(oscillate(p["R"] @ (x - p["x_opt"])), 0.2)
    z = p["R"] @ (p["lam10"] * (p["Q"] @ z))
    return float(10.0 * (p["d"] - np.sum(np.cos(2.0 * np.pi * z))) + z @ z)


def _f16_weierstrass(p, x):
    z = oscillate(p["R"] @ (x - p["x_opt"]))
    z = p["R"] @ (p["lam001"] * (p["Q"] @ z))
    d = p["d"]
    inner = np.sum(
        p["half_pow"] * np.cos(2.0 * np.pi * p["three_pow"] * (z[:, None] + 0.5)),
        axis=1,
    )
    core = 10.0 * (float(np.sum(inner)) / d - p["f0"]) ** 3
    return float(core + 10.0 / d * boundary_penalty(x))


def _schaffers(p, x):
    z = p["lam"] * (p["Q"] @ asymmetrize(p["R"] @ (x - p["x_opt"]), 0.5))
    s = np.sqrt(z[:-1] ** 2 + z[1:] ** 2)
    root = np.sqrt(s)
    core = np.sum(root + root * np.sin(50.0 * np.power(s, 0.2)) ** 2)
    core = (core / (p["d"] - 1.0)) ** 2
    return float(core + 10.0 * boundary_penalty(x))


def _f19_griewank_rosenbrock(p, x):
    z = p["scale"] * (p["R"] @ x) + 0.5
    zi, zn = z[:-1], z[1:]
    s = 100.0 * np.square(zi * zi - zn) + np.square(zi - 1.0)
    core = np.sum(s / 4000.0 - np.cos(s))
    return float(10.0 * core / (p["d"] - 1.0) + 10.0)


def _f20_schwefel(p, x):
    abs2 = 2.0 * np.abs(p["x_opt"])
    x_hat = 2.0 * p["signs"] * x
    z_hat = x_hat.copy()
    z_hat[1:] += 0.25 * (x_hat[:-1] - abs2[:-1])
    z = 100.0 * (p["lam10"] * (z_hat - abs2) + abs2)
    core = _SCHWEFEL_C - float(np.mean(z * np.sin(np.sqrt(np.abs(z))))) / 100.0
    return float(core + 100.0 * boundary_penalty(z / 100.0))


def _gallagher(p, x):
    diff = (p["R"] @ x)[None, :] - p["centers"]
    expo = -np.sum(p["peak_scales"] * diff * diff, axis=1) / (2.0 * p["d"])
    best = float(np.max(p["weights"] * np.exp(expo)))
    return float(oscillate(10.0 - best) ** 2 + boundary_penalty(x))


def _f23_katsuura(p, x):
    z = p["Q"] @ (p["lam100"] * (p["R"] @ (x - p["x_opt"])))
    d = p["d"]
    arr = p["two_pow"] * z[:, None]
    terms = np.sum(np.abs(arr - np.round(arr)) / p["two_pow"], axis=1)
    prod = float(np.prod(1.0 + np.arange(1, d + 1) * terms))
    core = 10.0 / d**2 * prod ** (10.0 / d**1.2) - 10.0 / d**2
    return float(core + boundary_penalty(x))


def _f24_lunacek(p, x):
    d = p["d"]
    mu0 = 2.5
    x_hat = 2.0 * p["signs"] * x
    z = p["Q"] @ (p["lam100"] * (p["R"] @ (x_hat - mu0)))
    s1 = float(np.sum(np.square(x_hat - mu0)))
    s2 = float(np.sum(np.square(x_hat - p["mu1"])))
    core = min(s1, 1.0 * d + p["s_const"] * s2)
    core += 10.0 * (d - float(np.sum(np.cos(2.0 * np.pi * z))))
    return float(core + 1e4 * boundary_penalty(x))


SCALAR_BBOB = {
    1: _f01_sphere,
    2: _f02_ellipsoidal,
    3: _f03_rastrigin,
    4: _f04_bueche_rastrigin,
    5: _f05_linear_slope,
    6: _f06_attractive_sector,
    7: _f07_step_ellipsoidal,
    8: _f08_rosenbrock,
    9: _f09_rosenbrock_rotated,
    10: _f10_ellipsoidal_rotated,
    11: _f11_discus,
    12: _f12_bent_cigar,
    13: _f13_sharp_ridge,
    14: _f14_different_powers,
    15: _f15_rastrigin_rotated,
    16: _f16_weierstrass,
    17: _schaffers,
    18: _schaffers,
    19: _f19_griewank_rosenbrock,
    20: _f20_schwefel,
    21: _gallagher,
    22: _gallagher,
    23: _f23_katsuura,
    24: _f24_lunacek,
}


def one_max(x: np.ndarray) -> float:
    return float(np.sum(x))


def leading_ones(x: np.ndarray) -> float:
    zeros = np.flatnonzero(x == 0)
    return float(zeros[0]) if zeros.size else float(x.size)


def linear(x: np.ndarray) -> float:
    """Weighted counting with weights 1..d."""
    return float(np.arange(1, x.size + 1) @ x)


def labs(x: np.ndarray) -> float:
    """Merit factor d^2 / (2E) of the +/-1 sequence, E the sidelobe energy."""
    d = x.size
    if d < 2:
        return 0.0
    s = 2.0 * x - 1.0
    energy = 0.0
    for k in range(1, d):
        c_k = float(s[: d - k] @ s[k:])
        energy += c_k * c_k
    return d * d / (2.0 * energy)


def ising_ring(x: np.ndarray) -> float:
    """Number of agreeing neighbor pairs around the ring."""
    neighbor = np.roll(x, -1)
    return float(np.sum(x * neighbor + (1 - x) * (1 - neighbor)))


def ising_triangular(x: np.ndarray) -> float:
    """Agreeing pairs on a periodic triangular lattice; d must be square."""
    side = math.isqrt(x.size)
    grid = x.reshape(side, side)
    total = 0.0
    for shift in ((1, 0), (0, 1), (1, 1)):
        rolled = np.roll(grid, shift=(-shift[0], -shift[1]), axis=(0, 1))
        total += float(np.sum(grid * rolled + (1 - grid) * (1 - rolled)))
    return total


SCALAR_DISCRETE = {
    1: one_max,
    2: leading_ones,
    3: linear,
    4: labs,
    5: ising_ring,
    6: ising_triangular,
}


# -- point sets ---------------------------------------------------------------


def _bbob_points(inst) -> np.ndarray:
    """Unit-cube, box, out-of-box and probe points, plus the optimum."""
    d = inst.dim
    gen = rng.substream(inst.instance_seed, rng.SAMPLES, inst.problem.index, d)
    probes = np.zeros((d + 1, d))
    probes[1:] = np.eye(d)
    return np.concatenate(
        [
            gen.random((8, d)),
            gen.uniform(-5.0, 5.0, (8, d)),
            gen.uniform(-12.0, 12.0, (4, d)),
            probes,
            inst.translation[None, :],
        ]
    )


def _bitstrings(d: int, seed: int) -> np.ndarray:
    gen = rng.substream(seed, rng.SAMPLES, d)
    bits = (gen.random((20, d)) >= 0.5).astype(np.float64)
    return np.concatenate([bits, np.zeros((1, d)), np.ones((1, d))])


def _discrete_cases():
    for k in range(1, 7):
        for d in DISCRETE_DIMS:
            if k == 6 and math.isqrt(d) ** 2 != d:
                continue
            yield k, d


def _scalar_reference(inst, x: np.ndarray) -> np.ndarray:
    if inst.problem.suite is BBOB:
        fn = SCALAR_BBOB[inst.problem.index]
        return np.array([fn(inst.params, row) + inst.f_offset for row in x])
    return np.array([SCALAR_DISCRETE[inst.problem.index](row) for row in x])


# -- byte equality --------------------------------------------------------------


class TestScalarOracle:
    @pytest.mark.parametrize("k", range(1, 25))
    def test_bbob_batch_matches_scalar_bytes(self, k):
        for d in ORACLE_DIMS:
            for seed in ORACLE_SEEDS:
                inst = make_instance(problem(BBOB, k), d, seed)
                x = _bbob_points(inst)
                got = evaluate(inst, x)
                assert got.dtype == np.float64 and got.shape == (len(x),)
                assert got.tobytes() == _scalar_reference(inst, x).tobytes(), (d, seed)

    @pytest.mark.parametrize("k,d", list(_discrete_cases()))
    def test_discrete_batch_matches_scalar_bytes(self, k, d):
        inst = make_instance(problem(PB, k), d, 0)
        x = _bitstrings(d, seed=k)
        got = evaluate(inst, x)
        assert got.dtype == np.float64 and got.shape == (len(x),)
        assert got.tobytes() == _scalar_reference(inst, x).tobytes()

    @pytest.mark.parametrize("k", range(1, 25))
    def test_rows_are_independent(self, k):
        inst = make_instance(problem(BBOB, k), 5, 7)
        x = _bbob_points(inst)
        batch = evaluate(inst, x)
        for i in range(len(x)):
            alone = evaluate(inst, x[i : i + 1])
            point = evaluate(inst, x[i])
            assert isinstance(point, float)
            assert alone.tobytes() == batch[i : i + 1].tobytes()
            assert np.float64(point).tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("suite", [BBOB, PB])
    def test_multi_block_batch_matches_per_row_calls(self, suite):
        # Two block boundaries and a short last block.
        n, d = 2 * core._BLOCK + 3, 9
        gen = rng.substream(3, rng.SAMPLES, n)
        for prob in list_functions(suite):
            inst = make_instance(prob, d, 7 if suite is BBOB else 0)
            x = gen.uniform(-5.0, 5.0, (n, d)) if suite is BBOB else gen.integers(0, 2, (n, d))
            x = x.astype(np.float64)
            got = evaluate(inst, x)
            rows = np.array([evaluate(inst, row) for row in x])
            assert got.dtype == np.float64 and got.tobytes() == rows.tobytes(), prob


# -- shape contract ---------------------------------------------------------------


def _all_instances():
    for prob in list_functions(BBOB):
        yield make_instance(prob, 4, 3)
    for prob in list_functions(PB):
        yield make_instance(prob, 4, 0)


class TestShapeContract:
    def test_wrong_width_batch_rejected(self):
        inst = make_instance(problem(BBOB, 1), 3, 0)
        with pytest.raises(SuiteError):
            evaluate(inst, np.zeros((5, 4)))

    def test_three_dimensional_input_rejected(self):
        inst = make_instance(problem(BBOB, 1), 3, 0)
        with pytest.raises(SuiteError):
            evaluate(inst, np.zeros((2, 5, 3)))

    def test_wrong_length_point_rejected(self):
        inst = make_instance(problem(BBOB, 1), 3, 0)
        with pytest.raises(SuiteError):
            evaluate(inst, np.zeros(2))

    def test_non_binary_row_in_discrete_batch_rejected(self):
        inst = make_instance(problem(PB, 1), 4, 0)
        x = np.zeros((3, 4))
        x[1, 2] = 0.5
        with pytest.raises(SuiteError):
            evaluate(inst, x)

    def test_empty_batch_gives_empty_values(self):
        for inst in _all_instances():
            got = evaluate(inst, np.zeros((0, 4)))
            assert got.dtype == np.float64 and got.shape == (0,), inst.problem
