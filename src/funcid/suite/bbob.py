"""The 24 noiseless continuous benchmark functions with instance transforms.

Implements the standard noiseless suite definitions: the oscillation and
asymmetry nonlinearities, Lambda^alpha conditioning matrices, orthogonal
R/Q rotations, and per-function optimum placement.  All arithmetic is
float64; instances precompute every constant they need so evaluation is a
handful of vector ops.

Each function is one ``FUNCTIONS`` row: its display name, structural class,
rotation count, evaluator and ``powers``.  ``powers`` maps a parameter name
to ``(base, rate)``, and ``build_params`` sets that parameter to the array
``np.power(base, rate * lin)``, with ``lin[i] = i / (d - 1)``: the diagonal
of a conditioning matrix such as Lambda^10 or the f2/f10 ellipsoid weights.

Every evaluator works on an (n, d) batch of points, and each row gets the
float64 bytes that the same point gets alone, on any BLAS build.  One rule
guarantees this: every float64 reduction is numpy's own, over the last axis
of contiguous rows (``_rowdot``, ``_matvec``, and ``np.sum``, ``np.mean`` and
``np.prod`` with ``axis=1``), so a row sums as it sums alone and no product
reaches BLAS.  Elementwise ufuncs give each element the same bytes in any
array on one CPU; numpy's AVX-512 loop of array ``np.power`` rounds some
elements unlike its baseline loop.  The final scalar powers of f6, f16,
f17/f18, f21/f22 and f23 are Python float powers (libm ``pow``, ``_pow``).
The R/Q rotations follow the same rule (``_gram_schmidt``), and each matrix
of a (B, d, d) stack gets the bytes it gets alone, so ``build_dataset``
draws every rotation it needs in one stack (``draw_rotations``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .. import rng

# Schwefel's optimum coordinate and the matching output offset, computed
# in-code so the optimum evaluates to exactly zero in double precision.
_SCHWEFEL_X = 4.2096874633
_SCHWEFEL_Z = 100.0 * 2.0 * _SCHWEFEL_X / 2.0
_SCHWEFEL_C = _SCHWEFEL_Z * math.sin(math.sqrt(_SCHWEFEL_Z)) / 100.0


def random_orthogonal(d: int, generator: np.random.Generator) -> np.ndarray:
    """Draw a Haar-uniform orthogonal matrix via Gram-Schmidt."""
    return random_orthogonals(d, [generator])[0]


def random_orthogonals(d: int, generators) -> np.ndarray:
    """Draw one Haar-uniform orthogonal matrix from each generator, stacked.

    Each generator's Gaussian (d, d) draw is orthonormalized with modified
    Gram-Schmidt; a second pass (for d > 1) keeps ||Q^T Q - I||_inf well
    below 1e-9 for d up to 64.  All draws share the two passes.  A
    rank-deficient draw is rejected and redrawn from its own generator, so
    every matrix is the one a draw-and-retry loop over that generator alone
    would give.
    """
    generators = list(generators)
    out = np.empty((len(generators), d, d))
    todo = np.arange(len(generators))
    while len(todo):
        q = np.stack([generators[i].standard_normal((d, d)) for i in todo])
        ok = _gram_schmidt(q)
        if d > 1:
            ok &= _gram_schmidt(q)
        out[todo[ok]] = q[ok]
        todo = todo[~ok]
    return out


def draw_rotations(keys, d: int) -> dict:
    """The (R | None, Q | None) rotations of each (k, instance seed) in ``keys``.

    Function k uses ``FUNCTIONS[k].rotations`` of them; seed 0 gets identities.
    Every other matrix comes from its own ``ROTATION_R``/``ROTATION_Q``
    substream of the seed, one substream per matrix, and all of them are
    orthonormalized in one stack.
    """
    pairs = {key: [None, None] for key in keys}
    drawn, generators = [], []
    for (k, seed), pair in pairs.items():
        for i, tag in enumerate((rng.ROTATION_R, rng.ROTATION_Q)[: FUNCTIONS[k].rotations]):
            if seed == 0:
                pair[i] = np.eye(d)
            else:
                drawn.append((pair, i))
                generators.append(rng.substream(seed, tag))
    # Each instance owns its matrices rather than views into the stack.
    for (pair, i), m in zip(drawn, random_orthogonals(d, generators)):
        pair[i] = m.copy()
    return {key: tuple(pair) for key, pair in pairs.items()}


def _gram_schmidt(q: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of each matrix of a (B, d, d) stack in place.

    Returns the (B,) mask of matrices whose column norms all reached 1e-9; a
    flagged matrix's short column is divided by 1.0 instead, so the stack
    raises no warnings, and its result is meaningless.

    Right-looking modified Gram-Schmidt.  Once column j is normalized, its
    projection is removed from every later column i at once, so column i
    still receives the projections of columns 0..i-1 in ascending order,
    each against its updated self.  The passes run on a contiguous
    transposed copy ``w``, in which column j of every matrix is the row
    ``w[:, j]``, so every norm and coefficient is a ``_rowdot`` over
    contiguous rows, the reduction a loop over one matrix makes; the
    product ``r * v`` and its subtraction stay separate steps.
    """
    d = q.shape[-1]
    ok = np.ones(len(q), dtype=bool)
    w = np.ascontiguousarray(q.transpose(0, 2, 1))
    for j in range(d):
        v = w[:, j]
        norm = np.sqrt(_rowdot(v, v))
        short = norm < 1e-9
        ok &= ~short
        norm[short] = 1.0
        v /= norm[:, None]
        r = _rowdot(w[:, j + 1:], v[:, None, :])
        w[:, j + 1:] -= r[:, :, None] * v[:, None, :]
    q[...] = w.transpose(0, 2, 1)
    return ok


def _rowdot(a, b):
    """The dot product of a's and b's last-axis rows, summed by numpy itself."""
    return np.add.reduce(a * b, axis=-1)


def _lin(d: int) -> np.ndarray:
    """i/(d-1) for i = 0..d-1 (all zeros when d == 1)."""
    if d == 1:
        return np.zeros(1)
    return np.arange(d, dtype=np.float64) / (d - 1)


def _sign_vec(v: np.ndarray) -> np.ndarray:
    """Componentwise +/-1 with the tie v_i == 0 resolved to +1."""
    return np.where(v >= 0.0, 1.0, -1.0)


def oscillate(v: np.ndarray) -> np.ndarray:
    """The oscillation nonlinearity T_osz, elementwise."""
    with np.errstate(divide="ignore"):
        x_hat = np.where(v == 0.0, 0.0, np.log(np.abs(v)))
    c1 = np.where(v > 0.0, 10.0, 5.5)
    c2 = np.where(v > 0.0, 7.9, 3.1)
    return np.sign(v) * np.exp(x_hat + 0.049 * (np.sin(c1 * x_hat) + np.sin(c2 * x_hat)))


def asymmetrize(v: np.ndarray, beta: float) -> np.ndarray:
    """The asymmetry nonlinearity T_asy^beta, elementwise over rows of length d."""
    exponent = 1.0 + beta * _lin(v.shape[-1]) * np.sqrt(np.maximum(v, 0.0))
    return np.where(v > 0.0, np.power(np.maximum(v, 0.0), exponent), v)


def boundary_penalty(x: np.ndarray) -> np.ndarray:
    """Sum of squared overshoots beyond the [-5, 5] box, per row."""
    return np.sum(np.square(np.maximum(0.0, np.abs(x) - 5.0)), axis=1)


def build_params(k: int, d: int, instance_seed: int, rotations: tuple) -> dict:
    """The instance transforms of function ``k`` at dimension ``d``.

    ``rotations`` is the instance's (R | None, Q | None) pair from
    ``draw_rotations``.  Seed 0 is the identity instance: zero translation
    and identity rotations (the output offset is still drawn from its own
    stream).  Everything else pulls from per-purpose substreams of the seed,
    so the result is reproducible field by field.  The optimum is the drawn
    translation unless the function places its own; each of the row's
    ``powers`` becomes one array.
    """
    lin = _lin(d)

    if instance_seed == 0:
        t_raw = np.zeros(d)
    else:
        t_raw = rng.substream(instance_seed, rng.TRANSLATION).uniform(-4.0, 4.0, size=d)

    r_mat, q_mat = rotations
    offset_stream = rng.substream(instance_seed, rng.F_OFFSET)
    f_offset = round(float(offset_stream.uniform(-100.0, 100.0)), 2)

    p: dict = {"k": k, "d": d, "R": r_mat, "Q": q_mat, "f_offset": f_offset, "x_opt": t_raw}
    for name, (base, rate) in FUNCTIONS[k].powers.items():
        p[name] = np.power(base, rate * lin)

    if k == 4:
        x_opt = t_raw.copy()
        x_opt[0::2] = np.abs(x_opt[0::2])
        p["x_opt"] = x_opt
    elif k == 5:
        p["x_opt"] = 5.0 * _sign_vec(t_raw)
        p["slope"] = np.sign(p["x_opt"]) * np.power(10.0, lin)
    elif k == 8:
        p["x_opt"] = 0.75 * t_raw
        p["scale"] = max(1.0, math.sqrt(d) / 8.0)
    elif k in (9, 19):
        scale = max(1.0, math.sqrt(d) / 8.0)
        p["scale"] = scale
        # Optimum sits where the rotated, scaled coordinates all equal one.
        p["x_opt"] = _rowdot(np.ascontiguousarray(r_mat.T), np.full(d, 0.5 / scale))
    elif k == 14:
        p["exponents"] = 2.0 + 4.0 * lin
    elif k == 16:
        ks = np.arange(12, dtype=np.float64)
        p["half_pow"] = np.power(0.5, ks)
        p["three_pow"] = np.power(3.0, ks)
        p["f0"] = float(np.sum(p["half_pow"] * np.cos(np.pi * p["three_pow"])))
    elif k == 20:
        signs = _sign_vec(t_raw)
        p["x_opt"] = 0.5 * _SCHWEFEL_X * signs
        p["signs"] = signs
    elif k in (21, 22):
        _build_gallagher(p, d, instance_seed, n_peaks=101 if k == 21 else 21)
    elif k == 23:
        p["two_pow"] = np.power(2.0, np.arange(1, 33, dtype=np.float64))
    elif k == 24:
        signs = _sign_vec(t_raw)
        p["x_opt"] = 1.25 * signs
        p["signs"] = signs
        p["s_const"] = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
        p["mu1"] = -math.sqrt((2.5**2 - 1.0) / p["s_const"])
    return p


def _build_gallagher(p: dict, d: int, instance_seed: int, n_peaks: int) -> None:
    """Peak layout (d >= 2): conditioning spread, permuted scales, centers.

    The draws from the instance's AUX stream come in this order, which the
    instance bytes depend on: one permutation of the n_peaks - 1 conditions,
    then one ``permutation(d)`` per peak in peak order, taken as one
    ``permuted`` call over the rows (peak i's scales are ``cond_i **
    linspace(-0.5, 0.5, d)`` reordered by it), then the (n_peaks, d) peak
    uniforms.
    """
    aux = rng.substream(instance_seed, rng.AUX)
    high_cond = math.sqrt(1000.0) if n_peaks == 101 else 1000.0
    spread = 1.0 if n_peaks == 101 else 0.98

    conditions = np.power(1000.0, np.linspace(0.0, 1.0, n_peaks - 1))
    conditions = np.concatenate(([high_cond], aux.permutation(conditions)))
    scales = np.power(conditions[:, None], np.linspace(-0.5, 0.5, d)[None, :])
    order = aux.permuted(np.tile(np.arange(d), (n_peaks, 1)), axis=1)
    scales = np.take_along_axis(scales, order, axis=1)

    # Peaks are drawn in original coordinates (keeps the optimum inside the
    # box), then mapped into the rotated frame the evaluator works in.  The
    # global peak is pulled toward the box center and carries weight 10.
    peaks = spread * aux.uniform(-5.0, 5.0, size=(n_peaks, d))
    peaks[0] *= 0.8
    weights = np.concatenate(([10.0], np.linspace(1.1, 9.1, n_peaks - 1)))

    p["centers"] = _matvec(p["R"], peaks)
    p["peak_scales"] = scales
    p["weights"] = weights
    p["x_opt"] = peaks[0]


# ---------------------------------------------------------------------------
# Evaluators.  Each maps (params, x), x validated C-contiguous float64 of shape
# (n, d), to the (n,) float64 values; row i depends on x[i] alone.
# ---------------------------------------------------------------------------

def _matvec(m, x):
    """The product of m with every row of x, summed by numpy's einsum loop."""
    return np.einsum("ij,nj->ni", m, x, optimize=False)


def _pow(a, e):
    """``a[i] ** e`` as a Python float power (libm ``pow``) for every row."""
    return np.array([v**e for v in a.tolist()])


def _rastrigin(d, z):
    return 10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=1)) + _rowdot(z, z)


def _f01_sphere(p, x):
    z = x - p["x_opt"]
    return _rowdot(z, z)


def _f02_ellipsoidal(p, x):
    z = oscillate(x - p["x_opt"])
    return np.sum(p["cond6"] * z * z, axis=1)


def _f03_rastrigin(p, x):
    z = p["lam10"] * asymmetrize(oscillate(x - p["x_opt"]), 0.2)
    return _rastrigin(p["d"], z)


def _f04_bueche_rastrigin(p, x):
    z = oscillate(x - p["x_opt"])
    boost = (z > 0.0) & (np.arange(p["d"]) % 2 == 0)
    z = np.where(boost, p["s_base"] * 10.0, p["s_base"]) * z
    return _rastrigin(p["d"], z) + 100.0 * boundary_penalty(x)


def _f05_linear_slope(p, x):
    x_opt = p["x_opt"]
    z = np.where(x_opt * x < 25.0, x, x_opt)
    s = p["slope"]
    return np.sum(5.0 * np.abs(s) - s * z, axis=1)


def _f06_attractive_sector(p, x):
    z = _matvec(p["Q"], p["lam10"] * _matvec(p["R"], x - p["x_opt"]))
    s = np.where(z * p["x_opt"] > 0.0, 100.0, 1.0)
    return _pow(oscillate(np.sum(np.square(s * z), axis=1)), 0.9)


def _f07_step_ellipsoidal(p, x):
    z_hat = p["lam10"] * _matvec(p["R"], x - p["x_opt"])
    z_tilde = np.where(
        np.abs(z_hat) > 0.5,
        np.floor(0.5 + z_hat),
        np.floor(0.5 + 10.0 * z_hat) / 10.0,
    )
    z = _matvec(p["Q"], z_tilde)
    floor = np.abs(z_hat[:, 0]) * 1e-4
    ellipsoid = np.sum(p["cond2"] * z * z, axis=1)
    # max(floor, ellipsoid), keeping the first operand on ties.
    return 0.1 * np.where(ellipsoid > floor, ellipsoid, floor) + boundary_penalty(x)


def _rosenbrock_core(z):
    zi, zn = z[:, :-1], z[:, 1:]
    return np.sum(100.0 * np.square(zi * zi - zn) + np.square(zi - 1.0), axis=1)


def _f08_rosenbrock(p, x):
    return _rosenbrock_core(p["scale"] * (x - p["x_opt"]) + 1.0)


def _f09_rosenbrock_rotated(p, x):
    return _rosenbrock_core(p["scale"] * _matvec(p["R"], x) + 0.5)


def _f10_ellipsoidal_rotated(p, x):
    z = oscillate(_matvec(p["R"], x - p["x_opt"]))
    return np.sum(p["cond6"] * z * z, axis=1)


def _tail_square_sum(z):
    return np.sum(z[:, 1:] * z[:, 1:], axis=1)


def _f11_discus(p, x):
    z = oscillate(_matvec(p["R"], x - p["x_opt"]))
    return 1e6 * z[:, 0] * z[:, 0] + _tail_square_sum(z)


def _f12_bent_cigar(p, x):
    z = _matvec(p["R"], asymmetrize(_matvec(p["R"], x - p["x_opt"]), 0.5))
    return z[:, 0] * z[:, 0] + 1e6 * _tail_square_sum(z)


def _f13_sharp_ridge(p, x):
    z = _matvec(p["Q"], p["lam10"] * _matvec(p["R"], x - p["x_opt"]))
    return z[:, 0] * z[:, 0] + 100.0 * np.sqrt(_tail_square_sum(z))


def _f14_different_powers(p, x):
    z = _matvec(p["R"], x - p["x_opt"])
    return np.sqrt(np.sum(np.power(np.abs(z), p["exponents"]), axis=1))


def _f15_rastrigin_rotated(p, x):
    z = asymmetrize(oscillate(_matvec(p["R"], x - p["x_opt"])), 0.2)
    z = _matvec(p["R"], p["lam10"] * _matvec(p["Q"], z))
    return _rastrigin(p["d"], z)


def _f16_weierstrass(p, x):
    z = oscillate(_matvec(p["R"], x - p["x_opt"]))
    z = _matvec(p["R"], p["lam001"] * _matvec(p["Q"], z))
    d = p["d"]
    inner = np.sum(
        p["half_pow"] * np.cos(2.0 * np.pi * p["three_pow"] * (z[:, :, None] + 0.5)),
        axis=2,
    )
    core = 10.0 * _pow(np.sum(inner, axis=1) / d - p["f0"], 3)
    return core + 10.0 / d * boundary_penalty(x)


def _schaffers(p, x):
    z = p["lam"] * _matvec(p["Q"], asymmetrize(_matvec(p["R"], x - p["x_opt"]), 0.5))
    s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
    root = np.sqrt(s)
    core = np.sum(root + root * np.sin(50.0 * np.power(s, 0.2)) ** 2, axis=1)
    return _pow(core / (p["d"] - 1.0), 2) + 10.0 * boundary_penalty(x)


def _f19_griewank_rosenbrock(p, x):
    z = p["scale"] * _matvec(p["R"], x) + 0.5
    zi, zn = z[:, :-1], z[:, 1:]
    s = 100.0 * np.square(zi * zi - zn) + np.square(zi - 1.0)
    core = np.sum(s / 4000.0 - np.cos(s), axis=1)
    return 10.0 * core / (p["d"] - 1.0) + 10.0


def _f20_schwefel(p, x):
    abs2 = 2.0 * np.abs(p["x_opt"])
    x_hat = 2.0 * p["signs"] * x
    z_hat = x_hat.copy()
    z_hat[:, 1:] += 0.25 * (x_hat[:, :-1] - abs2[:-1])
    z = 100.0 * (p["lam10"] * (z_hat - abs2) + abs2)
    core = _SCHWEFEL_C - np.mean(z * np.sin(np.sqrt(np.abs(z))), axis=1) / 100.0
    return core + 100.0 * boundary_penalty(z / 100.0)


def _gallagher(p, x):
    diff = _matvec(p["R"], x)[:, None, :] - p["centers"]
    t = p["peak_scales"] * diff
    np.multiply(t, diff, out=t)
    expo = -np.sum(t, axis=2) / (2.0 * p["d"])
    best = np.max(p["weights"] * np.exp(expo), axis=1)
    return _pow(oscillate(10.0 - best), 2) + boundary_penalty(x)


def _f23_katsuura(p, x):
    z = _matvec(p["Q"], p["lam100"] * _matvec(p["R"], x - p["x_opt"]))
    d = p["d"]
    arr = p["two_pow"] * z[:, :, None]
    terms = np.sum(np.abs(arr - np.round(arr)) / p["two_pow"], axis=2)
    prod = np.prod(1.0 + np.arange(1, d + 1) * terms, axis=1)
    core = 10.0 / d**2 * _pow(prod, 10.0 / d**1.2) - 10.0 / d**2
    return core + boundary_penalty(x)


def _f24_lunacek(p, x):
    d = p["d"]
    mu0 = 2.5
    x_hat = 2.0 * p["signs"] * x
    z = _matvec(p["Q"], p["lam100"] * _matvec(p["R"], x_hat - mu0))
    s1 = np.sum(np.square(x_hat - mu0), axis=1)
    s2 = 1.0 * d + p["s_const"] * np.sum(np.square(x_hat - p["mu1"]), axis=1)
    # min(s1, s2), keeping the first operand on ties.
    core = np.where(s2 < s1, s2, s1)
    core += 10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=1))
    return core + 1e4 * boundary_penalty(x)


class Function(NamedTuple):
    """One benchmark function: its row in ``FUNCTIONS``."""

    name: str
    #: structural class i..v
    group: str
    #: rotation matrices it consumes: 0, 1 (R) or 2 (R and Q)
    rotations: int
    evaluate: Callable
    #: parameter name -> (base, rate): the array ``base ** (rate * i/(d-1))``
    powers: dict = {}


#: index -> function, in suite order
FUNCTIONS: dict[int, Function] = {
    1: Function("Sphere", "i", 0, _f01_sphere),
    2: Function("Ellipsoidal A", "i", 0, _f02_ellipsoidal, {"cond6": (10.0, 6.0)}),
    3: Function("Rastrigin", "i", 0, _f03_rastrigin, {"lam10": (10.0, 0.5)}),
    4: Function("Rastrigin-Bueche", "i", 0, _f04_bueche_rastrigin, {"s_base": (10.0, 0.5)}),
    5: Function("Linear Slope", "i", 0, _f05_linear_slope),
    6: Function("Attractive Sector", "ii", 2, _f06_attractive_sector, {"lam10": (10.0, 0.5)}),
    7: Function("Step Ellipsoidal", "ii", 2, _f07_step_ellipsoidal,
                {"lam10": (10.0, 0.5), "cond2": (10.0, 2.0)}),
    8: Function("Rosenbrock", "ii", 0, _f08_rosenbrock),
    9: Function("Rotated Rosenbrock", "ii", 1, _f09_rosenbrock_rotated),
    10: Function("Ellipsoidal B", "iii", 1, _f10_ellipsoidal_rotated, {"cond6": (10.0, 6.0)}),
    11: Function("Discus", "iii", 1, _f11_discus),
    12: Function("Bent Cigar", "iii", 1, _f12_bent_cigar),
    13: Function("Sharp Ridge", "iii", 2, _f13_sharp_ridge, {"lam10": (10.0, 0.5)}),
    14: Function("Different Powers", "iii", 1, _f14_different_powers),
    15: Function("Rastrigin Rotated", "iv", 2, _f15_rastrigin_rotated, {"lam10": (10.0, 0.5)}),
    16: Function("Weierstrass", "iv", 2, _f16_weierstrass, {"lam001": (0.01, 0.5)}),
    17: Function("Schaffers F7", "iv", 2, _schaffers, {"lam": (10.0, 0.5)}),
    18: Function("Schaffers F7 Ill-Conditioned", "iv", 2, _schaffers, {"lam": (1000.0, 0.5)}),
    19: Function("Griewank-Rosenbrock F8F2", "iv", 1, _f19_griewank_rosenbrock),
    20: Function("Schwefel", "v", 0, _f20_schwefel, {"lam10": (10.0, 0.5)}),
    21: Function("Gallagher 101 Peaks", "v", 1, _gallagher),
    22: Function("Gallagher 21 Peaks", "v", 1, _gallagher),
    23: Function("Katsuura", "v", 2, _f23_katsuura, {"lam100": (100.0, 0.5)}),
    24: Function("Lunacek bi-Rastrigin", "v", 2, _f24_lunacek, {"lam100": (100.0, 0.5)}),
}
