"""Tests for the benchmark function suites and instance generation."""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcid import rng
from funcid.suite import (
    Suite,
    SuiteError,
    bbob_class,
    evaluate,
    list_functions,
    make_instance,
    problem,
    random_orthogonal,
)
from funcid.suite.bbob import _build_gallagher, _gram_schmidt, draw_rotations, random_orthogonals

BBOB = Suite.CONTINUOUS_BBOB
PB = Suite.DISCRETE_PB

ORACLE_DIMS = [2, 3, 4, 5, 7, 8, 16, 22, 31, 40, 64]
ORACLE_SEEDS = [1, 2, 17, 99, 2**62 + 11]
STACK_SIZES = [1, 2, 5, 26]
GALLAGHER_DIMS = [2, 3, 5, 10, 22, 40]


def _gram_schmidt_reference(a: np.ndarray | None) -> np.ndarray | None:
    """Left-looking modified Gram-Schmidt, d^2/2 vector steps a pass.

    The byte reference for ``_gram_schmidt``: the rotation matrices behind
    every pinned digest were first made by this loop.
    """
    if a is None:
        return None
    q = np.array(a, dtype=np.float64, copy=True)
    for j in range(q.shape[1]):
        v = q[:, j]
        for i in range(j):
            v -= (q[:, i] @ v) * q[:, i]
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            return None
        q[:, j] = v / norm
    return q


def _build_gallagher_reference(p: dict, d: int, instance_seed: int, n_peaks: int) -> None:
    """Per-peak Gallagher peak layout, one power and one permutation a peak.

    The byte reference for ``_build_gallagher``: the f21/f22 instances behind
    every pinned digest were first made by this loop.
    """
    aux = rng.substream(instance_seed, rng.AUX)
    high_cond = math.sqrt(1000.0) if n_peaks == 101 else 1000.0
    spread = 1.0 if n_peaks == 101 else 0.98

    conditions = np.power(1000.0, np.linspace(0.0, 1.0, n_peaks - 1))
    conditions = np.concatenate(([high_cond], aux.permutation(conditions)))
    scales = np.empty((n_peaks, d))
    for i, cond in enumerate(conditions):
        s = np.power(cond, np.linspace(-0.5, 0.5, d)) if d > 1 else np.ones(1)
        scales[i] = aux.permutation(s)

    peaks = spread * aux.uniform(-5.0, 5.0, size=(n_peaks, d))
    peaks[0] *= 0.8
    weights = np.concatenate(([10.0], np.linspace(1.1, 9.1, n_peaks - 1)))

    p["centers"] = peaks @ p["R"].T
    p["peak_scales"] = scales
    p["weights"] = weights
    p["x_opt"] = peaks[0]


# -- problem listing ---------------------------------------------------------


class TestListing:
    def test_bbob_has_24_functions(self):
        funcs = list_functions(BBOB)
        assert len(funcs) == 24
        assert funcs[0].display_name == "Sphere"
        assert funcs[4].display_name == "Linear Slope"

    def test_discrete_has_6_functions(self):
        funcs = list_functions(PB)
        assert len(funcs) == 6
        assert funcs[0].display_name == "OneMax"

    def test_listing_is_stable(self):
        assert list_functions(BBOB) == list_functions(BBOB)
        assert list_functions(PB) == list_functions(PB)

    def test_class_partitioning(self):
        # Five structural classes partition 1..24 as 5/4/5/5/5.
        tags = [bbob_class(k) for k in range(1, 25)]
        assert tags == ["i"] * 5 + ["ii"] * 4 + ["iii"] * 5 + ["iv"] * 5 + ["v"] * 5

    def test_unknown_index_rejected(self):
        with pytest.raises(SuiteError):
            problem(BBOB, 25)
        with pytest.raises(SuiteError):
            problem(PB, 0)


# -- instance construction ---------------------------------------------------


class TestMakeInstance:
    def test_seed_zero_sphere_optimum_at_origin(self):
        inst = make_instance(problem(BBOB, 1), 2, 0)
        assert np.array_equal(inst.translation, np.zeros(2))
        assert evaluate(inst, np.zeros(2)) == pytest.approx(inst.f_offset, abs=1e-12)

    def test_optimum_evaluates_to_offset(self):
        inst = make_instance(problem(BBOB, 1), 22, 7)
        assert abs(evaluate(inst, inst.translation) - inst.f_offset) < 1e-9

    @pytest.mark.parametrize("k", range(1, 25))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**62 + 11])
    def test_optimum_consistency_all_functions(self, k, seed):
        inst = make_instance(problem(BBOB, k), 5, seed)
        assert abs(evaluate(inst, inst.translation) - inst.f_offset) < 1e-9

    def test_rotation_orthogonality(self):
        inst = make_instance(problem(BBOB, 3), 5, 3)
        for r in inst.rotations:
            assert np.max(np.abs(r.T @ r - np.eye(5))) < 1e-9

    @pytest.mark.parametrize("d", [2, 8, 40, 64])
    def test_random_orthogonal_tolerance(self, d):
        r = random_orthogonal(d, rng.substream(17, rng.ROTATION_R, d))
        assert np.max(np.abs(r.T @ r - np.eye(d))) < 1e-9

    @pytest.mark.parametrize("d", ORACLE_DIMS)
    def test_gram_schmidt_matches_reference_bytes(self, d):
        # Slice b of a stack holds draw b of a seed, so draw 0 sits in
        # stacks of every size and each later draw in the larger ones.
        for seed in ORACLE_SEEDS:
            draws = [
                rng.substream(seed, rng.ROTATION_R, d, b).standard_normal((d, d))
                for b in range(max(STACK_SIZES))
            ]
            wants = [_gram_schmidt_reference(a) for a in draws]
            for size in STACK_SIZES:
                q = np.stack(draws[:size])
                ok = _gram_schmidt(q)
                assert ok.shape == (size,) and ok.all()
                for b in range(size):
                    assert np.array_equal(q[b], wants[b]), (seed, size, b)

    @pytest.mark.parametrize("d", [1] + ORACLE_DIMS)
    def test_random_orthogonal_matches_reference_bytes(self, d):
        for seed in ORACLE_SEEDS:
            got = random_orthogonal(d, rng.substream(seed, rng.ROTATION_Q))
            a = rng.substream(seed, rng.ROTATION_Q).standard_normal((d, d))
            want = _gram_schmidt_reference(a)
            if d > 1:
                want = _gram_schmidt_reference(want)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 5, 22])
    def test_gram_schmidt_rank_deficient_is_flagged(self, d):
        draws = [rng.substream(5, rng.ROTATION_R, d, b).standard_normal((d, d)) for b in range(5)]
        draws[1][:, -1] = draws[1][:, 0]
        draws[3][:, d // 2] = 0.0
        assert _gram_schmidt_reference(draws[1]) is None
        assert _gram_schmidt_reference(draws[3]) is None
        q = np.stack(draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = _gram_schmidt(q)
        assert ok.tolist() == [True, False, True, False, True]
        for b in (0, 2, 4):
            assert np.array_equal(q[b], _gram_schmidt_reference(draws[b]))

    @pytest.mark.parametrize("d", [1, 2, 7, 22])
    def test_random_orthogonals_match_one_at_a_time(self, d):
        seeds = [1, 17, 2**62 + 11, 99, 3]
        got = random_orthogonals(d, [rng.substream(s, rng.ROTATION_Q) for s in seeds])
        assert got.shape == (len(seeds), d, d)
        for s, m in zip(seeds, got):
            assert np.array_equal(m, random_orthogonal(d, rng.substream(s, rng.ROTATION_Q)))

    def test_random_orthogonals_redraws_from_the_flagged_generator(self):
        d = 4

        class Scripted:
            """Hands out its draws in order, counting them."""

            def __init__(self, draws):
                self.draws, self.taken = draws, 0

            def standard_normal(self, shape):
                self.taken += 1
                return self.draws[self.taken - 1].copy()

        g = [rng.substream(s, rng.ROTATION_R).standard_normal((3, d, d)) for s in (1, 2, 3)]
        g[1][0][:, 1] = 0.0  # the second generator's first draw is rank-deficient
        gens = [Scripted(draws) for draws in g]
        got = random_orthogonals(d, gens)
        assert [gen.taken for gen in gens] == [1, 2, 1]
        for m, want in zip(got, (g[0][0], g[1][1], g[2][0])):
            assert np.array_equal(m, _gram_schmidt_reference(_gram_schmidt_reference(want)))

    @pytest.mark.parametrize("d", [2, 5, 22])
    def test_draw_rotations_match_per_key_draws(self, d, monkeypatch):
        keys = [(1, 7), (9, 7), (15, 7), (15, 0), (9, 0), (21, 2**62 + 11), (24, 99), (15, 7)]
        calls = []
        substream = rng.substream
        monkeypatch.setattr(rng, "substream", lambda *a: calls.append(a) or substream(*a))
        got = draw_rotations(keys, d)
        monkeypatch.undo()
        assert list(got) == list(dict.fromkeys(keys))
        assert sorted(calls) == sorted(
            [(7, rng.ROTATION_R), (7, rng.ROTATION_R), (7, rng.ROTATION_Q),
             (2**62 + 11, rng.ROTATION_R), (99, rng.ROTATION_R), (99, rng.ROTATION_Q)]
        )
        assert got[1, 7] == (None, None)
        assert got[9, 0][1] is None and np.array_equal(got[9, 0][0], np.eye(d))
        assert all(np.array_equal(m, np.eye(d)) for m in got[15, 0])
        for (k, seed), pair in got.items():
            if seed == 0:
                continue
            for m, tag in zip(pair, (rng.ROTATION_R, rng.ROTATION_Q)):
                if m is not None:
                    want = random_orthogonal(d, rng.substream(seed, tag))
                    assert np.array_equal(m, want) and m.flags.c_contiguous

    @pytest.mark.parametrize("n_peaks", [101, 21])
    @pytest.mark.parametrize("d", GALLAGHER_DIMS)
    def test_gallagher_build_matches_reference_bytes(self, d, n_peaks):
        for seed in ORACLE_SEEDS:
            r_mat = random_orthogonal(d, rng.substream(seed, rng.ROTATION_R))
            got, want = {"R": r_mat}, {"R": r_mat}
            _build_gallagher(got, d, seed, n_peaks)
            _build_gallagher_reference(want, d, seed, n_peaks)
            assert got.keys() == want.keys()
            for name in ("centers", "peak_scales", "weights", "x_opt"):
                assert got[name].shape == want[name].shape, (seed, name)
                assert got[name].tobytes() == want[name].tobytes(), (seed, name)

    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 11])
    def test_supplied_rotations_give_the_same_instance(self, seed):
        d = 6
        keys = [(k, seed) for k in range(1, 25)]
        rotations = draw_rotations(keys, d)
        for k, _ in keys:
            alone = make_instance(problem(BBOB, k), d, seed)
            given = make_instance(problem(BBOB, k), d, seed, rotations[k, seed])
            assert len(alone.rotations) == len(given.rotations)
            for a, b in zip(alone.rotations, given.rotations):
                assert np.array_equal(a, b)
            for name in ("R", "Q", "x_opt", "centers"):
                a, b = alone.params.get(name), given.params.get(name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tobytes() == b.tobytes()
            x = rng.substream(seed, rng.SAMPLES, k).random((4, d))
            assert evaluate(alone, x).tobytes() == evaluate(given, x).tobytes()

    @pytest.mark.parametrize(
        "k, rotations",
        [
            (1, (np.eye(3), None)),
            (9, (None, None)),
            (9, (np.eye(3), np.eye(3))),
            (15, (np.eye(3), None)),
            (15, (None, np.eye(3))),
            (15, (np.eye(3),)),
            (15, [np.eye(3), np.eye(3)]),
            (9, (np.eye(4), None)),
            (9, (np.eye(3)[0], None)),
            (9, (np.eye(3, dtype=np.float32), None)),
            (9, (np.eye(3).tolist(), None)),
            (9, (np.asfortranarray(np.arange(9.0).reshape(3, 3)), None)),
        ],
    )
    def test_bad_supplied_rotations_rejected(self, k, rotations):
        with pytest.raises(SuiteError):
            make_instance(problem(BBOB, k), 3, 7, rotations)

    def test_discrete_takes_no_rotations(self):
        make_instance(problem(PB, 1), 9, 0, (None, None))
        for rotations in ((np.eye(9), None), (None, np.eye(9))):
            with pytest.raises(SuiteError):
                make_instance(problem(PB, 1), 9, 0, rotations)

    def test_bit_identical_rebuild(self):
        a = make_instance(problem(BBOB, 15), 22, 99)
        b = make_instance(problem(BBOB, 15), 22, 99)
        assert np.array_equal(a.translation, b.translation)
        assert a.f_offset == b.f_offset
        for ra, rb in zip(a.rotations, b.rotations):
            assert np.array_equal(ra, rb)
        x = rng.substream(4, rng.SAMPLES).random(22)
        assert evaluate(a, x) == evaluate(b, x)

    def test_translation_within_interior(self):
        # Drawn shifts stay inside [-4, 4]; structural optima inside [-5, 5].
        for k in range(1, 25):
            inst = make_instance(problem(BBOB, k), 6, 13)
            assert np.all(np.abs(inst.translation) <= 5.0)

    def test_offset_range_and_rounding(self):
        for seed in range(10):
            inst = make_instance(problem(BBOB, 2), 3, seed)
            assert -100.0 <= inst.f_offset <= 100.0
            assert inst.f_offset == round(inst.f_offset, 2)

    def test_continuous_rejects_d1(self):
        with pytest.raises(SuiteError):
            make_instance(problem(BBOB, 1), 1, 0)

    def test_discrete_dimension_cap(self):
        make_instance(problem(PB, 1), 64, 0)
        with pytest.raises(SuiteError):
            make_instance(problem(PB, 1), 65, 0)

    def test_ising_triangular_needs_square(self):
        make_instance(problem(PB, 6), 16, 0)
        with pytest.raises(SuiteError):
            make_instance(problem(PB, 6), 15, 0)


# -- evaluation --------------------------------------------------------------


class TestEvaluate:
    def test_raw_sphere_at_origin(self):
        inst = make_instance(problem(BBOB, 1), 2, 0)
        assert evaluate(inst, np.zeros(2)) - inst.f_offset == 0.0

    def test_raw_rastrigin_at_origin(self):
        inst = make_instance(problem(BBOB, 3), 2, 0)
        assert evaluate(inst, np.zeros(2)) - inst.f_offset == pytest.approx(0.0, abs=1e-12)

    def test_sphere_rotation_invariance(self):
        # Zero-translation sphere is invariant under any orthogonal map.
        inst = make_instance(problem(BBOB, 1), 5, 0)
        r = random_orthogonal(5, rng.substream(23, rng.ROTATION_R))
        x = rng.substream(29, rng.SAMPLES).random(5)
        assert evaluate(inst, r @ x) == pytest.approx(evaluate(inst, x), abs=1e-9)

    def test_dimension_mismatch(self):
        inst = make_instance(problem(BBOB, 1), 3, 0)
        with pytest.raises(SuiteError):
            evaluate(inst, np.zeros(4))

    def test_discrete_rejects_non_binary(self):
        inst = make_instance(problem(PB, 1), 4, 0)
        with pytest.raises(SuiteError):
            evaluate(inst, np.array([0.0, 0.5, 1.0, 0.0]))

    def test_onemax(self):
        inst = make_instance(problem(PB, 1), 4, 0)
        assert evaluate(inst, np.ones(4)) == 4.0

    def test_leading_ones(self):
        inst = make_instance(problem(PB, 2), 4, 0)
        assert evaluate(inst, np.array([1.0, 1.0, 0.0, 1.0])) == 2.0

    def test_linear_weighted_count(self):
        inst = make_instance(problem(PB, 3), 4, 0)
        assert evaluate(inst, np.array([1.0, 0.0, 0.0, 1.0])) == 5.0

    def test_ising_ring_against_bruteforce(self):
        inst = make_instance(problem(PB, 5), 4, 0)
        x = np.array([0.0, 1.0, 0.0, 1.0])
        expected = 0.0
        for i in range(4):  # ring-edge Hamiltonian, one term per edge
            a, b = x[i], x[(i + 1) % 4]
            expected += a * b + (1 - a) * (1 - b)
        assert evaluate(inst, x) == expected == 0.0

    def test_ising_ring_random_bruteforce(self):
        inst = make_instance(problem(PB, 5), 12, 0)
        gen = rng.substream(31, rng.SAMPLES)
        for _ in range(20):
            x = (gen.random(12) >= 0.5).astype(float)
            expected = sum(
                x[i] * x[(i + 1) % 12] + (1 - x[i]) * (1 - x[(i + 1) % 12])
                for i in range(12)
            )
            assert evaluate(inst, x) == expected

    def test_ising_triangular_bruteforce(self):
        inst = make_instance(problem(PB, 6), 9, 0)
        gen = rng.substream(37, rng.SAMPLES)
        for _ in range(10):
            x = (gen.random(9) >= 0.5).astype(float)
            grid = x.reshape(3, 3)
            expected = 0.0
            for i in range(3):
                for j in range(3):
                    for di, dj in ((1, 0), (0, 1), (1, 1)):
                        a, b = grid[i, j], grid[(i + di) % 3, (j + dj) % 3]
                        expected += a * b + (1 - a) * (1 - b)
            assert evaluate(inst, x) == expected

    def test_labs_merit_factor_bruteforce(self):
        inst = make_instance(problem(PB, 4), 8, 0)
        gen = rng.substream(41, rng.SAMPLES)
        for _ in range(10):
            x = (gen.random(8) >= 0.5).astype(float)
            s = 2 * x - 1
            energy = 0.0
            for k in range(1, 8):
                c_k = sum(s[i] * s[i + k] for i in range(8 - k))
                energy += c_k**2
            assert evaluate(inst, x) == pytest.approx(64.0 / (2.0 * energy))

    def test_all_ones_ising_ring_maximal(self):
        inst = make_instance(problem(PB, 5), 8, 0)
        assert evaluate(inst, np.ones(8)) == 8.0


# -- determinism properties ---------------------------------------------------


class TestDeterminism:
    @given(st.integers(1, 24), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_instance_evaluation_reproducible(self, k, seed):
        a = make_instance(problem(BBOB, k), 3, seed)
        b = make_instance(problem(BBOB, k), 3, seed)
        x = rng.substream(seed, rng.SAMPLES, k).random(3)
        assert evaluate(a, x) == evaluate(b, x)

    def test_different_seeds_differ(self):
        a = make_instance(problem(BBOB, 1), 4, 1)
        b = make_instance(problem(BBOB, 1), 4, 2)
        assert not np.array_equal(a.translation, b.translation)

    def test_translation_sensitivity_of_probe(self):
        # Two sphere instances differing in translation disagree at the origin.
        a = make_instance(problem(BBOB, 1), 4, 1)
        b = make_instance(problem(BBOB, 1), 4, 2)
        va = evaluate(a, np.zeros(4)) - a.f_offset
        vb = evaluate(b, np.zeros(4)) - b.f_offset
        assert va != vb


# -- table and instance-parameter pins ----------------------------------------

PIN_DIMS = (2, 5, 22, 40)
PIN_SEEDS = (0, 1, 12345)

PINNED_NAMES = (
    "Sphere", "Ellipsoidal A", "Rastrigin", "Rastrigin-Bueche", "Linear Slope",
    "Attractive Sector", "Step Ellipsoidal", "Rosenbrock", "Rotated Rosenbrock",
    "Ellipsoidal B", "Discus", "Bent Cigar", "Sharp Ridge", "Different Powers",
    "Rastrigin Rotated", "Weierstrass", "Schaffers F7", "Schaffers F7 Ill-Conditioned",
    "Griewank-Rosenbrock F8F2", "Schwefel", "Gallagher 101 Peaks", "Gallagher 21 Peaks",
    "Katsuura", "Lunacek bi-Rastrigin",
    "OneMax", "LeadingOnes", "Linear", "LABS", "IsingRing", "IsingTriangular",
)
PINNED_CLASSES = ("i",) * 5 + ("ii",) * 4 + ("iii",) * 5 + ("iv",) * 5 + ("v",) * 5
PINNED_ROTATIONS = (0, 0, 0, 0, 0, 2, 2, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 1, 0, 1, 1, 2, 2)
PINNED_PARAMS = {
    1: "ff9d597213366e184e5cb4010cd4649286b7358c85a22c0c864f881a9dd5d9d6",
    2: "fdbbb530e032ac9886f5fe7071fb3a3441f5ec6d2fe6ab07eecbeee5396beb6e",
    3: "d5b3cb667a19ad306be8e7142b21b2402d63b8ce7a742d14c0c11f1985e13532",
    4: "b9144cfa9a8679387884982d0db80e353c643f15a58c4164c0d6ff2806940a91",
    5: "7943b6a7caa8af3253da5ce910b660b3d00111125113125d68c9214c8bff2641",
    6: "dcaac1abb74400130b146b80a0c8dd1f2e8a9a30e4128b333ea5f687954925b8",
    7: "9ac26e5f3379fe1433052a62fbbae47c229b3b2543de9aa0e7536eb7ca2651a3",
    8: "9d9e231f7fff951b40c2242bd0df8a76dd54f0b3bc9661c459527af0725bc1d4",
    9: "36dbf3943f37615634107d4bb3415c2e3b4fc680a3a4e2adcc0f3031fbebfa9c",
    10: "95198f0f5c269bd89428cf3d2680aa8a914f12ada8a8625a9976ef1a95a08182",
    11: "f33470bd99ce36ced9ab7ec8f95d47c5635f59646d65934a9ca499096a97a255",
    12: "f697eecdba94ff04c176b7be1530163d85596af83b7fd4686871f366bbb48068",
    13: "f03a26c9ede9d71efbe34a5202e48a617d258152b6bc8e3f8b825f3c26529667",
    14: "662a3ddcee88702d879e169456d424c20fc272c50634bd71f226443893fb0e8e",
    15: "d21f3ccf39fbcd661c5a5fcef3a1396b29eefb53c77ed969393bfdc8ce37f529",
    16: "38885d62548c337999728879667b8182d454fd27e3234b9fd88d5f27955d4662",
    17: "da0193b455f86207d2a072b39ba298c0d4248d38144545690c60fff8adbeca2d",
    18: "bcfebe4220a3c701b9151a6f41ad4785dde25bed187af4fdb883a5561a56b426",
    19: "8c5c6930cf909b6e6b99b34a5c61d8474d1501cf3ec527fd93a2a3e63ac34218",
    20: "f1b1d4a74fb42c4d2dd7b1780f26e056b45938f8b7e024f912f79cf147c7c560",
    21: "4c7acecfbd02c773fc30ba8b79330989cc276cdaf9ead8d9c5f92042e2080b51",
    22: "e14ab68ad38b90b26ad0e10f53143ea16353c460897ee87f474d25d3316f8096",
    23: "ca428d966ec047b590778da66feb0c80e00f439e7822e0762abf66d767bc840b",
    24: "3503441c5076978407f240a63e36c5d0f04e82d09c14075f3ac6a40a7b79f2d6",
}


def _params_digest(k: int) -> str:
    """SHA-256 over the params of function k's instances at every pinned (d, seed).

    Keys are hashed in sorted order; an array contributes its dtype, shape and
    bytes, anything else its ``repr``.
    """
    h = hashlib.sha256()
    for d in PIN_DIMS:
        for seed in PIN_SEEDS:
            params = make_instance(problem(BBOB, k), d, seed).params
            for key in sorted(params):
                value = params[key]
                h.update(key.encode())
                if isinstance(value, np.ndarray):
                    h.update(f"{value.dtype.str}{value.shape}".encode())
                    h.update(np.ascontiguousarray(value).tobytes())
                else:
                    h.update(repr(value).encode())
    return h.hexdigest()


class TestTablePins:
    """The suite tables and every BBOB instance's ``params``, byte for byte.

    The evaluation oracles read ``inst.params`` on both sides, so only a pin
    of the parameters themselves catches a change in how they are built.
    """

    def test_names_in_suite_order(self):
        names = [p.display_name for s in (BBOB, PB) for p in list_functions(s)]
        assert tuple(names) == PINNED_NAMES

    def test_structural_classes(self):
        assert tuple(bbob_class(k) for k in range(1, 25)) == PINNED_CLASSES

    @pytest.mark.parametrize("seed", [0, 3])
    def test_rotation_counts(self, seed):
        counts = tuple(len(make_instance(problem(BBOB, k), 5, seed).rotations)
                       for k in range(1, 25))
        assert counts == PINNED_ROTATIONS

    @pytest.mark.parametrize("k", range(1, 25))
    def test_params_digest(self, k):
        assert _params_digest(k) == PINNED_PARAMS[k]
