"""Tests for the five landscape-image layouts and their query budgets."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcid.encoder import (
    DomainMap,
    EncoderConfig,
    EncoderError,
    ImageType,
    _display_index,
    _probe_row_sequence,
    construct_image,
    layout,
    probe_vectors,
    sample_points,
    type5_sample_count,
    write_pgm,
)
from funcid.nn import ModelError, init_model
from funcid.nn.network import min_max
from funcid.suite import Suite, core, evaluate, make_instance, problem

BBOB = Suite.CONTINUOUS_BBOB


def sphere(d=2, seed=7):
    return make_instance(problem(BBOB, 1), d, seed)


def encode(samples, values, probe_values, cfg):
    """``layout`` of the displayed rows, from sample values and per-probe values."""
    index = _display_index(1, len(samples), cfg)[0]
    vectors = np.concatenate([samples, probe_vectors(cfg.dim)])[index]
    return layout(vectors, np.concatenate([values, probe_values])[index], cfg)


# -- layout reference: the per-row loop and the Type-5 stream loop ------------


def _value_replicated_row(vec: np.ndarray, value: float, m: int) -> np.ndarray:
    """[x, y, then y replicated out to width M]."""
    row = np.empty(m)
    row[: vec.size] = vec
    row[vec.size :] = value
    return row


def _tiled_row(vec: np.ndarray, value: float, m: int) -> np.ndarray:
    """tau repeated left-to-right, last copy truncated at width M."""
    tau = np.append(vec, value)
    reps = -(-m // tau.size)
    return np.tile(tau, reps)[:m]


def _frame(samples, values, probe_values, cfg, row_fn, probe_cycle: bool) -> np.ndarray:
    m, d = cfg.frame_size, cfg.dim
    probes = probe_vectors(d)
    pixels = np.empty((m, m))
    for j in range(min(len(samples), m)):
        pixels[j] = row_fn(samples[j], values[j], m)
    for j in range(len(samples), m):
        idx = (j - len(samples)) % (d + 1) if probe_cycle else 0
        pixels[j] = row_fn(probes[idx], probe_values[idx], m)
    return pixels


def _encode_type5_reference(samples, values, probe_values, cfg: EncoderConfig) -> np.ndarray:
    """Flat stream tau(0), tau(e1), tau(x1), ... reshaped row-wise to M x M."""
    m, d = cfg.frame_size, cfg.dim
    probes = probe_vectors(d)
    stream = np.empty(m * m)
    pos = 0
    vectors = [(probes[0], probe_values[0]), (probes[1], probe_values[1])] if d >= 1 else []
    vectors += [(samples[j], values[j]) for j in range(len(samples))]
    for vec, val in vectors:
        if pos >= stream.size:
            break
        tau = np.append(vec, val)
        take = min(tau.size, stream.size - pos)
        stream[pos : pos + take] = tau[:take]
        pos += take
    if pos != stream.size:
        raise EncoderError("Type-5 stream under-filled; not enough sample vectors")
    return stream.reshape(m, m)


def encode_reference(samples, values, probe_values, cfg):
    t = cfg.image_type
    if t is ImageType.TYPE5:
        return _encode_type5_reference(samples, values, probe_values, cfg)
    row_fn = _value_replicated_row if t in (ImageType.TYPE1, ImageType.TYPE3) else _tiled_row
    probe_cycle = t in (ImageType.TYPE3, ImageType.TYPE4)
    return _frame(samples, values, probe_values, cfg, row_fn, probe_cycle)


# -- sampling ----------------------------------------------------------------


class TestSamplePoints:
    def test_range_and_shape(self):
        pts = sample_points(3, 5, seed=42)
        assert pts.shape == (5, 3)
        assert np.all((pts >= 0.0) & (pts < 1.0))

    def test_deterministic(self):
        assert np.array_equal(sample_points(3, 5, 42), sample_points(3, 5, 42))

    def test_affine_map_to_box(self):
        pts = sample_points(3, 50, 42, DomainMap.AFFINE_TO_BBOB_BOX)
        assert np.all((pts >= -5.0) & (pts < 5.0))
        assert pts.min() < -2.0 and pts.max() > 2.0

    def test_monte_carlo_mean(self):
        pts = sample_points(2, 10_000, seed=1)
        assert abs(pts.mean() - 0.5) < 0.02

    def test_argument_validation(self):
        with pytest.raises(EncoderError):
            sample_points(0, 5, 1)
        with pytest.raises(EncoderError):
            sample_points(2, 0, 1)


# -- config capacity ----------------------------------------------------------


class TestEncoderConfig:
    def test_types_1_to_4_capacity(self):
        EncoderConfig(dim=31, sample_size=32, image_type=1)
        with pytest.raises(EncoderError):
            EncoderConfig(dim=32, sample_size=24, image_type=1)
        with pytest.raises(EncoderError):
            EncoderConfig(dim=40, sample_size=24, image_type=4)

    def test_type5_capacity(self):
        EncoderConfig(dim=40, sample_size=24, image_type=5)
        EncoderConfig(dim=1023, sample_size=1, image_type=5)
        with pytest.raises(EncoderError):
            EncoderConfig(dim=1024, sample_size=1, image_type=5)

    def test_sample_rows_must_fit(self):
        with pytest.raises(EncoderError):
            EncoderConfig(dim=2, sample_size=33, image_type=1)


# -- hand-derived layouts ------------------------------------------------------


class TestLayouts:
    def test_type1_hand_case(self):
        # d=2, M=4: rows [x, y, y] then zero-probe rows [0, 0, f0, f0].
        cfg = EncoderConfig(dim=2, sample_size=2, image_type=1, frame_size=4)
        samples = np.array([[0.1, 0.2], [0.3, 0.4]])
        values = np.array([5.0, 7.0])
        probe_values = np.array([1.0, np.nan, np.nan])
        pixels = encode(samples, values, probe_values, cfg)
        expected = np.array(
            [
                [0.1, 0.2, 5.0, 5.0],
                [0.3, 0.4, 7.0, 7.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        assert np.array_equal(pixels, expected)

    def test_type1_replication_width(self):
        cfg = EncoderConfig(dim=22, sample_size=24, image_type=1)
        img = construct_image(sphere(22), cfg, sample_seed=3)
        # each row ends with 1 value + 9 replications: columns 22..31 equal
        for row in img.pixels:
            assert np.all(row[22:] == row[22])

    def test_type1_boundary_no_probe_rows(self):
        cfg = EncoderConfig(dim=31, sample_size=32, image_type=1)
        inst = sphere(31)
        img = construct_image(inst, cfg, sample_seed=3)
        assert img.pixels.shape == (32, 32)
        # no replications: column 31 is the value column; no zero rows
        assert not np.any(np.all(img.pixels[:, :31] == 0.0, axis=1))

    def test_type2_row_tiling(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=2, frame_size=4)
        pixels = encode(
            np.array([[0.1, 0.2]]), np.array([5.0]), np.array([1.0, np.nan, np.nan]), cfg
        )
        assert np.allclose(pixels[0], [0.1, 0.2, 5.0, 0.1])
        assert np.allclose(pixels[1], [0.0, 0.0, 1.0, 0.0])

    def test_type2_d22_tiling_remainder(self):
        cfg = EncoderConfig(dim=22, sample_size=24, image_type=2)
        img = construct_image(sphere(22), cfg, sample_seed=3)
        row = img.pixels[0]
        # one full 23-wide tau then its first 9 components again
        assert np.array_equal(row[23:32], row[0:9])

    def test_type2_d31_remainder_one(self):
        cfg = EncoderConfig(dim=31, sample_size=32, image_type=2)
        img = construct_image(sphere(31), cfg, sample_seed=3)
        assert img.pixels[0, 31 + 1 - 1] == img.pixels[0, 31]  # width 32 = tau + 1
        assert img.pixels[0, -1] != 0 or True  # layout reached the last column

    def test_type3_probe_cycle(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=3, frame_size=6)
        probe_values = np.array([1.0, 3.0, 4.0])
        pixels = encode(
            np.array([[0.5, 0.5]]), np.array([2.0]), probe_values, cfg
        )
        probes = probe_vectors(2)
        expected_cycle = [0, 1, 2, 0, 1]
        for row_idx, p_idx in enumerate(expected_cycle, start=1):
            assert np.array_equal(pixels[row_idx, :2], probes[p_idx])
            assert np.all(pixels[row_idx, 2:] == probe_values[p_idx])

    def test_type3_truncated_prefix(self):
        # d=30, N=24: only the first 8 probes (0, e1..e7) fit.
        cfg = EncoderConfig(dim=30, sample_size=24, image_type=3)
        img = construct_image(sphere(30), cfg, sample_seed=3)
        probes = probe_vectors(30)
        for i in range(8):
            assert np.array_equal(img.pixels[24 + i, :30], probes[i].astype(np.float32))

    def test_type3_no_probe_rows_when_full(self):
        cfg = EncoderConfig(dim=2, sample_size=6, image_type=3, frame_size=6)
        img = construct_image(sphere(2), cfg, sample_seed=3)
        assert img.query_cost.distinct_queries == 6  # samples only

    def test_type4_probe_row_tiling(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=4, frame_size=4)
        pixels = encode(
            np.array([[0.5, 0.5]]), np.array([9.0]), np.array([1.0, 2.0, 3.0]), cfg
        )
        assert np.allclose(pixels[2], [1.0, 0.0, 2.0, 1.0])  # tau(e1) tiled

    def test_type4_equals_type2_when_no_probes(self):
        cfg2 = EncoderConfig(dim=31, sample_size=32, image_type=2)
        cfg4 = EncoderConfig(dim=31, sample_size=32, image_type=4)
        inst = sphere(31)
        img2 = construct_image(inst, cfg2, sample_seed=9)
        img4 = construct_image(inst, cfg4, sample_seed=9)
        assert np.array_equal(img2.pixels, img4.pixels)

    def test_type5_stream_structure(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=5, frame_size=4)
        assert type5_sample_count(cfg) == 4  # 16 slots: 2 probes, 3 full + 1 partial
        inst = sphere(2)
        img = construct_image(inst, cfg, sample_seed=11)
        flat = img.pixels.reshape(-1)
        # leading tau(0) and tau(e1)
        from funcid.suite import evaluate

        assert np.allclose(flat[0:2], [0.0, 0.0])
        assert flat[2] == np.float32(evaluate(inst, np.zeros(2)))
        assert np.allclose(flat[3:5], [1.0, 0.0])
        assert flat[5] == np.float32(evaluate(inst, np.array([1.0, 0.0])))

    def test_type5_reshape_roundtrip(self):
        cfg = EncoderConfig(dim=5, sample_size=1, image_type=5, frame_size=8)
        img = construct_image(sphere(5), cfg, sample_seed=11)
        flat = img.pixels.reshape(-1)
        assert np.array_equal(flat.reshape(8, 8), img.pixels)

    def test_type5_d40_valid(self):
        cfg = EncoderConfig(dim=40, sample_size=24, image_type=5)
        img = construct_image(sphere(40), cfg, sample_seed=2)
        assert img.pixels.shape == (32, 32)

    def test_encode_type5_underfill_rejected(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=5, frame_size=4)
        with pytest.raises(EncoderError):
            encode(
                np.zeros((1, 2)), np.zeros(1), np.array([1.0, 2.0, np.nan]), cfg
            )


# -- layout oracle: the array layouts against the per-row reference ------------

# (type, d, N, M): N == M without probe rows, the Type-3/4 probe cycle
# wrapping and truncated at d=30, M not a multiple of d+1, Type-5 at d=40,
# at M=4 and with a stream that is exactly tau(0) or ends inside tau(e1).
LAYOUT_EDGES = [
    (1, 2, 4, 4), (2, 2, 4, 4), (3, 2, 4, 4), (4, 2, 4, 4), (1, 31, 32, 32), (2, 31, 32, 32),
    (3, 30, 24, 32), (4, 30, 24, 32), (3, 2, 1, 6), (4, 2, 1, 6),
    (1, 22, 24, 32), (2, 22, 24, 32), (3, 4, 3, 7), (4, 4, 3, 7), (2, 5, 2, 8),
    (5, 40, 24, 32), (5, 2, 1, 4), (5, 22, 24, 32), (5, 3, 1, 2), (5, 4, 1, 3),
]


class TestLayoutOracle:
    @pytest.mark.parametrize("t,d,n,m", LAYOUT_EDGES)
    def test_image_matches_reference(self, t, d, n, m):
        cfg = EncoderConfig(dim=d, sample_size=n, image_type=t, frame_size=m)
        inst = make_instance(problem(BBOB, 15), d, 7)
        n_samples = type5_sample_count(cfg) if t == 5 else n
        samples = sample_points(d, n_samples, 5) if n_samples else np.zeros((0, d))
        values = np.array([evaluate(inst, x) for x in samples])
        probe_values = np.array([evaluate(inst, x) for x in probe_vectors(d)])
        want = encode_reference(samples, values, probe_values, cfg).astype(np.float32)
        assert np.array_equal(construct_image(inst, cfg, sample_seed=5).pixels, want)

    @pytest.mark.parametrize("t,d,n,m", LAYOUT_EDGES)
    def test_layout_matches_reference(self, t, d, n, m):
        cfg = EncoderConfig(dim=d, sample_size=n, image_type=t, frame_size=m)
        n_samples = type5_sample_count(cfg) if t == 5 else n
        gen = np.random.default_rng(d * 100 + m)
        samples = gen.standard_normal((n_samples, d))
        values = gen.standard_normal(n_samples)
        probe_values = gen.standard_normal(d + 1)
        got = encode(samples, values, probe_values, cfg)
        assert np.array_equal(got, encode_reference(samples, values, probe_values, cfg))

    def test_type5_underfill_rejected_like_reference(self):
        cfg = EncoderConfig(dim=2, sample_size=1, image_type=5, frame_size=4)
        args = (np.zeros((1, 2)), np.zeros(1), np.array([1.0, 2.0, 3.0]), cfg)
        for fn in (encode, encode_reference):
            with pytest.raises(EncoderError, match="under-filled"):
                fn(*args)


# -- probe semantics -----------------------------------------------------------


class TestProbeSemantics:
    def test_probe_vectors_structure(self):
        probes = probe_vectors(3)
        assert np.array_equal(probes[0], np.zeros(3))
        assert np.array_equal(probes[1:], np.eye(3))

    def test_probe_rows_independent_of_samples(self):
        cfg = EncoderConfig(dim=4, sample_size=8, image_type=3, frame_size=16)
        inst = sphere(4)
        img_a = construct_image(inst, cfg, sample_seed=1)
        img_b = construct_image(inst, cfg, sample_seed=2)
        assert not np.array_equal(img_a.pixels[:8], img_b.pixels[:8])
        assert np.array_equal(img_a.pixels[8:], img_b.pixels[8:])

    def test_translation_sensitivity_witness(self):
        # Sphere instances differing only in translation give different
        # zero-probe rows.
        cfg = EncoderConfig(dim=4, sample_size=8, image_type=1, frame_size=16)
        img_a = construct_image(make_instance(problem(BBOB, 1), 4, 1), cfg, 5)
        img_b = construct_image(make_instance(problem(BBOB, 1), 4, 2), cfg, 5)
        assert not np.array_equal(img_a.pixels[8:], img_b.pixels[8:])


# -- query budgets -------------------------------------------------------------


class TestQueryBudget:
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("d,n,m", [(2, 2, 32), (22, 24, 32), (5, 1, 8), (30, 24, 32)])
    def test_types_1_2_exactly_n_plus_1(self, t, d, n, m):
        cfg = EncoderConfig(dim=d, sample_size=n, image_type=t, frame_size=m)
        img = construct_image(sphere(d), cfg, sample_seed=5)
        assert img.query_cost.distinct_queries == n + 1
        assert img.query_cost.total_queries == m  # one call per displayed row

    @pytest.mark.parametrize("t", [3, 4])
    @pytest.mark.parametrize("d,n,m", [(2, 2, 32), (22, 24, 32), (30, 24, 32), (2, 1, 6)])
    def test_types_3_4_probe_budget(self, t, d, n, m):
        cfg = EncoderConfig(dim=d, sample_size=n, image_type=t, frame_size=m)
        img = construct_image(sphere(d), cfg, sample_seed=5)
        expected = n + min(d + 1, m - n)
        assert img.query_cost.distinct_queries == expected
        assert img.query_cost.distinct_queries <= n + 1 + min(d + 1, m - n)

    @pytest.mark.parametrize("d,m", [(2, 4), (22, 32), (40, 32), (5, 8)])
    def test_type5_budget(self, d, m):
        cfg = EncoderConfig(dim=d, sample_size=1, image_type=5, frame_size=m)
        img = construct_image(sphere(d), cfg, sample_seed=5)
        assert img.query_cost.distinct_queries == type5_sample_count(cfg) + 2

    def test_boundary_n_equals_m_skips_probe(self):
        # No probe rows at N == M: the zero vector is never queried.
        cfg = EncoderConfig(dim=2, sample_size=4, image_type=1, frame_size=4)
        img = construct_image(sphere(2), cfg, sample_seed=5)
        assert img.query_cost.distinct_queries == 4


# -- finalize and export --------------------------------------------------------


def reference_min_max(pixels):
    """Per-image min-max as three full-size temporaries: ``min_max``'s byte oracle."""
    if not np.all(np.isfinite(pixels)):
        raise ModelError("non-finite pixel values")
    lo = pixels.min(axis=(-2, -1), keepdims=True)
    span = pixels.max(axis=(-2, -1), keepdims=True) - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (pixels - lo) / safe
    return np.where(span == 0.0, 0.0, out).astype(pixels.dtype)


def minmax_batch(dtype):
    """Mixed-sign images of several magnitudes, a positive one and three constant ones.

    The constant images are 4.5, all -0.0, and -0.0 and +0.0 alternating.
    numpy's vectorized minimum can return +0.0 for the last one, and then
    ``pixels - lo`` keeps -0.0 where the image has it.
    """
    gen = np.random.default_rng(11)
    scales = np.array([1.0, 1e3, 1e-3, 1.0, 1.0, 1.0, 1.0])
    batch = gen.standard_normal((7, 4, 8)) * scales[:, None, None]
    batch[3] = 4.5
    batch[4] = -0.0
    batch[5] = np.abs(batch[5]) + 1.0
    batch[6] = np.where(np.arange(32).reshape(4, 8) % 2, 0.0, -0.0)
    return batch.astype(dtype)


class TestFinalize:
    def test_minmax_map(self):
        pixels = np.array([[0.0, 10.0], [5.0, 10.0]])
        out = min_max(pixels)
        assert np.array_equal(out, np.array([[0.0, 1.0], [0.5, 1.0]]))

    def test_constant_image_maps_to_zero(self):
        out = min_max(np.full((3, 3), 7.0))
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            min_max(np.array([[np.nan, 1.0]]))
        with pytest.raises(ModelError):
            write_pgm(tmp_path / "nan.pgm", np.array([[np.nan, 1.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_minmax_matches_reference_bytes(self, dtype):
        batch = minmax_batch(dtype)
        # 3-D is the network input; 2-D, one image at a time, the export path.
        for pixels in (batch, *batch):
            out, expected = min_max(pixels), reference_min_max(pixels)
            assert out.dtype == expected.dtype == dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_pixel_rejected(self, bad, dtype):
        batch = minmax_batch(dtype)
        batch[2, 1, 3] = bad
        for pixels in (batch, batch[2]):
            with pytest.raises(ModelError, match="non-finite pixel values"):
                min_max(pixels)

    def test_pgm_scales_in_float64(self, tmp_path):
        # 2.5 + 1e-7 stays above 2.5 in float64 (gray 3) but rounds to 2.5 in
        # float32, which gray rounding (half to even) would map to 2.
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 255.0], [2.5 + 1e-7, 255.0]]))
        assert path.read_bytes()[-4:] == bytes([0, 255, 3, 255])

    def test_export_and_network_input_share_the_expression(self, tmp_path):
        # Per image, the PGM export's float64 scaling is the float64
        # network's input normalization of the same image.
        batch = np.random.default_rng(3).standard_normal((3, 4, 4)) * 50.0
        batch[1] = -2.0
        normed = init_model("perceptron1", 2, 4, seed=0, dtype="float64").apply_input_norm(batch)
        for image, expected in zip(batch, normed):
            assert min_max(image).tobytes() == expected.tobytes()
            path = tmp_path / "img.pgm"
            write_pgm(path, image)
            gray = np.round(expected * 255.0).astype(np.uint8)
            assert path.read_bytes() == b"P5\n4 4\n255\n" + gray.tobytes()

    def test_pgm_export(self, tmp_path):
        img = construct_image(sphere(2), EncoderConfig(2, 2, 1, frame_size=4), 5)
        path = tmp_path / "img.pgm"
        write_pgm(path, img.pixels)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 4\n255\n")
        assert len(raw) == len(b"P5\n4 4\n255\n") + 16


# -- pixel and determinism properties -------------------------------------------


class TestImageProperties:
    @given(
        t=st.sampled_from([1, 2, 3, 4, 5]),
        k=st.sampled_from([1, 3, 8, 21]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_pixels_finite_and_square(self, t, k, seed):
        cfg = EncoderConfig(dim=4, sample_size=6, image_type=t, frame_size=8)
        inst = make_instance(problem(BBOB, k), 4, 3)
        img = construct_image(inst, cfg, sample_seed=seed)
        assert img.pixels.shape == (8, 8)
        assert img.pixels.dtype == np.float32
        assert np.all(np.isfinite(img.pixels))

    def test_same_seed_same_image(self):
        cfg = EncoderConfig(dim=6, sample_size=10, image_type=1, frame_size=16)
        inst = sphere(6)
        a = construct_image(inst, cfg, sample_seed=77)
        b = construct_image(inst, cfg, sample_seed=77)
        assert np.array_equal(a.pixels, b.pixels)

    def test_image_holds_pixels_and_query_cost(self):
        # An image's label and instance seed come from build_dataset's plan.
        cfg = EncoderConfig(dim=2, sample_size=2, image_type=2, frame_size=4)
        inst = make_instance(problem(BBOB, 8), 2, 13)
        img = construct_image(inst, cfg, sample_seed=5)
        assert [f.name for f in dataclasses.fields(img)] == ["pixels", "query_cost"]
        assert img.pixels.shape == (4, 4) and img.query_cost.total_queries > 0

    def test_value_beyond_float32_range_rejected(self, monkeypatch):
        import funcid.encoder

        monkeypatch.setattr(
            funcid.encoder, "evaluate", lambda instance, x: np.full(len(x), 1e39)
        )
        cfg = EncoderConfig(dim=2, sample_size=2, image_type=1, frame_size=4)
        with pytest.raises(EncoderError, match="non-finite"):
            construct_image(sphere(2), cfg, sample_seed=5)

    def test_dim_mismatch_rejected(self):
        cfg = EncoderConfig(dim=3, sample_size=2, image_type=1)
        with pytest.raises(EncoderError):
            construct_image(sphere(2), cfg, sample_seed=5)

    def test_discrete_samples_are_binary(self):
        from funcid.suite import Suite as S

        inst = make_instance(problem(S.DISCRETE_PB, 1), 9, 0)
        cfg = EncoderConfig(dim=9, sample_size=6, image_type=1, frame_size=16)
        img = construct_image(inst, cfg, sample_seed=4)
        x_block = img.pixels[:6, :9]
        assert set(np.unique(x_block)) <= {0.0, 1.0}


# -- batch oracle: a seed list against each seed's point-by-point image -----------


def reference_image(inst, cfg, seed):
    """One seed's image from per-point ``evaluate`` calls and the per-row layout,
    and its (distinct, total) displayed rows."""
    d = cfg.dim
    n = type5_sample_count(cfg) if cfg.image_type is ImageType.TYPE5 else cfg.sample_size
    if n == 0:
        samples = np.zeros((0, d))
    elif inst.problem.suite is Suite.DISCRETE_PB:
        samples = (sample_points(d, n, seed) >= 0.5).astype(np.float64)
    else:
        samples = sample_points(d, n, seed, cfg.domain_map)
    values = np.array([evaluate(inst, x) for x in samples])
    probe_values = np.array([evaluate(inst, x) for x in probe_vectors(d)])
    pixels = encode_reference(samples, values, probe_values, cfg).astype(np.float32)
    rows = np.concatenate([samples, probe_vectors(d)[_probe_row_sequence(cfg)]])
    return pixels, len({row.tobytes() for row in rows}), len(rows)


def assert_batch_matches_seeds(inst, cfg, seeds):
    img = construct_image(inst, cfg, seeds)
    refs = [reference_image(inst, cfg, seed) for seed in seeds]
    m = cfg.frame_size
    want = np.stack([r[0] for r in refs]) if refs else np.empty((0, m, m), np.float32)
    assert img.pixels.dtype == np.float32 and img.pixels.shape == (len(seeds), m, m)
    assert img.pixels.tobytes() == want.tobytes()
    cost = img.query_cost
    assert cost.distinct_queries == sum(r[1] for r in refs)
    assert cost.total_queries == sum(r[2] for r in refs)


# (suite, function, domain map): Sharp Ridge, Gallagher 101 on the BBOB box,
# LABS on bitstrings.
BATCH_CASES = [
    (BBOB, 13, DomainMap.UNIT_CUBE),
    (BBOB, 21, DomainMap.AFFINE_TO_BBOB_BOX),
    (Suite.DISCRETE_PB, 4, DomainMap.UNIT_CUBE),
]


class TestBatchOracle:
    @pytest.mark.parametrize("seeds", [[], [5], [5, 9]], ids=["0", "1", "2"])
    @pytest.mark.parametrize("suite,k,domain", BATCH_CASES)
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_seed_list_matches_each_seed(self, t, suite, k, domain, seeds):
        cfg = EncoderConfig(dim=4, sample_size=3, image_type=t, frame_size=8, domain_map=domain)
        assert_batch_matches_seeds(make_instance(problem(suite, k), 4, 7), cfg, seeds)

    @pytest.mark.parametrize("suite,k,domain", BATCH_CASES)
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_batch_across_row_blocks(self, t, suite, k, domain):
        cfg = EncoderConfig(dim=22, sample_size=24, image_type=t, domain_map=domain)
        seeds = list(range(100, 112))
        assert len(seeds) * cfg.sample_size > core._BLOCK
        assert_batch_matches_seeds(make_instance(problem(suite, k), 22, 7), cfg, seeds)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_n_equals_m(self, t):
        cfg = EncoderConfig(dim=3, sample_size=8, image_type=t, frame_size=8)
        assert_batch_matches_seeds(make_instance(problem(BBOB, 8), 3, 7), cfg, [1, 2, 3])

    @pytest.mark.parametrize("d,m", [(3, 2), (4, 3)])
    def test_type5_frame_without_random_samples(self, d, m):
        cfg = EncoderConfig(dim=d, sample_size=1, image_type=5, frame_size=m)
        assert type5_sample_count(cfg) == 0
        assert_batch_matches_seeds(make_instance(problem(BBOB, 8), d, 7), cfg, [1, 2])

    @pytest.mark.parametrize("seeds", [[1], [2, 3], [4, 5, 6]], ids=["1", "2", "3"])
    def test_duplicate_rows_counted_once_per_image(self, seeds):
        # 8 samples from the 4 bitstrings of length 2 repeat within an image,
        # and the images of a batch share rows.
        cfg = EncoderConfig(dim=2, sample_size=8, image_type=1, frame_size=8)
        inst = make_instance(problem(Suite.DISCRETE_PB, 1), 2, 0)
        refs = [reference_image(inst, cfg, seed) for seed in seeds]
        assert all(r[1] < r[2] for r in refs)
        assert_batch_matches_seeds(inst, cfg, seeds)

    def test_int_seed_is_one_image(self):
        cfg = EncoderConfig(dim=2, sample_size=2, image_type=3, frame_size=4)
        one = construct_image(sphere(2), cfg, 5)
        batch = construct_image(sphere(2), cfg, [5])
        assert one.pixels.shape == (4, 4) and batch.pixels.shape == (1, 4, 4)
        assert construct_image(sphere(2), cfg, np.int64(5)).pixels.tobytes() == one.pixels.tobytes()
        assert one.pixels.tobytes() == batch.pixels.tobytes()
        assert one.query_cost == batch.query_cost

    def test_value_beyond_float32_range_in_one_image_rejected(self, monkeypatch):
        import funcid.encoder

        cfg = EncoderConfig(dim=2, sample_size=2, image_type=1, frame_size=4)
        overflowing = sample_points(2, 2, 6)[1]

        def evaluate_overflowing(instance, x):
            values = evaluate(instance, x)
            values[np.all(x == overflowing, axis=1)] = 1e39
            return values

        monkeypatch.setattr(funcid.encoder, "evaluate", evaluate_overflowing)
        assert construct_image(sphere(2), cfg, [5, 7]).pixels.shape == (2, 4, 4)
        with pytest.raises(EncoderError, match="non-finite"):
            construct_image(sphere(2), cfg, [5, 6, 7])


# -- golden digests (byte-exact regression) --------------------------------------

# SHA-256 of pixels.tobytes() for fixed instance/sample seeds, frozen from
# the first verified implementation run.
GOLDEN = {
    "t1_d2": "e1c1243252ee84c84c2c831f83bdd4f675876a0aa7922a40dcc9949338aff062",
    "t2_d2": "dc95df9992f350b14db9a7a8f6ab2da577bf8c14b2a7338f5befc8023219a0ce",
    "t3_d2": "c65503c212ddfdefe8ff3f752f5107750686e3d01c0fa9a7c29d0f65c1878cb9",
    "t4_d2": "e30c9bb4a744621ef51393129859f6b0433662a09d7eba2ce38f631bdd8d8abc",
    "t5_d2": "28d2557baa1a3f55242a7d17e5f93adb47215dcb4c4a6e0551f50eb29e4fc1db",
    "t1_d22": "f06196afe88698b0f231213fa132b75780fcb563f4c4412a7a4b69455ea51ed9",
    "t2_d22": "abe398dc53e64ebc300b12ea2d2287aab84cbf1aa873402428643a2feaf2d240",
    "t3_d22": "e6ea11d8fbcf86062b38d684455c88672a96020caea074c04269561703e7c48d",
    "t4_d22": "3080532fd00bf2dc523953426cfc660ffcab0ba6ae2db00f31e9504d0c5cb0cc",
    "t5_d22": "16c08a5b0b2ca65e1f8f8ea67685f6d16371370c8a5e87cdba87724d1f580697",
}


def _digest(img) -> str:
    return hashlib.sha256(img.pixels.tobytes()).hexdigest()


class TestGoldenImages:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_golden_d2(self, t):
        cfg = EncoderConfig(dim=2, sample_size=2, image_type=t, frame_size=4)
        img = construct_image(make_instance(problem(BBOB, 1), 2, 7), cfg, sample_seed=5)
        assert _digest(img) == GOLDEN[f"t{t}_d2"]

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_golden_d22_n24(self, t):
        cfg = EncoderConfig(dim=22, sample_size=24, image_type=t, frame_size=32)
        img = construct_image(make_instance(problem(BBOB, 15), 22, 7), cfg, sample_seed=5)
        assert _digest(img) == GOLDEN[f"t{t}_d22"]
