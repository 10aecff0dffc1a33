"""Tests for dataset generation, regimes, noise protocols, and storage."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcid import codec, datasets, rng
from funcid.datasets import (
    Dataset,
    DatasetError,
    DatasetFormatError,
    DatasetSpec,
    DigestMismatchError,
    NoiseKind,
    NoiseSpec,
    Regime,
    _fisher_yates,
    add_gaussian_noise,
    add_uniform_noise,
    build_dataset,
    content_digest,
    instance_seed_table,
    load,
    save,
    shuffle_sync,
)
from funcid.encoder import EncoderConfig, construct_image
from funcid.suite import Suite, SuiteError, check_dim, list_functions, make_instance

BBOB = Suite.CONTINUOUS_BBOB


def small_spec(regime=Regime.L1, train=4, val=0, test=2, instances=1, unseen=0, seed=5,
               noise=NoiseSpec(), dim=3, suite=BBOB):
    return DatasetSpec(
        suite=suite,
        dim=dim,
        encoder=EncoderConfig(dim=dim, sample_size=4, frame_size=8),
        regime=regime,
        per_class_train=train,
        per_class_val=val,
        per_class_test=test,
        instances_per_function=instances,
        unseen_instances_per_function=unseen,
        master_seed=seed,
        noise=noise,
    )


def _discrete_spec(dim: int) -> DatasetSpec:
    """An L1 discrete spec whose default frame fits d up to 22."""
    return DatasetSpec(suite=Suite.DISCRETE_PB, dim=dim, regime=Regime.L1,
                       encoder=EncoderConfig(dim=dim, sample_size=4), per_class_train=1)


# -- spec validation -----------------------------------------------------------


# Uniform noise ranges the draw cannot take: a NaN or infinite bound, or an
# infinite width between finite bounds.
NON_FINITE_RANGES = [
    (float("nan"), 2.5),
    (-2.5, float("nan")),
    (-float("inf"), 2.5),
    (0.0, float("inf")),
    (-1e308, 1e308),
]


class TestSpecValidation:
    def test_l1_requires_single_instance(self):
        with pytest.raises(DatasetError):
            small_spec(regime=Regime.L1, instances=2)

    def test_l3_requires_unseen(self):
        with pytest.raises(DatasetError):
            small_spec(regime=Regime.L3, instances=2, unseen=0)

    def test_noise_range_check(self):
        with pytest.raises(DatasetError):
            NoiseSpec(kind=NoiseKind.UNIFORM_RANGE, uniform_lo=1.0, uniform_hi=-1.0)

    @pytest.mark.parametrize("lo, hi", NON_FINITE_RANGES)
    def test_non_finite_noise_range_rejected(self, lo, hi):
        with pytest.raises(DatasetError, match="needs finite bounds and width"):
            NoiseSpec(kind=NoiseKind.UNIFORM_RANGE, uniform_lo=lo, uniform_hi=hi)

    def test_encoder_dim_must_match(self):
        with pytest.raises(DatasetError):
            DatasetSpec(
                suite=BBOB,
                dim=4,
                encoder=EncoderConfig(dim=3, sample_size=4, frame_size=8),
                regime=Regime.L1,
                per_class_train=1,
            )

    def test_continuous_dim_below_2_rejected_discrete_passes(self):
        # The suite's rule, checked when the spec is made, before any instance.
        with pytest.raises(SuiteError, match="continuous suite needs d >= 2, got 1"):
            small_spec(dim=1)
        assert small_spec(dim=1, suite=Suite.DISCRETE_PB).dim == 1

    def test_discrete_dim_must_suit_every_function(self):
        # Checked when the spec is made, before any instance: IsingTriangular
        # needs a square lattice, which the other five functions do not.
        with pytest.raises(SuiteError) as info:
            _discrete_spec(22)
        assert str(info.value) == (
            "IsingTriangular needs a square lattice; d=22 is not a perfect square"
        )

    @pytest.mark.parametrize("dim", [1, 4, 9, 16])
    def test_discrete_square_dims_pass(self, dim):
        assert _discrete_spec(dim).dim == dim

    @pytest.mark.parametrize("dim", [0, 65])
    def test_discrete_dim_outside_bitstring_range(self, dim):
        with pytest.raises(SuiteError, match=f"bitstring length {dim} outside"):
            check_dim(Suite.DISCRETE_PB, dim)

    def test_paper_scale_split_arithmetic(self):
        # 24 classes at per-class (1001, 501, 498) give the full-scale
        # 24024/12024/11952 split sizes.
        spec = DatasetSpec(
            suite=BBOB,
            dim=22,
            encoder=EncoderConfig(dim=22, sample_size=24),
            regime=Regime.L1,
            per_class_train=1001,
            per_class_val=501,
            per_class_test=498,
        )
        assert spec.per_class_train * spec.class_count == 24024
        assert spec.per_class_val * spec.class_count == 12024
        assert spec.per_class_test * spec.class_count == 11952

    def test_l2_paper_split_arithmetic(self):
        # 30120 train / 14760 test over 24 classes = 1255 / 615 per class.
        assert 30120 // 24 == 1255 and 14760 // 24 == 615

    def test_spec_dict_roundtrip(self):
        spec = small_spec(regime=Regime.L3, instances=2, unseen=2,
                          noise=NoiseSpec(NoiseKind.UNIFORM_RANGE, -2.5, 2.5))
        data = codec.encode(spec)
        assert codec.decode(DatasetSpec, data, DatasetError, "spec.json", "spec") == spec


# -- generation -----------------------------------------------------------------


class TestBuildDataset:
    def test_split_sizes_and_balance(self):
        splits = build_dataset(small_spec(train=4, val=2, test=3))
        assert len(splits["train"]) == 4 * 24
        assert len(splits["val"]) == 2 * 24
        assert len(splits["test"]) == 3 * 24
        for ds in splits.values():
            counts = np.bincount(ds.labels, minlength=24)
            assert counts.min() == counts.max()

    def test_labels_zero_based(self):
        splits = build_dataset(small_spec(train=2, test=0))
        ds = splits["train"]
        assert ds.labels.dtype == np.int64 and ds.pixels.dtype == np.float32
        assert set(ds.labels.tolist()) == set(range(24))
        # label + 1 is the 1-based function index of the image's instance
        table = ds.manifest.instance_seeds
        for label, seed in zip(ds.labels.tolist(), ds.manifest.image_seeds):
            assert table[label + 1] == [seed]

    def test_regeneration_identical(self):
        spec = small_spec()
        a = build_dataset(spec)
        b = build_dataset(spec)
        for name in ("train", "val", "test"):
            assert a[name].manifest.digest == b[name].manifest.digest

    def test_l1_uses_one_instance_per_class(self):
        splits = build_dataset(small_spec(train=4, test=2))
        seeds = splits["train"].manifest.image_seeds
        assert len(set(seeds)) == 24

    def test_l2_cycles_instances(self):
        splits = build_dataset(small_spec(regime=Regime.L2, instances=3, train=6, test=3))
        manifest = splits["train"].manifest
        # every class contributes replicates of exactly 3 instance seeds
        assert len(set(manifest.image_seeds)) == 24 * 3

    def test_l3_test_uses_disjoint_unseen_seeds(self):
        spec = small_spec(regime=Regime.L3, instances=2, unseen=2, train=4, test=4)
        splits = build_dataset(spec)
        train_seeds = set(splits["train"].manifest.image_seeds)
        test_seeds = set(splits["test"].manifest.image_seeds)
        assert train_seeds.isdisjoint(test_seeds)
        unseen = {
            s
            for v in splits["test"].manifest.unseen_instance_seeds.values()
            for s in v
        }
        assert test_seeds <= unseen

    def test_instance_seed_table_deterministic(self):
        spec = small_spec(regime=Regime.L2, instances=2)
        assert instance_seed_table(spec) == instance_seed_table(spec)

    def test_fresh_sample_seeds_per_replicate(self):
        splits = build_dataset(small_spec(train=3, test=0))
        by_class: dict[int, list] = {}
        for pixels, label in zip(splits["train"].pixels, splits["train"].labels):
            by_class.setdefault(int(label), []).append(pixels)
        for pixel_list in by_class.values():
            assert not np.array_equal(pixel_list[0], pixel_list[1])

    def test_discrete_suite_build(self):
        spec = small_spec(dim=4, suite=Suite.DISCRETE_PB, train=3, test=1)
        splits = build_dataset(spec)
        assert len(splits["train"]) == 3 * 6
        assert set(splits["train"].labels) == set(range(6))


def _planned_images(spec: DatasetSpec) -> dict[str, list]:
    """The reference plan: per split, one (problem, instance seed, sample seed)
    per image, class-major in suite order.  Replicate ell of a class shows
    pool[ell % len(pool)], where the pool is the class's training seeds, or
    its unseen seeds on an L3 test split."""
    train, unseen = instance_seed_table(spec)
    plans = {}
    for tag, (split, per_class) in enumerate(
        (("train", spec.per_class_train), ("val", spec.per_class_val),
         ("test", spec.per_class_test))
    ):
        table = unseen if spec.regime is Regime.L3 and split == "test" else train
        plans[split] = [
            (prob, table[prob.index][ell % len(table[prob.index])],
             rng.derive_seed(spec.master_seed, rng.SAMPLES, tag, prob.index, ell))
            for prob in list_functions(spec.suite)
            for ell in range(per_class)
        ]
    return plans


# Pools that divide the per-class count, that do not, and that exceed it.
PLANNED_SPECS = {
    "L1": small_spec(train=3, val=1, test=2),
    "L2-uneven": small_spec(regime=Regime.L2, instances=3, train=7, val=2, test=4),
    "L3-uneven": small_spec(regime=Regime.L3, instances=3, unseen=2, train=7, test=3),
    "L3-short": small_spec(regime=Regime.L3, instances=4, unseen=3, train=2, val=5, test=1),
    "L2-discrete": small_spec(regime=Regime.L2, instances=2, train=3, test=1, dim=4,
                              suite=Suite.DISCRETE_PB),
}


@pytest.mark.parametrize("spec", PLANNED_SPECS.values(), ids=PLANNED_SPECS.keys())
def test_each_image_is_its_planned_instance_and_sample_seed(spec, monkeypatch):
    built, batches = [], []
    monkeypatch.setattr(datasets, "make_instance", lambda prob, d, seed, rotations: (
        built.append((prob.index, seed)) or make_instance(prob, d, seed, rotations)))
    monkeypatch.setattr(datasets, "construct_image", lambda instance, cfg, seeds: (
        batches.append(len(seeds)) or construct_image(instance, cfg, seeds)))
    splits = build_dataset(spec)
    plans = _planned_images(spec)
    # One instance per distinct planned (function, seed), one batch per
    # (instance, split), and no empty batch.
    keys = [{(prob.index, seed) for prob, seed, _ in plan} for plan in plans.values()]
    assert sorted(built) == sorted(set().union(*keys))
    assert len(batches) == sum(map(len, keys)) and min(batches, default=1) > 0
    instances = {}
    for tag, (split, plan) in enumerate(plans.items()):
        ds = splits[split]
        assert len(ds) == len(plan)
        # Shuffled row i holds unshuffled row order[i].
        order = _fisher_yates(len(plan), rng.derive_seed(spec.master_seed, rng.SHUFFLE, tag))
        for i, j in enumerate(order.tolist()):
            prob, instance_seed, sample_seed = plan[j]
            key = (prob.index, instance_seed)
            if key not in instances:
                instances[key] = make_instance(prob, spec.dim, instance_seed)
            image = construct_image(instances[key], spec.encoder, sample_seed).pixels
            assert ds.labels[i] == prob.index - 1
            assert ds.manifest.image_seeds[i] == instance_seed
            assert ds.pixels[i].tobytes() == image.tobytes()


# -- shuffling -------------------------------------------------------------------


def _stack(n: int) -> np.ndarray:
    """n 2 x 2 float32 images; image i holds the value i."""
    return np.repeat(np.arange(n, dtype=np.float32), 4).reshape(n, 2, 2)


class TestShuffleSync:
    def test_pairing_preserved(self):
        pixels, labels = _stack(10), np.arange(10)
        shuffled_pixels, shuffled_labels = shuffle_sync(pixels, labels, seed=3)
        assert sorted(shuffled_labels.tolist()) == labels.tolist()
        for image, lab in zip(shuffled_pixels, shuffled_labels):
            assert np.all(image == lab)

    def test_deterministic(self):
        pixels, labels = _stack(20), np.arange(20)
        a = shuffle_sync(pixels, labels, seed=9)
        b = shuffle_sync(pixels, labels, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_tiny_n_fisher_yates_oracle(self):
        # Replay the same seeded Fisher-Yates by hand for n=3.
        g = rng.substream(11, rng.SHUFFLE)
        idx = [0, 1, 2]
        for i in (2, 1):
            j = int(g.integers(0, i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        pixels, labels, seeds = shuffle_sync(_stack(3), np.arange(3), 11, np.array([7, 8, 9]))
        assert labels.tolist() == idx
        assert np.array_equal(pixels, _stack(3)[idx])
        assert seeds.tolist() == [[7, 8, 9][i] for i in idx]

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 960])
    def test_fisher_yates_matches_one_draw_per_swap(self, n):
        # The oracle takes one scalar draw per swap; the shuffle takes all its
        # draws in one call, which must give the same indices.
        g = rng.substream(5, rng.SHUFFLE)
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(g.integers(0, i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        _, labels = shuffle_sync(_stack(n), np.arange(n), 5)
        assert labels.tolist() == idx

    def test_length_mismatch(self):
        with pytest.raises(DatasetError):
            shuffle_sync(_stack(2), np.arange(1), seed=0)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_shuffle_is_permutation(self, seed, n):
        pixels, labels = _stack(n), np.arange(n) * 2
        sp, sl = shuffle_sync(pixels, labels, seed)
        assert sorted(sp[:, 0, 0].tolist()) == list(range(n))
        assert np.array_equal(sl, sp[:, 0, 0] * 2)


# -- noise -----------------------------------------------------------------------


class TestNoise:
    def _tiny(self) -> Dataset:
        return build_dataset(small_spec(train=2, test=0))["train"]

    def test_gaussian_amplitude_zero_is_identity(self):
        ds = self._tiny()
        noisy = add_gaussian_noise(ds, seed=1, amplitude=0.0)
        assert noisy.manifest.digest == ds.manifest.digest

    def test_gaussian_changes_pixels_not_labels(self):
        ds = self._tiny()
        noisy = add_gaussian_noise(ds, seed=1)
        assert np.array_equal(noisy.labels, ds.labels)
        assert noisy.manifest.digest != ds.manifest.digest
        assert noisy.manifest.spec == ds.manifest.spec

    def test_gaussian_constant_zero_image_unchanged(self):
        ds = self._tiny()
        ds.pixels[0] = 0.0
        noisy = add_gaussian_noise(ds, seed=1, amplitude=1.0)
        assert np.array_equal(noisy.pixels[0], np.zeros_like(ds.pixels[0]))

    def test_gaussian_sample_variance(self):
        # With amplitude forced to 1, sigma = max/2; the added noise over
        # ~1e5 pixels must match that variance within 5%.
        spec = small_spec(train=60, test=0, dim=3)
        ds = build_dataset(spec)["train"]  # 1440 images x 64 px = 92160
        noisy = add_gaussian_noise(ds, seed=9, amplitude=1.0)
        ratios = []
        for before, after in zip(ds.pixels, noisy.pixels):
            sigma = max(float(before.max()), 0.0) / 2.0
            if sigma == 0.0:
                continue
            delta = (after.astype(np.float64) - before) / sigma
            ratios.append(delta.reshape(-1))
        pooled = np.concatenate(ratios)
        assert pooled.size > 1e5 * 0.6
        assert abs(pooled.var() - 1.0) < 0.05

    def test_uniform_identity_when_lo_hi_zero(self):
        ds = self._tiny()
        noisy = add_uniform_noise(ds, 0.0, 0.0, seed=1)
        assert noisy.manifest.digest == ds.manifest.digest

    def test_uniform_range_respected(self):
        ds = self._tiny()
        noisy = add_uniform_noise(ds, -2.5, 2.5, seed=1)
        for before, after in zip(ds.pixels, noisy.pixels):
            delta = after.astype(np.float64) - before
            assert np.all(delta >= -2.5) and np.all(delta <= 2.5)

    def test_uniform_mean_estimator(self):
        spec = small_spec(train=60, test=0, dim=3)
        ds = build_dataset(spec)["train"]
        lo, hi = -1.0, 3.0
        noisy = add_uniform_noise(ds, lo, hi, seed=2)
        deltas = np.concatenate(
            [(a.astype(np.float64) - b).reshape(-1) for a, b in zip(noisy.pixels, ds.pixels)]
        )
        assert abs(deltas.mean() - (lo + hi) / 2.0) < 0.05

    def test_uniform_inverted_range_rejected(self):
        with pytest.raises(DatasetError):
            add_uniform_noise(self._tiny(), 1.0, -1.0, seed=0)

    @pytest.mark.parametrize("lo, hi", NON_FINITE_RANGES)
    def test_uniform_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(DatasetError, match="needs finite bounds and width"):
            add_uniform_noise(self._tiny(), lo, hi, seed=0)

    def test_noise_record_appended(self):
        ds = self._tiny()
        noisy = add_uniform_noise(ds, -1.0, 1.0, seed=3)
        assert len(noisy.manifest.noise_applied) == 1
        assert "uniform" in noisy.manifest.noise_applied[0]


# -- serialization ----------------------------------------------------------------


class TestSaveLoad:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = build_dataset(small_spec(train=3, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        back = load(path)
        assert back.manifest.digest == ds.manifest.digest
        assert content_digest(back.pixels, back.labels) == ds.manifest.digest
        assert back.labels.dtype == np.int64 and np.array_equal(back.labels, ds.labels)
        assert back.pixels.dtype == np.float32 and back.pixels.shape == ds.pixels.shape
        assert back.pixels.tobytes() == ds.pixels.tobytes()

    def test_corrupt_byte_detected(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[64] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DigestMismatchError):
            load(path)

    def test_edited_manifest_digest_detected(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        sidecar = tmp_path / "data.limg.manifest.json"
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        manifest["digest"] = "0" * 64
        sidecar.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DigestMismatchError, match="manifest digest"):
            load(path)

    def test_bad_magic(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            load(path)

    def test_version_mismatch(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            load(path)

    def test_truncated_file(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(DatasetFormatError):
            load(path)

    def test_empty_dataset_roundtrip(self, tmp_path):
        splits = build_dataset(small_spec(train=2, test=0))
        empty = splits["test"]
        assert len(empty) == 0
        path = tmp_path / "empty.limg"
        save(empty, path)
        back = load(path)
        assert len(back) == 0
        assert back.manifest.digest == empty.manifest.digest

    @staticmethod
    def _saved(tmp_path, train=2):
        ds = build_dataset(small_spec(train=train, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        return path, tmp_path / "data.limg.manifest.json"

    @staticmethod
    def _edit_manifest(sidecar, edit):
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        edit(manifest)
        sidecar.write_text(json.dumps(manifest), encoding="utf-8")

    @pytest.mark.parametrize(
        "text,message",
        [("{", "unreadable manifest"), ("[]", "manifest is not a JSON object")],
        ids=["not-json", "list"],
    )
    def test_sidecar_not_an_object(self, tmp_path, text, message):
        path, sidecar = self._saved(tmp_path)
        sidecar.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"manifest.json: {message}"):
            load(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m.pop("digest"), "manifest lacks digest"),
            (lambda m: m["spec"].pop("noise"), "manifest lacks spec.noise"),
            (lambda m: m.update(size="48"), "manifest size must be int, got '48'"),
            (lambda m: m["spec"].update(dim=True), "manifest spec.dim must be int, got True"),
            (lambda m: m["image_seeds"].__setitem__(1, "5"),
             r"manifest image_seeds\[1\] must be int, got '5'"),
            (lambda m: m["instance_seeds"].update(x=[1]),
             "manifest instance_seeds key must be int, got 'x'"),
            (lambda m: m["spec"]["encoder"].update(image_type=9),
             "manifest spec.encoder.image_type: 9 is not a valid ImageType"),
            (lambda m: m["spec"].update(per_class_train=0),
             "manifest spec: per-class training count must be >= 1"),
        ],
        ids=["no-digest", "no-spec-noise", "str-size", "bool-dim", "str-image-seed",
             "str-class-key", "image-type-9", "no-train-images"],
    )
    def test_malformed_sidecar(self, tmp_path, edit, message):
        path, sidecar = self._saved(tmp_path)
        self._edit_manifest(sidecar, edit)
        with pytest.raises(DatasetFormatError, match=f"manifest.json: {message}"):
            load(path)

    def test_sidecar_int_bound_and_unknown_key_load(self, tmp_path):
        path, sidecar = self._saved(tmp_path)
        self._edit_manifest(
            sidecar, lambda m: (m["spec"]["noise"].update(uniform_hi=1), m.update(note="x"))
        )
        assert load(path).manifest.spec.noise.uniform_hi == 1

    def test_header_class_count_must_match_manifest(self, tmp_path):
        path, _ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("<H", 7)  # the manifest says 24 classes
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="class count 7, manifest 24"):
            load(path)

    def test_header_frame_size_must_match_manifest(self, tmp_path):
        path, sidecar = self._saved(tmp_path)
        self._edit_manifest(sidecar, lambda m: m["spec"]["encoder"].update(frame_size=16))
        with pytest.raises(DatasetFormatError, match="frame size 8, manifest 16"):
            load(path)

    def test_manifest_size_must_match_record_count(self, tmp_path):
        path, sidecar = self._saved(tmp_path)
        self._edit_manifest(sidecar, lambda m: m.update(size=999))
        with pytest.raises(DatasetFormatError, match="48 records, manifest size 999"):
            load(path)

    def test_image_seeds_must_match_record_count(self, tmp_path):
        path, sidecar = self._saved(tmp_path)
        self._edit_manifest(sidecar, lambda m: m.update(image_seeds=m["image_seeds"][:3]))
        with pytest.raises(DatasetFormatError, match="3 image seeds"):
            load(path)

    def test_label_must_name_a_class(self, tmp_path):
        path, sidecar = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[18:20] = struct.pack("<H", 24)  # first record's label; classes are 0..23
        digest = hashlib.sha256(bytes(raw[18:-32])).digest()
        raw[-32:] = digest
        path.write_bytes(bytes(raw))
        self._edit_manifest(sidecar, lambda m: m.update(digest=digest.hex()))
        with pytest.raises(DatasetFormatError, match="label 24 out of range for 24 classes"):
            load(path)

    def test_record_stream_matches_per_image_reference(self, tmp_path):
        # The per-image struct loop that wrote LIMG records before they were
        # one structured array: "<H" label, then the "<f4" pixels.
        def reference(pixels, labels):
            return b"".join(
                struct.pack("<H", int(label)) + image.astype("<f4").tobytes()
                for image, label in zip(pixels, labels)
            )

        pixels = np.random.default_rng(4).standard_normal((5, 3, 3)).astype(np.float32)
        labels = np.array([0, 1, 300, 65535, 7])
        assert content_digest(pixels, labels) == hashlib.sha256(
            reference(pixels, labels)
        ).hexdigest()

        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        body = reference(ds.pixels, ds.labels)
        assert path.read_bytes()[18:-32] == body
        assert ds.manifest.digest == hashlib.sha256(body).hexdigest()

    def test_binary_layout(self, tmp_path):
        ds = build_dataset(small_spec(train=2, test=0))["train"]
        path = tmp_path / "data.limg"
        save(ds, path)
        raw = path.read_bytes()
        assert raw[:4] == b"LIMG"
        m = ds.manifest.spec.encoder.frame_size
        assert len(raw) == 18 + len(ds) * (2 + 4 * m * m) + 32
