"""Labeled landscape-image datasets: generation, noise protocols, storage.

Generation realizes the high-level pipeline: per class and replicate an
instance is selected according to the learning regime, one image is
constructed with a fresh sample seed (one batch per instance and split),
and each split is shuffled in lockstep with its labels.  A split is held
column-wise: one (n, M, M) float32 pixel array and one (n,) label array.
Three regimes are supported:

  L1  one fixed instance per function,
  L2  a fixed pool of instances per function, cycled over replicates,
  L3  as L2 for train/val, but test images come from disjoint unseen
      instance seeds.

Datasets serialize to a little-endian binary container (magic ``LIMG``)
with a SHA-256 content digest, plus a JSON sidecar manifest recording the
spec, sizes, and every seed needed to regenerate the file bit-exactly.  The
manifest lists each image's instance seed in file order; an image's sample
seed is not stored, because it is re-derived from the master seed, split,
class and replicate.  ``funcid.codec`` writes the sidecar from the
``DatasetManifest`` and decodes it by the dataclasses' type hints: one that is
not a JSON object, lacks a field, holds a mistyped value or an unknown enum
value, or a spec ``DatasetSpec`` rejects raises ``DatasetFormatError`` naming
the sidecar and the field.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codec, rng
from .encoder import EncoderConfig, construct_image
from .suite import Suite, check_dim, draw_rotations, list_functions, make_instance


class Regime(enum.Enum):
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


class NoiseKind(enum.Enum):
    NONE = "none"
    GAUSSIAN_HALF_MAX = "gaussian_half_max"
    UNIFORM_RANGE = "uniform_range"


class DatasetError(ValueError):
    """Invalid dataset specification or operation."""


class DatasetFormatError(RuntimeError):
    """Unreadable dataset file (bad magic, version, truncation) or malformed sidecar."""


class DigestMismatchError(DatasetFormatError):
    """Stored content digest does not match the file body."""


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    uniform_lo: float = 0.0
    uniform_hi: float = 0.0

    def __post_init__(self):
        check_uniform_range(self.uniform_lo, self.uniform_hi)


def check_uniform_range(lo: float, hi: float) -> None:
    """Raise DatasetError unless [lo, hi] is an ordered range whose bounds and
    width are finite, as the uniform noise draw needs."""
    if not all(map(math.isfinite, (lo, hi, hi - lo))):
        raise DatasetError(f"uniform noise range [{lo}, {hi}] needs finite bounds and width")
    if lo > hi:
        raise DatasetError(f"uniform noise range [{lo}, {hi}] is inverted")


@dataclass(frozen=True)
class DatasetSpec:
    suite: Suite
    dim: int
    encoder: EncoderConfig
    regime: Regime
    per_class_train: int
    per_class_val: int = 0
    per_class_test: int = 0
    instances_per_function: int = 1
    unseen_instances_per_function: int = 0
    master_seed: int = 0
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self):
        if self.per_class_train < 1:
            raise DatasetError("per-class training count must be >= 1")
        if min(self.per_class_val, self.per_class_test) < 0:
            raise DatasetError("split sizes cannot be negative")
        if self.encoder.dim != self.dim:
            raise DatasetError(f"encoder dim {self.encoder.dim} != dataset dim {self.dim}")
        check_dim(self.suite, self.dim)
        if self.regime is Regime.L1 and self.instances_per_function != 1:
            raise DatasetError("L1 uses exactly one instance per function")
        if self.instances_per_function < 1:
            raise DatasetError("need at least one instance per function")
        if self.regime is Regime.L3 and self.unseen_instances_per_function < 1:
            raise DatasetError("L3 needs unseen instances for the test split")

    @property
    def class_count(self) -> int:
        return len(list_functions(self.suite))


@dataclass
class DatasetManifest:
    spec: DatasetSpec
    split: str
    size: int
    class_count: int
    instance_seeds: dict[int, list[int]]
    unseen_instance_seeds: dict[int, list[int]]
    # Each image's instance seed, in file order.  Sample seeds are re-derived
    # from the master seed, split, class and replicate.
    image_seeds: list[int]
    noise_applied: list[str]
    digest: str


@dataclass
class Dataset:
    pixels: np.ndarray  # (n, M, M) float32
    labels: np.ndarray  # (n,) int64, 0-based class indices
    manifest: DatasetManifest

    def __len__(self) -> int:
        return len(self.labels)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (n, M, M) float32 pixels and (n,) int64 labels."""
        return self.pixels, self.labels


_SPLIT_TAGS = {"train": 0, "val": 1, "test": 2}


def instance_seed_table(spec: DatasetSpec) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per-class training and unseen instance seeds, derived from the master seed."""
    train: dict[int, list[int]] = {}
    unseen: dict[int, list[int]] = {}
    for prob in list_functions(spec.suite):
        k = prob.index
        train[k] = [
            rng.derive_seed(spec.master_seed, rng.INSTANCE_SEEDS, k, i)
            for i in range(spec.instances_per_function)
        ]
        unseen[k] = [
            rng.derive_seed(spec.master_seed, rng.UNSEEN_INSTANCE_SEEDS, k, i)
            for i in range(spec.unseen_instances_per_function)
        ]
    return train, unseen


def build_dataset(spec: DatasetSpec) -> dict[str, Dataset]:
    """Generate the train/val/test datasets for ``spec``.

    A split holds n images per class.  Before its shuffle, replicate ell of
    class c (suite order) is row c * n + ell and shows instance
    ``pool[ell % len(pool)]``, where ``pool`` is the class's training seeds
    (its unseen seeds on an L3 test split) cut to the first n.  Every image
    draws its sample points from its own derived seed, so replicates of one
    instance differ.  Splits are generated independently (class balance is
    exact per split) and shuffled in lockstep with their labels.
    """
    train_seeds, unseen_seeds = instance_seed_table(spec)
    if spec.regime is Regime.L3:
        overlap = {s for v in train_seeds.values() for s in v} & {
            s for v in unseen_seeds.values() for s in v
        }
        if overlap:
            raise DatasetError(f"unseen instance seeds collide with training seeds: {overlap}")

    counts = dict(train=spec.per_class_train, val=spec.per_class_val, test=spec.per_class_test)
    probs = list_functions(spec.suite)
    pools = {split: [train_seeds[p.index][:n] for p in probs] for split, n in counts.items()}
    if spec.regime is Regime.L3:
        pools["test"] = [unseen_seeds[p.index][: counts["test"]] for p in probs]
    keys = dict.fromkeys(
        (p.index, seed)
        for split_pools in pools.values()
        for p, pool in zip(probs, split_pools)
        for seed in pool
    )
    # Every rotation of the build is orthonormalized in one stack.
    rotations = draw_rotations(keys, spec.dim) if spec.suite is Suite.CONTINUOUS_BBOB else {}
    instances = {
        (k, seed): make_instance(probs[k - 1], spec.dim, seed, rotations.get((k, seed)))
        for k, seed in keys
    }

    m = spec.encoder.frame_size
    out: dict[str, Dataset] = {}
    for split, n in counts.items():
        tag = _SPLIT_TAGS[split]
        pixels = np.empty((len(probs) * n, m, m), dtype=np.float32)
        image_seeds = np.empty(len(probs) * n, dtype=np.int64)
        # Instance r of class c's pool fills rows c * n + r, c * n + r + len(pool), ...
        for c, (prob, pool) in enumerate(zip(probs, pools[split])):
            for r, seed in enumerate(pool):
                rows = slice(c * n + r, (c + 1) * n, len(pool))
                sample_seeds = [
                    rng.derive_seed(spec.master_seed, rng.SAMPLES, tag, prob.index, ell)
                    for ell in range(r, n, len(pool))
                ]
                image = construct_image(instances[prob.index, seed], spec.encoder, sample_seeds)
                pixels[rows], image_seeds[rows] = image.pixels, seed
        labels = np.repeat(np.arange(len(probs), dtype=np.int64), n)

        pixels, labels, image_seeds = shuffle_sync(
            pixels, labels, rng.derive_seed(spec.master_seed, rng.SHUFFLE, tag), image_seeds
        )
        manifest = DatasetManifest(
            spec=spec,
            split=split,
            size=len(labels),
            class_count=spec.class_count,
            instance_seeds=train_seeds,
            unseen_instance_seeds=unseen_seeds,
            image_seeds=image_seeds.tolist(),
            noise_applied=[],
            digest=content_digest(pixels, labels),
        )
        ds = Dataset(pixels=pixels, labels=labels, manifest=manifest)
        if spec.noise.kind is NoiseKind.GAUSSIAN_HALF_MAX:
            ds = add_gaussian_noise(ds, rng.derive_seed(spec.master_seed, rng.NOISE, tag))
        elif spec.noise.kind is NoiseKind.UNIFORM_RANGE:
            ds = add_uniform_noise(
                ds,
                spec.noise.uniform_lo,
                spec.noise.uniform_hi,
                rng.derive_seed(spec.master_seed, rng.NOISE, tag),
            )
        out[split] = ds
    return out


def _fisher_yates(n: int, seed: int) -> np.ndarray:
    """The permutation of one Fisher-Yates pass: position i, from n - 1 down
    to 1, swaps with a draw from [0, i].  All draws come in one call."""
    g = rng.substream(seed, rng.SHUFFLE)
    idx = np.arange(n)
    for i, j in zip(range(n - 1, 0, -1), g.integers(0, np.arange(n, 1, -1)).tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def shuffle_sync(pixels: np.ndarray, labels: np.ndarray, seed: int,
                 *parallel: np.ndarray) -> tuple[np.ndarray, ...]:
    """Permute pixels, labels and any further parallel arrays along their
    first axis by one seeded Fisher-Yates pass."""
    arrays = (pixels, labels, *parallel)
    if len({len(x) for x in arrays}) > 1:
        raise DatasetError(f"length mismatch: arrays of lengths {[len(x) for x in arrays]}")
    idx = _fisher_yates(len(labels), seed)
    return tuple(np.asarray(x)[idx] for x in arrays)


def _record_dtype(m: int) -> np.dtype:
    """One LIMG record: a little-endian uint16 label, then the M x M
    little-endian float32 pixels."""
    return np.dtype([("label", "<u2"), ("px", "<f4", (m, m))])


def _records(pixels: np.ndarray, labels: np.ndarray) -> np.ndarray:
    records = np.empty(len(labels), dtype=_record_dtype(pixels.shape[-1]))
    records["label"] = labels
    records["px"] = pixels
    return records


def content_digest(pixels: np.ndarray, labels: np.ndarray) -> str:
    """SHA-256 over the label/pixel record stream, hex-encoded."""
    return hashlib.sha256(_records(pixels, labels)).hexdigest()


def _add_noise(ds: Dataset, seed: int, note: str, draw) -> Dataset:
    """Image i gets ``draw(g, pixels)`` added in float64, where g is its own
    ``NOISE`` substream; a draw of None leaves the image unchanged."""
    noisy = np.empty_like(ds.pixels)
    for i, pixels in enumerate(ds.pixels):
        delta = draw(rng.substream(seed, rng.NOISE, i), pixels)
        noisy[i] = pixels if delta is None else pixels.astype(np.float64) + delta
    manifest = replace(
        ds.manifest,
        noise_applied=[*ds.manifest.noise_applied, note],
        digest=content_digest(noisy, ds.labels),
    )
    return Dataset(pixels=noisy, labels=ds.labels, manifest=manifest)


def add_gaussian_noise(ds: Dataset, seed: int, amplitude: float | None = None) -> Dataset:
    """Additive Gaussian pixel noise with per-image sigma in [0, max/2].

    Each image draws its own amplitude u in [0,1) (overridable for tests);
    sigma = u * max(pixels)/2, clamped at zero for non-positive maxima.
    """

    def draw(g, pixels):
        u = float(g.random()) if amplitude is None else amplitude
        sigma = max(float(pixels.max()), 0.0) / 2.0 * u
        return g.normal(0.0, sigma, pixels.shape) if sigma > 0.0 else None

    return _add_noise(ds, seed, f"gaussian_half_max(seed={seed})", draw)


def add_uniform_noise(ds: Dataset, lo: float, hi: float, seed: int) -> Dataset:
    """Additive i.i.d. uniform [lo, hi] noise on every pixel."""
    check_uniform_range(lo, hi)
    return _add_noise(
        ds, seed, f"uniform({lo},{hi},seed={seed})",
        lambda g, pixels: g.uniform(lo, hi, pixels.shape),
    )


_MAGIC = b"LIMG"
_VERSION = 1
_HEADER = struct.Struct("<4sHHHQ")  # magic, version, M, class count, record count


def save(ds: Dataset, path: str | Path) -> None:
    """Write the binary container and its JSON manifest sidecar."""
    path = Path(path)
    m = ds.manifest.spec.encoder.frame_size
    records = _records(ds.pixels, ds.labels)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, m, ds.manifest.class_count, len(ds)))
        fh.write(records)
        fh.write(hashlib.sha256(records).digest())
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest_path.write_text(
        json.dumps(codec.encode(ds.manifest), indent=2, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> Dataset:
    """Read a dataset back, verifying structure and content digest.

    The sidecar manifest's digest must equal the file's content digest, and
    the manifest must agree with the header: frame size, class count, and
    one record and one image seed per image.  Every label must name a class.
    Pixels and labels round-trip bit-exactly.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size + 32:
        raise DatasetFormatError(f"{path}: truncated file ({len(raw)} bytes)")
    magic, version, m, class_count, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    record = _record_dtype(m)
    expected = _HEADER.size + record.itemsize * count + 32
    if len(raw) != expected:
        raise DatasetFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    file_digest = hashlib.sha256(memoryview(raw)[_HEADER.size : -32]).digest()
    if file_digest != raw[-32:]:
        raise DigestMismatchError(f"{path}: content digest mismatch")

    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    data = codec.parse(manifest_path.read_bytes(), DatasetFormatError, manifest_path, "manifest")
    manifest = codec.decode(DatasetManifest, data, DatasetFormatError, manifest_path, "manifest")
    if manifest.digest != file_digest.hex():
        raise DigestMismatchError(f"{manifest_path}: manifest digest does not match {path}")

    if m != manifest.spec.encoder.frame_size:
        raise DatasetFormatError(
            f"{path}: header frame size {m}, manifest {manifest.spec.encoder.frame_size}"
        )
    if class_count != manifest.class_count:
        raise DatasetFormatError(
            f"{path}: header class count {class_count}, manifest {manifest.class_count}"
        )
    if not count == manifest.size == len(manifest.image_seeds):
        raise DatasetFormatError(
            f"{path}: {count} records, manifest size {manifest.size},"
            f" {len(manifest.image_seeds)} image seeds"
        )
    records = np.frombuffer(raw, dtype=record, count=count, offset=_HEADER.size)
    labels = records["label"].astype(np.int64)
    if count and labels.max() >= class_count:
        raise DatasetFormatError(
            f"{path}: label {labels.max()} out of range for {class_count} classes"
        )
    return Dataset(pixels=records["px"].astype(np.float32), labels=labels, manifest=manifest)
