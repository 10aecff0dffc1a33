"""Labeled landscape-image datasets: generation, noise protocols, storage.

Generation realizes the high-level pipeline: per class and replicate an
instance is selected according to the learning regime, one image is
constructed with a fresh sample seed, and each split is shuffled in
lockstep with its labels.  Three regimes are supported:

  L1  one fixed instance per function,
  L2  a fixed pool of instances per function, cycled over replicates,
  L3  as L2 for train/val, but test images come from disjoint unseen
      instance seeds.

Datasets serialize to a little-endian binary container (magic ``LIMG``)
with a SHA-256 content digest, plus a JSON sidecar manifest recording the
spec, sizes, and every seed needed to regenerate the file bit-exactly.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng
from .encoder import EncoderConfig, ImageType, LandscapeImage, construct_image
from .suite import EvalCounter, Suite, draw_rotations, list_functions, make_instance


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
    """Unreadable dataset file: bad magic, version, or truncation."""


class DigestMismatchError(DatasetFormatError):
    """Stored content digest does not match the file body."""


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    uniform_lo: float = 0.0
    uniform_hi: float = 0.0

    def __post_init__(self):
        if self.uniform_lo > self.uniform_hi:
            raise DatasetError(f"uniform_lo {self.uniform_lo} > uniform_hi {self.uniform_hi}")


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
    image_seeds: list[int]
    noise_applied: list[str]
    digest: str

    def to_dict(self) -> dict:
        return {
            "spec": spec_to_dict(self.spec),
            "split": self.split,
            "size": self.size,
            "class_count": self.class_count,
            "instance_seeds": {str(k): v for k, v in self.instance_seeds.items()},
            "unseen_instance_seeds": {str(k): v for k, v in self.unseen_instance_seeds.items()},
            "image_seeds": self.image_seeds,
            "noise_applied": self.noise_applied,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetManifest":
        return cls(
            spec=spec_from_dict(data["spec"]),
            split=data["split"],
            size=data["size"],
            class_count=data["class_count"],
            instance_seeds={int(k): list(v) for k, v in data["instance_seeds"].items()},
            unseen_instance_seeds={
                int(k): list(v) for k, v in data["unseen_instance_seeds"].items()
            },
            image_seeds=list(data["image_seeds"]),
            noise_applied=list(data["noise_applied"]),
            digest=data["digest"],
        )


@dataclass
class Dataset:
    images: list[LandscapeImage]
    labels: list[int]
    manifest: DatasetManifest

    def __len__(self) -> int:
        return len(self.images)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (n, M, M) float32 pixels and (n,) int64 labels."""
        m = self.manifest.spec.encoder.frame_size
        if not self.images:
            return np.zeros((0, m, m), dtype=np.float32), np.zeros(0, dtype=np.int64)
        pixels = np.stack([img.pixels for img in self.images])
        return pixels, np.asarray(self.labels, dtype=np.int64)


def spec_to_dict(spec: DatasetSpec) -> dict:
    return {
        "suite": spec.suite.value,
        "dim": spec.dim,
        "encoder": {
            "dim": spec.encoder.dim,
            "sample_size": spec.encoder.sample_size,
            "image_type": int(spec.encoder.image_type),
            "frame_size": spec.encoder.frame_size,
            "domain_map": spec.encoder.domain_map.value,
        },
        "regime": spec.regime.value,
        "per_class_train": spec.per_class_train,
        "per_class_val": spec.per_class_val,
        "per_class_test": spec.per_class_test,
        "instances_per_function": spec.instances_per_function,
        "unseen_instances_per_function": spec.unseen_instances_per_function,
        "master_seed": spec.master_seed,
        "noise": {
            "kind": spec.noise.kind.value,
            "uniform_lo": spec.noise.uniform_lo,
            "uniform_hi": spec.noise.uniform_hi,
        },
    }


def spec_from_dict(data: dict) -> DatasetSpec:
    from .encoder import DomainMap

    enc = data["encoder"]
    return DatasetSpec(
        suite=Suite(data["suite"]),
        dim=data["dim"],
        encoder=EncoderConfig(
            dim=enc["dim"],
            sample_size=enc["sample_size"],
            image_type=ImageType(enc["image_type"]),
            frame_size=enc["frame_size"],
            domain_map=DomainMap(enc["domain_map"]),
        ),
        regime=Regime(data["regime"]),
        per_class_train=data["per_class_train"],
        per_class_val=data["per_class_val"],
        per_class_test=data["per_class_test"],
        instances_per_function=data["instances_per_function"],
        unseen_instances_per_function=data["unseen_instances_per_function"],
        master_seed=data["master_seed"],
        noise=NoiseSpec(
            kind=NoiseKind(data["noise"]["kind"]),
            uniform_lo=data["noise"]["uniform_lo"],
            uniform_hi=data["noise"]["uniform_hi"],
        ),
    )


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


def _instance_for(spec, split: str, replicate: int, seeds: list[int], unseen: list[int]) -> int:
    if spec.regime is Regime.L3 and split == "test":
        return unseen[replicate % len(unseen)]
    return seeds[replicate % len(seeds)]


def build_dataset(spec: DatasetSpec, jobs: int = 1) -> dict[str, Dataset]:
    """Generate the train/val/test datasets for ``spec``.

    Per class and replicate the regime picks an instance seed; every image
    draws fresh sample points from its own derived seed, so replicates of
    one instance differ.  Splits are generated independently (class balance
    is exact per split) and shuffled in lockstep with their labels.  Output
    is identical for any ``jobs`` value.
    """
    train_seeds, unseen_seeds = instance_seed_table(spec)
    if spec.regime is Regime.L3:
        overlap = {s for v in train_seeds.values() for s in v} & {
            s for v in unseen_seeds.values() for s in v
        }
        if overlap:
            raise DatasetError(f"unseen instance seeds collide with training seeds: {overlap}")

    counts = {
        "train": spec.per_class_train,
        "val": spec.per_class_val,
        "test": spec.per_class_test,
    }
    # Per split, one (problem, instance seed, sample seed) task per image.
    plans = {
        split: [
            (
                prob,
                _instance_for(spec, split, ell, train_seeds[prob.index], unseen_seeds[prob.index]),
                rng.derive_seed(spec.master_seed, rng.SAMPLES, _SPLIT_TAGS[split], prob.index, ell),
            )
            for prob in list_functions(spec.suite)
            for ell in range(per_class)
        ]
        for split, per_class in counts.items()
    }
    problems = {(prob.index, seed): prob for plan in plans.values() for prob, seed, _ in plan}
    # Every rotation of the build is orthonormalized in one stack.
    rotations = (
        draw_rotations(problems, spec.dim) if spec.suite is Suite.CONTINUOUS_BBOB else {}
    )
    instances = {
        key: make_instance(prob, spec.dim, key[1], rotations.get(key))
        for key, prob in problems.items()
    }

    out: dict[str, Dataset] = {}
    for split, plan in plans.items():
        tag = _SPLIT_TAGS[split]

        def _make(task):
            prob, inst_seed, sample_seed = task
            return construct_image(instances[prob.index, inst_seed], spec.encoder, sample_seed)

        if jobs > 1 and plan:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                images = list(pool.map(_make, plan))
        else:
            images = [_make(t) for t in plan]
        labels = [img.label - 1 for img in images]
        image_seeds = [t[1] for t in plan]

        images, labels, image_seeds = shuffle_sync(
            images, labels, rng.derive_seed(spec.master_seed, rng.SHUFFLE, tag), image_seeds
        )
        manifest = DatasetManifest(
            spec=spec,
            split=split,
            size=len(images),
            class_count=spec.class_count,
            instance_seeds=train_seeds,
            unseen_instance_seeds=unseen_seeds,
            image_seeds=image_seeds,
            noise_applied=[],
            digest=content_digest(images, labels),
        )
        ds = Dataset(images=images, labels=labels, manifest=manifest)
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
    g = rng.substream(seed, rng.SHUFFLE)
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(g.integers(0, i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def shuffle_sync(images: list, labels: list, seed: int, *parallel: list) -> tuple[list, ...]:
    """Permute images, labels and any further parallel lists by one seeded
    Fisher-Yates pass."""
    lists = (images, labels, *parallel)
    if len({len(x) for x in lists}) > 1:
        raise DatasetError(f"length mismatch: lists of lengths {[len(x) for x in lists]}")
    idx = _fisher_yates(len(images), seed)
    return tuple([x[i] for i in idx] for x in lists)


def content_digest(images: list[LandscapeImage], labels: list[int]) -> str:
    """SHA-256 over the label/pixel byte stream, hex-encoded."""
    h = hashlib.sha256()
    for img, label in zip(images, labels):
        h.update(struct.pack("<H", label))
        h.update(np.ascontiguousarray(img.pixels, dtype="<f4").tobytes())
    return h.hexdigest()


def _with_new_pixels(ds: Dataset, new_pixels: list[np.ndarray], note: str) -> Dataset:
    images = [replace(img, pixels=pix) for img, pix in zip(ds.images, new_pixels)]
    labels = list(ds.labels)
    manifest = replace(
        ds.manifest,
        noise_applied=ds.manifest.noise_applied + [note],
        digest=content_digest(images, labels),
    )
    return Dataset(images=images, labels=labels, manifest=manifest)


def add_gaussian_noise(ds: Dataset, seed: int, amplitude: float | None = None) -> Dataset:
    """Additive Gaussian pixel noise with per-image sigma in [0, max/2].

    Each image draws its own amplitude u in [0,1) (overridable for tests);
    sigma = u * max(pixels)/2, clamped at zero for non-positive maxima.
    """
    new_pixels = []
    for i, img in enumerate(ds.images):
        g = rng.substream(seed, rng.NOISE, i)
        u = float(g.random()) if amplitude is None else amplitude
        sigma = max(float(img.pixels.max()), 0.0) / 2.0 * u if img.pixels.size else 0.0
        if sigma > 0.0:
            noisy = img.pixels.astype(np.float64) + g.normal(0.0, sigma, img.pixels.shape)
            new_pixels.append(noisy.astype(np.float32))
        else:
            new_pixels.append(img.pixels)
    return _with_new_pixels(ds, new_pixels, f"gaussian_half_max(seed={seed})")


def add_uniform_noise(ds: Dataset, lo: float, hi: float, seed: int) -> Dataset:
    """Additive i.i.d. uniform [lo, hi] noise on every pixel."""
    if lo > hi:
        raise DatasetError(f"uniform noise range [{lo}, {hi}] is inverted")
    new_pixels = []
    for i, img in enumerate(ds.images):
        g = rng.substream(seed, rng.NOISE, i)
        noisy = img.pixels.astype(np.float64) + g.uniform(lo, hi, img.pixels.shape)
        new_pixels.append(noisy.astype(np.float32))
    return _with_new_pixels(ds, new_pixels, f"uniform({lo},{hi},seed={seed})")


_MAGIC = b"LIMG"
_VERSION = 1


def save(ds: Dataset, path: str | Path) -> None:
    """Write the binary container and its JSON manifest sidecar."""
    path = Path(path)
    m = ds.manifest.spec.encoder.frame_size
    body = bytearray()
    body += _MAGIC
    body += struct.pack("<HHHQ", _VERSION, m, ds.manifest.class_count, len(ds.images))
    record_stream = bytearray()
    for img, label in zip(ds.images, ds.labels):
        record_stream += struct.pack("<H", label)
        record_stream += np.ascontiguousarray(img.pixels, dtype="<f4").tobytes()
    body += record_stream
    body += hashlib.sha256(bytes(record_stream)).digest()
    path.write_bytes(bytes(body))
    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest_path.write_text(
        json.dumps(ds.manifest.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )


def load(path: str | Path) -> Dataset:
    """Read a dataset back, verifying structure and content digest.

    The sidecar manifest's digest must equal the file's content digest, and
    the manifest must agree with the header: frame size, class count, and
    one record and one image seed per image.  Every label must name a class.

    Pixels and labels round-trip bit-exactly.  Per-image query costs are a
    generation-time diagnostic and come back as zero counters.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4 + 14 + 32:
        raise DatasetFormatError(f"{path}: truncated file ({len(raw)} bytes)")
    if raw[:4] != _MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, m, class_count, count = struct.unpack("<HHHQ", raw[4:18])
    if version != _VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    record_size = 2 + 4 * m * m
    expected = 18 + record_size * count + 32
    if len(raw) != expected:
        raise DatasetFormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    record_stream = raw[18:-32]
    file_digest = hashlib.sha256(record_stream).digest()
    if file_digest != raw[-32:]:
        raise DigestMismatchError(f"{path}: content digest mismatch")

    manifest_path = path.with_suffix(path.suffix + ".manifest.json")
    manifest = DatasetManifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
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
    # The uint16 label at the head of every record, as one strided view.
    label_column = np.ndarray((count,), dtype="<u2", buffer=record_stream, strides=(record_size,))
    if count and int(label_column.max()) >= class_count:
        raise DatasetFormatError(
            f"{path}: label {int(label_column.max())} out of range for {class_count} classes"
        )

    images: list[LandscapeImage] = []
    labels = label_column.tolist()
    image_type = manifest.spec.encoder.image_type
    for i, (label, seed) in enumerate(zip(labels, manifest.image_seeds)):
        offset = i * record_size
        pixels = np.frombuffer(
            record_stream, dtype="<f4", count=m * m, offset=offset + 2
        ).reshape(m, m)
        images.append(
            LandscapeImage(
                pixels=pixels.copy(),
                label=label + 1,
                instance_seed=seed,
                image_type=image_type,
                query_cost=EvalCounter(),
            )
        )
    return Dataset(images=images, labels=labels, manifest=manifest)
