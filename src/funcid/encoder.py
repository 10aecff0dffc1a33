"""Landscape-image construction: the five square embeddings of sampled points.

A core image stacks N sample vectors tau = [x, f(x)] of length d' = d + 1.
The five layouts frame it into an M x M picture:

  Type-1  row = [x, y, y repeated to width M]; trailing rows repeat the
          zero-vector probe (translation witness).
  Type-2  row = tau tiled to width M, truncated; zero-probe rows likewise.
  Type-3  Type-1 rows, but trailing rows cycle 0, e1, ..., ed (rotation
          witnesses), truncated to the first M-N probes.
  Type-4  Type-2 row layout on the Type-3 probe cycle.
  Type-5  one flat stream: tau(0), tau(e1), then as many random sample
          vectors as fit in M*M slots (last one truncated), reshaped
          row-wise.

Pixels hold raw objective values as float32; normalization is left to
training time.  ``construct_image`` builds one image per sample seed, and
all the images of one instance in one batched pass.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rng
from .nn.network import min_max
from .suite import FunctionInstance, Suite, evaluate


class ImageType(enum.IntEnum):
    TYPE1 = 1
    TYPE2 = 2
    TYPE3 = 3
    TYPE4 = 4
    TYPE5 = 5


class DomainMap(enum.Enum):
    UNIT_CUBE = "unit_cube"
    AFFINE_TO_BBOB_BOX = "bbob_box"


class EncoderError(ValueError):
    """Capacity violation or invalid encoder input."""


@dataclass(frozen=True)
class EncoderConfig:
    dim: int
    sample_size: int
    image_type: ImageType = ImageType.TYPE1
    frame_size: int = 32
    domain_map: DomainMap = DomainMap.UNIT_CUBE

    def __post_init__(self):
        object.__setattr__(self, "image_type", ImageType(self.image_type))
        d, n, m = self.dim, self.sample_size, self.frame_size
        if d < 1 or n < 1 or m < 1:
            raise EncoderError(f"need dim, sample_size, frame_size >= 1, got {d}, {n}, {m}")
        if self.image_type is ImageType.TYPE5:
            if d + 1 > m * m:
                raise EncoderError(f"d'={d + 1} exceeds Type-5 capacity M*M={m * m}")
        else:
            if d + 1 > m:
                raise EncoderError(
                    f"d'={d + 1} exceeds frame width M={m} for {self.image_type.name}"
                )
            if n > m:
                raise EncoderError(f"N={n} sample rows do not fit in M={m} for Types 1-4")

    @property
    def d_prime(self) -> int:
        return self.dim + 1


@dataclass(frozen=True)
class QueryCost:
    """Objective queries behind some images: per image, its distinct displayed
    row bit patterns and all its displayed rows, each summed over the images."""

    distinct_queries: int
    total_queries: int


@dataclass(frozen=True)
class LandscapeImage:
    """(M, M) or (n, M, M) embeddings of sampled points and the objective queries they cost."""

    pixels: np.ndarray
    query_cost: QueryCost


def sample_points(
    d: int, n: int, seed: int, domain_map: DomainMap = DomainMap.UNIT_CUBE
) -> np.ndarray:
    """Draw n i.i.d. uniform points in [0,1)^d, optionally mapped to [-5,5)^d."""
    if d < 1 or n < 1:
        raise EncoderError(f"need d >= 1 and n >= 1, got {d}, {n}")
    points = rng.substream(seed, rng.SAMPLES).random((n, d))
    if domain_map is DomainMap.AFFINE_TO_BBOB_BOX:
        points = points * 10.0 - 5.0
    return points


def probe_vectors(d: int) -> np.ndarray:
    """The canonical probe list: zero vector, then e_1 .. e_d (rows)."""
    return np.eye(d + 1, d, -1)


def _probe_row_sequence(cfg: EncoderConfig) -> list[int]:
    """Probe-list index queried by each probe row/segment, in display order."""
    m, n, dp = cfg.frame_size, cfg.sample_size, cfg.d_prime
    t = cfg.image_type
    if t in (ImageType.TYPE1, ImageType.TYPE2):
        return [0] * (m - n)
    if t in (ImageType.TYPE3, ImageType.TYPE4):
        return [i % dp for i in range(m - n)]
    # Type-5: zero always leads; e1 only if slots remain after tau(0).
    indices = [0]
    if m * m > dp:
        indices.append(1)
    return indices


def type5_sample_count(cfg: EncoderConfig) -> int:
    """Random sample vectors (full or truncated) that fit after the probes."""
    remaining = cfg.frame_size**2 - 2 * cfg.d_prime
    if remaining <= 0:
        return 0
    return -(-remaining // cfg.d_prime)


@functools.lru_cache(maxsize=16)
def _display_index(n_images: int, n_samples: int, cfg: EncoderConfig) -> np.ndarray:
    """The read-only (n_images, rows) index of every displayed row into the query rows.

    The query holds each image's samples in turn, then the probes of the
    probe list in order.  Types 1-4 show an image's samples, then its probe
    rows; Type-5 streams its probes first.
    """
    samples = np.arange(n_images * n_samples).reshape(n_images, n_samples)
    probes = n_images * n_samples + np.array(_probe_row_sequence(cfg), dtype=np.intp)
    probes = np.broadcast_to(probes, (n_images, len(probes)))
    parts = (probes, samples) if cfg.image_type is ImageType.TYPE5 else (samples, probes)
    index = np.concatenate(parts, axis=1)
    index.flags.writeable = False
    return index


def layout(vectors: np.ndarray, values: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Lay out the rows tau = [vector, value] in display order as M x M images.

    ``vectors`` (..., rows, d) and ``values`` (..., rows) give (..., M, M)
    pixels, one image per leading index.
    """
    m, d = cfg.frame_size, cfg.dim
    if cfg.image_type in (ImageType.TYPE1, ImageType.TYPE3):
        pixels = np.empty(values.shape[:-1] + (m, m))
        pixels[..., :d] = vectors
        pixels[..., d:] = values[..., None]
        return pixels
    tau = np.concatenate([vectors, values[..., None]], axis=-1)
    if cfg.image_type is ImageType.TYPE5:
        rows, width = tau.shape[-2:]
        stream = tau.reshape(tau.shape[:-2] + (rows * width,))[..., : m * m]
        if stream.shape[-1] != m * m:
            raise EncoderError("Type-5 stream under-filled; not enough sample vectors")
        return stream.reshape(stream.shape[:-1] + (m, m))
    return np.tile(tau, -(-m // (d + 1)))[..., :m]


def _draw_samples(
    instance: FunctionInstance, cfg: EncoderConfig, seeds: list[int], n_samples: int
) -> np.ndarray:
    """The (len(seeds), n_samples, d) sample points, each image from its own seed."""
    samples = np.zeros((len(seeds), n_samples, cfg.dim))
    if n_samples == 0:
        return samples
    for image, seed in zip(samples, seeds):
        if instance.problem.suite is Suite.DISCRETE_PB:
            # Bitstring suites sample uniform bitstrings; the unit-cube draw is
            # thresholded so the stream protocol stays shared across suites.
            image[...] = sample_points(cfg.dim, n_samples, seed) >= 0.5
        else:
            image[...] = sample_points(cfg.dim, n_samples, seed, cfg.domain_map)
    return samples


def construct_image(
    instance: FunctionInstance, cfg: EncoderConfig, sample_seed: int | Sequence[int]
) -> LandscapeImage:
    """Sample, evaluate, and lay out one landscape image per sample seed.

    An int ``sample_seed`` gives one (M, M) image; a sequence of seeds gives
    their (n, M, M) images in seed order, each with the bytes its seed gives
    alone, since every image draws its samples from its own seed and the
    objective's rows are independent.  Types 1-4 use cfg.sample_size random
    points; Type-5 ignores it and draws exactly as many as fill the M*M
    stream.  One ``evaluate`` call covers every sample and each probe the
    frame shows (a probe once, however many rows show it); it runs the
    objective over blocks of at most ``suite.core._BLOCK`` rows, so a large
    batch does not grow the objective's temporaries.  query_cost sums, over
    the images, each image's distinct displayed row bit patterns and its
    displayed rows.
    """
    if cfg.dim != instance.dim:
        raise EncoderError(f"config dim {cfg.dim} != instance dim {instance.dim}")

    single = isinstance(sample_seed, (int, np.integer))
    seeds = [sample_seed] if single else list(sample_seed)
    n_samples = (
        type5_sample_count(cfg)
        if cfg.image_type is ImageType.TYPE5
        else cfg.sample_size
    )
    samples = _draw_samples(instance, cfg, seeds, n_samples)
    # The probes shown are always a prefix of the probe list.
    n_probes = len(set(_probe_row_sequence(cfg)))
    query = np.concatenate([samples.reshape(-1, cfg.dim), probe_vectors(cfg.dim)[:n_probes]])
    values = evaluate(instance, query)
    index = _display_index(len(seeds), n_samples, cfg)
    vectors = query[index]
    # One key per query row's bytes; an image's sorted keys change once per
    # further distinct row, where any of the row's uint64 words changes.
    keys = query.view(np.dtype((np.void, query.itemsize * cfg.dim)))[:, 0]
    shown = keys[index]
    shown.sort(axis=1)
    words = shown.view(np.uint64).reshape(*index.shape, cfg.dim)
    distinct = len(seeds) + int(np.count_nonzero((words[:, 1:] != words[:, :-1]).any(axis=2)))
    # Checked after the cast: a value beyond the float32 range is finite in
    # float64 but becomes inf in the pixels.
    pixels = layout(vectors, values[index], cfg).astype(np.float32)
    if not np.all(np.isfinite(pixels)):
        raise EncoderError("landscape image contains non-finite pixels")

    return LandscapeImage(
        pixels=pixels[0] if single else pixels,
        query_cost=QueryCost(distinct, index.size),
    )


def _to_gray_u8(pixels: np.ndarray) -> np.ndarray:
    scaled = min_max(np.asarray(pixels, dtype=np.float64))
    return np.round(scaled * 255.0).astype(np.uint8)


def write_pgm(path, pixels: np.ndarray) -> None:
    """Binary PGM dump of one image, min-max scaled to 8-bit grayscale."""
    gray = _to_gray_u8(pixels)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def pillow_image():
    """pillow's ``PIL.Image`` module; EncoderError when pillow is missing."""
    try:
        from PIL import Image
    except ImportError as exc:
        raise EncoderError("PNG export needs pillow; install funcid[png] or use write_pgm") from exc
    return Image


def write_png(path, pixels: np.ndarray) -> None:
    """PNG dump of one image (requires pillow)."""
    pillow_image().fromarray(_to_gray_u8(pixels), mode="L").save(path)
