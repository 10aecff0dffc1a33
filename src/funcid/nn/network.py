"""Classifier models: presets, inference, gradients, checkpoints.

Three presets cover the study's models: a single-layer perceptron, a
3-layer perceptron (hidden widths 256/128), and the classic 7-layer
conv-pool-dense topology on M x M single-channel inputs.  Input pixels are
min-max normalized per image by default before the first layer; the
normalization mode travels with the model so inference always matches
training.

Every parameter of a network lives in one contiguous vector,
``Network.vector``, in ``parameters()`` order: layer by layer, and within a
layer by parameter name.  Each ``layer.params[name]`` is a reshaped view of
its slice, ``Network.backward`` gathers the gradient in ``vector``'s layout
in ``parameters()`` order, and the parameter section of an LMDL checkpoint
is that vector in little-endian float32.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np

from .. import codec, rng
from .layers import AvgPool2D, Conv2D, Dense, Flatten, Layer, ReLU, Reshape, Tanh

PRESETS = ("perceptron1", "perceptron3", "lenet5")

_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}
ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}
INPUT_NORMS = ("minmax", "raw")


class ModelError(ValueError):
    """Invalid model configuration or input."""


@dataclasses.dataclass
class ModelMeta:
    preset: str
    class_count: int
    frame_size: int
    init_seed: int
    input_norm: str  # "minmax" | "raw"
    activation: str  # "relu" | "tanh"
    dtype: str  # "float32" | "float64"


class Network:
    """An ordered layer stack whose parameters are views into one vector."""

    def __init__(self, meta: ModelMeta, layers: list[Layer]):
        self.meta = meta
        self.layers = layers
        params = self.parameters()
        self.vector = np.concatenate([p.reshape(-1) for _, _, p in params])
        offset = 0
        for i, name, p in params:
            layers[i].params[name] = self.vector[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    # -- parameters -------------------------------------------------------

    def parameters(self) -> list[tuple[int, str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name in sorted(layer.params):
                out.append((i, name, layer.params[name]))
        return out

    def copy(self) -> "Network":
        clone = build_network(self.meta)
        np.copyto(clone.vector, self.vector)
        return clone

    # -- passes -----------------------------------------------------------

    def apply_input_norm(self, batch: np.ndarray) -> np.ndarray:
        x = np.asarray(batch, dtype=_DTYPE_NAMES[self.meta.dtype])
        if x.ndim != 3 or x.shape[1:] != (self.meta.frame_size, self.meta.frame_size):
            raise ModelError(
                f"expected batch of shape (B, {self.meta.frame_size}, {self.meta.frame_size}),"
                f" got {x.shape}"
            )
        if self.meta.input_norm == "raw":
            _check_finite(x)
            return x
        return min_max(x)

    def forward_normalized(self, x: np.ndarray, want_caches: bool = False):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            if want_caches:
                caches.append(cache)
        return (x, caches) if want_caches else x

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Logits of shape (B, class_count) for a (B, M, M) pixel batch."""
        return self.forward_normalized(self.apply_input_norm(batch))

    def backward(self, grad_logits: np.ndarray, caches: list) -> np.ndarray:
        """The parameter gradient as one fresh vector laid out like ``vector``:
        the layers' grads, kept as the descent passes them, gathered in
        ``parameters()`` order.

        The descent stops at the lowest layer with parameters, which skips its
        input gradient: no layer below it has anything to learn.
        """
        grads: list[dict] = [{} for _ in self.layers]
        grad = grad_logits
        lowest = next(i for i, layer in enumerate(self.layers) if layer.params)
        for i in range(len(self.layers) - 1, lowest - 1, -1):
            if i == lowest:
                _, grads[i] = self.layers[i].backward(grad, caches[i], need_dx=False)
            else:
                grad, grads[i] = self.layers[i].backward(grad, caches[i])
        flat = [grads[i][name].reshape(-1) for i, name, _ in self.parameters()]
        return np.concatenate(flat, dtype=self.vector.dtype)


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ModelError("non-finite pixel values")


def min_max(pixels: np.ndarray) -> np.ndarray:
    """Per-image min-max to [0, 1] over the last two axes, in the input dtype.

    A constant image maps to zeros.  This one expression normalizes both the
    network input and the exported grayscale images; non-finite pixels raise
    ModelError.  The per-image min and max carry any NaN or infinity, so they
    alone are checked.  The output is the one array of the input's size that
    this allocates: the subtraction writes it, and the division and the
    zeroing of constant images run in place.
    """
    lo = pixels.min(axis=(-2, -1), keepdims=True)
    hi = pixels.max(axis=(-2, -1), keepdims=True)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ModelError("non-finite pixel values")
    span = hi - lo
    constant = span == 0.0
    out = np.subtract(pixels, lo)
    np.divide(out, np.where(constant, 1.0, span), out=out)
    np.copyto(out, 0.0, where=constant)
    return out


def _layer_stack(meta: ModelMeta) -> list[Layer]:
    m, k = meta.frame_size, meta.class_count
    act = ACTIVATIONS[meta.activation]
    if meta.preset == "perceptron1":
        return [Flatten(), Dense(k)]
    if meta.preset == "perceptron3":
        return [Flatten(), Dense(256), act(), Dense(128), act(), Dense(k)]
    if meta.preset == "lenet5":
        after_c1 = m - 4
        after_p1 = after_c1 // 2
        after_c2 = after_p1 - 4
        if after_c1 < 2 or after_c1 % 2 or after_c2 < 2 or after_c2 % 2:
            raise ModelError(
                f"frame size {m} cannot pass two 5x5 conv + 2x2 pool stages"
            )
        return [
            Reshape((1, m, m)),
            Conv2D(6, 5),
            act(),
            AvgPool2D(2),
            Conv2D(16, 5),
            act(),
            AvgPool2D(2),
            Flatten(),
            Dense(120),
            act(),
            Dense(84),
            act(),
            Dense(k),
        ]
    raise ModelError(f"unknown preset {meta.preset!r}; choose from {PRESETS}")


def build_network(meta: ModelMeta) -> Network:
    """Instantiate and deterministically initialize the preset topology."""
    options = {"dtype": _DTYPE_NAMES, "activation": ACTIVATIONS, "input_norm": INPUT_NORMS}
    for field, choices in options.items():
        value = getattr(meta, field)
        if value not in choices:
            raise ModelError(f"unsupported {field} {value!r}; choose from {sorted(choices)}")
    if meta.class_count < 2:
        raise ModelError("need at least two classes")
    layers = _layer_stack(meta)
    shape: tuple = (meta.frame_size, meta.frame_size)
    dtype = _DTYPE_NAMES[meta.dtype]
    for i, layer in enumerate(layers):
        generator = rng.substream(meta.init_seed, rng.WEIGHT_INIT, i)
        shape = layer.init(shape, generator, dtype)
    if shape != (meta.class_count,):
        raise ModelError(f"topology ends with shape {shape}, expected ({meta.class_count},)")
    return Network(meta, layers)


def init_model(
    preset: str,
    class_count: int,
    frame_size: int,
    seed: int,
    input_norm: str = "minmax",
    activation: str = "relu",
    dtype: str = "float32",
) -> Network:
    """Build one of the three preset classifiers with seeded init."""
    meta = ModelMeta(
        preset=preset,
        class_count=class_count,
        frame_size=frame_size,
        init_seed=seed,
        input_norm=input_norm,
        activation=activation,
        dtype=dtype,
    )
    return build_network(meta)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of integer ``labels`` under ``logits``.

    Returns the loss as a float and its gradient with respect to the logits.
    Every loss and gradient of training and evaluation comes from here, so
    they all share one expression order.
    """
    b = len(labels)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(b), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


# Images per forward pass in predict_logits and in training's validation.
_CHUNK = 256


def chunked_logits(model: Network, x: np.ndarray, forward) -> np.ndarray:
    """``forward`` (``model.forward`` or ``forward_normalized``) over ``x`` in chunks."""
    chunks = [forward(x[i : i + _CHUNK]) for i in range(0, len(x), _CHUNK)]
    return np.concatenate(chunks) if chunks else np.zeros((0, model.meta.class_count))


def predict_logits(model: Network, pixels: np.ndarray) -> np.ndarray:
    return chunked_logits(model, pixels, model.forward)


def predict(model: Network, data) -> np.ndarray:
    """Argmax class indices; ties break to the lowest class index."""
    pixels = data.pixels if hasattr(data, "pixels") else np.asarray(data)
    return predict_logits(model, pixels).argmax(axis=1)


_MAGIC = b"LMDL"
_VERSION = 1
_HEADER = struct.Struct("<4sHI")  # magic, version, descriptor length


class CheckpointError(RuntimeError):
    """Unreadable or corrupt model checkpoint."""


def save_model(model: Network, path) -> None:
    """Checkpoint: ``_HEADER``, descriptor JSON, ``model.vector`` as
    little-endian float32, then the SHA-256 of everything before it.

    The parameter section is the whole vector, so it lists every tensor in
    ``parameters()`` order.  The descriptor keeps the ``"pooling": "avg"``
    entry of earlier checkpoints, so their bytes do not change.
    """
    descriptor = {
        **codec.encode(model.meta),
        "pooling": "avg",
        "layers": [layer.spec() for layer in model.layers],
    }
    blob = json.dumps(descriptor, sort_keys=True).encode("utf-8")
    body = _HEADER.pack(_MAGIC, _VERSION, len(blob)) + blob + model.vector.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def load_model(path) -> Network:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size + 32 or not raw.startswith(_MAGIC):
        raise CheckpointError(f"{path}: not a model checkpoint")
    if hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise CheckpointError(f"{path}: checkpoint digest mismatch")
    _, version, blob_len = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = _HEADER.size + blob_len
    descriptor = codec.parse(raw[_HEADER.size : offset], CheckpointError, path, "descriptor")
    if descriptor.get("pooling") != "avg":
        raise CheckpointError(f"{path}: unsupported pooling {descriptor.get('pooling')!r}")
    meta = codec.decode(ModelMeta, descriptor, CheckpointError, path, "descriptor")
    try:
        model = build_network(meta)
    except ModelError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if descriptor.get("layers") != [layer.spec() for layer in model.layers]:
        raise CheckpointError(f"{path}: stored layers do not match the {meta.preset} topology")
    size = model.vector.size
    if len(raw) - 32 - offset != 4 * size:
        raise CheckpointError(
            f"{path}: truncated or trailing parameter data:"
            f" {len(raw) - 32 - offset} bytes, expected {4 * size}"
        )
    np.copyto(model.vector, np.frombuffer(raw, dtype="<f4", count=size, offset=offset))
    return model
