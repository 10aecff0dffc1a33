"""From-scratch network layers with explicit forward/backward passes.

Every layer exposes ``init(in_shape, generator)`` for fan-in-scaled
parameter init, ``forward(x) -> (y, cache)`` and
``backward(grad_y, cache) -> (grad_x, param_grads)``.  Shapes exclude the
leading batch axis.  All math runs in the parameters' dtype (float32 by
default; float64 for high-precision gradient checks).

Layers with parameters (``Dense``, ``Conv2D``) also take
``backward(grad_y, cache, need_dx=False)``, which returns ``(None,
param_grads)`` and skips the input-gradient product.  ``Network.backward``
passes it to the lowest such layer, whose input gradient nothing consumes.

``Conv2D`` lowers convolution to GEMM, and trained weights depend on the
order of its operations, so that order is pinned.  Only the data movement
around the products may change:

* ``cols`` is a C-contiguous (B, L, C*k*k) copy of the input, L = ho*wo in
  row-major (oy, ox) order and K in (c, i, j) order, matching ``W``'s
  (channels, C, k, k) layout.  It is a pure gather, exact in any form;
* the forward output is ``cols @ W_mat`` with ``W_mat`` the transposed
  (channels, C*k*k) view of ``W``; the bias is added after the product,
  one add per element;
* ``flat_gy`` is the output gradient as C-contiguous (B*L, channels) rows,
  in (b, oy, ox) order.  ``dW`` is one GEMM ``flat_cols.T @ flat_gy`` over
  all B*L rows, and ``db`` is the column sum of ``flat_gy``, row by row;
* the input gradient's products are the per-sample ``W_mat.T @ gy[b]``,
  (C*k*k, channels) @ (channels, L), in one batched matmul.  One 2-D
  product over all L*B columns is not equivalent: the BLAS picks its kernel
  and its edge handling by shape, and in float64 the last columns of an odd
  batch come out different.  col2im accumulates the k*k taps into a zeroed
  buffer, i-major and j-minor, from +0.0.
"""

from __future__ import annotations

import functools

import numpy as np


class LayerError(ValueError):
    """Incompatible shapes or invalid layer configuration."""


class Layer:
    """Base: parameter-free layer with identity init."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def init(self, in_shape: tuple, generator: np.random.Generator, dtype) -> tuple:
        return self.out_shape(in_shape)

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad_y, cache):
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": type(self).__name__, "args": {}}


def _uniform_fan_in(shape, fan_in: int, generator, dtype) -> np.ndarray:
    limit = 1.0 / np.sqrt(fan_in)
    return generator.uniform(-limit, limit, size=shape).astype(dtype)


class Dense(Layer):
    def __init__(self, units: int):
        super().__init__()
        self.units = units

    def init(self, in_shape, generator, dtype):
        if len(in_shape) != 1:
            raise LayerError(f"Dense expects flat input, got shape {in_shape}")
        fan_in = in_shape[0]
        self.params = {
            "W": _uniform_fan_in((fan_in, self.units), fan_in, generator, dtype),
            "b": np.zeros(self.units, dtype=dtype),
        }
        return self.out_shape(in_shape)

    def out_shape(self, in_shape):
        return (self.units,)

    def forward(self, x):
        return x @ self.params["W"] + self.params["b"], x

    def backward(self, grad_y, cache, need_dx=True):
        x = cache
        grads = {"W": x.T @ grad_y, "b": grad_y.sum(axis=0)}
        return (grad_y @ self.params["W"].T if need_dx else None), grads

    def spec(self):
        return {"kind": "Dense", "args": {"units": self.units}}


@functools.lru_cache(maxsize=8)
def _im2col_index(c: int, h: int, w: int, k: int) -> np.ndarray:
    """Read-only (L, C*k*k) offsets into a flat (C, H, W) sample: ``cols``'s
    element (l, (c, i, j)) with l = oy*wo + ox reads x[c, oy + i, ox + j]."""
    ho, wo = h - k + 1, w - k + 1
    oy = np.arange(ho).reshape(ho, 1, 1, 1, 1)
    ox = np.arange(wo).reshape(1, wo, 1, 1, 1)
    ch = np.arange(c).reshape(1, 1, c, 1, 1)
    i = np.arange(k).reshape(1, 1, 1, k, 1)
    j = np.arange(k).reshape(1, 1, 1, 1, k)
    index = (ch * h * w + (oy + i) * w + (ox + j)).reshape(ho * wo, c * k * k).astype(np.intp)
    if index.size == 0 or index.min() < 0 or index.max() >= c * h * w:
        raise LayerError(f"im2col index out of range for input {(c, h, w)}, kernel {k}")
    index.flags.writeable = False
    return index


class Conv2D(Layer):
    """Valid 2-D convolution, stride 1, via im2col."""

    def __init__(self, channels: int, kernel: int):
        super().__init__()
        self.channels = channels
        self.kernel = kernel

    def init(self, in_shape, generator, dtype):
        if len(in_shape) != 3:
            raise LayerError(f"Conv2D expects (C, H, W) input, got {in_shape}")
        c, h, w = in_shape
        if h < self.kernel or w < self.kernel:
            raise LayerError(f"kernel {self.kernel} larger than input {h}x{w}")
        fan_in = c * self.kernel * self.kernel
        self.params = {
            "W": _uniform_fan_in((self.channels, c, self.kernel, self.kernel), fan_in, generator, dtype),
            "b": np.zeros(self.channels, dtype=dtype),
        }
        return self.out_shape(in_shape)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        k = self.kernel
        return (self.channels, h - k + 1, w - k + 1)

    def forward(self, x):
        b, c, h, w = x.shape
        k = self.kernel
        ho, wo = h - k + 1, w - k + 1
        index = _im2col_index(c, h, w, k)
        # Every index is in range (checked once, when built), so "wrap"
        # never wraps; it is the fastest of np.take's modes for this gather.
        cols = np.take(x.reshape(b, c * h * w), index, axis=1, mode="wrap")
        y = cols @ self.params["W"].reshape(self.channels, -1).T
        # One bias row over the contiguous (L, channels) block of a sample,
        # rather than a broadcast with a channels-long inner loop.
        rows = y.reshape(b, ho * wo * self.channels)
        rows += np.tile(self.params["b"], ho * wo)
        y = y.transpose(0, 2, 1).reshape(b, self.channels, ho, wo)
        return y, (x.shape, cols)

    def backward(self, grad_y, cache, need_dx=True):
        x_shape, cols = cache
        b, c, h, w = x_shape
        k = self.kernel
        ho, wo = h - k + 1, w - k + 1
        gy = grad_y.reshape(b, self.channels, ho * wo)
        flat_cols = cols.reshape(-1, c * k * k)
        flat_gy = gy.transpose(0, 2, 1).reshape(-1, self.channels)
        grads = {
            "W": (flat_cols.T @ flat_gy).T.reshape(self.params["W"].shape),
            "b": flat_gy.sum(axis=0),
        }
        if not need_dx:
            return None, grads
        # col2im with the batch innermost: each tap (i, j) of the per-sample
        # (C*k*k, L) products adds into contiguous (wo, B) rows of a
        # (C, H, W, B) buffer, read through a transposed view, not a copy.
        dcols = self.params["W"].reshape(self.channels, -1).T @ gy
        taps = dcols.reshape(b, c, k, k, ho, wo).transpose(1, 2, 3, 4, 5, 0)
        dx = np.zeros((c, h, w, b), dtype=grad_y.dtype)
        for i in range(k):
            for j in range(k):
                dx[:, i : i + ho, j : j + wo] += taps[:, i, j]
        return dx.transpose(3, 0, 1, 2), grads

    def spec(self):
        return {"kind": "Conv2D", "args": {"channels": self.channels, "kernel": self.kernel}}


class AvgPool2D(Layer):
    def __init__(self, size: int = 2):
        super().__init__()
        self.size = size

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h % self.size or w % self.size:
            raise LayerError(f"pool size {self.size} does not divide input {h}x{w}")
        return (c, h // self.size, w // self.size)

    def forward(self, x):
        # Window taps summed row-major, then divided: on the channel-last
        # layout a Conv2D + activation produces, this is the summation order
        # of ``mean`` over the window axes, without its transposed copy.
        s = self.size
        taps = [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]
        y = taps[0].copy()
        for tap in taps[1:]:
            y += tap
        y /= s * s
        return y, x.shape

    def backward(self, grad_y, cache):
        s = self.size
        scaled = grad_y / (s * s)
        dx = np.repeat(np.repeat(scaled, s, axis=2), s, axis=3)
        return dx.astype(grad_y.dtype), {}

    def spec(self):
        return {"kind": "AvgPool2D", "args": {"size": self.size}}


class ReLU(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return np.maximum(x, 0), x

    def backward(self, grad_y, cache):
        return grad_y * (cache > 0), {}


class Tanh(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, grad_y, cache):
        return grad_y * (1.0 - cache * cache), {}


class Flatten(Layer):
    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad_y, cache):
        return grad_y.reshape(cache), {}


class Reshape(Layer):
    """Per-sample reshape, e.g. (M, M) -> (1, M, M) ahead of a conv stack."""

    def __init__(self, shape: tuple):
        super().__init__()
        self.shape = tuple(shape)

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise LayerError(f"cannot reshape {in_shape} into {self.shape}")
        return self.shape

    def forward(self, x):
        return x.reshape(x.shape[0], *self.shape), x.shape

    def backward(self, grad_y, cache):
        return grad_y.reshape(cache), {}

    def spec(self):
        return {"kind": "Reshape", "args": {"shape": list(self.shape)}}

