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

The conv stack keeps one memory layout.  Shapes stay (B, C, H, W), but
every activation and gradient between a ``Conv2D`` GEMM and ``Flatten`` is
channel-last: its memory order is (B, H, W, C), so ``a.transpose(0, 2, 3,
1)`` is C-contiguous.  Element-wise layers keep their input's layout, and
``Flatten``'s reshape copies into the (C, H, W) order the first ``Dense``
layer reads.  Trained weights depend on the order of the arithmetic, so
that order is pinned; only the data movement around it may change:

* ``cols`` is a C-contiguous (B, L, C*k*k) gather of the channel-last input,
  L = ho*wo in row-major (oy, ox) order and K in (c, i, j) order, matching
  ``W``'s (channels, C, k, k) layout.  A pure gather is exact in any form;
* the forward output is ``cols @ W_mat`` with ``W_mat`` the transposed
  (channels, C*k*k) view of ``W``; the bias is added after the product,
  one add per element.  The (B, L, channels) product is the channel-last
  output itself;
* ``flat_gy`` is the output gradient as (B*L, channels) rows in (b, oy, ox)
  order: C-contiguous for B > 1, a free reshape of a channel-last gradient.
  For B = 1 it is the transposed (L, channels) view of the sample's
  C-contiguous (channels, L) gradient: the BLAS kernel and the column sum
  follow the operand layout, and a C-contiguous (L, channels) operand
  gives a 1-image batch other bytes.  ``dW`` is one GEMM
  ``flat_cols.T @ flat_gy`` over all B*L rows, and ``db`` is the column sum
  of ``flat_gy``: pairwise when its rows axis is contiguous (B = 1, or one
  channel), row by row otherwise;
* the input gradient's products are the per-sample ``W_mat @ gy[b]``,
  (C*k*k, channels) @ (channels, L), on a C-contiguous (B, channels, L)
  ``gy``, in one batched matmul.  One 2-D product over all L*B columns is
  not equivalent: the BLAS picks its kernel and its edge handling by shape,
  and in float64 the last columns of an odd batch come out different.
  col2im accumulates the k*k taps into a zeroed buffer, i-major and
  j-minor, from +0.0.

``AvgPool2D`` sums its window taps in row-major tap order, (0, 0), (0, 1),
..., each output element as ``((t00 + t01) + t10) + t11`` for size 2, then
divides by size*size: the summation order of ``mean`` over the window axes.
Its gradient is the output gradient divided by size*size, one write per
input element.
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
    """Read-only (L, C*k*k) offsets into a flat (H, W, C) sample: ``cols``'s
    element (l, (c, i, j)) with l = oy*wo + ox reads x[oy + i, ox + j, c]."""
    ho, wo = h - k + 1, w - k + 1
    oy = np.arange(ho).reshape(ho, 1, 1, 1, 1)
    ox = np.arange(wo).reshape(1, wo, 1, 1, 1)
    ch = np.arange(c).reshape(1, 1, c, 1, 1)
    i = np.arange(k).reshape(1, 1, 1, k, 1)
    j = np.arange(k).reshape(1, 1, 1, 1, k)
    index = (((oy + i) * w + (ox + j)) * c + ch).reshape(ho * wo, c * k * k).astype(np.intp)
    if index.size == 0 or index.min() < 0 or index.max() >= c * h * w:
        raise LayerError(f"im2col index out of range for input {(c, h, w)}, kernel {k}")
    index.flags.writeable = False
    return index


def _column_sum(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=0)`` with the same bytes, without its per-row cost.

    numpy sums pairwise along a contiguous axis, but adds row by row when
    the rows are the outer axis, one ufunc inner loop per row.  einsum adds
    them row by row too, in one compiled loop.
    """
    if rows.strides[0] == rows.itemsize:
        return rows.sum(axis=0)
    return np.einsum("ij->j", rows)


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
        # conv1's one-channel input and a pool output are channel-last
        # already, so this is a view; other layouts are copied once.
        samples = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(b, h * w * c)
        # Every index is in range (checked once, when built), so "wrap"
        # never wraps; it is the fastest of np.take's modes for this gather.
        cols = np.take(samples, index, axis=1, mode="wrap")
        y = cols @ self.params["W"].reshape(self.channels, -1).T
        # One bias row over the contiguous (L, channels) block of a sample,
        # rather than a broadcast with a channels-long inner loop.
        rows = y.reshape(b, ho * wo * self.channels)
        rows += np.tile(self.params["b"], ho * wo)
        return y.reshape(b, ho, wo, self.channels).transpose(0, 3, 1, 2), (x.shape, cols)

    def backward(self, grad_y, cache, need_dx=True):
        x_shape, cols = cache
        b, c, h, w = x_shape
        k = self.kernel
        ho, wo = h - k + 1, w - k + 1
        flat_cols = cols.reshape(-1, c * k * k)
        if b == 1:
            # The (L, channels) layout that pins a 1-image batch's bytes.
            flat_gy = np.ascontiguousarray(grad_y).reshape(self.channels, ho * wo).T
        else:
            flat_gy = grad_y.transpose(0, 2, 3, 1).reshape(-1, self.channels)
        grads = {
            "W": (flat_cols.T @ flat_gy).T.reshape(self.params["W"].shape),
            "b": _column_sum(flat_gy),
        }
        if not need_dx:
            return None, grads
        # A C-contiguous gy: the product over the transposed view of a
        # channel-last gradient has the same bytes but runs a slower GEMM.
        gy = np.ascontiguousarray(grad_y).reshape(b, self.channels, ho * wo)
        dcols = self.params["W"].reshape(self.channels, -1).T @ gy
        # col2im with the batch innermost: each tap (i, j) of the per-sample
        # (C*k*k, L) products adds into contiguous (wo, B) rows of a
        # (C, H, W, B) buffer, read through a transposed view, not a copy.
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
        s = self.size
        pixels = x.transpose(0, 2, 3, 1)
        taps = [pixels[:, i::s, j::s] for i in range(s) for j in range(s)]
        y = taps[0].copy()
        for tap in taps[1:]:
            y += tap
        y /= s * s
        return y.transpose(0, 3, 1, 2), x.shape

    def backward(self, grad_y, cache):
        b, c, h, w = cache
        s = self.size
        dx = np.empty((b, h // s, s, w // s, s, c), dtype=grad_y.dtype)
        np.divide(grad_y.transpose(0, 2, 3, 1)[:, :, None, :, None], s * s, out=dx)
        return dx.reshape(b, h, w, c).transpose(0, 3, 1, 2), {}

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

