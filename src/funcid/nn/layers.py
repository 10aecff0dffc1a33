"""From-scratch network layers with explicit forward/backward passes.

Every layer exposes ``init(in_shape, generator)`` for fan-in-scaled
parameter init, ``forward(x) -> (y, cache)`` and
``backward(grad_y, cache) -> (grad_x, param_grads)``.  Shapes exclude the
leading batch axis.  All math runs in the layer's dtype (float32 by
default; float64 for high-precision gradient checks).

Layers with parameters (``Dense``, ``Conv2D``) also take
``backward(grad_y, cache, need_dx=False)``, which returns ``(None,
param_grads)`` and skips the input-gradient product.  ``Network.backward``
passes it to the lowest such layer, whose input gradient nothing consumes.
"""

from __future__ import annotations

import numpy as np


class LayerError(ValueError):
    """Incompatible shapes or invalid layer configuration."""


class Layer:
    """Base: parameter-free layer with identity init."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.dtype = np.float32

    def init(self, in_shape: tuple, generator: np.random.Generator, dtype) -> tuple:
        self.dtype = dtype
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
        self.dtype = dtype
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
        self.dtype = dtype
        self.params = {
            "W": _uniform_fan_in((self.channels, c, self.kernel, self.kernel), fan_in, generator, dtype),
            "b": np.zeros(self.channels, dtype=dtype),
        }
        return self.out_shape(in_shape)

    def out_shape(self, in_shape):
        c, h, w = in_shape
        k = self.kernel
        return (self.channels, h - k + 1, w - k + 1)

    def _im2col(self, x):
        b, c, h, w = x.shape
        k = self.kernel
        ho, wo = h - k + 1, w - k + 1
        s = x.strides
        view = np.lib.stride_tricks.as_strided(
            x, (b, c, ho, wo, k, k), (s[0], s[1], s[2], s[3], s[2], s[3])
        )
        # (B, L, C*k*k) with L = ho*wo
        return view.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)

    def forward(self, x):
        b = x.shape[0]
        _, ho, wo = self.out_shape(x.shape[1:])
        cols = self._im2col(x)
        w_mat = self.params["W"].reshape(self.channels, -1).T
        y = cols @ w_mat + self.params["b"]
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
        # col2im: (C*k*k, L) per sample, so each kernel tap (i, j) reads a
        # slice whose (ho, wo) axes are contiguous.
        dcols = self.params["W"].reshape(self.channels, -1).T @ gy
        taps = dcols.reshape(b, c, k, k, ho, wo)
        dx = np.zeros(x_shape, dtype=grad_y.dtype)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + ho, j : j + wo] += taps[:, :, i, j]
        return dx, grads

    def spec(self):
        return {"kind": "Conv2D", "args": {"channels": self.channels, "kernel": self.kernel}}


class _Pool2D(Layer):
    def __init__(self, size: int = 2):
        super().__init__()
        self.size = size

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h % self.size or w % self.size:
            raise LayerError(f"pool size {self.size} does not divide input {h}x{w}")
        return (c, h // self.size, w // self.size)

    def _blocks(self, x):
        b, c, h, w = x.shape
        s = self.size
        return x.reshape(b, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5)

    def spec(self):
        return {"kind": type(self).__name__, "args": {"size": self.size}}


class AvgPool2D(_Pool2D):
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


class MaxPool2D(_Pool2D):
    def forward(self, x):
        blocks = self._blocks(x)
        b, c, ho, wo = blocks.shape[:4]
        flat = blocks.reshape(b, c, ho, wo, -1)
        idx = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        return y, (x.shape, idx)

    def backward(self, grad_y, cache):
        x_shape, idx = cache
        s = self.size
        b, c, h, w = x_shape
        ho, wo = h // s, w // s
        dflat = np.zeros((b, c, ho, wo, s * s), dtype=grad_y.dtype)
        np.put_along_axis(dflat, idx[..., None], grad_y[..., None], axis=-1)
        dx = dflat.reshape(b, c, ho, wo, s, s).transpose(0, 1, 2, 4, 3, 5)
        return dx.reshape(x_shape), {}


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

