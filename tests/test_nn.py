"""Tests for the from-scratch classifier stack: layers, training, checkpoints."""

from __future__ import annotations

import hashlib
import json
import struct
import tracemalloc
import types

import numpy as np
import pytest

from funcid.nn import (
    CheckpointError,
    ModelError,
    TrainConfig,
    TrainingDivergedError,
    init_model,
    load_model,
    predict,
    predict_logits,
    save_model,
    train,
    training,
)
from funcid.nn import network
from funcid.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    LayerError,
    ReLU,
    Tanh,
    _column_sum,
    _im2col_index,
)
from funcid.nn.network import cross_entropy, min_max
from funcid.nn.training import _loss_and_accuracy, _make_stepper

# -- loss, gradients and softmax outside the training loop -------------------------


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_grads(model, batch, labels):
    """Mean softmax cross-entropy and the flat gradient of every parameter."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= model.meta.class_count:
        raise ModelError(f"labels outside [0, {model.meta.class_count})")
    x = model.apply_input_norm(batch)
    logits, caches = model.forward_normalized(x, want_caches=True)
    loss, dlogits = cross_entropy(logits, labels)
    return loss, model.backward(dlogits.astype(logits.dtype), caches)


def evaluate_loss(model, pixels, labels):
    """Mean cross-entropy and accuracy over a full split."""
    return _loss_and_accuracy(predict_logits(model, pixels), labels)


def grads_by_param(model, flat):
    """A flat gradient split at parameters() offsets, keyed (layer index, name)."""
    out, offset = {}, 0
    for i, name, p in model.parameters():
        out[(i, name)] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    assert offset == flat.size
    return out


def finite_difference_worst_error(model, x, y, coords_per_param, h_scale, seed):
    """Worst mixed absolute/relative error of analytic vs central-FD grads.

    Analytic gradients come from ``model`` as-is.  The finite-difference
    oracle runs on a float64 twin holding the same parameter values, so the
    oracle stays accurate even when the model under test is float32.
    """
    from dataclasses import replace

    from funcid.nn.network import build_network

    loss, flat = loss_and_grads(model, x, y)
    grads = grads_by_param(model, flat)

    twin = build_network(replace(model.meta, dtype="float64"))
    np.copyto(twin.vector, model.vector)

    gen = np.random.default_rng(seed)
    worst = 0.0
    for i, name, p in twin.parameters():
        flat = p.reshape(-1)
        picks = gen.choice(flat.size, size=min(coords_per_param, flat.size), replace=False)
        for idx in picks:
            orig = float(flat[idx])
            h = h_scale * max(1.0, abs(orig))
            flat[idx] = orig + h
            loss_plus, _ = loss_and_grads(twin, x, y)
            flat[idx] = orig - h
            loss_minus, _ = loss_and_grads(twin, x, y)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            analytic = float(grads[(i, name)].reshape(-1)[idx])
            err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
            worst = max(worst, err)
    return worst


# -- initialization -------------------------------------------------------------


class TestInitModel:
    def test_perceptron1_parameter_count(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        assert model.vector.size == 24 * 1024 + 24

    def test_parameters_are_views_of_one_vector(self):
        model = init_model("lenet5", 3, 16, seed=1, dtype="float64")
        params = model.parameters()
        assert model.vector.dtype == np.float64 and model.vector.flags.c_contiguous
        assert np.array_equal(model.vector, np.concatenate([p.reshape(-1) for _, _, p in params]))
        for _, _, p in params:
            assert np.shares_memory(p, model.vector)
        clone = model.copy()
        assert not np.shares_memory(clone.vector, model.vector)
        assert_same_bytes(clone.vector, model.vector)
        model.vector[-1] = 7.0
        assert params[-1][2][-1] == 7.0 and clone.vector[-1] != 7.0

    def test_perceptron3_layer_sizes(self):
        model = init_model("perceptron3", 24, 32, seed=1)
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert [d.params["W"].shape for d in dense] == [(1024, 256), (256, 128), (128, 24)]

    def test_lenet_shape_propagation(self):
        # 32 -> 28 -> 14 -> 10 -> 5: dense stage sees 16 * 5 * 5 = 400.
        model = init_model("lenet5", 24, 32, seed=1)
        dense = [l for l in model.layers if isinstance(l, Dense)]
        assert dense[0].params["W"].shape == (400, 120)

    def test_same_seed_bit_identical(self):
        a = init_model("perceptron3", 24, 32, seed=9)
        b = init_model("perceptron3", 24, 32, seed=9)
        for (_, _, pa), (_, _, pb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = init_model("perceptron1", 24, 32, seed=1)
        b = init_model("perceptron1", 24, 32, seed=2)
        assert not np.array_equal(a.parameters()[0][2], b.parameters()[0][2])

    def test_lenet_rejects_incompatible_frame(self):
        with pytest.raises(ModelError):
            init_model("lenet5", 24, 14, seed=1)

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            init_model("resnet", 24, 32, seed=1)

    @pytest.mark.parametrize(
        "option,value", [("activation", "sigmoid"), ("input_norm", "zscore"), ("dtype", "float16")]
    )
    def test_unknown_option_rejected(self, option, value):
        with pytest.raises(ModelError, match=f"unsupported {option} {value!r}"):
            init_model("perceptron3", 3, 8, seed=1, **{option: value})


# -- forward --------------------------------------------------------------------


class TestForward:
    def test_zero_model_uniform_softmax(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        for _, _, p in model.parameters():
            p[...] = 0.0
        x = np.random.default_rng(0).random((5, 32, 32)).astype(np.float32)
        logits = model.forward(x)
        assert np.all(logits == 0.0)
        probs = softmax(logits)
        assert np.allclose(probs, 1.0 / 24.0)

    def test_identical_inputs_identical_logits(self):
        model = init_model("perceptron3", 24, 32, seed=1)
        one = np.random.default_rng(0).random((1, 32, 32)).astype(np.float32)
        batch = np.repeat(one, 4, axis=0)
        logits = model.forward(batch)
        assert np.allclose(logits, logits[0])

    def test_hand_dense_case(self):
        # 2-pixel input, raw mode, hand-set 2x2 weights: logits = x @ W + b.
        model = init_model("perceptron1", 2, 1, seed=0, input_norm="raw")
        dense = model.layers[1]
        assert isinstance(dense, Dense)
        dense.params["W"][...] = np.array([[1.0, 2.0]], dtype=np.float32)  # 1x... 1-pixel frame
        # frame_size=1 gives a single pixel; use explicit 2x2 instead:
        model = init_model("perceptron1", 2, 2, seed=0, input_norm="raw")
        dense = model.layers[1]
        dense.params["W"][...] = np.array(
            [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 3.0]], dtype=np.float32
        )
        dense.params["b"][...] = np.array([0.5, -0.5], dtype=np.float32)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        logits = model.forward(x)
        # flatten order: [1, 2, 3, 4]; logit0 = 1 + 6 + 0.5; logit1 = 2 + 12 - 0.5
        assert np.allclose(logits, [[7.5, 13.5]])

    def test_shape_mismatch_rejected(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        with pytest.raises(ModelError):
            model.forward(np.zeros((2, 16, 16)))

    def test_non_finite_rejected(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        bad = np.zeros((1, 32, 32))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ModelError):
            model.forward(bad)

    def test_minmax_norm_behavior(self):
        model = init_model("perceptron1", 2, 2, seed=0)
        x = np.array([[[0.0, 10.0], [5.0, 10.0]]])
        normed = model.apply_input_norm(x)
        assert np.allclose(normed, [[[0.0, 1.0], [0.5, 1.0]]])
        constant = np.full((1, 2, 2), 3.0)
        assert np.allclose(model.apply_input_norm(constant), 0.0)


# -- loss and gradients ------------------------------------------------------------


class TestLossAndGrads:
    def test_uniform_logits_loss_is_log24(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        for _, _, p in model.parameters():
            p[...] = 0.0
        x = np.random.default_rng(0).random((8, 32, 32)).astype(np.float32)
        y = np.arange(8) % 24
        loss, _ = loss_and_grads(model, x, y)
        assert loss == pytest.approx(np.log(24.0), rel=1e-6)

    def test_duplicated_batch_same_loss(self):
        model = init_model("perceptron3", 5, 8, seed=2)
        x = np.random.default_rng(1).random((6, 8, 8)).astype(np.float32)
        y = np.arange(6) % 5
        loss_once, _ = loss_and_grads(model, x, y)
        loss_twice, _ = loss_and_grads(model, np.concatenate([x, x]), np.concatenate([y, y]))
        assert loss_twice == pytest.approx(loss_once, rel=1e-6)

    def test_label_out_of_range(self):
        model = init_model("perceptron1", 5, 8, seed=2)
        x = np.zeros((2, 8, 8))
        with pytest.raises(ModelError):
            loss_and_grads(model, x, np.array([0, 5]))

    def test_grad_shapes_mirror_params(self):
        model = init_model("lenet5", 3, 16, seed=2)
        x = np.random.default_rng(1).random((4, 16, 16)).astype(np.float32)
        _, flat = loss_and_grads(model, x, np.array([0, 1, 2, 1]))
        assert flat.shape == model.vector.shape and flat.dtype == model.vector.dtype
        grads = grads_by_param(model, flat)
        for i, name, p in model.parameters():
            assert grads[(i, name)].shape == p.shape


class TestGradientOracle:
    """Analytic gradients vs central finite differences."""

    @pytest.mark.parametrize(
        "preset,frame,kwargs",
        [
            ("perceptron3", 8, {}),
            ("perceptron3", 8, {"activation": "tanh"}),
            ("lenet5", 16, {}),
            ("lenet5", 16, {"activation": "tanh"}),
        ],
    )
    def test_float64_tight(self, preset, frame, kwargs):
        model = init_model(preset, 3, frame, seed=3, dtype="float64", **kwargs)
        x = np.random.default_rng(1).random((4, frame, frame))
        y = np.array([0, 1, 2, 1])
        worst = finite_difference_worst_error(
            model, x, y, coords_per_param=6, h_scale=1e-6, seed=5
        )
        assert worst < 1e-6

    @pytest.mark.parametrize("preset,frame", [("perceptron3", 8), ("lenet5", 16)])
    def test_float32_standard(self, preset, frame):
        model = init_model(preset, 3, frame, seed=3, dtype="float32")
        x = np.random.default_rng(1).random((4, frame, frame)).astype(np.float32)
        y = np.array([0, 1, 2, 1])
        worst = finite_difference_worst_error(
            model, x, y, coords_per_param=6, h_scale=1e-6, seed=5
        )
        assert worst < 1e-4


# -- reference oracles for the fast training step ---------------------------------
#
# The functions below keep the straightforward forms of the training step:
# ``mean`` over transposed pooling windows, col2im through a 6-D transpose, a
# backward descent through every layer, and an Adam step built from
# temporaries.  ``legacy_conv_forward``/``legacy_conv_backward`` keep the
# earlier Conv2D data movement: the as-strided im2col, the broadcast bias add
# and the per-sample ``W.T @ gy`` col2im.  ``legacy_avgpool_forward``/
# ``legacy_avgpool_backward`` keep the earlier AvgPool2D, which returns NCHW-
# contiguous arrays: strided taps summed into a C-order copy, and the
# gradient upsampled by two ``np.repeat`` calls and an ``astype``.  The fast
# paths must reproduce their bytes.


def reference_avgpool_forward(layer, x):
    b, c, h, w = x.shape
    s = layer.size
    return x.reshape(b, c, h // s, s, w // s, s).transpose(0, 1, 2, 4, 3, 5).mean(axis=(4, 5))


def legacy_avgpool_forward(layer, x):
    s = layer.size
    taps = [x[:, :, i::s, j::s] for i in range(s) for j in range(s)]
    y = taps[0].copy()
    for tap in taps[1:]:
        y += tap
    y /= s * s
    return y, x.shape


def legacy_avgpool_backward(layer, grad_y, cache):
    s = layer.size
    scaled = grad_y / (s * s)
    dx = np.repeat(np.repeat(scaled, s, axis=2), s, axis=3)
    return dx.astype(grad_y.dtype), {}


def reference_conv_backward(layer, grad_y, cache):
    x_shape, cols = cache[:2]
    b, c, h, w = x_shape
    k = layer.kernel
    ho, wo = h - k + 1, w - k + 1
    gy = grad_y.reshape(b, layer.channels, ho * wo).transpose(0, 2, 1)
    flat_cols = cols.reshape(-1, c * k * k)
    flat_gy = gy.reshape(-1, layer.channels)
    grads = {
        "W": (flat_cols.T @ flat_gy).T.reshape(layer.params["W"].shape),
        "b": flat_gy.sum(axis=0),
    }
    # Production's operand roles: per sample, W_mat (C*k*k, channels) times the
    # (channels, L) output gradient.  The transposed form, (L, channels) @
    # (channels, C*k*k), sums the channels in another order under some BLAS
    # kernels (Haswell).
    w_mat = layer.params["W"].reshape(layer.channels, -1).T
    dcols = (w_mat @ gy.transpose(0, 2, 1)).reshape(b, c, k, k, ho, wo)
    dx = np.zeros(x_shape, dtype=grad_y.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]
    return dx, grads


def legacy_im2col(layer, x):
    b, c, h, w = x.shape
    k = layer.kernel
    ho, wo = h - k + 1, w - k + 1
    s = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, (b, c, ho, wo, k, k), (s[0], s[1], s[2], s[3], s[2], s[3])
    )
    # (B, L, C*k*k) with L = ho*wo
    return view.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)


def legacy_conv_forward(layer, x):
    b = x.shape[0]
    _, ho, wo = layer.out_shape(x.shape[1:])
    cols = legacy_im2col(layer, x)
    w_mat = layer.params["W"].reshape(layer.channels, -1).T
    y = cols @ w_mat + layer.params["b"]
    y = y.transpose(0, 2, 1).reshape(b, layer.channels, ho, wo)
    return y, (x.shape, cols)


def legacy_conv_backward(layer, grad_y, cache, need_dx=True):
    x_shape, cols = cache
    b, c, h, w = x_shape
    k = layer.kernel
    ho, wo = h - k + 1, w - k + 1
    gy = grad_y.reshape(b, layer.channels, ho * wo)
    flat_cols = cols.reshape(-1, c * k * k)
    flat_gy = gy.transpose(0, 2, 1).reshape(-1, layer.channels)
    grads = {
        "W": (flat_cols.T @ flat_gy).T.reshape(layer.params["W"].shape),
        "b": flat_gy.sum(axis=0),
    }
    if not need_dx:
        return None, grads
    # col2im: (C*k*k, L) per sample, so each kernel tap (i, j) reads a
    # slice whose (ho, wo) axes are contiguous.
    dcols = layer.params["W"].reshape(layer.channels, -1).T @ gy
    taps = dcols.reshape(b, c, k, k, ho, wo)
    dx = np.zeros(x_shape, dtype=grad_y.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += taps[:, :, i, j]
    return dx, grads


def reference_loss_and_grads(model, batch, labels):
    x = model.apply_input_norm(batch)
    caches = []
    for layer in model.layers:
        if isinstance(layer, AvgPool2D):
            x, cache = reference_avgpool_forward(layer, x), x.shape
        else:
            x, cache = layer.forward(x)
        caches.append(cache)
    b = x.shape[0]
    z = x - x.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(b), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = {}
    grad = dlogits.astype(x.dtype)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if isinstance(layer, Conv2D):
            grad, layer_grads = reference_conv_backward(layer, grad, caches[i])
        else:
            grad, layer_grads = layer.backward(grad, caches[i])
        for name, g in layer_grads.items():
            grads[(i, name)] = g
    return loss, grads


def reference_adam_stepper(learning_rate, model):
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = model.parameters()
    m_state = {(i, n): np.zeros_like(p) for i, n, p in params}
    v_state = {(i, n): np.zeros_like(p) for i, n, p in params}
    step = 0

    def adam_step(grads):
        nonlocal step
        step += 1
        scale = learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
        for i, name, p in params:
            g = grads[(i, name)].astype(p.dtype)
            m = m_state[(i, name)]
            v = v_state[(i, name)]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= (scale * m / (np.sqrt(v) + eps)).astype(p.dtype)

    return adam_step


def reference_sgd_stepper(learning_rate, momentum, model):
    params = model.parameters()
    velocity = {(i, n): np.zeros_like(p) for i, n, p in params}

    def sgd_step(grads):
        for i, name, p in params:
            g = grads[(i, name)]
            if momentum > 0.0:
                v = velocity[(i, name)]
                v *= momentum
                v -= learning_rate * g
                p += v.astype(p.dtype)
            else:
                p -= (learning_rate * g).astype(p.dtype)

    return sgd_step


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


OPTIMIZERS = pytest.mark.parametrize(
    "optimizer,momentum", [("adam", 0.0), ("sgd", 0.0), ("sgd", 0.9)]
)


class TestReferenceOracles:
    @pytest.mark.parametrize("activation", [ReLU, Tanh])
    def test_avgpool_forward_on_conv_layout(self, activation):
        for dtype in (np.float32, np.float64):
            conv = Conv2D(6, 5)
            conv.init((1, 28, 28), np.random.default_rng(0), dtype)
            x = np.random.default_rng(1).random((8, 1, 28, 28)).astype(dtype)
            y, _ = activation().forward(conv.forward(x)[0])
            assert not y.flags.c_contiguous  # channel-last, as Conv2D leaves it
            pool = AvgPool2D(2)
            out, cache = pool.forward(y)
            assert_same_bytes(out, reference_avgpool_forward(pool, y))
            # The upsampled gradient keeps the incoming dtype.
            grad_y = np.random.default_rng(2).standard_normal(out.shape).astype(dtype)
            upsampled, _ = legacy_avgpool_backward(pool, grad_y, cache)
            assert_same_bytes(pool.backward(grad_y, cache)[0], upsampled)

    def test_conv_backward(self):
        gen = np.random.default_rng(4)
        conv = Conv2D(4, 3)
        conv.init((2, 9, 9), np.random.default_rng(0), np.float32)
        x = gen.random((5, 2, 9, 9)).astype(np.float32)
        y, cache = conv.forward(x)
        contiguous = gen.standard_normal(y.shape).astype(np.float32)
        channel_last = np.empty_like(y)
        channel_last[...] = contiguous
        for grad_y in (contiguous, channel_last):
            dx, grads = conv.backward(grad_y, cache)
            ref_dx, ref_grads = reference_conv_backward(conv, grad_y, cache)
            assert_same_bytes(dx, ref_dx)
            no_dx, grads_only = conv.backward(grad_y, cache, need_dx=False)
            assert no_dx is None
            for name in ("W", "b"):
                assert_same_bytes(grads[name], ref_grads[name])
                assert_same_bytes(grads_only[name], ref_grads[name])

    @pytest.mark.parametrize(
        "preset,frame,kwargs",
        [
            ("perceptron3", 8, {}),
            ("perceptron3", 8, {"activation": "tanh"}),
            ("lenet5", 16, {}),
            ("lenet5", 16, {"activation": "tanh"}),
            ("lenet5", 32, {}),
            ("lenet5", 16, {"dtype": "float64"}),
        ],
    )
    def test_loss_and_grads(self, preset, frame, kwargs):
        model = init_model(preset, 5, frame, seed=3, **kwargs)
        gen = np.random.default_rng(2)
        x = gen.random((16, frame, frame)).astype(np.float32)
        y = gen.integers(0, 5, 16)
        loss, flat = loss_and_grads(model, x, y)
        grads = grads_by_param(model, flat)
        ref_loss, ref_grads = reference_loss_and_grads(model, x, y)
        assert loss == ref_loss
        assert sorted(grads) == sorted(ref_grads)
        for key in ref_grads:
            assert_same_bytes(grads[key], ref_grads[key])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_evaluate_loss(self, dtype):
        model = init_model("perceptron3", 5, 8, seed=3, dtype=dtype)
        gen = np.random.default_rng(5)
        x = gen.random((300, 8, 8)).astype(np.float32)
        y = gen.integers(0, 5, 300)
        logits = predict_logits(model, x)
        z = logits - logits.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        ref_loss = float(-log_probs[np.arange(len(y)), y].mean())
        ref_acc = float((logits.argmax(axis=1) == y).mean())
        assert evaluate_loss(model, x, y) == (ref_loss, ref_acc)

    @OPTIMIZERS
    @pytest.mark.parametrize(
        "preset,frame,dtype",
        [
            ("perceptron3", 8, "float32"),
            ("perceptron3", 32, "float32"),
            ("lenet5", 16, "float32"),
            ("lenet5", 16, "float64"),
        ],
    )
    def test_optimizer_steps(self, preset, frame, dtype, optimizer, momentum):
        assert_steps_match_reference(preset, frame, dtype, optimizer, momentum)

    @pytest.mark.parametrize("block", ["odd", "past-end"])
    @OPTIMIZERS
    @pytest.mark.parametrize(
        "preset,frame,dtype",
        [("perceptron3", 8, "float32"), ("lenet5", 16, "float32"), ("lenet5", 16, "float64")],
    )
    def test_optimizer_steps_across_blocks(
        self, monkeypatch, preset, frame, dtype, optimizer, momentum, block
    ):
        # Seven-element blocks leave a partial last block on every model
        # here; a block past the end of the vector is one partial block.
        size = init_model(preset, 3, frame, seed=3, dtype=dtype).vector.size
        assert size % 7
        monkeypatch.setattr(training, "_BLOCK", 7 if block == "odd" else size + 1)
        assert_steps_match_reference(preset, frame, dtype, optimizer, momentum)


def assert_steps_match_reference(preset, frame, dtype, optimizer, momentum):
    """Five steps of ``_make_stepper`` leave the per-tensor reference's bytes."""
    cfg = TrainConfig(learning_rate=1e-2, epochs=1, optimizer=optimizer, momentum=momentum)
    fast = init_model(preset, 3, frame, seed=3, dtype=dtype)
    slow = init_model(preset, 3, frame, seed=3, dtype=dtype)
    fast_step = _make_stepper(cfg, fast)
    if optimizer == "adam":
        slow_step = reference_adam_stepper(cfg.learning_rate, slow)
    else:
        slow_step = reference_sgd_stepper(cfg.learning_rate, cfg.momentum, slow)
    gen = np.random.default_rng(6)
    for _ in range(5):
        x = gen.random((8, frame, frame)).astype(np.float32)
        y = gen.integers(0, 3, 8)
        fast_step(loss_and_grads(fast, x, y)[1])
        slow_step(grads_by_param(slow, loss_and_grads(slow, x, y)[1]))
    for (_, _, a), (_, _, b) in zip(fast.parameters(), slow.parameters()):
        assert_same_bytes(a, b)


def traced_peak(fn):
    """Peak bytes traced while ``fn`` runs, above what was traced before it.

    numpy reports its array buffers to ``tracemalloc``, so this counts every
    array the call allocates, including any it returns.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# conv1's and conv2's float32 im2col gathers of a 64-image LeNet-5 batch at
# M = 32: 64 x (784 x 25 + 100 x 150) x 4 bytes, about 8.9 MB.
IM2COL_64 = 64 * (28 * 28 * 25 + 10 * 10 * 150) * 4


class TestWorkingSet:
    """The optimizer keeps only its state whole; ``min_max`` only its output;
    LeNet-5 gathers im2col into one buffer per ``Conv2D``."""

    @pytest.mark.parametrize(
        "optimizer,momentum,bound",
        # Adam's m and v, momentum's velocity, and one block of scratch.
        [("adam", 0.0, 3.0), ("sgd", 0.9, 1.5), ("sgd", 0.0, 0.5)],
    )
    def test_stepper_build_and_step(self, optimizer, momentum, bound):
        model = init_model("perceptron3", 24, 32, seed=3)
        grad = np.random.default_rng(0).standard_normal(model.vector.size).astype(np.float32)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, optimizer=optimizer, momentum=momentum)
        assert model.vector.size > 4 * training._BLOCK
        peak = traced_peak(lambda: _make_stepper(cfg, model)(grad))
        assert peak < bound * model.vector.nbytes

    def test_min_max_allocates_one_output(self):
        pixels = np.random.default_rng(0).standard_normal((960, 32, 32)).astype(np.float32)
        assert traced_peak(lambda: min_max(pixels)) < 1.5 * pixels.nbytes

    def test_lenet5_step_reuses_im2col_buffers(self):
        # After the first batch-64 step, a step's forward and backward gather
        # into the buffers that step allocated, so its peak stays under their
        # bytes.
        model = init_model("lenet5", 24, 32, seed=3)
        gen = np.random.default_rng(0)
        x = gen.random((64, 32, 32)).astype(np.float32)
        y = gen.integers(0, 24, 64)
        loss_and_grads(model, x, y)
        convs = [layer for layer in model.layers if isinstance(layer, Conv2D)]
        buffers = [conv._cols for conv in convs]
        assert sum(buf.nbytes for buf in buffers) == IM2COL_64
        assert traced_peak(lambda: loss_and_grads(model, x, y)) < IM2COL_64
        assert all(conv._cols is buf for conv, buf in zip(convs, buffers))

    def test_lenet5_predict_from_fresh_model(self):
        # 240 images in 64-image chunks: the buffers' first allocation and one
        # chunk's activations, not conv1's 18.8 MB gather of all 240.
        model = init_model("lenet5", 24, 32, seed=3)
        x = np.random.default_rng(0).random((240, 32, 32)).astype(np.float32)
        assert traced_peak(lambda: predict(model, x)) < IM2COL_64 + 4_000_000


def channel_last(a):
    """A copy of a (B, C, H, W) array laid out (B, H, W, C) in memory."""
    out = np.empty((a.shape[0], a.shape[2], a.shape[3], a.shape[1]), dtype=a.dtype)
    out[...] = a.transpose(0, 2, 3, 1)
    return out.transpose(0, 3, 1, 2)


# (C, frame, k) -> output channels: conv1 and conv2 of LeNet-5 at M = 32, and
# a small odd-sized case.
CONV_CASES = {(1, 32, 5): 6, (6, 14, 5): 16, (3, 9, 3): 4}


class TestConvDataMovement:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CONV_CASES))
    @pytest.mark.parametrize("batch", [1, 2, 7, 63, 64, 240])
    def test_matches_legacy(self, batch, case, dtype):
        c, frame, k = case
        conv = Conv2D(CONV_CASES[case], k)
        conv.init((c, frame, frame), np.random.default_rng(0), dtype)
        gen = np.random.default_rng([batch, c, frame, k])
        conv.params["b"][...] = gen.standard_normal(conv.channels)
        x = gen.standard_normal((batch, c, frame, frame)).astype(dtype)
        x[x < -1.5] = 0.0
        x[x > 1.5] = -0.0
        for x_in in (x, channel_last(x)):
            y, cache = conv.forward(x_in)
            ref_y, ref_cache = legacy_conv_forward(conv, x_in)
            assert_same_bytes(y, ref_y)
            assert_same_bytes(cache[1], ref_cache[1])
            assert cache[0] == ref_cache[0]
            # A ReLU-masked gradient, contiguous and in the channel-last
            # layout the forward pass leaves; the mask leaves +0.0 and -0.0.
            # Both must give the legacy's bytes for the NCHW-contiguous
            # gradient, the layout the legacy pipeline passed in.  For B > 1
            # the legacy itself gives those bytes for both layouts.
            grad_y = np.ascontiguousarray(gen.standard_normal(y.shape).astype(dtype) * (y > 0))
            ref_dx, ref_grads = legacy_conv_backward(conv, grad_y, ref_cache)
            if batch > 1:
                legacy_dx, legacy_grads = legacy_conv_backward(conv, channel_last(grad_y), ref_cache)
                assert_same_bytes(legacy_dx, ref_dx)
                for name in ("W", "b"):
                    assert_same_bytes(legacy_grads[name], ref_grads[name])
            for g in (grad_y, channel_last(grad_y)):
                assert (np.signbit(g) & (g == 0)).any() and (~np.signbit(g) & (g == 0)).any()
                dx, grads = conv.backward(g, cache)
                assert_same_bytes(dx, ref_dx)
                no_dx, grads_only = conv.backward(g, cache, need_dx=False)
                assert no_dx is None
                for name in ("W", "b"):
                    assert_same_bytes(grads[name], ref_grads[name])
                    assert_same_bytes(grads_only[name], ref_grads[name])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("images", [65, 66])
    def test_training_matches_legacy(self, images, activation, dtype):
        # At batch 64 each epoch ends with a 1- or 2-image batch: 65 images
        # run the B = 1 GEMM shapes, 66 the smallest B > 1 ones.  The twin
        # runs the whole legacy conv and pool stack.
        gen = np.random.default_rng(8)
        x = gen.random((images, 32, 32)).astype(np.float32)
        y = gen.integers(0, 4, images)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=64, seed=2, optimizer="adam")
        kwargs = {"activation": activation, "dtype": dtype}
        fast = init_model("lenet5", 4, 32, seed=5, **kwargs)
        legacy = init_model("lenet5", 4, 32, seed=5, **kwargs)
        legacy_methods = {
            Conv2D: (legacy_conv_forward, legacy_conv_backward),
            AvgPool2D: (legacy_avgpool_forward, legacy_avgpool_backward),
        }
        for layer in legacy.layers:
            for kind, (forward, backward) in legacy_methods.items():
                if isinstance(layer, kind):
                    layer.forward = types.MethodType(forward, layer)
                    layer.backward = types.MethodType(backward, layer)
        fast_best, fast_report = train(fast, (x, y), None, cfg)
        legacy_best, legacy_report = train(legacy, (x, y), None, cfg)
        assert fast_report.train_loss == legacy_report.train_loss
        assert fast_report.best_epoch == legacy_report.best_epoch
        for net_a, net_b in ((fast, legacy), (fast_best, legacy_best)):
            for (_, _, a), (_, _, b) in zip(net_a.parameters(), net_b.parameters()):
                assert_same_bytes(a, b)
        assert_same_bytes(predict_logits(fast_best, x), predict_logits(legacy_best, x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_column_sum_matches_sum(self, dtype):
        # conv1's and conv2's batch-64 rows, one-channel rows, and the
        # transposed (L, channels) rows of a 1-image batch.
        gen = np.random.default_rng(3)
        for shape in ((50176, 6), (6400, 16), (784, 1), (7, 1), (100, 2), (3, 17)):
            a = gen.standard_normal(shape) * 10.0 ** gen.integers(-6, 6, shape)
            a[gen.random(shape) < 0.2] = -0.0
            a = a.astype(dtype)
            for rows in (a, np.asfortranarray(a)):
                assert_same_bytes(_column_sum(rows), rows.sum(axis=0))

    def test_im2col_index_is_cached_and_read_only(self):
        index = _im2col_index(6, 14, 14, 5)
        assert _im2col_index(6, 14, 14, 5) is index
        assert index.shape == (100, 150) and index.dtype == np.intp
        assert not index.flags.writeable
        assert index.min() == 0 and index.max() == 6 * 14 * 14 - 1


class TestIm2colBuffer:
    def test_backward_rejects_overwritten_cache(self):
        # Forward A, then forward B: B's gather overwrote the buffer that A's
        # cache views, so A's gradients would be B's.
        conv = Conv2D(4, 3)
        conv.init((2, 9, 9), np.random.default_rng(0), np.float32)
        x_a, x_b = np.random.default_rng(1).random((2, 5, 2, 9, 9)).astype(np.float32)
        y_a, cache_a = conv.forward(x_a)
        _, cache_b = conv.forward(x_b)
        grad = np.ones_like(y_a)
        for need_dx in (True, False):
            with pytest.raises(LayerError, match="stale Conv2D cache"):
                conv.backward(grad, cache_a, need_dx=need_dx)
        fresh = Conv2D(4, 3)
        fresh.init((2, 9, 9), np.random.default_rng(0), np.float32)
        dx, grads = conv.backward(grad, cache_b)
        ref_dx, ref_grads = fresh.backward(grad, fresh.forward(x_b)[1])
        assert_same_bytes(dx, ref_dx)
        for name in ("W", "b"):
            assert_same_bytes(grads[name], ref_grads[name])

    def test_mixed_batch_sizes_match_fresh_model(self):
        # The buffer grows to 240 images at the first unchunked forward; later
        # batches gather into its leading rows.
        x = np.random.default_rng(2).random((240, 32, 32)).astype(np.float32)
        model = init_model("lenet5", 24, 32, seed=3)
        for b in (64, 1, 48, 240, 1, 64, 48, 240):
            fresh = init_model("lenet5", 24, 32, seed=3)
            assert_same_bytes(predict_logits(model, x[:b]), predict_logits(fresh, x[:b]))
            fresh = init_model("lenet5", 24, 32, seed=3)
            assert_same_bytes(model.forward(x[:b]), fresh.forward(x[:b]))


def is_channel_last(a):
    """Whether a (B, C, H, W) array is laid out (B, H, W, C) in memory."""
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


class TestChannelLastLayout:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_conv_stack_layout_and_pool_gradient_memory(self, activation):
        """One LeNet-5 forward and backward: every conv, activation and pool
        output and every pool and activation input gradient of the conv
        stack is channel-last, and ``AvgPool2D.backward`` allocates its
        output and the ufunc's fixed-size buffer (about 33 KB), no more.
        A training batch of 64 keeps that buffer under a tenth of pool2's
        output, and a 0.25x scaled copy of the incoming gradient fails."""
        model = init_model("lenet5", 4, 32, seed=5, activation=activation)
        gen = np.random.default_rng(9)
        x = model.apply_input_norm(gen.random((64, 32, 32)).astype(np.float32))
        checked = []
        caches = []
        for layer in model.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
            if x.ndim == 4 and isinstance(layer, (Conv2D, ReLU, Tanh, AvgPool2D)):
                checked.append((f"{type(layer).__name__}.forward", x))
        grad = gen.standard_normal(x.shape).astype(x.dtype)
        # Down to the first activation: conv1's input gradient is never made.
        for i in range(len(model.layers) - 1, 1, -1):
            layer = model.layers[i]
            if isinstance(layer, AvgPool2D):
                result = []
                peak = traced_peak(lambda: result.append(layer.backward(grad, caches[i])))
                grad = result[0][0]
                assert peak < 1.2 * grad.nbytes, (i, peak / grad.nbytes)
            else:
                grad, _ = layer.backward(grad, caches[i])
            if grad.ndim == 4 and isinstance(layer, (ReLU, Tanh, AvgPool2D)):
                checked.append((f"{type(layer).__name__}.backward", grad))
        assert len(checked) == 10
        for name, a in checked:
            assert is_channel_last(a), name


# -- training -------------------------------------------------------------------


class TestTrain:
    def test_memorization_sanity(self):
        x = np.random.default_rng(2).random((10, 16, 16)).astype(np.float32)
        y = np.arange(10) % 5
        model = init_model("perceptron3", 5, 16, seed=0)
        best, report = train(
            model, (x, y), None, TrainConfig(learning_rate=0.2, epochs=250, batch_size=4, seed=1)
        )
        assert report.train_acc[report.best_epoch - 1] == 1.0
        assert min(report.train_loss) < 0.01 * report.train_loss[0]

    def test_zero_learning_rate_freezes_params(self):
        x = np.random.default_rng(2).random((6, 8, 8)).astype(np.float32)
        y = np.arange(6) % 3
        model = init_model("perceptron1", 3, 8, seed=4)
        before = [p.copy() for _, _, p in model.parameters()]
        train(model, (x, y), None, TrainConfig(learning_rate=0.0, epochs=3, batch_size=2, seed=1))
        for snap, (_, _, p) in zip(before, model.parameters()):
            assert np.array_equal(snap, p)

    def test_deterministic_reports(self):
        x = np.random.default_rng(2).random((12, 8, 8)).astype(np.float32)
        y = np.arange(12) % 3
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=4, seed=9)
        _, rep_a = train(init_model("perceptron3", 3, 8, seed=4), (x, y), None, cfg)
        _, rep_b = train(init_model("perceptron3", 3, 8, seed=4), (x, y), None, cfg)
        assert rep_a.train_loss == rep_b.train_loss
        assert rep_a.train_acc == rep_b.train_acc
        assert rep_a.best_epoch == rep_b.best_epoch

    def test_adam_deterministic_and_effective(self):
        x = np.random.default_rng(2).random((20, 8, 8)).astype(np.float32)
        y = np.arange(20) % 4
        cfg = TrainConfig(learning_rate=1e-3, epochs=60, batch_size=5, seed=9, optimizer="adam")
        best_a, rep_a = train(init_model("perceptron3", 4, 8, seed=4), (x, y), None, cfg)
        best_b, rep_b = train(init_model("perceptron3", 4, 8, seed=4), (x, y), None, cfg)
        assert rep_a.train_loss == rep_b.train_loss
        assert rep_a.train_loss[-1] < rep_a.train_loss[0]

    def test_validation_checkpoint_selection(self):
        gen = np.random.default_rng(3)
        x = gen.random((20, 8, 8)).astype(np.float32)
        y = (x.reshape(20, -1).mean(axis=1) > 0.5).astype(int)
        xv = gen.random((10, 8, 8)).astype(np.float32)
        yv = (xv.reshape(10, -1).mean(axis=1) > 0.5).astype(int)
        model = init_model("perceptron3", 2, 8, seed=4)
        _, report = train(
            model, (x, y), (xv, yv), TrainConfig(learning_rate=0.05, epochs=8, batch_size=4, seed=1)
        )
        assert report.has_validation
        assert report.best_epoch == int(np.argmin(report.val_loss)) + 1

    def test_validation_matches_predict_across_chunks(self):
        # 300 validation images span five inference chunks of 64; the epoch's
        # validation figures are those of the trained model's predict logits.
        gen = np.random.default_rng(5)
        x = gen.random((12, 8, 8)).astype(np.float32)
        y = np.arange(12) % 3
        xv = gen.random((300, 8, 8)).astype(np.float32)
        yv = np.arange(300) % 3
        model = init_model("perceptron3", 3, 8, seed=4)
        _, report = train(
            model, (x, y), (xv, yv), TrainConfig(learning_rate=0.05, epochs=1, batch_size=4, seed=1)
        )
        loss, acc = _loss_and_accuracy(predict_logits(model, xv), yv)
        assert report.val_loss[0] == loss
        assert report.val_acc[0] == acc

    def test_divergence_guard(self):
        x = (np.random.default_rng(2).random((8, 8, 8)) * 1e30).astype(np.float32)
        y = np.arange(8) % 3
        model = init_model("perceptron1", 3, 8, seed=4, input_norm="raw")
        with pytest.raises(TrainingDivergedError):
            train(model, (x, y), None, TrainConfig(learning_rate=1e20, epochs=10, batch_size=4, seed=1))

    @pytest.mark.parametrize("optimizer, momentum", [
        ("sgd", -0.5), ("sgd", 1.0), ("sgd", float("nan")), ("adam", 0.9), ("adam", -0.5),
    ])
    def test_bad_momentum_rejected(self, optimizer, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(learning_rate=0.1, epochs=1, momentum=momentum, optimizer=optimizer)
        TrainConfig(learning_rate=0.1, epochs=1, momentum=0.0, optimizer=optimizer)

    def test_empty_training_set_rejected(self):
        model = init_model("perceptron1", 3, 8, seed=4)
        with pytest.raises(ValueError):
            train(model, (np.zeros((0, 8, 8)), np.zeros(0, dtype=int)), None,
                  TrainConfig(learning_rate=0.1, epochs=1))

    def test_report_csv_format(self, tmp_path):
        x = np.random.default_rng(2).random((6, 8, 8)).astype(np.float32)
        y = np.arange(6) % 3
        _, report = train(
            init_model("perceptron1", 3, 8, seed=4), (x, y), None,
            TrainConfig(learning_rate=0.05, epochs=3, batch_size=2, seed=1),
        )
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 4
        assert lines[1].startswith("1,")


# -- prediction -------------------------------------------------------------------


class TestPredict:
    def test_zero_model_predicts_class_zero(self):
        model = init_model("perceptron1", 24, 32, seed=1)
        for _, _, p in model.parameters():
            p[...] = 0.0
        x = np.random.default_rng(0).random((5, 32, 32)).astype(np.float32)
        assert np.all(predict(model, x) == 0)

    def test_tie_break_lowest_index(self):
        assert int(np.argmax(np.array([0.2, 0.9, 0.9]))) == 1

    def test_softmax_rows_sum_to_one(self):
        model = init_model("perceptron3", 24, 32, seed=1)
        x = np.random.default_rng(0).random((7, 32, 32)).astype(np.float32)
        probs = softmax(model.forward(x))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_logit_shift_invariance(self):
        model = init_model("perceptron3", 24, 32, seed=1)
        x = np.random.default_rng(0).random((7, 32, 32)).astype(np.float32)
        logits = predict_logits(model, x)
        shifted = logits + np.random.default_rng(1).random((7, 1)) * 100.0
        assert np.array_equal(logits.argmax(axis=1), shifted.argmax(axis=1))

    @pytest.mark.parametrize("preset", network.PRESETS)
    def test_float64_logits_do_not_depend_on_chunk(self, preset, monkeypatch):
        # 300 images run as 256 + 44 or as 4 x 64 + 44 rows.  In float64 an
        # image's logits are the same in a 256-row and a 64-row product under
        # the SkylakeX, Haswell and Sandybridge kernels; in float32 under
        # Haswell they are not.  Smaller last chunks also change the bytes.
        model = init_model(preset, 24, 32, seed=3, dtype="float64")
        x = np.random.default_rng(4).random((300, 32, 32)).astype(np.float32)
        logits = {}
        for chunk in (256, 64):
            monkeypatch.setattr(network, "_CHUNK", chunk)
            logits[chunk] = predict_logits(model, x)
        assert_same_bytes(logits[256], logits[64])

    def test_evaluate_loss_matches_manual(self):
        model = init_model("perceptron1", 3, 8, seed=4)
        x = np.random.default_rng(0).random((5, 8, 8)).astype(np.float32)
        y = np.array([0, 1, 2, 0, 1])
        loss, acc = evaluate_loss(model, x, y)
        logits = model.forward(x)
        probs = softmax(logits)
        manual = float(-np.log(probs[np.arange(5), y]).mean())
        assert loss == pytest.approx(manual, rel=1e-6)


# -- checkpoints -------------------------------------------------------------------


def read_checkpoint(path):
    """(descriptor, parameter bytes) of an LMDL file."""
    raw = path.read_bytes()
    _, blob_len = struct.unpack("<HI", raw[4:10])
    return json.loads(raw[10 : 10 + blob_len]), raw[10 + blob_len : -32]


def rewrite_checkpoint(path, descriptor=None, params=None):
    """Replace the descriptor and/or parameter bytes, then re-digest the file."""
    old_descriptor, old_params = read_checkpoint(path)
    blob = json.dumps(descriptor or old_descriptor, sort_keys=True).encode("utf-8")
    params = old_params if params is None else params
    body = b"LMDL" + struct.pack("<HI", 1, len(blob)) + blob + params
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = init_model("lenet5", 6, 32, seed=3)
        path = tmp_path / "model.lmdl"
        save_model(model, path)
        back = load_model(path)
        assert back.meta == model.meta
        for (_, _, a), (_, _, b) in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a, b)

    def test_corrupt_detected(self, tmp_path):
        model = init_model("perceptron1", 3, 8, seed=3)
        path = tmp_path / "model.lmdl"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_edited_layer_descriptor_detected(self, tmp_path):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        descriptor, _ = read_checkpoint(path)
        assert descriptor["layers"][1] == {"kind": "Dense", "args": {"units": 256}}
        descriptor["layers"][1]["args"]["units"] = 255
        rewrite_checkpoint(path, descriptor=descriptor)
        with pytest.raises(CheckpointError, match="stored layers"):
            load_model(path)

    @pytest.mark.parametrize(
        "option,value,error",
        [
            ("activation", "sigmoid", CheckpointError),
            ("input_norm", "zscore", CheckpointError),
            ("dtype", "float16", CheckpointError),
            ("pooling", "max", CheckpointError),
        ],
    )
    def test_unknown_option_in_checkpoint(self, tmp_path, option, value, error):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        descriptor, _ = read_checkpoint(path)
        assert descriptor["pooling"] == "avg"
        descriptor[option] = value
        rewrite_checkpoint(path, descriptor=descriptor)
        with pytest.raises(error, match=f"unsupported {option} {value!r}"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.pop("dtype"), "descriptor lacks dtype"),
            (lambda d: [d.pop(k) for k in ("frame_size", "preset")], "lacks preset, frame_size"),
            (lambda d: d.update(preset="resnet"), "unknown preset 'resnet'"),
            (lambda d: d.update(class_count=1), "need at least two classes"),
        ],
        ids=["no-dtype", "no-preset-or-frame", "unknown-preset", "one-class"],
    )
    def test_bad_meta_in_checkpoint(self, tmp_path, edit, message):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        descriptor, _ = read_checkpoint(path)
        edit(descriptor)
        rewrite_checkpoint(path, descriptor=descriptor)
        with pytest.raises(CheckpointError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("class_count", "3"),
            ("class_count", True),
            ("frame_size", 8.0),
            ("init_seed", "x"),
            ("init_seed", None),
            ("preset", 5),
            ("dtype", ["float32"]),
        ],
    )
    def test_mistyped_meta_in_checkpoint(self, tmp_path, key, value):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        descriptor, _ = read_checkpoint(path)
        descriptor[key] = value
        rewrite_checkpoint(path, descriptor=descriptor)
        with pytest.raises(CheckpointError, match=f"descriptor {key} must be "):
            load_model(path)

    @pytest.mark.parametrize(
        "blob,message",
        [(b"[]", "not a JSON object"), (b'"avg"', "not a JSON object"), (b"{", "unreadable")],
        ids=["list", "string", "not-json"],
    )
    def test_descriptor_not_an_object(self, tmp_path, blob, message):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        _, params = read_checkpoint(path)
        body = b"LMDL" + struct.pack("<HI", 1, len(blob)) + blob + params
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CheckpointError, match=message):
            load_model(path)

    @pytest.mark.parametrize("preset,dtype", [("perceptron3", "float32"), ("lenet5", "float64")])
    def test_parameter_section_layout(self, tmp_path, preset, dtype):
        model = init_model(preset, 5, 16, seed=3, dtype=dtype)
        path = tmp_path / "model.lmdl"
        save_model(model, path)
        _, params = read_checkpoint(path)
        tensors = [np.ascontiguousarray(p, "<f4").tobytes() for _, _, p in model.parameters()]
        assert params == b"".join(tensors)

    @pytest.mark.parametrize(
        "edit,message",
        [(lambda b: b[:-4], "truncated"), (lambda b: b + b"\0" * 4, "trailing")],
        ids=["one-float-short", "four-bytes-extra"],
    )
    def test_parameter_size_mismatch_detected(self, tmp_path, edit, message):
        path = tmp_path / "model.lmdl"
        save_model(init_model("perceptron3", 3, 8, seed=3), path)
        _, params = read_checkpoint(path)
        rewrite_checkpoint(path, params=edit(params))
        with pytest.raises(CheckpointError, match=message):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.lmdl"
        path.write_bytes(b"JUNKJUNKJUNK" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = init_model("perceptron3", 4, 8, seed=3)
        x = np.random.default_rng(0).random((6, 8, 8)).astype(np.float32)
        path = tmp_path / "model.lmdl"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(model.forward(x), back.forward(x))
