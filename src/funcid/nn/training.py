"""Minibatch SGD training with best-checkpoint selection by minimal loss."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import rng
from .network import Network, chunked_logits, cross_entropy


OPTIMIZERS = ("sgd", "adam")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; training aborted with diagnostics."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 64
    seed: int = 0
    momentum: float = 0.0
    optimizer: str = "sgd"  # "sgd" | "adam"

    def __post_init__(self):
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.optimizer == "adam" and self.momentum != 0.0:
            raise ValueError(f"momentum {self.momentum} needs optimizer 'sgd'; adam takes 0")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based

    @property
    def has_validation(self) -> bool:
        return bool(self.val_loss)

    def best_selection_loss(self) -> float:
        series = self.val_loss if self.has_validation else self.train_loss
        return series[self.best_epoch - 1]

    def to_csv(self, path) -> None:
        """epoch,train_loss,train_acc,val_loss,val_acc (blank when absent)."""
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for i, (tl, ta) in enumerate(zip(self.train_loss, self.train_acc)):
            vl = repr(self.val_loss[i]) if self.has_validation else ""
            va = repr(self.val_acc[i]) if self.has_validation else ""
            lines.append(f"{i + 1},{tl!r},{ta!r},{vl},{va}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _as_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """(pixels, labels) of a Dataset or of a (pixels, labels) pair."""
    pixels, labels = (data.pixels, data.labels) if hasattr(data, "pixels") else data
    return np.asarray(pixels), np.asarray(labels)


def _loss_and_accuracy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    loss, _ = cross_entropy(logits, labels)
    return loss, float((logits.argmax(axis=1) == labels).mean())


def train(model: Network, train_data, val_data, cfg: TrainConfig) -> tuple[Network, TrainReport]:
    """Seeded minibatch SGD; returns the minimal-loss checkpoint and report.

    Selection uses validation loss when a validation split is present,
    otherwise the epoch's mean training loss.  The input model is trained in
    place through the last epoch; the returned network is the checkpointed
    best copy.
    """
    x_train, y_train = _as_arrays(train_data)
    if len(x_train) == 0:
        raise ValueError("training split is empty")
    x_val, y_val = _as_arrays(val_data) if val_data is not None else ((), ())
    has_val = len(x_val) > 0
    if has_val:
        x_val = model.apply_input_norm(x_val)

    # Pixels are normalized once up front; layers then see identical inputs
    # every epoch.
    x_all = model.apply_input_norm(x_train)
    y_all = np.asarray(y_train)

    stepper = _make_stepper(cfg, model)

    report = TrainReport()
    best = model.copy()
    best_loss = np.inf

    for epoch in range(1, cfg.epochs + 1):
        order = rng.substream(cfg.seed, rng.BATCH_ORDER, epoch).permutation(len(x_all))
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            xb, yb = x_all[sel], y_all[sel]
            logits, caches = model.forward_normalized(xb, want_caches=True)
            batch_loss, dlogits = cross_entropy(logits, yb)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                    f" (lr={cfg.learning_rate})"
                )
            epoch_loss += batch_loss * len(yb)
            epoch_hits += int((logits.argmax(axis=1) == yb).sum())
            stepper(model.backward(dlogits.astype(logits.dtype), caches))

        report.train_loss.append(epoch_loss / len(x_all))
        report.train_acc.append(epoch_hits / len(x_all))
        if has_val:
            logits = chunked_logits(model, x_val, model.forward_normalized)
            vl, va = _loss_and_accuracy(logits, y_val)
            report.val_loss.append(vl)
            report.val_acc.append(va)
            selection = vl
        else:
            selection = report.train_loss[-1]
        if selection < best_loss:
            best_loss = selection
            best = model.copy()
            report.best_epoch = epoch

    return best, report


# Elements per optimizer block.  The stepper's only scratch is one block:
# 128 KB of float32, plus 256 KB of float64 for Adam.  That fits a 2 MB L2
# cache together with the block's slices of the parameter, gradient and state
# vectors.  Smaller blocks save no memory that matters and cost a dozen more
# ufunc calls per block.
_BLOCK = 32_768


def _make_stepper(cfg: TrainConfig, model: Network):
    """Update closure for one flat gradient with ``model.vector``'s layout and dtype.

    Plain SGD, momentum SGD and Adam each update the vector in place, block
    by block, with one set of ufunc calls per block of ``_BLOCK`` elements.
    Every element sees the same ufuncs, operand dtypes and operation order
    whatever the block size, so the updated bytes do not depend on it.  The
    working set is the optimizer's state (``velocity``, or Adam's ``m`` and
    ``v``), each a vector laid out like ``model.vector``, plus one block of
    scratch: no temporary grows with the model.
    """
    p = model.vector
    block = min(_BLOCK, p.size)
    spans = [slice(start, start + block) for start in range(0, p.size, block)]
    tmp = np.empty(block, dtype=p.dtype)

    if cfg.optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        # The float64 ``scale`` widens the step, so it gets a float64 buffer.
        wide = np.empty(block, dtype=np.float64)
        step = 0

        def adam_step(grad):
            nonlocal step
            step += 1
            scale = cfg.learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            for s in spans:
                g, ps, ms, vs = grad[s], p[s], m[s], v[s]
                t, w = tmp[: g.size], wide[: g.size]
                np.multiply(ms, beta1, out=ms)
                np.add(ms, np.multiply(g, 1.0 - beta1, out=t), out=ms)
                np.multiply(vs, beta2, out=vs)
                np.multiply(g, 1.0 - beta2, out=t)
                np.add(vs, np.multiply(t, g, out=t), out=vs)
                np.sqrt(vs, out=t)
                np.add(t, eps, out=t)
                # The quotient is rounded once, from float64 to the model
                # dtype, before the subtraction.
                np.subtract(ps, np.divide(np.multiply(ms, scale, out=w), t, out=t), out=ps)

        return adam_step

    if cfg.momentum > 0.0:
        velocity = np.zeros_like(p)

        def momentum_step(grad):
            for s in spans:
                g, ps, vel = grad[s], p[s], velocity[s]
                np.multiply(vel, cfg.momentum, out=vel)
                np.subtract(vel, np.multiply(g, cfg.learning_rate, out=tmp[: g.size]), out=vel)
                np.add(ps, vel, out=ps)

        return momentum_step

    def sgd_step(grad):
        for s in spans:
            g, ps = grad[s], p[s]
            np.subtract(ps, np.multiply(g, cfg.learning_rate, out=tmp[: g.size]), out=ps)

    return sgd_step
