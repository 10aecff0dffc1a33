"""Minibatch SGD training with best-checkpoint selection by minimal loss."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import rng
from .network import Network, cross_entropy, predict_logits


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
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
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
    wall_time_s: float = 0.0

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


def evaluate_loss(model: Network, pixels: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a full split."""
    return _loss_and_accuracy(predict_logits(model, pixels), labels)


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
    started = time.perf_counter()

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
            grads = model.backward(dlogits.astype(logits.dtype), caches)
            stepper(grads)

        report.train_loss.append(epoch_loss / len(x_all))
        report.train_acc.append(epoch_hits / len(x_all))
        if has_val:
            vl, va = _eval_normalized(model, x_val, y_val)
            report.val_loss.append(vl)
            report.val_acc.append(va)
            selection = vl
        else:
            selection = report.train_loss[-1]
        if selection < best_loss:
            best_loss = selection
            best = model.copy()
            report.best_epoch = epoch

    report.wall_time_s = time.perf_counter() - started
    return best, report


def _make_stepper(cfg: TrainConfig, model: Network):
    """Parameter-update closure: plain/momentum SGD or Adam."""
    params = model.parameters()
    if cfg.optimizer == "adam":
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        m_state = {(i, n): np.zeros_like(p) for i, n, p in params}
        v_state = {(i, n): np.zeros_like(p) for i, n, p in params}
        # Scratch shared by all parameters: one buffer in the model dtype and
        # one float64 buffer for the step, which the float64 ``scale`` widens.
        largest = max(p.size for _, _, p in params)
        scratch = np.empty(largest, dtype=params[0][2].dtype)
        wide = np.empty(largest, dtype=np.float64)
        step = 0

        def adam_step(grads):
            nonlocal step
            step += 1
            scale = cfg.learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
            for i, name, p in params:
                g = np.asarray(grads[(i, name)], dtype=p.dtype)
                m = m_state[(i, name)]
                v = v_state[(i, name)]
                tmp = scratch[: p.size].reshape(p.shape)
                m *= beta1
                m += np.multiply(g, 1.0 - beta1, out=tmp)
                v *= beta2
                np.multiply(g, 1.0 - beta2, out=tmp)
                v += np.multiply(tmp, g, out=tmp)
                np.sqrt(v, out=tmp)
                tmp += eps
                # The quotient is rounded once, from float64 to the model
                # dtype, before the subtraction.
                step64 = np.multiply(m, scale, out=wide[: p.size].reshape(p.shape))
                p -= np.divide(step64, tmp, out=tmp)

        return adam_step

    if cfg.momentum > 0.0:
        velocity = {(i, n): np.zeros_like(p) for i, n, p in params}

        def momentum_step(grads):
            for i, name, p in params:
                v = velocity[(i, name)]
                v *= cfg.momentum
                v -= cfg.learning_rate * grads[(i, name)]
                p += v.astype(p.dtype)

        return momentum_step

    def sgd_step(grads):
        for i, name, p in params:
            p -= (cfg.learning_rate * grads[(i, name)]).astype(p.dtype)

    return sgd_step


def _eval_normalized(model: Network, x_norm: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    chunks = [
        model.forward_normalized(x_norm[i : i + 256]) for i in range(0, len(x_norm), 256)
    ]
    return _loss_and_accuracy(np.concatenate(chunks), labels)
