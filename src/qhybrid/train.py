"""Mini-batch training loop with per-epoch history."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import batch_iter
from .losses import cross_entropy_loss, mse_loss
from .network import Network
from .optim import Adam, lr_schedule
from .rng import Rng


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None = None
    train_acc: float | None = None
    val_acc: float | None = None


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, loss_fn, *,
             batch_size: int = 1024) -> tuple[float, np.ndarray]:
    """Inference-mode loss over a full set, in batches; returns the mean loss
    against ``y`` and each row's argmax output."""
    net.eval()
    total = 0.0
    preds = np.empty(len(x), dtype=np.int64)
    for start in range(0, len(x), batch_size):
        xb = x[start : start + batch_size]
        out = net.forward(xb)
        loss, _ = loss_fn(y[start : start + batch_size], out)
        total += loss * len(xb)
        preds[start : start + len(xb)] = out.argmax(axis=1)
    return total / len(x), preds


def train(net: Network, x: np.ndarray, y: np.ndarray | None, *, epochs: int,
          batch_size: int, adam: Adam, rng: Rng, x_val: np.ndarray | None = None,
          y_val: np.ndarray | None = None, lr_step: int = 0, lr_factor: float = 0.5,
          epoch_features=None, log=None) -> list[EpochRecord]:
    """Train with Adam; deterministic given the rng seed.

    y=None means autoencoder mode: the target of each batch is the batch
    itself and the loss is MSE; otherwise y holds one-hot labels and the
    loss is categorical cross-entropy. ``epoch_features`` optionally maps an
    epoch index to that epoch's training features (used for on-the-fly
    augmentation); targets follow the returned features in autoencoder mode.
    """
    if len(x) == 0:
        raise ValueError("training dataset is empty")
    classify = y is not None
    loss_fn = cross_entropy_loss if classify else mse_loss
    alpha0 = adam.alpha
    history: list[EpochRecord] = []
    for epoch in range(epochs):
        if lr_step:
            adam.alpha = lr_schedule(alpha0, epoch, lr_step, lr_factor)
        x_epoch = epoch_features(epoch) if epoch_features is not None else x
        y_epoch = y if classify else x_epoch
        net.train()
        loss_sum, acc_sum = 0.0, 0.0
        for xb, yb in batch_iter(x_epoch, y_epoch, batch_size, shuffle=True, rng=rng):
            out = net.forward(xb, rng=rng)
            loss, grad = loss_fn(yb, out)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}")
            net.backward(grad)
            adam.step(net.params(), net.grads())
            loss_sum += loss * len(xb)
            if classify:
                acc_sum += float(np.sum(out.argmax(axis=1) == yb.argmax(axis=1)))
        n = len(x_epoch)
        record = EpochRecord(epoch=epoch, train_loss=loss_sum / n)
        if classify:
            record.train_acc = acc_sum / n
        if x_val is not None:
            record.val_loss, preds = evaluate(net, x_val, y_val if classify else x_val, loss_fn)
            if classify:
                record.val_acc = float(np.sum(preds == y_val.argmax(axis=1))) / len(x_val)
        if log is not None:
            log(record)
        history.append(record)
    net.eval()
    adam.alpha = alpha0
    return history
