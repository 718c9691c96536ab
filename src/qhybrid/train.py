"""Mini-batch training loop with per-epoch history.

After its shuffle permutation, an epoch draws from the loop rng only Dropout
masks, in batch and then layer order, so the masks come from a few
``MASK_CHUNK``-draw calls sliced per mask: the same stream, far fewer calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import batch_iter
from .layers import Dropout
from .losses import cross_entropy_loss, mse_loss
from .network import Network
from .optim import Adam, lr_schedule
from .rng import Rng

MASK_CHUNK = 2**17  # draws per uniform call for Dropout masks: 1 MB of float64


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


class _MaskDraws:
    """Serves Dropout's ``uniform(k)`` calls from ``total`` draws of ``rng``,
    drawn lazily in calls of at most ``MASK_CHUNK``."""

    def __init__(self, rng: Rng, total: int):
        self._chunks = (rng.uniform(min(MASK_CHUNK, total - i))
                        for i in range(0, total, MASK_CHUNK))
        self._buf = np.empty(0)

    def uniform(self, k: int) -> np.ndarray:
        out, self._buf = self._buf[:k], self._buf[k:]
        while len(out) < k:
            chunk = next(self._chunks)
            out, self._buf = np.concatenate([out, chunk[: k - len(out)]]), chunk[k - len(out) :]
        return out


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
    width, mask_width = x.shape[1], 0  # mask draws per row: widths into Dropout with p > 0
    for layer in net.layers:
        mask_width += width if isinstance(layer, Dropout) and layer.p > 0.0 else 0
        width = layer.out_width or width
    for epoch in range(epochs):
        if lr_step:
            adam.alpha = lr_schedule(alpha0, epoch, lr_step, lr_factor)
        x_epoch = epoch_features(epoch) if epoch_features is not None else x
        y_epoch = y if classify else x_epoch
        net.train()
        loss_sum, acc_sum = 0.0, 0.0
        masks = _MaskDraws(rng, len(x_epoch) * mask_width)
        for xb, yb in batch_iter(x_epoch, y_epoch, batch_size, shuffle=True, rng=rng):
            out = net.forward(xb, rng=masks)
            loss, grad = loss_fn(yb, out)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite training loss at epoch {epoch}")
            net.backward(grad)
            adam.step([net.param_vector], [net.grad_vector])
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
