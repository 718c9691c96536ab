"""Mini-batch training loop with per-epoch history.

The loop rng gives only the shuffle permutations. Dropout masks come from
its child ``rng.split("dropout")``, one stream for the whole ``train`` call,
in a few ``MASK_CHUNK``-draw calls sliced per mask: the stream one call per
mask would draw, in far fewer calls.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import batch_iter
from .losses import cross_entropy_in_place, cross_entropy_loss, mse_in_place, mse_loss
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


def evaluate(net: Network, x, y: np.ndarray | None, loss_fn) -> tuple[float, np.ndarray]:
    """Inference-mode loss over a full set, in ``Network.batches``; returns
    the mean loss against ``y`` and each row's argmax output. With y=None
    each input batch is its own target (autoencoder mode).

    ``loss_fn`` is ``mse_loss`` or ``cross_entropy_loss``, but no gradient
    is built: each batch's loss is taken in the output's own buffer by
    ``mse_in_place`` or ``cross_entropy_in_place``, which give the bits of
    ``loss_fn(...)[0]``. An output that shares memory with its input rows (a
    network of Dropout layers alone passes them through) is copied first,
    so x is never written."""
    net.eval()
    loss_in_place = mse_in_place if loss_fn is mse_loss else cross_entropy_in_place
    total = 0.0
    preds = np.empty(len(x), dtype=np.int64)
    for start, rows, out in net.batches(x):
        stop = start + len(out)
        preds[start:stop] = out.argmax(axis=1)
        if np.may_share_memory(out, rows):
            out = out.copy()
        total += loss_in_place(rows if y is None else y[start:stop], out) * len(out)
        del rows, out  # so the next batch is built without this one alive
    return total / len(x), preds


class _MaskDraws:
    """Serves Dropout's ``uniform(k)`` calls from ``rng``, drawn in calls of
    ``MASK_CHUNK``; the draws of the last chunk that no mask took are dropped."""

    def __init__(self, rng: Rng):
        self._rng = rng
        self._buf = np.empty(0)

    def uniform(self, k: int) -> np.ndarray:
        out, self._buf = self._buf[:k], self._buf[k:]
        while len(out) < k:
            chunk = self._rng.uniform(MASK_CHUNK)
            out, self._buf = np.concatenate([out, chunk[: k - len(out)]]), chunk[k - len(out) :]
        return out


def train(net: Network, x, y: np.ndarray | None, *, epochs: int, batch_size: int,
          adam: Adam, rng: Rng, x_val: np.ndarray | None = None,
          y_val: np.ndarray | None = None, lr_step: int = 0, lr_factor: float = 0.5,
          log=None) -> list[EpochRecord]:
    """Train with Adam; deterministic given the rng seed.

    ``x`` is the feature array, or a function of the epoch index that returns
    that epoch's features (on-the-fly augmentation); either may be a
    ``data.PixelRows`` view that normalises one batch at a time. y=None means
    autoencoder mode: each batch is gathered once, is its own target, and the
    loss is MSE; otherwise y holds one-hot labels and the loss is categorical
    cross-entropy. ``log`` gets one line per epoch: the record's measures (an
    autoencoder's named ``mse``) and rows per wall second, validation included.
    """
    classify = y is not None
    loss_fn = cross_entropy_loss if classify else mse_loss
    alpha0 = adam.alpha
    history: list[EpochRecord] = []
    masks = _MaskDraws(rng.split("dropout"))
    for epoch in range(epochs):
        start = time.perf_counter()
        x_epoch = x(epoch) if callable(x) else x
        if len(x_epoch) == 0:
            raise ValueError("training dataset is empty")
        if lr_step:
            adam.alpha = lr_schedule(alpha0, epoch, lr_step, lr_factor)
        net.train()
        loss_sum, acc_sum = 0.0, 0.0
        for xb, yb in batch_iter(x_epoch, y, batch_size, rng):
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
        # drop the epoch's stack and last batch before validation and before
        # the next epoch's stack is built
        del x_epoch, xb, yb, out, grad
        record = EpochRecord(epoch=epoch, train_loss=loss_sum / n)
        if classify:
            record.train_acc = acc_sum / n
        if x_val is not None:
            record.val_loss, preds = evaluate(net, x_val, y_val if classify else None, loss_fn)
            if classify:
                record.val_acc = float(np.sum(preds == y_val.argmax(axis=1))) / len(x_val)
        if log is not None:
            loss_name = "loss" if classify else "mse"
            measures = " ".join(f"{k.replace('loss', loss_name)}={v:.6f}"
                                for k, v in asdict(record).items()
                                if k != "epoch" and v is not None)
            log(f"epoch {epoch + 1}/{epochs} {measures} "
                f"{n / (time.perf_counter() - start):.0f} rows/s")
        history.append(record)
    net.eval()
    adam.alpha = alpha0
    return history
