"""Loss functions returning (scalar loss, gradient) pairs, and their
loss-only forms for inference, which overwrite the output they are given
instead of building a gradient."""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


def _check_shapes(kind: str, target: np.ndarray, out: np.ndarray) -> None:
    if target.shape != out.shape:
        raise ValueError(f"{kind} shape mismatch: {target.shape} vs {out.shape}")


def mse_loss(x: np.ndarray, xhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements; gradient is wrt xhat."""
    _check_shapes("mse", x, xhat)
    diff = xhat - x
    n = diff.size
    loss = float(np.sum(diff * diff) / n)
    diff *= 2.0  # in place, the same bits as 2.0 * diff / n
    diff /= n
    return loss, diff


def cross_entropy_loss(y_onehot: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Categorical cross-entropy against softmax outputs.

    Returns the batch-mean loss and the gradient with respect to the
    pre-softmax logits, (probs - y) / batch, which is the softmax and
    cross-entropy chain collapsed into one step.
    """
    loss = cross_entropy_in_place(y_onehot, probs.copy())
    return loss, (probs - y_onehot) / len(probs)


def mse_in_place(x: np.ndarray, xhat: np.ndarray) -> float:
    """``mse_loss(x, xhat)[0]``, computed in xhat's buffer, which it
    overwrites: the same subtract, square and sum, so the same bits."""
    _check_shapes("mse", x, xhat)
    xhat -= x
    np.multiply(xhat, xhat, out=xhat)
    return float(np.sum(xhat) / xhat.size)


def cross_entropy_in_place(y_onehot: np.ndarray, probs: np.ndarray) -> float:
    """The batch-mean categorical cross-entropy, computed in probs' buffer,
    which it overwrites: clip, log, product and sum. ``cross_entropy_loss``
    takes its loss from here."""
    _check_shapes("cross-entropy", y_onehot, probs)
    np.clip(probs, PROB_FLOOR, 1.0, out=probs)
    np.log(probs, out=probs)
    probs *= y_onehot
    return float(-np.sum(probs) / len(probs))
