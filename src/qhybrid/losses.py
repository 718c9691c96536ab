"""Loss functions returning (scalar loss, gradient) pairs."""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


def mse_loss(x: np.ndarray, xhat: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements; gradient is wrt xhat."""
    if x.shape != xhat.shape:
        raise ValueError(f"mse shape mismatch: {x.shape} vs {xhat.shape}")
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
    if y_onehot.shape != probs.shape:
        raise ValueError(f"cross-entropy shape mismatch: {y_onehot.shape} vs {probs.shape}")
    batch = y_onehot.shape[0]
    clipped = np.clip(probs, PROB_FLOOR, 1.0)
    loss = float(-np.sum(y_onehot * np.log(clipped)) / batch)
    return loss, (probs - y_onehot) / batch
