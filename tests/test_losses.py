import numpy as np
import pytest

from qhybrid.layers import activate
from qhybrid.losses import (
    PROB_FLOOR,
    cross_entropy_in_place,
    cross_entropy_loss,
    mse_in_place,
    mse_loss,
)
from qhybrid.rng import Rng

from test_layers import fd_gradient, rel_err


def test_mse_identity_is_zero():
    x = np.random.default_rng(0).random((3, 4))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_mse_direct_formula():
    loss, _ = mse_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
    assert loss == 1.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_mse_gradient_matches_finite_differences():
    rng = Rng(21)
    x = rng.uniform(12).reshape(3, 4)
    xhat = rng.uniform(12).reshape(3, 4) * 2 - 0.5
    _, grad = mse_loss(x, xhat)
    fd = fd_gradient(lambda: mse_loss(x, xhat)[0], xhat)
    assert rel_err(grad, fd) < 1e-6


def test_mse_gradient_has_the_bits_of_the_textbook_expression():
    rng = Rng(22)
    x = rng.uniform(6 * 784).reshape(6, 784)
    xhat = rng.uniform(6 * 784).reshape(6, 784)
    before = xhat.copy(), x.copy()
    loss, grad = mse_loss(x, xhat)
    diff = xhat - x
    assert loss == float(np.sum(diff * diff) / diff.size)
    assert grad.tobytes() == (2.0 * diff / diff.size).tobytes()
    assert np.array_equal(xhat, before[0]) and np.array_equal(x, before[1])


def test_cross_entropy_perfect_prediction():
    y = np.zeros((1, 10))
    y[0, 3] = 1.0
    loss, _ = cross_entropy_loss(y, y.copy())
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_is_ln10():
    y = np.zeros((4, 10))
    y[np.arange(4), [0, 3, 7, 9]] = 1.0
    probs = np.full((4, 10), 0.1)
    loss, _ = cross_entropy_loss(y, probs)
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_cross_entropy_clips_zero_probability():
    y = np.array([[1.0, 0.0]])
    probs = np.array([[0.0, 1.0]])
    loss, _ = cross_entropy_loss(y, probs)
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(1e-12))


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.zeros((2, 10)), np.zeros((3, 10)))


def test_logit_gradient_matches_finite_differences():
    rng = Rng(31)
    logits = (rng.uniform(24).reshape(4, 6) * 6 - 3)
    y = np.zeros((4, 6))
    y[np.arange(4), [0, 2, 5, 1]] = 1.0

    def f():
        return cross_entropy_loss(y, activate("softmax", logits))[0]

    _, grad = cross_entropy_loss(y, activate("softmax", logits))
    fd = fd_gradient(f, logits)
    assert rel_err(grad, fd) < 1e-6


def test_in_place_losses_have_the_bits_of_the_loss_functions():
    # enough elements that the sums run over several pairwise blocks
    rng = Rng(37)
    x = rng.uniform(300 * 70).reshape(300, 70)
    xhat = rng.uniform(300 * 70).reshape(300, 70)
    y = np.zeros((300, 70))
    y[np.arange(300), np.minimum((rng.uniform(300) * 70).astype(np.int64), 69)] = 1.0
    probs = activate("softmax", rng.uniform(300 * 70).reshape(300, 70) * 80 - 40)
    probs[0, :] = 0.0  # clipped to the floor
    probs[1, :] = y[1]  # exact 1 and 0
    kept = probs.copy()
    # the written-out cross-entropy; cross_entropy_loss leaves its input alone
    reference = float(-np.sum(y * np.log(np.clip(kept, PROB_FLOOR, 1.0))) / len(y))
    assert mse_in_place(x, xhat.copy()) == mse_loss(x, xhat)[0]
    assert cross_entropy_in_place(y, probs) == cross_entropy_loss(y, kept)[0] == reference
    assert not np.array_equal(probs, kept)  # the buffer was the workspace
    assert np.array_equal(kept[1], y[1])


def test_in_place_losses_reject_a_shape_mismatch():
    with pytest.raises(ValueError, match="mse shape"):
        mse_in_place(np.zeros((2, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="cross-entropy shape"):
        cross_entropy_in_place(np.zeros((2, 10)), np.zeros((2, 1)))
