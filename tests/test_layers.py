import numpy as np
import pytest

from qhybrid.layers import ACTIVATIONS, BatchNorm, Dense, Dropout, activate
from qhybrid.losses import mse_loss
from qhybrid.rng import Rng


def fd_gradient(f, arr, step=1e-5):
    """Central finite differences of the scalar f() wrt arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


def test_relu_fixture():
    layer = Dense(3, 3, "relu")
    layer.W = np.eye(3)
    out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
    assert out.tolist() == [[0.0, 0.0, 2.0]]


def test_identity_weights_linear_passthrough():
    layer = Dense(4, 4, "linear")
    layer.W = np.eye(4)
    x = np.random.default_rng(0).random((3, 4))
    assert np.array_equal(layer.forward(x), x)


def test_sigmoid_at_zero():
    layer = Dense(1, 1, "sigmoid")
    out = layer.forward(np.array([[0.0]]))
    assert out[0, 0] == 0.5


def _textbook(activation, z):
    """The activations as plain expressions, each on a fresh array."""
    if activation == "relu":
        return np.maximum(0.0, z)
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if activation == "softmax":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return z


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_inference_forward_has_the_bits_of_training_forward(activation):
    # identity weights put extreme pre-activations in place: +-700 (exp stays
    # finite), exact zeros of both signs, and a row whose maximum is tied
    identity = Dense(4, 4, activation)
    identity.W[...] = np.eye(4)
    extreme = np.array([[700.0, -700.0, 0.0, -0.0],
                        [0.0, 0.0, 0.0, 0.0],
                        [2.5, 2.5, -1.0, 2.5],
                        [-700.0, 700.0, 700.0, -699.5]])
    rng = Rng(41)
    spread = Dense(6, 5, activation, rng=rng)
    spread.b[...] = rng.uniform(5) * 4.0 - 2.0
    for layer, x in ((identity, extreme), (spread, rng.uniform(8 * 6).reshape(8, 6) * 200 - 100)):
        kept = x.copy()
        reference = _textbook(activation, x @ layer.W.T + layer.b)
        trained = layer.forward(x, training=True)
        inferred = layer.forward(x, training=False)
        assert inferred is not x and np.array_equal(x, kept)
        assert trained.tobytes() == reference.tobytes()
        assert inferred.tobytes() == reference.tobytes()


def test_dense_width_mismatch():
    layer = Dense(4, 2, rng=Rng(0))
    with pytest.raises(ValueError, match="width"):
        layer.forward(np.zeros((1, 5)))


def test_softmax_symmetry():
    assert activate("softmax", np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]


def test_softmax_huge_logits_no_overflow():
    out = activate("softmax", np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_inverts_log():
    out = activate("softmax", np.log(np.array([[1.0, 2.0, 3.0]])))
    assert np.allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = Rng(8)
    z = rng.uniform(40).reshape(5, 8) * 20 - 10
    p = activate("softmax", z)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
    shifted = activate("softmax", z + 3.7)
    assert np.max(np.abs(p - shifted)) < 1e-12


def test_softmax_argmax_matches_logits_under_scaling():
    rng = Rng(9)
    z = rng.uniform(60).reshape(6, 10) * 8 - 4
    for scale in (1.0, 0.5, 7.0):
        assert np.array_equal(activate("softmax", z * scale).argmax(axis=1), z.argmax(axis=1))


def test_batchnorm_constant_column_maps_to_zero():
    bn = BatchNorm(1)
    out = bn.forward(np.array([[5.0], [5.0], [5.0]]), training=True)
    assert np.max(np.abs(out)) < 1e-6


def test_batchnorm_two_point_column():
    bn = BatchNorm(1, eps=1e-5)
    out = bn.forward(np.array([[0.0], [2.0]]), training=True)
    expected = 1.0 / np.sqrt(1.0 + 1e-5)  # mean 1, population var 1
    assert out[0, 0] == pytest.approx(-expected, abs=1e-15)
    assert out[1, 0] == pytest.approx(expected, abs=1e-15)


def test_batchnorm_running_stats_match_hand_tracked_ema():
    bn = BatchNorm(1, momentum=0.9)
    batches = [np.array([[0.0], [2.0]]), np.array([[4.0], [8.0]]), np.array([[1.0], [1.0]])]
    mean, var = 0.0, 1.0
    for b in batches:
        bn.forward(b, training=True)
        mean = 0.9 * mean + 0.1 * b.mean()
        var = 0.9 * var + 0.1 * b.var()
    assert bn.running_mean[0] == pytest.approx(mean, rel=1e-12)
    assert bn.running_var[0] == pytest.approx(var, rel=1e-12)
    # inference is the fixed affine map defined by those stats
    x = np.array([[3.0]])
    expected = (3.0 - mean) / np.sqrt(var + 1e-5)
    assert bn.forward(x)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_batchnorm_one_row_batch_trains_to_zeros():
    bn = BatchNorm(2)
    h = np.array([[3.5, -1e6]])
    out = bn.forward(h, training=True)
    assert np.all(np.isfinite(out)) and np.array_equal(out, np.zeros((1, 2)))
    grad = bn.backward(np.array([[2.0, -7.0]]))
    assert np.all(np.isfinite(grad)) and np.array_equal(grad, np.zeros((1, 2)))
    # the row is its own mean, and its variance is zero
    assert np.array_equal(bn.running_mean, (1 - bn.momentum) * h[0])
    assert np.array_equal(bn.running_var, np.full(2, bn.momentum))


def test_batchnorm_inference_is_repeatable():
    bn = BatchNorm(3)
    bn.forward(np.random.default_rng(0).random((8, 3)) * 4, training=True)
    x = np.random.default_rng(1).random((5, 3))
    assert np.array_equal(bn.forward(x), bn.forward(x))


def test_dropout_p0_is_identity_both_modes():
    layer = Dropout(0.0)
    x = np.random.default_rng(0).random((4, 3))
    assert np.array_equal(layer.forward(x, training=True, rng=Rng(0)), x)
    assert np.array_equal(layer.forward(x), x)


def test_dropout_inference_identity_any_p():
    layer = Dropout(0.7)
    x = np.random.default_rng(0).random((4, 3))
    assert layer.forward(x) is x


def test_dropout_expectation_monte_carlo():
    # E[h * mask / (1-p)] = h; 1e5 independent mask rows per element
    layer = Dropout(0.5)
    h = np.tile(np.array([[1.0, 2.0, 3.0]]), (100_000, 1))
    out = layer.forward(h, training=True, rng=Rng(42))
    means = out.mean(axis=0)
    sigma = np.array([1.0, 2.0, 3.0]) / np.sqrt(100_000)  # std of h*mask/(1-p) is h
    assert np.all(np.abs(means - [1.0, 2.0, 3.0]) < 3 * sigma)


def test_dropout_requires_rng_in_training():
    with pytest.raises(ValueError, match="rng"):
        Dropout(0.5).forward(np.ones((2, 2)), training=True)


def test_dropout_probability_range():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


def _check_dense_gradients(activation, seed):
    rng = Rng(seed)
    batch, n_in, n_out = 4, 6, 5
    layer = Dense(n_in, n_out, activation, rng=rng)
    x = rng.uniform(batch * n_in).reshape(batch, n_in) * 2 - 1
    target = rng.uniform(batch * n_out).reshape(batch, n_out)
    if activation == "relu":
        # keep pre-activations off the kink so finite differences are valid
        z = x @ layer.W.T + layer.b
        layer.b += np.where(np.abs(z).min(axis=0) < 1e-3, 0.01, 0.0)

    def f():
        out = layer.forward(x, training=True)
        loss, _ = mse_loss(target, out)
        return loss

    out = layer.forward(x, training=True)
    _, grad = mse_loss(target, out)
    gx = layer.backward(grad)
    assert rel_err(layer.grad_W, fd_gradient(f, layer.W)) < 1e-4
    assert rel_err(layer.grad_b, fd_gradient(f, layer.b)) < 1e-4
    assert rel_err(gx, fd_gradient(f, x)) < 1e-4


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid"])
def test_dense_gradients_match_finite_differences(activation):
    for seed in range(3):
        _check_dense_gradients(activation, 100 + seed)


def test_batchnorm_gradient_matches_finite_differences():
    rng = Rng(7)
    bn = BatchNorm(4)
    x = rng.uniform(6 * 4).reshape(6, 4) * 3 - 1
    target = rng.uniform(6 * 4).reshape(6, 4)

    def f():
        out = bn.forward(x, training=True)
        loss, _ = mse_loss(target, out)
        return loss

    out = bn.forward(x, training=True)
    _, grad = mse_loss(target, out)
    gx = bn.backward(grad)
    assert rel_err(gx, fd_gradient(f, x)) < 1e-4


def test_dropout_gradient_matches_finite_differences():
    # a fresh Rng(3) per evaluation replays the identical mask
    drop = Dropout(0.4)
    base = Rng(11)
    x = base.uniform(5 * 6).reshape(5, 6) * 2 - 1
    target = base.uniform(5 * 6).reshape(5, 6)

    def f():
        out = drop.forward(x, training=True, rng=Rng(3))
        loss, _ = mse_loss(target, out)
        return loss

    out = drop.forward(x, training=True, rng=Rng(3))
    _, grad = mse_loss(target, out)
    gx = drop.backward(grad)
    assert rel_err(gx, fd_gradient(f, x)) < 1e-4


def test_backward_without_forward_raises():
    for layer in (Dense(2, 2, rng=Rng(0)), BatchNorm(2), Dropout(0.5)):
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid", "softmax"])
def test_dense_backward_in_place_matches_allocating_form(activation):
    rng = Rng(321)
    layer = Dense(37, 19, activation, rng=rng)
    x = rng.uniform(13 * 37).reshape(13, 37) * 2 - 1
    grad = rng.uniform(13 * 19).reshape(13, 19) - 0.5
    out = layer.forward(x, training=True)
    if activation == "relu":
        gz = grad * (layer._z > 0)
    elif activation == "sigmoid":
        gz = grad * out * (1.0 - out)
    else:
        gz = grad
    grad_W, grad_b = layer.grad_W, layer.grad_b
    gx = layer.backward(grad)
    assert layer.grad_W is grad_W and layer.grad_b is grad_b  # written in place
    assert layer.grad_W.tobytes() == (gz.T @ x).tobytes()
    assert layer.grad_b.tobytes() == gz.sum(axis=0).tobytes()
    assert gx.tobytes() == (gz @ layer.W).tobytes()


def test_backward_without_input_gradient_writes_the_same_parameter_gradients():
    rng = Rng(322)
    x = rng.uniform(11 * 9).reshape(11, 9) - 0.5
    grad = rng.uniform(11 * 6).reshape(11, 6) - 0.5
    layers = [Dense(9, 6, "relu", rng=Rng(323)), Dense(9, 6, "relu", rng=Rng(323))]
    for layer in layers:
        layer.forward(x, training=True)
    full = layers[0].backward(grad)
    gz = layers[1].backward(grad, input_grad=False)
    assert full.shape == x.shape and gz.tobytes() == (grad * (layers[1]._z > 0)).tobytes()
    assert layers[0].grad_W.tobytes() == layers[1].grad_W.tobytes()
    assert layers[0].grad_b.tobytes() == layers[1].grad_b.tobytes()
    bn, drop = BatchNorm(6), Dropout(0.5)
    bn.forward(grad, training=True)
    drop.forward(grad, training=True, rng=Rng(4))
    assert bn.backward(grad, input_grad=False) is grad
    assert drop.backward(grad, input_grad=False) is grad
