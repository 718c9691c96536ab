import numpy as np
import pytest

from qhybrid.archive import load_archive
from qhybrid.layers import BatchNorm, Dense, Dropout
from qhybrid.losses import cross_entropy_loss, mse_loss
from qhybrid.network import (
    INFERENCE_BATCH,
    Autoencoder,
    Network,
    make_autoencoder,
    make_classifier,
)
from qhybrid.rng import Rng

from test_layers import fd_gradient, rel_err


def test_width_chain_validated():
    rng = Rng(0)
    with pytest.raises(ValueError, match="width"):
        Network([Dense(4, 8, rng=rng), Dense(9, 2, rng=rng)])


def test_single_linear_layer_mse_closed_form():
    rng = Rng(5)
    layer = Dense(3, 2, "linear", rng=rng)
    net = Network([layer])
    x = rng.uniform(4 * 3).reshape(4, 3)
    target = rng.uniform(4 * 2).reshape(4, 2)
    net.train()
    out = net.forward(x)
    loss, grad = mse_loss(target, out)
    net.backward(grad)
    n = target.size
    expected_gw = (2.0 / n) * (out - target).T @ x
    assert np.allclose(layer.grad_W, expected_gw, atol=1e-15)


def test_zero_loss_gradient_gives_zero_parameter_gradients():
    rng = Rng(6)
    net = Network([Dense(4, 3, "relu", rng=rng), Dense(3, 2, "linear", rng=rng)])
    net.train()
    net.forward(rng.uniform(8).reshape(2, 4))
    net.backward(np.zeros((2, 2)))
    for g in net.grads():
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_without_forward_is_state_error():
    net = Network([Dense(2, 2, rng=Rng(0))])
    with pytest.raises(RuntimeError, match="forward"):
        net.backward(np.ones((1, 2)))
    net.train()
    net.forward(np.ones((1, 2)))
    net.backward(np.ones((1, 2)))
    with pytest.raises(RuntimeError, match="forward"):
        net.backward(np.ones((1, 2)))  # cache consumed


def test_inference_forward_does_not_arm_backward():
    net = Network([Dense(2, 2, rng=Rng(0))])
    net.eval()
    net.forward(np.ones((1, 2)))
    with pytest.raises(RuntimeError):
        net.backward(np.ones((1, 2)))


def _composite_net(rng):
    return Network([
        Dense(6, 8, "relu", rng=rng),
        BatchNorm(8),
        Dropout(0.3),
        Dense(8, 5, "relu", rng=rng),
        Dense(5, 4, "softmax", rng=rng),
    ])


def test_composite_network_gradients_match_finite_differences():
    # fresh Rng(77) per forward replays identical dropout masks
    rng = Rng(1234)
    net = _composite_net(rng)
    x = rng.uniform(5 * 6).reshape(5, 6) * 2 - 1
    y = np.zeros((5, 4))
    y[np.arange(5), [0, 1, 2, 3, 1]] = 1.0

    def f():
        net.train()
        out = net.forward(x, rng=Rng(77))
        return cross_entropy_loss(y, out)[0]

    net.train()
    out = net.forward(x, rng=Rng(77))
    _, grad = cross_entropy_loss(y, out)
    net.backward(grad)
    analytic = [g.copy() for g in net.grads()]
    for param, got in zip(net.params(), analytic):
        assert rel_err(got, fd_gradient(f, param)) < 1e-4


def test_save_load_round_trip_preserves_behavior(tmp_path):
    rng = Rng(9)
    net = _composite_net(rng)
    # push data through so batch-norm running stats are non-trivial
    net.train()
    net.forward(rng.uniform(16 * 6).reshape(16, 6), rng=rng)
    net.eval()
    x = rng.uniform(3 * 6).reshape(3, 6)
    before = net.forward(x)
    path = tmp_path / "net.qhm"
    net.save(path)
    restored = Network.from_entries(dict(load_archive(path)))
    assert np.array_equal(restored.forward(x), before)
    drop = restored.layers[2]
    assert isinstance(drop, Dropout) and drop.p == 0.3


def test_autoencoder_builder_shapes():
    ae = make_autoencoder(Rng(4))
    x = Rng(1).uniform(2 * 784).reshape(2, 784)
    latent = ae.encode(x)
    assert latent.shape == (2, 64)
    recon = ae.reconstruct(x)
    assert recon.shape == (2, 784)
    assert recon.min() >= 0.0 and recon.max() <= 1.0  # sigmoid output


def test_autoencoder_encode_is_prefix_of_full_forward():
    ae = make_autoencoder(Rng(4), input_width=12, hidden=8, latent=3)
    x = Rng(2).uniform(5 * 12).reshape(5, 12)
    latent = ae.encode(x)
    manual = x
    for layer in ae.net.layers[:2]:
        manual = layer.forward(manual)
    assert np.array_equal(latent, manual)


def test_batched_inference_matches_one_unbatched_pass():
    # two full batches and a short one, through the whole classifier stack
    net = make_classifier(12, Rng(5), hidden=(16, 8), n_classes=4, dropout=0.3).eval()
    x = Rng(6).uniform((2 * INFERENCE_BATCH + 5) * 12).reshape(-1, 12)
    starts = [start for start, _, _ in net.batches(x)]
    assert starts == [0, INFERENCE_BATCH, 2 * INFERENCE_BATCH]
    assert np.array_equal(net.predict(x), net.forward(x))
    assert np.array_equal(net.predict(x, 2), net.layers[1].forward(net.layers[0].forward(x)))


def test_inference_leaves_training_mode_alone():
    net = make_classifier(4, Rng(5), hidden=(8,), n_classes=2, dropout=0.5).train()
    x = Rng(6).uniform(10 * 4).reshape(10, 4)
    out = net.predict(x)
    assert net.training
    assert np.array_equal(out, net.eval().forward(x))  # Dropout is off in predict


def test_encode_of_zero_rows_is_empty_latent():
    ae = make_autoencoder(Rng(4))
    assert ae.encode(np.zeros((0, 784))).shape == (0, 64)
    assert ae.reconstruct(np.zeros((0, 784))).shape == (0, 784)


def test_autoencoder_save_load(tmp_path):
    ae = make_autoencoder(Rng(4), input_width=12, hidden=8, latent=3)
    x = Rng(2).uniform(4 * 12).reshape(4, 12)
    path = tmp_path / "ae.qhm"
    ae.save(path)
    back = Autoencoder.load(path)
    assert back.latent_layers == 2
    assert np.array_equal(back.encode(x), ae.encode(x))
    assert np.array_equal(back.reconstruct(x), ae.reconstruct(x))


def test_classifier_builder_structure():
    net = make_classifier(65, Rng(0), hidden=(128, 64, 32), dropout=0.3)
    kinds = [type(l).__name__ for l in net.layers]
    assert kinds == [
        "Dense", "BatchNorm", "Dropout",
        "Dense", "BatchNorm", "Dropout",
        "Dense", "BatchNorm", "Dropout",
        "Dense",
    ]
    assert net.layers[-1].activation == "softmax"
    out = net.forward(Rng(1).uniform(3 * 65).reshape(3, 65))
    assert out.shape == (3, 10)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


def _assert_packed(net):
    dense = [layer for layer in net.layers if isinstance(layer, Dense)]
    assert net.param_vector.size == sum(l.W.size + l.b.size for l in dense)
    for layer in dense:
        for arr in (layer.W, layer.b):
            assert np.shares_memory(arr, net.param_vector)
        for arr in (layer.grad_W, layer.grad_b):
            assert np.shares_memory(arr, net.grad_vector)
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params()]), net.param_vector)


def test_parameters_are_views_into_flat_vectors(tmp_path):
    net = _composite_net(Rng(12))
    _assert_packed(net)
    net.param_vector[0] = 5.0
    assert net.layers[0].W[0, 0] == 5.0
    _assert_packed(Network.from_entries(dict(net.archive_entries())))
    net.save(tmp_path / "net.qhm")
    restored = Network.from_entries(dict(load_archive(tmp_path / "net.qhm")))
    _assert_packed(restored)
    assert np.array_equal(restored.param_vector, net.param_vector)


def test_backward_fills_the_flat_gradient_vector():
    rng = Rng(13)
    net = _composite_net(rng)
    net.train()
    out = net.forward(rng.uniform(4 * 6).reshape(4, 6), rng=Rng(3))
    net.backward(cross_entropy_loss(np.eye(4), out)[1])
    assert np.array_equal(np.concatenate([g.ravel() for g in net.grads()]), net.grad_vector)


def test_backward_skips_only_the_first_layers_input_gradient():
    x = Rng(30).uniform(8 * 6).reshape(8, 6)
    nets = [make_classifier(6, Rng(31), hidden=(5, 4), n_classes=3, dropout=0.0).train()
            for _ in range(2)]
    flags = []
    for i, layer in enumerate(nets[0].layers):
        def spy(grad, *, input_grad=True, _backward=layer.backward, _i=i):
            flags.append((_i, input_grad))
            return _backward(grad, input_grad=input_grad)
        layer.backward = spy
    for net in nets:
        grad = cross_entropy_loss(np.eye(3)[np.arange(8) % 3], net.forward(x))[1]
    nets[0].backward(grad)
    for layer in reversed(nets[1].layers):  # every input gradient, the old way
        grad = layer.backward(grad)
    n = len(nets[0].layers)
    assert flags == [(i, i > 0) for i in reversed(range(n))]
    assert nets[0].grad_vector.tobytes() == nets[1].grad_vector.tobytes()
