import numpy as np
import pytest

from qhybrid.losses import cross_entropy_loss, mse_loss
from qhybrid.network import Network, make_classifier
from qhybrid.layers import Dense
from qhybrid.optim import Adam
from qhybrid.rng import Rng
from qhybrid.train import evaluate, train


def _toy_two_class():
    x = np.array([[0.0, 0.0], [0.1, 0.2], [1.0, 1.0], [0.9, 0.8]])
    y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    return x, y


def _toy_net(seed=3):
    rng = Rng(seed)
    return Network([Dense(2, 8, "relu", rng=rng), Dense(8, 2, "softmax", rng=rng)])


def test_first_epoch_improves_on_initial_loss():
    x, y = _toy_two_class()
    net = _toy_net()
    before, _ = evaluate(net, x, y, cross_entropy_loss)
    history = train(net, x, y, epochs=1, batch_size=4, adam=Adam(alpha=0.05), rng=Rng(1))
    after, _ = evaluate(net, x, y, cross_entropy_loss)
    assert after < before
    assert len(history) == 1


def test_toy_problem_reaches_full_accuracy():
    x, y = _toy_two_class()
    net = _toy_net()
    train(net, x, y, epochs=60, batch_size=4, adam=Adam(alpha=0.05), rng=Rng(1))
    _, preds = evaluate(net, x, y, cross_entropy_loss)
    assert np.array_equal(preds, y.argmax(axis=1))


def test_zero_epochs_is_a_noop():
    x, y = _toy_two_class()
    net = _toy_net()
    before = [p.copy() for p in net.params()]
    history = train(net, x, y, epochs=0, batch_size=2, adam=Adam(), rng=Rng(1))
    assert history == []
    for p, b in zip(net.params(), before):
        assert np.array_equal(p, b)
    assert net.training is False  # final model in inference mode


def test_same_seed_bit_identical_parameters(tmp_path):
    # full stack: dropout + batchnorm + shuffling, twice with one seed
    rng_data = Rng(10)
    x = rng_data.uniform(40 * 12).reshape(40, 12)
    labels = np.minimum((rng_data.uniform(40) * 4).astype(np.int64), 3)
    y = np.zeros((40, 4))
    y[np.arange(40), labels] = 1.0

    paths = []
    for run in range(2):
        net = make_classifier(12, Rng(99), hidden=(16, 8), n_classes=4, dropout=0.2)
        train(net, x, y, epochs=3, batch_size=8, adam=Adam(), rng=Rng(5))
        path = tmp_path / f"run{run}.qhm"
        net.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seed_changes_parameters(tmp_path):
    x = Rng(10).uniform(20 * 6).reshape(20, 6)
    nets = []
    for seed in (1, 2):
        net = Network([Dense(6, 6, "sigmoid", rng=Rng(50))])
        train(net, x, None, epochs=2, batch_size=5, adam=Adam(), rng=Rng(seed))
        nets.append(net.layers[0].W.copy())
    assert not np.array_equal(nets[0], nets[1])


def test_autoencoder_mode_targets_inputs():
    x = Rng(20).uniform(30 * 8).reshape(30, 8)
    rng = Rng(21)
    net = Network([Dense(8, 4, "relu", rng=rng), Dense(4, 8, "sigmoid", rng=rng)])
    before, _ = evaluate(net, x, x, mse_loss)
    history = train(net, x, None, epochs=25, batch_size=10, adam=Adam(alpha=0.01), rng=Rng(2))
    after, _ = evaluate(net, x, x, mse_loss)
    assert after < before
    assert history[-1].train_loss < history[0].train_loss
    assert history[-1].val_loss is None
    assert history[-1].train_acc is None


def test_validation_metrics_recorded():
    x, y = _toy_two_class()
    net = _toy_net()
    history = train(net, x, y, epochs=2, batch_size=2, adam=Adam(), rng=Rng(1),
                    x_val=x, y_val=y)
    for rec in history:
        assert rec.val_loss is not None
        assert 0.0 <= rec.val_acc <= 1.0
        assert 0.0 <= rec.train_acc <= 1.0


def test_empty_dataset_rejected():
    net = _toy_net()
    with pytest.raises(ValueError, match="empty"):
        train(net, np.zeros((0, 2)), np.zeros((0, 2)), epochs=1, batch_size=2,
              adam=Adam(), rng=Rng(0))


def test_epoch_features_hook_drives_training_inputs():
    # the hook swaps in a fixed alternative feature matrix; the run must
    # behave exactly like training on that matrix directly
    x = Rng(30).uniform(16 * 4).reshape(16, 4)
    x_alt = Rng(31).uniform(16 * 4).reshape(16, 4)

    net_hook = Network([Dense(4, 4, "sigmoid", rng=Rng(7))])
    train(net_hook, x, None, epochs=2, batch_size=4, adam=Adam(), rng=Rng(3),
          epoch_features=lambda epoch: x_alt)

    net_direct = Network([Dense(4, 4, "sigmoid", rng=Rng(7))])
    train(net_direct, x_alt, None, epochs=2, batch_size=4, adam=Adam(), rng=Rng(3))

    assert np.array_equal(net_hook.layers[0].W, net_direct.layers[0].W)


def test_lr_step_changes_trajectory():
    x = Rng(40).uniform(24 * 5).reshape(24, 5)
    runs = []
    for lr_step in (0, 1):
        net = Network([Dense(5, 5, "sigmoid", rng=Rng(8))])
        train(net, x, None, epochs=4, batch_size=6, adam=Adam(), rng=Rng(4),
              lr_step=lr_step, lr_factor=0.5)
        runs.append(net.layers[0].W.copy())
    assert not np.array_equal(runs[0], runs[1])


def test_non_finite_loss_raises():
    net = Network([Dense(2, 2, "linear", rng=Rng(0))])
    x = np.array([[1e200, 1e200], [1e200, 1e200]])
    with np.errstate(over="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            train(net, x, None, epochs=5, batch_size=2, adam=Adam(alpha=1e150), rng=Rng(0))
