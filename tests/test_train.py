import hashlib

import numpy as np
import pytest

from qhybrid.data import PixelRows, normalize_and_flatten
from qhybrid.losses import cross_entropy_loss, mse_loss
from qhybrid.network import INFERENCE_BATCH, Network, make_autoencoder, make_classifier
from qhybrid.layers import Dense, Dropout
from qhybrid.optim import Adam
from qhybrid.pipeline import blas_core
from qhybrid.rng import Rng
from qhybrid.train import MASK_CHUNK, evaluate, train


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


def test_callable_x_drives_training_inputs():
    # x given as a function of the epoch returns a fixed feature matrix; the
    # run must behave exactly like training on that matrix directly
    x_alt = Rng(31).uniform(16 * 4).reshape(16, 4)
    epochs_asked = []

    def features(epoch):
        epochs_asked.append(epoch)
        return x_alt

    net_fn = Network([Dense(4, 4, "sigmoid", rng=Rng(7))])
    train(net_fn, features, None, epochs=2, batch_size=4, adam=Adam(), rng=Rng(3))

    net_direct = Network([Dense(4, 4, "sigmoid", rng=Rng(7))])
    train(net_direct, x_alt, None, epochs=2, batch_size=4, adam=Adam(), rng=Rng(3))

    assert epochs_asked == [0, 1]
    assert np.array_equal(net_fn.layers[0].W, net_direct.layers[0].W)


def test_callable_x_returning_no_rows_rejected():
    net = _toy_net()
    with pytest.raises(ValueError, match="empty"):
        train(net, lambda epoch: np.zeros((0, 2)), np.zeros((0, 2)), epochs=1,
              batch_size=2, adam=Adam(), rng=Rng(0))


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


def _one_hot(rng, n, k):
    labels = np.minimum((rng.uniform(n) * k).astype(np.int64), k - 1)
    y = np.zeros((n, k))
    y[np.arange(n), labels] = 1.0
    return y


def _check_digests(net, rng, params_by_core, rng_state):
    h = hashlib.sha256()
    for name, arr in net.archive_entries():
        h.update(name.encode())
        h.update(arr.tobytes())
    core, params = blas_core(), h.hexdigest()
    assert core in params_by_core, f"no parameter digest recorded for BLAS core {core}: {params}"
    assert params == params_by_core[core], f"BLAS core {core}"
    assert hashlib.sha256(rng._state.tobytes()).hexdigest() == rng_state


# Digests of the trained parameters and the final loop-rng state, recorded
# with per-tensor Adam and one uniform call per Dropout mask from the loop
# rng's child split("dropout"); the flat parameter vector, blocked Adam and
# chunked mask draws must reproduce them, and
# test_chunked_masks_match_one_call_per_mask checks the last against the
# plain form on any core. The loop rng itself gives only the shuffles.
# Parameter bits depend on OpenBLAS's kernel (Dense's matmuls round
# differently under AVX-512 and AVX2), so each core keeps one digest of its
# own: SkylakeX on AVX-512 hosts, Haswell on AVX2-only ones (OpenBLAS also
# runs its Haswell kernels for Zen). The rng state does not depend on BLAS.

def _short_last_batch_run():
    data = Rng(60)
    x = data.uniform(45 * 12).reshape(45, 12)
    y = _one_hot(data, 45, 4)  # 45 rows at batch 8: the last batch has 5
    net = make_classifier(12, Rng(61), hidden=(16, 8), n_classes=4, dropout=0.3)
    rng = Rng(62)
    train(net, x, y, epochs=2, batch_size=8, adam=Adam(alpha=0.01), rng=rng)
    return net, rng


def _masks_cross_chunk_run():
    # 180 mask draws per row, 11 520 per batch of 64: the first chunk ends
    # 4 352 draws into batch 12, inside its 6 400-draw first mask, and the
    # second chunk spans the epoch boundary at 144 000 draws
    assert 11 * 64 * 180 < MASK_CHUNK < 11 * 64 * 180 + 64 * 100 < 800 * 180
    data = Rng(70)
    x = data.uniform(800 * 8).reshape(800, 8)
    y = _one_hot(data, 800, 10)
    net = make_classifier(8, Rng(71), hidden=(100, 50, 30), dropout=0.3)
    rng = Rng(72)
    train(net, x, y, epochs=2, batch_size=64, adam=Adam(), rng=rng, lr_step=1)
    return net, rng


def test_pinned_digests_classifier_short_last_batch():
    _check_digests(*_short_last_batch_run(), {
        "SkylakeX": "c61401bafdcb782b2d1f8250b6ae9e5c3bcf379f6a27bfb91f25e7a9775aa799",
        "Haswell": "24c49d34a97dbf011c9b090188920de10967e39f3572f116d1d687a724fd36f3",
    }, "c69c3465c095292af06b7fa0c8cc2f7e7e45df07602ac48f36b9fe158bb39c86")


def test_pinned_digests_classifier_masks_cross_chunk():
    _check_digests(*_masks_cross_chunk_run(), {
        "SkylakeX": "e4577ced7bc5f88b40eb369bf05598cb28b4e13e5a8f9f6a6a5a9a912b740d5c",
        "Haswell": "046c7e78f3dcacf1d13a38f61d3b5937febeddd3b199838051a0814ca6a9a8e1",
    }, "1ccd06e46660d21b756b76463255b799b10fbe585b31dacb7139239cd05021a7")


@pytest.mark.parametrize("run", [_short_last_batch_run, _masks_cross_chunk_run])
def test_chunked_masks_match_one_call_per_mask(run, monkeypatch):
    # the reference draws each mask with its own uniform call on split("dropout")
    runs = [run()]
    monkeypatch.setattr("qhybrid.train._MaskDraws", lambda rng: rng)
    runs.append(run())
    chunked, plain = ((b"".join(arr.tobytes() for _, arr in net.archive_entries()),
                       rng._state.tobytes()) for net, rng in runs)
    assert chunked == plain


def test_pinned_digests_autoencoder():
    # 30 068 parameters: more than one Adam block, and not a whole number of them
    x = Rng(80).uniform(70 * 100).reshape(70, 100)
    ae = make_autoencoder(Rng(81), input_width=100, hidden=128, latent=16)
    rng = Rng(82)
    train(ae.net, x, None, epochs=2, batch_size=16, adam=Adam(alpha=0.005), rng=rng)
    _check_digests(ae.net, rng, {
        "SkylakeX": "1201e74a5f0527669274aa49489636b4314fc24b01328baf8f8417dd468d953d",
        "Haswell": "d25ff446a7a88abeeff43eed44bef8e568174d9d9ddd762ed9defb6cdca8ffbd",
    }, "c5375697369dd10cbb90ad3e4445ec4f4ecbea7409c3a82d00102e56930fe2aa")


def _pixels(seed, n):
    return (Rng(seed).uniform(n * 784) * 256).astype(np.uint8).reshape(n, 28, 28)


@pytest.mark.parametrize("per_epoch", [False, True])
def test_autoencoder_on_pixel_rows_matches_the_normalised_array(per_epoch):
    # 45 rows at batch 16 leave a short last batch; per_epoch passes x as a function
    images, val_images = _pixels(90, 45), _pixels(91, 7)
    runs = []
    for x, x_val in ((PixelRows(images), PixelRows(val_images)),
                     (normalize_and_flatten(images), normalize_and_flatten(val_images))):
        ae = make_autoencoder(Rng(92), hidden=24, latent=6)
        rng = Rng(93)
        history = train(ae.net, (lambda epoch, x=x: x) if per_epoch else x, None, epochs=2,
                        batch_size=16, adam=Adam(alpha=0.005), rng=rng, x_val=x_val)
        params = b"".join(arr.tobytes() for _, arr in ae.net.archive_entries())
        runs.append((params, rng._state.tobytes(), history))
    assert runs[0] == runs[1]


def test_autoencoder_mode_gathers_each_batch_once():
    gathers = {"train": 0, "val": 0}

    class CountedRows(PixelRows):
        def __init__(self, images, split):
            super().__init__(images)
            self.split = split

        def __getitem__(self, idx):
            gathers[self.split] += 1
            return super().__getitem__(idx)

    ae = make_autoencoder(Rng(94), hidden=8, latent=4)
    train(ae.net, CountedRows(_pixels(95, 40), "train"), None, epochs=3, batch_size=16,
          adam=Adam(), rng=Rng(96), x_val=CountedRows(_pixels(97, INFERENCE_BATCH + 1), "val"))
    assert gathers == {"train": 3 * 3, "val": 3 * 2}


@pytest.mark.parametrize("classify", [False, True])
def test_evaluate_has_the_bits_of_the_loss_functions(monkeypatch, classify):
    # 40 rows in batches of 16: the loss is taken in each output's buffer
    monkeypatch.setattr("qhybrid.network.INFERENCE_BATCH", 16)
    x = Rng(60).uniform(40 * 12).reshape(40, 12)
    if classify:
        net = make_classifier(12, Rng(61), hidden=(9, 7), n_classes=5, dropout=0.3)
        train(net, x, np.eye(5)[np.arange(40) % 5], epochs=1, batch_size=8, adam=Adam(),
              rng=Rng(62))
        y, loss_fn = np.eye(5)[np.arange(40) % 3], cross_entropy_loss
    else:
        net, y, loss_fn = make_autoencoder(Rng(63), 12, hidden=9, latent=4).net, None, mse_loss
    kept = x.copy()
    loss, preds = evaluate(net, x, y, loss_fn)
    total, argmax = 0.0, []
    for start in range(0, 40, 16):
        out = net.forward(x[start : start + 16])
        target = x[start : start + 16] if y is None else y[start : start + 16]
        total += loss_fn(target, out)[0] * len(out)
        argmax.append(out.argmax(axis=1))
    assert loss == total / 40
    assert np.array_equal(preds, np.concatenate(argmax))
    assert np.array_equal(x, kept)


def test_pass_through_network_never_writes_its_input():
    # Dropout in inference mode returns its input, so the output is a view of x
    net = Network([Dropout(0.5)])
    x = Rng(64).uniform(20 * 3).reshape(20, 3)
    y = np.eye(3)[np.arange(20) % 3]
    kept = x.copy()
    assert np.array_equal(net.predict(x, stop=0), kept)
    assert np.array_equal(net.predict(x), kept)
    assert evaluate(net, x, None, mse_loss)[0] == 0.0
    assert evaluate(net, x, y, cross_entropy_loss)[0] == cross_entropy_loss(y, kept)[0] * 20 / 20
    assert np.array_equal(x, kept)
