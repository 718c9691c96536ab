"""Memory held by a loaded model, the inference passes, the training loop
and the pipeline.

numpy reports its allocations to tracemalloc, so a traced peak counts the
arrays themselves and holds on any machine. Each bound names the arrays a
pass needs; a previous batch or a second copy of the pixels alive at the
same time breaks it. Where an array must be gone by a given point (a copied
archive tensor, a layer's cache after backward, a spent epoch stack, the
splits after encode), a weak reference or the cache itself checks it exactly.
"""

import tracemalloc
import weakref

import numpy as np
from test_train import _pixels

from qhybrid.archive import load_archive
from qhybrid.config import load_config
from qhybrid.data import PixelRows, RawDataset
from qhybrid.losses import cross_entropy_loss, mse_loss
from qhybrid.network import (
    INFERENCE_BATCH,
    Autoencoder,
    Network,
    make_autoencoder,
    make_classifier,
)
from qhybrid.optim import Adam
from qhybrid.pipeline import PipelineRun, StagePaths, stage_encode
from qhybrid.rng import Rng
from qhybrid.train import evaluate, train

MIB = 2**20
ROWS = 3 * INFERENCE_BATCH + 168  # three full inference batches and a short one
BATCH_784 = INFERENCE_BATCH * 784 * 8  # one float64 batch of 784-wide rows


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_encode_holds_one_inference_batch_at_a_time():
    ae = make_autoencoder(Rng(70))
    x = PixelRows(_pixels(71, ROWS))
    first_layer = INFERENCE_BATCH * 256 * 8
    result = ROWS * 64 * 8
    slack = INFERENCE_BATCH * 64 * 8 + MIB // 2  # the second layer's output and change
    assert _traced_peak(lambda: ae.encode(x)) <= BATCH_784 + first_layer + result + slack


def test_autoencoder_evaluate_allocates_no_third_784_wide_batch():
    # the input rows and the reconstruction, in which the loss is taken
    net = make_autoencoder(Rng(72)).net
    x = PixelRows(_pixels(73, ROWS))
    assert _traced_peak(lambda: evaluate(net, x, None, mse_loss)) < 3 * BATCH_784


def test_train_drops_each_epoch_stack_before_building_the_next():
    stacks = []

    def x_train(epoch):
        alive = [i for i, ref in enumerate(stacks) if ref() is not None]
        assert not alive, f"epoch {epoch}: the stacks of epochs {alive} are alive"
        images = _pixels(74 + epoch, 40)
        stacks.append(weakref.ref(images))
        return PixelRows(images)

    ae = make_autoencoder(Rng(75), hidden=8, latent=4)
    train(ae.net, x_train, None, epochs=3, batch_size=16, adam=Adam(), rng=Rng(76),
          x_val=PixelRows(_pixels(77, 9)))
    assert len(stacks) == 3 and all(ref() is None for ref in stacks)


def test_run_holds_no_splits_after_encode(make_config, monkeypatch):
    run = PipelineRun(load_config(make_config()), log=lambda _msg: None)
    run.run_stage("train-ae")
    datasets = [weakref.ref(data) for data in run.splits().values()]
    pixels = {name: weakref.ref(data.images) for name, data in run.splits().items()}
    alive = []

    def rows(images):  # records, per split encoded, whose pixels still live
        alive.append([name for name, ref in pixels.items() if ref() is not None])
        return PixelRows(images)

    monkeypatch.setattr("qhybrid.pipeline.PixelRows", rows)
    run.run_stage("encode")
    assert all(ref() is None for ref in datasets)
    # each split's pixels are freed once its latents exist
    assert alive == [["train", "val", "test"], ["val", "test"], ["test"]]


def test_augmented_encode_holds_no_list_of_copies(make_config, tmp_path, monkeypatch):
    # two augmented copies of n rows: the stack, its latents and one
    # inference batch are alive at the peak, but no copy besides the stack
    n, copies = 3000, 2
    cfg = load_config(make_config(augment="true", augment_stage="clf",
                                  augment_copies=str(copies)))
    paths = StagePaths(tmp_path / "enc")
    paths.out_dir.mkdir()
    ae = make_autoencoder(Rng(78))
    monkeypatch.setattr(Autoencoder, "load", classmethod(lambda cls, path: ae))
    images, labels = _pixels(79, n + 20), np.arange(n + 20) % 10
    splits = {"train": RawDataset(images[:n], labels[:n]),
              "val": RawDataset(images[n:n + 10], labels[n:n + 10]),
              "test": RawDataset(images[n + 10:], labels[n + 10:])}
    stack = (1 + copies) * n * 784
    latents = (1 + copies) * n * 64 * 8
    batch = BATCH_784 + INFERENCE_BATCH * (256 + 64) * 8
    peak = _traced_peak(lambda: stage_encode(cfg, paths, splits))
    assert peak <= stack + latents + batch + n * 784 // 2
    assert dict(load_archive(paths.latents))["latents/train"].shape == ((1 + copies) * n, 64)


def test_loaded_model_holds_no_archive_tensor(tmp_path, monkeypatch):
    # checked when the network is built, while Autoencoder.load still holds
    # the archive's entries: each W and b must be gone once it is copied
    make_autoencoder(Rng(80), hidden=32, latent=8).save(tmp_path / "ae.qhm")
    tensors, alive = [], []

    def load(path):
        entries = load_archive(path)
        tensors.extend((name, weakref.ref(arr)) for name, arr in entries
                       if name.endswith(("/W", "/b")))
        return entries

    def from_entries(cls, entries):
        net = build(cls, entries)
        alive.extend(name for name, ref in tensors if ref() is not None)
        return net

    build = Network.from_entries.__func__
    monkeypatch.setattr("qhybrid.network.load_archive", load)
    monkeypatch.setattr(Network, "from_entries", classmethod(from_entries))
    Autoencoder.load(tmp_path / "ae.qhm")
    assert len(tensors) == 8 and alive == []


def test_backward_leaves_no_layer_cache():
    net = make_classifier(12, Rng(81), hidden=(10, 8), dropout=0.25)
    x = Rng(82).uniform(16 * 12).reshape(16, 12)
    y = np.eye(10)[np.arange(16) % 10]
    net.train()
    net.backward(cross_entropy_loss(y, net.forward(x, rng=Rng(83)))[1])
    cached = [(i, name) for i, layer in enumerate(net.layers)
              for name, value in vars(layer).items()
              if name.startswith("_") and value is not None]
    assert cached == []

