"""Layer stacks, model builders, and archive persistence."""

from __future__ import annotations

import numpy as np

from .archive import ArchiveError, load_archive, save_archive
from .layers import ACTIVATIONS, BatchNorm, Dense, Dropout
from .rng import Rng

_KIND_DENSE = 0.0
_KIND_BATCHNORM = 1.0
_KIND_DROPOUT = 2.0
INFERENCE_BATCH = 1024  # rows per batch of an inference pass


class Network:
    """An ordered layer stack with a training/inference mode switch.

    Each layer's ``W``/``b`` is copied into one flat ``param_vector`` and
    rebound as a view of it, in ``params()`` order; ``grad_W``/``grad_b``
    become views of one ``grad_vector`` of zeros that nothing copies into,
    so a model that never trains never touches its gradient pages.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        self.training = False
        width = None
        for i, layer in enumerate(self.layers):
            if layer.in_width is not None:
                if width is not None and layer.in_width != width:
                    raise ValueError(
                        f"layer {i} expects width {layer.in_width} but receives {width}"
                    )
                width = layer.out_width
        size = sum(arr.size for arr in self.params())
        self.param_vector, self.grad_vector = np.empty(size), np.zeros(size)
        offset = 0
        for layer in self.layers:
            for name, arr in layer.params():
                span = slice(offset, offset + arr.size)
                view = self.param_vector[span].reshape(arr.shape)
                view[...] = arr
                setattr(layer, name, view)
                setattr(layer, f"grad_{name}", self.grad_vector[span].reshape(arr.shape))
                offset += arr.size

    def train(self) -> "Network":
        self.training = True
        return self

    def eval(self) -> "Network":
        self.training = False
        for layer in self.layers:
            layer.clear_cache()
        return self

    def forward(self, x: np.ndarray, rng: Rng | None = None) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=self.training, rng=rng)
        return out

    def batches(self, x, stop: int | None = None):
        """Yield (start, input rows, inference-mode output of layers[:stop])
        per INFERENCE_BATCH rows; x is an array or a ``data.PixelRows`` view.

        The output is a fresh array the consumer may overwrite, unless no
        layer before ``stop`` computes one (Dropout alone passes its input
        through), when it is the input rows themselves. The generator drops
        its references to a batch before it builds the next, so a consumer
        that drops its own (``del rows, out``) holds one batch at a time."""
        for start in range(0, len(x), INFERENCE_BATCH):
            out = rows = x[start : start + INFERENCE_BATCH]
            for layer in self.layers[:stop]:
                out = layer.forward(out, training=False)
            yield start, rows, out
            del rows, out

    def predict(self, x, stop: int | None = None) -> np.ndarray:
        """The output of ``layers[:stop]`` for every row of x, in inference mode."""
        widths = [layer.out_width for layer in self.layers[:stop] if layer.out_width]
        out = np.empty((len(x), widths[-1] if widths else x.shape[1]))
        for start, rows, batch in self.batches(x, stop):
            out[start : start + len(batch)] = batch
            del rows, batch
        return out

    def backward(self, loss_grad: np.ndarray) -> None:
        """Propagate dL/d(output) back through every layer, filling grads.
        Nothing reads the gradient with respect to the network's input, so
        the first layer does not compute it. Each layer's cache is cleared
        once its backward has run, so the cached activations are freed while
        the rest of the pass runs, not when the next forward replaces them.
        A layer with no cached training forward raises RuntimeError."""
        grad = loss_grad
        for i in reversed(range(len(self.layers))):
            grad = self.layers[i].backward(grad, input_grad=i > 0)
            self.layers[i].clear_cache()

    def params(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(arr for _, arr in layer.params())
        return out

    def grads(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def archive_entries(self) -> list[tuple[str, np.ndarray]]:
        """Flatten the network into named tensors; metadata under "meta/"."""
        entries = [("meta/n_layers", np.array([float(len(self.layers))]))]
        for i, layer in enumerate(self.layers):
            tag = f"layer{i}"
            if isinstance(layer, Dense):
                act = float(ACTIVATIONS.index(layer.activation))
                meta = [_KIND_DENSE, layer.in_width, layer.out_width, act]
                entries.append((f"meta/{tag}", np.array(meta)))
                entries.append((f"{tag}/W", layer.W))
                entries.append((f"{tag}/b", layer.b))
            elif isinstance(layer, BatchNorm):
                meta = [_KIND_BATCHNORM, layer.in_width, layer.eps, layer.momentum]
                entries.append((f"meta/{tag}", np.array(meta)))
                entries.append((f"{tag}/running_mean", layer.running_mean))
                entries.append((f"{tag}/running_var", layer.running_var))
            elif isinstance(layer, Dropout):
                entries.append((f"meta/{tag}", np.array([_KIND_DROPOUT, layer.p])))
            else:
                raise ArchiveError(f"cannot serialize layer type {type(layer).__name__}")
        return entries

    @classmethod
    def from_entries(cls, entries: dict[str, np.ndarray]) -> "Network":
        """The network stored in ``entries``. Each ``W``/``b`` is popped from
        it, so the tensor is freed once it is copied into ``param_vector``."""
        try:
            n_layers = int(entries["meta/n_layers"][0])
        except KeyError as exc:
            raise ArchiveError(f"archive lacks network metadata: {exc}") from None
        layers = []
        for i in range(n_layers):
            tag = f"layer{i}"
            meta = entries[f"meta/{tag}"]
            kind = meta[0]
            if kind == _KIND_DENSE:
                layer = Dense(int(meta[1]), int(meta[2]), ACTIVATIONS[int(meta[3])])
                layer.W = entries.pop(f"{tag}/W")
                layer.b = entries.pop(f"{tag}/b")
            elif kind == _KIND_BATCHNORM:
                layer = BatchNorm(int(meta[1]), eps=meta[2], momentum=meta[3])
                layer.running_mean = entries[f"{tag}/running_mean"].copy()
                layer.running_var = entries[f"{tag}/running_var"].copy()
            elif kind == _KIND_DROPOUT:
                layer = Dropout(meta[1])
            else:
                raise ArchiveError(f"unknown layer kind {kind} in archive")
            layers.append(layer)
        return cls(layers)

    def save(self, path) -> None:
        save_archive(self.archive_entries(), path)

    @classmethod
    def load(cls, path) -> "Network":
        return cls.from_entries(dict(load_archive(path)))


class Autoencoder:
    """Encoder/decoder pair held as one network; the first ``latent_layers``
    layers form the encoder. Both passes run through ``Network.predict``."""

    def __init__(self, net: Network, latent_layers: int):
        self.net = net
        self.latent_layers = latent_layers

    def encode(self, x) -> np.ndarray:
        """Latent representation, evaluated in inference mode."""
        return self.net.predict(x, self.latent_layers)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.net.predict(x)

    def save(self, path) -> None:
        entries = self.net.archive_entries()
        entries.append(("meta/latent_layers", np.array([float(self.latent_layers)])))
        save_archive(entries, path)

    @classmethod
    def load(cls, path) -> "Autoencoder":
        entries = dict(load_archive(path))
        net = Network.from_entries(entries)
        try:
            latent_layers = int(entries["meta/latent_layers"][0])
        except KeyError:
            raise ArchiveError("archive lacks autoencoder metadata") from None
        return cls(net, latent_layers)


def make_autoencoder(rng: Rng, input_width: int = 784, hidden: int = 256,
                     latent: int = 64) -> Autoencoder:
    """Two relu encoder layers into the latent, mirrored decoder ending in
    sigmoid so reconstructions stay in [0, 1]."""
    net = Network([
        Dense(input_width, hidden, "relu", rng=rng),
        Dense(hidden, latent, "relu", rng=rng),
        Dense(latent, hidden, "relu", rng=rng),
        Dense(hidden, input_width, "sigmoid", rng=rng),
    ])
    return Autoencoder(net, latent_layers=2)


def make_classifier(in_width: int, rng: Rng, hidden=(128, 64, 32), n_classes: int = 10,
                    dropout: float = 0.3) -> Network:
    """Three dense+batchnorm+dropout blocks followed by a softmax output."""
    layers = []
    width = in_width
    for h in hidden:
        layers.append(Dense(width, h, "relu", rng=rng))
        layers.append(BatchNorm(h))
        layers.append(Dropout(dropout))
        width = h
    layers.append(Dense(width, n_classes, "softmax", rng=rng))
    return Network(layers)
