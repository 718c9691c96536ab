"""Network layers with hand-coded forward and backward passes.

Every layer follows the same protocol: ``forward(x, training=..., rng=...)``
caches whatever the matching ``backward(grad, input_grad=...)`` needs, and
``backward`` writes parameter gradients in place into the layer's ``grad_*``
arrays (views, in a Network) and returns the gradient with respect to the
layer input. With ``input_grad=False`` (a network's first layer, whose input
gradient nothing reads) it skips that last product and returns the gradient
it stopped at: Dense's dL/d(pre-activation), or ``grad`` itself for the
parameter-free layers.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng

ACTIVATIONS = ("linear", "relu", "sigmoid", "softmax")


def activate(kind: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The named activation of z, written to ``out``: a fresh array when it
    is None, or z itself for an in-place pass. Either way the same ufuncs run
    in the same order, so the bits do not depend on ``out``; "linear" returns
    z."""
    if kind == "relu":
        return np.maximum(0.0, z, out=out)
    if kind == "sigmoid":  # 1 / (1 + exp(-z))
        a = np.negative(z, out=out)
        np.exp(a, out=a)
        a += 1.0
        return np.divide(1.0, a, out=a)
    if kind == "softmax":  # max subtraction, so large logits cannot overflow
        a = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
        np.exp(a, out=a)
        a /= a.sum(axis=1, keepdims=True)
        return a
    return z


def _init_weights(in_width: int, out_width: int, activation: str, rng: Rng) -> np.ndarray:
    # He-uniform for relu, Glorot-uniform otherwise; biases start at zero.
    if activation == "relu":
        limit = np.sqrt(6.0 / in_width)
    else:
        limit = np.sqrt(6.0 / (in_width + out_width))
    u = rng.uniform(out_width * in_width).reshape(out_width, in_width)
    return (2.0 * u - 1.0) * limit


class Dense:
    """Fully connected layer: activation(x @ W.T + b)."""

    def __init__(self, in_width: int, out_width: int, activation: str = "linear",
                 *, rng: Rng | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, pick one of {ACTIVATIONS}")
        self.in_width = in_width
        self.out_width = out_width
        self.activation = activation
        if rng is not None:
            self.W = _init_weights(in_width, out_width, activation, rng)
        else:
            self.W = np.zeros((out_width, in_width))
        self.b = np.zeros(out_width)
        self.grad_W = np.zeros((out_width, in_width))
        self.grad_b = np.zeros(out_width)
        self._x = None
        self._z = None
        self._a = None

    def forward(self, x: np.ndarray, *, training: bool = False, rng: Rng | None = None):
        """activation(x @ W.T + b). Training caches x, the pre-activation z
        and the output for backward; inference adds the bias and applies the
        activation in the product's own buffer, so it allocates one array."""
        if x.shape[1] != self.in_width:
            raise ValueError(f"dense layer expects width {self.in_width}, got {x.shape}")
        z = x @ self.W.T
        z += self.b
        a = activate(self.activation, z, out=None if training else z)
        if training:
            self._x, self._z, self._a = x, z, a
        return a

    def backward(self, grad: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        """grad is dL/d(output); for softmax it is dL/d(logits) directly,
        because cross_entropy_loss already folds the softmax Jacobian in."""
        if self._x is None:
            raise RuntimeError("backward called without a cached training forward")
        if self.activation == "relu":
            gz = grad * (self._z > 0)
        elif self.activation == "sigmoid":
            gz = grad * self._a * (1.0 - self._a)
        else:  # linear and softmax both pass through
            gz = grad
        np.matmul(gz.T, self._x, out=self.grad_W)
        gz.sum(axis=0, out=self.grad_b)
        return gz @ self.W if input_grad else gz

    def params(self):
        return [("W", self.W), ("b", self.b)]

    def grads(self):
        return [self.grad_W, self.grad_b]

    def clear_cache(self):
        self._x = self._z = self._a = None


class BatchNorm:
    """Per-feature standardization without learnable scale/shift.

    Training batches are normalized by their own mean and population
    variance; running statistics follow an exponential moving average and
    drive inference, which is therefore a fixed affine map. A one-row
    training batch is its own mean: it gives zeros and a zero input gradient.
    """

    def __init__(self, width: int, *, eps: float = 1e-5, momentum: float = 0.9):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.in_width = width
        self.out_width = width
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._xhat = None
        self._inv_std = None

    def forward(self, h: np.ndarray, *, training: bool = False, rng: Rng | None = None):
        if h.shape[1] != self.in_width:
            raise ValueError(f"batchnorm expects width {self.in_width}, got {h.shape}")
        if training:
            n = h.shape[0]
            mean = h.mean(axis=0)
            c = h - mean
            var = (c * c).sum(axis=0) / n  # population variance, rounded as h.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = c * inv_std
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
            self._xhat, self._inv_std = xhat, inv_std
            return xhat
        return (h - self.running_mean) / np.sqrt(self.running_var + self.eps)

    def backward(self, grad: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        if self._xhat is None:
            raise RuntimeError("backward called without a cached training forward")
        if not input_grad:
            return grad
        xhat, inv_std = self._xhat, self._inv_std
        n = grad.shape[0]
        grad_sum = grad.sum(axis=0)
        dot = (grad * xhat).sum(axis=0)
        return (inv_std / n) * (n * grad - grad_sum - xhat * dot)

    def params(self):
        return []

    def grads(self):
        return []

    def clear_cache(self):
        self._xhat = self._inv_std = None


class Dropout:
    """Inverted dropout: surviving units scale by 1/(1-p), inference is identity."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.in_width = None  # width-agnostic
        self.out_width = None
        self.p = p
        self._scaled_mask = None

    def forward(self, h: np.ndarray, *, training: bool = False, rng: Rng | None = None):
        if not training or self.p == 0.0:
            if training:
                self._scaled_mask = 1.0
            return h
        if rng is None:
            raise ValueError("dropout in training mode requires an rng")
        u = rng.uniform(h.size).reshape(h.shape)
        self._scaled_mask = (u >= self.p) / (1.0 - self.p)
        return h * self._scaled_mask

    def backward(self, grad: np.ndarray, *, input_grad: bool = True) -> np.ndarray:
        if self._scaled_mask is None:
            raise RuntimeError("backward called without a cached training forward")
        return grad * self._scaled_mask if input_grad else grad

    def params(self):
        return []

    def grads(self):
        return []

    def clear_cache(self):
        self._scaled_mask = None
