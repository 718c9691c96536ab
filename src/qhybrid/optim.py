"""Adam optimizer and step-decay learning-rate schedule."""

from __future__ import annotations

import numpy as np

_BLOCK = 2**14  # elements per pass of the fused update: 128 KB per operand


class Adam:
    """Adaptive-moment optimizer with bias-corrected first/second moments, in
    the form of Kingma & Ba (ICLR 2015), section 2, the paragraph before 2.1:
    both bias corrections fold into one step size and one epsilon per step.

    The moments are kept scaled by 1 / (1 - beta): m' = m / (1 - beta1) and
    v' = v / (1 - beta2). Per step t (starting at 1), with the scalars

        r = sqrt((1 - beta2^t) / (1 - beta2))
        c = alpha * ((1 - beta1) / (1 - beta1^t)) * r
        e = eps * r

    computed once from the current ``alpha`` (so ``lr_schedule`` applies),
    the update is

        m' = beta1 * m' + g
        v' = beta2 * v' + g^2
        theta -= c * m' / (sqrt(v') + e)

    which equals the textbook m_hat = m / (1 - beta1^t), v_hat = v /
    (1 - beta2^t), theta -= alpha * m_hat / (sqrt(v_hat) + eps) up to
    rounding. It runs in place, ``_BLOCK`` elements at a time through two
    block-sized scratch rows, in ten passes per block and in this order:
    m' *= beta1; m' += g; v' *= beta2; step = g * g; v' += step;
    denom = sqrt(v'); denom += e; step = m' * c; step /= denom;
    theta -= step. Training passes one flat (parameters, gradients) pair per
    network.
    """

    def __init__(self, alpha: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.alpha = alpha
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None
        self._scratch = np.empty((2, _BLOCK))

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        """Update params in place from matching grads; returns params."""
        if len(params) != len(grads):
            raise ValueError(f"got {len(params)} params but {len(grads)} grads")
        if self.m is None:
            self.m = [np.zeros(p.size) for p in params]
            self.v = [np.zeros(p.size) for p in params]
        if len(self.m) != len(params):
            raise ValueError(f"optimizer tracks {len(self.m)} params, got {len(params)}")
        self.t += 1
        r = np.sqrt((1.0 - self.beta2**self.t) / (1.0 - self.beta2))
        c = self.alpha * ((1.0 - self.beta1) / (1.0 - self.beta1**self.t)) * r
        e = self.eps * r
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError(f"param/grad shape mismatch: {p.shape} vs {g.shape}")
            p, g = np.reshape(p, -1, copy=False), np.reshape(g, -1)  # p must not need a copy
            for i in range(0, p.size, _BLOCK):
                pb, gb, mb, vb = (a[i : i + _BLOCK] for a in (p, g, m, v))
                step, denom = self._scratch[:, : pb.size]
                mb *= self.beta1
                mb += gb
                vb *= self.beta2
                vb += np.multiply(gb, gb, out=step)
                np.add(np.sqrt(vb, out=denom), e, out=denom)
                pb -= np.divide(np.multiply(mb, c, out=step), denom, out=step)
        return params


def lr_schedule(alpha0: float, epoch: int, step_size: int = 15, factor: float = 0.5) -> float:
    """Step decay: alpha0 * factor^floor(epoch / step_size)."""
    if step_size < 1:
        raise ValueError(f"step_size must be >= 1, got {step_size}")
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"factor must be in (0, 1], got {factor}")
    return alpha0 * factor ** (epoch // step_size)
