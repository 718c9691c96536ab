"""Quantum feature transform: angle-encode latent blocks, entangle, measure.

Each 64-wide latent row is min-max scaled to [0, 1] with statistics fitted
on the training split, split into 13 blocks of 5 (the last slot padded with
1.0, whose encoding angle is 0), and every block runs through the same
5-qubit circuit: per-qubit Ry encoding rotations, a Hadamard layer, then a
CNOT chain. The emitted features are per-qubit probabilities of measuring 1
(exact marginals, or empirical frequencies over a shot budget).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import CNOT, Circuit, H, Ry, sample_from_probs
from .rng import Rng

LATENT_WIDTH = 64
BLOCK_SIZE = 5
N_BLOCKS = 13  # ceil(64 / 5); the last block carries one pad slot
PAD_VALUE = 1.0
_SQRT1_2 = 1.0 / np.sqrt(2.0)

MODES = ("exact", "sampled")
LAYOUTS = ("marginal", "histogram")


@dataclass
class ScalingStats:
    """Per-feature min/max of the training latents."""

    minimum: np.ndarray
    maximum: np.ndarray

    @classmethod
    def fit(cls, latents: np.ndarray) -> "ScalingStats":
        if latents.ndim != 2:
            raise ValueError(f"latents must be 2-D, got shape {latents.shape}")
        return cls(minimum=latents.min(axis=0), maximum=latents.max(axis=0))


def scale_unit(latents: np.ndarray, stats: ScalingStats) -> np.ndarray:
    """Min-max scale to [0, 1], clamping out-of-range inference values.

    Features with max == min carry no information and map to 0.5.
    """
    span = stats.maximum - stats.minimum
    degenerate = span == 0
    safe_span = np.where(degenerate, 1.0, span)
    scaled = (latents - stats.minimum) / safe_span
    scaled = np.clip(scaled, 0.0, 1.0)
    scaled[:, degenerate] = 0.5
    return scaled


def encode_angles(x: np.ndarray) -> np.ndarray:
    """theta_i = 2 * arccos(x_i) after clamping x into [0, 1]."""
    return 2.0 * np.arccos(np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0))


def build_block_circuit(angles: np.ndarray) -> Circuit:
    """The fixed 14-gate block: Ry per qubit, H per qubit, CNOT chain."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (BLOCK_SIZE,):
        raise ValueError(f"need exactly {BLOCK_SIZE} angles, got shape {angles.shape}")
    gates = [Ry(float(angles[q]), q) for q in range(BLOCK_SIZE)]
    gates += [H(q) for q in range(BLOCK_SIZE)]
    gates += [CNOT(q, q + 1) for q in range(BLOCK_SIZE - 1)]
    return Circuit(n_qubits=BLOCK_SIZE, gates=gates)


def block_angles(scaled: np.ndarray) -> np.ndarray:
    """(N, 64) scaled latents -> (N, 13, 5) encoding angles with pad slots."""
    n = scaled.shape[0]
    padded = np.full((n, N_BLOCKS * BLOCK_SIZE), PAD_VALUE)
    padded[:, :LATENT_WIDTH] = scaled
    return encode_angles(padded).reshape(n, N_BLOCKS, BLOCK_SIZE)


def _simulate_blocks(thetas: np.ndarray) -> np.ndarray:
    """Simulate the block circuit for M angle rows at once -> (M, 32) amplitudes.

    Applies the same scalar arithmetic as the per-state simulator, so the
    amplitudes agree bit-for-bit with simulate(build_block_circuit(...)).
    """
    m = thetas.shape[0]
    amps = np.zeros((m, 2**BLOCK_SIZE), dtype=np.complex128)
    amps[:, 0] = 1.0
    for target in range(BLOCK_SIZE):
        c = np.cos(thetas[:, target] / 2.0)[:, None, None]
        s = np.sin(thetas[:, target] / 2.0)[:, None, None]
        view = amps.reshape(m, 2 ** (BLOCK_SIZE - 1 - target), 2, 2**target)
        a0 = view[:, :, 0, :].copy()
        a1 = view[:, :, 1, :]
        view[:, :, 0, :] = c * a0 + (-s) * a1
        view[:, :, 1, :] = s * a0 + c * a1
    for target in range(BLOCK_SIZE):
        view = amps.reshape(m, 2 ** (BLOCK_SIZE - 1 - target), 2, 2**target)
        a0 = view[:, :, 0, :].copy()
        a1 = view[:, :, 1, :]
        view[:, :, 0, :] = _SQRT1_2 * a0 + _SQRT1_2 * a1
        view[:, :, 1, :] = _SQRT1_2 * a0 + (-_SQRT1_2) * a1
    idx = np.arange(2**BLOCK_SIZE)
    for control in range(BLOCK_SIZE - 1):
        target = control + 1
        controlled = (idx >> control) & 1 == 1
        src = amps.copy()
        amps[:, controlled] = src[:, idx[controlled] ^ (1 << target)]
    return amps


_BIT_MASKS = [((np.arange(2**BLOCK_SIZE) >> k) & 1) == 1 for k in range(BLOCK_SIZE)]


def _exact_marginals(probs: np.ndarray) -> np.ndarray:
    """(M, 32) probabilities -> (M, 5) per-qubit p(1)."""
    return np.stack([probs[:, mask].sum(axis=1) for mask in _BIT_MASKS], axis=1)


def transform_features(latents: np.ndarray, stats: ScalingStats, *, mode: str = "exact",
                       shots: int = 1024, rng: Rng | None = None,
                       layout: str = "marginal") -> np.ndarray:
    """Map (N, 64) latents to quantum features.

    layout="marginal" emits 5 per-qubit features per block (65 total);
    layout="histogram" emits the full 32-bin outcome distribution per block
    (416 total). mode="exact" uses the statevector probabilities directly;
    mode="sampled" estimates them from ``shots`` measurements per block,
    with one child rng stream per sample so results are order-independent.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 2 or latents.shape[1] != LATENT_WIDTH:
        raise ValueError(f"latents must be (N, {LATENT_WIDTH}), got {latents.shape}")
    if stats is None:
        raise ValueError("scaling stats are required")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode requires an rng")
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")

    n = latents.shape[0]
    thetas = block_angles(scale_unit(latents, stats))
    per_block = BLOCK_SIZE if layout == "marginal" else 2**BLOCK_SIZE
    features = np.empty((n, N_BLOCKS * per_block))

    chunk = 4096
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = stop - start
        amps = _simulate_blocks(thetas[start:stop].reshape(rows * N_BLOCKS, BLOCK_SIZE))
        probs = np.abs(amps) ** 2
        if mode == "exact":
            if layout == "marginal":
                block_feats = _exact_marginals(probs)
            else:
                block_feats = probs
            features[start:stop] = block_feats.reshape(rows, -1)
        else:
            probs = probs.reshape(rows, N_BLOCKS, -1)
            for i in range(rows):
                child = rng.split(f"sample/{start + i}")
                indices = sample_from_probs(probs[i], shots, child).reshape(N_BLOCKS, shots)
                if layout == "marginal":
                    bits = (indices[:, :, None] >> np.arange(BLOCK_SIZE)) & 1
                    features[start + i] = bits.mean(axis=1).ravel()
                else:
                    offsets = np.arange(N_BLOCKS)[:, None] * per_block
                    hist = np.bincount((indices + offsets).ravel(), minlength=N_BLOCKS * per_block)
                    features[start + i] = hist / shots
    return features
