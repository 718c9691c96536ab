"""Quantum feature transform: angle-encode latent blocks, entangle, measure.

Each 64-wide latent row is min-max scaled to [0, 1] with statistics fitted
on the training split, split into 13 blocks of 5 (the last slot padded with
1.0, whose encoding angle is 0), and every block drives the same 5-qubit
circuit: per-qubit Ry encoding rotations, a Hadamard layer, then a CNOT
chain. The emitted features are per-qubit probabilities of measuring 1
(exact marginals, or empirical frequencies over a shot budget), or the full
32-outcome distribution of each block.

Nothing is simulated here. Before the CNOT chain every qubit is in its own
product state, and the chain only permutes basis states, so every outcome
probability has a closed form (``block_probabilities``). The statevector
simulator in ``quantum.py`` is the test oracle for it. The "quantum"
features are therefore a cheap classical function of the latents; see
Bowles, Ahmed & Schuld, arXiv:2403.07059, on benchmarking quantum models
against classical ones.

Rows go through in chunks of ``CHUNK_VALUES // (13 * 32)`` = 315 rows, so
no temporary spans the whole set. Sampled mode adds only the shot noise.
Before the CNOT chain the five qubits of a block are independent, with
p_k(1) = q_k = (1 - sin theta_k) / 2, so a block's shot counts follow a
chain of binomials, which ``sample_from_probs`` draws exactly with one
uniform each: 9 per block for the marginal layout (the counts of 1 on each
qubit after the chain) and 31 for the histogram layout (the 32 outcome
counts, permuted by the chain as ``block_probabilities`` permutes the
probabilities). Each call derives one child stream ``rng.split("sample")``
and row i reads its 13 blocks' uniforms, block after block, from the fixed
slice [13 d i, 13 d (i + 1)) of it, d being the draws per block; each chunk
takes its rows' slices in one ``Rng.uniform`` call. Every row draws the same
count, so a row's features depend only on its latents and its index.
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

# Values per chunk of rows, counted as 32 outcome probabilities per block
# whatever the mode and layout (315 rows). A value-sized temporary is then at
# most 1 MB, and the pipeline's peak RSS stays where one row at a time left
# it. With marginal chunks of 2 016 rows (1 MB temporaries) rather than 315
# (160 KB), a 4 200-row exact qtransform stage took 1 657 minor page faults
# rather than 702.
CHUNK_VALUES = 1 << 17

MODES = ("exact", "sampled")
# Most shots a sampled block takes. The binomial's cached log-factorial table
# holds up to twice as many doubles: 16 MB at 2^20 shots.
MAX_SHOTS = 2**20
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


# The CNOT chain sends basis state i to prefix_xor(i), whose bit k is
# bit 0 xor ... xor bit k of i; basis state j therefore comes from j ^ (j << 1).
_CHAIN_SOURCE = np.array([j ^ (j << 1) % 2**BLOCK_SIZE for j in range(2**BLOCK_SIZE)])


def block_probabilities(thetas: np.ndarray, layout: str) -> np.ndarray:
    """Closed-form measurement probabilities of the block circuit.

    thetas is (..., 5). After Ry(theta) and H every qubit is in its own
    product state with p(1) = (1 - sin theta) / 2, and the CNOT chain only
    permutes basis states, so nothing needs simulating:
    layout="marginal" gives (..., 5) p_k(1) = (1 - prod_{j<=k} sin theta_j) / 2;
    layout="histogram" gives the (..., 32) outcome distribution: the product
    distribution, permuted by the CNOT chain.
    """
    s = np.sin(thetas)
    if layout == "marginal":
        return (1.0 - np.cumprod(s, axis=-1)) / 2.0
    p0, p1 = (1.0 + s) / 2.0, (1.0 - s) / 2.0
    prod = np.ones(s.shape[:-1] + (1,))
    for k in range(BLOCK_SIZE):  # qubit k becomes bit k of the product index
        prod = np.concatenate([prod * p0[..., k, None], prod * p1[..., k, None]], axis=-1)
    return np.take(prod, _CHAIN_SOURCE, axis=-1)


def transform_features(latents: np.ndarray, stats: ScalingStats, *, mode: str = "exact",
                       shots: int = 1024, rng: Rng | None = None,
                       layout: str = "marginal") -> np.ndarray:
    """Map (N, 64) latents to quantum features.

    layout="marginal" emits 5 per-qubit features per block (65 total);
    layout="histogram" emits the full 32-bin outcome distribution per block
    (416 total). mode="exact" emits the closed-form probabilities directly;
    mode="sampled" emits outcome counts / shots of ``shots`` measurements
    per block, 1 <= shots <= ``MAX_SHOTS``: row i takes the i-th run of
    13 * 9 (marginal) or 13 * 31 (histogram) uniforms of the child stream
    ``rng.split("sample")``, block after block, so a row's features do not
    depend on the rows beside it; ``rng`` itself does not advance.
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
        if not 1 <= shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
        stream = rng.split("sample")

    n = latents.shape[0]
    per_block = BLOCK_SIZE if layout == "marginal" else 2**BLOCK_SIZE
    draws = 2 * BLOCK_SIZE - 1 if layout == "marginal" else 2**BLOCK_SIZE - 1  # per block
    features = np.empty((n, N_BLOCKS * per_block))
    rows = max(1, CHUNK_VALUES // (N_BLOCKS * 2**BLOCK_SIZE))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        thetas = block_angles(scale_unit(latents[start:stop], stats))
        if mode == "exact":
            features[start:stop] = block_probabilities(thetas, layout).reshape(stop - start, -1)
            continue
        u = stream.uniform((stop - start) * N_BLOCKS * draws).reshape(-1, N_BLOCKS, draws)
        # q_k, the p(1) of qubit k before the chain, as in block_probabilities
        counts = sample_from_probs((1.0 - np.sin(thetas)) / 2.0, u, shots, layout)
        if layout == "histogram":
            counts = np.take(counts, _CHAIN_SOURCE, axis=-1)
        features[start:stop] = (counts / shots).reshape(stop - start, -1)
    return features
