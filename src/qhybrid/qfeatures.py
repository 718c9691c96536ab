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
probability has a closed form (``block_probabilities``) and a block's shot
counts are a chain of binomials (``sample_from_probs``). The statevector
simulator in ``quantum.py`` is the test oracle for both, and no run imports
it. The "quantum" features are therefore a cheap classical function of the
latents; see Bowles, Ahmed & Schuld, arXiv:2403.07059, on benchmarking
quantum models against classical ones.

Rows go through in chunks of ``CHUNK_VALUES // (13 * 32)`` = 315 rows, so
no temporary spans the whole set. Sampled mode adds only the shot noise.
Each call derives one child stream ``rng.split("sample")`` and row i reads
its 13 blocks' uniforms, block after block, from the fixed slice
[13 d i, 13 d (i + 1)) of it, d being ``DRAWS[layout]``; each chunk takes
its rows' slices in one ``Rng.uniform`` call. Every row draws the same
count, so a row's features depend only on its latents and its index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import Rng

if TYPE_CHECKING:
    from .quantum import Circuit

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
# Uniforms a sampled block draws, one per group sample_from_probs splits:
# 1 + 2 + 2 + 2 + 2 (marginal) and 1 + 2 + 4 + 8 + 16 (histogram).
DRAWS = {"marginal": 2 * BLOCK_SIZE - 1, "histogram": 2**BLOCK_SIZE - 1}
# binomial: a p below the smallest normal double gives 0 (n p is then below
# 1e-300), so that p / (1 - p) never divides to inf.
_TINY = np.finfo(np.float64).tiny
# binomial: pairs of terms each search takes between drops of finished ones
_BURST = 4


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
    """The fixed 14-gate block: Ry per qubit, H per qubit, CNOT chain, as a
    gate list for the test oracle ``quantum.simulate``. The gate classes
    are imported on call, so that no pipeline run loads ``quantum``."""
    from .quantum import CNOT, Circuit, H, Ry

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


@functools.cache
def _log_factorials(size: int) -> np.ndarray:
    """log k! for k < size, read-only. binomial asks for powers of two, so
    the tables a process keeps add up to less than four entries per shot."""
    table = np.fromiter((math.lgamma(k + 1.0) for k in range(size)), dtype=np.float64, count=size)
    table.flags.writeable = False
    return table


def binomial(n, p, u) -> np.ndarray:
    """One Bin(n, p) variate per uniform u in [0, 1), by chop-down inversion
    from the mode (Kemp's search; Davis, Comput. Stat. Data Anal. 16, 1993).

    n, p and u broadcast together. With f the Bin(n, p) pmf and m the mode
    floor((n + 1) p), clipped to [0, n], u is reduced by f(m), then by
    f(m + 1), f(m - 1), f(m + 2), f(m - 2), ... in turn, and the variate is
    the k whose term takes u below 0. f(m) comes from log-factorials; each
    later term comes from its neighbour towards m, upwards by the ratio
    (n - k) / (k + 1) * odds with odds = p / (1 - p), downwards by
    k / (n - k + 1) / odds, so a term past 0 or n is 0. Should rounding leave
    u >= 0 after every term, both tails having run out, the variate is m.
    n = 0 and any p below the smallest normal double, 0 included, give 0;
    p = 1 gives n.

    Every variate takes one uniform and no rejection round, so a caller
    draws a fixed count. The search takes about |k - m| steps:
    O(sqrt(n p (1 - p))) on average.
    """
    n, p, u = np.broadcast_arrays(np.asarray(n, dtype=np.int64),
                                  np.asarray(p, dtype=np.float64),
                                  np.asarray(u, dtype=np.float64))
    out = np.where(p >= 1.0, n, 0)
    live = np.flatnonzero((n > 0) & (p >= _TINY) & (p < 1.0))
    n, p, u = n.ravel()[live], p.ravel()[live], u.ravel()[live]  # copies
    m = np.minimum(np.floor((n + 1) * p).astype(np.int64), n)
    log_fact = _log_factorials(1 << int(n.max(initial=0)).bit_length())
    f_hi = np.exp(log_fact[n] - log_fact[m] - log_fact[n - m]
                  + m * np.log(p) + (n - m) * np.log1p(-p))
    u -= f_hi
    # Terms only shrink u, so the number of terms after which u is still
    # >= 0 indexes the term that took it below 0: t = 0, 1, 2, 3, ... is
    # m, m + 1, m - 1, m + 2, ... Every search steps in bursts of _BURST
    # pairs of terms between drops of the finished ones.
    t = (u >= 0.0).astype(np.int64)
    u_end = u.copy()
    left = np.flatnonzero(t)  # indices into the live variates still searching
    m_f, rest_f = m[left].astype(np.float64), (n - m)[left].astype(np.float64)  # m, n - m
    u, odds, f_hi = u[left], (p / (1.0 - p))[left], f_hi[left]
    f_lo, t_left = f_hi.copy(), t[left]
    j = 0
    while len(left):
        for j in range(j + 1, j + 1 + _BURST):
            f_hi *= (rest_f - (j - 1)) / (m_f + j) * odds
            u -= f_hi
            t_left += u >= 0.0
            f_lo *= (m_f - (j - 1)) / (rest_f + j) / odds
            u -= f_lo
            t_left += u >= 0.0
        t[left], u_end[left] = t_left, u
        keep = (u >= 0.0) & ((f_hi > 0.0) | (f_lo > 0.0))
        left, m_f, rest_f, u, odds, f_hi, f_lo, t_left = (
            a[keep] for a in (left, m_f, rest_f, u, odds, f_hi, f_lo, t_left))
    k = np.where(t % 2 == 1, m + (t + 1) // 2, m - t // 2)
    out.ravel()[live] = np.where(u_end < 0.0, k, m)  # m where both tails ran out
    return out


def sample_from_probs(probs: np.ndarray, u: np.ndarray, shots: int, layout: str) -> np.ndarray:
    """Outcome counts of ``shots`` measurements of the block circuit, in the
    layout ``block_probabilities`` gives probabilities in.

    probs is (..., 5): q_k, the p(1) of qubit k before the CNOT chain, where
    the five qubits are independent. u is (..., ``DRAWS[layout]``), with
    probs' leading shape, and is read in order. Level k = 0 .. 4 splits each
    group of shots so far by qubit k: a group of c shots takes the next
    uniform and gives ``binomial``(c, q_k, u) shots with qubit k = 1.

    layout="histogram": the groups are the outcomes of qubits 0..k - 1 in
    index order, and the ones of group g become group g + 2^k, so the 31
    splits draw the 32 outcome counts as a multinomial exactly. They are
    returned (..., 32), permuted by the CNOT chain.

    layout="marginal": after level k the two groups hold the shots whose
    qubits 0..k have even and odd parity, the value of qubit k after the
    chain 0 -> 1 -> ... -> 4. A shot whose qubit k is 1 changes parity, so
    from level 1 on each group's ones move to the other. The result (..., 5)
    holds the odd group after every level: 9 splits draw the exact joint law
    of the five counts.
    """
    draws = probs.shape[:-1] + (DRAWS[layout],)
    if probs.shape[-1] != BLOCK_SIZE or u.shape != draws or shots < 1:
        raise ValueError(f"need {BLOCK_SIZE} qubits, {layout} draws of shape {draws} and "
                         f"shots >= 1, got {probs.shape}, {u.shape} and {shots}")
    groups = np.full(probs.shape[:-1] + (1,), shots, dtype=np.int64)
    odd = np.empty(probs.shape, dtype=np.int64)  # the marginal layout's counts
    used = 0
    for k in range(BLOCK_SIZE):
        ones = binomial(groups, probs[..., k, None], u[..., used : used + groups.shape[-1]])
        used += groups.shape[-1]
        if layout == "marginal" and k:
            groups += ones[..., ::-1] - ones
        else:
            groups = np.concatenate([groups - ones, ones], axis=-1)
        odd[..., k] = groups[..., 1]
    return odd if layout == "marginal" else groups[..., _CHAIN_SOURCE]


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
    draws = DRAWS[layout]  # per block, in sampled mode
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
        features[start:stop] = (counts / shots).reshape(stop - start, -1)
    return features
