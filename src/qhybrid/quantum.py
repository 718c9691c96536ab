"""Statevector simulator for Ry/H/CNOT circuits, and measurement sampling.

The simulator and ``sample_indices``, which draws one basis state per shot,
are test oracles. ``sample_from_probs`` draws the shot counts of the feature
transform's blocks directly: their qubits are independent before the CNOT
chain, so the counts are a chain of binomials, each drawn exactly from one
uniform by ``binomial``.

Amplitude index convention: basis state index i encodes qubit k as bit k of
i, so qubit 0 is the least significant bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

_SQRT1_2 = 1.0 / np.sqrt(2.0)
MAX_QUBITS = 16
# binomial: a p below the smallest normal double gives 0 (n p is then below
# 1e-300), so that p / (1 - p) never divides to inf.
_TINY = np.finfo(np.float64).tiny
# binomial: pairs of terms each search takes between drops of finished ones
_BURST = 4


@dataclass(frozen=True)
class Ry:
    """Rotation about the Y axis: [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""

    theta: float
    target: int


@dataclass(frozen=True)
class H:
    """Hadamard: (1/sqrt 2) [[1, 1], [1, -1]]."""

    target: int


@dataclass(frozen=True)
class CNOT:
    """Flips the target qubit where the control qubit is 1."""

    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError(f"CNOT control and target must differ, both are {self.control}")


Gate = Ry | H | CNOT


def _gate_qubits(gate: Gate) -> tuple[int, ...]:
    if isinstance(gate, CNOT):
        return (gate.control, gate.target)
    return (gate.target,)


@dataclass
class Circuit:
    """Ordered gate list over a fixed qubit count."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        for gate in self.gates:
            for q in _gate_qubits(gate):
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate {gate} uses qubit {q} outside 0..{self.n_qubits - 1}")


class QuantumState:
    """Unit-norm complex amplitude vector over 2^n basis states."""

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
        self.n_qubits = n_qubits
        if amplitudes is None:
            amps = np.zeros(2**n_qubits, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128)
            if amps.shape != (2**n_qubits,):
                raise ValueError(f"need {2**n_qubits} amplitudes, got shape {amps.shape}")
        self.amplitudes = amps

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply_single(amps: np.ndarray, n: int, target: int, m00, m01, m10, m11) -> None:
    # Pairs differing only in the target bit sit 2**target apart.
    view = amps.reshape(2 ** (n - 1 - target), 2, 2**target)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Apply one gate in place and return the state."""
    n = state.n_qubits
    for q in _gate_qubits(gate):
        if not 0 <= q < n:
            raise ValueError(f"gate {gate} uses qubit {q} outside 0..{n - 1}")
    amps = state.amplitudes
    if isinstance(gate, Ry):
        c = np.cos(gate.theta / 2.0)
        s = np.sin(gate.theta / 2.0)
        _apply_single(amps, n, gate.target, c, -s, s, c)
    elif isinstance(gate, H):
        _apply_single(amps, n, gate.target, _SQRT1_2, _SQRT1_2, _SQRT1_2, -_SQRT1_2)
    else:
        idx = np.arange(2**n)
        controlled = (idx >> gate.control) & 1 == 1
        state.amplitudes = amps.copy()
        state.amplitudes[controlled] = amps[idx[controlled] ^ (1 << gate.target)]
    return state


def simulate(circuit: Circuit) -> QuantumState:
    """Run the circuit on |0...0> and return the final state."""
    state = QuantumState(circuit.n_qubits)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def marginals(state: QuantumState) -> np.ndarray:
    """p(qubit_k = 1) for every k, summed from basis-state probabilities."""
    probs = state.probabilities()
    idx = np.arange(len(probs))
    return np.array([
        float(probs[(idx >> k) & 1 == 1].sum()) for k in range(state.n_qubits)
    ])


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
    """Outcome counts of ``shots`` measurements of independent qubits, drawn
    as binomials with ``binomial``, one uniform each.

    probs is (..., n): p(1) of each of n qubits in a product state. u holds
    each block's uniforms, used in the order below, with probs' leading shape.

    layout="histogram": u is (..., 2^n - 1) and the result (..., 2^n) counts
    each outcome, bit k of its index being qubit k. Level k = 0 .. n - 1
    splits each of the 2^k groups so far, in index order, by qubit k: the
    count c of group g gives Bin(c, p_k) shots with qubit k = 1, which become
    group g + 2^k. The 2^n - 1 splits draw a multinomial exactly.

    layout="marginal": u is (..., 2n - 1) and the result (..., n) counts, for
    each k, the shots whose qubits 0..k have odd parity, which is qubit k
    after a CNOT chain 0 -> 1 -> ... -> n - 1. N_0 = Bin(shots, p_0) takes
    the first uniform; for k >= 1 the next two give A = Bin(shots - N_{k-1},
    p_k) and B = Bin(N_{k-1}, p_k), the shots whose parity qubit k flips,
    and N_k = N_{k-1} + A - B. The chain is the exact joint law of the n
    counts.
    """
    n_qubits = probs.shape[-1]
    draws = 2 * n_qubits - 1 if layout == "marginal" else 2**n_qubits - 1
    if u.shape != probs.shape[:-1] + (draws,) or shots < 1:
        raise ValueError(f"need {layout} draws of shape {probs.shape[:-1] + (draws,)} and "
                         f"shots >= 1, got {u.shape} and {shots}")
    if layout == "marginal":
        counts = np.empty(probs.shape, dtype=np.int64)
        odd = counts[..., 0] = binomial(shots, probs[..., 0], u[..., 0])
        for k in range(1, n_qubits):
            ends = np.stack([shots - odd, odd], axis=-1)
            flips = binomial(ends, probs[..., k, None], u[..., 2 * k - 1 : 2 * k + 1])
            odd = counts[..., k] = odd + flips[..., 0] - flips[..., 1]
        return counts
    counts = np.full(probs.shape[:-1] + (1,), shots, dtype=np.int64)
    for k in range(n_qubits):
        ones = binomial(counts, probs[..., k, None], u[..., 2**k - 1 : 2 ** (k + 1) - 1])
        counts = np.concatenate([counts - ones, ones], axis=-1)
    return counts


def sample_indices(state: QuantumState, shots: int, rng: Rng) -> np.ndarray:
    """shots i.i.d. basis-state indices from the state's outcome distribution.

    One index per draw, by inverse CDF: the first outcome whose cdf exceeds
    the draw, clamped to the last outcome should the cdf end below it. The
    test oracle for the law of ``sample_from_probs``'s counts.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.cumsum(state.probabilities())
    return np.minimum(np.searchsorted(cdf, rng.uniform(shots), side="right"), len(cdf) - 1)
