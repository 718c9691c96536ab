"""Statevector simulator for Ry/H/CNOT circuits with measurement sampling.

Amplitude index convention: basis state index i encodes qubit k as bit k of
i, so qubit 0 is the least significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng

_SQRT1_2 = 1.0 / np.sqrt(2.0)
MAX_QUBITS = 16


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


def sample_from_probs(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome counts of the uniform draws u against each block of probs.

    probs is (..., outcomes) and u is (..., shots) with probs' leading shape:
    the shots draws of each block, in draw order. u is sorted in place.

    The counts have the shape of probs and are those of the per-draw inverse
    CDF in ``sample_indices``. A draw u lands at or past outcome k + 1 exactly
    when cdf[k] <= u, and the cdf of non-negative probabilities never
    decreases, so sorting a block's draws and counting those below each of
    its first outcomes - 1 cdf values gives the same histogram without
    locating any single draw. The last outcome takes every draw past them.
    """
    shots = u.shape[-1]
    if u.shape[:-1] != probs.shape[:-1] or shots < 1:
        raise ValueError(f"need draws of shape {probs.shape[:-1]} + (shots >= 1,), got {u.shape}")
    cdf = np.cumsum(probs, axis=-1).reshape(-1, probs.shape[-1])
    u = u.reshape(len(cdf), shots)
    u.sort(axis=1)
    edges = [np.searchsorted(row, c[:-1], side="left") for row, c in zip(u, cdf)]
    return np.diff(edges, axis=1, prepend=0, append=shots).reshape(probs.shape)


def sample_indices(state: QuantumState, shots: int, rng: Rng) -> np.ndarray:
    """shots i.i.d. basis-state indices from the state's outcome distribution.

    One index per draw, by inverse CDF: the first outcome whose cdf exceeds
    the draw, clamped to the last outcome should the cdf end below it.
    ``sample_from_probs`` counts the same draws without locating each one.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf = np.cumsum(state.probabilities())
    return np.minimum(np.searchsorted(cdf, rng.uniform(shots), side="right"), len(cdf) - 1)
