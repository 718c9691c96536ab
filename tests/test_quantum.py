import numpy as np
import pytest

from qhybrid.quantum import (
    CNOT,
    Circuit,
    H,
    QuantumState,
    Ry,
    apply_gate,
    marginals,
    sample_from_probs,
    sample_indices,
    simulate,
)
from qhybrid.rng import Rng, uniform_streams

SQRT1_2 = 1.0 / np.sqrt(2.0)


# --- dense-matrix oracle: explicit 2^n x 2^n unitaries via tensor products ---

def single_qubit_unitary(matrix2, target, n):
    u = np.eye(1, dtype=complex)
    for k in range(n):
        factor = matrix2 if k == target else np.eye(2)
        u = np.kron(factor, u)  # qubit 0 is the least significant bit
    return u


def cnot_unitary(control, target, n):
    dim = 2**n
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        u[j, i] = 1.0
    return u


def gate_unitary(gate, n):
    if isinstance(gate, Ry):
        c, s = np.cos(gate.theta / 2), np.sin(gate.theta / 2)
        return single_qubit_unitary(np.array([[c, -s], [s, c]]), gate.target, n)
    if isinstance(gate, H):
        m = SQRT1_2 * np.array([[1.0, 1.0], [1.0, -1.0]])
        return single_qubit_unitary(m, gate.target, n)
    return cnot_unitary(gate.control, gate.target, n)


def circuit_unitary(circuit):
    u = np.eye(2**circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.n_qubits) @ u
    return u


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 3)
        target = int(rng.integers(0, n_qubits))
        if kind == 0:
            gates.append(Ry(float(rng.uniform(0, 2 * np.pi)), target))
        elif kind == 1:
            gates.append(H(target))
        else:
            control = int(rng.integers(0, n_qubits))
            while control == target:
                control = int(rng.integers(0, n_qubits))
            gates.append(CNOT(control, target))
    return Circuit(n_qubits=n_qubits, gates=gates)


# --- textbook gate fixtures ---

def test_hadamard_on_zero():
    state = apply_gate(QuantumState(1), H(0))
    assert np.allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)


def test_cnot_flips_target_when_control_set():
    # |01> means q0=1 (control), q1=0: index 1 -> index 3 = |11>
    state = QuantumState(2)
    state.amplitudes[:] = 0
    state.amplitudes[1] = 1.0
    apply_gate(state, CNOT(0, 1))
    assert state.amplitudes[3] == 1.0
    assert np.sum(np.abs(state.amplitudes)) == 1.0


def test_cnot_inactive_when_control_clear():
    state = QuantumState(2)  # |00>
    apply_gate(state, CNOT(0, 1))
    assert state.amplitudes[0] == 1.0


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    amps = rng.random(8) + 1j * rng.random(8)
    amps /= np.linalg.norm(amps)
    state = QuantumState(3, amps.copy())
    apply_gate(state, Ry(0.0, 1))
    assert np.array_equal(state.amplitudes, amps)


def test_ry_prepares_cos_sin_pair():
    theta = 2 * np.arccos(0.3)
    state = apply_gate(QuantumState(1), Ry(theta, 0))
    assert state.amplitudes[0].real == pytest.approx(0.3, abs=1e-15)
    assert state.amplitudes[1].real == pytest.approx(np.sqrt(1 - 0.09), abs=1e-15)


# --- simulator vs oracle ---

def test_empty_circuit_is_ground_state():
    state = simulate(Circuit(n_qubits=5))
    assert state.amplitudes[0] == 1.0
    assert np.sum(np.abs(state.amplitudes[1:])) == 0.0


def test_random_circuits_match_dense_unitary_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        circuit = random_circuit(rng, n, int(rng.integers(1, 13)))
        state = simulate(circuit)
        expected = circuit_unitary(circuit)[:, 0]
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_norm_preserved_after_every_gate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        circuit = random_circuit(rng, n, 10)
        state = QuantumState(n)
        for gate in circuit.gates:
            apply_gate(state, gate)
            assert abs(state.norm_sq() - 1.0) < 1e-12


def test_gate_round_trips_are_identity():
    rng = np.random.default_rng(11)
    amps = rng.random(8) + 1j * rng.random(8)
    amps /= np.linalg.norm(amps)
    for pair in ([H(1), H(1)], [CNOT(0, 2), CNOT(0, 2)], [Ry(0.7, 1), Ry(-0.7, 1)]):
        state = QuantumState(3, amps.copy())
        for gate in pair:
            apply_gate(state, gate)
        assert np.max(np.abs(state.amplitudes - amps)) < 1e-12


# --- validation ---

def test_gate_index_out_of_range():
    with pytest.raises(ValueError, match="qubit"):
        Circuit(n_qubits=2, gates=[H(2)])
    with pytest.raises(ValueError, match="qubit"):
        apply_gate(QuantumState(2), Ry(0.1, 5))


def test_cnot_control_equals_target_rejected():
    with pytest.raises(ValueError, match="differ"):
        CNOT(1, 1)


def test_state_size_validation():
    with pytest.raises(ValueError, match="amplitudes"):
        QuantumState(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="n_qubits"):
        QuantumState(0)


# --- marginals ---

def test_marginals_ground_state():
    assert marginals(QuantumState(5)).tolist() == [0.0] * 5


def test_marginals_uniform_superposition():
    state = QuantumState(5)
    for q in range(5):
        apply_gate(state, H(q))
    assert np.max(np.abs(marginals(state) - 0.5)) < 1e-12


def test_marginals_in_range_and_consistent():
    rng = np.random.default_rng(13)
    for _ in range(10):
        circuit = random_circuit(rng, 3, 8)
        state = simulate(circuit)
        probs = state.probabilities()
        m = marginals(state)
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
        for k in range(3):
            clear = probs[((np.arange(8) >> k) & 1) == 0].sum()
            assert m[k] == pytest.approx(1.0 - clear, abs=1e-12)


# --- sampling ---

def test_sample_basis_state_single_key():
    indices = sample_indices(QuantumState(5), 250, Rng(0))
    assert indices.shape == (250,)
    assert np.all(indices == 0)


def test_sample_counts_sum_to_shots():
    state = simulate(random_circuit(np.random.default_rng(3), 3, 9))
    indices = sample_indices(state, 1024, Rng(1))
    assert indices.shape == (1024,)
    assert 0 <= indices.min() and indices.max() < 8
    assert np.bincount(indices, minlength=8).sum() == 1024


def test_sample_single_qubit_within_3_sigma():
    state = apply_gate(QuantumState(1), H(0))  # p(1) = 0.5
    freq = np.mean(sample_indices(state, 10_000, Rng(5)) == 1)
    assert abs(freq - 0.5) < 0.015  # 3 * sqrt(0.25 / 1e4)


def test_sampling_deterministic_per_seed():
    state = simulate(random_circuit(np.random.default_rng(4), 3, 6))
    a = sample_indices(state, 500, Rng(9))
    b = sample_indices(state, 500, Rng(9))
    c = sample_indices(state, 500, Rng(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stacked_sampling_matches_per_block_calls():
    gen = np.random.default_rng(6)
    probs = np.stack([simulate(random_circuit(gen, 5, 8)).probabilities() for _ in range(13)])
    stacked_rng, loop_rng = Rng(12), Rng(12)
    stacked = sample_from_probs(probs, stacked_rng.uniform(13 * 1024).reshape(13, 1024))
    expected = np.stack([_counts(p, loop_rng.uniform(1024)) for p in probs])
    assert stacked.shape == probs.shape
    assert np.array_equal(stacked, expected)
    assert np.array_equal(stacked_rng._state, loop_rng._state)


def _clamped_searchsorted(probs, u):
    cdf = np.cumsum(probs)
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _counts(probs, u):
    """The outcome histogram of per-draw inverse-CDF indices."""
    return np.bincount(_clamped_searchsorted(probs, u), minlength=len(probs))


@pytest.mark.parametrize("outcomes", [1, 2, 3, 5, 32, 33])
def test_stream_stack_matches_one_call_per_row(outcomes):
    gen = np.random.default_rng(outcomes)
    probs = gen.random((4, 3, outcomes))
    probs[:, :, 1::3] = 0.0  # repeated cdf values
    probs /= probs.sum(axis=-1, keepdims=True)
    probs[0, 0] *= 0.9  # a cdf that ends below some draws: the clamp
    streams = [Rng(13).split(f"row/{i}") for i in range(len(probs))]
    alone = [Rng(13).split(f"row/{i}") for i in range(len(probs))]
    got = sample_from_probs(probs, uniform_streams(streams, 3 * 200).reshape(4, 3, 200))
    assert got.shape == probs.shape
    for row, p, stream, single in zip(got, probs, streams, alone):
        u = single.uniform(3 * 200).reshape(3, 200)
        expected = [_counts(block, draws) for block, draws in zip(p, u)]
        assert np.array_equal(row, expected)
        assert np.array_equal(stream._state, single._state)


def test_counts_equal_histogram_of_per_draw_indices():
    gen = np.random.default_rng(21)
    for case in range(200):
        outcomes = [1, 2, 32, int(gen.integers(1, 40))][case % 4]
        shots = [1, 2, int(gen.integers(1, 300))][case % 3]
        blocks = int(gen.integers(1, 4))
        # dyadic probabilities: every cdf value is exact and a possible draw k * 2^-53
        weights = gen.integers(0, 4, size=(blocks, outcomes)).astype(float)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        scale = 2.0 ** -np.ceil(np.log2(weights.sum(axis=1, keepdims=True)))
        probs = weights * scale  # zero-probability outcomes, cdfs that end at or below 1
        cdf = np.cumsum(probs, axis=1)
        near = np.concatenate([cdf - 2.0**-53, cdf, cdf + 2.0**-53], axis=1)
        pool = np.concatenate([near[(near >= 0.0) & (near < 1.0)], [0.0, 1.0 - 2.0**-53],
                               gen.random(8)])
        draws = gen.choice(pool, size=(blocks, shots))  # so a draw can sit on a cdf value
        assert np.all(draws == np.floor(draws * 2.0**53) * 2.0**-53)
        given = draws.copy()
        got = sample_from_probs(probs, given)
        assert np.array_equal(given, np.sort(draws, axis=1))  # sorted in place
        expected = np.stack([_counts(p, u) for p, u in zip(probs, draws)])
        assert got.shape == probs.shape and got.dtype.kind == "i"
        assert np.array_equal(got, expected), case


def test_draws_need_the_leading_shape_of_probs_and_a_shot():
    probs = np.full((2, 13, 32), 1 / 32)
    for shape in [(1, 13, 8), (2, 8), (26, 8), (2, 13), (2, 13, 0)]:
        with pytest.raises(ValueError, match="need draws of shape"):
            sample_from_probs(probs, np.zeros(shape))


def test_zero_shots_rejected():
    with pytest.raises(ValueError, match="shots"):
        sample_indices(QuantumState(1), 0, Rng(0))
