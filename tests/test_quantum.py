import math

import numpy as np
import pytest
from helpers import chi_square

from qhybrid.qfeatures import _CHAIN_SOURCE, binomial, sample_from_probs
from qhybrid.quantum import (
    CNOT,
    Circuit,
    H,
    QuantumState,
    Ry,
    apply_gate,
    marginals,
    sample_indices,
    simulate,
)
from qhybrid.rng import Rng

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


def _chop_down(n, p, u):
    """The documented search for one variate, term by term on Python floats:
    (variate, whether both tails ran out). log, log1p and exp are numpy's, as
    in the kernel; everything else is IEEE arithmetic in the kernel's order."""
    if p >= 1.0:
        return n, False
    if n == 0 or p < np.finfo(np.float64).tiny:
        return 0, False
    m = min(math.floor((n + 1) * p), n)
    log_fact = [math.lgamma(k + 1.0) for k in (n, m, n - m)]
    f = float(np.exp(log_fact[0] - log_fact[1] - log_fact[2]
                     + m * np.log(p) + (n - m) * np.log1p(-p)))
    u -= f
    if u < 0.0:
        return m, False
    odds = p / (1.0 - p)
    f_hi = f_lo = f
    j = 0
    while f_hi > 0.0 or f_lo > 0.0:
        j += 1
        f_hi *= (n - m - (j - 1)) / (m + j) * odds
        u -= f_hi
        if u < 0.0:
            return m + j, False
        f_lo *= (m - (j - 1)) / (n - m + j) / odds
        u -= f_lo
        if u < 0.0:
            return m - j, False
    return m, True


def test_binomial_follows_the_documented_search():
    gen = np.random.default_rng(31)
    n = gen.integers(0, 300, 4000)
    p = gen.random(4000) ** gen.integers(1, 6, 4000)  # many small p
    u = gen.random(4000)
    p[::7], p[::11], n[::13], u[::17] = 0.0, 1.0, 0, 0.0
    got = binomial(n, p, u)
    assert got.shape == (4000,) and got.dtype == np.int64
    expected = [_chop_down(int(a), float(b), float(c))[0] for a, b, c in zip(n, p, u)]
    assert np.array_equal(got, expected)


def test_binomial_edge_cases():
    u = Rng(3).uniform(6)
    assert np.array_equal(binomial(7, np.zeros(6), u), np.zeros(6))
    assert np.array_equal(binomial(7, np.ones(6), u), np.full(6, 7))
    assert np.array_equal(binomial(0, np.full(6, 0.4), u), np.zeros(6))
    assert np.array_equal(binomial(1024, np.full(6, 1e-310), u), np.zeros(6))  # subnormal p
    assert binomial(np.arange(4).reshape(2, 2), 0.5, 0.0).shape == (2, 2)
    assert np.array_equal(binomial(np.array([9, 10]), 0.5, 0.0), [5, 5])  # u = 0: the mode


def test_binomial_falls_back_to_the_mode_when_both_tails_run_out():
    top = 1.0 - 2.0**-53  # the largest draw
    cases = [(n, p) for n in range(4, 16) for p in (0.3, 0.4, 0.5, 0.6)
             if _chop_down(n, p, top)[1]]
    assert cases  # the rounded terms add up to less than the draw in many of them
    n, p = np.array(cases).T
    modes = np.minimum(np.floor((n + 1) * p), n)
    assert 0 < modes.min() and np.all(modes < n)  # the mode, not a tail's last term
    assert np.array_equal(binomial(n.astype(np.int64), p, np.full(len(cases), top)), modes)


@pytest.mark.parametrize("n, p", [(1024, 0.5), (1024, 0.003), (1024, 0.97), (7, 0.3), (4, 0.9)])
def test_binomial_law_chi_square(n, p):
    draws = 40_000
    counts = np.bincount(binomial(n, p, Rng(n + int(p * 1000)).uniform(draws)), minlength=n + 1)
    expected = np.array([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])
    chi2, bound = chi_square(counts, expected * draws)
    assert chi2 < bound, (chi2, bound)


def _one_qubit_probs(gen, shape):
    probs = gen.random(shape)
    probs[..., 1] = 0.0  # qubit 1 never 1
    probs[..., 2] = 1.0  # qubit 2 always 1
    return probs


def test_stacked_sampling_matches_per_block_calls():
    probs = _one_qubit_probs(np.random.default_rng(6), (13, 5))
    for layout, draws in (("marginal", 9), ("histogram", 31)):
        stacked_rng, loop_rng = Rng(12), Rng(12)
        stacked = sample_from_probs(probs, stacked_rng.uniform(13 * draws).reshape(13, draws),
                                    1024, layout)
        expected = np.stack([sample_from_probs(q, loop_rng.uniform(draws), 1024, layout)
                             for q in probs])
        assert stacked.shape == (13, 5 if layout == "marginal" else 32)
        assert np.array_equal(stacked, expected)
        assert np.array_equal(stacked_rng._state, loop_rng._state)


@pytest.mark.parametrize("shots", [1, 2, 3, 5, 32, 33])
def test_stream_stack_matches_one_call_per_row(shots):
    probs = _one_qubit_probs(np.random.default_rng(shots), (4, 3, 5))
    # the rows' uniforms are consecutive slices of one stream, drawn in one call
    for layout, draws in (("marginal", 9), ("histogram", 31)):
        stream, single = Rng(13).split("rows"), Rng(13).split("rows")
        u = stream.uniform(4 * 3 * draws).reshape(4, 3, draws)
        got = sample_from_probs(probs, u, shots, layout)
        for row, q in zip(got, probs):
            expected = sample_from_probs(q, single.uniform(3 * draws).reshape(3, draws), shots,
                                         layout)
            assert np.array_equal(row, expected)
        assert np.array_equal(stream._state, single._state)
        if layout == "histogram":
            assert np.all(got.sum(axis=-1) == shots)
            bits = (_CHAIN_SOURCE[:, None] >> np.arange(5)) & 1  # counts come in chain order
            assert np.all(got[..., bits[:, 1] == 1] == 0)  # qubit 1 is never 1 ...
            assert np.all(got[..., bits[:, 2] == 0] == 0)  # ... and qubit 2 always
        else:
            assert np.all((got >= 0) & (got <= shots))
            assert np.array_equal(got[..., 1], got[..., 0])  # qubit 1 flips no parity
            assert np.array_equal(got[..., 2], shots - got[..., 1])  # qubit 2 flips every one


def test_draws_need_the_leading_shape_of_probs_and_a_shot():
    probs = np.full((2, 13, 5), 0.5)
    for layout, shape in [("marginal", (2, 13, 31)), ("marginal", (13, 9)),
                          ("marginal", (2, 13)), ("histogram", (2, 13, 9)),
                          ("histogram", (1, 13, 31)), ("histogram", (2, 13, 0))]:
        with pytest.raises(ValueError, match="need .* draws of shape"):
            sample_from_probs(probs, np.zeros(shape), 1024, layout)
    with pytest.raises(ValueError, match="shots >= 1"):
        sample_from_probs(probs, np.zeros((2, 13, 9)), 0, "marginal")


def test_zero_shots_rejected():
    with pytest.raises(ValueError, match="shots"):
        sample_indices(QuantumState(1), 0, Rng(0))
