import hashlib
import itertools
import math

import numpy as np
import pytest
from helpers import chi_square

from qhybrid.qfeatures import (
    N_BLOCKS,
    CHUNK_VALUES,
    MAX_SHOTS,
    ScalingStats,
    block_angles,
    block_probabilities,
    build_block_circuit,
    encode_angles,
    scale_unit,
    transform_features,
)
from qhybrid.quantum import CNOT, H, Ry, marginals, simulate
from qhybrid.rng import Rng

SQRT1_2 = 1.0 / np.sqrt(2.0)


def unit_stats(width=64):
    return ScalingStats(minimum=np.zeros(width), maximum=np.ones(width))


def test_encode_angle_fixtures():
    assert encode_angles(np.array([1.0]))[0] == 0.0
    assert encode_angles(np.array([0.0]))[0] == pytest.approx(np.pi, abs=1e-15)
    assert encode_angles(np.array([0.5]))[0] == pytest.approx(2 * np.pi / 3, abs=1e-15)


def test_encode_clamps_out_of_range():
    thetas = encode_angles(np.array([-3.0, 7.0]))
    assert thetas[0] == pytest.approx(np.pi)
    assert thetas[1] == 0.0
    assert np.all((thetas >= 0.0) & (thetas <= np.pi))


def test_block_circuit_structure():
    circuit = build_block_circuit(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
    assert len(circuit.gates) == 14
    for q in range(5):
        gate = circuit.gates[q]
        assert isinstance(gate, Ry) and gate.target == q
        assert isinstance(circuit.gates[5 + q], H) and circuit.gates[5 + q].target == q
    for i in range(4):
        gate = circuit.gates[10 + i]
        assert isinstance(gate, CNOT) and (gate.control, gate.target) == (i, i + 1)


def test_block_circuit_wrong_angle_count():
    with pytest.raises(ValueError, match="5 angles"):
        build_block_circuit(np.array([0.1, 0.2]))


def test_block_circuit_matches_dense_oracle():
    from test_quantum import circuit_unitary

    rng = np.random.default_rng(6)
    for _ in range(5):
        circuit = build_block_circuit(rng.uniform(0, np.pi, size=5))
        state = simulate(circuit)
        expected = circuit_unitary(circuit)[:, 0]
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def test_all_theta_zero_gives_uniform_distribution():
    state = simulate(build_block_circuit(np.zeros(5)))
    assert np.max(np.abs(state.probabilities() - 1.0 / 32)) < 1e-12
    assert np.max(np.abs(marginals(state) - 0.5)) < 1e-12


def test_inverse_sqrt2_input_lands_on_ground_state():
    thetas = encode_angles(np.full(5, SQRT1_2))
    state = simulate(build_block_circuit(thetas))
    assert abs(state.probabilities()[0] - 1.0) < 1e-12


def test_ghz_chain_marginals():
    # q0 encodes 1.0 (stays |+> after H), the rest encode 1/sqrt(2) (become
    # |0>), so the CNOT chain spreads q0's superposition into a GHZ state
    thetas = encode_angles(np.array([1.0, SQRT1_2, SQRT1_2, SQRT1_2, SQRT1_2]))
    state = simulate(build_block_circuit(thetas))
    probs = state.probabilities()
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[31] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(marginals(state) - 0.5)) < 1e-12


@pytest.mark.parametrize("layout", ["marginal", "histogram"])
def test_closed_form_matches_statevector_oracle(layout):
    # x = 1, 1/sqrt(2), 0 encode theta = 0, pi/2, pi; every row also carries
    # the pad slot (theta = 0) as its last qubit
    latents = Rng(12).uniform(6 * 64).reshape(6, 64)
    latents[0] = 1.0
    latents[1] = SQRT1_2
    latents[2] = 0.0
    latents[3, ::3] = [1.0, SQRT1_2, 0.0] * 7 + [1.0]
    stats = unit_stats()
    feats = transform_features(latents, stats, layout=layout)
    thetas = block_angles(scale_unit(latents, stats))
    assert {0.0, np.pi}.issubset(thetas.ravel().tolist())
    assert np.any(np.abs(thetas - np.pi / 2) < 1e-15)
    for r in range(len(latents)):
        states = [simulate(build_block_circuit(t)) for t in thetas[r]]
        if layout == "marginal":
            expected = np.concatenate([marginals(s) for s in states])
        else:
            expected = np.concatenate([s.probabilities() for s in states])
        assert np.max(np.abs(feats[r] - expected)) <= 1e-14


def test_scale_unit_maps_to_unit_interval():
    stats = ScalingStats(minimum=np.array([0.0, 10.0]), maximum=np.array([2.0, 30.0]))
    scaled = scale_unit(np.array([[1.0, 20.0], [2.0, 10.0]]), stats)
    assert scaled.tolist() == [[0.5, 0.5], [1.0, 0.0]]


def test_scale_unit_clamps_inference_values():
    stats = ScalingStats(minimum=np.zeros(1), maximum=np.ones(1))
    scaled = scale_unit(np.array([[-5.0], [9.0]]), stats)
    assert scaled.tolist() == [[0.0], [1.0]]


def test_scale_unit_degenerate_feature_becomes_half():
    stats = ScalingStats(minimum=np.array([3.0]), maximum=np.array([3.0]))
    assert scale_unit(np.array([[3.0], [3.0]]), stats).tolist() == [[0.5], [0.5]]


def test_block_angles_pads_with_theta_zero():
    angles = block_angles(np.full((1, 64), 0.25))
    assert angles.shape == (1, N_BLOCKS, 5)
    assert angles[0, -1, -1] == 0.0  # pad value 1.0 encodes to theta 0


def test_transform_width_64_to_65():
    latents = Rng(1).uniform(3 * 64).reshape(3, 64)
    feats = transform_features(latents, ScalingStats.fit(latents))
    assert feats.shape == (3, 65)
    assert np.all((feats >= 0.0) & (feats <= 1.0))


def test_transform_histogram_layout_width():
    latents = Rng(2).uniform(2 * 64).reshape(2, 64)
    feats = transform_features(latents, ScalingStats.fit(latents), layout="histogram")
    assert feats.shape == (2, 416)
    sums = feats.reshape(2, 13, 32).sum(axis=2)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_row_at_feature_max_gives_all_half():
    rng = Rng(3)
    latents = rng.uniform(5 * 64).reshape(5, 64)
    stats = ScalingStats.fit(latents)
    feats = transform_features(stats.maximum.reshape(1, 64), stats)
    assert np.max(np.abs(feats - 0.5)) < 1e-12


def test_exact_mode_deterministic():
    latents = Rng(4).uniform(4 * 64).reshape(4, 64)
    stats = ScalingStats.fit(latents)
    assert np.array_equal(transform_features(latents, stats),
                          transform_features(latents, stats))


@pytest.mark.parametrize("layout", ["marginal", "histogram"])
def test_exact_mode_in_row_chunks_matches_one_pass(layout, monkeypatch):
    # 2000 values a chunk: 4 rows in either layout, the last chunk short
    monkeypatch.setattr("qhybrid.qfeatures.CHUNK_VALUES", 2000)
    stats = ScalingStats.fit(Rng(5).uniform(40 * 64).reshape(40, 64) * 4.0 - 2.0)
    latents = Rng(6).uniform(37 * 64).reshape(37, 64) * 4.0 - 2.0
    whole = block_probabilities(block_angles(scale_unit(latents, stats)), layout)
    features = transform_features(latents, stats, layout=layout)
    assert features.tobytes() == whole.reshape(37, -1).tobytes()


def test_sampled_mode_deterministic_per_seed():
    latents = Rng(5).uniform(2 * 64).reshape(2, 64)
    stats = ScalingStats.fit(latents)
    a = transform_features(latents, stats, mode="sampled", shots=64, rng=Rng(7))
    b = transform_features(latents, stats, mode="sampled", shots=64, rng=Rng(7))
    c = transform_features(latents, stats, mode="sampled", shots=64, rng=Rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampled_matches_exact_within_binomial_bound():
    # individual features exceed 3 sigma at the ~0.3% binomial rate, so a
    # small violation allowance is part of the contract
    latents = Rng(6).uniform(3 * 64).reshape(3, 64)
    stats = ScalingStats.fit(latents)
    exact = transform_features(latents, stats)
    sampled = transform_features(latents, stats, mode="sampled", shots=4096, rng=Rng(11))
    gaps = np.abs(sampled - exact)
    bound = 3.0 * np.sqrt(0.25 / 4096)
    assert int((gaps >= bound).sum()) <= 2
    assert gaps.mean() < 0.01


def _exact_count_law(probs, shots, layout):
    """{counts: probability} of ``shots`` draws from the 32-outcome law probs,
    enumerated over every multiset of outcomes; marginal counts are the bit
    counts of the outcome histogram."""
    bits = (np.arange(32)[:, None] >> np.arange(5)) & 1
    law = {}
    for combo in itertools.combinations_with_replacement(range(32), shots):
        counts = np.bincount(combo, minlength=32)
        ways = math.factorial(shots) // math.prod(math.factorial(c) for c in counts)
        key = tuple((counts if layout == "histogram" else counts @ bits).tolist())
        law[key] = law.get(key, 0.0) + ways * math.prod(probs[list(combo)])
    return law


@pytest.mark.parametrize("layout", ["marginal", "histogram"])
def test_sampled_counts_follow_the_exact_law_at_4_shots(layout):
    # Every block of every row gets the same angles: x = 1.0 on qubit 4 is
    # also the pad value, and unit stats leave the latents unscaled.
    x = np.array([0.99, 0.9, 0.2, 0.1, 1.0])
    rows, shots = 8000, 4
    latents = np.tile(np.tile(x, N_BLOCKS)[:64], (rows, 1))
    probs = block_probabilities(encode_angles(x), "histogram")
    law = _exact_count_law(probs, shots, layout)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    feats = transform_features(latents, unit_stats(), mode="sampled", shots=shots, rng=Rng(44),
                               layout=layout)
    counts = np.rint(feats * shots).astype(np.int64).reshape(rows * N_BLOCKS, -1)
    keys, observed = np.unique(counts, axis=0, return_counts=True)
    seen = dict(zip(map(tuple, keys.tolist()), observed.tolist()))
    assert set(seen) <= set(law)  # no impossible count vector
    chi2, bound = chi_square([seen.get(key, 0) for key in law],
                             [prob * rows * N_BLOCKS for prob in law.values()])
    assert chi2 < bound, (chi2, bound)


@pytest.mark.parametrize("layout", ["marginal", "histogram"])
def test_sampled_row_depends_only_on_its_latents_and_index(layout, monkeypatch):
    stats = ScalingStats.fit(Rng(2).uniform(40 * 64).reshape(40, 64) * 4.0 - 2.0)
    latents = Rng(3).uniform(11 * 64).reshape(11, 64) * 4.0 - 2.0
    kwargs = dict(mode="sampled", shots=256, rng=Rng(21), layout=layout)
    whole = transform_features(latents, stats, **kwargs)  # one chunk
    others = Rng(4).uniform(11 * 64).reshape(11, 64) * 4.0 - 2.0
    others[6] = latents[6]
    beside = transform_features(others, stats, **kwargs)
    # 2000 values a chunk: 4 rows, so three chunks, the last one short
    monkeypatch.setattr("qhybrid.qfeatures.CHUNK_VALUES", 2000)
    chunked = transform_features(latents, stats, **kwargs)
    assert chunked.tobytes() == whole.tobytes()
    assert beside[6].tobytes() == whole[6].tobytes()
    assert not np.array_equal(beside[5], whole[5])
    assert transform_features(latents[:7], stats, **kwargs).tobytes() == whole[:7].tobytes()


# sha256 of the sampled features' bytes, recorded from the binomial sampler
# (marginal: 9 uniforms per block, histogram: 31) with the rows' uniforms taken
# as consecutive slices of one stream: (layout, rows, shots) -> digest
SAMPLED_DIGESTS = {
    ("marginal", 0, 1024): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("marginal", 1, 1024): "947e7378d4cc5859a070dc43b3998f9e82bd56a7c0c578062e1af959cc3b2ca2",
    ("marginal", 10, 1024): "10331019d0b27131315f86d2ed96812f43570bdc22599c283f5c90601f04f8eb",
    ("marginal", 5, 4096): "c3852c19b01178718e3f623fdeac866727c8be72c98f0099db138e34a7500b6d",
    ("marginal", 3, 1): "d9faaabd4c30c9e05531453154e9f26886d51e115a0853e9e23ef297e0b477b3",
    ("marginal", 700, 1024): "c8ffef6dc5438b578ada9bd58c709d261cae9ac5df474d84ec24523cc73f714f",
    ("histogram", 0, 1024): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("histogram", 1, 1024): "83951b995e1faeaf631769f255decbd94b0b62f0d48a9153a1f3e6ab56ee8fc3",
    ("histogram", 10, 1024): "4dcda2bf2214688114dc5d96813c159e05abcd5cbdb5dc0eb27048ca69a84117",
    ("histogram", 5, 4096): "c4b3deb9dbb74951b4e961ca51559e70277795b9ee79619d824c7d2b1ddb5bae",
    ("histogram", 3, 1): "c110a496d45ed27829f052610853b320c273b6c13ac9b0d39a11342052408e36",
    ("histogram", 700, 1024): "c35ee120b78ddaa26d0a3a4c074d7e97718b95c0f3f475c3bd18e9404466fdbb",
}


@pytest.mark.parametrize("layout, n_rows, shots", list(SAMPLED_DIGESTS))
def test_sampled_features_match_pinned_digests(layout, n_rows, shots):
    # 700 rows are three chunks (315, 315, 70), the rest one; below 512 draws
    # a chunk (one or three marginal rows, one histogram row) take the scalar path
    assert CHUNK_VALUES // (N_BLOCKS * 32) == 315
    stats = ScalingStats.fit(Rng(2).uniform(40 * 64).reshape(40, 64) * 4.0 - 2.0)
    latents = Rng(3).uniform(n_rows * 64).reshape(n_rows, 64) * 4.0 - 2.0
    features = transform_features(latents, stats, mode="sampled", shots=shots, rng=Rng(21),
                                  layout=layout)
    assert features.shape == (n_rows, N_BLOCKS * (5 if layout == "marginal" else 32))
    assert hashlib.sha256(features.tobytes()).hexdigest() == SAMPLED_DIGESTS[layout, n_rows, shots]


def test_transform_validation():
    latents = Rng(8).uniform(2 * 64).reshape(2, 64)
    stats = ScalingStats.fit(latents)
    with pytest.raises(ValueError, match="64"):
        transform_features(latents[:, :32], stats)
    with pytest.raises(ValueError, match="stats"):
        transform_features(latents, None)
    with pytest.raises(ValueError, match="rng"):
        transform_features(latents, stats, mode="sampled")
    with pytest.raises(ValueError, match="mode"):
        transform_features(latents, stats, mode="noisy")
    for shots in (0, MAX_SHOTS + 1):
        with pytest.raises(ValueError, match="shots"):
            transform_features(latents, stats, mode="sampled", shots=shots, rng=Rng(0))
