import numpy as np
import pytest

from qhybrid.rng import _LANE_MIN, Rng, _jump, _lane_steps, _scalar_words

# First eight outputs per seed, frozen as regression fixtures.
PINNED = {
    0: [
        0.3245752680314067, 0.38223929651167343, 0.3596172076473553,
        0.011455508934653635, 0.49527006868383106, 0.020565239559745874,
        0.8572473990158933, 0.8455088078683693,
    ],
    42: [
        0.8143051451229099, 0.3188210400616611, 0.9838941681774888,
        0.7011355981347556, 0.793504489691729, 0.5880984664675596,
        0.1253524420627421, 0.6051224486571726,
    ],
}

# First three outputs of Rng(42).split("a"), frozen once.
PINNED_SPLIT_A = [0.42914267583375465, 0.34900833862281744, 0.32824814583310735]


def test_pinned_sequences():
    for seed, expected in PINNED.items():
        got = Rng(seed).uniform(8)
        assert got.tolist() == expected


def test_same_seed_same_triples():
    assert np.array_equal(Rng(42).uniform(3), Rng(42).uniform(3))


def test_zero_draws_leaves_state_unchanged():
    rng = Rng(42)
    before = rng._state.copy()
    out = rng.uniform(0)
    assert out.shape == (0,)
    assert np.array_equal(rng._state, before)
    # the next draw is the same as if uniform(0) never happened
    assert rng.uniform(1)[0] == PINNED[42][0]
    with pytest.raises(ValueError, match="draw count"):
        rng.uniform(-1)


def test_split_differs_from_parent_stream():
    rng = Rng(42)
    child = rng.split("a")
    child_out = child.uniform(3)
    assert child_out.tolist() == PINNED_SPLIT_A
    assert child_out[0] != PINNED[42][0]


def test_split_is_pure_and_label_sensitive():
    rng = Rng(7)
    before = rng._state.copy()
    a1 = rng.split("a").uniform(4)
    a2 = rng.split("a").uniform(4)
    b = rng.split("b").uniform(4)
    assert np.array_equal(rng._state, before)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_bulk_matches_single_draw_path():
    # one uniform(16) call and 16 uniform(1) calls consume the same stream
    bulk_rng, single_rng = Rng(9), Rng(9)
    bulk = bulk_rng.uniform(16)
    singles = np.concatenate([single_rng.uniform(1) for _ in range(16)])
    assert np.array_equal(bulk, singles)
    assert np.array_equal(bulk_rng._state, single_rng._state)


def _scalar_uniform(state, n):
    return (_scalar_words(state, n) >> 11) * 2.0**-53


# Sizes either side of the scalar/lane crossover, a whole number of lanes and
# one draw past it, 13 * 1024 (208 whole lanes), the draw of one 315-row
# sampled chunk (13 blocks x 9 uniforms, and x 31), and the 784x256 weight init.
FALLBACK_SIZES = [_LANE_MIN - 1, _LANE_MIN, _LANE_MIN + 1, 4096, 4097, 13 * 1024,
                  315 * 13 * 9, 315 * 13 * 31, 784 * 256]


@pytest.mark.parametrize("n", FALLBACK_SIZES)
@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_python_fallback_matches_fast_path(seed, n):
    assert 4096 % _lane_steps(4096) == 0 and 4097 % _lane_steps(4097) == 1
    fast = Rng(seed)
    got = fast.uniform(n)
    slow = Rng(seed)
    assert np.array_equal(got, _scalar_uniform(slow._state, n))
    assert np.array_equal(fast._state, slow._state)


def test_mixed_call_sizes_continue_one_stream():
    sizes = [1, 3, 700, 2, _LANE_MIN, 16, 20_000, 5]
    rng = Rng(77)
    got = np.concatenate([rng.uniform(n) for n in sizes])
    slow = Rng(77)
    assert np.array_equal(got, _scalar_uniform(slow._state, sum(sizes)))
    assert np.array_equal(rng._state, slow._state)


@pytest.mark.parametrize("b", range(7))
def test_jump_table_matches_scalar_steps(b):
    states = _scalar_words(Rng(b).split("states")._state, 5 * 4).reshape(5, 4)
    jumped = _jump(states, b)
    for state, expected in zip(states, jumped):
        _scalar_words(state, 2**b)
        assert np.array_equal(state, expected)


def test_uniform_range_and_count():
    out = Rng(1).uniform(10_000)
    assert out.shape == (10_000,)
    assert np.all(out >= 0.0) and np.all(out < 1.0)


def test_permutation_covers_range():
    for n in (0, 1, 2, 17, 100):
        perm = Rng(3).permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


def test_permutation_deterministic():
    assert np.array_equal(Rng(42).permutation(50), Rng(42).permutation(50))
    assert not np.array_equal(Rng(42).permutation(50), Rng(43).permutation(50))


def _loop_permutation(rng, n):
    # Fisher-Yates one draw at a time, as Rng.permutation was first written
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    u = rng.uniform(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(u[n - 1 - i] * (i + 1))
        if j > i:
            j = i
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 511, 512, 513, 5400])
def test_permutation_matches_the_per_element_loop(n):
    for seed in (0, 9):
        rng, reference = Rng(seed), Rng(seed)
        perm = rng.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tobytes() == _loop_permutation(reference, n).tobytes()
        assert np.array_equal(rng._state, reference._state)
