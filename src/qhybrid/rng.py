"""Deterministic pseudo-randomness: xoshiro256++ seeded via splitmix64.

The generator is pinned to this exact algorithm, so a seed gives the same
stream on every machine and through both implementations below. Trained
artifacts also pass through BLAS matrix products, so they repeat byte for
byte for a given OpenBLAS kernel; the pipeline runs BLAS on one thread, so
the thread count does not matter. A raw 64-bit output word w gives the float
``(w >> 11) * 2**-53``, uniform in [0, 1).

Every draw goes through one door, :meth:`Rng.uniform`. It checks the count
once and converts the words to floats once; the stream's state advances in
place. The raw words come from one of two paths, chosen by the count; both
yield the identical stream and leave the identical state behind.

* The scalar path (:func:`_scalar_words`) steps the generator one word at a
  time on Python integers. Calls below ``_LANE_MIN`` draws use it, where
  array set-up would cost more than the loop, and the tests use it as the
  reference.
* The lane path (:func:`_lane_words`) serves larger calls. The xoshiro256++
  state transition T is linear over GF(2), so T^m is a 256x256 bit matrix
  (Blackman & Vigna, arXiv:1805.01407). The path cuts the n draws into L
  lanes of C = 2^k consecutive steps, with C taken from n, moves lane j to
  T^(jC) s with cached jump tables T^(2^b), then steps all L lanes together
  with uint64 array operations. Read lane after lane, the outputs are the
  sequential stream.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_FLOAT_SCALE = 2.0**-53
# Smallest call served by the lane path. Measured on a 2-core x86-64 box
# with one BLAS thread: at 256 draws the scalar loop is still faster, from
# 512 draws on the lanes are.
_LANE_MIN = 512


def _splitmix64(z: int) -> tuple[int, int]:
    """One splitmix64 step: returns (advanced state, output word)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    w = z
    w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z, w ^ (w >> 31)


def _seed_state(seed: int) -> np.ndarray:
    """Expand a 64-bit root seed into the four xoshiro256++ state words."""
    z = seed & _MASK64
    words = []
    for _ in range(4):
        z, w = _splitmix64(z)
        words.append(w)
    return np.array(words, dtype=np.uint64)


def _scalar_words(state: np.ndarray, n: int) -> np.ndarray:
    """The next n raw output words, one step at a time; advances state by n."""
    s0, s1, s2, s3 = state.tolist()
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        tmp = (s0 + s3) & _MASK64
        out[i] = ((((tmp << 23) | (tmp >> 41)) & _MASK64) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    state[:] = (s0, s1, s2, s3)
    return out


def _step_lanes(s: np.ndarray) -> None:
    """One xoshiro256++ state step, in place, for a (4, L) array of L states."""
    s0, s1, s2, s3 = s
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    t = s3 << 45
    s3 >>= 19
    s3 |= t


def _to_bits(states: np.ndarray) -> np.ndarray:
    """(m, 4) uint64 states -> (m, 256) uint8 bits; bit 64*w + j is bit j of word w."""
    raw = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_bits`."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


# Every table T^(2^b) a 64-bit draw count can need, in one block reserved at
# import; np.zeros leaves a page untouched until a table is written to it.
# Small tables allocated one by one between large lane temporaries would sit
# on the heap and keep the memory freed below them from being returned,
# which raised peak RSS.
_JUMP_TABLES = np.zeros((64, 256, 4), dtype=np.uint64)


def _jump_table(b: int) -> np.ndarray:
    """T^(2^b) as a (256, 4) uint64 array, one state per row; built on first use.

    Row i is where the state whose only set bit is bit i lands after 2^b
    steps, so T^(2^b) s is the XOR of the rows picked by the set bits of s.
    T is invertible, so a built table is never all zero.
    """
    table = _JUMP_TABLES[b]
    if not table.any():
        if b == 0:
            lanes = _from_bits(np.eye(256, dtype=np.uint8)).T.copy()
            _step_lanes(lanes)
            table[:] = lanes.T
        else:
            table[:] = _jump(_jump_table(b - 1), b - 1)
    return table


def _jump(states: np.ndarray, b: int) -> np.ndarray:
    """Advance each row of an (m, 4) uint64 state array by 2^b steps."""
    # float32 sums of at most 256 ones are exact; their parity is the XOR.
    matrix = _to_bits(_jump_table(b)).astype(np.float32)
    counts = _to_bits(states).astype(np.float32) @ matrix
    return _from_bits((counts.astype(np.int32) & 1).astype(np.uint8))


def _lane_steps(n: int) -> int:
    """Lane length C for an n-draw call: a power of two near sqrt(n) / 2.

    This balances the per-step numpy call overhead, paid C times, against
    the cost of jumping, paid once per lane.
    """
    return 1 << max(n.bit_length() // 2 - 1, 0)


def _lane_words(state: np.ndarray, n: int) -> np.ndarray:
    """The next n raw output words of a (4,) state, computed in lanes
    together; advances the state by n."""
    steps = _lane_steps(n)
    n_lanes = -(-n // steps)
    starts = state[None, :]
    b = steps.bit_length() - 1
    while len(starts) < n_lanes:
        # Lanes [m, 2m) start m * steps = 2^b draws after lanes [0, m).
        starts = np.concatenate([starts, _jump(starts[: n_lanes - len(starts)], b)])
        b += 1
    s = starts.T.copy()
    s0 = np.empty((steps, n_lanes), dtype=np.uint64)
    s3 = np.empty_like(s0)
    last = n - (n_lanes - 1) * steps  # steps the last lane contributes
    for i in range(steps):
        s0[i] = s[0]
        s3[i] = s[3]
        _step_lanes(s)
        if i + 1 == last:  # the last lane has made its draws: its state is the end
            state[:] = s[:, -1]
    words = s0 + s3
    rot = words >> 41
    words <<= 23
    words |= rot
    words += s0
    return words.T.reshape(-1)[:n]  # read lane after lane: the sequential stream


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


class Rng:
    """A single xoshiro256++ stream.

    Single-owner mutable: one consumer draws from one stream. Independent
    streams for other consumers (the stages, a training run's Dropout
    masks, a transform's shot noise) come from :meth:`split`, which derives
    a child purely from (state, label) without advancing this stream.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _seed_state(int(seed))

    def uniform(self, n: int) -> np.ndarray:
        """n float64 values in [0, 1); advances the stream by exactly n draws."""
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        words = _scalar_words if n < _LANE_MIN else _lane_words
        return (words(self._state, n) >> 11) * _FLOAT_SCALE

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), consuming n-1 draws."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        # draw k swaps i = n - 1 - k with j = min(int(u[k] * (i + 1)), i): every j
        # in one vector op, then the swaps on Python ints through memoryviews
        top = np.arange(n - 1, 0, -1)
        js = (self.uniform(n - 1) * (top + 1)).astype(np.int64)
        np.minimum(js, top, out=js)
        p = memoryview(perm)
        for i, j in zip(range(n - 1, 0, -1), memoryview(js)):
            p[i], p[j] = p[j], p[i]
        return perm

    def split(self, label: str) -> "Rng":
        """Derive an independent child stream from (state, label).

        Pure: the parent stream is not advanced, so the same (state, label)
        always yields the same child regardless of call order. Use distinct
        labels for distinct children.
        """
        return Rng(_fnv1a64(self._state.astype("<u8").tobytes() + label.encode("utf-8")))

    def __repr__(self) -> str:
        return f"Rng(state={[hex(int(w)) for w in self._state]})"
