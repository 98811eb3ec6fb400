"""Seeded random streams, bit-identical to NumPy's ``default_rng``.

:class:`SeedSequence` reproduces NumPy's ``np.random.SeedSequence``: the
entropy words are hashed into a four-word pool, children are spawned by
appending their index to the spawn key, and ``generate_state`` hashes the
pool out into seed words.  :class:`Stream` is NumPy's PCG64 bit generator
(XSL-RR 128/64, O'Neill 2014) seeded from such a sequence.  Its 32-bit
outputs are the low then the high half of each 64-bit output, as in NumPy.
The stream draws the bounded integers of ``Generator.integers``: 32-bit
Lemire multiplication with rejection.  So ``Stream.from_seed(s)`` gives the
draws of ``np.random.default_rng(s)``, and ``Stream(SeedSequence(e))`` those
of ``np.random.default_rng(np.random.SeedSequence(e))``, without NumPy.
"""

from __future__ import annotations

import copy
from typing import Sequence

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; ``[0]`` for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


class SeedSequence:
    """NumPy's ``SeedSequence`` for integer entropy (one or several ints).

    The entropy words are hashed into a four-word pool; words beyond the
    fourth, then each spawn-key index, are absorbed one by one.  NumPy
    rehashes a child's entropy, padded to four words, and its whole spawn
    key.  The padding repeats the zeros hashed in for a short entropy, so a
    child equals its parent's pool with its own index absorbed, which is how
    :meth:`spawn` builds it.
    """

    def __init__(self, entropy: int | Sequence[int]):
        self.n_children_spawned = 0
        values = [entropy] if isinstance(entropy, int) else entropy
        words = [word for value in values for word in _words(value)]
        self._hash_const = _INIT_A
        pool = [self._hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], self._hashmix(pool[src]))
        self.pool = pool
        self._absorb(words[_POOL_SIZE:])

    def _hashmix(self, value: int) -> int:
        value ^= self._hash_const
        self._hash_const = (self._hash_const * _MULT_A) & _MASK32
        value = (value * self._hash_const) & _MASK32
        return value ^ (value >> 16)

    def _absorb(self, words: list[int]) -> None:
        for word in words:
            for dst in range(_POOL_SIZE):
                self.pool[dst] = _mix(self.pool[dst], self._hashmix(word))

    def spawn(self, n_children: int) -> list[SeedSequence]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        children = []
        for i in range(start, start + n_children):
            child = copy.copy(self)
            child.pool = list(self.pool)
            child.n_children_spawned = 0
            child._absorb(_words(i))
            children.append(child)
        return children

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 32-bit seed words hashed out of the pool."""
        const = _INIT_B
        out = []
        for i in range(n_words):
            value = self.pool[i % _POOL_SIZE] ^ const
            const = (const * _MULT_B) & _MASK32
            value = (value * const) & _MASK32
            out.append(value ^ (value >> 16))
        return out


class Stream:
    """A PCG64 stream seeded like ``np.random.default_rng(seed_sequence)``."""

    def __init__(self, seed_sequence: SeedSequence):
        w = seed_sequence.generate_state(8)
        # NumPy reads the words as four little-endian uint64 values: the
        # initial state (high, low), then the stream selector (high, low).
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._high: int | None = None  # unused upper half of the last 64-bit output

    @classmethod
    def from_seed(cls, seed: int) -> Stream:
        """The stream of ``np.random.default_rng(seed)``."""
        return cls(SeedSequence(seed))

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        value = self._next64()
        self._high = value >> 32
        return value & _MASK32

    def signs(self, p: int) -> list[int]:
        """``p`` Rademacher signs: ``integers(0, 2, size=p) * 2 - 1``."""
        return [(self._next32() >> 31) * 2 - 1 for _ in range(p)]

    def below(self, k: int) -> int:
        """A uniform integer in ``[0, k)``: ``integers(k)`` for ``1 <= k < 2**32``."""
        if not 1 <= k < 1 << 32:
            raise ValueError(f"bound {k} outside [1, 2**32)")
        if k == 1:
            return 0  # NumPy draws nothing from a one-value range
        m = self._next32() * k
        if m & _MASK32 < k:
            threshold = (1 << 32) % k
            while m & _MASK32 < threshold:
                m = self._next32() * k
        return m >> 32
