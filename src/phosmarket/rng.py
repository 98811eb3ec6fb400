"""Seeded random streams, bit-identical to NumPy's ``default_rng``.

:class:`SeedSequence` reproduces NumPy's ``np.random.SeedSequence``: the
entropy words are hashed into a four-word pool, children are spawned by
appending their index to the spawn key, and ``generate_state`` hashes the
pool out into seed words.  A replication's streams are seeded in one pass:
each child copies its parent's pool and absorbs one index word.
:class:`Stream` is NumPy's PCG64 bit generator (XSL-RR 128/64, O'Neill
2014) seeded from such a sequence.  Its 32-bit outputs are the low then the
high half of each 64-bit output, as in NumPy.  The stream draws the bounded
integers of ``Generator.integers``: 32-bit Lemire multiplication with
rejection.  So ``Stream(SeedSequence(e))`` gives the draws of
``np.random.default_rng(np.random.SeedSequence(e))``, which for an integer
``e`` are those of ``np.random.default_rng(e)``, without NumPy.
"""

from __future__ import annotations

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


def _absorb(pool: list[int], words: Sequence[int], const: int, skip: int = -1) -> int:
    """Hash each word into every pool word but ``skip``; return the next hash constant.

    NumPy's ``hashmix`` of the word, which advances the hash constant, then
    ``mix`` into the pool word, both written out in one loop.
    """
    for word in words:
        for dst in range(_POOL_SIZE):
            if dst != skip:
                value = (word ^ const) * (const := const * _MULT_A & _MASK32) & _MASK32
                value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
                pool[dst] = value ^ value >> 16
    return const


class SeedSequence:
    """NumPy's ``SeedSequence`` for integer entropy (one or several ints).

    The entropy words are hashed into a four-word pool; words beyond the
    fourth, then each spawn-key index, are absorbed one by one.  NumPy
    rehashes a child's entropy, padded to four words, and its whole spawn
    key.  The padding repeats the zeros hashed in for a short entropy, so a
    child equals its parent's pool with its own index absorbed, which is how
    :meth:`spawn` builds it: a copy of the pool and one :func:`_absorb` call
    per child, in a single pass over the children.
    """

    def __init__(self, entropy: int | Sequence[int]):
        self.n_children_spawned = 0
        values = [entropy] if isinstance(entropy, int) else entropy
        words = [word for value in values for word in _words(value)]
        # Each of the first four words (zero padded) is hashed alone into the
        # pool; then every pool word is hashed into the three others.
        const = _INIT_A
        self.pool = pool = []
        for word in (words + [0] * _POOL_SIZE)[:_POOL_SIZE]:
            value = (word ^ const) * (const := const * _MULT_A & _MASK32) & _MASK32
            pool.append(value ^ value >> 16)
        for src in range(_POOL_SIZE):
            const = _absorb(pool, [pool[src]], const, skip=src)
        self._hash_const = _absorb(pool, words[_POOL_SIZE:], const)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        children = []
        for i in range(start, start + n_children):
            child = SeedSequence.__new__(SeedSequence)
            child.n_children_spawned = 0
            child.pool = list(self.pool)
            child._hash_const = _absorb(child.pool, _words(i), self._hash_const)
            children.append(child)
        return children

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 32-bit seed words hashed out of the pool."""
        pool, const = self.pool, _INIT_B
        out = []
        for i in range(n_words):
            value = (pool[i % _POOL_SIZE] ^ const) * (const := const * _MULT_B & _MASK32) & _MASK32
            out.append(value ^ value >> 16)
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
        """``p`` Rademacher signs: ``integers(0, 2, size=p) * 2 - 1``.

        A sign is the top bit of a 32-bit half, so a 64-bit output gives two:
        bits 31 and 63.  Any buffered half goes first; an odd count leaves one.
        """
        out = [(self._next32() >> 31) * 2 - 1] if p and self._high is not None else []
        next64 = self._next64
        for _ in range((p - len(out)) >> 1):
            value = next64()
            out += ((value >> 30 & 2) - 1, (value >> 62 & 2) - 1)
        if len(out) < p:
            out.append((self._next32() >> 31) * 2 - 1)
        return out

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
