"""Seeded random streams, bit-identical to NumPy's ``default_rng``.

:func:`spawn` seeds the children of ``np.random.SeedSequence([seed,
index])``.  NumPy hashes the entropy words into a four-word pool, and a
child absorbs its index into a copy of the pool.  Every hash takes the next
constant of a fixed sequence, whatever it hashes, so the constants and each
child's hashed index are the same for every index: :func:`stream_seeds`
computes them once per run.  :class:`Stream` is NumPy's PCG64 bit generator
(XSL-RR 128/64, O'Neill 2014) seeded from a child's ``generate_state(8)``.
Its 32-bit outputs are the low then the high half of each 64-bit output, as
in NumPy.  It draws the bounded integers of ``Generator.integers``: 32-bit
Lemire multiplication with rejection.  So ``spawn`` gives the draws of
``np.random.default_rng`` on each child, without NumPy.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hash_pairs(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """A hash's first ``count`` (XOR, multiplier) pairs: ``init * mult**k`` and the next."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return list(zip(consts, consts[1:]))


class StreamSeeds(NamedTuple):
    """What :func:`spawn` needs for ``seed`` and an index, ``words`` entropy words in all.

    ``first`` hashes the first four words into the pool; ``mixing`` (source
    word, pool word, XOR, multiplier) the pool into itself, then each further
    word into the pool.  ``children[c]`` is child c's index hashed for each
    pool word, times the mix's multiplier, and ``state`` hashes a child's
    pool out.
    """

    seed: int
    words: int
    first: tuple[tuple[int, int], ...]
    mixing: tuple[tuple[int, int, int, int], ...]
    children: tuple[tuple[int, ...], ...]
    state: tuple[tuple[int, int], ...]


def stream_seeds(seed: int, n_streams: int, index: int = 0) -> StreamSeeds:
    """The run constants of :func:`spawn`: ``n_streams`` children, indices as long as ``index``."""
    words = len(_words(seed)) + len(_words(index))
    # each pool word into the three others, then each further word into all four
    sources = range(max(words, _POOL_SIZE))
    mixing = [(src, dst) for src in sources for dst in range(_POOL_SIZE) if src != dst]
    pairs = _hash_pairs(_INIT_A, _MULT_A, 2 * _POOL_SIZE + len(mixing))
    children = []
    for c in range(n_streams):  # a one-word index
        hashed = [(c ^ x) * y & _MASK32 for x, y in pairs[_POOL_SIZE + len(mixing) :]]
        children.append(tuple(_MIX_MULT_R * (value ^ value >> 16) for value in hashed))
    mixing = [(*link, *pair) for link, pair in zip(mixing, pairs[_POOL_SIZE:])]
    state = _hash_pairs(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    return StreamSeeds(seed, words, *map(tuple, (pairs[:_POOL_SIZE], mixing, children, state)))


def spawn(seeds: StreamSeeds, index: int) -> list[Stream]:
    """The streams of ``SeedSequence([seeds.seed, index]).spawn(len(seeds.children))``.

    NumPy rehashes a child's entropy, padded to four words with the zeros hashed
    in for a short entropy, and its index: the parent's pool absorbs the index.
    """
    words = _words(seeds.seed) + _words(index)
    if len(words) != seeds.words:
        seeds = stream_seeds(seeds.seed, len(seeds.children), index)
    mix_l, mix_r, mask = _MIX_MULT_L, _MIX_MULT_R, _MASK32
    pool = []
    for word, (x, y) in zip(words + [0] * _POOL_SIZE, seeds.first):
        value = (word ^ x) * y & mask
        pool.append(value ^ value >> 16)
    pool += words[_POOL_SIZE:]  # hashed into the pool after its own words
    for src, dst, x, y in seeds.mixing:
        value = (pool[src] ^ x) * y & mask
        value = (mix_l * pool[dst] - mix_r * (value ^ value >> 16)) & mask
        pool[dst] = value ^ value >> 16
    pool = [mix_l * value for value in pool[:_POOL_SIZE]]  # shared by every child's mix
    streams = []
    for hashed in seeds.children:
        child = []
        for value, h in zip(pool, hashed):
            value = (value - h) & mask
            child.append(value ^ value >> 16)
        state = []
        for value, (x, y) in zip(child + child, seeds.state):
            value = (value ^ x) * y & mask
            state.append(value ^ value >> 16)
        streams.append(Stream(state))
    return streams


class Stream:
    """A PCG64 stream seeded from the eight words of ``SeedSequence.generate_state(8)``.

    Each draw steps the generator on local copies of its state.
    """

    def __init__(self, w: Sequence[int]):
        # NumPy reads the words as four little-endian uint64 values: the
        # initial state (high, low), then the stream selector (high, low).
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        initseq = (w[4] | w[5] << 32) << 64 | w[6] | w[7] << 32
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._high: int | None = None  # unused upper half of the last 64-bit output

    def signs(self, p: int) -> list[int]:
        """``p`` Rademacher signs: ``integers(0, 2, size=p) * 2 - 1``.

        A sign is the top bit of a 32-bit half, so a 64-bit output gives two:
        bits 31 and 63.  Any buffered half goes first; an odd count leaves one.
        """
        state, inc, high = self._state, self._inc, self._high
        out = [(high >> 30 & 2) - 1] if p and high is not None else []
        for _ in range((p - len(out) + 1) >> 1):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = ((state >> 64) ^ state) & _MASK64
            value = ((x >> (rot := state >> 122)) | (x << (64 - rot))) & _MASK64
            out += ((value >> 30 & 2) - 1, (value >> 62 & 2) - 1)
        if len(out) > p:  # the last output's upper half waits for the next draw
            out.pop()
            high = value >> 32
        elif p:  # any buffered half went first
            high = None
        self._state, self._high = state, high
        return out

    def below(self, bounds: Sequence[int]) -> list[int]:
        """A uniform integer in ``[0, k)`` per bound ``1 <= k < 2**32``: ``integers(k)`` each."""
        state, inc, high, out = self._state, self._inc, self._high, []
        for k in bounds:
            if not 1 <= k < 1 << 32:
                raise ValueError(f"bound {k} outside [1, 2**32)")
            m = 0  # NumPy draws nothing from a one-value range
            while k > 1:  # a low word below 2**32 % k (< k) is redrawn
                if high is None:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    x = ((state >> 64) ^ state) & _MASK64
                    value = ((x >> (rot := state >> 122)) | (x << (64 - rot))) & _MASK64
                    m, high = (value & _MASK32) * k, value >> 32
                else:
                    m, high = high * k, None
                if m & _MASK32 >= k or m & _MASK32 >= (1 << 32) % k:
                    break
            out.append(m >> 32)
        self._state, self._high = state, high
        return out
