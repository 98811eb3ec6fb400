"""Seeded random streams, bit-identical to NumPy's ``default_rng``.

:func:`spawn` seeds the children of ``np.random.SeedSequence([seed,
index])``.  NumPy hashes the entropy words into a four-word pool, and a
child absorbs its index into a copy of the pool.  Every hash takes the next
constant of a fixed sequence, whatever it hashes, so the constants and each
child's hashed index are the same for every index: :func:`stream_seeds`
computes them once per run, and ``spawn`` hashes every child's pool at
once.  :class:`Stream` is NumPy's PCG64 bit generator (XSL-RR 128/64,
O'Neill 2014) seeded from a child's ``generate_state(8)``.
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
#: The XSL word's bits that become bits 31 and 63 of an output rotated by ``rot``.
_SIGN_BITS = tuple(((rot + 31) & 63, (rot + 63) & 63) for rot in range(64))
_SIGN = (-1, 1)


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
    word into the pool.  The children are computed side by side, child c in
    bits ``128c`` up of one integer (``lanes`` marks bit 0 of each): a lane
    holds a 32-bit word while it is hashed, and the multiplier of a hash is
    the same for every child, so no product leaves its lane.
    ``children[k]`` holds each child's index hashed for pool word k, times
    the mix's multiplier, negated mod 2**32; ``state`` hashes a child's pool
    out, with each XOR in every lane.
    """

    seed: int
    seed_words: tuple[int, ...]
    words: int
    streams: int
    first: tuple[tuple[int, int], ...]
    mixing: tuple[tuple[int, int, int, int], ...]
    lanes: int
    children: tuple[int, ...]
    state: tuple[tuple[int, int], ...]


def stream_seeds(seed: int, n_streams: int, index: int = 0) -> StreamSeeds:
    """The run constants of :func:`spawn`: ``n_streams`` children, indices as long as ``index``."""
    seed_words = tuple(_words(seed))
    words = len(seed_words) + len(_words(index))
    # each pool word into the three others, then each further word into all four
    sources = range(max(words, _POOL_SIZE))
    mixing = [(src, dst) for src in sources for dst in range(_POOL_SIZE) if src != dst]
    pairs = _hash_pairs(_INIT_A, _MULT_A, 2 * _POOL_SIZE + len(mixing))
    lanes = sum(1 << 128 * c for c in range(n_streams))
    children = []
    for x, y in pairs[_POOL_SIZE + len(mixing) :]:  # a one-word index
        hashed = [(c ^ x) * y & _MASK32 for c in range(n_streams)]
        negated = [-_MIX_MULT_R * (value ^ value >> 16) & _MASK32 for value in hashed]
        children.append(sum(value << 128 * c for c, value in enumerate(negated)))
    mixing = [(*link, *pair) for link, pair in zip(mixing, pairs[_POOL_SIZE:])]
    state = [(x * lanes, y) for x, y in _hash_pairs(_INIT_B, _MULT_B, 2 * _POOL_SIZE)]
    return StreamSeeds(
        seed, seed_words, words, n_streams, tuple(pairs[:_POOL_SIZE]), tuple(mixing), lanes,
        tuple(children), tuple(state),
    )


def spawn(seeds: StreamSeeds, index: int) -> list[Stream]:
    """The streams of ``SeedSequence([seeds.seed, index]).spawn(seeds.streams)``.

    NumPy rehashes a child's entropy, padded to four words with the zeros hashed
    in for a short entropy, and its index: the parent's pool absorbs the index.
    A child's generator state is its eight hashed words ``w``: the initial
    state ``w1 w0 w3 w2`` and the stream selector ``w5 w4 w7 w6``, 32 bits
    each from the top, as NumPy reads four little-endian 64-bit words.
    """
    words = [*seeds.seed_words, *([index] if 0 <= index <= _MASK32 else _words(index))]
    if len(words) != seeds.words:
        seeds = stream_seeds(seeds.seed, seeds.streams, index)
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
    lanes = seeds.lanes
    lane_mask = mask * lanes
    child = []
    for value, hashed in zip(pool, seeds.children):  # every child's mix of each pool word
        value = ((mix_l * value & mask) * lanes + hashed) & lane_mask
        child.append((value ^ value >> 16) & lane_mask)
    w = []
    for value, (x, y) in zip(child + child, seeds.state):
        value = (value ^ x) * y & lane_mask
        w.append((value ^ value >> 16) & lane_mask)
    initstate = w[2] | w[3] << 32 | w[0] << 64 | w[1] << 96
    # inc is the selector shifted left with bit 0 set: a lane's top bit moves
    # to the next lane's bit 0, which is set anyway, and is dropped on reading
    incs = (w[6] | w[7] << 32 | w[4] << 64 | w[5] << 96) << 1 | lanes
    streams = []
    for shift in range(0, 128 * seeds.streams, 128):
        inc = incs >> shift & _MASK128
        state = (initstate >> shift & _MASK128) + inc  # NumPy adds inc, then steps
        streams.append(Stream(state * _PCG_MULT + inc & _MASK128, inc))
    return streams


class Stream:
    """A PCG64 stream with 128-bit ``state`` and increment ``inc``, as NumPy's state names them.

    Each draw steps the generator on local copies of its state.
    """

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, state: int, inc: int):
        self._state, self._inc = state, inc
        self._high: int | None = None  # unused upper half of the last 64-bit output

    def signs(self, p: int) -> list[int]:
        """``p`` Rademacher signs: ``integers(0, 2, size=p) * 2 - 1``.

        A sign is the top bit of a 32-bit half, so a 64-bit output gives two:
        bits 31 and 63 of the XSL word rotated right by ``rot``, that is, its
        bits ``rot + 31`` and ``rot + 63`` mod 64 (:data:`_SIGN_BITS`).  Any
        buffered half goes first; an odd count leaves one.
        """
        state, inc, high = self._state, self._inc, self._high
        out = [(high >> 30 & 2) - 1] if p and high is not None else []
        bits, sign = _SIGN_BITS, _SIGN
        for _ in range((p - len(out)) >> 1):
            state = state * _PCG_MULT + inc & _MASK128
            x = state >> 64 ^ state  # the XSL word in its low 64 bits
            bit31, bit63 = bits[state >> 122]
            out += sign[x >> bit31 & 1], sign[x >> bit63 & 1]
        if len(out) < p:  # the last output's upper half waits for the next draw
            state = state * _PCG_MULT + inc & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            value = (x >> (rot := state >> 122) | x << 64 - rot) & _MASK64
            out.append((value >> 30 & 2) - 1)
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

    def pairs(self, k: int, count: int) -> list[int]:
        """``below([k, 2] * count)``: ``count`` pairs of a draw below ``k`` and a bit.

        Unless a half is buffered or a draw is redrawn, a pair is one 64-bit
        output: its low half draws below ``k`` and its high half's top bit is
        the bit, since 2 divides ``2**32``.  Any other pair goes through
        :meth:`below`.
        """
        if not 2 <= k <= _MASK32:
            return self.below([k, 2] * count)
        state, inc, high, out = self._state, self._inc, self._high, []
        threshold = 4294967296 % k  # a lower low word of the product is redrawn
        for _ in range(count):
            if high is None:
                state = state * _PCG_MULT + inc & _MASK128
                x = (state >> 64 ^ state) & _MASK64
                value = (x >> (rot := state >> 122) | x << 64 - rot) & _MASK64
                m = (value & _MASK32) * k
                if m & _MASK32 >= threshold:
                    out += m >> 32, value >> 63
                    continue
                high = value >> 32
            self._state, self._high = state, high
            out += self.below([k, 2])
            state, high = self._state, self._high
        self._state, self._high = state, high
        return out
