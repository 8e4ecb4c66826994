"""numpy's ``default_rng(seed).permutation(K)`` for many seeds at once, as array arithmetic.

``draw_permutations`` builds no generator. It runs numpy's SeedSequence
hashing as uint32 arithmetic over every seed, computes each PCG64 output in
closed form from the seeded state in uint64 words (O'Neill, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", 2014), and runs numpy's Fisher-Yates shuffle, rejection
draws included, one pass per position over all seeds. Every row equals
numpy's own for any seed in [0, 2^64) and any K.
"""

from __future__ import annotations

import functools

import numpy as np


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    out = np.array(consts, dtype=np.uint32)[:, None]
    out.setflags(write=False)
    return out


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the k-th hashmix of
# the entropy pool xors with _HASH_A[k] and multiplies by _HASH_A[k + 1];
# generate_state does the same with _HASH_B. Then PCG64's 128-bit multiplier.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_M32, _TOP = np.uint64(_MASK32), np.uint64(1 << 63)


def _mix_hashes(src: int) -> tuple:
    """mix_entropy's hashmix constants for one source word, as (4, 1) xor and multiplier columns over dst.

    Source word src hashes with hashmixes 4 + 3 · src + rank, rank counting
    the other words in order; its own row gets a dummy (the first of its three).
    """
    ks = [4 + 3 * src + rank for rank in range(3)]
    rows = ks[:src] + ks[:1] + ks[src:]
    return _HASH_A[rows], _HASH_A[[k + 1 for k in rows]]


_MIX_HASHES = [_mix_hashes(src) for src in range(4)]


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int, n: int) -> np.ndarray:
    """Hashmixes k .. k + n - 1 of one SeedSequence constant sequence, one per row."""
    mixed = (values ^ consts[k : k + n]) * consts[k + 1 : k + n + 1]
    return mixed ^ (mixed >> 16)


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(int(s)).generate_state(4, np.uint64)`` for every uint64 seed s: (4, T).

    numpy turns s into its little-endian 32-bit words and hashes missing pool
    words as 0, so the entropy [s & 0xFFFFFFFF, s >> 32] gives numpy's pool for
    every s below 2^64. The arithmetic is uint32 and wraps as numpy's does.
    """
    pool = np.empty((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds  # the low 32 bits: assignment truncates
    pool[1] = seeds >> 32
    pool[2:] = 0
    pool = _hashmix(pool, _HASH_A, 0, 4)
    # mix_entropy: every word, hashed once per other word, is mixed into each
    # other word; the source word stays put, so all four rows update at once
    # (the source row against a dummy constant) and the source row is restored
    for src, (xor, mult) in enumerate(_MIX_HASHES):
        hashed = pool[src] ^ xor
        hashed *= mult
        hashed ^= hashed >> 16
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    # generate_state: eight uint32 words cycling over the pool, joined in
    # little-endian pairs into four uint64 words
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)


@functools.lru_cache(maxsize=None)
def _jump_table(size: int) -> np.ndarray:
    """Constants of PCG64 outputs 1 .. size: column k - 1 serves s_k = M^(k+1)·x + A_(k+1)·inc.

    ``[0]`` holds M^(k+1) and ``[1]`` holds A_(k+1) = 1 + M + ... + M^k, each
    as high word, low word and the low word's 32-bit halves (high half first):
    (2, 4, size) uint64, computed on first use as Python ints. Callers ask
    for powers of two, so few tables are ever built.
    """
    cols, power, total = [], _PCG64_MULT, 1
    for _ in range(size):
        power, total = power * _PCG64_MULT & _MASK128, (total + power) & _MASK128
        cols.append([[c >> 64, c & _MASK64, c >> 32 & _MASK32, c & _MASK32] for c in (power, total)])
    table = np.array(cols, dtype=np.uint64).transpose(1, 2, 0).copy()
    table.setflags(write=False)
    return table


def _mul128(a_hi, a_lo, b_hi, b_lo, b_lo1, b_lo0) -> tuple:
    """(a · b) mod 2^128 as (high, low) uint64 words; the high word of a_lo · b_lo comes from 32-bit halves.

    Three full-size arrays are live at once: the high word and two buffers.
    """
    a_lo1, a_lo0 = a_lo >> 32, a_lo & _M32
    hi = a_lo1 * b_lo1
    carry = a_lo0 * b_lo0
    carry >>= 32
    middle = a_lo1 * b_lo0
    carry += middle
    np.bitwise_and(carry, _M32, out=middle)
    carry >>= 32
    hi += carry
    middle += np.multiply(a_lo0, b_lo1, out=carry)
    middle >>= 32
    hi += middle
    hi += np.multiply(a_lo, b_hi, out=carry)
    hi += np.multiply(a_hi, b_lo, out=carry)
    return hi, np.multiply(a_lo, b_lo, out=carry)


def _carry(total: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """The carry out of ``total = augend + addend`` mod 2^64: whether total < addend.

    The words are compared as int64 with their top bits flipped, which orders
    them as unsigned. NumPy's uint64 comparisons would page in code that no
    other step of a run touches, and a run's peak RSS counts those pages.
    """
    return (total ^ _TOP).view(np.int64) < (addend ^ _TOP).view(np.int64)


class _Pcg64Draws:
    """numpy's ``next_uint32`` draws of ``default_rng(seed)``'s PCG64 for many seeds, computed in closed form.

    PCG64 seeds itself from the SeedSequence words (above) with srandom:
    state = 0, inc = (initseq << 1) | 1, step, add initstate, step; that is
    s_0 = x · M + inc mod 2^128 with x = inc + initstate. Its k-th output is
    XSL-RR of s_k = M^k · s_0 + (1 + M + ... + M^(k-1)) · inc
    = M^(k+1) · x + A_(k+1) · inc: the xor of the state's two words, rotated
    right by its top six bits. ``next_uint32`` serves each output's low half,
    then its high half. ``flat`` holds draw d of seed c at d · T + c; every
    seed holds the same number of draws. Draws stay uint64 words and are
    masked as such, as ``_carry`` explains: uint32 or int64 masking would
    page in NumPy code that nothing else in a run uses.
    """

    def __init__(self, seeds: np.ndarray, outputs: int):
        init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_words(seeds)
        # x and inc as (2, 1, seeds) high and low words, to multiply by both jump constants at once
        self.hi = np.empty((2, 1, seeds.size), dtype=np.uint64)
        self.lo = np.empty((2, 1, seeds.size), dtype=np.uint64)
        (x_hi,), (inc_hi,) = self.hi
        (x_lo,), (inc_lo,) = self.lo
        np.left_shift(seq_hi, 1, out=inc_hi)
        inc_hi |= seq_lo >> 63
        np.left_shift(seq_lo, 1, out=inc_lo)
        inc_lo |= 1
        np.add(inc_lo, init_lo, out=x_lo)
        np.add(inc_hi, init_hi, out=x_hi)
        x_hi += _carry(x_lo, inc_lo)
        self.T, self.outputs = seeds.size, outputs
        self.flat = self._outputs(0, outputs)
        self.ahead = np.arange(_AHEAD)[:, None] * seeds.size  # offsets of a seed's next _AHEAD draws

    def _outputs(self, start: int, stop: int) -> np.ndarray:
        """The draws of outputs ``start + 1 .. stop`` of every seed, flat in (draw, seed) order."""
        consts = _jump_table(max(16, 1 << (stop - 1).bit_length()))[:, :, start:stop, None]
        (s_hi, t_hi), (s_lo, t_lo) = _mul128(self.hi, self.lo, *consts.swapaxes(0, 1))
        s_lo += t_lo
        s_hi += t_hi
        s_hi += _carry(s_lo, t_lo)
        rot = s_hi >> 58
        s_lo ^= s_hi
        np.right_shift(s_lo, rot, out=s_hi)
        np.subtract(64, rot, out=rot)
        rot &= 63
        s_lo <<= rot
        s_hi |= s_lo  # the output: the xored words rotated right
        draws = np.empty((s_hi.shape[0], 2, s_hi.shape[1]), dtype=np.uint64)
        np.bitwise_and(s_hi, _M32, out=draws[:, 0])
        np.right_shift(s_hi, 32, out=draws[:, 1])
        return draws.reshape(-1)

    def cover(self, last: int) -> None:
        """Doubles the outputs every seed holds until ``flat`` has an index ``last``."""
        while last >= self.flat.size:
            self.flat = np.concatenate([self.flat, self._outputs(self.outputs, 2 * self.outputs)])
            self.outputs *= 2

    def interval(self, start: np.ndarray, i: int) -> tuple:
        """One pass of numpy's ``random_interval(i)`` for the seeds whose next draws sit at ``start``.

        Each seed reads its next ``_AHEAD`` draws and picks the first whose
        value masked to the bit length of i is at most i, or the last if it
        rejects them all. Returns the picks and the index each seed reads on
        from, after which every seed holds i - 1 + ``_AHEAD`` unread draws.
        """
        window = (self.flat[start + self.ahead] & ((1 << i.bit_length()) - 1)).view(np.intp)
        accepted = window <= i
        accepted[-1] = True
        first = accepted.argmax(axis=0)
        pick = window[first, np.arange(start.size)]
        first += 1
        first *= self.T
        first += start
        self.cover(int(first.max()) + (i + _AHEAD - 2) * self.T)
        return pick, first


_AHEAD = 8  # draws a rejection pass reads per seed; each is rejected with odds below 1/2


def draw_permutations(seeds, K: int) -> np.ndarray:
    """The rows ``np.random.default_rng(int(s)).permutation(K)`` for the given seeds: (T, K).

    Every step is array arithmetic over all seeds at once, so no generator is
    built. ``_Pcg64Draws`` computes each seed's PCG64 draws from its
    SeedSequence words. The shuffle is numpy's Fisher-Yates: for i = K - 1 .. 1,
    ``random_interval(i)`` takes the next draw masked to the bit length of i,
    rejects it while it exceeds i, and swaps positions i and the accepted j.
    Each position is one pass over all seeds, plus a pass per ``_AHEAD``
    draws that some seed rejects in a row. Rows equal numpy's own for any K.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    T = seeds.size
    perms = np.repeat(np.arange(K, dtype=np.int64)[:, None], T, axis=1)  # (K, T): row i is position i
    if K < 2 or T == 0:
        return perms.T.copy()
    # before position i every seed holds i - 1 + _AHEAD unread draws: a pass
    # and one draw for each later position
    draws = _Pcg64Draws(seeds, (K + 1) // 2 + _AHEAD)
    seeds_at = np.arange(T)
    at = seeds_at.copy()  # each seed's next draw, as an index into draws.flat
    flat = perms.reshape(-1)
    for i in range(K - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        if i == mask:  # no draw is rejected
            j = (draws.flat[at] & mask).view(np.intp)
            at += T
        else:
            j, at = draws.interval(at, i)
            todo = np.flatnonzero(j > i)
            while todo.size:  # seeds that rejected every draw they read
                pick, at[todo] = draws.interval(at[todo], i)
                j[todo] = pick
                todo = todo[pick > i]
        j *= T
        j += seeds_at
        row = flat[j]
        flat[j] = perms[i]
        perms[i] = row
    return perms.T.copy()
