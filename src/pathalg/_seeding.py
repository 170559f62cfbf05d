"""The sampling suites' trial generators, built a block at a time.

Trial i of a suite run with seed s draws from default_rng([s, i]): a
PCG64 seeded by SeedSequence([s, i]).  SeedSequence hashes its entropy
a word at a time in Python-level loops, about 10 us a generator.
states() runs the same hash, O'Neill's seed_seq_fe as numpy implements
it, on a whole block of indices at once as uint32 array arithmetic, and
generators() hands each state to PCG64 through an ISeedSequence that
returns it, so every generator is the one default_rng([s, i]) builds.

numpy.random is imported on first use only: it adds about 6 MB
resident, which the commands that draw nothing should not pay.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# SeedSequence's pool size in 32-bit words and the constants of its
# hashes: the entropy hash, the output hash and the pool mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK = 0xFFFFFFFF


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> np.uint32(16)


@functools.cache
def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 running constants of count hashmix calls from init:
    call k xors in constant k and multiplies by constant k + 1.  Read-
    only, as every caller shares the cached array."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK)
    out = np.array(consts, np.uint32)
    out.flags.writeable = False
    return out


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the last axis of value, entry j with
    consts[j] and consts[j + 1]: the consecutive calls that share no
    input with one another's output, made at once.  uint32 arrays wrap
    their products without a warning."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> np.uint32(16)


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) of each row e of the
    uint32 entropy words (rows, words).  The pool hashes the first four
    words (zeros past the end); each pool word in turn is hashed into
    the three others, then each further entropy word into all four;
    eight output hashes of the pool, repeated, pair up little end first
    into the four uint64 words of a state."""
    rows, words = entropy.shape
    a = _consts(_INIT_A, _MULT_A, 16 + 4 * max(words - _POOL, 0))
    pool = np.zeros((rows, _POOL), np.uint32)
    pool[:, :words] = entropy[:, :_POOL]
    pool = _hash(pool, a[:5])
    for src in range(_POOL):
        dst, k = [j for j in range(_POOL) if j != src], 4 + 3 * src
        pool[:, dst] = _mix(pool[:, dst],
                            _hash(pool[:, src, None], a[k:k + 4]))
    for src in range(_POOL, words):
        k = 16 + 4 * (src - _POOL)
        pool = _mix(pool, _hash(entropy[:, src, None], a[k:k + 5]))
    state = _hash(np.concatenate([pool, pool], axis=1),
                  _consts(_INIT_B, _MULT_B, 2 * _POOL))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def states(seed, idx) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) of each index
    i of idx, below 2**64, as the rows of a (len(idx), 4) array.  The
    entropy is the 32-bit words of the integer seed >= 0, little end
    first (one word for 0), then i's: one word below 2**32, two from
    there on."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    head = [seed >> k & _MASK
            for k in range(0, max(seed.bit_length(), 1), 32)]
    idx = np.asarray(idx, np.uint64)
    entropy = np.empty((len(idx), len(head) + 2), np.uint32)
    entropy[:, :-2] = head
    entropy[:, -2] = idx & np.uint64(_MASK)
    entropy[:, -1] = high = idx >> np.uint64(32)
    out = np.empty((len(idx), 4), np.uint64)
    for rows, stop in ((high == 0, -1), (high != 0, None)):
        if rows.any():
            out[rows] = _pool_states(entropy[rows, :stop])
    return out


@functools.cache
def _held_state():
    """An ISeedSequence that hands PCG64 the state it was built with;
    PCG64 asks for 4 uint64 words once and seeds from them as they are.
    The class is made on first use, as subclassing imports
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HeldState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.state

    return HeldState


def generators(seed, idx, block: int):
    """default_rng([seed, i]) for each index i of idx, in order, with
    the states of block indices at a time."""
    from numpy.random import PCG64, Generator
    held = _held_state()
    for start in range(0, len(idx), block):
        for state in states(seed, idx[start:start + block]):
            yield Generator(PCG64(held(state)))
