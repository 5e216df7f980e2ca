"""Stream derivation and sample summarization shared by the Monte Carlo drivers.

`derive_stream(seed, index)` is the contract: trial `index` of an
experiment draws from that stream and from nothing else.  The sequence
drivers seed whole trial groups at once through `_stream_states`, which
returns the PCG64 state that `derive_stream` would produce, bit for bit,
without building a SeedSequence and a PCG64 per trial: numpy's
SeedSequence pool hash on arrays of 32-bit words, one entry per index,
then PCG64's seeding (two 128-bit LCG steps) in Python ints.  It covers
seeds in [0, 2^64) and indices in [0, 2^32), where the seed is at most two
words and the index one; any other range is derived one stream at a time
through `derive_stream` itself.
"""

from __future__ import annotations

import math

import numpy as np

# Trial-steps of randomness a batched simulation pre-draws at once.  An SDE
# ensemble of B trajectories holds at most DRAW_BLOCK * max(1, B / 256)
# trajectory-steps of noise, since its blocks keep at least DRAW_BLOCK // 256
# steps per generator call (a memory bound only); the measurement sequences
# run trials in groups of at most this many trial-steps, and a single
# sequence longer than this draws its randomness in blocks of this many steps.
DRAW_BLOCK = 32768

# numpy's SeedSequence: hash constants, mixing multipliers and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one trial.

    Mixing function (fixed for this implementation): PCG64 keyed by
    numpy's SeedSequence(master_seed, spawn_key=(index,)).  The same
    (master_seed, index) pair always yields the same stream and distinct
    indices yield streams with no shared state, so ensemble results are a
    function of (master seed, trial index) only, independent of execution
    order or degree of parallelism.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index!r}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(seq))


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The hash constant before and after each of `count` successive hash steps."""
    steps = []
    for _ in range(count):
        after = (init * mult) & _WORD
        steps.append((init, after))
        init = after
    return steps


# SeedSequence.mix_entropy runs 4 + 12 hash steps over the padded seed words,
# then 4 over the spawn word; generate_state(4, uint64) runs 8 over the pool
_MIX_STEPS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE)
_STATE_STEPS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(value, step: int):
    """SeedSequence's hashmix on 32-bit words (Python ints or uint64 arrays)."""
    before, after = _MIX_STEPS[step]
    value = ((value ^ before) * after) & _WORD
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _WORD
    return result ^ (result >> 16)


def _seed_pool(master_seed: int) -> list[int]:
    """The pool after mixing the seed's words, zero-padded to the pool size."""
    pool = [_hashmix((master_seed >> (32 * i)) & _WORD, i) for i in range(_POOL_SIZE)]
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
                step += 1
    return pool


def _stream_states(master_seed: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of derive_stream(master_seed, k) for every k in [lo, hi)."""
    if not (0 <= master_seed < 1 << 64 and 0 <= lo <= hi <= 1 << 32):
        states = []
        for k in range(lo, hi):
            state = derive_stream(master_seed, k).bit_generator.state["state"]
            states.append((state["state"], state["inc"]))
        return states
    # uint64 arrays hold every product of two uint32 words, masked back to 32 bits
    index = np.arange(lo, hi, dtype=np.uint64)
    spawn_step = _POOL_SIZE * _POOL_SIZE
    pool = [
        _mix(np.uint64(word), _hashmix(index, spawn_step + dst))
        for dst, word in enumerate(_seed_pool(master_seed))
    ]
    words = []
    for i, (before, after) in enumerate(_STATE_STEPS):
        value = ((pool[i % _POOL_SIZE] ^ before) * after) & _WORD
        words.append(value ^ (value >> 16))
    # little-endian pairs of words: the 128-bit seed is (w1:w0, w3:w2), the
    # increment seed (w5:w4, w7:w6), each 64-bit half written high first
    halves = [(words[2 * j + 1] << 32 | words[2 * j]).tolist() for j in range(4)]
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK_128
        # pcg64 srandom: step from state 0, add the seed, step again
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK_128, inc))
    return states


def summarize(samples) -> tuple[float, float]:
    """Arithmetic mean and standard error of a batch of real samples.

    The standard error uses the population-corrected (ddof=1) standard
    deviation; a single sample is degenerate by convention and reports a
    standard error of exactly 0.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))
