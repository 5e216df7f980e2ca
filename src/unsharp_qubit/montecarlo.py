"""Stream derivation and sample summarization shared by the Monte Carlo drivers.

Trials draw their randomness in fixed groups of G = `_GROUP` trials: group j
of a part (a run of trials sharing one base index) covers trials
[jG, (j + 1)G), the last group possibly shorter, and draws from the one
stream `derive_stream(seed, base_index + jG)`.  G is a constant of the
layout, so results are a function of (seed, base index, trial) alone: a part
split at group boundaries, across batches or processes, gives the same bits.
"""

from __future__ import annotations

import math

import numpy as np

# Trials per random stream.  It never depends on the worker count, the batch
# or the trial count; every split of a part falls on a multiple of it.
_GROUP = 100

# Trial-steps of randomness a discrete batch pre-draws at once: a batch is as
# many whole groups as fit in DRAW_BLOCK trial-steps (at least one), since the
# reverse replay keeps the batch's whole record, and every group draws its
# measurement randomness in blocks of DRAW_BLOCK // _GROUP steps.
DRAW_BLOCK = 32768


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream; the samplers give one to each trial group.

    Mixing function (fixed for this implementation): PCG64 keyed by
    numpy's SeedSequence(master_seed, spawn_key=(index,)).  The same
    (master_seed, index) pair always yields the same stream and distinct
    indices yield streams with no shared state, so ensemble results are a
    function of (master seed, index) only, independent of execution
    order or degree of parallelism.
    """
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index!r}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(seq))


def _group_streams(seed: int, base_index: int, lo: int, hi: int) -> list[tuple[np.random.Generator, int]]:
    """(stream, width) of every group of trials [lo, hi) of a part, lo a group boundary."""
    return [(derive_stream(seed, base_index + g), min(_GROUP, hi - g)) for g in range(lo, hi, _GROUP)]


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
