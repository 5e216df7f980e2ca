"""Stream derivation and sample summarization shared by the Monte Carlo drivers."""

from __future__ import annotations

import math

import numpy as np

# Trial-steps of randomness a batched simulation pre-draws at once.  The SDE
# ensembles hold at most this many trajectory-steps of noise (a memory
# bound only); the measurement sequences run trials in groups of at most
# this many trial-steps, and a single sequence longer than this draws its
# randomness in blocks of this many steps.
DRAW_BLOCK = 32768


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
