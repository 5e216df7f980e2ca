"""Stream derivation and sample summarization shared by the Monte Carlo drivers.

Trials draw their randomness in fixed groups of G = `_GROUP` trials: group j
of a part (a run of trials sharing one base index) covers trials
[jG, (j + 1)G), the last group possibly shorter, and draws from the one
stream `derive_stream(seed, base_index + jG)`.  G is a constant of the
layout, so results are a function of (seed, base index, trial) alone: a part
split at group boundaries, across batches or processes, gives the same bits.
A trial runs once, to the last count of its grid, and is read at every
count, so every point of a grid reads the same streams.

A batch of groups draws its step randomness through `_group_blocks`: per
block of m <= `_BLOCK_STEPS` steps, each group of width w makes one generator
call per kind of variate, in a fixed order, and fills its columns of that
kind's step-major (m, B) buffer.  Column b of a group is trial b of that
group.  Every chain draws at that one block length:

- discrete mixed-start length chains (the purity estimator, the compare's
  discrete half): the uniforms of the axis cosines random((m, w)), the
  branch uniforms random((m, w)), the outcome noise standard_normal((m, w));
- the direct estimator: the uniforms of the axis cosines to the truth
  random((m, w)), then of their azimuths random((m, w)), then the branch
  uniforms and the outcome noise as the length chains;
- SDE ensemble: random((m, w)), whose side of 1/2 signs each two-point
  increment.  With one kind of variate the blocks read a group's stream in
  step order, so their length moves no bit.
Every grid sampler is a chain of (B,) arrays that yields its row after
every step, and `_rows_at` reads it at the grid steps: the lengths of both
length chains, discrete and SDE, and the direct estimator's (3, B) (d, p, g).
`run_sequence`, the one run of a Bloch vector, draws from its caller's
stream at the same block length: the axes standard_normal((m, 3)), the
branch uniforms random(m), the outcome noise standard_normal(m), the
variates of a group of width 1.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

# Trials per random stream.  It never depends on the worker count, the batch
# or the trial count; every split of a part falls on a multiple of it.
_GROUP = 100

# Trial-steps of randomness a discrete batch's draw buffers hold per kind of
# variate: a batch is as many whole groups as fit in DRAW_BLOCK trial-steps
# (at least one), and it draws at most _BLOCK_STEPS steps at once.
DRAW_BLOCK = 32768

# Steps of randomness a group draws per generator call, in every chain: a
# constant of the layout, never the batch width.
_BLOCK_STEPS = DRAW_BLOCK // _GROUP


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible random stream; the samplers give one to each trial group.

    Mixing function (fixed for this implementation): PCG64 keyed by
    numpy's SeedSequence(master_seed, spawn_key=(index,)).  The same
    (master_seed, index) pair always yields the same stream and distinct
    indices yield streams with no shared state, so ensemble results are a
    function of (master seed, index) only, independent of execution
    order or degree of parallelism.  Both are integers; a float is refused,
    not truncated.
    """
    index = operator.index(index)
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index!r}")
    seq = np.random.SeedSequence(entropy=operator.index(master_seed), spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


def _group_streams(seed: int, base_index: int, lo: int, hi: int) -> list[tuple[np.random.Generator, int]]:
    """(stream, width) of every group of trials [lo, hi) of a part, lo a group boundary."""
    return [(derive_stream(seed, base_index + g), min(_GROUP, hi - g)) for g in range(lo, hi, _GROUP)]


def _width(streams) -> int:
    return sum(w for _, w in streams)


def _group_blocks(streams, steps: int, kinds):
    """Blocks of `steps` steps of randomness for a batch of groups, one list of buffers per block.

    streams holds the (generator, width) of each group, in column order, and
    kinds the generator method name of each kind of variate, in draw order.
    Per block of m <= _BLOCK_STEPS steps, each group calls
    getattr(g, name)((m, w)) once per kind and fills its columns of that
    kind's (m, B) buffer.  The buffers are allocated once and yielded as [:m]
    views, so a block must be read before the next is requested.
    """
    buffers = [np.empty((min(_BLOCK_STEPS, steps), _width(streams))) for _ in kinds]
    for done in range(0, steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, steps - done)
        lo = 0
        for g, w in streams:
            for name, buffer in zip(kinds, buffers):
                buffer[:m, lo : lo + w] = getattr(g, name)((m, w))
            lo += w
        yield [buffer[:m] for buffer in buffers]


def _rows_at(chain, marks, start: np.ndarray) -> np.ndarray:
    """The (len(marks), *start.shape) rows of a chain at the ascending step counts marks.

    start holds the row at step 0, of any shape, and chain yields the row
    after every step, at least up to marks[-1], possibly as one array
    updated in place, start itself included.  A mark may repeat or be 0.
    """
    rows = np.empty((len(marks), *start.shape))
    value, taken = start, 0
    for row, mark in zip(rows, marks):
        if mark > taken:
            value = next(itertools.islice(chain, mark - taken - 1, None))
            taken = mark
        row[:] = value
    return rows


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
