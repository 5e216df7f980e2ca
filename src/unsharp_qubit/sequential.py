"""Sequences of unsharp measurements along independent random axes.

A run applies n measurements, each along a fresh uniform axis, sampling
every outcome from the current conditional state.  The whole sequence is
one generalized measurement whose element is E = A^dag A with

    A = sqrt(effect_n) ... sqrt(effect_1),

so the record-only estimate of the unknown state is A^dag A / tr[A^dag A]:
the fully mixed state updated by the record in reverse order, last
measurement first.  The update renormalizes in log space at every step, so
no scale accumulates, although tr E decays roughly like
(2 pi precision^2)^-n and would underflow doubles near n = 700.

Replaying the same record forwards from the fully mixed state yields the
state A A^dag / tr[A A^dag]: a different operator, but one sharing the
spectrum of the estimate (singular values of A), hence its purity.  That
identity is what the purity-based mean-fidelity estimator rests on, and
`spectral_match` checks it numerically for every run.

Every experiment advances a batch of B trials in lockstep on a
component-major (3, B) Bloch batch through `povm.posterior_batch`.  A batch
is whole trial groups (`montecarlo._GROUP` trials each, on one stream per
group), drawn in the block layout the `montecarlo` docstring describes, in
blocks of at most `_BLOCK_STEPS` steps.  `run_sequence` is one group of width
1 on the caller's stream.  The per-trial samples of the two estimators
(`direct_fidelity_samples`, `purity_fidelity_samples`) are summarized by
`ensemble.run_ensemble`, the one place their statistics are formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    DEGENERACY_TOL,
    DensityMatrix,
    MeasurementAxis,
    _dot,
    _norm,
    _pure_batch,
    _purity,
)
from .montecarlo import _GROUP, DRAW_BLOCK, _group_blocks, _group_streams
from .povm import (
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    STRATEGIES,
    MeasurementSettings,
    log_weights,
    posterior_batch,
)

# Steps of measurement randomness a group draws per generator call: a constant
# of the layout, never the batch width.
_BLOCK_STEPS = DRAW_BLOCK // _GROUP

# A step's variates, in draw order: the axis normals, the branch uniform, the outcome noise.
_STEP_KINDS = (("standard_normal", (3,)), ("random", ()), ("standard_normal", ()))


def _width(streams) -> int:
    return sum(w for _, w in streams)


def _pure_starts(streams) -> np.ndarray:
    """The (3, B) uniform pure starts of a batch of groups, each group's normals (3, w) in turn.

    `random_pure_state` arithmetic; a zero-length start is refused.
    """
    starts = np.concatenate([g.standard_normal((3, w)) for g, w in streams], axis=1)
    if not (_dot(starts, starts) > 0.0).all():
        raise ValueError("drew a pure start of zero length")
    return _pure_batch(starts)


def _sampled_steps(r: np.ndarray, streams, n: int, precision: float):
    """Advance the (3, B) batch r by n measurements on the groups' streams,
    yielding (r, axes, outcomes) after every step.  Each outcome is drawn
    from its column's current state: +1 if the step's uniform is below
    p_plus = (1 + axis.r)/2 and -1 otherwise, plus precision times the
    step's normal.  The axes are views of a reused buffer; a zero-length
    axis is refused.
    """
    for axes, uniforms, noise in _group_blocks(streams, n, _BLOCK_STEPS, _STEP_KINDS):
        v = axes.transpose(1, 0, 2)
        length = np.sqrt(_dot(v, v))  # `_random_unit` arithmetic
        if not (length > 0.0).all():
            raise ValueError("drew a measurement axis of zero length")
        axes /= length[:, None]
        for a, u, z in zip(axes, uniforms, noise):
            p_plus = np.clip(0.5 * (1.0 + _dot(a, r)), 0.0, 1.0)
            outcomes = np.where(u < p_plus, 1.0, -1.0) + precision * z
            r = posterior_batch(r, a, *log_weights(outcomes, precision))
            yield r, a, outcomes


def _mixed_start_final(streams, n: int, precision: float) -> np.ndarray:
    r = np.zeros((3, _width(streams)))
    for r, _, _ in _sampled_steps(r, streams, n, precision):
        pass
    return r


def _replay(r: np.ndarray, axes: np.ndarray, outcomes: np.ndarray, precision: float) -> np.ndarray:
    """Update the (3, B) batch r by a recorded record, axes (n, 3, B) and outcomes (n, B), step 0 first."""
    for a, s in zip(axes, outcomes):
        r = posterior_batch(r, a, *log_weights(s, precision))
    return r


def _estimate_batch(axes: np.ndarray, outcomes: np.ndarray, precision: float) -> np.ndarray:
    """Record-only estimates A^dag A / tr: the reverse replay from the mixed state."""
    return _replay(np.zeros(axes.shape[1:]), axes[::-1], outcomes[::-1], precision)


def _recorded_run(start: np.ndarray, streams, n: int, precision: float):
    """Forward run from the (3, B) `start`; returns (final batch, axes (n, 3, B), outcomes (n, B))."""
    axes = np.empty((n, 3, start.shape[1]))
    outcomes = np.empty((n, start.shape[1]))
    r = start
    for i, (r, a, s) in enumerate(_sampled_steps(start, streams, n, precision)):
        axes[i], outcomes[i] = a, s
    return r, axes, outcomes


def _by_trial_groups(fn, n: int, trials: int, seed: int, base_index: int) -> np.ndarray:
    """fn(streams) over consecutive batches of trial groups, concatenated.

    Group j covers trials [jG, (j + 1)G) and draws from derive_stream(seed,
    base_index + jG); a batch is as many whole groups as fit in DRAW_BLOCK
    trial-steps, and at least one.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    size = _GROUP * max(1, DRAW_BLOCK // (_GROUP * max(1, n)))
    return np.concatenate([
        fn(_group_streams(seed, base_index, lo, min(lo + size, trials))) for lo in range(0, trials, size)
    ])


@dataclass(frozen=True)
class SequenceResult:
    """Full record of one measurement sequence."""

    outcomes: tuple[tuple[MeasurementAxis, float], ...]
    aposteriori: DensityMatrix
    estimate: DensityMatrix


def _state(r: np.ndarray) -> DensityMatrix:
    return DensityMatrix(r[:, 0].tolist())


def run_sequence(
    true_state: DensityMatrix, n: int, settings: MeasurementSettings, rng: np.random.Generator
) -> SequenceResult:
    """n measurements on `true_state`: fresh random axis, outcome sampled
    from the current conditional state, posterior update; the estimate is
    the reverse replay of the record.  rng is a numpy Generator, drawn
    from as the one stream of a group of width 1.

    From `FULLY_MIXED` the aposteriori field realizes A A^dag / tr[A A^dag]
    for the recorded outcomes, the spectral twin of the estimate.
    """
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    final, axes, outcomes = _recorded_run(np.array(true_state.bloch)[:, None], [(rng, 1)], n, settings.precision)
    record = tuple((MeasurementAxis(tuple(a[:, 0].tolist())), float(s[0])) for a, s in zip(axes, outcomes))
    estimate = _estimate_batch(axes, outcomes, settings.precision)
    return SequenceResult(record, _state(final), _state(estimate))


def replay_hypothetical(
    outcomes: tuple[tuple[MeasurementAxis, float], ...], settings: MeasurementSettings
) -> SequenceResult:
    """Deterministically rerun a recorded outcome list from the mixed state.

    The aposteriori field is the forward replay A A^dag / tr, the estimate
    the reverse replay A^dag A / tr.
    """
    axes = np.array([axis.direction for axis, _ in outcomes]).reshape(-1, 3, 1)
    values = np.array([s for _, s in outcomes], dtype=float).reshape(-1, 1)
    forward = _replay(np.zeros((3, 1)), axes, values, settings.precision)
    estimate = _estimate_batch(axes, values, settings.precision)
    return SequenceResult(tuple(outcomes), _state(forward), _state(estimate))


def spectral_match(result: SequenceResult, hypothetical) -> float:
    """Largest eigenvalue gap between the sequence estimate and the replayed
    mixed-start state for the same outcomes.

    Accepts either the replayed SequenceResult (outcome records are then
    checked and a mismatch raises) or a bare DensityMatrix.
    """
    if isinstance(hypothetical, SequenceResult):
        if hypothetical.outcomes != result.outcomes:
            raise ValueError("cannot compare runs with mismatched outcome records")
        state = hypothetical.aposteriori
    elif isinstance(hypothetical, DensityMatrix):
        state = hypothetical
    else:
        raise TypeError(f"expected SequenceResult or DensityMatrix, got {type(hypothetical)!r}")
    len_est = _norm(result.estimate.bloch)
    len_hyp = _norm(state.bloch)
    # eigenvalues are (1 +- |r|)/2, so sorted pairs differ by ||r| - |r'||/2
    return 0.5 * abs(len_est - len_hyp)


def _expected_fidelities(estimate: np.ndarray, truth: np.ndarray, strategy: str) -> np.ndarray:
    """Exact conditional mean of the purified-estimate fidelity given each record.

    For random-eigenstate this is fidelity(estimate, true) by bilinearity;
    for dominant-eigenstate it is the fidelity of the leading eigenstate
    (0.5 for a degenerate estimate, averaging the uniform tie-break).
    Recording the conditional mean instead of one purification draw leaves
    every expectation unchanged and only removes Monte Carlo variance.
    """
    if strategy == RANDOM_EIGENSTATE:
        return 0.5 * (1.0 + _dot(estimate, truth))
    if strategy == DOMINANT_EIGENSTATE:
        length = np.sqrt(_dot(estimate, estimate))
        degenerate = length < DEGENERACY_TOL
        leading = estimate / np.where(degenerate, 1.0, length)
        return np.where(degenerate, 0.5, 0.5 * (1.0 + _dot(leading, truth)))
    raise ValueError(f"unknown strategy {strategy!r}")


def direct_fidelity_samples(
    settings: MeasurementSettings,
    n: int,
    trials: int,
    strategy: str = RANDOM_EIGENSTATE,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Estimate fidelities over random pure inputs, one run per trial, shape (trials,).

    Every trial draws a uniform pure true state on its group's stream
    derive_stream(seed, base_index + jG), runs the sequence, and records
    the expected fidelity of the purified estimate under `strategy`.
    `ensemble.run_ensemble` summarizes them per grid point.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    def group(streams):
        truth = _pure_starts(streams)
        _, axes, outcomes = _recorded_run(truth, streams, n, settings.precision)
        return _expected_fidelities(_estimate_batch(axes, outcomes, settings.precision), truth, strategy)

    return _by_trial_groups(group, n, trials, seed, base_index)


def purity_fidelity_samples(
    settings: MeasurementSettings,
    n: int,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Fidelities over random pure inputs from mixed-start purities alone, shape (trials,).

    Per trial the sample is (1 + tr[rho^2])/3 for the final state of a
    mixed-start run; the estimate state shares that purity, which is all
    the average over random pure inputs depends on.
    """

    def group(streams):
        return (1.0 + _purity(_mixed_start_final(streams, n, settings.precision))) / 3.0

    return _by_trial_groups(group, n, trials, seed, base_index)


def hypothetical_purity_paths(
    n: int,
    settings: MeasurementSettings,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Purity after every step of mixed-start runs, shape (trials, n + 1).

    Column k holds tr[rho^2] after k measurements (column 0 is the mixed
    0.5); used to compare the step-resolved sequence against the
    continuous-measurement curves.
    """

    def group(streams):
        paths = np.empty((_width(streams), n + 1))
        paths[:, 0] = 0.5
        steps = _sampled_steps(np.zeros((3, _width(streams))), streams, n, settings.precision)
        for step, (r, _, _) in enumerate(steps, 1):
            paths[:, step] = _purity(r)
        return paths

    return _by_trial_groups(group, n, trials, seed, base_index)
