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

Every experiment advances B trials in lockstep on a component-major (3, B)
Bloch batch, trial k in column k, through `povm.posterior_batch`, the layout
the SDE ensemble steps too.  Trial k draws from derive_stream(seed, base_index
+ k), as `run_sequence` does from its stream, in one fixed order: three
normals for a drawn pure start, then per block of at most DRAW_BLOCK steps
the axes `standard_normal((m, 3))`, branch uniforms `random(m)` and outcome
noise `standard_normal(m)`.  Results depend on (seed, k) alone.

That layout is read, not rebuilt, per trial: a trial group holds the PCG64
states of its streams (`montecarlo._stream_states`) and positions one
reused generator at each in turn, and a pure start's three normals come in
the same call as the first block's axes, `standard_normal(3 + 3m)`, which
consumes the stream exactly as the two separate draws do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    DEGENERACY_TOL,
    FULLY_MIXED,
    DensityMatrix,
    MeasurementAxis,
    _dot,
    _norm,
    _pure_batch,
    _purity,
)
from .montecarlo import DRAW_BLOCK, _stream_states, summarize
from .povm import (
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    STRATEGIES,
    MeasurementSettings,
    log_weights,
    posterior_batch,
)

def _draw_block(gens, m: int, pure_starts: bool = False):
    """m steps of randomness per stream: unit axes (m, 3, B), uniforms and noise (m, B).

    With pure_starts every stream first draws the three normals of a uniform
    pure start, in the same call as its axes, and the (3, B) starts
    (`random_pure_state` arithmetic) lead the result; otherwise it leads with None.
    Every stream is a numpy Generator: it draws straight into its own row of
    the trial-major buffers through `out=`.
    """
    lead = 3 if pure_starts else 0
    normals = np.empty((len(gens), lead + 3 * m))
    uniforms = np.empty((len(gens), m))
    noise = np.empty((len(gens), m))
    for row, u, z, g in zip(normals, uniforms, noise, gens):
        g.standard_normal(out=row)
        while lead and not _dot(row, row) > 0.0:
            # `_random_unit` draws three more normals for a zero-length start
            row[:] = np.concatenate([row[3:], g.standard_normal(3)])
        g.random(out=u)
        g.standard_normal(out=z)
    axes = normals[:, lead:].reshape(len(gens), m, 3).T  # (3, m, B)
    length = np.sqrt(_dot(axes, axes))  # `random_axis` arithmetic
    if not (length > 0.0).all():
        raise ValueError("drew a measurement axis of zero length")
    starts = _pure_batch(normals[:, :3].T) if pure_starts else None
    return starts, (axes / length).transpose(1, 0, 2), uniforms.T, noise.T


def _sampled_steps(r: np.ndarray, gens, n: int, precision: float, first=None):
    """Advance the (3, B) batch r by n measurements, column b on stream gens[b],
    yielding (r, axes, outcomes) after every step.  Each outcome is drawn
    from its column's current state: +1 if the step's uniform is below
    p_plus = (1 + axis.r)/2 and -1 otherwise, plus precision times the
    step's normal.  `first`, if given, is the first block (axes, uniforms,
    noise), already drawn.
    """
    done = 0
    while done < n:
        axes, uniforms, noise = first or _draw_block(gens, min(DRAW_BLOCK, n - done))[1:]
        first = None
        for a, u, z in zip(axes, uniforms, noise):
            p_plus = np.clip(0.5 * (1.0 + _dot(a, r)), 0.0, 1.0)
            outcomes = np.where(u < p_plus, 1.0, -1.0) + precision * z
            r = posterior_batch(r, a, *log_weights(outcomes, precision))
            yield r, a, outcomes
        done += len(axes)


def _mixed_start_final(gens, n: int, precision: float) -> np.ndarray:
    r = np.zeros((3, len(gens)))
    for r, _, _ in _sampled_steps(r, gens, n, precision):
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


def _recorded_run(start: np.ndarray, gens, n: int, precision: float, first=None):
    """Forward run from the (3, B) `start`; returns (final batch, axes (n, 3, B), outcomes (n, B))."""
    axes = np.empty((n, 3, len(gens)))
    outcomes = np.empty((n, len(gens)))
    r = start
    for i, (r, a, s) in enumerate(_sampled_steps(start, gens, n, precision, first)):
        axes[i], outcomes[i] = a, s
    return r, axes, outcomes


class _GroupStreams:
    """The streams derive_stream(seed, k), k in [lo, hi), of one trial group, on one generator.

    Iterating yields the generator positioned at each trial's stream in
    turn, so a group of several trials can be iterated once only: it draws
    one block, its n being at most DRAW_BLOCK.  A group of one trial is
    positioned once and its stream carries on from block to block.
    """

    def __init__(self, seed: int, lo: int, hi: int):
        self._states = [
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            for state, inc in _stream_states(seed, lo, hi)
        ]
        self._generator = np.random.Generator(np.random.PCG64(0))
        self._generator.bit_generator.state = self._states[0]
        self._drawn = False

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        if len(self._states) == 1:
            yield self._generator
            return
        if self._drawn:
            raise RuntimeError("a group of several trials draws one block only")
        self._drawn = True
        bits = self._generator.bit_generator
        for state in self._states:
            bits.state = state
            yield self._generator


def _by_trial_groups(fn, n: int, trials: int, seed: int, base_index: int) -> np.ndarray:
    """fn(gens) over consecutive trial groups of at most DRAW_BLOCK trial-steps, concatenated.

    A group has several trials only if each draws a single block (n at most
    DRAW_BLOCK / 2); a longer run is a group of its own.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    size = max(1, DRAW_BLOCK // max(1, n))
    return np.concatenate([
        fn(_GroupStreams(seed, base_index + lo, base_index + min(lo + size, trials)))
        for lo in range(0, trials, size)
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
    the reverse replay of the record.  rng must be a numpy Generator: the
    draws are written into preallocated rows through its `out=` argument."""
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    final, axes, outcomes = _recorded_run(np.array(true_state.bloch)[:, None], [rng], n, settings.precision)
    record = tuple((MeasurementAxis(tuple(a[:, 0].tolist())), float(s[0])) for a, s in zip(axes, outcomes))
    estimate = _estimate_batch(axes, outcomes, settings.precision)
    return SequenceResult(record, _state(final), _state(estimate))


def hypothetical_run(
    n: int, settings: MeasurementSettings, rng: np.random.Generator
) -> SequenceResult:
    """A run whose initial state is fully mixed, outcomes sampled accordingly.

    The aposteriori field then realizes A A^dag / tr[A A^dag] for the
    recorded outcomes, the spectral twin of the sequence estimate.  rng
    must be a numpy Generator, as for `run_sequence`.
    """
    return run_sequence(FULLY_MIXED, n, settings, rng)


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


@dataclass(frozen=True)
class FidelityStatistic:
    """Monte Carlo mean, standard error, and sample count."""

    mean: float
    std_error: float
    samples: int


def _statistic(samples: np.ndarray) -> FidelityStatistic:
    mean, err = summarize(samples)
    return FidelityStatistic(mean, err, len(samples))


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
    """Per-trial samples of `fidelity_direct`, shape (trials,)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    def group(gens):
        truth, *first = _draw_block(gens, min(DRAW_BLOCK, n), pure_starts=True)
        _, axes, outcomes = _recorded_run(truth, gens, n, settings.precision, first)
        return _expected_fidelities(_estimate_batch(axes, outcomes, settings.precision), truth, strategy)

    return _by_trial_groups(group, n, trials, seed, base_index)


def fidelity_direct(
    settings: MeasurementSettings,
    n: int,
    trials: int,
    strategy: str = RANDOM_EIGENSTATE,
    seed: int = 0,
    base_index: int = 0,
) -> FidelityStatistic:
    """Mean estimate fidelity over random pure inputs, one run per trial.

    Trial k draws its own stream derive_stream(seed, base_index + k), a
    uniform pure true state, runs the sequence, and records the expected
    fidelity of the purified estimate under `strategy`.
    """
    return _statistic(direct_fidelity_samples(settings, n, trials, strategy, seed, base_index))


def purity_fidelity_samples(
    settings: MeasurementSettings,
    n: int,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Per-trial samples of `fidelity_purity`, shape (trials,)."""

    def group(gens):
        return (1.0 + _purity(_mixed_start_final(gens, n, settings.precision))) / 3.0

    return _by_trial_groups(group, n, trials, seed, base_index)


def fidelity_purity(
    settings: MeasurementSettings,
    n: int,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> FidelityStatistic:
    """Mean fidelity over random pure inputs from mixed-start purities alone.

    Per trial the sample is (1 + tr[rho^2])/3 for the final state of a
    mixed-start run; the estimate state shares that purity, which is all
    the average over random pure inputs depends on.
    """
    return _statistic(purity_fidelity_samples(settings, n, trials, seed, base_index))


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

    def group(gens):
        paths = np.empty((len(gens), n + 1))
        paths[:, 0] = 0.5
        steps = _sampled_steps(np.zeros((3, len(gens))), gens, n, settings.precision)
        for step, (r, _, _) in enumerate(steps, 1):
            paths[:, step] = _purity(r)
        return paths

    return _by_trial_groups(group, n, trials, seed, base_index)
