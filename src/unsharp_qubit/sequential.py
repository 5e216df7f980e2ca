"""Sequences of unsharp measurements along independent random axes.

A run applies n measurements, each along a fresh uniform axis, sampling
every outcome from the current conditional state.  The whole sequence is
one generalized measurement whose element is E = A^dag A with

    A = sqrt(effect_n) ... sqrt(effect_1),

so the record-only estimate of the unknown state is A^dag A / tr[A^dag A].
A is accumulated as a Kraus chain: after every factor the operator is
rescaled to unit largest singular value and the discarded scale goes into
a log accumulator, because tr E decays roughly like (2 pi precision^2)^-n
and would underflow doubles near n = 700 even at precision 1.

Replaying the same outcome record from the fully mixed state yields the
state A A^dag / tr[A A^dag]: a different operator, but one sharing the
spectrum of the estimate (singular values of A), hence its purity.  That
identity is what the purity-based mean-fidelity estimator rests on, and
`spectral_match` checks it numerically for every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (
    FULLY_MIXED,
    DensityMatrix,
    GeneralOperator,
    MeasurementAxis,
    _norm,
    fidelity,
    pauli_product,
    purity,
    random_axis,
    random_pure_state,
    spectral_decompose,
)
from .montecarlo import derive_stream, summarize
from .povm import (
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    GaussianEffect,
    MeasurementSettings,
    make_effect,
    posterior_update,
    sample_outcome,
)

# fidelity experiments require pure inputs at least this pure
PURE_INPUT_TOL = 1e-9


@dataclass(frozen=True)
class KrausChain:
    """Ordered product of effect square roots, in split normal form.

    `operator` has largest singular value 1; `log_norm` holds the log of
    the positive scale split off so far, so the represented operator is
    exp(log_norm) * operator.
    """

    operator: GeneralOperator
    log_norm: float
    length: int

    @classmethod
    def identity(cls) -> "KrausChain":
        return cls(GeneralOperator.identity(), 0.0, 0)


def _gram(op: GeneralOperator) -> tuple[float, tuple[float, float, float]]:
    """Real Pauli components (h0, h) of the positive operator op^dag op."""
    prod = pauli_product(op.adjoint(), op)
    return prod.scalar.real, tuple(c.real for c in prod.vector)


def chain_append(chain: KrausChain, effect: GaussianEffect) -> KrausChain:
    """Multiply sqrt(effect) onto the left of the chain and renormalize.

    sqrt(effect) = sqrt(g+) P_plus + sqrt(g-) P_minus is formed with the
    dominant log weight factored out, so arbitrarily deep tails cost only
    log-scale bookkeeping.
    """
    log_plus = effect.log_weight_plus
    log_minus = effect.log_weight_minus
    lead = max(log_plus, log_minus)
    u_plus = math.exp(0.5 * (log_plus - lead))
    u_minus = math.exp(0.5 * (log_minus - lead))
    n = effect.axis.direction
    half_sum = 0.5 * (u_plus + u_minus)
    half_diff = 0.5 * (u_plus - u_minus)
    root = GeneralOperator(half_sum, (half_diff * n[0], half_diff * n[1], half_diff * n[2]))
    op = pauli_product(root, chain.operator)
    h0, h = _gram(op)
    top = math.sqrt(h0 + _norm(h))  # largest singular value
    if top <= 0.0 or not math.isfinite(top):
        raise ValueError("chain append lost normalizability")
    return KrausChain(
        op.scaled(1.0 / top),
        chain.log_norm + 0.5 * lead + math.log(top),
        chain.length + 1,
    )


def sequence_estimate(chain: KrausChain) -> DensityMatrix:
    """Normalized sequence element A^dag A / tr[A^dag A] (log scale cancels)."""
    h0, h = _gram(chain.operator)
    return DensityMatrix.clipped((h[0] / h0, h[1] / h0, h[2] / h0))


@dataclass(frozen=True)
class SequenceResult:
    """Full record of one measurement sequence."""

    outcomes: tuple[tuple[MeasurementAxis, float], ...]
    aposteriori: DensityMatrix
    chain: KrausChain
    estimate: DensityMatrix


def run_sequence(
    true_state: DensityMatrix, n: int, settings: MeasurementSettings, rng: np.random.Generator
) -> SequenceResult:
    """n measurements on `true_state`: fresh random axis, outcome sampled
    from the current conditional state, posterior update, chain append."""
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    state = true_state
    chain = KrausChain.identity()
    outcomes = []
    for _ in range(n):
        axis = random_axis(rng)
        sigma = sample_outcome(state, axis, settings, rng)
        effect = make_effect(axis, settings, sigma)
        state = posterior_update(state, effect)
        chain = chain_append(chain, effect)
        outcomes.append((axis, sigma))
    return SequenceResult(tuple(outcomes), state, chain, sequence_estimate(chain))


def hypothetical_run(
    n: int, settings: MeasurementSettings, rng: np.random.Generator
) -> SequenceResult:
    """A run whose initial state is fully mixed, outcomes sampled accordingly.

    The aposteriori field then realizes A A^dag / tr[A A^dag] for the
    recorded outcomes, the spectral twin of the sequence estimate.
    """
    return run_sequence(FULLY_MIXED, n, settings, rng)


def replay_hypothetical(
    outcomes: tuple[tuple[MeasurementAxis, float], ...], settings: MeasurementSettings
) -> SequenceResult:
    """Deterministically rerun a recorded outcome list from the mixed state."""
    state = FULLY_MIXED
    chain = KrausChain.identity()
    for axis, sigma in outcomes:
        effect = make_effect(axis, settings, sigma)
        state = posterior_update(state, effect)
        chain = chain_append(chain, effect)
    return SequenceResult(tuple(outcomes), state, chain, sequence_estimate(chain))


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


def _strategy_expected_fidelity(estimate: DensityMatrix, true_state: DensityMatrix, strategy: str) -> float:
    """Exact conditional mean of the purified-estimate fidelity given the record.

    For random-eigenstate this is fidelity(estimate, true) by bilinearity;
    for dominant-eigenstate it is the fidelity of the leading eigenstate
    (0.5 for a degenerate estimate, averaging the uniform tie-break).
    Recording the conditional mean instead of one purification draw leaves
    every expectation unchanged and only removes Monte Carlo variance.
    """
    if strategy == RANDOM_EIGENSTATE:
        return fidelity(estimate, true_state)
    if strategy == DOMINANT_EIGENSTATE:
        decomp = spectral_decompose(estimate)
        if decomp.degenerate:
            return 0.5
        return fidelity(decomp.projector_plus, true_state)
    raise ValueError(f"unknown strategy {strategy!r}")


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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    values = np.empty(trials)
    for k in range(trials):
        rng = derive_stream(seed, base_index + k)
        true_state = random_pure_state(rng)
        result = run_sequence(true_state, n, settings, rng)
        values[k] = _strategy_expected_fidelity(result.estimate, true_state, strategy)
    mean, err = summarize(values)
    return FidelityStatistic(mean, err, trials)


def fidelity_hypothetical_fixed(
    true_state: DensityMatrix,
    settings: MeasurementSettings,
    n: int,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> FidelityStatistic:
    """Fidelity of the estimate for one fixed pure state, via mixed-start runs.

    Per trial the sample is 2 * (tr[rho_mixed_run rho_true])^2 with the
    outcomes drawn from the mixed-start (not the true) density; its mean
    equals the direct estimator's target.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if purity(true_state) < 1.0 - PURE_INPUT_TOL:
        raise ValueError("fidelity experiments require a pure true state")
    values = np.empty(trials)
    for k in range(trials):
        rng = derive_stream(seed, base_index + k)
        result = hypothetical_run(n, settings, rng)
        overlap = fidelity(result.aposteriori, true_state)
        values[k] = 2.0 * overlap * overlap
    mean, err = summarize(values)
    return FidelityStatistic(mean, err, trials)


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
    paths = hypothetical_purity_paths(n, settings, trials, seed=seed, base_index=base_index)
    mean, err = summarize((1.0 + paths[:, n]) / 3.0)
    return FidelityStatistic(mean, err, trials)


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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    paths = np.empty((trials, n + 1))
    for k in range(trials):
        rng = derive_stream(seed, base_index + k)
        state = FULLY_MIXED
        paths[k, 0] = 0.5
        for step in range(1, n + 1):
            axis = random_axis(rng)
            sigma = sample_outcome(state, axis, settings, rng)
            state = posterior_update(state, make_effect(axis, settings, sigma))
            paths[k, step] = purity(state)
    return paths
