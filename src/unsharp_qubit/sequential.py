"""Sequences of unsharp measurements along independent random axes.

A run applies n measurements, each along a fresh uniform axis, sampling
every outcome from the current conditional state.  The whole sequence is
one generalized measurement whose element is E = A^dag A with

    A = sqrt(effect_n) ... sqrt(effect_1),

so the record-only estimate of the unknown state is A^dag A / tr[A^dag A]:
the fully mixed state updated by the record in reverse order, last
measurement first.  Every step goes through the one closed-form update
`povm._posterior`, whose result is a normalized state, so no scale
accumulates however long the record.

Replaying the same record forwards from the fully mixed state yields the
state A A^dag / tr[A A^dag]: a different operator, but one sharing the
spectrum of the estimate (singular values of A), hence its purity.  That
identity is what the purity-based mean-fidelity estimator rests on, and
`spectral_match` checks it numerically for every run.

The direct estimator replays nothing.  With t = tanh x, tr[A^dag A rho]
is, up to a factor no state changes, the product over steps of 1 + t a.r
along rho's conditional run r, and tr[A^dag A] twice that along the
mixed-start run m; so 1 + estimate.truth is the ratio of the two products,
and |estimate| = |m|.

Only `run_sequence` and `replay_hypothetical` step a Bloch vector, as
three Python floats.  The axes are isotropic and the update
commutes with rotations, so every grid sampler steps (B,) arrays of
invariants instead, each a Markov chain by itself: the Bloch length of the
mixed-start runs that read only the purity (`purity_samples`,
`hypothetical_purity_paths`), whose step needs only the cosine of its axis
to the Bloch vector, uniform on [-1, 1]; and for the direct estimator
d = estimate.truth, p = r.m and m's length g across r, from zeros with no
true state drawn, |m| read as sqrt(p^2 + g^2).  Their paths are not
`run_sequence`'s bit for bit.  A batch is whole trial groups
(`montecarlo._GROUP` trials each, on one stream per group), drawn in the
block layout the `montecarlo` docstring describes; `run_sequence` draws
the variates of a group of width 1 from the caller's stream.  An n grid's
samplers run each trial once, as a chain that `montecarlo._rows_at` reads
at every count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bloch import DEGENERACY_TOL, FULLY_MIXED, DensityMatrix, MeasurementAxis, Vec3, _dot, _norm
from .montecarlo import _BLOCK_STEPS, _GROUP, DRAW_BLOCK, _group_blocks, _group_streams, _rows_at, _width
from .povm import RANDOM_EIGENSTATE, STRATEGIES, MeasurementSettings, _posterior, _update_norm

# A mixed-start length step's variates, in draw order: the uniform of the
# axis cosine, the branch uniform, the outcome noise.
_LENGTH_KINDS = ("random", "random", "standard_normal")

# A direct chain step's variates, in draw order: the uniforms of the axis
# cosine to the truth and of its azimuth, the branch uniform, the outcome noise.
_DIRECT_KINDS = ("random", "random", "random", "standard_normal")


def _scale_block(branches: np.ndarray, noise: np.ndarray, precision: float) -> None:
    """Turn a block's branch uniforms u into 2u - 1 and its outcome normals z into precision z, in place."""
    branches *= 2.0
    branches -= 1.0
    noise *= precision


def _outcomes(along: np.ndarray, branches: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Outcomes drawn from states with Bloch component `along` on the axis: +1 where the
    scaled branch uniform 2u - 1 <= along, which has probability (1 + along)/2, and -1
    elsewhere, plus the scaled noise precision z."""
    return np.copysign(1.0, along - branches) + noise


def _length_posterior(rho: np.ndarray, along: np.ndarray, sines: np.ndarray, x: np.ndarray) -> None:
    """`povm._posterior`'s map of Bloch lengths, in place on the (B,) array rho.

    The Bloch vector has component along = rho c on the axis and length
    rho sqrt(1 - c^2) across it, with sines = 4 (1 - c^2).  With t = tanh x,
    the update takes the first to (t + along)/(1 + t along) and scales the
    second by sech x / (1 + t along), so with q = e^{-2|x|} and
    sech^2 x = 4 q/(1 + q)^2 the new length is
    min(sqrt((t + along)^2 + rho^2 sines q/(1 + q)^2)/(1 + t along), 1), the
    min being the rescale onto the sphere.  1 + t along <= 0 is refused.
    """
    t = np.tanh(x)
    norm = _update_norm(t, along)
    q = np.exp(-2.0 * np.abs(x))
    t += along
    t *= t
    rho *= rho
    rho *= sines
    rho *= q
    q += 1.0
    q *= q
    rho /= q
    rho += t
    np.sqrt(rho, out=rho)
    rho /= norm
    np.minimum(rho, 1.0, out=rho)


def _mixed_start_lengths(streams, n: int, precision: float):
    """Yield the (B,) Bloch lengths of the groups' mixed-start runs after each of n steps.

    A step turns its first uniform u into the cosine c = 2u - 1 of its axis
    to the Bloch vector, draws the outcome by `_outcomes` with
    along = rho c, and updates the lengths by `_length_posterior`.  One
    array is updated in place and yielded after every step.
    """
    var = precision * precision
    rho = np.zeros(_width(streams))
    for cosines, branches, noise in _group_blocks(streams, n, _LENGTH_KINDS):
        cosines *= 2.0
        cosines -= 1.0
        sines = 4.0 * (1.0 - cosines) * (1.0 + cosines)
        _scale_block(branches, noise, precision)
        for c, sine, u, z in zip(cosines, sines, branches, noise):
            along = rho * c
            _length_posterior(rho, along, sine, _outcomes(along, u, z) / var)
            yield rho


def _direct_step(state: np.ndarray, c: np.ndarray, toward: np.ndarray, aside: np.ndarray, x: np.ndarray) -> None:
    """One measurement of the direct chain, in place on its (3, B) invariants (d, p, g).

    The truth's run r and the mixed-start run m share the axis a and
    x = outcome / precision^2: d = estimate.truth, p = r.m and g = |m - p r|;
    r stays pure, so |m| = sqrt(p^2 + g^2).  In the frame of r and of m's
    direction across it, a = (toward, aside, c), so mu = a.m = c p + toward g.
    With t = tanh x, q = e^{-2|x|} and h = sech x, a Bloch vector w goes to
    (h w + (t + (1 - h) a.w) a)/(1 + t a.w); so with D = (1 + t c)(1 + t mu),
    p' = ((t + c)(t + mu) + h^2 (p - c mu))/D, and g' = |m' x r'| =
    h |(aside k, v, f g aside)|/D for the f, k and v below, a root of a sum of
    squares, which stays accurate where the runs meet.  1 + d gains
    (1 + t c)/(1 + t mu), carried as d' = (d (1 + t c) + t (c - mu))/(1 + t mu)
    to keep d accurate near 0.  1 + t mu <= 0 or 1 + t c <= 0 is refused.
    """
    d, p, g = state
    mu = c * p + toward * g
    t = np.tanh(x)
    norm = _update_norm(t, mu)
    q = np.exp(-2.0 * np.abs(x))
    truth_norm = _update_norm(t, c)
    h = 2.0 * np.sqrt(q) / (1.0 + q)
    soft = 1.0 - h
    f = t + soft * c
    k = t * (1.0 - p) + soft * toward * g
    v = g * (h + f * c) + toward * k
    both = truth_norm * norm
    g_next = h * np.sqrt((aside * k) ** 2 + v * v + (f * g * aside) ** 2) / both
    p[:] = ((t + c) * (t + mu) + h * h * (p - c * mu)) / both
    g[:] = g_next
    d[:] = (d * truth_norm + t * (c - mu)) / norm


def _direct_chain(streams, n: int, precision: float):
    """Yield the (3, B) invariants (d, p, g) of the groups' direct chains after each of n steps.

    A step turns its uniforms u and v into the cosine c = 2u - 1 of its axis
    to the truth and the azimuth 2 pi v, draws the outcome from the truth by
    `_outcomes` with along = c, and updates the invariants by `_direct_step`
    from zeros.  One array is updated in place and yielded after every step.
    """
    var = precision * precision
    state = np.zeros((3, _width(streams)))
    for cosines, azimuths, branches, noise in _group_blocks(streams, n, _DIRECT_KINDS):
        cosines *= 2.0
        cosines -= 1.0
        sines = np.sqrt((1.0 - cosines) * (1.0 + cosines))
        azimuths *= 2.0 * np.pi
        _scale_block(branches, noise, precision)
        for c, toward, aside, u, z in zip(cosines, sines * np.cos(azimuths), sines * np.sin(azimuths), branches, noise):
            _direct_step(state, c, toward, aside, _outcomes(c, u, z) / var)
            yield state


def _replay(r, record) -> Vec3:
    """The Bloch vector r updated by `_posterior` at every (axis, x) of record, in its order."""
    for a, x in record:
        r = _posterior(r, a, x)
    return r


def _grid(n_grid) -> tuple[int, ...]:
    """An n grid as a tuple of ints; one of non-integers, empty, not strictly ascending or negative is refused."""
    try:
        grid = tuple(map(operator.index, n_grid))
    except TypeError:
        raise TypeError(f"an n grid must be a sequence of integers, got {n_grid!r}") from None
    if not grid or grid[0] < 0 or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(f"an n grid must be nonempty, strictly ascending and nonnegative, got {n_grid!r}")
    return grid


def _by_trial_groups(fn, n: int, trials: int, seed: int, base_index: int) -> np.ndarray:
    """fn(streams) over consecutive batches of trial groups, concatenated.

    Group j covers trials [jG, (j + 1)G) and draws from derive_stream(seed,
    base_index + jG); a batch is as many whole groups of runs of n steps as
    fit in DRAW_BLOCK trial-steps, and at least one.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
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


def run_sequence(
    true_state: DensityMatrix, n: int, settings: MeasurementSettings, rng: np.random.Generator
) -> SequenceResult:
    """n measurements on `true_state`: fresh random axis, outcome sampled
    from the current conditional state, posterior update; the estimate is
    the reverse replay of the record.  rng is a numpy Generator; per block
    of m <= `montecarlo._BLOCK_STEPS` steps it draws the axes
    standard_normal((m, 3)), then the branch uniforms random(m), then the
    outcome noise standard_normal(m).  A zero-length axis is refused.  Each
    outcome is `_outcomes`' draw on floats, and the state steps as three
    floats through `povm._posterior`.

    From `FULLY_MIXED` the aposteriori field realizes A A^dag / tr[A A^dag]
    for the recorded outcomes, the spectral twin of the estimate.
    """
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    precision = settings.precision
    var = precision * precision
    r = true_state.bloch
    record, steps = [], []
    for done in range(0, n, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, n - done)
        axes, branches, noise = rng.standard_normal((m, 3)), rng.random(m), rng.standard_normal(m)
        length = np.sqrt(_dot(axes.T, axes.T))  # `random_pure_state` arithmetic
        if not (length > 0.0).all():
            raise ValueError("drew a measurement axis of zero length")
        axes /= length[:, None]
        _scale_block(branches, noise, precision)
        for a, u, z in zip(map(tuple, axes.tolist()), branches.tolist(), noise.tolist()):
            s = math.copysign(1.0, _dot(a, r) - u) + z
            x = s / var
            r = _posterior(r, a, x)
            record.append((MeasurementAxis(a), s))
            steps.append((a, x))
    estimate = _replay(FULLY_MIXED.bloch, reversed(steps))
    return SequenceResult(tuple(record), DensityMatrix(r), DensityMatrix(estimate))


def replay_hypothetical(
    outcomes: tuple[tuple[MeasurementAxis, float], ...], settings: MeasurementSettings
) -> SequenceResult:
    """Deterministically rerun a recorded outcome list from the mixed state.

    The aposteriori field is the forward replay A A^dag / tr, the estimate
    the reverse replay A^dag A / tr.  A record with an infinite or undefined
    x = outcome / precision^2 is refused.
    """
    values = np.array([s for _, s in outcomes], dtype=float)
    with np.errstate(over="ignore"):  # a recorded outcome can overflow x, which is refused below
        x = values / (settings.precision * settings.precision)
    if not np.isfinite(x).all():
        raise ValueError("degenerate update: an infinite or undefined outcome")
    steps = list(zip([axis.direction for axis, _ in outcomes], x.tolist()))
    forward, estimate = _replay(FULLY_MIXED.bloch, steps), _replay(FULLY_MIXED.bloch, reversed(steps))
    return SequenceResult(tuple(outcomes), DensityMatrix(forward), DensityMatrix(estimate))


def spectral_match(result: SequenceResult, hypothetical: SequenceResult) -> float:
    """Largest eigenvalue gap between the sequence estimate and the replayed
    mixed-start state for the same outcomes.

    hypothetical is `replay_hypothetical` of result's outcome record; a
    mismatched record raises.
    """
    if hypothetical.outcomes != result.outcomes:
        raise ValueError("cannot compare runs with mismatched outcome records")
    len_est = _norm(result.estimate.bloch)
    len_hyp = _norm(hypothetical.aposteriori.bloch)
    # eigenvalues are (1 +- |r|)/2, so sorted pairs differ by ||r| - |r'||/2
    return 0.5 * abs(len_est - len_hyp)


def direct_fidelity_samples(
    settings: MeasurementSettings,
    n_grid,
    trials: int,
    strategy: str = RANDOM_EIGENSTATE,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Estimate fidelities over random pure inputs at every count of n_grid, shape (trials, len(n_grid)).

    Every trial runs `_direct_chain` once, to n_grid[-1], on its group's
    stream derive_stream(seed, base_index + jG).  Column i holds the
    conditional mean, given the first n_grid[i] outcomes, of the fidelity of
    the estimate purified under `strategy`, which keeps every expectation and
    only removes Monte Carlo variance: (1 + d)/2 for random-eigenstate, and
    (1 + d/rho)/2 for dominant-eigenstate (0.5 below `DEGENERACY_TOL`,
    averaging the uniform tie-break).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    grid = _grid(n_grid)

    def group(streams):
        chain = _direct_chain(streams, grid[-1], settings.precision)
        d, p, g = _rows_at(chain, grid, np.zeros((3, _width(streams)))).transpose(1, 2, 0)
        if strategy == RANDOM_EIGENSTATE:
            return 0.5 * (1.0 + d)
        rho = np.sqrt(p * p + g * g)
        return np.where(rho < DEGENERACY_TOL, 0.5, 0.5 * (1.0 + d / np.maximum(rho, DEGENERACY_TOL)))

    return _by_trial_groups(group, grid[-1], trials, seed, base_index)


def purity_samples(
    settings: MeasurementSettings,
    n_grid,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Purities tr[rho^2] of mixed-start runs at every count of n_grid, shape (trials, len(n_grid)).

    Every trial runs once, to n_grid[-1], on its group's stream
    derive_stream(seed, base_index + jG), and only the grid's columns are
    kept.  The estimate shares that purity P, so (1 + P)/3 is its
    random-eigenstate fidelity averaged over random pure inputs.
    """
    grid = _grid(n_grid)

    def group(streams):
        chain = _mixed_start_lengths(streams, grid[-1], settings.precision)
        lengths = _rows_at(chain, grid, np.zeros(_width(streams))).T
        return 0.5 * (1.0 + lengths * lengths)

    return _by_trial_groups(group, grid[-1], trials, seed, base_index)


def hypothetical_purity_paths(
    n: int,
    settings: MeasurementSettings,
    trials: int,
    seed: int = 0,
    base_index: int = 0,
) -> np.ndarray:
    """Purity after every step of mixed-start runs, shape (trials, n + 1).

    Column k holds tr[rho^2] after k measurements (column 0 is the mixed
    0.5): `purity_samples` at the grid range(n + 1).
    """
    if n < 0:
        raise ValueError(f"measurement count must be nonnegative, got {n!r}")
    return purity_samples(settings, range(n + 1), trials, seed, base_index)
