import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from scipy import stats as sps

import unsharp_qubit.montecarlo as montecarlo
import unsharp_qubit.sequential as sequential
from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    FULLY_MIXED,
    RANDOM_EIGENSTATE,
    DensityMatrix,
    MeasurementAxis,
    MeasurementSettings,
    ExperimentSpec,
    derive_stream,
    fidelity,
    hypothetical_purity_paths,
    mean_fidelity_closed_form,
    purity,
    random_pure_state,
    replay_hypothetical,
    run_ensemble,
    run_sequence,
    spectral_match,
    summarize,
)
from unsharp_qubit.bloch import _dot
from unsharp_qubit.ensemble import HYPOTHETICAL_PURITY, SEQUENTIAL_FIDELITY
from unsharp_qubit.povm import log_weights, posterior_batch

Z_AXIS = MeasurementAxis((0.0, 0.0, 1.0))
X_AXIS = MeasurementAxis((1.0, 0.0, 0.0))

CALIBRATION_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the closed-form reference curve advances time by 12/precision^2 per "
    "measurement while the simulated sequence matches the continuous equation at "
    "1/(12 precision^2) per measurement; quantified in test_acceptance.py",
)


def settings(width):
    return MeasurementSettings(width)


G = montecarlo._GROUP


class _ColumnStream:
    """Column b of one trial group's draws, served as a one-trial group draws them.

    A draw of shape (..., 1), or `random_pure_state`'s three normals, takes
    the group's draw of shape (..., width) from its stream and keeps column
    b, so the public one-trial runs replay trial b of the group.
    """

    def __init__(self, rng, width, b):
        self._rng, self._width, self._b = rng, width, b

    def _column(self, draw, size):
        if size == 3:  # a pure start: the group draws (3, width)
            return draw((3, self._width))[:, self._b]
        return draw((*size[:-1], self._width))[..., self._b : self._b + 1]

    def standard_normal(self, size):
        return self._column(self._rng.standard_normal, size)

    def random(self, size):
        return self._column(self._rng.random, size)


def _trial_stream(seed, base_index, trials, k):
    """Trial k of a part of `trials` trials, as a one-trial stream: its column of its group."""
    lo = k - k % G
    return _ColumnStream(derive_stream(seed, base_index + lo), min(G, trials - lo), k % G)


def _dense_effect_sqrt(axis, width, outcome):
    """sqrt(effect) = sqrt(g+) P+ + sqrt(g-) P- as a dense 2x2 matrix."""
    obs = axis.matrix()
    eye = np.eye(2, dtype=complex)
    g_plus = math.exp(-((outcome - 1.0) ** 2) / (2 * width * width)) / math.sqrt(2 * math.pi * width * width)
    g_minus = math.exp(-((outcome + 1.0) ** 2) / (2 * width * width)) / math.sqrt(2 * math.pi * width * width)
    return math.sqrt(g_plus) * 0.5 * (eye + obs) + math.sqrt(g_minus) * 0.5 * (eye - obs)


def _dense_sequence_operator(outcomes, width):
    """A = sqrt(effect_n) ... sqrt(effect_1), rescaled after every factor (scale cancels)."""
    a = np.eye(2, dtype=complex)
    for axis, outcome in outcomes:
        a = _dense_effect_sqrt(axis, width, outcome) @ a
        a /= np.abs(a).max()
    return a


def _normalized(m):
    return m / np.trace(m).real


def test_empty_chain_is_identity():
    result = replay_hypothetical((), settings(1.0))
    assert result.estimate.bloch == (0.0, 0.0, 0.0)
    assert result.aposteriori.bloch == (0.0, 0.0, 0.0)


def test_symmetric_effect_keeps_chain_proportional_to_identity():
    est = replay_hypothetical(((Z_AXIS, 0.0),), settings(1.0)).estimate
    assert est.bloch == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_commuting_effects_multiply_weights():
    est = replay_hypothetical(((Z_AXIS, 1.0), (Z_AXIS, 1.0)), settings(1.0)).estimate
    assert est.bloch == pytest.approx((0.0, 0.0, math.tanh(2.0)), abs=1e-12)


def test_long_chain_stays_normalized():
    # 10^4 steps: tr E underflows doubles long before this, the replays must not
    rng = derive_stream(801, 0)
    cfg = settings(10.0)
    record = tuple(
        (MeasurementAxis(random_pure_state(rng).bloch), float(rng.normal(0.0, 10.0)))
        for _ in range(10**4)
    )
    result = replay_hypothetical(record, cfg)
    for state in (result.estimate, result.aposteriori):
        assert all(math.isfinite(x) for x in state.bloch)
        assert math.sqrt(sum(x * x for x in state.bloch)) <= 1.0
    assert spectral_match(result, result.aposteriori) <= 1e-9


def test_two_axis_chain_matches_dense_oracle():
    record = ((Z_AXIS, 1.0), (X_AXIS, 1.0))
    result = replay_hypothetical(record, settings(1.0))
    a = _dense_effect_sqrt(X_AXIS, 1.0, 1.0) @ _dense_effect_sqrt(Z_AXIS, 1.0, 1.0)
    np.testing.assert_allclose(result.estimate.matrix(), _normalized(a.conj().T @ a), atol=1e-12)
    np.testing.assert_allclose(result.aposteriori.matrix(), _normalized(a @ a.conj().T), atol=1e-12)


def test_single_effect_chain_matches_single_estimate():
    # one measurement: the estimate is the mixed state's posterior, tanh(s / width^2) n
    est = replay_hypothetical(((Z_AXIS, 1.0),), settings(1.0)).estimate
    mixed = posterior_batch(np.zeros((3, 1)), np.array(Z_AXIS.direction)[:, None], *log_weights(np.array([1.0]), 1.0))
    assert list(est.bloch) == mixed[:, 0].tolist()
    assert est.bloch == pytest.approx((0.0, 0.0, math.tanh(1.0)), abs=1e-12)
    assert replay_hypothetical(((Z_AXIS, 1.0),), settings(0.01)).estimate.bloch == (0.0, 0.0, 1.0)


@hypothesis_settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    width=st.sampled_from([0.3, 1.0, 20.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_replays_match_dense_oracle(n, width, seed):
    # A = prod sqrt(effect) from dense matrices: the reverse replay is
    # A^dag A / tr, the forward replay A A^dag / tr, the run's own state
    # A rho A^dag / tr
    cfg = settings(width)
    rng = derive_stream(seed, 0)
    true_state = random_pure_state(rng)
    result = run_sequence(true_state, n, cfg, rng)
    a = _dense_sequence_operator(result.outcomes, width)
    np.testing.assert_allclose(result.estimate.matrix(), _normalized(a.conj().T @ a), atol=1e-9)
    replay = replay_hypothetical(result.outcomes, cfg)
    np.testing.assert_allclose(replay.aposteriori.matrix(), _normalized(a @ a.conj().T), atol=1e-9)
    np.testing.assert_allclose(
        result.aposteriori.matrix(), _normalized(a @ true_state.matrix() @ a.conj().T), atol=1e-9
    )
    assert replay.estimate == result.estimate


def test_stream_layout():
    # a trial's stream holds, in order: 3 start normals, the axes as
    # standard_normal((n, 3)), the branch uniforms random(n), the outcome
    # noise standard_normal(n)
    cfg, n = settings(2.0), 6
    rng = derive_stream(66, 0)
    result = run_sequence(random_pure_state(rng), n, cfg, rng)
    stream = derive_stream(66, 0)
    stream.standard_normal(3)
    axes = stream.standard_normal((n, 3))
    stream.random(n)
    noise = stream.standard_normal(n)
    for (axis, outcome), v, z in zip(result.outcomes, axes, noise):
        assert list(axis.direction) == (v / math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])).tolist()
        assert outcome in (1.0 + 2.0 * z, -1.0 + 2.0 * z)


def _rows_by_sub_batch(fn, trials, size):
    return np.concatenate([fn(min(size, trials - lo), lo) for lo in range(0, trials, size)])


@pytest.mark.parametrize("width", [1.0, 20.0])
def test_batch_rows_do_not_depend_on_batch(monkeypatch, width):
    # every row bit for bit the same in the full batch of three groups, in
    # sub-batches split at group boundaries, and in batches of one group each
    cfg = settings(width)
    samplers = {
        "direct": lambda trials, lo: sequential.direct_fidelity_samples(cfg, 30, trials, seed=61, base_index=lo),
        "dominant": lambda trials, lo: sequential.direct_fidelity_samples(
            cfg, 30, trials, DOMINANT_EIGENSTATE, seed=61, base_index=lo
        ),
        "purity": lambda trials, lo: sequential.purity_fidelity_samples(cfg, 30, trials, seed=62, base_index=lo),
        "paths": lambda trials, lo: hypothetical_purity_paths(30, cfg, trials, seed=63, base_index=lo),
    }
    trials = 2 * G + G // 2
    wholes = {name: fn(trials, 0) for name, fn in samplers.items()}
    for name, fn in samplers.items():
        np.testing.assert_array_equal(_rows_by_sub_batch(fn, trials, G), wholes[name], err_msg=name)
        np.testing.assert_array_equal(_rows_by_sub_batch(fn, trials, 2 * G), wholes[name], err_msg=name)
    monkeypatch.setattr(sequential, "DRAW_BLOCK", 30)  # one group per batch
    for name, fn in samplers.items():
        np.testing.assert_array_equal(fn(trials, 0), wholes[name], err_msg=name)


def test_batched_direct_samples_equal_scalar_runs():
    # trial b of group j is run_sequence on column b of group j's draws, after its pure start
    cfg = settings(3.0)
    trials = G + 50
    batch = sequential.direct_fidelity_samples(cfg, 25, trials, seed=64)
    for k in range(trials):
        rng = _trial_stream(64, 0, trials, k)
        true_state = random_pure_state(rng)
        assert batch[k] == fidelity(run_sequence(true_state, 25, cfg, rng).estimate, true_state)


def test_draw_block_bounds_memory_not_results(monkeypatch):
    # DRAW_BLOCK bounds the groups of a batch (one group per batch here),
    # which must not change a row; with groups drawing blocks shorter than
    # the sequence, every row is the run on its column of its group's draws
    cfg = settings(5.0)
    trials = G + 20
    whole = hypothetical_purity_paths(12, cfg, trials, seed=65)
    monkeypatch.setattr(sequential, "DRAW_BLOCK", 12)
    np.testing.assert_array_equal(hypothetical_purity_paths(12, cfg, trials, seed=65), whole)
    monkeypatch.setattr(sequential, "_BLOCK_STEPS", 5)
    blocked = hypothetical_purity_paths(12, cfg, trials, seed=65)
    finals = [
        purity(run_sequence(FULLY_MIXED, 12, cfg, _trial_stream(65, 0, trials, k)).aposteriori) for k in range(trials)
    ]
    assert blocked[:, -1].tolist() == finals
    assert np.all(blocked[:, 0] == 0.5) and np.all((blocked >= 0.5) & (blocked <= 1.0))


class _ZeroStartStream:
    """A real group stream whose first draw, the group's pure starts, has one column of exact zeros."""

    def __init__(self, rng, column):
        self._rng = rng
        self._column = column

    def standard_normal(self, size):
        values = self._rng.standard_normal(size)
        if self._column is not None:
            values[:, self._column] = 0.0
            self._column = None
        return values

    def random(self, size):
        return self._rng.random(size)


@pytest.mark.parametrize("block", [None, 10])
def test_zero_length_start_is_refused(monkeypatch, block):
    # trial G + 30's three start normals are zero: the batch refuses it, as it
    # refuses a zero-length axis, whether its group shares a batch or not
    cfg, n = settings(3.0), 25
    if block is not None:
        monkeypatch.setattr(sequential, "DRAW_BLOCK", block)  # one group per batch
    assert np.all(np.isfinite(sequential.direct_fidelity_samples(cfg, n, G + 50, seed=72)))
    real = sequential._group_streams

    def zero_start(seed, base_index, lo, hi):
        return [(_ZeroStartStream(g, 30) if base_index + lo + j * G == G else g, w)
                for j, (g, w) in enumerate(real(seed, base_index, lo, hi))]

    monkeypatch.setattr(sequential, "_group_streams", zero_start)
    with pytest.raises(ValueError, match="pure start of zero length"):
        sequential.direct_fidelity_samples(cfg, n, G + 50, seed=72)


def test_run_sequence_zero_steps():
    true_state = random_pure_state(derive_stream(20, 0))
    result = run_sequence(true_state, 0, settings(20.0), derive_stream(20, 1))
    assert result.estimate.bloch == (0.0, 0.0, 0.0)
    assert result.aposteriori == true_state
    assert fidelity(result.estimate, true_state) == 0.5


def test_run_sequence_rejects_negative_count():
    with pytest.raises(ValueError):
        run_sequence(FULLY_MIXED, -1, settings(1.0), derive_stream(0, 0))


def test_run_sequence_deterministic():
    cfg = settings(2.0)
    true_state = DensityMatrix((0.1, 0.2, -0.4))
    first = run_sequence(true_state, 3, cfg, derive_stream(77, 5))
    second = run_sequence(true_state, 3, cfg, derive_stream(77, 5))
    assert first == second


def test_first_outcome_marginal_matches_density():
    # mixed initial state so the outcome density is axis-independent
    cfg = settings(1.0)

    def first_outcomes(streams):
        _, _, outcomes = sequential._recorded_run(np.zeros((3, sequential._width(streams))), streams, 1, cfg.precision)
        return outcomes[0]

    draws = sequential._by_trial_groups(first_outcomes, 1, 10**5, 243, 0)
    for k in [*range(50), *range(10**5 - 50, 10**5)]:  # the batch reproduces the public per-trial run
        assert draws[k] == run_sequence(FULLY_MIXED, 1, cfg, _trial_stream(243, 0, 10**5, k)).outcomes[0][1]
    # the mixed state's outcome density is half g(s - 1) plus half g(s + 1)
    cdf = lambda xs: 0.5 * (sps.norm.cdf(xs, 1.0, 1.0) + sps.norm.cdf(xs, -1.0, 1.0))  # noqa: E731
    assert sps.kstest(draws, cdf).statistic < 0.01


def test_hypothetical_zero_steps_is_mixed():
    result = run_sequence(FULLY_MIXED, 0, settings(10.0), derive_stream(21, 0))
    assert purity(result.aposteriori) == 0.5


def test_hypothetical_single_step_equals_single_estimate():
    cfg = settings(1.0)
    result = run_sequence(FULLY_MIXED, 1, cfg, derive_stream(21, 1))
    axis, outcome = result.outcomes[0]
    est = [math.tanh(outcome / cfg.precision**2) * x for x in axis.direction]  # tanh(s / width^2) n
    assert result.aposteriori.bloch == pytest.approx(est, abs=1e-12)


def _purities_after_50_steps():
    # trial k is run_sequence(FULLY_MIXED, 50, ...) on its column of its group's draws, batched
    return hypothetical_purity_paths(50, settings(10.0), 10**3, seed=22)[:, 50]


def test_purity_paths_equal_hypothetical_runs():
    batched = _purities_after_50_steps()
    cfg = settings(10.0)
    for k in [*range(50), *range(10**3 - 50, 10**3)]:
        assert batched[k] == purity(run_sequence(FULLY_MIXED, 50, cfg, _trial_stream(22, 0, 10**3, k)).aposteriori)


@CALIBRATION_XFAIL
def test_hypothetical_purifies_within_characteristic_steps():
    assert _purities_after_50_steps().mean() > 0.95


def test_spectral_match_single_step():
    cfg = settings(1.0)
    result = run_sequence(FULLY_MIXED, 1, cfg, derive_stream(23, 0))
    replay = replay_hypothetical(result.outcomes, cfg)
    assert spectral_match(result, replay) <= 1e-12


@pytest.mark.parametrize("n,width", [(5, 1.0), (100, 10.0), (200, 10.0)])
def test_spectral_match_random_sequences(n, width):
    cfg = settings(width)
    result = run_sequence(FULLY_MIXED, n, cfg, derive_stream(24, n))
    replay = replay_hypothetical(result.outcomes, cfg)
    assert spectral_match(result, replay) <= 1e-9


def test_spectral_match_holds_for_any_outcome_source():
    # outcomes sampled from a pure state, replay still starts from the
    # mixed state: the spectra must agree for every outcome record
    cfg = settings(3.0)
    rng = derive_stream(25, 0)
    for k in range(10):
        true_state = random_pure_state(rng)
        result = run_sequence(true_state, 40, cfg, rng)
        replay = replay_hypothetical(result.outcomes, cfg)
        assert spectral_match(result, replay) <= 1e-9


def test_spectral_match_rejects_mismatched_records():
    cfg = settings(1.0)
    first = run_sequence(FULLY_MIXED, 2, cfg, derive_stream(26, 0))
    second = run_sequence(FULLY_MIXED, 2, cfg, derive_stream(26, 1))
    with pytest.raises(ValueError):
        spectral_match(first, second)


def test_spectral_match_accepts_bare_state():
    cfg = settings(1.0)
    result = run_sequence(FULLY_MIXED, 3, cfg, derive_stream(26, 2))
    replay = replay_hypothetical(result.outcomes, cfg)
    assert spectral_match(result, replay.aposteriori) == spectral_match(result, replay)


def _point(kind, delta, n, trials, seed, strategy=RANDOM_EIGENSTATE):
    """(mean, standard error, samples) of one estimator at one n, on the streams from 0 on."""
    spec = ExperimentSpec(kind=kind, delta=delta, trials=trials, seed=seed, n_grid=(n,), strategy=strategy)
    (stats,) = run_ensemble(spec)
    return stats.means[0], stats.std_errors[0], stats.samples


def test_fidelity_direct_zero_steps_exact():
    assert _point(SEQUENTIAL_FIDELITY, 20.0, 0, 500, seed=30) == (0.5, 0.0, 500)


def test_fidelity_direct_validates_trials():
    with pytest.raises(ValueError):
        sequential.direct_fidelity_samples(settings(1.0), 1, 0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind=SEQUENTIAL_FIDELITY, delta=1.0, trials=0, seed=0, n_grid=(1,))


@CALIBRATION_XFAIL
def test_fidelity_direct_reaches_optimum():
    mean, _, _ = _point(SEQUENTIAL_FIDELITY, 20.0, 40, 10**4, seed=31)
    assert abs(mean - 2.0 / 3.0) <= 0.01


@CALIBRATION_XFAIL
def test_fidelity_direct_matches_reference_curve():
    mean, _, _ = _point(SEQUENTIAL_FIDELITY, 20.0, 2, 10**4, seed=32)
    assert abs(mean - mean_fidelity_closed_form(2, settings(20.0))) <= 0.01


def test_fidelity_purity_zero_steps_exact():
    assert _point(HYPOTHETICAL_PURITY, 20.0, 0, 300, seed=33)[:2] == (0.5, 0.0)


@CALIBRATION_XFAIL
def test_fidelity_purity_reaches_optimum():
    mean, _, _ = _point(HYPOTHETICAL_PURITY, 20.0, 40, 10**4, seed=34)
    assert abs(mean - 2.0 / 3.0) <= 0.005


@pytest.mark.parametrize("n", [2, 5, 10])
def test_direct_and_purity_estimators_agree(n):
    direct, direct_se, _ = _point(SEQUENTIAL_FIDELITY, 20.0, n, 10**4, seed=301)
    viapurity, viapurity_se, _ = _point(HYPOTHETICAL_PURITY, 20.0, n, 10**4, seed=302)
    assert abs(direct - viapurity) <= 3.0 * math.hypot(direct_se, viapurity_se)


def _fixed_state_samples(true_state, cfg, n, trials, seed):
    """2 tr[rho rho_true]^2 for the final state rho of each mixed-start run.

    Its mean is the estimate's fidelity to the fixed pure true_state,
    although the outcomes come from the mixed-start density.
    """
    truth = np.array(true_state.bloch)[:, None]

    def group(streams):
        overlap = 0.5 * (1.0 + _dot(sequential._mixed_start_final(streams, n, cfg.precision), truth))
        return 2.0 * overlap * overlap

    return sequential._by_trial_groups(group, n, trials, seed, 0)


def test_fidelity_hypothetical_fixed_agrees_with_direct_sampling():
    # same target as a direct run on the fixed state with the
    # random-eigenstate strategy (whose conditional mean is bilinear)
    cfg = settings(10.0)
    true_state = random_pure_state(derive_stream(999, 0))
    hypo_mean, hypo_se = summarize(_fixed_state_samples(true_state, cfg, 20, 10**4, seed=311))
    truth = np.array(true_state.bloch)[:, None]

    def estimate_fidelities(streams):
        start = np.repeat(truth, sequential._width(streams), axis=1)
        _, axes, outcomes = sequential._recorded_run(start, streams, 20, cfg.precision)
        estimates = sequential._estimate_batch(axes, outcomes, cfg.precision)
        return 0.5 * (1.0 + _dot(estimates, truth))

    vals = sequential._by_trial_groups(estimate_fidelities, 20, 10**4, 312, 0)
    for k in [*range(50), *range(10**4 - 50, 10**4)]:  # the batch reproduces the public per-trial run
        result = run_sequence(true_state, 20, cfg, _trial_stream(312, 0, 10**4, k))
        assert vals[k] == fidelity(result.estimate, true_state)
    direct_se = vals.std(ddof=1) / math.sqrt(vals.size)
    combined = math.hypot(hypo_se, direct_se)
    assert abs(hypo_mean - vals.mean()) <= 3.0 * combined


def test_fidelity_hypothetical_fixed_uninformative_limit():
    mean, _ = summarize(_fixed_state_samples(DensityMatrix((0.0, 0.0, 1.0)), settings(1000.0), 5, 3000, seed=321))
    assert abs(mean - 0.5) <= 0.005


def test_dominant_strategy_not_below_random():
    # delta = 1 is sharp enough to separate the strategies
    dominant, dominant_se, _ = _point(SEQUENTIAL_FIDELITY, 1.0, 3, 3000, seed=36, strategy=DOMINANT_EIGENSTATE)
    randomized, randomized_se, _ = _point(SEQUENTIAL_FIDELITY, 1.0, 3, 3000, seed=36)
    assert dominant >= randomized - 3.0 * math.hypot(dominant_se, randomized_se)


def test_purity_paths_shape_and_start():
    paths = hypothetical_purity_paths(4, settings(5.0), 7, seed=37)
    assert paths.shape == (7, 5)
    assert np.all(paths[:, 0] == 0.5)
    assert np.all((paths >= 0.5 - 1e-12) & (paths <= 1.0 + 1e-12))
