import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from scipy import stats as sps

import unsharp_qubit.sequential as sequential
from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    FULLY_MIXED,
    RANDOM_EIGENSTATE,
    DensityMatrix,
    MeasurementAxis,
    MeasurementSettings,
    derive_stream,
    fidelity,
    fidelity_direct,
    fidelity_hypothetical_fixed,
    fidelity_purity,
    hypothetical_purity_paths,
    hypothetical_run,
    make_effect,
    mean_fidelity_closed_form,
    outcome_distribution,
    purity,
    random_pure_state,
    replay_hypothetical,
    run_sequence,
    single_estimate,
    spectral_match,
)
from unsharp_qubit.bloch import _dot

Z_AXIS = MeasurementAxis((0.0, 0.0, 1.0))
X_AXIS = MeasurementAxis((1.0, 0.0, 0.0))

CALIBRATION_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the closed-form reference curve advances time by 12/precision^2 per "
    "measurement while the simulated sequence matches the continuous equation at "
    "1/(12 precision^2) per measurement; quantified in test_acceptance.py",
)


def settings(width):
    return MeasurementSettings(width, continuum_floor=None)


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
    effect = make_effect(Z_AXIS, settings(1.0), 1.0)
    est = replay_hypothetical(((Z_AXIS, 1.0),), settings(1.0)).estimate
    assert est.bloch == pytest.approx(single_estimate(effect).bloch, abs=1e-12)
    assert est.bloch == pytest.approx((0.0, 0.0, math.tanh(1.0)), abs=1e-12)


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
def test_batch_rows_do_not_depend_on_batch(width):
    # every row bit for bit the same at B = 1, in sub-batches of 25 and in the full batch
    cfg = settings(width)
    samplers = {
        "direct": lambda trials, lo: sequential.direct_fidelity_samples(cfg, 30, trials, seed=61, base_index=lo),
        "dominant": lambda trials, lo: sequential.direct_fidelity_samples(
            cfg, 30, trials, DOMINANT_EIGENSTATE, seed=61, base_index=lo
        ),
        "purity": lambda trials, lo: sequential.purity_fidelity_samples(cfg, 30, trials, seed=62, base_index=lo),
        "paths": lambda trials, lo: hypothetical_purity_paths(30, cfg, trials, seed=63, base_index=lo),
    }
    for name, fn in samplers.items():
        whole = fn(100, 0)
        np.testing.assert_array_equal(_rows_by_sub_batch(fn, 100, 25), whole, err_msg=name)
        np.testing.assert_array_equal(_rows_by_sub_batch(fn, 100, 1), whole, err_msg=name)


def test_batched_direct_samples_equal_scalar_runs():
    # trial k of the batch is run_sequence on derive_stream(seed, k) after its pure start
    cfg = settings(3.0)
    batch = sequential.direct_fidelity_samples(cfg, 25, 40, seed=64)
    for k in range(40):
        rng = derive_stream(64, k)
        true_state = random_pure_state(rng)
        assert batch[k] == fidelity(run_sequence(true_state, 25, cfg, rng).estimate, true_state)


def test_draw_block_bounds_memory_not_results(monkeypatch):
    # trials run in groups of at most DRAW_BLOCK trial-steps (one trial per
    # group here), which must not change a row; a sequence longer than
    # DRAW_BLOCK draws block by block and stays a function of (seed, index)
    cfg = settings(5.0)
    whole = hypothetical_purity_paths(12, cfg, 3, seed=65)
    monkeypatch.setattr(sequential, "DRAW_BLOCK", 12)
    np.testing.assert_array_equal(hypothetical_purity_paths(12, cfg, 3, seed=65), whole)
    monkeypatch.setattr(sequential, "DRAW_BLOCK", 5)
    blocked = hypothetical_purity_paths(12, cfg, 3, seed=65)
    rows = [hypothetical_purity_paths(12, cfg, 1, seed=65, base_index=k)[0] for k in range(3)]
    np.testing.assert_array_equal(blocked, np.array(rows))
    assert np.all(blocked[:, 0] == 0.5) and np.all((blocked >= 0.5) & (blocked <= 1.0))


class _ZeroStartStream:
    """A real stream with three exact zeros put before its first normal."""

    def __init__(self, rng):
        self._rng = rng
        self._zeros = 3

    def standard_normal(self, size=None, out=None):
        shape = size if out is None else out.shape
        count = int(np.prod(shape))
        zeros = min(self._zeros, count)
        self._zeros -= zeros
        values = np.concatenate([np.zeros(zeros), self._rng.standard_normal(count - zeros)]).reshape(shape)
        if out is None:
            return values
        out[...] = values
        return out

    def random(self, size=None, out=None):
        return self._rng.random(size, out=out)


@pytest.mark.parametrize("block", [None, 10])
def test_zero_length_start_is_redrawn_as_random_unit_does(monkeypatch, block):
    # trial 0's first three normals are zero: its start is `_random_unit`'s
    # redraw, and its axes and outcomes continue the stream after it
    cfg, n = settings(3.0), 25
    if block is not None:
        monkeypatch.setattr(sequential, "DRAW_BLOCK", block)  # one trial per group, three blocks
    plain = sequential.direct_fidelity_samples(cfg, n, 3, seed=72)

    def zero_first(seed, lo, hi):
        return [_ZeroStartStream(derive_stream(seed, k)) if k == 0 else derive_stream(seed, k) for k in range(lo, hi)]

    monkeypatch.setattr(sequential, "_GroupStreams", zero_first)
    samples = sequential.direct_fidelity_samples(cfg, n, 3, seed=72)
    rng = _ZeroStartStream(derive_stream(72, 0))
    true_state = random_pure_state(rng)
    assert true_state.bloch == random_pure_state(derive_stream(72, 0)).bloch  # the redraw took the next three
    assert samples[0] == fidelity(run_sequence(true_state, n, cfg, rng).estimate, true_state)
    assert samples[1:].tolist() == plain[1:].tolist()


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

    def first_outcomes(gens):
        _, _, outcomes = sequential._recorded_run(np.zeros((3, len(gens))), gens, 1, cfg.precision)
        return outcomes[0]

    draws = sequential._by_trial_groups(first_outcomes, 1, 10**5, 243, 0)
    for k in range(50):  # the batch reproduces the public per-trial run
        assert draws[k] == hypothetical_run(1, cfg, derive_stream(243, k)).outcomes[0][1]
    dist = outcome_distribution(FULLY_MIXED, Z_AXIS, cfg)
    cdf = lambda xs: np.array([dist.cdf(float(x)) for x in xs])  # noqa: E731
    assert sps.kstest(draws, cdf).statistic < 0.01


def test_hypothetical_zero_steps_is_mixed():
    result = hypothetical_run(0, settings(10.0), derive_stream(21, 0))
    assert purity(result.aposteriori) == 0.5


def test_hypothetical_single_step_equals_single_estimate():
    cfg = settings(1.0)
    result = hypothetical_run(1, cfg, derive_stream(21, 1))
    axis, outcome = result.outcomes[0]
    est = single_estimate(make_effect(axis, cfg, outcome))
    assert result.aposteriori.bloch == pytest.approx(est.bloch, abs=1e-12)


def _purities_after_50_steps():
    # trial k is hypothetical_run(50, ...) on derive_stream(22, k), batched
    return hypothetical_purity_paths(50, settings(10.0), 10**3, seed=22)[:, 50]


def test_purity_paths_equal_hypothetical_runs():
    batched = _purities_after_50_steps()
    cfg = settings(10.0)
    for k in range(50):
        assert batched[k] == purity(hypothetical_run(50, cfg, derive_stream(22, k)).aposteriori)


@CALIBRATION_XFAIL
def test_hypothetical_purifies_within_characteristic_steps():
    assert _purities_after_50_steps().mean() > 0.95


def test_spectral_match_single_step():
    cfg = settings(1.0)
    result = hypothetical_run(1, cfg, derive_stream(23, 0))
    replay = replay_hypothetical(result.outcomes, cfg)
    assert spectral_match(result, replay) <= 1e-12


@pytest.mark.parametrize("n,width", [(5, 1.0), (100, 10.0), (200, 10.0)])
def test_spectral_match_random_sequences(n, width):
    cfg = settings(width)
    result = hypothetical_run(n, cfg, derive_stream(24, n))
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
    first = hypothetical_run(2, cfg, derive_stream(26, 0))
    second = hypothetical_run(2, cfg, derive_stream(26, 1))
    with pytest.raises(ValueError):
        spectral_match(first, second)


def test_spectral_match_accepts_bare_state():
    cfg = settings(1.0)
    result = hypothetical_run(3, cfg, derive_stream(26, 2))
    replay = replay_hypothetical(result.outcomes, cfg)
    assert spectral_match(result, replay.aposteriori) == spectral_match(result, replay)


def test_fidelity_direct_zero_steps_exact():
    stat = fidelity_direct(settings(20.0), 0, 500, RANDOM_EIGENSTATE, seed=30)
    assert stat.mean == 0.5
    assert stat.std_error == 0.0
    assert stat.samples == 500


def test_fidelity_direct_validates_trials():
    with pytest.raises(ValueError):
        fidelity_direct(settings(1.0), 1, 0, RANDOM_EIGENSTATE, seed=0)


@CALIBRATION_XFAIL
def test_fidelity_direct_reaches_optimum():
    stat = fidelity_direct(settings(20.0), 40, 10**4, RANDOM_EIGENSTATE, seed=31)
    assert abs(stat.mean - 2.0 / 3.0) <= 0.01


@CALIBRATION_XFAIL
def test_fidelity_direct_matches_reference_curve():
    stat = fidelity_direct(settings(20.0), 2, 10**4, RANDOM_EIGENSTATE, seed=32)
    assert abs(stat.mean - mean_fidelity_closed_form(2, settings(20.0))) <= 0.01


def test_fidelity_purity_zero_steps_exact():
    stat = fidelity_purity(settings(20.0), 0, 300, seed=33)
    assert stat.mean == 0.5
    assert stat.std_error == 0.0


@CALIBRATION_XFAIL
def test_fidelity_purity_reaches_optimum():
    stat = fidelity_purity(settings(20.0), 40, 10**4, seed=34)
    assert abs(stat.mean - 2.0 / 3.0) <= 0.005


@pytest.mark.parametrize("n", [2, 5, 10])
def test_direct_and_purity_estimators_agree(n):
    cfg = settings(20.0)
    direct = fidelity_direct(cfg, n, 10**4, RANDOM_EIGENSTATE, seed=301)
    viapurity = fidelity_purity(cfg, n, 10**4, seed=302)
    combined = math.hypot(direct.std_error, viapurity.std_error)
    assert abs(direct.mean - viapurity.mean) <= 3.0 * combined


def test_fidelity_hypothetical_fixed_zero_steps():
    true_state = DensityMatrix((0.0, 0.0, 1.0))
    stat = fidelity_hypothetical_fixed(true_state, settings(10.0), 0, 200, seed=35)
    assert stat.mean == 0.5
    assert stat.std_error == 0.0


def test_fidelity_hypothetical_fixed_requires_pure_state():
    with pytest.raises(ValueError):
        fidelity_hypothetical_fixed(FULLY_MIXED, settings(10.0), 1, 10, seed=0)


def test_fidelity_hypothetical_fixed_agrees_with_direct_sampling():
    # same target as a direct run on the fixed state with the
    # random-eigenstate strategy (whose conditional mean is bilinear)
    cfg = settings(10.0)
    true_state = random_pure_state(derive_stream(999, 0))
    hypo = fidelity_hypothetical_fixed(true_state, cfg, 20, 10**4, seed=311)
    truth = np.array(true_state.bloch)[:, None]

    def estimate_fidelities(gens):
        start = np.repeat(truth, len(gens), axis=1)
        _, axes, outcomes = sequential._recorded_run(start, gens, 20, cfg.precision)
        estimates = sequential._estimate_batch(axes, outcomes, cfg.precision)
        return 0.5 * (1.0 + _dot(estimates, truth))

    vals = sequential._by_trial_groups(estimate_fidelities, 20, 10**4, 312, 0)
    for k in range(50):  # the batch reproduces the public per-trial run
        result = run_sequence(true_state, 20, cfg, derive_stream(312, k))
        assert vals[k] == fidelity(result.estimate, true_state)
    direct_se = vals.std(ddof=1) / math.sqrt(vals.size)
    combined = math.hypot(hypo.std_error, direct_se)
    assert abs(hypo.mean - vals.mean()) <= 3.0 * combined


def test_fidelity_hypothetical_fixed_uninformative_limit():
    cfg = settings(1000.0)
    stat = fidelity_hypothetical_fixed(DensityMatrix((0.0, 0.0, 1.0)), cfg, 5, 3000, seed=321)
    assert abs(stat.mean - 0.5) <= 0.005


def test_dominant_strategy_not_below_random():
    cfg = settings(1.0)  # sharp enough to separate the strategies
    dominant = fidelity_direct(cfg, 3, 3000, DOMINANT_EIGENSTATE, seed=36)
    randomized = fidelity_direct(cfg, 3, 3000, RANDOM_EIGENSTATE, seed=36)
    combined = math.hypot(dominant.std_error, randomized.std_error)
    assert dominant.mean >= randomized.mean - 3.0 * combined


def test_purity_paths_shape_and_start():
    paths = hypothetical_purity_paths(4, settings(5.0), 7, seed=37)
    assert paths.shape == (7, 5)
    assert np.all(paths[:, 0] == 0.5)
    assert np.all((paths >= 0.5 - 1e-12) & (paths <= 1.0 + 1e-12))
