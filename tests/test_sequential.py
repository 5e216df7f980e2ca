import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from oracles import MEAN_FIDELITY_BUDGET, length_update, mean_fidelity_from_mixed
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
    purify_estimate,
    purity,
    random_pure_state,
    replay_hypothetical,
    run_ensemble,
    run_sequence,
    spectral_match,
    summarize,
)
from unsharp_qubit.bloch import DEGENERACY_TOL, POSITIVITY_SLACK, _dot, _dots
from unsharp_qubit.ensemble import HYPOTHETICAL_PURITY, SEQUENTIAL_FIDELITY
from unsharp_qubit.povm import posterior_batch

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

    A draw of shape (..., 1) takes the group's draw of shape (..., width)
    from its stream and keeps column b, so the public one-trial runs replay
    trial b of the group.
    """

    def __init__(self, rng, width, b):
        self._rng, self._width, self._b = rng, width, b

    def _column(self, draw, size):
        return draw((*size[:-1], self._width))[..., self._b : self._b + 1]

    def standard_normal(self, size):
        return self._column(self._rng.standard_normal, size)

    def random(self, size):
        return self._column(self._rng.random, size)


def _trial_stream(seed, base_index, trials, k):
    """Trial k of a part of `trials` trials, as a one-trial stream: its column of its group."""
    lo = k - k % G
    return _ColumnStream(derive_stream(seed, base_index + lo), min(G, trials - lo), k % G)


def _scalar_lengths(seed, base_index, trials, n, width, columns=None):
    """Bloch lengths after every step of mixed-start runs, stepped on Python floats, one list per trial.

    Trial k reads column k % G of its group's draws: per block of at most
    `montecarlo._BLOCK_STEPS` steps, random((m, w)) for the cosines, then
    random((m, w)) for the branches, then standard_normal((m, w)) for the
    noise.  Each step repeats `_mixed_start_lengths`' operations in order,
    the update through the oracle's `length_update` on numpy float64
    scalars (tanh and exp are numpy's).  columns, if given, is the set of
    trials to step.
    """
    var = width * width
    out = {}
    for lo in range(0, trials, G):
        w = min(G, trials - lo)
        rng = derive_stream(seed, base_index + lo)
        rows = []  # (cosine uniforms, branch uniforms, normals) of every step
        for done in range(0, n, montecarlo._BLOCK_STEPS):
            m = min(montecarlo._BLOCK_STEPS, n - done)
            rows.extend(zip(rng.random((m, w)), rng.random((m, w)), rng.standard_normal((m, w))))
        for b in range(w):
            if columns is not None and lo + b not in columns:
                continue
            rho, path = 0.0, [0.0]
            for cos_u, branch_u, z in rows:
                c = float(cos_u[b]) * 2.0 - 1.0
                sines = 4.0 * (1.0 - c) * (1.0 + c)
                along = rho * c
                s = math.copysign(1.0, along - (float(branch_u[b]) * 2.0 - 1.0)) + float(z[b]) * width
                rho = float(length_update(rho, along, sines, s / var)[0])
                path.append(rho)
            out[lo + b] = path
    return [out[k] for k in sorted(out)]


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


def test_replay_refuses_an_outcome_whose_x_overflows():
    # x = 1e300 / 1e-20 overflows; the record is refused without a numpy warning
    with pytest.raises(ValueError, match="infinite or undefined outcome"):
        replay_hypothetical(((Z_AXIS, 1e300),), settings(1e-10))


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
    assert spectral_match(result, result) <= 1e-9  # its estimate against its own forward replay


def test_two_axis_chain_matches_dense_oracle():
    record = ((Z_AXIS, 1.0), (X_AXIS, 1.0))
    result = replay_hypothetical(record, settings(1.0))
    a = _dense_effect_sqrt(X_AXIS, 1.0, 1.0) @ _dense_effect_sqrt(Z_AXIS, 1.0, 1.0)
    np.testing.assert_allclose(result.estimate.matrix(), _normalized(a.conj().T @ a), atol=1e-12)
    np.testing.assert_allclose(result.aposteriori.matrix(), _normalized(a @ a.conj().T), atol=1e-12)


def test_single_effect_chain_matches_single_estimate():
    # one measurement: the estimate is the mixed state's posterior, tanh(s / width^2) n
    est = replay_hypothetical(((Z_AXIS, 1.0),), settings(1.0)).estimate
    mixed = posterior_batch(np.zeros((3, 1)), np.array(Z_AXIS.direction)[:, None], np.zeros(1), np.array([1.0]))
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
    cfg, grid = settings(width), (0, 7, 30)
    samplers = {
        "direct": lambda trials, lo: sequential.direct_fidelity_samples(cfg, grid, trials, seed=61, base_index=lo),
        "dominant": lambda trials, lo: sequential.direct_fidelity_samples(
            cfg, grid, trials, DOMINANT_EIGENSTATE, seed=61, base_index=lo
        ),
        "purity": lambda trials, lo: sequential.purity_samples(cfg, grid, trials, seed=62, base_index=lo),
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


def _axes_about(r, m, cosines, azimuths):
    """Unit axes at the given cosines to the columns of r and azimuths about them.

    The azimuth is measured from the component of m across r, or, where m
    has none, from a fixed direction across r: the frame of the direct
    chain's invariants, built from explicit vectors.  A column of r that
    rounded off the sphere is normalized first, so that the component
    across it is across it.
    """
    r = r / np.sqrt(_dot(r, r))
    across = m - _dot(r, m) * r
    across -= _dot(r, across) * r
    length = np.sqrt(_dot(across, across))
    fixed = np.where(np.abs(r[0]) < 0.9, np.array([[1.0], [0.0], [0.0]]), np.array([[0.0], [1.0], [0.0]]))
    fixed -= _dot(r, fixed) * r
    fixed /= np.sqrt(_dot(fixed, fixed))
    first = np.where(length > 0.0, across / np.where(length > 0.0, length, 1.0), fixed)
    second = np.cross(r, first, axis=0)
    sines = np.sqrt((1.0 - cosines) * (1.0 + cosines))
    return cosines * r + sines * (np.cos(azimuths) * first + np.sin(azimuths) * second)


def _vector_direct_step(r, m, d, a, x):
    """The truth's run r, the mixed-start run m and d = estimate.truth after one measurement along a, on vectors."""
    along_r, along_m = _dots(a, r), _dots(a, m)
    t = np.tanh(x)
    d = (d * (1.0 + t * along_r) + t * (along_r - along_m)) / (1.0 + t * along_m)
    return posterior_batch(r, a, along_r, x), posterior_batch(m, a, along_m, x), d


def _vector_direct_runs(seed, trials, n, width):
    """The direct chain stepped on explicit vectors, one (d, m, axes, x) per trial group.

    Group j draws from derive_stream(seed, jG) in the chain's layout: per
    block of at most `montecarlo._BLOCK_STEPS` steps, random((m, w)) for the
    axis cosines, random((m, w)) for their azimuths, random((m, w)) for the
    branches, standard_normal((m, w)) for the noise.  The truth starts at
    the z axis and the mixed start at 0; each axis is built by `_axes_about`,
    and each outcome is drawn from the truth along a.r.  d (n + 1, w) and
    the mixed-start run m (n + 1, 3, w) hold steps 0..n; the axes (n, 3, w)
    and x = outcomes / width^2 (n, w) are the record.
    """
    var = width * width
    for lo in range(0, trials, G):
        w = min(G, trials - lo)
        rng = derive_stream(seed, lo)
        steps = []
        for done in range(0, n, montecarlo._BLOCK_STEPS):
            size = (min(montecarlo._BLOCK_STEPS, n - done), w)
            cosines, azimuths, branches = rng.random(size), rng.random(size), rng.random(size)
            steps.extend(zip(cosines, azimuths, branches, rng.standard_normal(size)))
        r, m, d = np.repeat([[0.0], [0.0], [1.0]], w, axis=1), np.zeros((3, w)), np.zeros(w)
        ds, ms, axes, xs = [d], [m], [], []
        for cosine_u, azimuth_u, branch_u, z in steps:
            a = _axes_about(r, m, 2.0 * cosine_u - 1.0, 2.0 * np.pi * azimuth_u)
            x = (np.copysign(1.0, _dots(a, r) - (2.0 * branch_u - 1.0)) + width * z) / var
            r, m, d = _vector_direct_step(r, m, d, a, x)
            ds.append(d), ms.append(m), axes.append(a), xs.append(x)
        yield np.array(ds), np.array(ms), np.array(axes), np.array(xs)


def _expected_fidelities(d, m, strategy):
    """(1 + d)/2, or for dominant-eigenstate (1 + d/|m|)/2 and 0.5 for a degenerate m."""
    if strategy == RANDOM_EIGENSTATE:
        return 0.5 * (1.0 + d)
    length = np.sqrt(_dot(m, m))
    return np.where(length < DEGENERACY_TOL, 0.5, 0.5 * (1.0 + d / np.maximum(length, DEGENERACY_TOL)))


@pytest.mark.parametrize("strategy", [RANDOM_EIGENSTATE, DOMINANT_EIGENSTATE])
@pytest.mark.parametrize("width", [0.05, 1.0, 5.0, 20.0, 100.0, 1000.0])
def test_batched_direct_samples_equal_scalar_runs(width, strategy):
    # every trial's columns are the direct chain stepped on explicit vectors,
    # the truth's run and the mixed-start run, on the trial's column of its
    # group's draws, to 1e-12, and the empty record is 0.5; and at every
    # nonzero count that reference is the purified reverse-replay estimate's
    # fidelity to the truth, to 1e-12
    cfg, grid = settings(width), (0, 1, 10, 25)
    trials = G + 50
    batch = sequential.direct_fidelity_samples(cfg, grid, trials, strategy, seed=64)
    assert batch[:, 0].tolist() == [0.5] * trials
    runs = list(_vector_direct_runs(64, trials, grid[-1], width))
    expected = np.concatenate([_expected_fidelities(d, m.transpose(1, 0, 2), strategy).T for d, m, _, _ in runs])
    np.testing.assert_allclose(batch, expected[:, list(grid)], rtol=0.0, atol=1e-12)
    truth = DensityMatrix((0.0, 0.0, 1.0))
    for lo, (_, _, axes, x) in zip(range(0, trials, G), runs):
        for i, n in enumerate(grid[1:], 1):
            estimates = sequential._estimate_batch(axes[:n], x[:n])
            for b in range(estimates.shape[1]):
                estimate = DensityMatrix(estimates[:, b].tolist())
                if strategy != RANDOM_EIGENSTATE:
                    estimate = purify_estimate(estimate, strategy, None)  # draws nothing
                assert abs(fidelity(estimate, truth) - expected[lo + b, n]) <= 1e-12


@hypothesis_settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    rho=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    tilt=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1.0, max_value=1.0)),
    lean=st.floats(min_value=-1.0, max_value=1.0),
    cosine=st.floats(min_value=-1.0, max_value=1.0),
    azimuth=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    x=st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-800.0, max_value=800.0)),
)
def test_direct_step_is_the_vector_update_of_its_invariants(rho, tilt, lean, cosine, azimuth, x):
    # one `_direct_step` from p = r.m = tilt rho, m's length across r
    # g = rho sqrt(1 - tilt^2) (m parallel to r at tilt +-1) and d = lean rho
    # equals `posterior_batch` on r and m with the axis built from explicit
    # vectors, to 1e-12, for saturated outcomes too, and sqrt(p^2 + g^2) is |m|
    p, g = tilt * rho, rho * math.sqrt((1.0 - tilt) * (1.0 + tilt))
    r, m = np.array([[0.0], [0.0], [1.0]]), np.array([[g], [0.0], [p]])
    a = _axes_about(r, m, np.array([cosine]), np.array([azimuth]))
    state = np.array([[lean * rho], [p], [g]])
    sine = math.sqrt((1.0 - cosine) * (1.0 + cosine))
    args = ([cosine], [sine * math.cos(azimuth)], [sine * math.sin(azimuth)], [x])  # a in the frame of r and m
    try:
        r1, m1, d1 = _vector_direct_step(r, m, state[0].copy(), a, np.array([x]))
    except ValueError:
        with pytest.raises(ValueError, match="degenerate update"):
            sequential._direct_step(state, *map(np.array, args))
        return
    sequential._direct_step(state, *map(np.array, args))
    d, p1, g1 = state[:, 0].tolist()
    r1, m1 = r1[:, 0], m1[:, 0]
    cross = np.cross(m1, r1)
    assert abs(math.sqrt(p1 * p1 + g1 * g1) - math.sqrt(_dot(m1, m1))) <= 1e-12
    assert abs(p1 - _dot(r1, m1)) <= 1e-12
    assert abs(g1 - math.sqrt(_dot(cross, cross) / _dot(r1, r1))) <= 1e-12
    assert abs(d - float(d1[0])) <= 1e-12


def test_direct_chain_leaves_the_ball_by_rounding_only():
    # the direct chain carries no min(|m|, 1): on runs that reach the sphere,
    # at widths 0.3 and 1, |m| read as sqrt(p^2 + g^2) passes 1 by at most
    # POSITIVITY_SLACK, and |d| <= 1, at every step of 500 trials to n = 400
    longest, widest = 0.0, 0.0
    for width in (0.3, 1.0):
        for d, p, g in sequential._direct_chain(montecarlo._group_streams(82, 0, 0, 500), 400, width):
            longest = max(longest, float(np.sqrt(p * p + g * g).max()))
            widest = max(widest, float(np.abs(d).max()))
    assert 1.0 < longest <= 1.0 + POSITIVITY_SLACK
    assert widest <= 1.0


@pytest.mark.parametrize("sampler", ["direct", "dominant", "purity"])
def test_grid_columns_equal_the_full_grid_columns(sampler):
    # a trial runs once to the grid's last count N, so any grid ending at N
    # reads the matching columns of the grid range(N + 1), bit for bit
    cfg, n, trials = settings(3.0), 30, G + 50
    fn = {
        "direct": lambda grid: sequential.direct_fidelity_samples(cfg, grid, trials, seed=67, base_index=G),
        "dominant": lambda grid: sequential.direct_fidelity_samples(
            cfg, grid, trials, DOMINANT_EIGENSTATE, seed=67, base_index=G
        ),
        "purity": lambda grid: sequential.purity_samples(cfg, grid, trials, seed=67, base_index=G),
    }[sampler]
    full = fn(range(n + 1))
    assert full.shape == (trials, n + 1)
    for grid in ((n,), (0, n), (0, 7, n), (3, 4, 29, n)):
        np.testing.assert_array_equal(fn(grid), full[:, list(grid)], err_msg=str(grid))


@pytest.mark.parametrize("kind", [HYPOTHETICAL_PURITY, SEQUENTIAL_FIDELITY])
def test_purity_grid_keeps_only_its_columns(kind):
    # a sparse, long grid keeps (trials, len(grid)) results, not the whole
    # (trials, N + 1) paths or the direct estimator's records: those alone
    # would take trials * N * 8 bytes
    trials, n = 200, 5000
    spec = ExperimentSpec(kind=kind, delta=20.0, trials=trials, seed=68, n_grid=(0, n))
    tracemalloc.start()
    try:
        (stats,) = run_ensemble(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.means[0] == 0.5 and 0.5 < stats.means[1] < 1.0
    assert peak < trials * n * 8 / 2, f"peak {peak} bytes"


def test_draw_block_bounds_memory_not_results(monkeypatch):
    # DRAW_BLOCK bounds the groups of a batch (one group per batch here),
    # which must not change a row; with groups drawing blocks shorter than
    # the sequence, every row is the length chain on its column of its group's draws
    cfg = settings(5.0)
    trials = G + 20
    whole = hypothetical_purity_paths(12, cfg, trials, seed=65)
    monkeypatch.setattr(sequential, "DRAW_BLOCK", 12)
    np.testing.assert_array_equal(hypothetical_purity_paths(12, cfg, trials, seed=65), whole)
    monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", 5)
    blocked = hypothetical_purity_paths(12, cfg, trials, seed=65)
    finals = [0.5 * (1.0 + path[-1] * path[-1]) for path in _scalar_lengths(65, 0, trials, 12, 5.0)]
    assert blocked[:, -1].tolist() == finals
    assert np.all(blocked[:, 0] == 0.5) and np.all((blocked >= 0.5) & (blocked <= 1.0))


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
        ((_, _, outcomes),) = sequential._sampled_steps(
            np.zeros((3, montecarlo._width(streams))), streams, 1, cfg.precision
        )
        return outcomes

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
    # trial k is the length chain on its column of its group's draws, batched
    return hypothetical_purity_paths(50, settings(10.0), 10**3, seed=22)[:, 50]


def test_purity_paths_equal_hypothetical_runs():
    batched = _purities_after_50_steps()
    picked = [*range(50), *range(10**3 - 50, 10**3)]
    chains = _scalar_lengths(22, 0, 10**3, 50, 10.0, columns=set(picked))
    assert [batched[k] for k in picked] == [0.5 * (1.0 + path[-1] * path[-1]) for path in chains]


def test_discrete_oracle_converges():
    # the oracle's own error budget: doubling every grid of it, and widening
    # the outcome range, moves no mean fidelity by more than MEAN_FIDELITY_BUDGET
    coarse = mean_fidelity_from_mixed(20.0, 40)
    fine = mean_fidelity_from_mixed(20.0, 40, points=2000, cosines=64, outcomes=801, span=12.0)
    assert np.abs(coarse - fine).max() <= MEAN_FIDELITY_BUDGET
    assert coarse[0] == 0.5 and np.all(np.diff(coarse) > 0.0) and coarse[-1] < 2.0 / 3.0


@pytest.mark.parametrize("width", [0.3, 20.0])
def test_length_chain_equals_scalar_steps_bitwise(monkeypatch, width):
    # 2G + 1 trials in one batch of three groups, over blocks of 7 steps:
    # every path and every grid's purity sample is its scalar chain, bit for
    # bit; at width 0.3 outcomes saturate and the rescale onto the sphere acts
    monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", 7)
    cfg, n, trials = settings(width), 23, 2 * G + 1
    chains = _scalar_lengths(75, 10, trials, n, width)
    paths = hypothetical_purity_paths(n, cfg, trials, seed=75, base_index=10)
    assert paths.tolist() == [[0.5 * (1.0 + rho * rho) for rho in path] for path in chains]
    grid = (0, 7, 8, n)
    samples = sequential.purity_samples(cfg, grid, trials, seed=75, base_index=10)
    assert samples.tolist() == [[0.5 * (1.0 + path[k] * path[k]) for k in grid] for path in chains]
    if width == 0.3:
        assert sum(path[-1] == 1.0 for path in chains) > 0


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    cosine=st.floats(min_value=-1.0, max_value=1.0),
    x=st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-800.0, max_value=800.0)),
)
def test_length_chain_is_the_length_of_the_vector_update(rho, cosine, x):
    # `_length_posterior` is `posterior_batch` seen through |r| alone, for a
    # state at cosine c to the axis
    sine = math.sqrt((1.0 - cosine) * (1.0 + cosine))
    r = np.array([[rho * sine], [0.0], [rho * cosine]])
    along = np.array([rho * cosine])
    if not 1.0 + float(np.tanh(x)) * along[0] > 0.0:
        return  # refused by both
    z_axis = np.array([[0.0], [0.0], [1.0]])
    vector = posterior_batch(r, z_axis, _dots(z_axis, r), np.array([x]))
    lengths = np.array([rho])
    sines = np.array([4.0 * (1.0 - cosine) * (1.0 + cosine)])
    sequential._length_posterior(lengths, along, sines, np.array([x]))
    assert abs(lengths[0] - math.sqrt(_dot(vector[:, 0], vector[:, 0]))) <= 4.0 * math.ulp(1.0)


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


def test_spectral_match_reads_the_replayed_forward_state():
    # the estimate's eigenvalues (1 +- |r|)/2 against those of the replay's forward state
    cfg = settings(1.0)
    result = run_sequence(FULLY_MIXED, 3, cfg, derive_stream(26, 2))
    replay = replay_hypothetical(result.outcomes, cfg)
    lengths = [math.sqrt(_dot(s.bloch, s.bloch)) for s in (result.estimate, replay.aposteriori)]
    assert spectral_match(result, replay) == 0.5 * abs(lengths[0] - lengths[1])


def _point(kind, delta, n, trials, seed, strategy=RANDOM_EIGENSTATE):
    """(mean, standard error, samples) of one estimator at one n, on the streams from 0 on."""
    spec = ExperimentSpec(kind=kind, delta=delta, trials=trials, seed=seed, n_grid=(n,), strategy=strategy)
    (stats,) = run_ensemble(spec)
    return stats.means[0], stats.std_errors[0], stats.samples


def test_fidelity_direct_zero_steps_exact():
    assert _point(SEQUENTIAL_FIDELITY, 20.0, 0, 500, seed=30) == (0.5, 0.0, 500)


def test_fidelity_direct_validates_trials():
    with pytest.raises(ValueError):
        sequential.direct_fidelity_samples(settings(1.0), (1,), 0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind=SEQUENTIAL_FIDELITY, delta=1.0, trials=0, seed=0, n_grid=(1,))
    # the samplers refuse a grid the spec refuses, and read a numpy integer grid as its tuple
    for sampler in (sequential.direct_fidelity_samples, sequential.purity_samples):
        for grid in ((), (3, 1), (2, 2), (-1, 2), np.array([3, 1])):
            with pytest.raises(ValueError, match="n grid must be"):
                sampler(settings(1.0), grid, 10)
        for grid in ((0, 2.5), np.array([0.0, 5.0]), 5):
            with pytest.raises(TypeError, match="n grid must be a sequence of integers"):
                sampler(settings(1.0), grid, 10)
        np.testing.assert_array_equal(sampler(settings(1.0), np.array([0, 5]), 10), sampler(settings(1.0), (0, 5), 10))


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
        start = np.zeros((3, montecarlo._width(streams)))
        for final, _, _ in sequential._sampled_steps(start, streams, n, cfg.precision):
            pass
        overlap = 0.5 * (1.0 + _dot(final, truth))
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
        start = np.repeat(truth, montecarlo._width(streams), axis=1)
        record = [(a.copy(), s) for _, a, s in sequential._sampled_steps(start, streams, 20, cfg.precision)]
        axes, outcomes = np.array([a for a, _ in record]), np.array([s for _, s in record])
        estimates = sequential._estimate_batch(axes, outcomes / (cfg.precision * cfg.precision))
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
