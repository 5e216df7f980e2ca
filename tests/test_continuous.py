import copy
import dataclasses
import math
import pickle
import struct
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hypothesis_settings, strategies as st
from oracles import mean_purity_from_mixed

import unsharp_qubit.continuous as continuous
import unsharp_qubit.montecarlo as montecarlo
from unsharp_qubit import (
    FULLY_MIXED,
    DensityMatrix,
    MeasurementSettings,
    Trajectory,
    TrajectoryState,
    bloch_sde_step,
    derive_stream,
    draw_noise,
    drift_purity,
    mean_fidelity_closed_form,
    purity,
    simulate_purity_ensemble,
    simulate_trajectory,
    sme_step,
    summarize,
    time_from_steps,
)

# drift-only purity at t = 1, frozen from a 40-digit evaluation
DRIFT_PURITY_AT_1 = 0.9998881666187258

EULER_FLOOR_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the single-trajectory scheme, projected Euler-Maruyama on normal "
    "increments (`simulate_trajectory`), has a stationary purity deficit of "
    "order 1e-2 at dt = 1e-4 (noise kicks off the sphere faster than the drift "
    "restores), so near-sphere tolerances tighter than that are unreachable "
    "at this step size",
)


def settings(width):
    return MeasurementSettings(width)


def test_time_mapping_values():
    cfg = settings(10.0)
    assert time_from_steps(0, cfg) == 0.0
    assert time_from_steps(100, cfg) == pytest.approx(12.0, abs=1e-15)
    # n = precision^2 / 96 measurements span one eighth of a time unit
    assert time_from_steps(100.0 / 96.0, cfg) == pytest.approx(0.125, abs=1e-15)
    assert time_from_steps(math.inf, cfg) == math.inf


def test_time_mapping_additive():
    cfg = settings(7.3)
    for n1, n2 in [(3, 4), (10, 90), (1, 999)]:
        assert time_from_steps(n1 + n2, cfg) == pytest.approx(
            time_from_steps(n1, cfg) + time_from_steps(n2, cfg), rel=1e-12
        )


def test_time_mapping_validation():
    for bad in (-1, -2.5, math.nan):
        with pytest.raises(ValueError):
            time_from_steps(bad, settings(3.0))


def test_drift_purity_values():
    assert drift_purity(0.0) == 0.5
    assert drift_purity(math.log(3.0) / 8.0) == pytest.approx(0.875, abs=1e-12)
    assert drift_purity(1.0) == pytest.approx(DRIFT_PURITY_AT_1, abs=1e-15)
    assert abs(drift_purity(50.0) - 1.0) < 1e-15  # asymptote


def test_drift_purity_monotone_and_vectorized():
    grid = np.linspace(0.0, 2.0, 101)
    values = drift_purity(grid)
    assert values.shape == grid.shape
    assert np.all(np.diff(values) > 0.0)
    with pytest.raises(ValueError):
        drift_purity(-0.1)
    for bad in (math.nan, np.array([0.1, math.nan])):
        with pytest.raises(ValueError):
            drift_purity(bad)
    assert drift_purity(math.inf) == 1.0  # the exact limit


def test_mean_fidelity_closed_form_values():
    cfg = settings(20.0)
    assert mean_fidelity_closed_form(0, cfg) == 0.5
    n_third = 400.0 * math.log(3.0) / 96.0  # exponent hits 3
    assert mean_fidelity_closed_form(n_third, cfg) == pytest.approx(0.625, abs=1e-12)
    n_saturated = 50.0 * 400.0 / 96.0  # exponent 50
    assert abs(mean_fidelity_closed_form(n_saturated, cfg) - 2.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        mean_fidelity_closed_form(-1, cfg)
    for bad in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            mean_fidelity_closed_form(bad, cfg)
    assert mean_fidelity_closed_form(math.inf, cfg) == 2.0 / 3.0  # the exact limit


def test_closed_form_identity_with_drift():
    for width in (0.5, 3.0, 20.0, 31.4159):
        cfg = settings(width)
        for n in range(0, 400, 13):
            via_drift = 1.0 / 3.0 + drift_purity(time_from_steps(n, cfg)) / 3.0
            assert abs(mean_fidelity_closed_form(n, cfg) - via_drift) <= 1e-15


def test_drift_purity_solves_drift_ode():
    # central difference of u = 2 purity - 1 against 4 (1-u)(3-u)
    h = 1e-5
    for t in np.linspace(0.01, 1.0, 34):
        u = 2.0 * drift_purity(float(t)) - 1.0
        slope = (drift_purity(float(t) + h) - drift_purity(float(t) - h)) / h
        rhs = 4.0 * (1.0 - u) * (3.0 - u)
        assert abs(slope - rhs) / rhs < 1e-6


def test_draw_noise_scaling():
    rng = derive_stream(40, 0)
    draws = np.array([draw_noise(rng, 1e-3) for _ in range(4000)])
    assert abs(draws.var(ddof=1) / 1e-3 - 1.0) < 0.1
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            draw_noise(rng, bad)


def test_sme_step_fixed_point_at_mixed_state():
    still = (0.0, 0.0, 0.0)
    out = sme_step(FULLY_MIXED, 1e-4, still)
    assert out.bloch == (0.0, 0.0, 0.0)


def test_sme_step_deterministic_drift():
    still = (0.0, 0.0, 0.0)
    out = sme_step(DensityMatrix((0.0, 0.0, 0.5)), 1e-4, still)
    assert out.bloch[2] == pytest.approx(0.5 * (1.0 - 4e-4), abs=1e-10)
    assert out.bloch[:2] == (0.0, 0.0)


def test_sme_step_validates_dt():
    still = (0.0, 0.0, 0.0)
    for bad in (0.0, -1e-4, 2e-3):
        with pytest.raises(ValueError):
            sme_step(FULLY_MIXED, bad, still)


def test_sme_step_sphere_nearly_invariant():
    # d|r|^2 carries a factor (1 - |r|^2): one step off the sphere is O(dt)
    rng = derive_stream(41, 0)
    dt = 1e-4
    for _ in range(100):
        state = DensityMatrix((0.0, 0.0, 1.0))
        out = sme_step(state, dt, draw_noise(rng, dt))
        radius = math.sqrt(sum(c * c for c in out.bloch))
        assert 1.0 - 25.0 * dt <= radius <= 1.0


def test_bloch_step_at_origin_is_pure_noise():
    noise = (0.01, -0.02, 0.005)
    out = bloch_sde_step((0.0, 0.0, 0.0), 1e-4, noise)
    assert out == tuple(2.0 * w for w in noise)


def test_bloch_step_radial_noise_suppressed_on_sphere():
    out = bloch_sde_step((0.0, 0.0, 1.0), 1e-4, (0.0, 0.0, 0.03))
    assert out == (0.0, 0.0, 1.0 - 4.0 * 1e-4)


def test_bloch_and_matrix_steps_agree_pathwise():
    rng = derive_stream(42, 0)
    dt = 1e-4
    state = FULLY_MIXED
    r = state.bloch
    worst = 0.0
    for _ in range(1000):
        noise = draw_noise(rng, dt)
        state = sme_step(state, dt, noise)
        r = bloch_sde_step(r, dt, noise)
        worst = max(worst, max(abs(state.bloch[i] - r[i]) for i in range(3)))
    assert worst < 1e-8


def _group_lengths_noise(seed, index, width, steps, dt):
    """The (steps, width) kernel input 2a of the group on derive_stream(seed, index), as lists.

    Read off the stream in the layout the ensemble draws it: one uniform per
    trajectory-step, step-major, which is the same draws whatever
    `montecarlo._BLOCK_STEPS` cuts them into; 2a = copysign(2 sqrt(dt), u - 1/2).
    """
    u = derive_stream(seed, index).random((steps, width))
    return np.copysign(2.0 * math.sqrt(dt), u - 0.5).tolist()


def _scalar_purities(seed, trajectories, dt, sample_steps, start, base_index=0):
    """Purities of trajectories 0.. of `seed` at each of `sample_steps`, as scalar length chains.

    Trajectory b is column b % G of group b // G, on that group's draws, and
    steps its Bloch length in float64 scalars in the kernel's operation
    order, sqrt(s * s + 8 dt), with IEEE operations and `math.sqrt` alone,
    both correctly rounded.  Returns the (len(sample_steps), trajectories)
    purities as lists and the number of steps that ended outside the ball
    and were projected.
    """
    g = montecarlo._GROUP
    steps = max(sample_steps)
    c, b2 = 1.0 - 4.0 * dt, 8.0 * dt
    columns, projected = [], 0
    for lo in range(0, trajectories, g):
        two_as = _group_lengths_noise(seed, base_index + lo, min(g, trajectories - lo), steps, dt)
        for b in range(min(g, trajectories - lo)):
            x, y, z = start
            rho = math.sqrt(x * x + y * y + z * z)
            path = [0.5 * (1.0 + rho * rho)]
            for two_a in two_as:
                s = (c - rho * two_a[b]) * rho + two_a[b]
                length = math.sqrt(s * s + b2)
                projected += length > 1.0
                rho = min(length, 1.0)
                path.append(0.5 * (1.0 + rho * rho))
            columns.append([path[k] for k in sample_steps])
    return [list(row) for row in zip(*columns)], projected


# 2,400 trajectory-steps a block: 8 trajectories in blocks of 300 steps and a shorter last one
@pytest.mark.parametrize("block", [None, 2400])
def test_pure_start_ensemble_equals_scalar_steps_bitwise(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", block // 8)
    dt, steps, start = 1e-4, 2000, (0.0, 0.6, 0.8)
    sample_steps = list(range(0, steps + 1, 50))
    ensemble = simulate_purity_ensemble([k * dt for k in sample_steps], dt, 8, seed=66, initial=DensityMatrix(start))
    purities, projected = _scalar_purities(66, 8, dt, sample_steps, start)
    assert ensemble.tolist() == purities
    assert projected > 0


# 4 trajectories in blocks of 12 steps, or in one block
@pytest.mark.parametrize("block_steps", [12, 4096])
@pytest.mark.parametrize(
    "sample_steps",
    [[0, 12, 24, 36, 48], [12, 30, 36], [0, 30, 30, 70, 70, 70], [0], [0, 0], [1, 1, 2]],
    ids=["block-ends", "some-block-ends", "repeated", "zero-only", "zero-repeated", "first-steps"],
)
def test_ensemble_grid_sampling_equals_scalar_steps_bitwise(monkeypatch, block_steps, sample_steps):
    monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", block_steps)
    dt, start = 1e-4, (0.0, 0.0, 1.0)
    ensemble = simulate_purity_ensemble([k * dt for k in sample_steps], dt, 4, seed=69, initial=DensityMatrix(start))
    purities, _ = _scalar_purities(69, 4, dt, sample_steps, start)
    assert ensemble.tolist() == purities


def test_ensemble_of_several_groups_equals_scalar_steps_bitwise():
    # 2G + 1 trajectories in one batch: three groups, each column on its own group's draws
    dt, start = 1e-4, (0.0, 0.0, 0.0)
    sample_steps = [0, 100, 250]
    trajectories = 2 * montecarlo._GROUP + 1
    ensemble = simulate_purity_ensemble([k * dt for k in sample_steps], dt, trajectories, seed=73)
    purities, _ = _scalar_purities(73, trajectories, dt, sample_steps, start)
    assert ensemble.tolist() == purities


def test_zero_noise_length_chain_is_the_drift_recursion():
    # without noise the length chain is the drift recursion rho <- (1 - 4 dt) rho,
    # as the kernel forms it: sqrt(s * s + 0) = |s| is exact
    dt, steps = 1e-4, 300
    c, rho = 1.0 - 4.0 * dt, 0.5
    lengths = np.full(3, rho)
    chain = continuous._step_lengths(lengths, [(np.zeros((steps, 3)), 0.0)], dt)
    for taken, step in enumerate(chain, 1):
        rho = c * rho
        assert step is lengths and lengths.tolist() == [rho] * 3
    assert taken == steps


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    direction=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
        lambda v: v[0] * v[0] + v[1] * v[1] + v[2] * v[2] > 1e-6
    ),
    across=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
    dt=st.floats(min_value=0.0, max_value=continuous.DEFAULT_DT_MAX, exclude_min=True),
    up=st.booleans(),
)
# both ends of the ball, the origin and the sphere, where the projection acts
@example(rho=0.0, direction=(0.0, 0.0, 1.0), across=(0.3, -1.0, 0.7), dt=1e-4, up=True)
@example(rho=1.0, direction=(0.6, 0.0, 0.8), across=(0.8, 0.4, -0.6), dt=1e-3, up=False)
def test_length_kernel_equals_the_vector_and_matrix_steps(rho, direction, across, dt, up):
    # a two-point increment: a = +-sqrt(dt) along e and b across it with |b|^2 = 2 dt
    n = math.sqrt(sum(x * x for x in direction))
    e = [x / n for x in direction]
    ortho = [x - sum(y * z for y, z in zip(across, e)) * u for x, u in zip(across, e)]
    size = math.sqrt(sum(x * x for x in ortho))
    assume(size > 1e-3)
    a = math.copysign(math.sqrt(dt), 1.0 if up else -1.0)
    b = [math.sqrt(2.0 * dt) * x / size for x in ortho]
    d_w = [a * x + y for x, y in zip(e, b)]
    (length,) = next(continuous._step_lengths(np.array([rho]), [(np.array([[2.0 * a]]), 8.0 * dt)], dt))
    r = [rho * x for x in e]
    vector = continuous._step_bloch(*r, *d_w, dt)
    matrix = sme_step(DensityMatrix.clipped(r), dt, tuple(d_w)).bloch
    # 4 ulp of 1, the scale of a Bloch length: where s cancels and the length
    # is tiny, the two roundings differ by more ulps of the result
    assert abs(length - math.sqrt(sum(x * x for x in vector))) <= 4.0 * math.ulp(1.0)
    assert abs(length - math.sqrt(sum(x * x for x in matrix))) <= 1e-12


@hypothesis_settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    dt=st.floats(min_value=0.0, max_value=continuous.DEFAULT_DT_MAX, exclude_min=True),
    up=st.booleans(),
)
@example(rho=1.0, dt=continuous.DEFAULT_DT_MAX, up=True)
@example(rho=1.0, dt=continuous.DEFAULT_DT_MAX, up=False)
@example(rho=0.0, dt=continuous.DEFAULT_DT_MAX, up=False)
def test_length_projection_is_a_bounded_repair(rho, dt, up):
    # under two-point increments |s| <= c, so the length before the projection
    # is at most sqrt(1 + 16 dt^2) and min(., 1) moves it by at most 8 dt^2
    c, b2 = 1.0 - 4.0 * dt, 8.0 * dt
    two_a = math.copysign(2.0 * math.sqrt(dt), 1.0 if up else -1.0)
    s = (c - rho * two_a) * rho + two_a
    length = math.sqrt(s * s + b2)
    assert abs(s) <= c + 4.0 * math.ulp(1.0)
    assert length - 1.0 <= 8.0 * dt * dt + 4.0 * math.ulp(1.0)
    (projected,) = next(continuous._step_lengths(np.array([rho]), [(np.array([[two_a]]), b2)], dt))
    assert projected == min(length, 1.0)


def test_single_trajectory_batches_equal_the_whole_batch(monkeypatch):
    # batches of whole groups give the columns of the whole batch; with
    # groups of one trajectory, that is every single-trajectory batch
    grid = (0.0, 0.01, 0.05)
    g = montecarlo._GROUP
    whole = simulate_purity_ensemble(grid, 1e-4, 2 * g + 1, seed=68)
    groups = [simulate_purity_ensemble(grid, 1e-4, min(g, 2 * g + 1 - lo), seed=68, base_index=lo)
              for lo in range(0, 2 * g + 1, g)]
    np.testing.assert_array_equal(whole, np.concatenate(groups, axis=1))
    monkeypatch.setattr(montecarlo, "_GROUP", 1)
    whole = simulate_purity_ensemble(grid, 1e-4, 64, seed=68)
    singles = [simulate_purity_ensemble(grid, 1e-4, 1, seed=68, base_index=k)[:, 0] for k in range(64)]
    np.testing.assert_array_equal(whole, np.array(singles).T)


def test_ensemble_sub_batch_and_noise_block_do_not_change_results(monkeypatch):
    # a sub-batch at group boundaries gives its columns of the whole; a group
    # reads its uniforms step-major whatever the block, so the block length
    # is not part of the layout: at 7 steps, groups of 5 still equal the reference
    grid = (0.01, 0.05, 0.1)
    g = montecarlo._GROUP
    whole = simulate_purity_ensemble(grid, 1e-4, 3 * g, seed=62)
    part = simulate_purity_ensemble(grid, 1e-4, g, seed=62, base_index=g)
    np.testing.assert_array_equal(whole[:, g : 2 * g], part)
    monkeypatch.setattr(montecarlo, "_GROUP", 5)
    default = simulate_purity_ensemble(grid, 1e-4, 16, seed=62)
    monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", 7)
    purities, _ = _scalar_purities(62, 16, 1e-4, [100, 500, 1000], (0.0, 0.0, 0.0))
    assert simulate_purity_ensemble(grid, 1e-4, 16, seed=62).tolist() == purities == default.tolist()


def test_simulate_trajectory_deterministic():
    first = simulate_trajectory(FULLY_MIXED, 0.05, 1e-4, derive_stream(44, 0), emit_record=True)
    second = simulate_trajectory(FULLY_MIXED, 0.05, 1e-4, derive_stream(44, 0), emit_record=True)
    assert first == second


def _every(path, stride):
    """Every stride-th snapshot of a path from its start, and its last."""
    return path[::stride] + path[-1:] if (len(path) - 1) % stride else path[::stride]


def test_simulate_trajectory_stride_and_times():
    out = simulate_trajectory(FULLY_MIXED, 0.01, 1e-3, derive_stream(44, 1))
    assert [s.time for s in out] == [k * 1e-3 for k in range(11)]
    assert [pytest.approx(s.time) for s in _every(out, 4)] == [0.0, 0.004, 0.008, 0.01]
    assert out[0].record is None


def test_simulate_trajectory_record_accumulates():
    out = simulate_trajectory(FULLY_MIXED, 0.01, 1e-3, derive_stream(44, 2), emit_record=True)
    assert out[0].record == (0.0, 0.0, 0.0)
    assert out[-1].record != (0.0, 0.0, 0.0)


def test_one_trajectory_ensemble_equals_scalar_chain_bitwise():
    # a one-trajectory ensemble is one group of width 1 on derive_stream(45, 3);
    # it steps the two-point length chain, not `simulate_trajectory`'s bits
    ensemble = simulate_purity_ensemble((0.02,), 1e-4, 1, seed=45, base_index=3)
    purities, _ = _scalar_purities(45, 1, 1e-4, [200], (0.0, 0.0, 0.0), base_index=3)
    assert ensemble.tolist() == purities


# the mixed start stays inside the ball; the pure start leaves it and is projected
@pytest.mark.parametrize(
    "start,projects", [((0.3, -0.2, 0.1), False), ((0.0, 0.0, 1.0), True)], ids=["mixed", "pure"]
)
def test_trajectory_equals_bloch_sde_step_chain_and_projects_pure_only(start, projects):
    dt, steps = 1e-4, 2000
    run = simulate_trajectory(DensityMatrix(start), steps * dt, dt, derive_stream(63, 0), emit_record=True)
    d_w = math.sqrt(dt) * derive_stream(63, 0).standard_normal((steps, 3))
    r = start
    record = np.zeros(3)
    projected = 0
    for k in range(steps):
        record = record + np.array(r) * dt + 0.5 * d_w[k]
        r = bloch_sde_step(r, dt, tuple(d_w[k].tolist()))
        projected += int(abs(np.linalg.norm(r) - 1.0) < 1e-12)
        assert run[k + 1].state.bloch == r
        assert run[k + 1].record == tuple(record.tolist())
    assert (projected > 0) == projects


# a pure start, so steps project; 34 noise chunks of 1024 rows and a shorter last one of 185;
# the strides slice the full path
@pytest.mark.parametrize("emit_record", [True, False], ids=["record", "no-record"])
@pytest.mark.parametrize("stride", [1, 7, 10**30], ids=["stride-1", "stride-7", "stride-1e30"])
def test_trajectory_equals_scalar_chain_across_blocks_and_chunks(emit_record, stride):
    dt, steps, start = 1e-4, 34 * 1024 + 185, (0.0, 0.6, 0.8)
    run = simulate_trajectory(DensityMatrix(start), steps * dt, dt, derive_stream(67, 0), emit_record)
    assert len(run) == steps + 1
    d_w = derive_stream(67, 0).standard_normal((steps, 3)) * math.sqrt(dt)
    r, rec = start, (0.0, 0.0, 0.0)
    expected = [TrajectoryState(DensityMatrix(start), 0.0, rec if emit_record else None)]
    for k, w in enumerate(d_w.tolist(), start=1):
        rec = tuple((rec[i] + r[i] * dt) + 0.5 * w[i] for i in range(3))
        r = bloch_sde_step(r, dt, tuple(w))
        if k % stride == 0 or k == steps:
            expected.append(TrajectoryState(DensityMatrix(r), k * dt, rec if emit_record else None))
    assert _every(run, stride) == expected
    assert all(type(s.time) is float and type(s.state.bloch[0]) is float for s in run)


def test_trajectory_rescale_is_rounding_only():
    # from a pure start the steps project onto the sphere, and the columns keep
    # what the projection returned, with no second rescale: some lengths lie
    # above 1, by rounding only
    dt, steps, start = 1e-4, 5000, (0.0, 0.0, 1.0)
    run = simulate_trajectory(DensityMatrix(start), steps * dt, dt, derive_stream(68, 0))
    d_w = derive_stream(68, 0).standard_normal((steps, 3)) * math.sqrt(dt)
    x, y, z = start
    for k, w in enumerate(d_w.tolist(), start=1):
        x, y, z = continuous._step_bloch(x, y, z, *w, dt)
        assert run.bloch[:, k].tolist() == [x, y, z]
    x, y, z = run.bloch
    lengths = np.sqrt(x * x + y * y + z * z)
    assert lengths.max() <= 1.0 + 4.0 * np.finfo(float).eps
    assert (lengths > 1.0).any()


class _InfiniteNormals:
    """Stand-in random stream whose normals are all infinite."""

    def standard_normal(self, size):
        return np.full(size, math.inf)


def test_trajectory_refuses_non_finite_states():
    with pytest.raises(ValueError, match="finite"):
        simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, _InfiniteNormals(), emit_record=True)


class _HugeNormals:
    """Stand-in random stream whose normals are all 1e200: finite, but their squares overflow."""

    def standard_normal(self, size):
        return np.full(size, 1e200)


def test_step_refuses_a_length_that_overflows():
    # x^2 + y^2 + z^2 overflows, so the length is inf and the projection onto
    # the sphere would send the state to the origin: the step refuses it, in
    # the trajectory and in `bloch_sde_step` alike
    with pytest.raises(ValueError, match="overflowed"):
        simulate_trajectory(DensityMatrix((0.0, 0.0, 1.0)), 0.01, 1e-4, _HugeNormals())
    with pytest.raises(ValueError, match="overflowed"):
        bloch_sde_step((0.0, 0.0, 1.0), 1e-4, draw_noise(_HugeNormals(), 1e-4))


def test_snapshot_classes_round_trip():
    run = simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 0), emit_record=True)
    bare = simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 0))
    for value in (run[0], run[-1], bare[-1], run[-1].state):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
            assert twin == value and twin is not value
            assert hash(twin) == hash(value)
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
    assert dataclasses.replace(run[-1], record=None) == bare[-1]
    assert dataclasses.replace(run[-1].state, bloch=[0, 0, 1]).bloch == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(run[-1].state, bloch=(0.0, 0.0, 1.5))


def _bits(time, bloch, record):
    return struct.pack("<7d", time, *bloch, *record)


def test_trajectory_columns_are_its_snapshots_bitwise():
    # a pure start, so steps project, over two noise chunks of 1024 rows and part of a third
    run = simulate_trajectory(DensityMatrix((0.0, 0.6, 0.8)), 0.25, 1e-4, derive_stream(71, 0), emit_record=True)
    assert isinstance(run, Trajectory) and isinstance(run, Sequence)
    assert len(run) == 2501 and run.times.shape == (2501,) and run.bloch.shape == run.record.shape == (3, 2501)
    for k in (0, 1, 1023, 1024, 1025, 2500, -1, -2501):
        snap = run[k]
        assert _bits(snap.time, snap.state.bloch, snap.record) == _bits(run.times[k], run.bloch[:, k], run.record[:, k])
        assert type(snap.time) is float and all(type(v) is float for v in (*snap.state.bloch, *snap.record))
    assert run[0].state == DensityMatrix((0.0, 0.6, 0.8)) and run[0].record == (0.0, 0.0, 0.0)
    assert run[np.int64(-1)] == run[2500]
    assert list(run) == run[:] == [run[k] for k in range(len(run))]
    assert list(reversed(run)) == run[::-1]


def test_trajectory_slices_are_lists_and_indices_are_checked():
    run = simulate_trajectory(FULLY_MIXED, 0.01, 1e-3, derive_stream(71, 1))
    assert type(run[::4]) is list and type(run[5:2]) is list and run[5:2] == []
    assert run[::4] + run[-1:] == [run[0], run[4], run[8], run[10]]
    for k in (11, -12, 10**30):
        with pytest.raises(IndexError):
            run[k]
    with pytest.raises(TypeError):
        run[1.0]


def test_trajectory_without_record_has_none_throughout():
    run = simulate_trajectory(FULLY_MIXED, 0.3, 1e-4, derive_stream(71, 2))
    assert run.record is None
    assert all(snap.record is None for snap in run) and run[-1].record is None


def test_trajectory_equality_and_round_trips():
    run = simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 0), emit_record=True)
    bare = simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 0))
    assert run == simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 0), emit_record=True)
    assert run != bare and bare != run and dataclasses.replace(run, record=None) == bare
    assert run != simulate_trajectory(FULLY_MIXED, 0.01, 1e-4, derive_stream(70, 1), emit_record=True)
    assert run != list(run)
    for value in (run, bare):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == value and twin is not value and list(twin) == list(value)
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.times = None
        with pytest.raises(ValueError):
            value.bloch[0, 0] = 1.0
    with pytest.raises(TypeError):
        hash(run)


# Peak traced bytes per snapshot of a trajectory: its arrays take 56 B a
# snapshot and one chunk's working set adds about 20 B at 20,001 snapshots
# (73-77 B measured); a list of snapshot objects took about 447 B.
SNAPSHOT_BYTES = 100


def test_trajectory_memory_is_its_columns_built_or_iterated():
    rng = derive_stream(72, 0)
    tracemalloc.start()
    try:
        run = simulate_trajectory(FULLY_MIXED, 2.0, 1e-4, rng, emit_record=True)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in run:
            pass
        _, iterated = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run) == 20001
    assert max(built, iterated) <= SNAPSHOT_BYTES * len(run), (built, iterated)


# Peak traced bytes of a 5,000-trajectory ensemble stepped in the grid
# samplers' batches of montecarlo._BATCH groups, 1,000 trajectories: one
# batch's (327, 1,000) noise block is 2.6 MB (3.0 MB measured); one batch of
# all 5,000 took 13.5 MB.
ENSEMBLE_BYTES = 4_000_000


def test_ensemble_working_memory_is_one_batch():
    tracemalloc.start()
    try:
        purities = simulate_purity_ensemble((0.0, 0.05), 1e-4, 5000, seed=49)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert purities.shape == (2, 5000)
    assert peak <= ENSEMBLE_BYTES, peak


@EULER_FLOOR_XFAIL
def test_pure_state_stays_pure_to_integration_accuracy():
    run = simulate_trajectory(DensityMatrix((0.0, 0.0, 1.0)), 1.0, 1e-4, derive_stream(46, 0))
    assert all(purity(s.state) >= 1.0 - 1e-6 for s in run[::100])


def test_almost_all_trajectories_purify():
    purities = simulate_purity_ensemble((2.0,), 1e-4, 1000, seed=47)[0]
    assert np.mean(purities > 0.99) >= 0.99


def test_pure_state_stays_near_sphere():
    # attainable version of the near-sphere claim at this step size
    run = simulate_trajectory(DensityMatrix((0.0, 0.0, 1.0)), 1.0, 1e-4, derive_stream(46, 1))
    assert all(purity(s.state) >= 0.9 for s in run[::100])


def test_long_time_purification():
    purities = simulate_purity_ensemble((2.0,), 1e-4, 300, seed=48)[0]
    assert purities.mean() > 0.98


def test_purity_increment_follows_ito_identity():
    # regress du against the drift and diffusion coefficient candidates
    rng = derive_stream(17, 0)
    r = (0.0, 0.0, 0.0)
    dt = 1e-4
    design, response = [], []
    for _ in range(10**4):
        noise = draw_noise(rng, dt)
        u = sum(x * x for x in r)
        radial = sum(r[i] * noise[i] for i in range(3))
        design.append((4.0 * (1.0 - u) * (3.0 - u) * dt, 4.0 * (1.0 - u) * radial))
        stepped = bloch_sde_step(r, dt, noise)
        response.append(sum(x * x for x in stepped) - u)
        r = stepped
    coef, *_ = np.linalg.lstsq(np.array(design), np.array(response), rcond=None)
    assert coef[0] == pytest.approx(1.0, abs=0.05)
    assert coef[1] == pytest.approx(1.0, abs=0.05)


def test_ensemble_mean_purity_tracks_drift_curve():
    grid = (0.1, 0.3)
    purities = simulate_purity_ensemble(grid, 1e-4, 300, seed=49)
    for i, t in enumerate(grid):
        assert abs(purities[i].mean() - drift_purity(t)) < 0.02


def test_simulate_purity_ensemble_validation():
    with pytest.raises(ValueError):
        simulate_purity_ensemble((), 1e-4, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_purity_ensemble((0.2, 0.1), 1e-4, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_purity_ensemble((0.1,), 1e-4, 0, seed=0)
    for grid in ((math.nan,), (0.1, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="finite"):
            simulate_purity_ensemble(grid, 1e-4, 10, seed=0)


@pytest.mark.parametrize("start", [(0.0, 0.0, 0.0), (0.6, 0.0, 0.8)])
def test_matrix_step_trace_repair_is_rounding_only(start):
    # before `sme_step` divides by the trace, the Euler update has kept it at 1 to rounding
    rng, dt = derive_stream(11, 0), 1e-4
    state = DensityMatrix(start)
    worst = 0.0
    for _ in range(3000):
        noise = draw_noise(rng, dt)
        trace = np.trace(continuous._euler_density(state.matrix(), noise, dt)).real
        worst = max(worst, abs(trace - 1.0))
        state = sme_step(state, dt, noise)
    assert worst <= 4.0 * np.finfo(float).eps


# E[(1 + u_t)/2] from the fully mixed state, the backward-equation solve of
# `oracles.mean_purity_from_mixed` to six decimals
ORACLE_TIMES = (0.05, 0.1, 0.25, 0.5, 1.0)
ORACLE_PURITY = (0.714169, 0.828946, 0.959013, 0.995604, 0.999939)
ORACLE_STEPS = 4000  # Crank-Nicolson steps per unit time of the fine solve


@pytest.fixture(scope="module")
def oracle_curve():
    """The fine oracle solve at t = k / ORACLE_STEPS over [0, 1]."""
    return mean_purity_from_mixed(1.0, ORACLE_STEPS, points=2000)


def test_backward_equation_oracle_converges(oracle_curve):
    # halving both grid spacings moves no value by 1e-6
    coarse = mean_purity_from_mixed(1.0, ORACLE_STEPS // 2, points=1000)
    for t, expected in zip(ORACLE_TIMES, ORACLE_PURITY):
        fine = oracle_curve[round(t * ORACLE_STEPS)]
        assert abs(fine - coarse[round(t * ORACLE_STEPS // 2)]) <= 1e-6
        assert abs(fine - expected) <= 1e-6


def test_drift_curve_sits_below_the_oracle(oracle_curve):
    # 4 (1 - u)(3 - u) is convex, so E[du/dt] >= the drift at E[u] (Jensen):
    # the drift curve is a lower bound, 6.26e-3 short at t = 0.25 and
    # 7.02e-3 at its widest, t = 0.18
    t = np.linspace(0.0, 1.0, ORACLE_STEPS + 1)
    gap = oracle_curve - drift_purity(t)
    assert gap[0] == 0.0 and np.all(gap[1:] > 0.0)
    assert max(gap[round(s * ORACLE_STEPS)] for s in ORACLE_TIMES) == pytest.approx(6.26e-3, abs=1e-5)
    assert gap.max() == pytest.approx(7.02e-3, abs=1e-5)
    assert t[gap.argmax()] == pytest.approx(0.18, abs=0.005)


# The ensemble's weak bias at the step ceiling DEFAULT_DT_MAX against the
# oracle at ORACLE_TIMES, rounded up: 2.4 million trajectories (six seeds of
# 400,000) measured +1.04e-3, +1.24e-3, +1.17e-3, +6.5e-4 and +3.3e-5, each
# to within 0.8e-4.  At weak order 1 it is about a tenth of that at dt = 1e-4,
# inside the first input's 4.5 standard errors at 2,000 trajectories.
CEILING_BIAS = (1.2e-3, 1.4e-3, 1.25e-3, 7e-4, 4e-5)


def test_ensemble_agrees_with_the_backward_equation_oracle(oracle_curve):
    # within 4.5 standard errors, plus the measured weak bias at the step ceiling
    cases = [
        ((0.25, 0.5, 1.0), 1e-4, 2000, (0.0, 0.0, 0.0)),
        (ORACLE_TIMES, continuous.DEFAULT_DT_MAX, 40_000, CEILING_BIAS),
    ]
    for times, dt, trajectories, biases in cases:
        purities = simulate_purity_ensemble(times, dt, trajectories, seed=52)
        for row, t, bias in zip(purities, times, biases):
            mean, error = summarize(row)
            assert abs(mean - oracle_curve[round(t * ORACLE_STEPS)]) <= 4.5 * error + bias, (dt, t)
