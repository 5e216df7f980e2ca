import math
import warnings

import numpy as np
import pytest

import unsharp_qubit.sequential as sequential
from unsharp_qubit.povm import log_weights, posterior_rows
from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    FULLY_MIXED,
    RANDOM_EIGENSTATE,
    ContinuumAdvisory,
    DensityMatrix,
    GaussianEffect,
    MeasurementAxis,
    MeasurementSettings,
    QuadratureSpec,
    completeness_defect,
    derive_stream,
    fidelity,
    make_effect,
    outcome_density,
    outcome_distribution,
    posterior_update,
    purify_estimate,
    purity,
    random_pure_state,
    sample_outcome,
    single_estimate,
)

# unit-width Gaussian density at 0, 1, 2 (frozen from scipy.stats.norm.pdf)
G0 = 0.3989422804014327
G1 = 0.24197072451914337
G2 = 0.05399096651318806

Z_AXIS = MeasurementAxis((0.0, 0.0, 1.0))
PLUS_Z = DensityMatrix((0.0, 0.0, 1.0))


def settings(width):
    return MeasurementSettings(width, continuum_floor=None)


def test_settings_validation_and_advisory():
    with pytest.raises(ValueError):
        MeasurementSettings(0.0)
    with pytest.raises(ValueError):
        MeasurementSettings(-2.0)
    with pytest.warns(ContinuumAdvisory):
        MeasurementSettings(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MeasurementSettings(10.0)  # above the default floor
        MeasurementSettings(0.05, continuum_floor=None)  # advisory disabled


def test_effect_weights_symmetric_outcome():
    effect = make_effect(Z_AXIS, settings(1.0), 0.0)
    assert effect.log_weight_plus == effect.log_weight_minus
    assert effect.weight_plus == pytest.approx(G1, rel=1e-12)


def test_effect_weights_shifted_outcome():
    effect = make_effect(Z_AXIS, settings(1.0), 1.0)
    assert effect.weight_plus == pytest.approx(G0, rel=1e-12)
    assert effect.weight_minus == pytest.approx(G2, rel=1e-12)


def test_effect_rejects_bad_outcome():
    with pytest.raises(ValueError):
        make_effect(Z_AXIS, settings(1.0), math.inf)


def test_log_weights_survive_extreme_outcomes():
    effect = make_effect(Z_AXIS, settings(0.05), 3.0)
    assert effect.weight_minus == 0.0  # linear form underflows
    assert math.isfinite(effect.log_weight_minus)


@pytest.mark.parametrize("width", [1.0, 10.0, 0.1])
def test_completeness_defect(width):
    defect = completeness_defect(Z_AXIS, settings(width), QuadratureSpec(10.0, 10001))
    assert defect < 1e-9


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=2)


def test_outcome_density_values():
    assert outcome_density(FULLY_MIXED, Z_AXIS, settings(1.0), 0.0) == pytest.approx(G1, rel=1e-12)
    assert outcome_density(PLUS_Z, Z_AXIS, settings(1.0), 1.0) == pytest.approx(G0, rel=1e-12)


def test_outcome_density_normalized():
    state = DensityMatrix((0.3, -0.2, 0.5))
    cfg = settings(1.5)
    grid = np.linspace(-1 - 12 * 1.5, 1 + 12 * 1.5, 8001)
    dens = [outcome_density(state, Z_AXIS, cfg, s) for s in grid]
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-9)


def test_outcome_moments_single_branch():
    rng = derive_stream(231, 0)
    draws = outcome_distribution(PLUS_Z, Z_AXIS, settings(1.0)).sample(rng, 10**6)
    assert abs(draws.mean() - 1.0) < 3.0 * 1.0 / 1e3


def test_outcome_moments_mixed():
    rng = derive_stream(231, 1)
    dist = outcome_distribution(FULLY_MIXED, Z_AXIS, settings(1.0))
    draws = dist.sample(rng, 10**6)
    assert dist.variance == 2.0
    assert abs(draws.mean()) < 5.0 * math.sqrt(2.0 / 10**6)
    assert abs(draws.var(ddof=1) - 2.0) < 5.0 * 2.0 * math.sqrt(3.0 / 10**6)


def test_outcome_mean_tracks_polarization():
    rng = derive_stream(231, 2)
    state = DensityMatrix((0.3, 0.1, 0.4))
    axis = MeasurementAxis.from_vector((1.0, 2.0, -0.5))
    dist = outcome_distribution(state, axis, settings(1.0))
    draws = dist.sample(rng, 10**6)
    assert abs(draws.mean() - dist.mean) < 5.0 * math.sqrt(dist.variance / 10**6)


def test_sample_outcome_scalar_path():
    rng = derive_stream(231, 3)
    cfg = settings(1.0)
    draws = np.array([sample_outcome(FULLY_MIXED, Z_AXIS, cfg, rng) for _ in range(10**4)])
    assert abs(draws.mean()) < 5.0 * math.sqrt(2.0 / 10**4)


def test_posterior_identity_effect_leaves_state():
    state = DensityMatrix((0.3, -0.2, 0.5))
    effect = make_effect(Z_AXIS, settings(1.0), 0.0)
    updated = posterior_update(state, effect)
    assert updated.bloch == pytest.approx(state.bloch, abs=1e-15)


def test_posterior_from_mixed_state():
    effect = make_effect(Z_AXIS, settings(1.0), 1.0)
    updated = posterior_update(FULLY_MIXED, effect)
    assert updated.bloch == pytest.approx((0.0, 0.0, math.tanh(1.0)), abs=1e-12)


def test_posterior_eigenstate_fixed_point():
    for outcome in (-3.0, 0.2, 1.0, 7.5):
        updated = posterior_update(PLUS_Z, make_effect(Z_AXIS, settings(1.0), outcome))
        assert updated.bloch == (0.0, 0.0, 1.0)


def test_posterior_preserves_purity():
    rng = derive_stream(15, 0)
    cfg = settings(0.7)
    for _ in range(300):
        state = random_pure_state(rng)
        axis = MeasurementAxis(random_pure_state(rng).bloch)
        effect = make_effect(axis, cfg, float(rng.normal(0, 2)))
        assert abs(purity(posterior_update(state, effect)) - 1.0) <= 1e-12


def test_posterior_degenerate_update_error():
    dead = GaussianEffect(Z_AXIS, 0.0, 1.0, -math.inf, -math.inf)
    with pytest.raises(ValueError):
        posterior_update(FULLY_MIXED, dead)


class _ZeroStream:
    """Stand-in random stream whose normals are all exactly zero."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, 0.5)
        out[...] = 0.5
        return out


def test_posterior_rows_keep_the_scalar_checks():
    axes = np.array([[0.0, 0.0, 1.0]] * 3)
    log_plus, log_minus = log_weights(np.array([0.5, 0.5, 0.0]), 1.0)
    # row 0 has an empty branch, which must never reach log; row 1 starts
    # outside the ball and is rescaled onto it; row 2 is an ordinary state
    r = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8 + 1e-9], [0.1, 0.2, 0.3]])
    with np.errstate(all="raise"):
        out = posterior_rows(r, axes, log_plus, log_minus)
    assert out[0].tolist() == [0.0, 0.0, 1.0]
    assert math.sqrt(out[1] @ out[1]) <= 1.0
    single = posterior_update(DensityMatrix((0.1, 0.2, 0.3)), make_effect(Z_AXIS, settings(1.0), 0.0))
    assert out[2].tolist() == list(single.bloch)
    # a row of zero or undefined total weight is refused, whatever its neighbours
    for bad in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            posterior_rows(r, axes, np.array([log_plus[0], bad, log_plus[2]]), np.array([log_minus[0], bad, log_minus[2]]))
    with pytest.raises(ValueError):
        posterior_rows(r, axes, *log_weights(np.array([0.5, math.nan, 0.0]), 1.0))


def test_zero_length_axis_is_refused():
    with pytest.raises(ValueError):
        sequential._draw_block([derive_stream(17, 0), _ZeroStream()], 2)


@pytest.mark.parametrize("width", [1.0, 3.0])
def test_expected_update_damps_coherences(width):
    # quadrature of posterior * density: diagonal in the measurement basis is
    # preserved, transverse components shrink by exp(-1/(2 width^2))
    state = DensityMatrix((0.3, -0.2, 0.5))
    cfg = settings(width)
    half = 1.0 + 12.0 * width
    grid = np.linspace(-half, half, 20001)
    acc = np.zeros(3)
    for s in grid:
        effect = make_effect(Z_AXIS, cfg, float(s))
        weight = outcome_density(state, Z_AXIS, cfg, float(s))
        acc += weight * np.asarray(posterior_update(state, effect).bloch)
    mean_state = acc * (grid[1] - grid[0])
    damp = math.exp(-1.0 / (2.0 * width * width))
    expected = (damp * state.bloch[0], damp * state.bloch[1], state.bloch[2])
    assert mean_state == pytest.approx(expected, abs=1e-6)


def test_single_estimate_values():
    cfg = settings(1.0)
    assert single_estimate(make_effect(Z_AXIS, cfg, 0.0)).bloch == (0.0, 0.0, 0.0)
    est = single_estimate(make_effect(Z_AXIS, cfg, 1.0))
    assert est.bloch == pytest.approx((0.0, 0.0, math.tanh(1.0)), abs=1e-12)


def test_single_estimate_sharp_limit():
    est = single_estimate(make_effect(Z_AXIS, settings(0.01), 1.0))
    assert est.bloch == (0.0, 0.0, 1.0)


def test_single_estimate_equals_mixed_posterior():
    rng = derive_stream(16, 0)
    cfg = settings(1.3)
    for _ in range(200):
        axis = MeasurementAxis(random_pure_state(rng).bloch)
        effect = make_effect(axis, cfg, float(rng.normal(0, 3)))
        est = single_estimate(effect)
        post = posterior_update(FULLY_MIXED, effect)
        assert est.bloch == pytest.approx(post.bloch, abs=1e-12)


def test_purify_random_eigenstate_frequency():
    state = DensityMatrix((0.0, 0.0, 0.6))
    rng = derive_stream(202, 0)
    hits = sum(
        purify_estimate(state, RANDOM_EIGENSTATE, rng).bloch[2] > 0 for _ in range(10**5)
    )
    assert abs(hits / 10**5 - 0.8) <= 0.004


def test_purify_dominant_is_deterministic():
    state = DensityMatrix((0.0, 0.0, 0.6))
    rng = derive_stream(202, 1)
    for _ in range(50):
        assert purify_estimate(state, DOMINANT_EIGENSTATE, rng).bloch == pytest.approx((0.0, 0.0, 1.0))


@pytest.mark.parametrize("strategy", [RANDOM_EIGENSTATE, DOMINANT_EIGENSTATE])
def test_purify_degenerate_tiebreak_is_uniform(strategy):
    rng = derive_stream(211, 0)
    draws = 2 * 10**4
    total = np.zeros(3)
    for _ in range(draws):
        state = purify_estimate(FULLY_MIXED, strategy, rng)
        assert purity(state) == pytest.approx(1.0, abs=5e-16)
        total += state.bloch
    bound = 5.0 * (1.0 / math.sqrt(3.0)) / math.sqrt(draws)
    assert np.all(np.abs(total / draws) < bound)


def test_purify_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        purify_estimate(FULLY_MIXED, "most-likely", derive_stream(0, 0))


def test_purification_is_unbiased_in_fidelity():
    # E[fidelity(purified, true)] over the eigenstate draw equals
    # fidelity(mixed, true) exactly; check the Monte Carlo realization
    mixed = DensityMatrix((0.2, -0.3, 0.4))
    true_state = random_pure_state(derive_stream(221, 1))
    rng = derive_stream(221, 0)
    vals = np.array([
        fidelity(purify_estimate(mixed, RANDOM_EIGENSTATE, rng), true_state)
        for _ in range(2 * 10**4)
    ])
    std_err = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - fidelity(mixed, true_state)) <= 5.0 * std_err
