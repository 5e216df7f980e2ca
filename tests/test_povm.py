import math

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st
from oracles import column_dots, posterior_columns

import unsharp_qubit.povm as povm
import unsharp_qubit.sequential as sequential
from unsharp_qubit.bloch import _dot, _purity
from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    FULLY_MIXED,
    RANDOM_EIGENSTATE,
    DensityMatrix,
    MeasurementAxis,
    MeasurementSettings,
    completeness_defect,
    derive_stream,
    fidelity,
    purify_estimate,
    purity,
    random_pure_state,
    replay_hypothetical,
    run_sequence,
)

# unit-width Gaussian density at 0, 1, 2 (frozen from scipy.stats.norm.pdf)
G0 = 0.3989422804014327
G1 = 0.24197072451914337
G2 = 0.05399096651318806

Z = np.array([0.0, 0.0, 1.0])
Z_AXIS = MeasurementAxis((0.0, 0.0, 1.0))


def settings(width):
    return MeasurementSettings(width)


def _columns(vector, size):
    """A (3, size) batch whose every column is `vector`."""
    return np.repeat(np.asarray(vector, dtype=float)[:, None], size, axis=1)


def _posterior(r, axes, width, outcomes):
    """`povm._posterior` on every column of the (3, B) batches r and axes, at x = outcome / width^2, as a (3, B) batch."""
    x = np.asarray(outcomes, dtype=float) / (width * width)
    columns = zip(r.T.tolist(), axes.T.tolist(), x.tolist())
    return np.array([povm._posterior(state, axis, xb) for state, axis, xb in columns]).T


def test_settings_refuse_nonpositive_precision():
    with pytest.raises(ValueError):
        MeasurementSettings(0.0)
    with pytest.raises(ValueError):
        MeasurementSettings(-2.0)


@pytest.mark.parametrize("precision", [1e-200, 1e-160, 1e155, 1e200])
def test_settings_refuse_a_precision_whose_square_is_not_normal(precision):
    # every update divides by precision^2: zero (1e-200), subnormal (1e-160) or infinite (1e155, 1e200)
    with pytest.raises(ValueError, match="precision\\^2 must be a normal double"):
        MeasurementSettings(precision)


def test_settings_keep_a_precision_whose_square_is_normal():
    for precision in (1e-150, 1e150):
        assert MeasurementSettings(precision).precision == precision


# The update reads the weights only through their ratio g(s - 1)/g(s + 1) =
# e^{2x}, x = s / precision^2: from the mixed state it gives the Bloch
# component (g+ - g-)/(g+ + g-) = tanh x along the axis.


def test_effect_weights_symmetric_outcome():
    # g(-1) = g(1) = G1 at s = 0: equal weights, so the mixed state stays mixed
    assert _posterior(np.zeros((3, 1)), _columns(Z, 1), 1.0, [0.0])[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert (G1 - G1) / (G1 + G1) == 0.0


def test_effect_weights_shifted_outcome():
    # g(0) = G0 and g(2) = G2 at s = 1: the ratio G0 / G2 = e^2
    assert math.log(G0 / G2) == pytest.approx(2.0, rel=1e-12)
    updated = _posterior(np.zeros((3, 1)), _columns(Z, 1), 1.0, [1.0])
    assert updated[:, 0].tolist() == pytest.approx([0.0, 0.0, (G0 - G2) / (G0 + G2)], rel=1e-12)


def test_effect_rejects_bad_outcome():
    # an infinite or undefined outcome in a record is refused, and so is an undefined x in the update
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="infinite or undefined outcome"):
            replay_hypothetical(((Z_AXIS, 0.5), (Z_AXIS, bad)), settings(1.0))
    with pytest.raises(ValueError, match="x is undefined"):
        povm._posterior((0.0, 0.0, 0.0), Z_AXIS.direction, math.nan)


def test_log_weights_survive_extreme_outcomes():
    # at s = 3 and precision 0.05 the weight g(s + 1) underflows while
    # x = 1200 stays finite, and the update takes the state onto the axis
    assert math.exp(-(4.0**2) / (2.0 * 0.05**2)) == 0.0
    out = _posterior(np.array([[0.3], [-0.2], [0.5]]), _columns(Z, 1), 0.05, [3.0])
    assert out[:, 0].tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("x", [711.0, -711.0, 800.0, 1e5, -1e300])
def test_update_takes_any_finite_x_without_overflow(x):
    # cosh overflows past |x| = 710; the update's sech = 2 e^{-|x|}/(1 + e^{-2|x|})
    # cannot, and pytest turns any warning into an error
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        out = povm._posterior((0.3, -0.2, 0.5), Z_AXIS.direction, x)
    # across the axis only sech x / (1 + t along) <= 2 e^{-711} / 1.5 of the state is left
    assert out[2] == math.copysign(1.0, x) and abs(out[0]) <= 1e-308 and abs(out[1]) <= 1e-308


# 1e-4 and 1e-5 once went unresolved by a fixed grid over +-(1 + 10 width), and
# 1e153 and 1.3e154 overflowed its squares; 1e-100 would collapse a grid in s.
# The scaled rule's defect does not depend on the width, so these extreme
# widths guard against overflow and NaN
@pytest.mark.parametrize("width", [1.0, 10.0, 0.1, 1e-4, 1e-5, 1e-100, 1e153, 1.3e154])
def test_completeness_defect(width):
    defect = completeness_defect(settings(width))
    assert defect < 1e-9


def test_outcome_density_normalized():
    # tr[effect(s) rho] = p_plus g(s - 1) + p_minus g(s + 1) for the state
    # (0.3, -0.2, 0.5) along z, which is (g(s - 1) + g(s + 1))(1 + t along)/2
    # with t = tanh(s / width^2), the form the discrete oracle integrates
    width, along = 1.5, 0.5
    grid = np.linspace(-1 - 12 * width, 1 + 12 * width, 8001)
    gauss = lambda x: np.exp(-x * x / (2.0 * width * width)) / math.sqrt(2.0 * math.pi * width * width)  # noqa: E731
    g_plus, g_minus = gauss(grid - 1.0), gauss(grid + 1.0)
    dens = 0.5 * (1.0 + along) * g_plus + 0.5 * (1.0 - along) * g_minus
    tanh_form = 0.5 * (g_plus + g_minus) * (1.0 + np.tanh(grid / (width * width)) * along)
    np.testing.assert_allclose(tanh_form, dens, rtol=1e-12, atol=0.0)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("precision", [math.nan, math.inf, 0.0, -2.0])
def test_outcome_distribution_refuses_bad_precision(precision):
    # outcomes are drawn with the width of a MeasurementSettings, which refuses it
    with pytest.raises(ValueError):
        MeasurementSettings(precision)


def _outcomes(state, axis, width, rng, size):
    """Outcomes the samplers' rule `sequential._outcomes` draws measuring `size` copies of `state` once along `axis`.

    rng draws all the uniforms, then all the normals, which `sequential._scale_block` scales.
    """
    uniforms, noise = rng.random(size), rng.standard_normal(size)
    sequential._scale_block(uniforms, noise, width)
    return sequential._outcomes(_dot(axis, state), uniforms, noise)


def test_outcome_moments_single_branch():
    draws = _outcomes(Z, Z, 1.0, derive_stream(231, 0), 10**6)
    assert abs(draws.mean() - 1.0) < 3.0 * 1.0 / 1e3


def test_outcome_moments_mixed():
    draws = _outcomes(np.zeros(3), Z, 1.0, derive_stream(231, 1), 10**6)
    assert abs(draws.mean()) < 5.0 * math.sqrt(2.0 / 10**6)
    assert abs(draws.var(ddof=1) - 2.0) < 5.0 * 2.0 * math.sqrt(3.0 / 10**6)


def test_outcome_mean_tracks_polarization():
    state = np.array([0.3, 0.1, 0.4])
    axis = np.array([1.0, 2.0, -0.5])
    axis /= np.sqrt(_dot(axis, axis))
    draws = _outcomes(state, axis, 1.0, derive_stream(231, 2), 10**6)
    mean = _dot(axis, state)  # p_plus - p_minus
    variance = 1.0 + 1.0 - mean * mean  # precision^2 + 1 - mean^2
    assert abs(draws.mean() - mean) < 5.0 * math.sqrt(variance / 10**6)


def test_posterior_identity_effect_leaves_state():
    state = np.array([[0.3], [-0.2], [0.5]])
    updated = _posterior(state, _columns(Z, 1), 1.0, [0.0])
    assert updated[:, 0].tolist() == pytest.approx(state[:, 0].tolist(), abs=1e-15)


def test_posterior_from_mixed_state():
    updated = _posterior(np.zeros((3, 1)), _columns(Z, 1), 1.0, [1.0])
    assert updated[:, 0].tolist() == pytest.approx([0.0, 0.0, math.tanh(1.0)], abs=1e-12)


def test_posterior_eigenstate_fixed_point():
    updated = _posterior(_columns(Z, 4), _columns(Z, 4), 1.0, [-3.0, 0.2, 1.0, 7.5])
    assert updated.T.tolist() == [[0.0, 0.0, 1.0]] * 4


def test_posterior_preserves_purity():
    rng = derive_stream(15, 0)
    draws = [(random_pure_state(rng).bloch, random_pure_state(rng).bloch, rng.normal(0, 2)) for _ in range(300)]
    states, axes, outcomes = (np.array(column) for column in zip(*draws))
    updated = _posterior(states.T, axes.T, 0.7, outcomes)
    assert np.all(np.abs(_purity(updated) - 1.0) <= 1e-12)


def test_posterior_degenerate_update_error():
    # the state's only branch meets an outcome so far on the other side that
    # tanh x rounds to -1: 1 + t along = 0, for the vector update and the length chain
    with pytest.raises(ValueError, match="sure branch meets a saturated outcome"):
        povm._posterior(Z_AXIS.direction, Z_AXIS.direction, -40.0)
    # the length chain's state: rho = 1 at cosine c = -1, so sines = 4 (1 - c^2) = 0
    with pytest.raises(ValueError, match="sure branch meets a saturated outcome"):
        sequential._length_posterior(np.ones(1), -np.ones(1), np.zeros(1), np.array([40.0]))


class _ZeroStream:
    """Stand-in random stream whose normals are all exactly zero."""

    def standard_normal(self, size):
        return np.zeros(size)

    def random(self, size):
        return np.full(size, 0.5)


def test_posterior_keeps_the_scalar_checks():
    z = Z_AXIS.direction
    outside = (0.6, 0.0, 0.8 + 1e-9)
    # no floating-point warning either on the way to a refusal
    with np.errstate(all="raise"):
        # a state with an empty branch stays on the axis, and one outside the
        # ball is rescaled onto it
        assert povm._posterior(z, z, 0.5) == (0.0, 0.0, 1.0)
        out = povm._posterior(outside, z, 0.5)
        assert math.sqrt(_dot(out, out)) <= 1.0
        # an update of zero total weight or undefined x is refused
        for r, x in ((z, -40.0), (outside, math.nan)):
            with pytest.raises(ValueError):
                povm._posterior(r, z, x)
        # and so is a record holding an infinite outcome
        with pytest.raises(ValueError):
            replay_hypothetical(((Z_AXIS, 0.5), (Z_AXIS, math.inf)), settings(1.0))


@hypothesis_settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    size=st.sampled_from([1, 2, 7, 64]),
    width=st.sampled_from([0.05, 0.3, 1.0, 20.0, 1000.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_posterior_is_the_vector_oracle_column_by_column(size, width, seed):
    # the scalar step gives the bits, signed zeros included, of the oracle's
    # (3, B) update in every column, or both refuse
    rng = derive_stream(seed, 0)
    columns = rng.standard_normal((3, size))
    columns /= np.sqrt(_dot(columns, columns))
    # lengths a few ulps either side of 1, where the repair onto the ball is
    # decided; every third column from index 2 on is mixed
    columns *= 1.0 + rng.integers(-4, 5, size) * 2.0**-52
    columns[:, 2::3] *= rng.uniform(0.0, 1.0, len(range(2, size, 3)))
    draws = [(rng.standard_normal(3), rng.normal(0.0, 1.0 + width)) for _ in range(size)]
    axes = np.array([axis for axis, _ in draws]).T
    axes /= np.sqrt(_dot(axes, axes))
    x = np.array([outcome for _, outcome in draws]) / (width * width)
    try:
        expected = posterior_columns(columns, axes, column_dots(axes, columns), x)
    except ValueError:
        with pytest.raises(ValueError):
            _posterior(columns, axes, 1.0, x)
        return
    assert _posterior(columns, axes, 1.0, x).tobytes() == expected.tobytes()


def test_zero_length_axis_is_refused():
    with pytest.raises(ValueError, match="axis of zero length"):
        run_sequence(FULLY_MIXED, 2, settings(1.0), _ZeroStream())


@pytest.mark.parametrize("width", [1.0, 3.0])
def test_expected_update_damps_coherences(width):
    # quadrature of posterior * density over a grid of outcomes, in one
    # update: diagonal in the measurement basis is preserved, transverse
    # components shrink by exp(-1/(2 width^2))
    state = np.array([0.3, -0.2, 0.5])
    half = 1.0 + 12.0 * width
    grid = np.linspace(-half, half, 20001)
    # tr[effect(s) rho] = p_plus g(s - 1) + p_minus g(s + 1), along z
    gauss = lambda x: np.exp(-x * x / (2.0 * width * width)) / math.sqrt(2.0 * math.pi * width * width)  # noqa: E731
    density = 0.5 * (1.0 + state[2]) * gauss(grid - 1.0) + 0.5 * (1.0 - state[2]) * gauss(grid + 1.0)
    posterior = _posterior(_columns(state, grid.size), _columns(Z, grid.size), width, grid)
    mean_state = (posterior * density).sum(axis=1) * (grid[1] - grid[0])
    damp = math.exp(-1.0 / (2.0 * width * width))
    expected = (damp * state[0], damp * state[1], state[2])
    assert mean_state.tolist() == pytest.approx(expected, abs=1e-6)


# the one-measurement estimate, effect / tr[effect], is the posterior of
# the fully mixed state: tanh(s / width^2) along the axis


def test_single_estimate_values():
    est = _posterior(np.zeros((3, 2)), _columns(Z, 2), 1.0, [0.0, 1.0])
    assert est[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert est[:, 1].tolist() == pytest.approx([0.0, 0.0, math.tanh(1.0)], abs=1e-12)


def test_single_estimate_sharp_limit():
    est = _posterior(np.zeros((3, 1)), _columns(Z, 1), 0.01, [1.0])
    assert est[:, 0].tolist() == [0.0, 0.0, 1.0]


def test_single_estimate_equals_mixed_posterior():
    rng = derive_stream(16, 0)
    width = 1.3
    draws = [(random_pure_state(rng).bloch, rng.normal(0, 3)) for _ in range(200)]
    axes = np.array([axis for axis, _ in draws]).T
    outcomes = np.array([outcome for _, outcome in draws])
    post = _posterior(np.zeros((3, 200)), axes, width, outcomes)
    np.testing.assert_allclose(post, np.tanh(outcomes / (width * width)) * axes, rtol=0.0, atol=1e-12)


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
