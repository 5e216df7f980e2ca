import math

import numpy as np
import pytest
from oracles import column_dots, vector_steps

from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    FULLY_MIXED,
    RANDOM_EIGENSTATE,
    STRATEGIES,
    DensityMatrix,
    MeasurementAxis,
    derive_stream,
    fidelity,
    purify_estimate,
    purity,
    random_pure_state,
)
from unsharp_qubit import montecarlo
from unsharp_qubit.bloch import DEGENERACY_TOL, _dot

SPHERE_DRAWS = 10**5
# three-sigma bound on one Cartesian mean: component variance is 1/3
SPHERE_MEAN_BOUND = 3.0 * (1.0 / math.sqrt(3.0)) / math.sqrt(SPHERE_DRAWS)


@pytest.mark.parametrize(
    "bloch,expected",
    [((0.0, 0.0, 0.0), 0.5), ((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, 0.6), 0.68)],
)
def test_purity_values(bloch, expected):
    assert purity(DensityMatrix(bloch)) == pytest.approx(expected, abs=1e-15)


def test_fidelity_values():
    plus_z = DensityMatrix((0.0, 0.0, 1.0))
    minus_z = DensityMatrix((0.0, 0.0, -1.0))
    assert fidelity(plus_z, plus_z) == 1.0
    assert fidelity(plus_z, FULLY_MIXED) == 0.5
    assert fidelity(plus_z, minus_z) == 0.0


def test_fidelity_symmetric():
    rng = derive_stream(11, 0)
    for _ in range(200):
        a = DensityMatrix(tuple(0.5 * rng.uniform(-1, 1, 3)))
        b = DensityMatrix(tuple(0.5 * rng.uniform(-1, 1, 3)))
        assert fidelity(a, b) == fidelity(b, a)


def test_density_matrix_rejects_outside_ball():
    with pytest.raises(ValueError):
        DensityMatrix((0.0, 0.0, 1.1))
    DensityMatrix((0.0, 0.0, 1.0 + 5e-13))  # inside the slack


def test_clipped_rescales_onto_sphere():
    state = DensityMatrix.clipped((0.0, 0.0, 1.0 + 1e-9))
    assert state.bloch[2] == 1.0


class _Uniform:
    """Stand-in random stream whose uniforms are all `value`."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


# the dominant strategy draws nothing, so a stream with no methods serves it
NO_STREAM = object()


def test_spectral_diagonal_case():
    # eigenvalues (1 +- 0.6)/2 = 0.8, 0.2: the random strategy keeps +z for a uniform below 0.8
    state = DensityMatrix((0.0, 0.0, 0.6))
    below = _Uniform(math.nextafter(0.8, 0.0))
    assert purify_estimate(state, RANDOM_EIGENSTATE, below).bloch == (0.0, 0.0, 1.0)
    assert purify_estimate(state, RANDOM_EIGENSTATE, _Uniform(0.8)).bloch == (0.0, 0.0, -1.0)
    assert purify_estimate(state, DOMINANT_EIGENSTATE, NO_STREAM).bloch == (0.0, 0.0, 1.0)


def test_spectral_axis_relabeling():
    state = DensityMatrix((0.6, 0.0, 0.0))
    assert purify_estimate(state, DOMINANT_EIGENSTATE, NO_STREAM).bloch == pytest.approx((1.0, 0.0, 0.0))
    assert purify_estimate(state, RANDOM_EIGENSTATE, _Uniform(0.8)).bloch == pytest.approx((-1.0, 0.0, 0.0))


def test_spectral_degenerate_flag():
    # below DEGENERACY_TOL both strategies take random_pure_state's draw, and no uniform
    for bloch in ((0.0, 0.0, 0.0), (0.0, 0.5 * DEGENERACY_TOL, 0.0)):
        for strategy in STRATEGIES:
            rng = derive_stream(14, 0)
            reference = derive_stream(14, 0)
            assert purify_estimate(DensityMatrix(bloch), strategy, rng) == random_pure_state(reference)
            assert rng.random() == reference.random()


def test_spectral_reconstruction_and_orthogonality():
    # the dominant eigenstate, and the minor one that a uniform just below 1 picks
    rng = derive_stream(12, 0)
    last = _Uniform(math.nextafter(1.0, 0.0))
    for _ in range(100):
        state = DensityMatrix(tuple(0.55 * rng.uniform(-1, 1, 3)))
        plus = purify_estimate(state, DOMINANT_EIGENSTATE, NO_STREAM)
        minus = purify_estimate(state, RANDOM_EIGENSTATE, last)
        length = math.sqrt(_dot(state.bloch, state.bloch))
        rebuilt = [0.5 * (1.0 + length) * p + 0.5 * (1.0 - length) * m for p, m in zip(plus.bloch, minus.bloch)]
        assert rebuilt == pytest.approx(state.bloch, abs=1e-12)
        assert purity(plus) == pytest.approx(1.0, abs=5e-16)
        assert fidelity(plus, minus) == pytest.approx(0.0, abs=1e-10)


def test_random_pure_state_is_pure():
    rng = derive_stream(13, 0)
    for _ in range(200):
        # purity 1 by construction, up to one final rounding
        assert purity(random_pure_state(rng)) == pytest.approx(1.0, abs=5e-16)


class _ZeroNormals:
    """Stand-in random stream whose normals are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_random_pure_state_refuses_a_zero_draw():
    with pytest.raises(ValueError, match="zero length"):
        random_pure_state(_ZeroNormals())


def test_random_pure_state_isotropic():
    rng = derive_stream(101, 0)
    total = np.zeros(3)
    for _ in range(SPHERE_DRAWS):
        total += random_pure_state(rng).bloch
    assert np.all(np.abs(total / SPHERE_DRAWS) < SPHERE_MEAN_BOUND)


def test_clipped_equals_checked_constructor_bitwise():
    rng = derive_stream(73, 0)
    columns = rng.standard_normal((2000, 3)).T
    # lengths straddling 1 by a few ulps, where the rescale is decided
    columns /= np.sqrt(_dot(columns, columns))
    columns[:, :1000] *= 1.0 + rng.integers(-4, 5, 1000) * 2.0**-52
    columns[:, 1000:1500] *= rng.uniform(0.0, 1.0, 500)
    rows = columns.T.tolist() + [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 3.0, 4.0]]
    rescaled = 0
    for row in rows:
        n = math.sqrt(row[0] * row[0] + row[1] * row[1] + row[2] * row[2])
        expected = DensityMatrix(tuple(v / n for v in row) if n > 1.0 else tuple(row))
        state = DensityMatrix.clipped(np.array(row))
        assert state == expected
        assert all(type(v) is float for v in state.bloch)
        rescaled += state.bloch != tuple(row)
    assert rescaled > 0


# non-finite components, a finite vector whose squared length overflows, a wrong length
@pytest.mark.parametrize(
    "bad",
    [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf), (1e200, 0.0, 0.0), (0.0, 1.0)],
)
def test_clipped_refuses_what_it_cannot_rescale(bad):
    with pytest.raises(ValueError):
        DensityMatrix.clipped(bad)


def test_distinct_streams_give_distinct_states():
    a = random_pure_state(derive_stream(7, 0))
    b = random_pure_state(derive_stream(7, 1))
    assert a != b


def test_sampled_axes_unit_and_isotropic():
    # the measurement axes of one group of 100 trials over SPHERE_DRAWS / 100
    # steps, drawn and normalized as `run_sequence` draws them (the record
    # tests in test_sequential check it against this vector reference)
    width = 100
    streams = [(derive_stream(101, 1), width)]
    steps = vector_steps(np.zeros((3, width)), streams, SPHERE_DRAWS // width, 1.0, montecarlo._BLOCK_STEPS)
    n_z = 0.0
    for _, axes, _ in steps:
        assert np.all(np.abs(np.sqrt(_dot(axes, axes)) - 1.0) <= 1e-12)
        n_z += axes[2].sum()
    assert abs(n_z / SPHERE_DRAWS) < SPHERE_MEAN_BOUND


def test_axis_validation():
    for bad in ((0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 5.0), (1.0, 0.0), (math.nan, 0.0, 1.0)):
        with pytest.raises(ValueError):
            MeasurementAxis(bad)
    assert MeasurementAxis([0.6, 0, 0.8]).direction == (0.6, 0.0, 0.8)


@pytest.mark.parametrize("width", [1, 2, 7, 64, 1000])
def test_dots_add_the_rows_in_dot_order(width):
    # the vector oracle's sum over the leading axis of a (3, B) batch, or of a
    # (3, m, B) view of a step-major block, gives `_dot`'s bits, signed zeros
    # included: the order the scalar posterior step adds a.r in
    rng = derive_stream(19, width)
    a, b = rng.standard_normal((3, width)), rng.standard_normal((3, width))
    a[:, ::5] *= 1e-300  # products that underflow
    assert column_dots(a, b).tobytes() == _dot(a, b).tobytes()
    block = rng.standard_normal((5, 3, width)).transpose(1, 0, 2)
    assert column_dots(block, block).tobytes() == _dot(block, block).tobytes()
