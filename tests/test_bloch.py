import math

import numpy as np
import pytest

from unsharp_qubit import (
    FULLY_MIXED,
    DensityMatrix,
    MeasurementAxis,
    derive_stream,
    fidelity,
    purity,
    random_pure_state,
    spectral_decompose,
)
from unsharp_qubit import sequential
from unsharp_qubit.bloch import _clipped_batch, _dot, _pure_batch

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


def test_spectral_diagonal_case():
    decomp = spectral_decompose(DensityMatrix((0.0, 0.0, 0.6)))
    assert decomp.eigenvalue_plus == pytest.approx(0.8, abs=1e-15)
    assert decomp.eigenvalue_minus == pytest.approx(0.2, abs=1e-15)
    assert decomp.projector_plus.bloch == pytest.approx((0.0, 0.0, 1.0))
    assert decomp.projector_minus.bloch == pytest.approx((0.0, 0.0, -1.0))
    assert not decomp.degenerate


def test_spectral_axis_relabeling():
    decomp = spectral_decompose(DensityMatrix((0.6, 0.0, 0.0)))
    assert decomp.eigenvalue_plus == pytest.approx(0.8, abs=1e-15)
    assert decomp.projector_plus.bloch == pytest.approx((1.0, 0.0, 0.0))


def test_spectral_degenerate_flag():
    decomp = spectral_decompose(FULLY_MIXED)
    assert decomp.degenerate
    assert decomp.eigenvalue_plus == decomp.eigenvalue_minus == 0.5


def test_spectral_reconstruction_and_orthogonality():
    rng = derive_stream(12, 0)
    for _ in range(100):
        state = DensityMatrix(tuple(0.55 * rng.uniform(-1, 1, 3)))
        decomp = spectral_decompose(state)
        assert decomp.eigenvalue_plus >= decomp.eigenvalue_minus
        assert decomp.eigenvalue_plus + decomp.eigenvalue_minus == pytest.approx(1.0, abs=1e-14)
        rebuilt = [
            decomp.eigenvalue_plus * decomp.projector_plus.bloch[i]
            + decomp.eigenvalue_minus * decomp.projector_minus.bloch[i]
            for i in range(3)
        ]
        assert rebuilt == pytest.approx(state.bloch, abs=1e-12)
        assert fidelity(decomp.projector_plus, decomp.projector_minus) == pytest.approx(0.0, abs=1e-10)


def test_random_pure_state_is_pure():
    rng = derive_stream(13, 0)
    for _ in range(200):
        # purity 1 by construction, up to one final rounding
        assert purity(random_pure_state(rng)) == pytest.approx(1.0, abs=5e-16)


def test_random_pure_state_isotropic():
    rng = derive_stream(101, 0)
    total = np.zeros(3)
    for _ in range(SPHERE_DRAWS):
        total += random_pure_state(rng).bloch
    assert np.all(np.abs(total / SPHERE_DRAWS) < SPHERE_MEAN_BOUND)


def test_pure_rows_equal_random_pure_state_bitwise():
    # the batched starts of the direct estimator, on the normals each stream draws first
    normals = np.array([derive_stream(81, k).standard_normal(3) for k in range(2000)]).T
    divided = normals / np.sqrt(_dot(normals, normals))
    assert (np.sqrt(_dot(divided, divided)) > 1.0).sum() > 0  # columns that take `clipped`'s rescale
    expected = [random_pure_state(derive_stream(81, k)).bloch for k in range(2000)]
    assert _pure_batch(normals).T.tolist() == [list(row) for row in expected]


def test_clipped_equals_checked_constructor_bitwise():
    rng = derive_stream(73, 0)
    columns = rng.standard_normal((2000, 3)).T
    # lengths straddling 1 by a few ulps, where the rescale is decided
    columns /= np.sqrt(_dot(columns, columns))
    columns[:, :1000] *= 1.0 + rng.integers(-4, 5, 1000) * 2.0**-52
    columns[:, 1000:1500] *= rng.uniform(0.0, 1.0, 500)
    rows = columns.T.tolist() + [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 3.0, 4.0]]
    batch = _clipped_batch(np.array(rows).T).T.tolist()
    rescaled = 0
    for row, clipped_column in zip(rows, batch):
        n = math.sqrt(row[0] * row[0] + row[1] * row[1] + row[2] * row[2])
        expected = DensityMatrix(tuple(v / n for v in row) if n > 1.0 else tuple(row))
        state = DensityMatrix.clipped(np.array(row))
        assert state == expected
        assert all(type(v) is float for v in state.bloch)
        assert state.bloch == tuple(clipped_column)
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
    if len(bad) == 3:
        # in a batch column too; numpy flags the overflowing square before the refusal
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            _clipped_batch(np.array([[0.0, 0.0, 1.0], bad, [0.6, 0.0, 0.8]]).T)


def test_distinct_streams_give_distinct_states():
    a = random_pure_state(derive_stream(7, 0))
    b = random_pure_state(derive_stream(7, 1))
    assert a != b


def test_sampled_axes_unit_and_isotropic():
    # the measurement axes of one group of 100 trials over SPHERE_DRAWS / 100 steps
    width = 100
    streams = [(derive_stream(101, 1), width)]
    steps = sequential._sampled_steps(np.zeros((3, width)), streams, SPHERE_DRAWS // width, 1.0)
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
