"""Exact 2x2 operator algebra for a single qubit in the Bloch parametrization.

A density matrix is written rho = (1 + r.sigma)/2 with a real polarization
vector |r| <= 1, so the unit trace and Hermiticity are structural and only
positivity (|r| <= 1) needs checking.

Everything here is an immutable value; the sampling helpers are pure given
their random stream.  `_dot` and `_purity` read a component-major (3, ...)
array, such as a block of axes, column by column like one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vec3 = tuple[float, float, float]

# |r| may exceed 1 by at most this much before a state is rejected.
POSITIVITY_SLACK = 1e-12
_MAX_SQUARED_LENGTH = (1.0 + POSITIVITY_SLACK) ** 2

# below this Bloch length the two eigenvalues are treated as degenerate
DEGENERACY_TOL = 1e-14

_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _dot(a, b) -> float:
    """a.b over the leading axis in a fixed order, for a vector or a column-wise (3, ...) batch alike."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a) -> float:
    return math.sqrt(_dot(a, a))


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Qubit state rho = (1 + bloch.sigma)/2."""

    bloch: Vec3

    def __post_init__(self):
        r = tuple(map(float, self.bloch))
        if len(r) != 3 or not (math.isfinite(r[0]) and math.isfinite(r[1]) and math.isfinite(r[2])):
            raise ValueError(f"bloch vector must be a finite 3-vector, got {self.bloch!r}")
        if _dot(r, r) > _MAX_SQUARED_LENGTH:
            raise ValueError(f"bloch vector leaves the unit ball: |r| = {_norm(r)!r}")
        object.__setattr__(self, "bloch", r)

    @classmethod
    def clipped(cls, bloch) -> "DensityMatrix":
        """Build a state, rescaling onto the unit sphere if |r| > 1.

        Policy for constructing operations whose floating-point result may
        overshoot the Bloch ball by rounding.  Converts and checks the
        vector once: a finite length means three finite components, and a
        vector whose squared length overflows is refused, not rescaled.
        """
        x, y, z = map(float, bloch)
        n = math.sqrt(x * x + y * y + z * z)
        if not math.isfinite(n):
            raise ValueError(f"bloch vector must be a finite 3-vector of finite length, got {(x, y, z)!r}")
        if n > 1.0:
            x, y, z = x / n, y / n, z / n
        squared = x * x + y * y + z * z
        if squared > _MAX_SQUARED_LENGTH:
            raise ValueError(f"bloch vector leaves the unit ball: |r| = {math.sqrt(squared)!r}")
        state = object.__new__(cls)
        object.__setattr__(state, "bloch", (x, y, z))
        return state

    def matrix(self) -> np.ndarray:
        """Dense 2x2 complex representation."""
        r = self.bloch
        return 0.5 * (np.eye(2, dtype=complex) + r[0] * _PAULI[0] + r[1] * _PAULI[1] + r[2] * _PAULI[2])


FULLY_MIXED = DensityMatrix((0.0, 0.0, 0.0))


@dataclass(frozen=True)
class MeasurementAxis:
    """Unit spatial direction n; the measured observable is n.sigma."""

    direction: Vec3

    def __post_init__(self):
        n = tuple(float(x) for x in self.direction)
        if len(n) != 3 or not all(math.isfinite(x) for x in n):
            raise ValueError(f"axis must be a finite 3-vector, got {self.direction!r}")
        if abs(_norm(n) - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector, |n| = {_norm(n)!r}")
        object.__setattr__(self, "direction", n)

    def matrix(self) -> np.ndarray:
        """Dense 2x2 complex observable n.sigma."""
        n = self.direction
        return n[0] * _PAULI[0] + n[1] * _PAULI[1] + n[2] * _PAULI[2]


def _purity(r):
    """(1 + |r|^2)/2 of a Bloch vector or of every column of a (3, ...) batch."""
    return 0.5 * (1.0 + _dot(r, r))


def purity(state: DensityMatrix) -> float:
    """tr[rho^2] = (1 + |r|^2)/2, in [1/2, 1]."""
    return _purity(state.bloch)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Bilinear overlap tr[a b] = (1 + r_a.r_b)/2; symmetric in its arguments."""
    return 0.5 * (1.0 + _dot(a.bloch, b.bloch))


def random_pure_state(rng: np.random.Generator) -> DensityMatrix:
    """Pure state with Bloch direction uniform on the unit sphere.

    Three standard normals divided by their length: branch-free and exactly
    isotropic.  A draw of zero length is refused.
    """
    v = rng.standard_normal(3)
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if not (n > 0.0):
        raise ValueError("drew a pure state of zero length")
    return DensityMatrix.clipped((v[0] / n, v[1] / n, v[2] / n))

