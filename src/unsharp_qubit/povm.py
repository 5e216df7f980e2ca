"""Gaussian unsharp measurement of a polarization component.

An outcome s of the observable n.sigma is smeared around the sharp
eigenvalues +-1 by a Gaussian of standard deviation `precision`:

    effect(s) = g(s - 1) P_plus + g(s + 1) P_minus,
    g(x) = exp(-x^2 / (2 precision^2)) / sqrt(2 pi precision^2),

where P_plus/P_minus project on the +-1 eigenstates of n.sigma.  The
effects integrate to the identity over s, so they form a valid positive
operator-valued measure; `completeness_defect` checks that numerically
with one trapezoid rule per Gaussian, scaled to its width, the same for
every axis.
Large precision means a weak (barely invasive) measurement, small
precision approaches the projective limit.

The update `_posterior` needs only the ratio g(s - 1)/g(s + 1) = e^{2x}
with x = s/precision^2, which it takes through tanh x and sech x in a
closed form that no outcome can overflow.  It steps one Bloch vector as
three Python floats.  The samplers' (B,) chains of invariants check their
normalization through `_update_norm`, which refuses what it refuses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bloch import DEGENERACY_TOL, DensityMatrix, Vec3, _norm, random_pure_state

RANDOM_EIGENSTATE = "random-eigenstate"
DOMINANT_EIGENSTATE = "dominant-eigenstate"
STRATEGIES = (RANDOM_EIGENSTATE, DOMINANT_EIGENSTATE)

@dataclass(frozen=True)
class MeasurementSettings:
    """Width of the Gaussian smearing, in units of the +-1 eigenvalues."""

    precision: float

    def __post_init__(self):
        p = float(self.precision)
        if not math.isfinite(p) or p <= 0.0:
            raise ValueError(f"precision must be a positive real, got {self.precision!r}")
        # every update divides by precision^2, so it must be a normal double
        if not sys.float_info.min <= p * p < math.inf:
            raise ValueError(f"precision^2 must be a normal double, got {self.precision!r} squared = {p * p!r}")
        object.__setattr__(self, "precision", p)


# completeness_defect's trapezoid rule: this many nodes over each Gaussian's
# centre +-1 plus and minus padding precisions
_QUADRATURE_PADDING = 10.0
_QUADRATURE_NODES = 10001


def completeness_defect(settings: MeasurementSettings) -> float:
    """Spectral-norm deviation of the quadrature of all effects from identity.

    The exact integral is the identity, so any defect is purely a quadrature
    artifact of the fixed trapezoid rule above.  It runs in the scaled
    variable u = (s -+ 1)/precision, so it resolves each Gaussian, and no
    square overflows, at every precision `MeasurementSettings` accepts.
    The precision cancels from the scaled rule up to rounding, so the
    defect is the same at every precision: what varies with the settings
    is only whether the arithmetic stays finite.
    """
    w = settings.precision
    u = np.linspace(-_QUADRATURE_PADDING, _QUADRATURE_PADDING, _QUADRATURE_NODES)
    step = 2.0 * _QUADRATURE_PADDING / (_QUADRATURE_NODES - 1)
    # g(s -+ 1) at s = +-1 + w u, on nodes w step apart in s
    density = np.exp(-0.5 * u * u) / (math.sqrt(2.0 * math.pi) * w)
    total = float(np.trapezoid(density, dx=w * step))
    # integral(effect) = total (P_plus + P_minus) for every axis, so the
    # deviation from identity is total - 1 and no axis is needed
    return abs(total - 1.0)


def _update_norm(t: np.ndarray, along: np.ndarray) -> np.ndarray:
    """1 + t along, the normalization of an update with t = tanh x; a value <= 0 or undefined is refused."""
    norm = t * along
    norm += 1.0
    if not norm.min() > 0.0:
        raise ValueError("degenerate update: a sure branch meets a saturated outcome, or x is undefined")
    return norm


def _posterior(r: Vec3, a: Vec3, x: float) -> Vec3:
    """The conditional state sqrt(effect) rho sqrt(effect) / tr[effect rho] of the Bloch vector r.

    rho meets the effect along the unit axis a at an outcome s with
    x = s / precision^2, half the log of g(s - 1)/g(s + 1).  With
    t = tanh x and sech x = 2 e^{-|x|}/(1 + e^{-2|x|}), which cannot
    overflow, the component along = a.r becomes (t + along)/(1 + t along)
    and the one across the axis is scaled by sech x / (1 + t along).
    1 + t along <= 0 (a sure branch meeting a saturated outcome) or an
    undefined x raises ValueError.  The result is divided by its length
    when that exceeds 1, which puts a state that rounded outside the ball
    back on the sphere.  Three Python floats step through numpy's tanh and
    exp, which give the bits they give on arrays.  Unchecked: a is a unit
    vector, and x is finite (a sampled outcome is; a replay refuses an
    infinite one).
    """
    along = a[0] * r[0] + a[1] * r[1] + a[2] * r[2]
    t = float(np.tanh(x))
    e = float(np.exp(-abs(x)))
    norm = t * along + 1.0
    if not norm > 0.0:
        raise ValueError("degenerate update: a sure branch meets a saturated outcome, or x is undefined")
    damp = (e + e) / ((e * e + 1.0) * norm)
    t = (t + along) / norm
    x0 = (r[0] - along * a[0]) * damp + t * a[0]
    x1 = (r[1] - along * a[1]) * damp + t * a[1]
    x2 = (r[2] - along * a[2]) * damp + t * a[2]
    length = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    if length > 1.0:
        return (x0 / length, x1 / length, x2 / length)
    return (x0, x1, x2)


def purify_estimate(
    mixed: DensityMatrix, strategy: str, rng: np.random.Generator
) -> DensityMatrix:
    """Replace a mixed estimate by one of its pure eigenstates.

    random-eigenstate picks each eigenprojector with probability equal to
    its eigenvalue (the strategy whose expected fidelity reduces exactly to
    the mixed estimate's by bilinearity); dominant-eigenstate always takes
    the larger one.  An input whose Bloch length is below `DEGENERACY_TOL`
    has its two eigenvalues treated as equal and yields a uniformly random
    pure state under both strategies.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    r = mixed.bloch
    n = _norm(r)
    if n < DEGENERACY_TOL:
        return random_pure_state(rng)
    # the eigenvalues are (1 +- |r|)/2, with eigenstates along +-r/|r|
    u = (r[0] / n, r[1] / n, r[2] / n)
    if strategy == DOMINANT_EIGENSTATE or rng.random() < 0.5 * (1.0 + n):
        return DensityMatrix.clipped(u)
    return DensityMatrix.clipped((-u[0], -u[1], -u[2]))
