"""Gaussian unsharp measurement of a polarization component.

An outcome s of the observable n.sigma is smeared around the sharp
eigenvalues +-1 by a Gaussian of standard deviation `precision`:

    effect(s) = g(s - 1) P_plus + g(s + 1) P_minus,
    g(x) = exp(-x^2 / (2 precision^2)) / sqrt(2 pi precision^2),

where P_plus/P_minus project on the +-1 eigenstates of n.sigma.  The
effects integrate to the identity over s, so they form a valid positive
operator-valued measure; `completeness_defect` checks that numerically
with one fixed trapezoid rule, the same for every axis.  Large precision
means a weak (barely invasive) measurement, small precision approaches the
projective limit.

Weights are kept in log form throughout: for |s| much larger than the
precision both weights underflow in linear space while their ratio, which
is all the state update needs, stays perfectly conditioned.  The update
`posterior_batch` takes a component-major (3, B) Bloch batch, the layout of
every Bloch-vector batch in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import DEGENERACY_TOL, DensityMatrix, _dot, _norm, random_pure_state

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
        object.__setattr__(self, "precision", p)


def log_weights(outcomes: np.ndarray, precision: float) -> tuple[np.ndarray, np.ndarray]:
    """log g(s - 1), log g(s + 1) of an array of outcomes.

    An infinite outcome gives -inf in both, which `posterior_batch` refuses.
    """
    log_norm = -0.5 * math.log(2.0 * math.pi * precision * precision)
    two_var = 2.0 * precision * precision
    below, above = outcomes - 1.0, outcomes + 1.0
    return log_norm - (below * below) / two_var, log_norm - (above * above) / two_var


# completeness_defect's trapezoid rule: this many nodes over
# [-(1 + padding precision), +(1 + padding precision)]
_QUADRATURE_PADDING = 10.0
_QUADRATURE_NODES = 10001


def completeness_defect(settings: MeasurementSettings) -> float:
    """Spectral-norm deviation of the quadrature of all effects from identity.

    The exact integral is the identity, so any defect is purely a quadrature
    artifact of the fixed trapezoid rule above.
    """
    w = settings.precision
    half = 1.0 + _QUADRATURE_PADDING * w
    grid = np.linspace(-half, half, _QUADRATURE_NODES)
    dens_plus = np.exp(-((grid - 1.0) ** 2) / (2.0 * w * w)) / math.sqrt(2.0 * math.pi * w * w)
    dens_minus = np.exp(-((grid + 1.0) ** 2) / (2.0 * w * w)) / math.sqrt(2.0 * math.pi * w * w)
    total_plus = float(np.trapezoid(dens_plus, grid))
    total_minus = float(np.trapezoid(dens_minus, grid))
    # integral(effect) = total_plus P_plus + total_minus P_minus for every
    # axis, so the deviation from identity has eigenvalues
    # (total_plus - 1, total_minus - 1) and no axis is needed
    return max(abs(total_plus - 1.0), abs(total_minus - 1.0))


def _log_or_minus_inf(p: np.ndarray) -> np.ndarray:
    """log p where p > 0 and -inf elsewhere; nonpositive entries never reach log."""
    return np.log(p, out=np.full_like(p, -np.inf), where=p > 0.0)


def posterior_batch(
    r: np.ndarray, axes: np.ndarray, log_plus: np.ndarray, log_minus: np.ndarray
) -> np.ndarray:
    """Conditional states sqrt(effect) rho sqrt(effect) / tr[effect rho], one per column.

    Column b of the (3, B) Bloch batch r meets the effect along unit axis
    axes[:, b] with log weights log_plus[b], log_minus[b].  In the effect's
    eigenbasis the branch populations are reweighted by the Gaussian
    weights while coherences pick up sqrt(g_plus g_minus); all ratios are
    formed in log space so extreme outcomes stay well conditioned.  An
    empty branch counts as -inf, a column of zero or undefined total
    weight raises ValueError before any log-sum is formed, and every column
    is divided by max(|r|, 1), which puts one that rounded outside the ball
    back on the sphere and leaves the others unchanged.
    """
    along = _dot(axes, r)
    branch_plus = log_plus + _log_or_minus_inf(0.5 * (1.0 + along))
    branch_minus = log_minus + _log_or_minus_inf(0.5 * (1.0 - along))
    # the maximum propagates NaN: refuses two empty branches, an infinite or an undefined weight
    if not np.isfinite(np.maximum(branch_plus, branch_minus)).all():
        raise ValueError("degenerate update: both spectral branches have zero weight")
    log_norm = np.logaddexp(branch_plus, branch_minus)
    new_along = np.exp(branch_plus - log_norm) - np.exp(branch_minus - log_norm)
    damp = np.exp(0.5 * (log_plus + log_minus) - log_norm)
    out = new_along * axes + damp * (r - along * axes)
    out /= np.maximum(np.sqrt(_dot(out, out)), 1.0)
    return out


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
