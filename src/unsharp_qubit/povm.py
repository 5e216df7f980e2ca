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
every batch in the package; `posterior_update` is its one-column case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import (
    DensityMatrix,
    MeasurementAxis,
    _dot,
    random_pure_state,
    spectral_decompose,
)

RANDOM_EIGENSTATE = "random-eigenstate"
DOMINANT_EIGENSTATE = "dominant-eigenstate"
STRATEGIES = (RANDOM_EIGENSTATE, DOMINANT_EIGENSTATE)

# Constant-rate mapping onto continuous measurement is advertised for
# precisions at least sqrt(96); below that the closed-form reference curves
# stop being meaningful.  Advisory only: small precisions stay valid (and
# are required for the projective-limit checks).
CONTINUUM_PRECISION_FLOOR = math.sqrt(96.0)


class ContinuumAdvisory(UserWarning):
    """Precision is too sharp for the constant-rate continuum mapping."""


@dataclass(frozen=True)
class MeasurementSettings:
    """Width of the Gaussian smearing, in units of the +-1 eigenvalues."""

    precision: float
    continuum_floor: float | None = CONTINUUM_PRECISION_FLOOR

    def __post_init__(self):
        p = float(self.precision)
        if not math.isfinite(p) or p <= 0.0:
            raise ValueError(f"precision must be a positive real, got {self.precision!r}")
        object.__setattr__(self, "precision", p)
        if self.continuum_floor is not None and p < self.continuum_floor:
            warnings.warn(
                f"precision {p:g} is below {self.continuum_floor:g}; the "
                "constant-rate continuum mapping is unreliable this sharp",
                ContinuumAdvisory,
                stacklevel=2,
            )


def _gaussian_logpdf(x, width: float):
    """log g(x) for a float or an array of floats, with the same arithmetic."""
    return -0.5 * math.log(2.0 * math.pi * width * width) - (x * x) / (2.0 * width * width)


def log_weights(outcomes: np.ndarray, precision: float) -> tuple[np.ndarray, np.ndarray]:
    """log g(s - 1), log g(s + 1) of an array of outcomes, bit for bit `make_effect`'s."""
    return _gaussian_logpdf(outcomes - 1.0, precision), _gaussian_logpdf(outcomes + 1.0, precision)


@dataclass(frozen=True)
class GaussianEffect:
    """One measurement effect in spectral form.

    log_weight_plus/minus are log g(outcome -+ 1); the linear weights are
    exposed for convenience but may underflow to 0.0 for extreme outcomes,
    in which case the log form remains the authoritative data.
    """

    axis: MeasurementAxis
    outcome: float
    precision: float
    log_weight_plus: float
    log_weight_minus: float

    @property
    def weight_plus(self) -> float:
        return math.exp(self.log_weight_plus)

    @property
    def weight_minus(self) -> float:
        return math.exp(self.log_weight_minus)


def make_effect(axis: MeasurementAxis, settings: MeasurementSettings, outcome: float) -> GaussianEffect:
    """Effect for observing `outcome` when measuring n.sigma unsharply."""
    s = float(outcome)
    if not math.isfinite(s):
        raise ValueError(f"outcome must be finite, got {outcome!r}")
    w = settings.precision
    return GaussianEffect(axis, s, w, _gaussian_logpdf(s - 1.0, w), _gaussian_logpdf(s + 1.0, w))


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


@dataclass(frozen=True)
class OutcomeDistribution:
    """Two-Gaussian mixture of outcomes: branch weights tr[P_pm rho]."""

    weight_plus_branch: float
    precision: float

    def __post_init__(self):
        p = float(self.weight_plus_branch)
        if not (-1e-12 <= p <= 1.0 + 1e-12):
            raise ValueError(f"branch weight out of [0, 1]: {p!r}")
        object.__setattr__(self, "precision", MeasurementSettings(self.precision, None).precision)

    @property
    def weight_minus_branch(self) -> float:
        return 1.0 - self.weight_plus_branch

    def density(self, outcome: float) -> float:
        w = self.precision
        g_plus = math.exp(_gaussian_logpdf(outcome - 1.0, w))
        g_minus = math.exp(_gaussian_logpdf(outcome + 1.0, w))
        return self.weight_plus_branch * g_plus + self.weight_minus_branch * g_minus

    def cdf(self, outcome: float) -> float:
        w = self.precision
        phi_plus = 0.5 * (1.0 + math.erf((outcome - 1.0) / (w * math.sqrt(2.0))))
        phi_minus = 0.5 * (1.0 + math.erf((outcome + 1.0) / (w * math.sqrt(2.0))))
        return self.weight_plus_branch * phi_plus + self.weight_minus_branch * phi_minus

    @property
    def mean(self) -> float:
        return self.weight_plus_branch - self.weight_minus_branch

    @property
    def variance(self) -> float:
        return self.precision**2 + 1.0 - self.mean**2

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Exact mixture sampling: branch choice, then a Gaussian around +-1."""
        if size is None:
            center = 1.0 if rng.random() < self.weight_plus_branch else -1.0
            return center + self.precision * rng.standard_normal()
        centers = np.where(rng.random(size) < self.weight_plus_branch, 1.0, -1.0)
        return centers + self.precision * rng.standard_normal(size)


def outcome_distribution(
    state: DensityMatrix, axis: MeasurementAxis, settings: MeasurementSettings
) -> OutcomeDistribution:
    along = _dot(axis.direction, state.bloch)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + along)))
    return OutcomeDistribution(p_plus, settings.precision)


def outcome_density(
    state: DensityMatrix, axis: MeasurementAxis, settings: MeasurementSettings, outcome: float
) -> float:
    """Probability density tr[effect(outcome) rho] of observing `outcome`."""
    return outcome_distribution(state, axis, settings).density(float(outcome))


def sample_outcome(
    state: DensityMatrix, axis: MeasurementAxis, settings: MeasurementSettings, rng: np.random.Generator
) -> float:
    """One outcome draw from the state's mixture density (one uniform, one normal)."""
    return float(outcome_distribution(state, axis, settings).sample(rng))


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


def posterior_update(state: DensityMatrix, effect: GaussianEffect) -> DensityMatrix:
    """Conditional state sqrt(effect) rho sqrt(effect) / tr[effect rho], via `posterior_batch`."""
    weights = np.array([effect.log_weight_plus]), np.array([effect.log_weight_minus])
    out = posterior_batch(np.array(state.bloch)[:, None], np.array(effect.axis.direction)[:, None], *weights)
    return DensityMatrix(out[:, 0].tolist())


def single_estimate(effect: GaussianEffect) -> DensityMatrix:
    """Normalized effect, effect / tr[effect]: the one-measurement estimate.

    Its Bloch vector is n * (g_plus - g_minus)/(g_plus + g_minus), computed
    as tanh of half the log-weight difference.  Generally mixed; equals the
    posterior of a fully mixed input for the same effect.
    """
    along = math.tanh(0.5 * (effect.log_weight_plus - effect.log_weight_minus))
    n = effect.axis.direction
    return DensityMatrix.clipped((along * n[0], along * n[1], along * n[2]))


def purify_estimate(
    mixed: DensityMatrix, strategy: str, rng: np.random.Generator
) -> DensityMatrix:
    """Replace a mixed estimate by one of its pure eigenstates.

    random-eigenstate picks each eigenprojector with probability equal to
    its eigenvalue (the strategy whose expected fidelity reduces exactly to
    the mixed estimate's by bilinearity); dominant-eigenstate always takes
    the larger one.  A degenerate input yields a uniformly random pure
    state under both strategies.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    decomp = spectral_decompose(mixed)
    if decomp.degenerate:
        return random_pure_state(rng)
    if strategy == DOMINANT_EIGENSTATE:
        return decomp.projector_plus
    if rng.random() < decomp.eigenvalue_plus:
        return decomp.projector_plus
    return decomp.projector_minus
