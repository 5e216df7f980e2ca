"""Estimating an unknown pure qubit from repeated unsharp polarization measurements.

The library simulates sequences of Gaussian-smeared polarization
measurements along random directions, forms the record-only state estimate
by replaying the outcome record in reverse order through the same
posterior update, and benchmarks its fidelity against the one-measurement
optimum 2/3.  Every experiment advances a whole batch of trials as one
component-major (3, B) array of Bloch vectors, the layout both the discrete
update and the continuous step use.  A matching
time-continuous conditional master equation plus closed-form purity and
fidelity curves covers the constant-rate measurement limit.
"""

__version__ = "0.1.0"

from .bloch import (
    FULLY_MIXED,
    DensityMatrix,
    MeasurementAxis,
    SpectralDecomposition,
    fidelity,
    purity,
    random_axis,
    random_pure_state,
    spectral_decompose,
)
from .continuous import (
    NoiseIncrement,
    TrajectoryState,
    bloch_sde_step,
    draw_noise,
    drift_purity,
    mean_fidelity_closed_form,
    record_increment,
    simulate_purity_ensemble,
    simulate_trajectory,
    sme_step,
    time_from_steps,
)
from .ensemble import (
    KINDS,
    EnsembleError,
    EnsembleStatistics,
    ExperimentSpec,
    run_ensemble,
)
from .montecarlo import derive_stream, summarize
from .povm import (
    CONTINUUM_PRECISION_FLOOR,
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    STRATEGIES,
    ContinuumAdvisory,
    GaussianEffect,
    MeasurementSettings,
    OutcomeDistribution,
    completeness_defect,
    make_effect,
    outcome_density,
    outcome_distribution,
    posterior_update,
    purify_estimate,
    sample_outcome,
    single_estimate,
)
from .sequential import (
    FidelityStatistic,
    SequenceResult,
    fidelity_direct,
    fidelity_hypothetical_fixed,
    fidelity_purity,
    hypothetical_purity_paths,
    hypothetical_run,
    replay_hypothetical,
    run_sequence,
    spectral_match,
)

__all__ = [name for name in dir() if not name.startswith("_")]
