"""Estimating an unknown pure qubit from repeated unsharp polarization measurements.

The library simulates sequences of Gaussian-smeared polarization
measurements along random directions, forms the record-only state estimate
by replaying the outcome record in reverse order through the same
posterior update, and benchmarks its fidelity against the one-measurement
optimum 2/3.  Every discrete experiment advances a whole batch of trials
together, as (B,) arrays of rotation invariants: the Bloch length where a
mixed-start run needs only its purity, and for the direct estimator that
length, its components along and across the true state's run, and the
estimate's overlap with the true state.  A matching time-continuous
conditional master equation plus closed-form purity and fidelity curves
covers the constant-rate measurement limit; its ensembles step a (B,)
array of Bloch lengths.
"""

__version__ = "0.1.0"

from .bloch import (
    FULLY_MIXED,
    DensityMatrix,
    MeasurementAxis,
    fidelity,
    purity,
    random_pure_state,
)
from .continuous import (
    Trajectory,
    TrajectoryState,
    bloch_sde_step,
    draw_noise,
    drift_purity,
    mean_fidelity_closed_form,
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
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    STRATEGIES,
    MeasurementSettings,
    completeness_defect,
    purify_estimate,
)
from .sequential import (
    SequenceResult,
    hypothetical_purity_paths,
    replay_hypothetical,
    run_sequence,
    spectral_match,
)

__all__ = [name for name in dir() if not name.startswith("_")]
