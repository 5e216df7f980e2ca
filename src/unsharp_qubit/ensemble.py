"""Deterministic Monte Carlo harness for every experiment in the library.

Each trial owns the random stream derive_stream(master_seed, trial_index),
so ensemble statistics are a pure function of the experiment spec: chunking,
worker count, and scheduling cannot change a single bit of the output.
Trials may run in parallel processes; samples are aggregated in trial-index
order after collection.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .continuous import (
    RATE_CONSTANT,
    drift_purity,
    mean_fidelity_closed_form,
    simulate_purity_ensemble,
    time_from_steps,
)
from .montecarlo import summarize
from .povm import RANDOM_EIGENSTATE, STRATEGIES, MeasurementSettings
from .sequential import (
    direct_fidelity_samples,
    hypothetical_purity_paths,
    purity_fidelity_samples,
)

SEQUENTIAL_FIDELITY = "sequential-fidelity"
HYPOTHETICAL_PURITY = "hypothetical-purity"
CONTINUUM_TRAJECTORY = "continuum-trajectory"
CONTINUUM_COMPARE = "continuum-compare"
SHARP_LIMIT = "sharp-limit"
KINDS = (SEQUENTIAL_FIDELITY, HYPOTHETICAL_PURITY, CONTINUUM_TRAJECTORY, CONTINUUM_COMPARE, SHARP_LIMIT)

_N_GRID_KINDS = (SEQUENTIAL_FIDELITY, HYPOTHETICAL_PURITY, CONTINUUM_COMPARE)


class EnsembleError(RuntimeError):
    """A trial failed; the message names the offending trial index."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one Monte Carlo experiment."""

    kind: str
    delta: float
    trials: int
    seed: int
    n_grid: tuple[int, ...] | None = None
    t_grid: tuple[float, ...] | None = None
    dt: float = 1e-4
    strategy: str = RANDOM_EIGENSTATE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.kind in _N_GRID_KINDS:
            grid = self.n_grid
            if not grid or any(n < 0 for n in grid) or list(grid) != sorted(grid):
                raise ValueError(f"{self.kind} needs a nonempty ascending n grid, got {grid!r}")
            object.__setattr__(self, "n_grid", tuple(int(n) for n in grid))
        elif self.kind == CONTINUUM_TRAJECTORY:
            grid = self.t_grid
            if not grid or any(t < 0 for t in grid) or list(grid) != sorted(grid):
                raise ValueError(f"{self.kind} needs a nonempty ascending t grid, got {grid!r}")
            object.__setattr__(self, "t_grid", tuple(float(t) for t in grid))
        elif self.kind == SHARP_LIMIT:
            object.__setattr__(self, "n_grid", (1,))
        # delta/dt validity is enforced by the settings and integrator they feed

    def settings(self) -> MeasurementSettings:
        return MeasurementSettings(self.delta, continuum_floor=None)


@dataclass(frozen=True)
class EnsembleStatistics:
    """Per-grid-point mean, standard error, and closed-form reference.

    For the compare kind `means` holds the step-resolved measurement
    sequence and the sde_* fields carry the integrated-equation ensemble on
    the same time grid; otherwise the sde_* fields are None.
    """

    kind: str
    grid: tuple[float, ...]
    means: tuple[float, ...]
    std_errors: tuple[float, ...]
    samples: int
    reference: tuple[float, ...]
    sde_means: tuple[float, ...] | None = None
    sde_std_errors: tuple[float, ...] | None = None


def _point_samples(spec: ExperimentSpec, n: int, trials: int, base_index: int) -> np.ndarray:
    if spec.kind == HYPOTHETICAL_PURITY:
        return purity_fidelity_samples(spec.settings(), n, trials, spec.seed, base_index)
    return direct_fidelity_samples(spec.settings(), n, trials, spec.strategy, spec.seed, base_index)


def _run_point_chunk(spec: ExperimentSpec, task) -> np.ndarray:
    """Samples for trials [lo, hi) of one grid point (index = point*trials + k), in one batch.

    If the batch fails, its trials rerun one at a time so the error names
    the first trial that fails on its own.
    """
    point, lo, hi = task
    n = spec.n_grid[point]
    base = point * spec.trials
    try:
        return _point_samples(spec, n, hi - lo, base + lo)
    except Exception as batch_exc:
        for k in range(lo, hi):
            try:
                _point_samples(spec, n, 1, base + k)
            except Exception as exc:
                raise EnsembleError(f"{spec.kind} grid point {point} trial {k} failed: {exc}") from exc
        raise EnsembleError(f"{spec.kind} grid point {point} trials [{lo}, {hi}) failed: {batch_exc}") from batch_exc


def _run_discrete_path_chunk(spec: ExperimentSpec, task) -> np.ndarray:
    lo, hi = task
    n_max = spec.n_grid[-1]
    try:
        return hypothetical_purity_paths(n_max, spec.settings(), hi - lo, seed=spec.seed, base_index=lo)
    except Exception as exc:
        raise EnsembleError(f"{spec.kind} discrete trials [{lo}, {hi}) failed: {exc}") from exc


def _run_sde_chunk(spec: ExperimentSpec, task) -> np.ndarray:
    lo, hi, t_grid = task
    try:
        return simulate_purity_ensemble(t_grid, spec.dt, hi - lo, seed=spec.seed, base_index=lo)
    except Exception as exc:
        raise EnsembleError(f"{spec.kind} trajectories [{lo}, {hi}) failed: {exc}") from exc


def _dispatch(fn, spec, tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(spec, task) for task in tasks]
    # the pool starts every worker at once; more than one per task only idles
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, [spec] * len(tasks), tasks))


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Trial ranges: one equal chunk per worker (one chunk in process).

    Every step of a batch pays a fixed cost, and the trials of one task all
    cost the same, so nothing is gained by splitting further.
    """
    size = max(1, math.ceil(total / max(1, workers)))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _summaries(columns: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    means, errors = [], []
    for row in columns:
        mean, err = summarize(row)
        means.append(mean)
        errors.append(err)
    return tuple(means), tuple(errors)


def run_ensemble(spec: ExperimentSpec, workers: int = 1) -> EnsembleStatistics:
    """Run every trial of the experiment and aggregate per grid point."""
    settings = spec.settings()

    if spec.kind in (SEQUENTIAL_FIDELITY, HYPOTHETICAL_PURITY, SHARP_LIMIT):
        tasks = [
            (point, lo, hi)
            for point in range(len(spec.n_grid))
            for lo, hi in _chunk_ranges(spec.trials, workers)
        ]
        results = _dispatch(_run_point_chunk, spec, tasks, workers)
        per_point = [np.concatenate([r for t, r in zip(tasks, results) if t[0] == point])
                     for point in range(len(spec.n_grid))]
        means, errors = _summaries(np.asarray(per_point))
        if spec.kind == SHARP_LIMIT:
            reference = (2.0 / 3.0,) * len(spec.n_grid)
        else:
            reference = tuple(mean_fidelity_closed_form(n, settings) for n in spec.n_grid)
        return EnsembleStatistics(
            spec.kind, tuple(float(n) for n in spec.n_grid), means, errors, spec.trials, reference
        )

    if spec.kind == CONTINUUM_TRAJECTORY:
        tasks = [(lo, hi, spec.t_grid) for lo, hi in _chunk_ranges(spec.trials, workers)]
        blocks = _dispatch(_run_sde_chunk, spec, tasks, workers)
        grid_samples = np.concatenate(blocks, axis=1)
        means, errors = _summaries(grid_samples)
        reference = tuple(drift_purity(t) for t in spec.t_grid)
        return EnsembleStatistics(spec.kind, spec.t_grid, means, errors, spec.trials, reference)

    # continuum-compare: step-resolved sequence and integrated equation on
    # the time grid t = 12 n / delta^2 spanned by the n grid
    # one tenth of a step interval, delta^2 / (10 * 12); 10 * 12 = 120 is exact
    resolution_guard = spec.delta * spec.delta / (10.0 * RATE_CONSTANT)
    if spec.dt > resolution_guard:
        warnings.warn(
            f"dt {spec.dt:g} is coarser than the comparison resolution guard "
            f"{resolution_guard:g}; per-step agreement is not resolved",
            stacklevel=2,
        )
    t_grid = tuple(time_from_steps(n, settings) for n in spec.n_grid)
    path_tasks = _chunk_ranges(spec.trials, workers)
    sde_tasks = [(lo, hi, t_grid) for lo, hi in path_tasks]
    paths = np.concatenate(_dispatch(_run_discrete_path_chunk, spec, path_tasks, workers), axis=0)
    discrete = paths[:, list(spec.n_grid)].T
    sde = np.concatenate(_dispatch(_run_sde_chunk, spec, sde_tasks, workers), axis=1)
    means, errors = _summaries(discrete)
    sde_means, sde_errors = _summaries(sde)
    reference = tuple(drift_purity(t) for t in t_grid)
    return EnsembleStatistics(
        spec.kind, t_grid, means, errors, spec.trials, reference, sde_means, sde_errors
    )
