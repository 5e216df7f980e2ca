"""Deterministic Monte Carlo harness for the CLI's experiments.

Three kinds: the fidelity curve through the direct or the purity
estimator, and the step-resolved sequence compared with the integrated
continuous equation.  Every spec expands into tasks (spec, part, lo, hi):
trials [lo, hi) of one part, the whole `curve` of a fidelity spec or the
`paths` or `sde` half of a compare, read at every grid point.  All tasks
of one `run_ensemble` call go through one `_dispatch`: in process with one
worker, and otherwise in one forked child per worker (at most one per CPU
and one per task), each sending its share's samples back once through a
pipe while the caller only collects (POSIX only: it needs `os.fork`).

Trials draw their randomness in groups of G = `montecarlo._GROUP`: group j
of every part covers trials [jG, (j + 1)G) and draws from
derive_stream(seed, jG).  Tasks split a part only at group boundaries, so
ensemble statistics are a pure function of the experiment spec: chunking,
worker count, and scheduling cannot change a single bit of the output.
Samples are aggregated in trial order after collection.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .continuous import (
    _check_step,
    drift_purity,
    mean_fidelity_closed_form,
    simulate_purity_ensemble,
    time_from_steps,
)
from .montecarlo import _GROUP, summarize
from .povm import RANDOM_EIGENSTATE, STRATEGIES, MeasurementSettings
from .sequential import _grid, direct_fidelity_samples, purity_samples

SEQUENTIAL_FIDELITY = "sequential-fidelity"
HYPOTHETICAL_PURITY = "hypothetical-purity"
CONTINUUM_COMPARE = "continuum-compare"
KINDS = (SEQUENTIAL_FIDELITY, HYPOTHETICAL_PURITY, CONTINUUM_COMPARE)

# the one part of a fidelity curve; the two halves of a compare, sequence and equation
_CURVE = "curve"
_PATHS = "paths"
_SDE = "sde"


class EnsembleError(RuntimeError):
    """A trial group failed; the message names the kind, the part, the group's trials and its stream."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one Monte Carlo experiment."""

    kind: str
    delta: float
    trials: int
    seed: int
    n_grid: tuple[int, ...]
    dt: float = 1e-4
    strategy: str = RANDOM_EIGENSTATE

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        # operator.index refuses a float (TypeError) and takes Python or numpy integers
        object.__setattr__(self, "trials", operator.index(self.trials))
        object.__setattr__(self, "seed", operator.index(self.seed))
        object.__setattr__(self, "n_grid", _grid(self.n_grid))  # refused as the samplers refuse it
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.kind == HYPOTHETICAL_PURITY and self.strategy != RANDOM_EIGENSTATE:
            # F = (1 + P)/3 is the random-eigenstate fidelity; it says nothing of the other strategy
            raise ValueError(f"{self.kind} estimates the {RANDOM_EIGENSTATE} fidelity only, got {self.strategy!r}")
        self.settings()  # refuses a bad delta
        _check_step(self.dt)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def settings(self) -> MeasurementSettings:
        """The measurement settings of precision delta."""
        return MeasurementSettings(self.delta)


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


def _parts(spec: ExperimentSpec):
    return (_PATHS, _SDE) if spec.kind == CONTINUUM_COMPARE else (_CURVE,)


def _times(spec: ExperimentSpec) -> tuple[float, ...]:
    """The compare's time grid t = 12 n / delta^2 spanned by the n grid."""
    settings = spec.settings()
    return tuple(time_from_steps(n, settings) for n in spec.n_grid)


def _samples(spec: ExperimentSpec, part, lo: int, hi: int) -> np.ndarray:
    """Samples of trials [lo, hi) of one part at every grid point, shape (hi - lo, len(n_grid)).

    lo is a group boundary, and group j of the part draws from stream index lo + jG.
    """
    if part == _SDE:
        return simulate_purity_ensemble(_times(spec), spec.dt, hi - lo, seed=spec.seed, base_index=lo).T
    if spec.kind == SEQUENTIAL_FIDELITY:
        return direct_fidelity_samples(spec.settings(), spec.n_grid, hi - lo, spec.strategy, spec.seed, lo)
    purities = purity_samples(spec.settings(), spec.n_grid, hi - lo, spec.seed, lo)
    return purities if part == _PATHS else (1.0 + purities) / 3.0


def _run_task(task) -> np.ndarray:
    """One task's samples.

    If the task fails, it reruns group by group, since the trials of a group
    share one stream and cannot run apart, and the error names the trials
    and the stream of the first group that fails on its own.
    """
    spec, part, lo, hi = task
    try:
        return _samples(spec, part, lo, hi)
    except Exception as batch_exc:
        for glo in range(lo, hi, _GROUP):
            ghi = min(glo + _GROUP, hi)
            try:
                _samples(spec, part, glo, ghi)
            except Exception as exc:
                raise EnsembleError(
                    f"{spec.kind} part {part} trials [{glo}, {ghi}) (stream {glo}) failed: {exc}"
                ) from exc
        raise EnsembleError(f"{spec.kind} part {part} trials [{lo}, {hi}) failed: {batch_exc}") from batch_exc


def _run_tasks(tasks) -> list[np.ndarray]:
    return [_run_task(task) for task in tasks]


def _child(share, write_end: int):
    """In a forked child: run one share, send one pickled (ok, value), leave.

    value is the share's results, or the exception that stopped it.  The
    payload is pickled whole before any byte is written, so the caller gets
    all of it or nothing.  The child always leaves through os._exit, so it
    runs none of the caller's exit handlers and flushes none of its buffers.
    """
    code = 1
    try:
        try:
            payload = pickle.dumps((True, _run_tasks(share)), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _fork(share):
    """Fork one child to run `share`; its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(share, write_end)
    except BaseException:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)  # the child holds the only write end, so its exit ends the read
    return pid, open(read_end, "rb")


def _run_forked(shares) -> list[list[np.ndarray]]:
    """`_run_tasks` of each share, each in a child forked for it, in share order.

    The pipes are read in share order and the first exception a child sent
    is raised unchanged.  Every child is reaped before this returns or
    raises; when it leaves early, the children still running are killed first.
    """
    children = []  # (pid, read end) of every child not yet reaped, in share order
    try:
        for share in shares:
            children.append(_fork(share))
        results = []
        for w in range(len(shares)):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                raise EnsembleError(f"worker {w} exited with code {code} before sending its results")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        if children:
            import signal  # loaded only here, so a dispatch that ends well does not pay for it

            for pid, pipe in children:
                pipe.close()
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass  # reaped between its waitpid and its removal from the list


def _dispatch(tasks, workers: int) -> list[np.ndarray]:
    """Every task's samples, in task order.

    With more than one worker, child w runs tasks w, w + workers, ... and
    sends them back once; the caller runs no trials, it only collects.
    """
    if workers <= 1 or len(tasks) <= 1:
        return _run_tasks(tasks)
    # one child per task at most; a child with no task would only idle
    workers = min(workers, len(tasks))
    shares = _run_forked([tasks[w::workers] for w in range(workers)])
    results = [None] * len(tasks)
    for w, share in enumerate(shares):
        results[w::workers] = share
    return results


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Trial ranges: about one equal chunk per worker (one chunk in process).

    A chunk is a whole number of trial groups, so no group is split.  Every
    step of a batch pays a fixed cost, and the trials of one task all cost
    the same, so nothing is gained by splitting further.
    """
    size = _GROUP * math.ceil(total / (_GROUP * max(1, workers)))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


def _summaries(samples: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The means and the standard errors of the columns of a (trials, grid points) array."""
    return tuple(zip(*(summarize(column) for column in samples.T)))


def _statistics(spec: ExperimentSpec, results: list[np.ndarray]) -> EnsembleStatistics:
    """Aggregate one spec's task results, given part after part, each in trial order."""
    size = len(results) // len(_parts(spec))
    per_part = [_summaries(np.concatenate(results[i:i + size])) for i in range(0, len(results), size)]
    means, errors = per_part[0]
    if spec.kind != CONTINUUM_COMPARE:
        settings = spec.settings()
        reference = tuple(mean_fidelity_closed_form(n, settings) for n in spec.n_grid)
        return EnsembleStatistics(
            spec.kind, tuple(float(n) for n in spec.n_grid), means, errors, spec.trials, reference
        )
    sde_means, sde_errors = per_part[1]
    t_grid = _times(spec)
    reference = tuple(drift_purity(t) for t in t_grid)
    return EnsembleStatistics(
        spec.kind, t_grid, means, errors, spec.trials, reference, sde_means, sde_errors
    )


def run_ensemble(*specs: ExperimentSpec, workers: int = 1) -> tuple[EnsembleStatistics, ...]:
    """Run every trial of the experiments in one dispatch; one statistics per spec, in order.

    More than one worker forks child processes, at most one per CPU, so it
    needs `os.fork` (POSIX); the statistics are the same bits at any worker
    count.  A worker count that is not an integer (TypeError) or is below 1
    is refused.
    """
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ValueError(f"workers={workers} needs os.fork, which this platform lacks; use workers=1")
    # more children than CPUs would only contend for them
    workers = min(workers, os.cpu_count() or 1)
    for spec in specs:
        if spec.kind != CONTINUUM_COMPARE:
            continue
        # one tenth of the time one measurement stands for
        resolution_guard = time_from_steps(1, spec.settings()) / 10.0
        if spec.dt > resolution_guard:
            warnings.warn(
                f"dt {spec.dt:g} is coarser than the comparison resolution guard "
                f"{resolution_guard:g}; per-step agreement is not resolved",
                stacklevel=2,
            )
    plans = [
        [(spec, part, lo, hi) for part in _parts(spec) for lo, hi in _chunk_ranges(spec.trials, workers)]
        for spec in specs
    ]
    results = iter(_dispatch([task for plan in plans for task in plan], workers))
    return tuple(_statistics(spec, [next(results) for _ in plan]) for spec, plan in zip(specs, plans))
