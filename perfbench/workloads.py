"""The benchmark's workloads: what each sample runs, its step count, and its checks.

Every workload is a closed loop of one client: a sample is one fresh
process running one command, and the next sample starts only after it has
exited.  All samples of a run use the run's seed, so their outputs must be
byte-identical to the run's untimed reference sample.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass

DELTA = 20.0
N_GRID = (0, 2, 5, 10, 20, 40)
CURVE_TRIALS = 200
COMPARE_N_MAX = 40
COMPARE_DT = 1e-4
COMPARE_TRAJECTORIES = 64
TRAJECTORY_COUNT = 2
TRAJECTORY_STEPS = 10_000  # round(t_max / dt) with t_max = 1, dt = 1e-4

# Allowance for the projected Euler integrator's stationary purity deficit
# (about 8e-3 at dt = 1e-4) when the SDE column is compared with the drift curve.
EULER_BIAS = 0.01
# Standard errors a Monte Carlo mean may stray before a check fails.  Runs
# use arbitrary seeds, so a correct program must pass on nearly all of
# them: at 3 standard errors the curve's five independent comparisons fail
# about 1.4% of seeds (seed 104 read 3.13), at 4.5 about 3e-5.
Z = 4.5

CURVE_COLUMNS = ["n", "direct_mean_F", "direct_std_error", "purity_mean_F",
                 "purity_std_error", "closed_form_F"]
COMPARE_COLUMNS = ["t", "discrete_mean_purity", "sde_mean_purity", "drift_closed_form"]


def _rows(data: bytes, columns) -> list[list[float]]:
    table = list(csv.reader(io.StringIO(data.decode())))
    if not table or table[0] != columns:
        raise ValueError(f"header {table[:1]!r} is not {columns!r}")
    return [[float(cell) for cell in row] for row in table[1:]]


def _check(name, ok, detail):
    return [name, bool(ok), detail]


def curve_checks(data: bytes) -> tuple[list, dict]:
    """Acceptance criteria 2 (estimator agreement, at Z combined standard
    errors) and 3 on a `both` curve.

    The closed-form column is not gated: its gap to the simulation is the
    known calibration gap of criteria 1 and 2 (curve shape), owned by
    tests/test_acceptance.py.  The gap is reported, not checked.
    """
    try:
        rows = _rows(data, CURVE_COLUMNS)
    except ValueError as exc:
        return [_check("curve-table", False, str(exc))], {}
    checks = [_check("curve-grid", [int(r[0]) for r in rows] == list(N_GRID),
                     f"n column {[r[0] for r in rows]}")]
    zero = [r for r in rows if r[0] == 0]
    checks.append(_check("curve-n0-exact", zero and zero[0][1:5] == [0.5, 0.0, 0.5, 0.0],
                         f"n = 0 row {zero[:1]}"))
    worst = 0.0
    excess = []
    for n, d_mean, d_err, p_mean, p_err, _ in rows:
        combined = math.hypot(d_err, p_err)
        gap = abs(d_mean - p_mean)
        worst = max(worst, gap / (Z * combined) if combined else (math.inf if gap else 0.0))
        for mean, err in ((d_mean, d_err), (p_mean, p_err)):
            if mean > 2.0 / 3.0 + 3.0 * err:
                excess.append((n, mean))
    checks.append(_check("curve-estimator-agreement", worst <= 1.0,
                         f"max |direct - purity| is {worst:.3f} of {Z} combined standard errors"))
    checks.append(_check("curve-below-optimum", not excess,
                         f"means above 2/3 + 3 standard errors: {excess}"))
    excluded = {"calibration_gap_max_abs": max(abs(r[3] - r[5]) for r in rows)}
    return checks, excluded


def compare_checks(data: bytes) -> tuple[list, dict]:
    """The SDE column against the drift curve, and the t grid against 12 n / delta^2.

    The SDE tolerance scales with the sample count: Z standard errors,
    bounding each purity's spread by the Bhatia-Davis inequality for a
    variable in [1/2, 1], plus the Euler bias allowance.  The discrete
    column against the drift curve is the known calibration gap of
    criterion 6 (tests/test_acceptance.py::test_criterion_6_continuum_calibration);
    it is reported, not checked.
    """
    try:
        rows = _rows(data, COMPARE_COLUMNS)
    except ValueError as exc:
        return [_check("compare-table", False, str(exc))], {}
    checks = [_check("compare-rows", len(rows) == COMPARE_N_MAX + 1, f"{len(rows)} rows")]
    grid_gap = max(abs(r[0] - 12.0 * n / (DELTA * DELTA)) for n, r in enumerate(rows))
    checks.append(_check("compare-t-grid", grid_gap <= 1e-12,
                         f"max |t - 12 n / delta^2| = {grid_gap:.3e}"))
    drift_gap = 0.0
    for t, _, _, drift in rows:
        e = math.exp(8.0 * t)
        drift_gap = max(drift_gap, abs(drift - (0.5 + 0.5 * (e - 1.0) / (e - 1.0 / 3.0))))
    checks.append(_check("compare-drift-column", drift_gap <= 1e-12,
                         f"max gap to the drift formula {drift_gap:.3e}"))
    worst = 0.0
    for t, _, sde, drift in rows:
        spread = math.sqrt(max(0.0, (sde - 0.5) * (1.0 - sde)))
        tolerance = EULER_BIAS + Z * spread / math.sqrt(COMPARE_TRAJECTORIES)
        worst = max(worst, abs(sde - drift) / tolerance)
    checks.append(_check("compare-sde-tracks-drift", worst <= 1.0,
                         f"max |sde - drift| is {worst:.3f} of its tolerance"))
    in_range = all(0.5 <= v <= 1.0 for r in rows for v in r[1:3])
    checks.append(_check("compare-purity-range", in_range and rows[0][1:3] == [0.5, 0.5],
                         "purities in [1/2, 1], exactly 1/2 at t = 0"))
    excluded = {"calibration_gap_max_abs": max(abs(r[1] - r[3]) for r in rows)}
    return checks, excluded


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int               # kernel steps per sample, from the flags
    step_name: str
    flags: tuple = ()        # CLI flags; empty for the library path of `trajectory`
    output_checks: Callable[[bytes], tuple[list, dict]] | None = None
    # traced function, "calls" or "work", and the exact value that follows from the flags
    expected: tuple = ()
    workers: int = 1

    @property
    def kind(self) -> str:
        return "cli" if self.flags else "trajectory"

    def sample_args(self, seed: int, out: str, workers: int) -> list[str]:
        """Arguments after `child.py REPORT TRACE`."""
        if not self.flags:
            return ["trajectory", str(seed), str(TRAJECTORY_COUNT)]
        return ["cli", *self.flags, "--workers", str(workers), "--seed", str(seed), "--out", out]


CURVE_FLAGS = ("fidelity-curve", "--delta", f"{DELTA:g}", "--n-grid", ",".join(map(str, N_GRID)),
               "--estimator", "both", "--trials", str(CURVE_TRIALS))
CURVE_UPDATES = 2 * CURVE_TRIALS * sum(N_GRID)  # 154 x trials
COMPARE_STEPS = int(round(12.0 * COMPARE_N_MAX / (DELTA * DELTA) / COMPARE_DT)) * COMPARE_TRAJECTORIES

WORKLOADS = {
    "curve": Workload(
        "curve", CURVE_UPDATES, "discrete measurement update", CURVE_FLAGS, curve_checks,
        expected=(("povm.posterior_update", "calls", CURVE_UPDATES),)),
    "compare": Workload(
        "compare", COMPARE_STEPS, "SDE trajectory-step",
        ("continuum-compare", "--delta", f"{DELTA:g}", "--n-max", str(COMPARE_N_MAX),
         "--dt", f"{COMPARE_DT:g}", "--trajectories", str(COMPARE_TRAJECTORIES)),
        compare_checks,
        expected=(("continuous.simulate_purity_ensemble", "work", COMPARE_STEPS),)),
    "trajectory": Workload(
        "trajectory", TRAJECTORY_STEPS * TRAJECTORY_COUNT, "SDE trajectory-step",
        expected=(("continuous.simulate_trajectory", "work", TRAJECTORY_STEPS * TRAJECTORY_COUNT),)),
    "pool": Workload(
        "pool", CURVE_UPDATES, "discrete measurement update", CURVE_FLAGS, curve_checks, workers=2),
}
