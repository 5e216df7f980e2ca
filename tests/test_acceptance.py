"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL` line (visible with
`pytest -s`); failures carry the measured numbers in the assertion message.

Known state of the battery
--------------------------
Criteria 1, 2 (curve clause), and 6 fail, and are asserted here unweakened.
The cause is a single calibration constant: the closed-form reference
curves (`mean_fidelity_closed_form`, `drift_purity` composed with
`time_from_steps`) advance continuous time by 12/delta^2 per measurement,
while the simulated measurement sequence transfers information at the rate
of the continuous equation only when each measurement advances time by
1/(12 delta^2), a factor 144 less.  That factor is the large-delta limit:
from the mixed state one measurement gives purity u = tanh^2(s/delta^2),
and quadrature of E[u] puts the ratio of 12/delta^2 to the implied
duration E[u]/12 at 144.4 (delta = 20), 145.4 (delta = 10), 159.1
(delta = 3) and 261.6 (delta = 1).  Three independent derivations (drift
matching, purity-diffusion matching, record-variance matching) and the
Monte Carlo below all give the large-delta factor.  The supplementary test at the
bottom shows the sequence does match the integrated equation and the drift
curve once the empirical step duration is used, so the simulator physics
on both sides is sound; only the published constant linking them is not.
"""

import math

import numpy as np
import pytest

from unsharp_qubit import (
    DOMINANT_EIGENSTATE,
    ExperimentSpec,
    MeasurementSettings,
    bloch_sde_step,
    completeness_defect,
    derive_stream,
    draw_noise,
    drift_purity,
    hypothetical_purity_paths,
    mean_fidelity_closed_form,
    replay_hypothetical,
    run_ensemble,
    run_sequence,
    simulate_purity_ensemble,
    sme_step,
    spectral_match,
    time_from_steps,
)
from unsharp_qubit.bloch import FULLY_MIXED
from unsharp_qubit.cli import main
from unsharp_qubit.ensemble import HYPOTHETICAL_PURITY, SEQUENTIAL_FIDELITY

DELTA = 20.0
GRID = (0, 2, 5, 10, 20, 40)
TRIALS = 10**4


def settings(width):
    return MeasurementSettings(width)


def _empirical_reference(n, width):
    """Mean fidelity when one measurement advances time by 1/(12 width^2)."""
    return 1.0 / 3.0 + drift_purity(n / (12.0 * width * width)) / 3.0


def _report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


def _points(stats):
    """{n: (mean, standard error)} of one curve."""
    return {int(n): (mean, err) for n, mean, err in zip(stats.grid, stats.means, stats.std_errors)}


@pytest.fixture(scope="module")
def curves():
    # grid point i of each curve draws from the streams from i * TRIALS on
    specs = (
        ExperimentSpec(kind=SEQUENTIAL_FIDELITY, delta=DELTA, trials=TRIALS, seed=1001, n_grid=GRID),
        ExperimentSpec(kind=HYPOTHETICAL_PURITY, delta=DELTA, trials=TRIALS, seed=1002, n_grid=GRID),
    )
    direct, purity = run_ensemble(*specs)
    return _points(direct), _points(purity)


def test_criterion_1_saturation_to_optimum(curves):
    _, purity = curves
    mean, err = purity[40]
    gap = abs(mean - 2.0 / 3.0)
    detail = (
        f"purity estimator (delta=20, n=40, 1e4 trials) = {mean:.5f} +- {err:.5f}, "
        f"required 2/3 +- 0.005 (gap {gap:.5f}); "
        f"empirical-calibration prediction {_empirical_reference(40, DELTA):.5f}"
    )
    ok = gap <= 0.005
    _report("1 saturation-to-optimum", ok, detail)
    assert ok, detail


def test_criterion_2_saturation_curve_shape(curves):
    direct, purity = curves
    cfg = settings(DELTA)
    failures = []
    for n in GRID:
        reference = mean_fidelity_closed_form(n, cfg)
        for label, (mean, err) in (("direct", direct[n]), ("purity", purity[n])):
            tolerance = max(0.01, 3.0 * err)
            gap = abs(mean - reference)
            if gap > tolerance:
                failures.append(
                    f"{label} n={n}: {mean:.5f} vs closed form {reference:.5f} "
                    f"(gap {gap:.5f} > {tolerance:.5f}, empirical {_empirical_reference(n, DELTA):.5f})"
                )
    ok = not failures
    detail = "all grid points match the closed form" if ok else "; ".join(failures)
    _report("2 saturation-curve-shape", ok, detail)
    assert ok, detail


def test_criterion_2_estimator_agreement(curves):
    direct, purity = curves
    worst = 0.0
    for n in GRID:
        (direct_mean, direct_err), (purity_mean, purity_err) = direct[n], purity[n]
        combined = math.hypot(direct_err, purity_err)
        gap = abs(direct_mean - purity_mean)
        if combined == 0.0:
            assert gap == 0.0
            continue
        worst = max(worst, gap / (3.0 * combined))
    ok = worst <= 1.0
    detail = f"max |direct - purity| = {worst:.2f} of the 3-combined-stderr budget"
    _report("2 estimator-agreement", ok, detail)
    assert ok, detail


def test_criterion_3_fidelity_bounds(curves):
    direct, purity = curves
    ok = direct[0] == purity[0] == (0.5, 0.0)
    excesses = []
    for n in GRID:
        for mean, err in (direct[n], purity[n]):
            if mean > 2.0 / 3.0 + 3.0 * err:
                excesses.append((n, mean))
    ok = ok and not excesses
    detail = f"n=0 exact at 0.5; no point above 2/3 + 3 stderr (excesses: {excesses})"
    _report("3 fidelity-bounds", ok, detail)
    assert ok, detail


def test_criterion_4_sharp_limit():
    spec = ExperimentSpec(
        kind=SEQUENTIAL_FIDELITY, delta=0.05, trials=10**5, seed=401, n_grid=(1,), strategy=DOMINANT_EIGENSTATE
    )
    ((mean, err),) = _points(*run_ensemble(spec)).values()
    gap = abs(mean - 2.0 / 3.0)
    ok = gap <= 0.005
    detail = f"one sharp measurement: {mean:.5f} +- {err:.5f}, gap to 2/3 = {gap:.5f}"
    _report("4 sharp-limit", ok, detail)
    assert ok, detail


def test_criterion_5_drift_dominance():
    grid = tuple(round(0.05 * k, 2) for k in range(21))
    purities = simulate_purity_ensemble(grid, 1e-4, 1000, seed=501)
    deviations = [abs(purities[i].mean() - drift_purity(t)) for i, t in enumerate(grid)]
    worst = max(deviations)
    spot_ok = (
        drift_purity(0.0) == 0.5
        and abs(drift_purity(math.log(3.0) / 8.0) - 0.875) <= 1e-12
        and 1.0 - drift_purity(50.0) < 1e-15
    )
    ok = worst <= 0.02 and spot_ok
    detail = (
        f"max |ensemble - drift| = {worst:.4f} over t in [0, 1] "
        f"(1e3 trajectories, dt 1e-4); spot values exact"
    )
    _report("5 drift-dominance", ok, detail)
    assert ok, detail


def test_criterion_6_continuum_calibration():
    spec = ExperimentSpec(
        kind="continuum-compare",
        delta=30.0,
        trials=1000,
        seed=1003,
        n_grid=tuple(range(0, 76)),
        dt=1e-4,
    )
    (stats,) = run_ensemble(spec)
    gap_sde = max(abs(m - s) for m, s in zip(stats.means, stats.sde_means))
    gap_drift = max(abs(m - r) for m, r in zip(stats.means, stats.reference))
    gap_sde_drift = max(abs(s - r) for s, r in zip(stats.sde_means, stats.reference))
    ok = gap_sde <= 0.02 and gap_drift <= 0.02
    detail = (
        f"max |discrete - sde| = {gap_sde:.4f}, max |discrete - drift| = {gap_drift:.4f} "
        f"(required <= 0.02); the continuum pair agrees: max |sde - drift| = {gap_sde_drift:.4f}; "
        f"discrete purity at t=1 is {stats.means[-1]:.4f} vs drift {stats.reference[-1]:.4f}, "
        f"consistent instead with drift at t/144 = {drift_purity(stats.grid[-1] / 144.0):.4f}"
    )
    _report("6 continuum-calibration", ok, detail)
    assert ok, detail


def test_criterion_7_property_suite():
    defect = max(completeness_defect(settings(w)) for w in (0.1, 1.0, 10.0))

    spectral = 0.0
    for i, (n, width) in enumerate([(50, 10.0), (120, 10.0), (200, 10.0), (200, 1.0)]):
        cfg = settings(width)
        run = run_sequence(FULLY_MIXED, n, cfg, derive_stream(701, i))
        spectral = max(spectral, spectral_match(run, replay_hypothetical(run.outcomes, cfg)))

    rng = derive_stream(702, 0)
    state, r, pathwise = FULLY_MIXED, FULLY_MIXED.bloch, 0.0
    for _ in range(1000):
        noise = draw_noise(rng, 1e-4)
        state = sme_step(state, 1e-4, noise)
        r = bloch_sde_step(r, 1e-4, noise)
        pathwise = max(pathwise, max(abs(state.bloch[i] - r[i]) for i in range(3)))

    h = 1e-5
    ode = 0.0
    for t in np.linspace(0.01, 1.0, 34):
        u = 2.0 * drift_purity(float(t)) - 1.0
        slope = (drift_purity(float(t) + h) - drift_purity(float(t) - h)) / h
        ode = max(ode, abs(slope - 4.0 * (1.0 - u) * (3.0 - u)) / (4.0 * (1.0 - u) * (3.0 - u)))

    identity = 0.0
    for width in (0.5, 3.0, 20.0, 31.4159):
        cfg = settings(width)
        for n in range(0, 400, 13):
            via_drift = 1.0 / 3.0 + drift_purity(time_from_steps(n, cfg)) / 3.0
            identity = max(identity, abs(mean_fidelity_closed_form(n, cfg) - via_drift))

    ok = defect < 1e-9 and spectral <= 1e-9 and pathwise < 1e-8 and ode < 1e-6 and identity <= 1e-15
    detail = (
        f"completeness {defect:.2e} (<1e-9), spectral {spectral:.2e} (<=1e-9), "
        f"pathwise {pathwise:.2e} (<1e-8), ode {ode:.2e} (<1e-6), identity {identity:.2e} (<=1e-15)"
    )
    _report("7 property-suite", ok, detail)
    assert ok, detail


def test_criterion_8_cli_determinism(tmp_path):
    def run(name, *argv):
        out = tmp_path / name
        assert main(list(argv) + ["--out", str(out)]) == 0
        return out.read_bytes()

    curve = ("fidelity-curve", "--delta", "20", "--n-grid", "0,2", "--trials", "80", "--seed", "31")
    compare = (
        "continuum-compare", "--delta", "30", "--n-max", "3", "--dt", "0.0005",
        "--trajectories", "30", "--seed", "32",
    )
    ok = (
        run("c1.csv", *curve) == run("c2.csv", *curve) == run("c3.csv", *curve, "--workers", "2")
        and run("m1.csv", *compare) == run("m2.csv", *compare) == run("m3.csv", *compare, "--workers", "2")
    )
    detail = "fidelity-curve and continuum-compare byte-identical across reruns and worker counts"
    _report("8 cli-determinism", ok, detail)
    assert ok, detail


def test_supplementary_sequence_matches_continuum_at_empirical_rate():
    # not an acceptance criterion: locates the continuum agreement that
    # criterion 6 looks for, at the step duration 1/(12 delta^2)
    cfg = settings(10.0)
    paths = hypothetical_purity_paths(300, cfg, 400, seed=601)
    worst = 0.0
    for n in (60, 120, 300):
        measured = paths[:, n].mean()
        worst = max(worst, abs(measured - drift_purity(n / (12.0 * 100.0))))
    detail = f"max |sequence - drift(n / (12 delta^2))| = {worst:.4f} at delta=10 over n in (60, 120, 300)"
    _report("supplementary empirical-calibration", worst <= 0.02, detail)
    assert worst <= 0.02, detail
