import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unsharp_qubit
import unsharp_qubit.continuous as continuous
from unsharp_qubit.cli import main

CALIBRATION_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="the closed-form reference curve advances time by 12/precision^2 per "
    "measurement while the simulated sequence matches the continuous equation at "
    "1/(12 precision^2) per measurement; quantified in test_acceptance.py",
)


def run_cli(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes()


def read_rows(blob):
    lines = blob.decode().splitlines()
    reader = csv.reader(lines)
    header = next(reader)
    return header, [row for row in reader]


def test_fidelity_curve_zero_row(tmp_path):
    code, blob = run_cli(
        tmp_path, "curve.csv",
        "fidelity-curve", "--delta", "20", "--n-grid", "0", "--trials", "100", "--seed", "3",
    )
    assert code == 0
    header, rows = read_rows(blob)
    assert header == ["n", "mean_F", "std_error", "closed_form_F"]
    assert [float(v) for v in rows[0]] == [0.0, 0.5, 0.0, 0.5]


def test_csv_round_trips_floats(tmp_path):
    code, blob = run_cli(
        tmp_path, "curve.csv",
        "fidelity-curve", "--delta", "20", "--n-grid", "0,2", "--trials", "150", "--seed", "4",
    )
    assert code == 0
    _, rows = read_rows(blob)
    for row in rows:
        for cell in row[1:]:
            assert repr(float(cell)) == cell


def test_json_envelope(tmp_path):
    code, blob = run_cli(
        tmp_path, "curve.json",
        "fidelity-curve", "--delta", "20", "--n-grid", "0,2", "--trials", "80",
        "--seed", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(blob)
    assert payload["meta"]["command"] == "fidelity-curve"
    assert payload["meta"]["flags"]["seed"] == 5
    assert payload["meta"]["flags"]["trials"] == 80
    assert payload["columns"][0] == "n"
    assert len(payload["rows"]) == 2


def test_rerun_is_byte_identical(tmp_path):
    args = ("fidelity-curve", "--delta", "20", "--n-grid", "0,3", "--trials", "120", "--seed", "7")
    _, first = run_cli(tmp_path, "a.csv", *args)
    _, second = run_cli(tmp_path, "b.csv", *args)
    assert first == second


def test_worker_count_is_byte_identical(tmp_path):
    # a real pool: each worker runs every workers-th task of both estimators
    base = ("fidelity-curve", "--delta", "20", "--n-grid", "0,3,5", "--trials", "90", "--seed", "8",
            "--estimator", "both")
    one, two, three = (run_cli(tmp_path, f"w{w}.csv", *base, "--workers", str(w))[1] for w in (1, 2, 3))
    assert one == two == three


def test_estimator_both_columns(tmp_path):
    code, blob = run_cli(
        tmp_path, "both.csv",
        "fidelity-curve", "--delta", "20", "--n-grid", "0,2", "--trials", "60",
        "--seed", "9", "--estimator", "both",
    )
    assert code == 0
    header, rows = read_rows(blob)
    assert header == [
        "n", "direct_mean_F", "direct_std_error", "purity_mean_F", "purity_std_error", "closed_form_F",
    ]
    assert [float(v) for v in rows[0]] == [0.0, 0.5, 0.0, 0.5, 0.0, 0.5]


@CALIBRATION_XFAIL
def test_fidelity_curve_matches_reference_at_depth(tmp_path):
    code, blob = run_cli(
        tmp_path, "sat.csv",
        "fidelity-curve", "--delta", "20", "--n-grid", "40", "--trials", "3000",
        "--seed", "10", "--estimator", "purity",
    )
    assert code == 0
    _, rows = read_rows(blob)
    mean, reference = float(rows[0][1]), float(rows[0][3])
    assert abs(mean - reference) <= 0.005


def test_continuum_compare_table(tmp_path):
    code, blob = run_cli(
        tmp_path, "cmp.csv",
        "continuum-compare", "--delta", "30", "--n-max", "4", "--dt", "0.0005",
        "--trajectories", "40", "--seed", "11",
    )
    assert code == 0
    header, rows = read_rows(blob)
    assert header == ["t", "discrete_mean_purity", "sde_mean_purity", "drift_closed_form"]
    assert len(rows) == 5
    first = [float(v) for v in rows[0]]
    assert first == [0.0, 0.5, 0.5, 0.5]
    cfg_t = 12.0 * 4 / 30.0**2
    assert float(rows[4][0]) == pytest.approx(cfg_t, rel=1e-12)
    for row in rows:
        t = float(row[0])
        assert float(row[3]) == pytest.approx(continuous.drift_purity(t), rel=1e-12)


@CALIBRATION_XFAIL
def test_continuum_compare_columns_agree(tmp_path):
    code, blob = run_cli(
        tmp_path, "cmp_deep.csv",
        "continuum-compare", "--delta", "30", "--n-max", "30", "--dt", "0.001",
        "--trajectories", "60", "--seed", "12",
    )
    assert code == 0
    _, rows = read_rows(blob)
    for row in rows:
        _, discrete, sde, drift = (float(v) for v in row)
        assert math.isclose(discrete, sde, abs_tol=0.02)
        assert math.isclose(discrete, drift, abs_tol=0.02)


def test_validate_passes_by_default(capsys):
    assert main(["validate", "--quick", "--seed", "13"]) == 0
    out = capsys.readouterr().out
    assert "all 6 checks passed" in out
    assert "FAIL" not in out


def _check_statuses(text):
    statuses = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("PASS", "FAIL"):
            statuses[parts[0]] = parts[1]
    return statuses


def test_validate_delta_list(capsys):
    assert main(["validate", "--quick", "--delta-list", "0.1,1,10", "--seed", "14"]) == 0
    statuses = _check_statuses(capsys.readouterr().out)
    assert statuses["completeness-quadrature"] == "PASS"


def test_validate_detects_injected_noise_fault(monkeypatch, capsys):
    # twice the noise in the matrix reference step and in the ensemble's length chain
    euler, length_noise = continuous._euler_density, continuous._length_noise

    def doubled_noise(streams, steps, dt):
        for two_as, eight_b2s in length_noise(streams, steps, dt):
            yield 2.0 * two_as, 4.0 * eight_b2s

    monkeypatch.setattr(continuous, "_euler_density", lambda rho, d_w, dt: euler(rho, 2.0 * np.asarray(d_w), dt))
    monkeypatch.setattr(continuous, "_length_noise", doubled_noise)
    assert main(["validate", "--quick", "--seed", "15"]) == 1
    statuses = _check_statuses(capsys.readouterr().out)
    assert statuses["bloch-vs-matrix-pathwise"] == "FAIL"
    assert statuses["sde-vs-drift"] == "FAIL"
    assert statuses["spectral-match"] == "PASS"  # SDE noise does not enter the discrete replays


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["fidelity-curve", "--delta", "-3"])
    assert err.value.code == 2
    for grid in ("5,2", "5,5", "0,2,2,5"):  # a repeated n would print two rows for one n
        with pytest.raises(SystemExit) as err:
            main(["fidelity-curve", "--n-grid", grid])
        assert err.value.code == 2
    # the purity estimator estimates the random-eigenstate fidelity only
    for estimator in ("purity", "both"):
        with pytest.raises(SystemExit) as err:
            main(["fidelity-curve", "--estimator", estimator, "--strategy", "dominant-eigenstate"])
        assert err.value.code == 2
    # refused at parsing, before the discrete half of the comparison runs
    with pytest.raises(SystemExit) as err:
        main(["continuum-compare", "--dt", "0.01"])
    assert err.value.code == 2
    # non-finite values are refused at parsing too, not inside the settings
    with pytest.raises(SystemExit) as err:
        main(["fidelity-curve", "--delta", "inf"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["validate", "--delta-list", "nan"])
    assert err.value.code == 2
    # validate prints its report and reads no output or worker flags
    for flags in (["--format", "json"], ["--out", "x"], ["--workers", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["validate", *flags])
        assert err.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_cli_import_leaves_the_process_pool_unloaded():
    # the workers are forked children fed by pipes: no pool module is imported, even with 2 workers
    src = str(Path(unsharp_qubit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import os, sys; from unsharp_qubit.cli import main; "
        "code = main(['fidelity-curve', '--n-grid', '0,2', '--trials', '20', '--workers', '2', "
        "'--out', os.devnull]); "
        "print(code, *(name in sys.modules for name in ('concurrent.futures', 'multiprocessing')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0 False False"


def test_workers_need_fork(monkeypatch, capsys):
    # refused at parsing, so no process is started; one worker needs no fork
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SystemExit) as err:
        main(["fidelity-curve", "--workers", "2"])
    assert err.value.code == 2
    assert "2 workers need os.fork" in capsys.readouterr().err
    assert main(["fidelity-curve", "--n-grid", "0", "--trials", "3", "--workers", "1", "--out", os.devnull]) == 0
