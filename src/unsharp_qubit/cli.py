"""Command-line driver emitting machine-readable tables for every experiment.

Subcommands:

  fidelity-curve     mean estimate fidelity against sequence length, with
                     the closed-form saturation curve as a reference column
  continuum-compare  step-resolved purity of the measurement sequence vs the
                     integrated continuous equation vs the drift closed form
  validate           fast invariant battery; exit 0 only if all checks pass

Every command is a pure function of its flags plus --seed: rerunning with
the same flags reproduces the output byte for byte at any worker count.
The two table commands take --format, --out and --workers: CSV uses full
round-trip float formatting; JSON wraps the same rows in an envelope
carrying the flags as given, --workers as asked even where fewer children
ran.  --workers above 1 forks one child process per worker, never more than
the CPU count nor the task count (POSIX only), and is refused at parsing
where os.fork is missing.
validate takes only --seed, --delta-list and --quick, and prints a text
report on stdout.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .bloch import FULLY_MIXED
from .continuous import (
    DEFAULT_DT_MAX,
    bloch_sde_step,
    draw_noise,
    drift_purity,
    mean_fidelity_closed_form,
    simulate_purity_ensemble,
    sme_step,
    time_from_steps,
)
from .ensemble import (
    CONTINUUM_COMPARE,
    HYPOTHETICAL_PURITY,
    SEQUENTIAL_FIDELITY,
    ExperimentSpec,
    run_ensemble,
)
from .montecarlo import derive_stream
from .povm import (
    DOMINANT_EIGENSTATE,
    RANDOM_EIGENSTATE,
    MeasurementSettings,
    completeness_defect,
)
from .sequential import _grid, replay_hypothetical, run_sequence, spectral_match


def _number(convert, text: str, accept, expected: str):
    """convert(text) where it converts and `accept` takes it, else a usage error naming what was expected."""
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _number(int, text, lambda v: v >= 1, "a positive integer")


def _worker_count(text: str) -> int:
    value = _positive_int(text)
    if value > 1 and not hasattr(os, "fork"):
        raise argparse.ArgumentTypeError(
            f"{value} workers need os.fork, which this platform lacks; use --workers 1"
        )
    return value


def _seed_value(text: str) -> int:
    return _number(int, text, lambda v: 0 <= v < 2**64, "an integer seed that fits in 64 unsigned bits")


def _precision(text: str) -> float:
    """A measurement precision, refused here as `MeasurementSettings` would refuse it."""
    try:
        return MeasurementSettings(float(text)).precision
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad precision {text!r}: {exc}") from exc


def _step_size(text: str) -> float:
    return _number(float, text, lambda v: 0.0 < v <= DEFAULT_DT_MAX, f"a step dt with 0 < dt <= {DEFAULT_DT_MAX!r}")


def _int_grid(text: str) -> tuple[int, ...]:
    """An n grid, refused here as the samplers would refuse it."""
    try:
        return _grid(tuple(int(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n grid {text!r}: {exc}") from exc


def _precision_list(text: str) -> tuple[float, ...]:
    return tuple(_precision(part) for part in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsharp-qubit",
        description="Monte Carlo qubit estimation from repeated unsharp measurements",
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed_value, default=1, help="master seed (default 1)")
    # the table commands also choose their output and worker count
    table = argparse.ArgumentParser(add_help=False, parents=[seeded])
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    table.add_argument(
        "--workers", type=_worker_count, default=1,
        help="trial workers (default 1, in process); more fork one child process each, "
        "at most one per CPU, POSIX only; the output is the same bytes at any count",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("fidelity-curve", parents=[table], help="fidelity vs sequence length")
    curve.add_argument("--delta", type=_precision, default=20.0, help="measurement precision")
    curve.add_argument("--n-grid", type=_int_grid, default=(0, 2, 5, 10, 20, 40))
    curve.add_argument("--trials", type=_positive_int, default=10_000)
    curve.add_argument(
        "--strategy", choices=(RANDOM_EIGENSTATE, DOMINANT_EIGENSTATE), default=RANDOM_EIGENSTATE
    )
    curve.add_argument("--estimator", choices=("direct", "purity", "both"), default="direct")

    compare = sub.add_parser(
        "continuum-compare", parents=[table], help="sequence vs continuous-equation purity"
    )
    compare.add_argument("--delta", type=_precision, default=20.0)
    compare.add_argument("--n-max", type=_positive_int, default=40)
    compare.add_argument("--dt", type=_step_size, default=1e-4)
    compare.add_argument("--trajectories", type=_positive_int, default=1000)

    validate = sub.add_parser("validate", parents=[seeded], help="fast invariant battery")
    validate.add_argument("--delta-list", type=_precision_list, default=(0.1, 1.0, 10.0))
    validate.add_argument("--quick", action="store_true", help="smaller Monte Carlo sizes")
    return parser


def _meta(args: argparse.Namespace) -> dict:
    flags = {key: value for key, value in sorted(vars(args).items()) if key != "command"}
    return {"command": args.command, "version": __version__, "flags": flags}


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render(columns, rows, args: argparse.Namespace) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        return buf.getvalue()
    payload = {"meta": _meta(args), "columns": list(columns), "rows": [list(r) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def cmd_fidelity_curve(args: argparse.Namespace) -> tuple[tuple[str, ...], list[tuple]]:
    kinds = {"direct": (SEQUENTIAL_FIDELITY,), "purity": (HYPOTHETICAL_PURITY,), "both": (SEQUENTIAL_FIDELITY, HYPOTHETICAL_PURITY)}
    # one estimator gets plain column names; both get theirs prefixed, direct first
    prefixes = ("",) if args.estimator != "both" else ("direct_", "purity_")
    specs = [
        ExperimentSpec(
            kind=kind,
            delta=args.delta,
            trials=args.trials,
            seed=args.seed,
            n_grid=args.n_grid,
            strategy=args.strategy,
        )
        for kind in kinds[args.estimator]
    ]
    stats = run_ensemble(*specs, workers=args.workers)
    columns = ("n", *(f"{p}{c}" for p in prefixes for c in ("mean_F", "std_error")), "closed_form_F")
    rows = [
        (n, *(v for s in stats for v in (s.means[i], s.std_errors[i])), stats[0].reference[i])
        for i, n in enumerate(args.n_grid)
    ]
    return columns, rows


def cmd_continuum_compare(args: argparse.Namespace) -> tuple[tuple[str, ...], list[tuple]]:
    spec = ExperimentSpec(
        kind=CONTINUUM_COMPARE,
        delta=args.delta,
        trials=args.trajectories,
        seed=args.seed,
        n_grid=tuple(range(args.n_max + 1)),
        dt=args.dt,
    )
    (stats,) = run_ensemble(spec, workers=args.workers)
    columns = ("t", "discrete_mean_purity", "sde_mean_purity", "drift_closed_form")
    rows = [
        (stats.grid[i], stats.means[i], stats.sde_means[i], stats.reference[i])
        for i in range(len(stats.grid))
    ]
    return columns, rows


def _validate_checks(deltas, quick: bool, seed: int) -> list[tuple[str, bool, str]]:
    checks = []

    worst = max(completeness_defect(MeasurementSettings(d)) for d in deltas)
    checks.append(("completeness-quadrature", worst < 1e-9, f"max defect {worst:.3e}, tol 1e-9"))

    lengths = (1, 5, 25) if quick else (1, 5, 25, 100, 200)
    worst = 0.0
    for i, n in enumerate(lengths):
        for j, delta in enumerate((1.0, 10.0)):
            settings = MeasurementSettings(delta)
            run = run_sequence(FULLY_MIXED, n, settings, derive_stream(seed, 1000 + 10 * i + j))
            replay = replay_hypothetical(run.outcomes, settings)
            worst = max(worst, spectral_match(run, replay))
    checks.append(("spectral-match", worst <= 1e-9, f"max eigenvalue gap {worst:.3e}, tol 1e-9"))

    steps = 200 if quick else 1000
    rng = derive_stream(seed, 2000)
    state = FULLY_MIXED
    r = state.bloch
    worst = 0.0
    for _ in range(steps):
        noise = draw_noise(rng, 1e-4)
        state = sme_step(state, 1e-4, noise)
        r = bloch_sde_step(r, 1e-4, noise)
        worst = max(worst, max(abs(state.bloch[i] - r[i]) for i in range(3)))
    checks.append(
        ("bloch-vs-matrix-pathwise", worst < 1e-8, f"max divergence {worst:.3e} over {steps} steps, tol 1e-8")
    )

    worst = 0.0
    for delta in (0.5, 3.0, 20.0):
        settings = MeasurementSettings(delta)
        for n in range(0, 200, 7):
            lhs = mean_fidelity_closed_form(n, settings)
            rhs = 1.0 / 3.0 + drift_purity(time_from_steps(n, settings)) / 3.0
            worst = max(worst, abs(lhs - rhs))
    checks.append(("closed-form-identity", worst <= 1e-15, f"max gap {worst:.3e}, tol 1e-15"))

    h = 1e-5
    worst = 0.0
    for t in np.linspace(0.01, 1.0, 34):
        u = 2.0 * drift_purity(float(t)) - 1.0
        slope = (drift_purity(float(t) + h) - drift_purity(float(t) - h)) / h  # d u / dt
        rhs = 4.0 * (1.0 - u) * (3.0 - u)
        worst = max(worst, abs(slope - rhs) / rhs)
    checks.append(("drift-ode-finite-difference", worst < 1e-6, f"max relative error {worst:.3e}, tol 1e-6"))

    trajectories = 100 if quick else 300
    grid = (0.2, 0.4)
    purities = simulate_purity_ensemble(grid, 5e-4, trajectories, seed=seed, base_index=3000)
    worst = max(abs(purities[i].mean() - drift_purity(t)) for i, t in enumerate(grid))
    checks.append(("sde-vs-drift", worst < 0.05, f"max deviation {worst:.3e} over {trajectories} trajectories, tol 0.05"))

    return checks


def cmd_validate(args: argparse.Namespace) -> int:
    checks = _validate_checks(args.delta_list, args.quick, args.seed)
    width = max(len(name) for name, _, _ in checks)
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv=None) -> int:
    """Run one command from argv (default sys.argv[1:]) and return its exit code.

    The first statement is `gc.freeze()`, with no collection before it: every
    object alive at entry, the interpreter's, numpy's and this package's
    import-time objects, moves to CPython's permanent generation, so no later
    collection scans them, not even the interpreter's final ones at exit.
    Objects made after the call are collected as before, and forked workers
    inherit the frozen heap.  In a long-lived caller such as a test runner,
    objects alive at the call are exempt from cyclic collection from then
    on; reference counting still frees them.
    """
    gc.freeze()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "estimator", "direct") != "direct" and args.strategy != RANDOM_EIGENSTATE:
        parser.error(
            f"--estimator {args.estimator} needs --strategy {RANDOM_EIGENSTATE}: the purity "
            "estimator's F = (1 + P)/3 holds for that strategy only"
        )
    try:
        if args.command == "validate":
            return cmd_validate(args)
        if args.command == "fidelity-curve":
            columns, rows = cmd_fidelity_curve(args)
        else:
            columns, rows = cmd_continuum_compare(args)
        _write(_render(columns, rows, args), args.out)
        return 0
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
