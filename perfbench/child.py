"""One benchmark sample: run one workload in this fresh process, then report.

    python3 perfbench/child.py REPORT TRACE cli ARGV...
    python3 perfbench/child.py REPORT TRACE trajectory SEED COUNT

`cli` runs the package's command line with ARGV; `trajectory` runs the
library path of the README, COUNT calls of
`simulate_trajectory(FULLY_MIXED, t_max=1.0, dt=1e-4,
rng=derive_stream(SEED, k), emit_record=True)`.  TRACE is 1 to record
spans (see spans.py) and 0 to run untouched.  The package is imported from
PYTHONPATH, which the harness points at the checkout's `src`.

The JSON written to REPORT holds `work_start`, the time.perf_counter()
reading at the first call into the library's work (the CLI's first
`run_ensemble` call, or the first trajectory), this process's peak
resident memory, the versions used and, when traced, the span summary.
A trajectory sample checks its own paths and reports the time that took
as `check_s`, which the harness takes out of the sample's wall and CPU
time.
perf_counter reads CLOCK_MONOTONIC, so the harness can subtract its own
launch reading from `work_start`.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import struct
import sys
import time

import spans

T_MAX = 1.0
DT = 1e-4


def _mark_first_call(module, name, marks):
    real = getattr(module, name)

    def first(*args, **kwargs):
        marks.setdefault("work_start", time.perf_counter())
        return real(*args, **kwargs)

    setattr(module, name, first)


def _trajectory_checks(paths, steps: int) -> tuple[list, str]:
    """Checks on each README-path trajectory, and a digest of all of them."""
    checks = []
    digest = hashlib.sha256()
    for k, path in enumerate(paths):
        worst_length = 0.0
        finite = True
        times_ok = len(path) == steps + 1
        for i, snap in enumerate(path):
            r = snap.state.bloch
            worst_length = max(worst_length, math.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]))
            finite = finite and snap.record is not None and all(map(math.isfinite, snap.record))
            times_ok = times_ok and abs(snap.time - i * DT) <= 1e-9
            if finite:
                digest.update(struct.pack("<7d", snap.time, *r, *snap.record))
        checks.append([f"trajectory-{k}-snapshots", times_ok,
                       f"{len(path)} snapshots at t = k dt, expected {steps + 1}"])
        checks.append([f"trajectory-{k}-valid-states", worst_length <= 1.0 + 1e-12,
                       f"max |r| = {worst_length!r}"])
        checks.append([f"trajectory-{k}-finite-record", finite, "every record component finite"])
    return checks, digest.hexdigest()


def main(argv) -> int:
    report_path, trace, kind, rest = argv[0], argv[1] == "1", argv[2], argv[3:]

    import numpy
    import unsharp_qubit as uq
    from unsharp_qubit import cli

    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install("unsharp_qubit")
    marks: dict = {}
    report = {"python": platform.python_version(), "numpy": numpy.__version__,
              "package": getattr(uq, "__version__", "unknown")}

    if kind == "cli":
        if hasattr(cli, "run_ensemble"):
            _mark_first_call(cli, "run_ensemble", marks)
        else:
            marks["work_start"] = time.perf_counter()
        code = cli.main(rest)
    elif kind == "trajectory":
        seed, count = int(rest[0]), int(rest[1])
        marks["work_start"] = time.perf_counter()
        paths = [
            uq.simulate_trajectory(uq.FULLY_MIXED, t_max=T_MAX, dt=DT,
                                   rng=uq.derive_stream(seed, k), emit_record=True)
            for k in range(count)
        ]
        checked = time.perf_counter()
        report["checks"], report["digest"] = _trajectory_checks(paths, int(round(T_MAX / DT)))
        report["check_s"] = time.perf_counter() - checked
        code = 0
    else:
        raise SystemExit(f"unknown sample kind {kind!r}")

    report["work_start"] = marks.get("work_start")
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.disable()
        report["trace"] = recorder.summary()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
