"""Benchmark for unsharp-qubit: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 [--save FILE]

Run from the root of a checkout.  A run is a closed loop of samples for
--seconds seconds, each a fresh Python process (child.py) importing the
package from the checkout's `src`; the first sample, untraced with one
worker, is the reference every other output must equal byte for byte.
With --trace 0 the samples run untouched and the run reports the medians
of the end-to-end metrics.  With --trace 1 traced and untraced samples
alternate and the run reports the per-layer metrics of the traced ones,
plus the tracing overhead.  Every run checks the outputs; the last line of
standard output is the JSON result, the line before it the run's detail
(machine facts, every sample, quartiles, checks).  `all` runs every
workload both ways and prints one table.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import TARGETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "unsharp_qubit" / "__init__.py"
SAMPLE_TIMEOUT_S = 120.0  # a run must end within 180 s even if a sample hangs

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mib": "MiB"}
LAYERS = ("cli", "ensemble", "sequential", "povm", "bloch", "montecarlo", "continuous")
FUNCTION_FIELDS = {"calls": "count", "self_s": "s", "p50_us": "us", "tail_us": "us"}
DERIVED = {
    "sequential.update_us": "us",
    "continuous.batch_step_us": "us",
    "continuous.single_step_us": "us",
    "ensemble.pool_overhead_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, name in TARGETS:
        for field, unit in FUNCTION_FIELDS.items():
            units[f"{module}.{name}.{field}"] = unit
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(DERIVED)
    return units


@dataclass
class Sample:
    traced: bool
    workers: int
    wall: float
    setup: float | None  # launch to the first call into the library's work
    cpu: float
    exit: int | None
    report: dict | None
    output: bytes | None
    load_before: float
    load_after: float
    error: str

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.setup is not None

    @property
    def rss_mib(self) -> float | None:
        return None if self.report is None else self.report["maxrss_kib"] / 1024.0

    def row(self) -> dict:
        return {"traced": self.traced, "workers": self.workers, "wall_s": self.wall,
                "setup_s": self.setup, "cpu_s": self.cpu, "exit": self.exit,
                "peak_rss_mib": self.rss_mib, "load1_before": self.load_before,
                "load1_after": self.load_after, "error": self.error}


def _kill_group(proc: subprocess.Popen):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(tmp: Path, workload, seed: int, traced: bool, workers: int, index: int) -> Sample:
    """Run one sample process and measure it from outside."""
    report_path, out_path, err_path = (tmp / f"{stem}-{index}" for stem in ("report", "out", "err"))
    args = [sys.executable, str(HERE / "child.py"), str(report_path), "1" if traced else "0",
            *workload.sample_args(seed, str(out_path), workers)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    load_before = os.getloadavg()[0]
    usage_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        # its own process group, so a hung or interrupted sample is killed with its pool workers
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, _kill_group, (proc,))
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:  # interrupted: leave no sample running
                _kill_group(proc)
                proc.wait()
        end = time.perf_counter()
    usage_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    load_after = os.getloadavg()[0]
    cpu = (usage_after.ru_utime - usage_before.ru_utime) + (usage_after.ru_stime - usage_before.ru_stime)
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    if workload.kind == "trajectory":
        output = None if report is None else report["digest"].encode()
    else:
        output = out_path.read_bytes() if out_path.exists() else None
    work_start = None if report is None else report.get("work_start")
    setup = None if work_start is None else work_start - start
    check_s = 0.0 if report is None else report.get("check_s", 0.0)
    error = err_path.read_text(errors="replace")[-2000:]
    for path in (report_path, out_path, err_path):
        path.unlink(missing_ok=True)
    return Sample(traced, workers, end - start - check_s, setup, cpu - check_s, code, report,
                  output, load_before, load_after, error)


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": values[0], "q1": q1, "median": statistics.median(values),
            "q3": q3, "max": values[-1]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(reference: Sample) -> dict:
    report = reference.report or {}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": report.get("python", platform.python_version()),
        "numpy": report.get("numpy"),
        "package": report.get("package"),
        "commit": git_commit(),
        "clock": time.get_clock_info("perf_counter").implementation,
    }


def run_checks(workload, samples: list[Sample]) -> tuple[list, dict, list]:
    """Output checks on the reference (the first sample), byte identity with it
    and exact traced counts on every other sample."""
    reference = samples[0]
    checks = [["reference-ran", reference.ok, f"exit {reference.exit}; {reference.error[-300:]}"]]
    excluded = {}
    if reference.ok:
        if workload.kind == "trajectory":
            checks += reference.report["checks"]
        elif reference.output is None:
            checks.append(["reference-output", False, "no output file"])
        else:
            content, excluded = workload.output_checks(reference.output)
            checks += content
    notes = []
    for i, sample in enumerate(samples[1:], 1):
        label = f"sample-{i}{'-traced' if sample.traced else ''}-w{sample.workers}"
        checks.append([f"{label}-ran", sample.ok, f"exit {sample.exit}; {sample.error[-300:]}"])
        if not sample.ok:
            continue
        checks.append([f"{label}-output-identical", sample.output == reference.output,
                       f"byte-identical to the reference run (--workers {reference.workers})"])
        if not sample.traced:
            continue
        trace = sample.report["trace"]
        for key, field, expected in workload.expected:
            entry = trace["functions"].get(key)
            if entry is None:
                notes.append(f"{key} absent: count not checked")
            elif entry["calls"] == 0:
                notes.append(f"{key} not called on this path: count not checked")
            else:
                got = entry[field]
                checks.append([f"{label}-{key}-{field}", got == expected,
                               f"{got} {field}, {expected} from the flags"])
    return checks, excluded, sorted(set(notes))


def end_to_end(workload, samples: list[Sample]) -> dict:
    ok = [s for s in samples if s.ok and not s.traced and s.workers == workload.workers]
    return {
        "wall_s": [s.wall for s in ok],
        "setup_s": [s.setup for s in ok],
        "steps_per_s": [workload.steps / (s.wall - s.setup) for s in ok],
        "cpu_s": [s.cpu for s in ok],
        "peak_rss_mib": [s.rss_mib for s in ok],
    }


def _function(sample: Sample, key: str) -> dict:
    return sample.report["trace"]["functions"].get(key, {})


def _per_step_us(sample: Sample, keys) -> float:
    work = sum(_function(sample, k).get("work") or 0 for k in keys)
    total = sum(_function(sample, k).get("total_s", 0.0) for k in keys)
    return total / work * 1e6 if work else 0.0


def per_layer(workload, samples: list[Sample]) -> dict:
    ok = [s for s in samples if s.ok]
    traced = [s for s in ok if s.traced]
    untraced = [s for s in ok if not s.traced and s.workers == workload.workers]
    values = {}
    for module, name in TARGETS:
        key = f"{module}.{name}"
        for field in FUNCTION_FIELDS:
            values[f"{key}.{field}"] = [_function(s, key).get(field, 0) for s in traced]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = [
            sum(_function(s, f"{m}.{n}").get("self_s", 0.0) for m, n in TARGETS if m == layer)
            for s in traced
        ]
    values["sequential.update_us"] = [
        _per_step_us(s, ("sequential.run_sequence", "sequential.hypothetical_purity_paths"))
        for s in traced
    ]
    values["continuous.batch_step_us"] = [
        _per_step_us(s, ("continuous.simulate_purity_ensemble",)) for s in traced
    ]
    values["continuous.single_step_us"] = [
        _per_step_us(s, ("continuous.simulate_trajectory",)) for s in traced
    ]
    overhead = 0.0
    if workload.workers > 1:
        single = [s.wall - s.setup for s in ok if s.workers == 1]
        pooled = [s.wall - s.setup for s in untraced]
        if single and pooled:
            overhead = statistics.median(pooled) - statistics.median(single) / 2.0
    values["ensemble.pool_overhead_s"] = [overhead]
    values["trace.overhead_s"] = [
        statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in untraced)
    ]
    return values


def run_workload(workload, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run: reference sample, timed samples, checks, metrics."""
    plan = [(False, workload.workers)]
    if trace:
        plan.append((True, workload.workers))
        if workload.workers > 1:
            plan.append((False, 1))
    # write the bytecode caches a first import would write, so no sample pays for them
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        load_start = os.getloadavg()
        deadline = time.perf_counter() + seconds
        samples = [launch(tmp, workload, seed, False, 1, 0)]  # the reference
        while len(samples) <= len(plan) or time.perf_counter() < deadline:
            traced, workers = plan[(len(samples) - 1) % len(plan)]
            samples.append(launch(tmp, workload, seed, traced, workers, len(samples)))
        load_end = os.getloadavg()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks, excluded, notes = run_checks(workload, samples)
    failed = sum(1 for _, ok, _ in checks if not ok)
    units = per_layer_units() if trace else END_TO_END
    usable = [s for s in samples if s.ok and s.workers == workload.workers]
    traced = [s for s in usable if s.traced]
    if not any(not s.traced for s in usable) or (trace and not traced):
        values = {}  # nothing measured to report
    else:
        values = per_layer(workload, samples) if trace else end_to_end(workload, samples)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "facts": machine_facts(samples[0]),
        "load_avg_start": load_start,
        "load_avg_end": load_end,
        "steps_per_sample": workload.steps,
        "step": workload.step_name,
        "quartiles": {name: quartiles(v) for name, v in values.items()},
        "excluded": excluded,
        "count_notes": notes,
        "checks": checks,
        "samples": [s.row() for s in samples],
    }
    if trace and traced:
        first = traced[0]
        detail["absent"] = first.report["trace"]["absent"]
        detail["bound_at"] = first.report["trace"]["bound_at"]
        detail["tail_rank"] = {k: e.get("tail_rank") for k, e in first.report["trace"]["functions"].items()}
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values[name]), "unit": unit}
                    for name, unit in units.items()} if values else {},
    }
    return {"result": result, "detail": detail}


def print_run(run: dict):
    for name, metric in run["result"]["metrics"].items():
        q = run["detail"]["quartiles"][name]
        print(f"{run['detail']['workload']:<10} {name:<44} {metric['value']:>14.6g} {metric['unit']:<6}"
              f" q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']}")
    failed = [c for c in run["detail"]["checks"] if not c[1]]
    for name, _, why in failed:
        print(f"FAILED CHECK {name}: {why}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: write every result and detail here")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not PACKAGE_INIT.is_file():
        print(f"error: {PACKAGE_INIT.relative_to(ROOT)} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2

    if args.workload != "all":
        run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        if not run["result"]["metrics"]:
            print(json.dumps(run["detail"]), file=sys.stderr)
            print("error: no usable sample; nothing to report", file=sys.stderr)
            return 1
        print_run(run)
        print(json.dumps(run["detail"]))
        print(json.dumps(run["result"]))
        return 0

    runs = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            run = run_workload(workload, args.seed, args.seconds, trace)
            runs[f"{name}/trace{int(trace)}"] = run
            print_run(run)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    summary = {
        "correct": all(r["result"]["correct"] for r in runs.values()),
        "attempted": sum(r["result"]["attempted"] for r in runs.values()),
        "failed": sum(r["result"]["failed"] for r in runs.values()),
        "metrics": {f"{key.split('/')[0]}.{name}": metric for key, r in runs.items()
                    if key.endswith("trace0") for name, metric in r["result"]["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
