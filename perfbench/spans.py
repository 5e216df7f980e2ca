"""Span recorder that wraps the package's public functions in place.

Each target is replaced at every module global bound to it, so a call is
seen through the name the calling module uses (`ensemble.run_sequence`,
`sequential.posterior_update`, `unsharp_qubit.simulate_trajectory`, ...).
Nothing of the program is copied or replayed.  A target the package no
longer defines is reported as absent.

Spans are kept in memory and summarised when the process ends.  A span's
self time is its duration minus the durations of the wrapped calls made
inside it.  Only the process that installed the wrappers records: forked
pool workers inherit pass-through wrappers, so their spans are not
collected.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time

TARGETS = (
    ("cli", "main"),
    ("ensemble", "run_ensemble"),
    ("sequential", "run_sequence"),
    ("sequential", "chain_append"),
    ("sequential", "sequence_estimate"),
    ("sequential", "hypothetical_purity_paths"),
    ("povm", "sample_outcome"),
    ("povm", "make_effect"),
    ("povm", "posterior_update"),
    ("bloch", "random_axis"),
    ("bloch", "random_pure_state"),
    ("montecarlo", "derive_stream"),
    ("continuous", "simulate_purity_ensemble"),
    ("continuous", "simulate_trajectory"),
)


# Kernel steps done by one call, read from its arguments: discrete
# measurement updates for the sequential drivers, trajectory-steps for
# the SDE integrators.
def _sequence_updates(a):
    return int(a["n"])


def _path_updates(a):
    return int(a["n"]) * int(a["trials"])


def _ensemble_steps(a):
    return int(round(float(list(a["t_grid"])[-1]) / a["dt"])) * int(a["trajectories"])


def _trajectory_steps(a):
    return max(1, int(round(a["t_max"] / a["dt"])))


WORK = {
    "sequential.run_sequence": _sequence_updates,
    "sequential.hypothetical_purity_paths": _path_updates,
    "continuous.simulate_purity_ensemble": _ensemble_steps,
    "continuous.simulate_trajectory": _trajectory_steps,
}


def tail_rank(calls: int) -> float:
    """Highest quantile with at least ten samples beyond it, capped at 0.99.

    With ten calls or fewer no such quantile exists and the maximum is used.
    """
    if calls <= 10:
        return 1.0
    return min(0.99, 1.0 - 10.0 / calls)


def quantile(ordered, q: float) -> float:
    """Nearest-rank quantile of an ascending, nonempty sequence."""
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


class _Stat:
    __slots__ = ("durations", "self_s", "work")

    def __init__(self):
        self.durations = []
        self.self_s = 0.0
        self.work = 0


class Recorder:
    """Collects spans for the wrapped functions of one process."""

    def __init__(self):
        self.active = True
        self.stats: dict[str, _Stat] = {}
        self.bound_at: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time of each open span

    def disable(self):
        self.active = False

    def _wrap(self, key, fn, work):
        stat = self.stats[key] = _Stat()
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat.durations.append(span)
                stat.self_s += span - stack.pop()
                if stack:
                    stack[-1] += span
                if work is not None and stat.work is not None:
                    try:
                        stat.work += work(signature.bind(*args, **kwargs).arguments)
                    except (TypeError, KeyError, ValueError, IndexError):
                        stat.work = None  # signature changed: steps unknown

        return traced

    def install(self, package: str):
        """Wrap every target at each of its bindings in the loaded package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, name in TARGETS:
            key = f"{module_name}.{name}"
            owner = sys.modules.get(f"{package}.{module_name}")
            fn = getattr(owner, name, None)
            if not callable(fn):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, fn, WORK.get(key))
            sites = self.bound_at[key] = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        sites.append(f"{module.__name__}.{attr}")
        os.register_at_fork(after_in_child=self.disable)

    def summary(self) -> dict:
        functions = {}
        for key, stat in self.stats.items():
            ordered = sorted(stat.durations)
            calls = len(ordered)
            entry = {"calls": calls, "self_s": stat.self_s, "total_s": math.fsum(ordered)}
            if calls:
                rank = tail_rank(calls)
                entry["p50_us"] = statistics.median(ordered) * 1e6
                entry["tail_us"] = quantile(ordered, rank) * 1e6
                entry["tail_rank"] = rank
            if key in WORK:
                entry["work"] = stat.work
            functions[key] = entry
        return {"functions": functions, "absent": self.absent, "bound_at": self.bound_at}
