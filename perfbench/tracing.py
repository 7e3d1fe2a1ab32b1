"""Outside-in tracing for the traced benchmark run.

Nothing under ``src/`` is instrumented.  Instead the benchmark wraps the
program's public entry points *where their caller looks the name up*
(``parallel.run_reaped`` as ``compute_with_retry`` sees it, the daemon's
``store.get`` on the store instance it calls, ...) and records one span
per call: name, start, end, parent span (per thread) and the thread.
Spans stay in memory and are reduced to metrics after the run.

Self-time shares come from a separate cProfile pass with a per-thread
CPU clock, so time a thread spends blocked is not charged to anyone.
"""

from __future__ import annotations

import cProfile
import itertools
import os
import pstats
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    thread: int
    note: Any = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Thread-aware in-memory span recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[tuple, dict, Any], Any]] = None
             ) -> Callable:
        """``fn`` recording a ``name`` span per call; ``note(args,
        kwargs, result)`` attaches what the reduction needs (a spec, a
        hit)."""
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    sid, parent, name, t0, t1, threading.get_ident(),
                    note(args, kwargs, result) if note is not None else None))
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = {}
        for s in self.spans:
            if s.parent:
                child[s.parent] = child.get(s.parent, 0.0) + s.dur
        return {s.sid: s.dur - child.get(s.sid, 0.0) for s in self.spans}


@contextmanager
def patched(targets: list[tuple[Any, str, Callable[[Callable], Callable]]]):
    """Replace ``obj.attr`` with ``make(original)`` for each target and
    restore every one on exit (instance attributes are deleted again, so
    the class method shows through as before)."""
    undo = []
    try:
        for obj, attr, make in targets:
            own = attr in getattr(obj, "__dict__", {})
            original = getattr(obj, attr)
            setattr(obj, attr, make(original))
            undo.append((obj, attr, original, own))
        yield
    finally:
        for obj, attr, original, own in reversed(undo):
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)


# -- self-time shares (cProfile) ---------------------------------------------

#: packages the self-time shares are grouped into, in report order
SELF_GROUPS = ("sim", "sim.vectorized", "mpi", "ocl", "clmpi", "hardware",
               "apps", "harness", "numpy", "other")
_REPRO_GROUPS = {"sim", "mpi", "ocl", "clmpi", "hardware", "apps", "harness"}


def self_group(filename: str, funcname: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        sub = path.rsplit("/repro/", 1)[1]
        if sub.startswith("sim/vectorized"):
            return "sim.vectorized"
        top = sub.split("/", 1)[0]
        return top if top in _REPRO_GROUPS else "other"
    if "/numpy/" in path or "numpy" in funcname:
        return "numpy"
    return "other"


def new_profile() -> cProfile.Profile:
    """A profiler on the calling thread's CPU clock."""
    return cProfile.Profile(time.thread_time)


def profile_to_file(directory: str, fn: Callable, *args):
    """Child-process side: run ``fn`` under a profiler and dump the
    profile into ``directory`` for :meth:`ProfileSet.shares` to merge.
    Module-level so a process pool can pickle it by reference."""
    prof = new_profile()
    prof.enable()
    try:
        return fn(*args)
    finally:
        prof.disable()
        prof.dump_stats(os.path.join(
            directory, f"{os.getpid()}-{time.monotonic_ns()}.prof"))


class ProfileSet:
    """cProfile results gathered from threads and forked processes."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a fresh profiler on this thread."""
        prof = new_profile()
        prof.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            prof.disable()
            with self._lock:
                self._profiles.append(prof)

    def shares(self) -> dict[str, float]:
        """Self CPU time per package as a share of the profiled total."""
        sources = list(self._profiles) + [
            str(p) for p in sorted(self.directory.glob("*.prof"))]
        totals = dict.fromkeys(SELF_GROUPS, 0.0)
        if sources:
            stats = pstats.Stats(sources[0])
            for extra in sources[1:]:
                stats.add(extra)
            for (filename, _line, func), row in stats.stats.items():
                totals[self_group(filename, func)] += row[2]
        whole = sum(totals.values())
        return {g: (t / whole if whole > 0 else 0.0)
                for g, t in totals.items()}
