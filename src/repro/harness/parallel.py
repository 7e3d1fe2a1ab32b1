"""Deterministic fan-out of independent sweep points.

Every harness artefact (Fig 8/9/10, Table 1, the autotune survey) is a
grid of *independent* simulations, each fully described by a small
JSON-able spec dict.  :func:`sweep` maps a worker over such a grid,
optionally through a :class:`~repro.harness.cache.ResultCache`, and
returns results **in spec order** regardless of completion order — so
a serial run, a parallel run, and a warm-cache run produce
byte-identical reports.

Contract for workers:

* any callable taking one spec dict (pooled workers are forked, so
  only specs and rows cross a pipe);
* returns a JSON-able dict of primitives — no tuples, no objects — so
  the value survives both the pipe hop from a pooled worker and the
  JSON round-trip through the cache without changing shape.

A sweep never dies with its points: a worker that raises — or a worker
process that is killed outright — yields an *error record* (see
:func:`is_error_record`) in that point's slot, and every other point
still completes.  Error records are never written to the cache, so a
repaired run recomputes exactly the failed points.

``sweep -j N``, the sweep service and the federation agents all run
points through :func:`compute_with_retry` on a :class:`WorkerPool`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Optional, Sequence

from repro.harness.cache import ResultCache

__all__ = ["resolve_jobs", "sweep", "measured_sweep",
           "is_error_record", "error_record", "PointTimeout",
           "WorkerDied", "RetryPolicy", "WorkerPool", "run_reaped",
           "compute_with_retry", "compute_point"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count policy: None/0 → one per CPU, else the given count."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return jobs


def error_record(spec: dict, exc: BaseException,
                 message: Optional[str] = None) -> dict:
    """Structured record for a sweep point that could not be computed."""
    return {"sweep_error": {
        "type": type(exc).__name__,
        "message": message if message is not None else str(exc),
        "spec": spec,
    }}


def is_error_record(result: Any) -> bool:
    """True for the error records :func:`sweep` leaves in failed slots."""
    return isinstance(result, dict) and "sweep_error" in result


def sweep(worker: Callable[[dict], Any], specs: Sequence[dict],
          jobs: Optional[int] = None,
          cache: Optional[ResultCache] = None,
          kind: str = "sweep",
          telemetry=None) -> list[Any]:
    """``[worker(s) for s in specs]``, cached, fanned out, crash-proof.

    Cache lookups and stores happen here in the calling thread — pooled
    workers never touch the cache directory, so no locking is needed
    and the hit/miss counters are exact.  ``jobs=1`` (or a one-point
    grid) runs inline with no pool at all; otherwise the points fan out
    over a :class:`WorkerPool` opened for this call, one parent thread
    per slot.  Results are identical either way because each point is
    an isolated simulation.

    A point whose worker raises comes back as an error record instead
    of aborting the sweep; the figure code skips such slots and reports
    a partial result.  A pooled worker that dies is retried once in a
    fresh worker, then leaves a ``WorkerDied`` error record; no other
    point is disturbed.

    ``telemetry`` (a :class:`repro.obs.telemetry.Telemetry`, or None)
    receives the same lifecycle spans the sweep service emits — every
    point goes queued → claimed → running → stored/error, so a serial
    run, a ``-j N`` run, and a daemon job over the same grid produce
    the same span *structure*.  ``None`` (the default) is the zero-cost
    path: not a single extra attribute lookup per point.
    """
    if telemetry is not None:
        telemetry.job_submitted("sweep", kind, len(specs))
    results: list[Any] = [None] * len(specs)
    todo: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(kind, spec)
            if hit is not None:
                results[i] = hit
                continue
        todo.append(i)

    njobs = resolve_jobs(jobs)
    if todo:
        pending = [specs[i] for i in todo]
        if njobs <= 1 or len(todo) == 1:
            computed = []
            for k, spec in enumerate(pending):
                computed.append(_run_one_traced(
                    worker, spec, telemetry, kind, todo[k]))
        else:
            if telemetry is not None:
                # terminal spans are emitted in spec order below —
                # completion order inside the pool is a wall-clock
                # accident the span structure must not record
                for i in todo:
                    telemetry.point_claimed("sweep", i, kind)
                    telemetry.point_running("sweep", i, kind)
            computed = _run_pooled(worker, pending, njobs)
            if telemetry is not None:
                for i, result in zip(todo, computed):
                    telemetry.point_done(
                        "sweep", i, kind,
                        error=is_error_record(result))
        for i, result in zip(todo, computed):
            if cache is not None and not is_error_record(result):
                cache.put(kind, specs[i], result)
            results[i] = result
    if telemetry is not None:
        todo_set = set(todo)
        for i, result in enumerate(results):
            if i not in todo_set:  # warm-cache point: instant lifecycle
                telemetry.point_claimed("sweep", i, kind)
                telemetry.point_running("sweep", i, kind)
                telemetry.point_done("sweep", i, kind,
                                     error=is_error_record(result))
        telemetry.job_done("sweep", kind)
    return results


def _run_one_traced(worker: Callable[[dict], Any], spec: dict,
                    telemetry, kind: str, index: int) -> Any:
    """Inline execution with per-point lifecycle spans."""
    if telemetry is not None:
        telemetry.point_claimed("sweep", index, kind)
        telemetry.point_running("sweep", index, kind)
    result = _run_inline(worker, spec)
    if telemetry is not None:
        telemetry.point_done("sweep", index, kind,
                             error=is_error_record(result))
    return result


def _run_inline(worker: Callable[[dict], Any], spec: dict) -> Any:
    try:
        return worker(spec)
    except Exception as exc:
        return error_record(spec, exc)


def _run_pooled(worker: Callable[[dict], Any], pending: list[dict],
                njobs: int) -> list[Any]:
    """``pending`` on a fresh :class:`WorkerPool`, a thread per slot."""
    computed: list[Any] = [None] * len(pending)
    todo = deque(range(len(pending)))

    def slot() -> None:
        while True:
            try:
                k = todo.popleft()
            except IndexError:
                return
            try:
                computed[k], _ = compute_with_retry(
                    worker, pending[k], _SWEEP_RETRY, pool=pool)
            except Exception as exc:  # e.g. the spec would not pickle
                computed[k] = error_record(pending[k], exc)

    with WorkerPool(min(njobs, len(pending))) as pool:
        threads = [threading.Thread(target=slot, daemon=True)
                   for _ in range(pool.size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return computed


def measured_sweep(worker: Callable[[dict], Any],
                   specs: Sequence[dict],
                   measure: Optional[dict] = None,
                   jobs: Optional[int] = None,
                   cache: Optional[ResultCache] = None,
                   kind: str = "sweep",
                   telemetry=None) -> list[Any]:
    """:func:`sweep` with Hunold & Carpen-Amarie adaptive repetitions.

    ``measure`` is a :class:`~repro.harness.stats.MeasurePolicy` dict
    (``min_reps``/``max_reps``/``target_rel_ci``/``confidence``);
    ``None`` or ``max_reps=1`` delegates straight to :func:`sweep` —
    the zero-cost single-shot path.  Otherwise each point runs its
    repetition loop: rep 0 is the bare spec (shared cache address with
    plain sweeps), later reps are salted via
    :func:`~repro.harness.stats.rep_spec`, and the final row (plus its
    embedded ``report``, when present) carries the ``stats`` record.
    The loop is :func:`compute_point`'s, so rows — and a repetition's
    error record, which fails its point — match the sweep service's.

    Rep 0 of every point fans out as a plain :func:`sweep`; later reps
    run inline, each cached individually, so a warm rerun replays the
    identical samples (determinism: the stats of a rerun are
    byte-identical).
    """
    from repro.harness.stats import MeasurePolicy
    policy = MeasurePolicy.from_dict(measure)
    results = sweep(worker, specs, jobs=jobs, cache=cache, kind=kind,
                    telemetry=telemetry)
    if policy.single_shot:
        return results

    def one(salted: dict) -> tuple[Any, int]:
        return sweep(worker, [salted], jobs=1, cache=cache, kind=kind)[0], 0

    return [_repeat(one, spec, policy, first=(base, 0))[0]
            for spec, base in zip(specs, results)]


def _repeat(one: Callable[[dict], tuple[Any, int]], spec: dict, policy,
            first: Optional[tuple[Any, int]] = None) -> tuple[Any, int]:
    """The Hunold & Carpen-Amarie adaptive-measurement loop for one
    point, shared by :func:`measured_sweep` and :func:`compute_point`.

    ``one(rep_spec)`` computes one repetition as ``(row, attempts)``;
    ``first`` is rep 0's outcome when the caller already has it.  An
    error record from any repetition fails the point, and a row with
    nothing measurable is delivered plain.  Returns ``(row, attempts)``
    with the worst per-rep launch count.
    """
    from repro.harness.stats import (rep_spec, sample_of, should_stop,
                                     summarize_samples)
    samples: list[float] = []
    base: Optional[dict] = None
    attempts_total = 0
    rep = 0
    while True:
        if rep == 0 and first is not None:
            result, attempts = first
        else:
            result, attempts = one(rep_spec(spec, rep))
        attempts_total = max(attempts_total, attempts)
        if is_error_record(result):
            return result, attempts_total
        sample = sample_of(result)
        if sample is None:
            # nothing measurable in this worker's rows: stats are
            # impossible, deliver the plain result
            return result, attempts_total
        if rep == 0:
            base = result
        samples.append(sample)
        rep += 1
        if should_stop(samples, policy):
            break
    final = dict(base)
    stats = summarize_samples(samples, policy.confidence)
    final["stats"] = stats
    if isinstance(final.get("report"), dict):
        report = dict(final["report"])
        report["stats"] = stats
        final["report"] = report
    return final, attempts_total


# ---------------------------------------------------------------------------
# reapable single-point execution (the sweep service's unit of work)
# ---------------------------------------------------------------------------
class PointTimeout(Exception):
    """A sweep point overran its wall-clock budget and was reaped."""


class WorkerDied(Exception):
    """The point's worker process exited without producing a result
    (killed from outside, or it crashed the interpreter)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff knobs for one point's execution.

    ``timeout_s=None`` disables reaping (a point may run forever);
    ``retries`` counts *additional* attempts after the first, taken only
    for infrastructure failures (timeout, killed worker) — a worker that
    raises an ordinary exception fails deterministically and is never
    retried.  The delay before attempt *k* (0-based retry index) is
    ``min(backoff_cap_s, backoff_s * 2**k)``.
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.1
    backoff_cap_s: float = 5.0

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff_s and backoff_cap_s must be >= 0")

    def delay(self, retry_index: int) -> float:
        return min(self.backoff_cap_s, self.backoff_s * (2 ** retry_index))


#: ``sweep -j N``'s policy: no deadline, and one retry in a fresh worker
#: for a point whose worker died
_SWEEP_RETRY = RetryPolicy(timeout_s=None, retries=1, backoff_s=0)


def _point_child(worker: Callable[[dict], Any], spec: dict, conn) -> None:
    """Worker-process body for one point: compute it, ship the outcome
    back over ``conn`` (which stays open for the next point)."""
    # Local alias: this is a multiprocessing pipe, not a simulation
    # coroutine — the alias also keeps the self-lint (CLM001) focused on
    # real sim-API misuse.
    ship = conn.send
    try:
        ship(("ok", worker(spec)))
    except Exception as exc:
        ship(("error", error_record(spec, exc)))


#: parent-side pipe ends of every live pooled worker in this process.  A
#: freshly forked worker closes them all — its own included — so each
#: worker's pipe reaches EOF the moment its real parent is gone.
_PARENT_ENDS: set[Any] = set()

#: held from a worker's pipe creation until the parent closed its copy
#: of the child end, so no other pooled fork inherits a pipe end that is
#: not yet in :data:`_PARENT_ENDS` (or a sentinel not yet closed)
_FORK_LOCK = threading.Lock()

#: how often an idle worker checks that its parent is still the one
#: that forked it (EOF on the pipe is the fast path; this is the net)
_ORPHAN_CHECK_S = 0.5


def _worker_loop(point_child: Callable, worker: Callable[[dict], Any],
                 conn, parent_pid: int) -> None:
    """Pooled-worker body: ``point_child(worker, spec, conn)`` for every
    spec the parent sends, until the pipe reaches EOF or the parent that
    forked this process is gone."""
    # the parent's handlers are not ours: a daemon's SIGTERM drain run
    # here would rewrite its journal from this process's stale copy
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    for end in list(_PARENT_ENDS):
        end.close()
    while True:
        if not conn.poll(_ORPHAN_CHECK_S):
            if os.getppid() != parent_pid:
                return
            continue
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        point_child(worker, spec, conn)


class _Worker:
    """Parent-side handle on one pooled worker process."""

    __slots__ = ("proc", "conn", "binding")

    def __init__(self, binding: tuple):
        ctx = multiprocessing.get_context()
        self.binding = binding
        with _FORK_LOCK:
            self.conn, child = ctx.Pipe()
            self.proc = ctx.Process(
                target=_worker_loop,
                args=(binding[0], binding[1], child, os.getpid()),
                daemon=True)
            _PARENT_ENDS.add(self.conn)
            try:
                self.proc.start()
            except BaseException:
                _PARENT_ENDS.discard(self.conn)
                self.conn.close()
                raise
            finally:
                child.close()

    def close(self, kill: bool = False) -> None:
        """Retire the worker: EOF on its pipe (or SIGKILL), then join."""
        _PARENT_ENDS.discard(self.conn)
        if kill:
            self.proc.kill()
        self.conn.close()
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - ignored its EOF
            self.proc.kill()
            self.proc.join()


class WorkerPool:
    """Persistent forked point workers, at most ``size`` kept alive.

    A worker is forked on first demand and bound for life to the
    ``(parallel._point_child, worker)`` pair its parent resolved at
    fork time; :meth:`checkout` hands it out again only while the parent
    still resolves the same pair, so the code a pooled worker runs is
    exactly what a fresh per-point fork would run — only specs and rows
    cross its pipe.  A worker that timed out or died is discarded (and
    counted in :attr:`reaps`); every other worker survives its point.

    The owner — the sweep service (``size=jobs``) or a federation agent
    (``size=slots``) — calls :meth:`close` to join the idle workers;
    a busy worker is joined by the thread running it when it finishes.
    """

    def __init__(self, size: int = 1):
        self.size = max(1, int(size))
        self._idle: list[_Worker] = []
        self._busy: set = set()
        self._lock = threading.Lock()
        self._closed = False
        #: workers forked, and workers discarded per reason
        self.starts = 0
        self.reaps = {"timeout": 0, "died": 0}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def pids(self) -> list[int]:
        """Process ids of every live worker, idle or busy."""
        with self._lock:
            return sorted(w.proc.pid for w in [*self._idle, *self._busy])

    def stats(self) -> dict:
        """Lifecycle counters and live workers (the service's ``stats``
        op reports this as ``worker_pool``)."""
        pids = self.pids()
        return {"size": self.size, "live": len(pids), "pids": pids,
                "starts": self.starts, "reaps": dict(self.reaps)}

    def checkout(self, binding: tuple) -> _Worker:
        """An idle worker bound to ``binding``, else a freshly forked
        one (retiring an idle worker with a stale binding if the pool
        is full)."""
        dead: list[_Worker] = []
        with self._lock:
            found = None
            for w in reversed(self._idle):
                if w.binding == binding:
                    if w.proc.is_alive():
                        found = w
                        break
                    dead.append(w)  # killed from outside while idle
            for w in dead:
                self._idle.remove(w)
                self.reaps["died"] += 1
            if found is not None:
                self._idle.remove(found)
                self._busy.add(found)
            else:
                if self._idle and \
                        len(self._idle) + len(self._busy) >= self.size:
                    dead.append(self._idle.pop(0))
                self.starts += 1
        for w in dead:
            w.close()
        if found is not None:
            return found
        fresh = _Worker(binding)
        with self._lock:
            self._busy.add(fresh)
        return fresh

    def checkin(self, w: _Worker) -> None:
        """Return a worker that delivered its point's outcome."""
        with self._lock:
            self._busy.discard(w)
            keep = (not self._closed and
                    len(self._idle) + len(self._busy) < self.size)
            if keep:
                self._idle.append(w)
        if not keep:
            w.close()

    def discard(self, w: _Worker, reason: str) -> None:
        """Kill and join a worker that timed out or died mid-point."""
        with self._lock:
            self._busy.discard(w)
            self.reaps[reason] += 1
        w.close(kill=True)

    def close(self) -> None:
        """Join every idle worker; later checkins join theirs."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for w in idle:
            w.close()


def run_reaped(worker: Callable[[dict], Any], spec: dict,
               timeout_s: Optional[float] = None,
               pool: Optional[WorkerPool] = None) -> Any:
    """One point in a reapable worker process with a hard wall-clock
    deadline.

    The point runs in an idle worker of ``pool`` (or a freshly forked
    one; with no pool, in a one-point pool of its own).  Returns the
    worker's result (or its error record, if it raised).  A point still
    running at the deadline has its worker SIGKILLed and raises
    :class:`PointTimeout`; a worker that dies without reporting (killed
    from outside, interpreter crash) raises :class:`WorkerDied`.  Either
    way only that worker is discarded — a hung worker can never hang
    the caller, and a poisoned one can never serve another point.
    """
    if pool is None:
        with WorkerPool(1) as own:
            return _run_in_pool(own, worker, spec, timeout_s)
    return _run_in_pool(pool, worker, spec, timeout_s)


def _run_in_pool(pool: WorkerPool, worker: Callable[[dict], Any],
                 spec: dict, timeout_s: Optional[float]) -> Any:
    w = pool.checkout((_point_child, worker))
    try:
        outcome, payload = _await_point(w, spec, timeout_s)
    except BaseException:  # the caller was interrupted: state unknown
        pool.discard(w, "died")
        raise
    if outcome == "ok":
        pool.checkin(w)
        return payload
    pool.discard(w, outcome)
    if outcome == "timeout":
        raise PointTimeout(
            f"point exceeded its {timeout_s}s budget and was reaped")
    raise WorkerDied(f"worker exited (code {w.proc.exitcode}) without "
                     "a result")


def _await_point(w: _Worker, spec: dict,
                 timeout_s: Optional[float]) -> tuple[str, Any]:
    """Send ``spec`` to ``w`` and wait for its outcome: ``("ok", row)``,
    ``("timeout", None)`` at the deadline, or ``("died", None)``."""
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    post = w.conn.send  # a pipe, not a coroutine (see _point_child)
    try:
        post(spec)
    except OSError:
        pass  # the worker is gone: the wait below sees it exit
    while True:
        # a result or an exit wakes us at once; the 0.1 s slice is a
        # net for a sentinel inherited by a fork outside this module
        wait_s = 0.1 if deadline is None else \
            min(0.1, max(0.0, deadline - time.monotonic()))
        ready = mp_connection.wait([w.conn, w.proc.sentinel], wait_s)
        if w.conn in ready or w.conn.poll(0):
            try:
                return "ok", w.conn.recv()[1]
            except (EOFError, OSError):
                return "died", None
        if ready or not w.proc.is_alive():
            return "died", None
        if deadline is not None and time.monotonic() >= deadline:
            return "timeout", None


def compute_with_retry(worker: Callable[[dict], Any], spec: dict,
                       policy: RetryPolicy,
                       sleep: Callable[[float], None] = time.sleep,
                       on_failure: Optional[
                           Callable[[str, int, bool], None]] = None,
                       pool: Optional[WorkerPool] = None
                       ) -> tuple[Any, dict]:
    """Run one point under ``policy``; returns ``(result, meta)``.

    ``meta`` records ``attempts`` (total launches) and ``failures``
    (the infrastructure failures that forced each retry: ``"timeout"``
    or ``"died"``).  After the retry budget is spent the point comes
    back as an error record — never an exception, and never a hang:
    this is the graceful-degradation contract the sweep service builds
    on.  Deterministic worker errors (error records) return on the
    first attempt, unretried.

    ``on_failure(failure, attempt, will_retry)`` — when given — fires
    after each reaped attempt (``failure`` is ``"timeout"`` or
    ``"died"``, ``attempt`` is 1-based), letting the caller emit
    reaped/retried telemetry spans without polling.  Callback errors
    are swallowed: observability must never change a point's outcome.

    Every attempt runs in a worker of ``pool`` (see :class:`WorkerPool`);
    a reaped attempt discards only its own worker, so the retry lands
    in a fresh one.
    """
    failures: list[str] = []
    for attempt in range(policy.retries + 1):
        try:
            result = run_reaped(worker, spec, policy.timeout_s, pool=pool)
        except PointTimeout:
            failures.append("timeout")
        except WorkerDied:
            failures.append("died")
        else:
            return result, {"attempts": attempt + 1, "failures": failures}
        if on_failure is not None:
            try:
                on_failure(failures[-1], attempt + 1,
                           attempt < policy.retries)
            except Exception:
                pass
        if attempt < policy.retries:
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)
    kinds = ", ".join(failures)
    record = error_record(
        spec, PointTimeout(kinds),
        f"point failed {len(failures)} attempt(s) ({kinds}) and "
        "exhausted its retry budget")
    record["sweep_error"]["type"] = \
        "PointTimeout" if failures[-1] == "timeout" else "WorkerDied"
    return record, {"attempts": policy.retries + 1, "failures": failures}


def compute_point(worker: Callable[[dict], Any], spec: dict,
                  policy: RetryPolicy,
                  measure: Optional[dict] = None,
                  store=None, kind: str = "sweep",
                  on_failure: Optional[Callable] = None,
                  pool: Optional[WorkerPool] = None
                  ) -> tuple[Any, int]:
    """One sweep point end-to-end: store lookup, reaped execution with
    retry/backoff, and — when ``measure`` asks for repetitions — the
    Hunold & Carpen-Amarie adaptive-measurement loop.

    Returns ``(result, attempts)`` where ``attempts`` is the worst
    per-rep launch count (0 for a pure store hit).  This is the shared
    unit of work behind both the sweep service's local executor and the
    federation agents (:mod:`repro.harness.federation`): the daemon
    passes its :class:`~repro.harness.cache.SharedStore`, an agent
    passes ``store=None`` and lets the coordinator arbitrate storage —
    either way the computed rows are byte-identical.  Each passes its
    own :class:`WorkerPool`, so a point runs in a warm worker.
    """
    from repro.harness.stats import MeasurePolicy

    def one(point_spec: dict) -> tuple[Any, int]:
        if store is not None:
            cached = store.get(kind, point_spec)
            if cached is not None:
                return cached, 0
        result, meta = compute_with_retry(worker, point_spec, policy,
                                          on_failure=on_failure,
                                          pool=pool)
        if store is not None and not is_error_record(result):
            store.put(kind, point_spec, result)
        return result, meta["attempts"]

    policy_m = MeasurePolicy.from_dict(measure)
    if policy_m.single_shot:
        # the zero-cost path: no sampling, no stats arithmetic
        return one(spec)
    return _repeat(one, spec, policy_m)
