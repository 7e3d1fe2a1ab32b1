"""Reduce one traced run to the per-layer metrics and its reconciliation.

Span names recorded by ``run.py``'s patches (daemon only unless noted):

``service.point``          ``SweepService._run_point`` (a point's thread)
``parallel.compute_point`` ``compute_point`` as the service calls it
``parallel.reaped``        ``run_reaped`` as ``compute_with_retry`` calls it
``store.get``/``store.put`` the executor's store or cache (all workloads)
``queue.submit``/``queue.record_point`` the daemon's ``JobQueue``

Client-side times (submit, results in hand) come from the executors'
:class:`JobRecord` s.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from check import is_error
from tracing import Span, Tracer
from workloads import Workload, canonical


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


@dataclass
class TracedRun:
    workload: Workload
    tracer: Tracer
    records: list            # the traced pass's timed JobRecords
    wall_traced: float
    untraced: list           # the untraced pass's timed JobRecords
    wall_untraced: float
    apps_ms: dict            # canonical [kind, spec] -> ms
    counters: dict           # RunReport counters summed over the sample
    counter_points: int
    counter_apps_ms: float   # untraced apps ms of the same sample
    vector_events: int
    vector_points: int
    vector_apps_ms: float
    shares: dict
    setup: dict              # medians of setup_probe fields
    journal_bytes: int = 0
    journal_points: int = 0


def dispatch_gaps(busy: list[Span], ready: list[float],
                  lanes: int) -> list[float]:
    """Idle slot time while a point was pending, per dispatched point.

    Points are replayed in start order onto ``lanes`` slots; each takes
    the slot that freed most recently before it started (the smallest
    gap it could have had), and waits from ``max(slot free, point
    ready)`` to its start.
    """
    free = [float("-inf")] * lanes
    gaps = []
    for span, ready_t in sorted(zip(busy, ready), key=lambda p: p[0].t0):
        usable = [i for i in range(lanes) if free[i] <= span.t0]
        slot = (max(usable, key=lambda i: free[i]) if usable
                else min(range(lanes), key=lambda i: free[i]))
        start = max(free[slot], ready_t)
        gaps.append(max(0.0, span.t0 - start))
        free[slot] = span.t1
    return gaps


def _point_key(kind_spec) -> str:
    return canonical(list(kind_spec))


def layer_metrics(run: TracedRun) -> tuple[dict[str, float], dict]:
    """The per-layer metrics, and the reconciliation parts (ms per
    point: ``e2e`` lane time, each named part, ``unattributed``)."""
    wl, tr = run.workload, run.tracer
    lanes = wl.lanes
    recs = run.records
    points = sum(len(r.job) for r in recs)
    m: dict[str, float] = {
        "import.repro_ms": run.setup["import_repro_ms"],
        "import.workers_ms": run.setup["import_workers_ms"],
        "service.start_ms": run.setup["service_start_ms"],
    }
    self_t = tr.self_times()

    gets = tr.named("store.get")
    hits = [s.dur for s in gets if s.note]
    misses = [s.dur for s in gets if not s.note]
    puts = tr.named("store.put")
    m["store.get_hit_ms"] = _mean(hits) * 1e3
    m["store.get_miss_ms"] = _mean(misses) * 1e3
    m["store.put_ms"] = _mean(s.dur for s in puts) * 1e3
    m["store.hit_ratio"] = len(hits) / len(gets) if gets else 0.0

    m["apps.point_ms"] = _mean(run.apps_ms.values())

    # executor job wall and speed-up over the serial point cost, taken
    # from the untraced pass of the same run
    serial_ms = sum(run.apps_ms.get(_point_key(p), 0.0)
                    for r in run.untraced for p in r.job)
    job_ms = sum((r.t1 - r.t0) * 1e3 for r in run.untraced)
    m["parallel.sweep_ms"] = job_ms / len(run.untraced)
    m["parallel.speedup"] = serial_ms / job_ms if job_ms else 0.0

    gaps_between = [b.t0 - a.t1 for a, b in zip(recs, recs[1:])]
    if wl.executor == "daemon":
        # a job's points are pending once the queue has journaled it
        queued = tr.named("queue.submit")
        submit_at = {s.note: s.t1 for s in queued}
        m["client.submit_ms"] = _mean(r.t_submitted - r.t0
                                      for r in recs) * 1e3
        runs = tr.named("service.point")
        m["service.queue_wait_ms"] = _mean(
            s.t0 - submit_at[s.note] for s in runs) * 1e3
        # compute_point spans: note (kind, spec, attempts); the parent
        # service.point span carries the job id
        busy = tr.named("parallel.compute_point")
        job_of = {s.sid: s.note for s in runs}
        gaps = dispatch_gaps(busy, [submit_at[job_of[s.parent]]
                                    for s in busy], lanes)
        m["service.dispatch_gap_ms"] = _mean(gaps) * 1e3
        m["service.slot_busy_frac"] = (sum(s.dur for s in busy)
                                       / (lanes * run.wall_traced))
        recorded = tr.named("queue.record_point")
        last = {}
        for s in recorded:
            last[s.note] = max(last.get(s.note, 0.0), s.t1)
        lags = [r.t1 - last[r.job_id] for r in recs]
        m["client.result_lag_ms"] = _mean(lags) * 1e3
        m["queue.submit_ms"] = _mean(s.dur for s in queued) * 1e3
        m["queue.record_point_ms"] = _mean(s.dur for s in recorded) * 1e3
        m["queue.journal_bytes_per_point"] = (
            run.journal_bytes / run.journal_points)
        reaped = tr.named("parallel.reaped")
        m["parallel.reaped_ms"] = _mean(s.dur for s in reaped) * 1e3
        # compute_point spans that launched a worker (attempts > 0)
        launched_spans = [s for s in busy if s.note[2] > 0]
        overhead = [s.dur * 1e3 - run.apps_ms.get(_point_key(s.note[:2]), 0.0)
                    for s in launched_spans]
        m["parallel.harness_overhead_ms"] = _mean(overhead)
        attempts = [a for r in recs for a in r.attempts]
        launched = sum(attempts)
        m["parallel.retries"] = float(sum(max(0, a - 1) for a in attempts))
        ok = sum(1 for r in recs for row, a in zip(r.rows, r.attempts)
                 if a > 0 and not is_error(row))
        m["parallel.useful_frac"] = ok / launched if launched else 0.0
        apps_total = sum(run.apps_ms.get(_point_key(s.note[:2]), 0.0)
                         for s in launched_spans)
        parts = {
            "apps": apps_total,
            "harness.parallel": (
                sum(s.dur for s in reaped) * 1e3 - apps_total
                + sum(self_t[s.sid] for s in busy) * 1e3),
            "harness.cache": sum(s.dur for s in gets + puts) * 1e3,
            "harness.queue": sum(s.dur for s in recorded) * 1e3,
            "harness.service": sum(self_t[s.sid] for s in runs) * 1e3,
            "service.dispatch_gap": sum(gaps) * 1e3,
            "client": lanes * 1e3 * (
                sum(r.t_submitted - r.t0 for r in recs) + sum(lags)
                + sum(gaps_between)),
        }
    else:
        for name in ("client.submit_ms", "service.queue_wait_ms",
                     "service.dispatch_gap_ms", "service.slot_busy_frac",
                     "client.result_lag_ms", "queue.submit_ms",
                     "queue.record_point_ms",
                     "queue.journal_bytes_per_point", "parallel.reaped_ms",
                     "parallel.retries"):
            m[name] = 0.0
        per_job = [(r.t1 - r.t0) * 1e3 * lanes
                   - sum(run.apps_ms.get(_point_key(p), 0.0) for p in r.job)
                   for r in recs]
        m["parallel.harness_overhead_ms"] = sum(per_job) / points
        m["parallel.useful_frac"] = sum(
            1 for r in recs for row in r.rows if not is_error(row)) / points
        apps_total = sum(run.apps_ms.get(_point_key(p), 0.0)
                         for r in recs for p in r.job)
        store_ms = sum(s.dur for s in gets + puts) * 1e3
        parts = {
            "apps": apps_total,
            "harness.cache": store_ms * lanes,
            "harness.parallel": (sum((r.t1 - r.t0) for r in recs) * 1e3
                                 - store_ms) * lanes - apps_total,
            "client": lanes * 1e3 * sum(gaps_between),
        }

    # simulator counters, per point of the sample
    c, n = run.counters, max(1, run.counter_points)
    events = c.get("sim.events_fired", 0)
    messages = c.get("mpi.messages", 0)
    m["sim.events"] = events / n
    m["sim.processes"] = c.get("sim.processes", 0) / n
    m["mpi.messages"] = messages / n
    m["ocl.commands"] = sum(v for k, v in c.items()
                            if k.startswith("ocl.cmd.")) / n
    m["clmpi.transfers"] = sum(v for k, v in c.items()
                               if k.startswith("clmpi.transfer.")) / n
    m["net.bytes"] = c.get("net.bytes", 0) / n
    m["sim.events_per_message"] = events / messages if messages else 0.0
    m["sim.host_us_per_event"] = (run.counter_apps_ms * 1e3 / events
                                  if events else 0.0)
    m["vectorized.events"] = run.vector_events / max(1, run.vector_points)
    m["vectorized.host_us_per_event"] = (
        run.vector_apps_ms * 1e3 / run.vector_events
        if run.vector_events else 0.0)

    for group, share in run.shares.items():
        m[f"self.{group}"] = share
    m["trace.overhead_frac"] = run.wall_traced / run.wall_untraced - 1.0

    # reconciliation: lane time per point against its named parts
    lane_ms = run.wall_traced * 1e3 * lanes
    m["unattributed_ms"] = (lane_ms - sum(parts.values())) / points
    per_point = {k: v / points for k, v in parts.items()}
    return m, {"e2e": lane_ms / points, **per_point,
               "unattributed": m["unattributed_ms"]}


def reconciliation_line(wl: Workload, parts: dict) -> str:
    p = dict(parts)
    e2e, rest = p.pop("e2e"), p.pop("unattributed")
    named = " + ".join(f"{k} {v:.3f}" for k, v in p.items())
    return (f"reconcile {wl.name}: lane time per point {e2e:.3f} ms "
            f"({wl.lanes} lane(s)) = {named} + unattributed {rest:.3f}")
