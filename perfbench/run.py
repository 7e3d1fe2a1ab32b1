"""The repository benchmark: seeded closed-loop sweeps, end to end and
layer by layer (see ``README.md`` in this directory).

    python3 perfbench/run.py --workload fig8-daemon --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` times the workload with
nothing patched and prints the end-to-end metrics; ``--trace 1`` runs
the traced passes and prints the per-layer metrics.  Either way every
simulated row goes through the correctness gate, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (``correct`` is false when a point failed
the gate).  Exits 2 without a result when the program under ``src/`` is
missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS, Workload  # noqa: E402

#: jobs run on each fresh executor before anything is timed
WARMUP_JOBS = 2
#: the row digest covers this prefix of the job stream
DIGEST_JOBS = 40
#: fresh interpreters whose median set-up time is reported
SETUP_PROBES = 7
#: jobs of the cProfile pass (after its own warm-up)
PROFILE_JOBS = 4
#: points rerun with a RunReport (or a vectorized event count) per run
COUNTER_POINTS = 12


def run_loop(executor, jobs, seconds: float, max_jobs: int):
    """Closed loop, one client: each job is sent when the last is done.

    ``jobs`` is an iterator (stop after ``seconds`` or ``max_jobs``) or
    a list (run exactly those).  Returns (jobs run, wall seconds).
    """
    done = []
    fixed = isinstance(jobs, list)
    start = time.perf_counter()
    for job in jobs:
        executor.run_job(job)
        done.append(job)
        if not fixed and (time.perf_counter() - start >= seconds
                          or len(done) >= max_jobs):
            break
    return done, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_probes(wl: Workload, work: Path, reps: int) -> dict:
    """Median of each set-up field over ``reps`` fresh interpreters."""
    samples = []
    for i in range(reps):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             wl.executor, str(work / f"probe-{i}")],
            check=True, capture_output=True, text=True, timeout=60)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def print_digest(wl: Workload, seed: int, records) -> None:
    from check import rows_digest

    jobs, digest = rows_digest(records, DIGEST_JOBS)
    print(f"rows-digest {wl.name} seed={seed} jobs={jobs} sha256={digest}")


def end_to_end(wl: Workload, seed: int, seconds: float, max_jobs: int,
               work: Path, probes: int):
    from check import (GateResult, count_errors, cross_engine_check,
                       oracle_check)
    from executors import make_executor

    stream = wl.jobs(seed)
    ex = make_executor(wl.executor, work / "e2e", wl.lanes)
    try:
        for _ in range(WARMUP_JOBS):
            ex.run_job(next(stream))
        jobs, wall = run_loop(ex, stream, seconds, max_jobs)
    finally:
        ex.close()
    rss = peak_rss_mb()
    timed = ex.records[WARMUP_JOBS:]
    latencies = [(r.t1 - r.t0) * 1e3 for r in timed]
    points = sum(len(j) for j in jobs)

    gate = GateResult()
    if wl.executor == "serial":
        count_errors(ex.records, gate)
        cross_engine_check(seed, gate)
    else:
        oracle_check(ex.records, gate)
    print_digest(wl, seed, ex.records)
    setup = setup_probes(wl, work, probes)
    p90 = (statistics.quantiles(latencies, n=10)[8]
           if len(latencies) >= 2 else latencies[0])
    print(f"{wl.name}: {len(jobs)} jobs, {points} points in {wall:.2f} s; "
          f"error_rate {gate.failed / gate.attempted:.4f} "
          f"({gate.failed}/{gate.attempted})")
    metrics = {
        "setup_s": setup["setup_s"],
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": p90,
        "points_per_s": points / wall,
        "peak_rss_mb": rss,
    }
    return gate, metrics


def trace_targets(ex, tracer):
    """Patches for the traced pass, each where its caller looks it up."""
    from repro.harness import parallel
    from repro.harness import service as service_mod

    store = ex.service.store if hasattr(ex, "service") else ex.cache
    targets = [
        (store, "get", lambda f: tracer.wrap(
            "store.get", f, lambda a, k, r: r is not None)),
        (store, "put", lambda f: tracer.wrap("store.put", f)),
    ]
    if hasattr(ex, "service"):
        svc = ex.service
        targets += [
            (svc, "_run_point", lambda f: tracer.wrap(
                "service.point", f, lambda a, k, r: a[1])),
            (service_mod, "compute_point", lambda f: tracer.wrap(
                "parallel.compute_point", f,
                lambda a, k, r: (k.get("kind"), a[1], r[1]))),
            (parallel, "run_reaped", lambda f: tracer.wrap(
                "parallel.reaped", f)),
            (svc.queue, "submit", lambda f: tracer.wrap(
                "queue.submit", f, lambda a, k, r: r.job_id)),
            (svc.queue, "record_point", lambda f: tracer.wrap(
                "queue.record_point", f, lambda a, k, r: a[0])),
        ]
    return targets


def counter_sample(apps_ms: dict) -> dict:
    """Simulator counts for up to COUNTER_POINTS computed points.

    Coroutine points are rerun with ``obs=True`` and their RunReport
    counters summed; vectorized points are rerun while every
    ``VectorEngine`` they create is collected, for its event count.
    """
    from repro.sim import vectorized
    from executors import worker_for
    from tracing import patched

    out = {"counters": {}, "counter_points": 0, "counter_apps_ms": 0.0,
           "vector_events": 0, "vector_points": 0, "vector_apps_ms": 0.0}
    engines: list = []

    def collecting(cls):
        class Collected(cls):
            def __init__(self, env):
                super().__init__(env)
                engines.append(self)
        return Collected

    for key in sorted(apps_ms)[:COUNTER_POINTS]:
        kind, spec = json.loads(key)
        worker = worker_for(kind)
        if spec.get("engine") == "vectorized":
            engines.clear()
            with patched([(vectorized, "VectorEngine", collecting)]):
                worker(spec)
            out["vector_events"] += sum(e.events for e in engines)
            out["vector_points"] += 1
            out["vector_apps_ms"] += apps_ms[key]
        else:
            report = worker(dict(spec, obs=True))["report"]
            for name, value in report["metrics"]["counters"].items():
                out["counters"][name] = out["counters"].get(name, 0) + value
            out["counter_points"] += 1
            out["counter_apps_ms"] += apps_ms[key]
    return out


def profile_pass(wl: Workload, warm, jobs, work: Path) -> dict:
    """cProfile self-time shares over every thread and process that
    computes the workload's points (see tracing.ProfileSet)."""
    from repro.harness import parallel
    from executors import make_executor
    from tracing import ProfileSet, patched, profile_to_file

    profiles = ProfileSet(work / "profiles")
    into_file = functools.partial(functools.partial, profile_to_file,
                                  str(profiles.directory))
    ex = make_executor(wl.executor, work / "profile", wl.lanes)
    try:
        for job in warm:
            ex.run_job(job)
        targets = []
        if wl.executor == "daemon":
            # the point threads, and the forked child of each point
            targets = [
                (ex.service, "_run_point",
                 lambda f: functools.partial(profiles.run, f)),
                (parallel, "_point_child", into_file)]
        elif wl.executor == "pool":
            ex.wrap = into_file
        with patched(targets):
            for job in jobs:
                profiles.run(ex.run_job, job)
    finally:
        ex.close()
    return profiles.shares()


def traced(wl: Workload, seed: int, seconds: float, max_jobs: int,
           work: Path, probes: int, profile_jobs: int):
    from check import GateResult, count_errors, oracle_check
    from executors import make_executor
    from layers import TracedRun, layer_metrics, reconciliation_line
    from tracing import Tracer, patched

    stream = wl.jobs(seed)
    warm = [next(stream) for _ in range(WARMUP_JOBS)]

    # pass 1: untraced, closed loop for half the run
    ex = make_executor(wl.executor, work / "untraced", wl.lanes)
    try:
        for job in warm:
            ex.run_job(job)
        jobs, wall_u = run_loop(ex, stream, seconds / 2, max_jobs)
    finally:
        ex.close()
    untraced = ex.records[WARMUP_JOBS:]

    # pass 2: the same jobs on a fresh executor, spans recorded
    tracer = Tracer()
    ex = make_executor(wl.executor, work / "traced", wl.lanes)
    try:
        for job in warm:
            ex.run_job(job)
        with patched(trace_targets(ex, tracer)):
            _, wall_t = run_loop(ex, jobs, seconds, max_jobs)
        journal_bytes = journal_points = 0
        if wl.executor == "daemon":
            journal_bytes = ex.service.queue.journal_path.stat().st_size
            journal_points = sum(len(r.job) for r in ex.records)
    finally:
        ex.close()

    gate = GateResult()
    count_errors(untraced, gate)
    oracle_check(ex.records, gate)      # times apps.point_ms as well
    print_digest(wl, seed, ex.records)
    sample = counter_sample(gate.apps_ms)
    shares = profile_pass(wl, warm, jobs[:profile_jobs], work)
    setup = setup_probes(wl, work, probes)
    run = TracedRun(
        workload=wl, tracer=tracer, records=ex.records[WARMUP_JOBS:],
        wall_traced=wall_t, untraced=untraced, wall_untraced=wall_u,
        apps_ms=gate.apps_ms, shares=shares, setup=setup,
        journal_bytes=journal_bytes, journal_points=journal_points,
        **sample)
    metrics, parts = layer_metrics(run)
    print(reconciliation_line(wl, parts))
    return gate, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one short timed job, one set-up probe: checks "
                         "the plumbing, measures nothing")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metrics import END_TO_END, PER_LAYER

    wl = WORKLOADS[args.workload]
    max_jobs = 1 if args.smoke else 1 << 30
    probes = 1 if args.smoke else SETUP_PROBES
    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            gate, values = traced(wl, args.seed, args.seconds, max_jobs,
                                  work, probes,
                                  1 if args.smoke else PROFILE_JOBS)
            units = PER_LAYER
        else:
            gate, values = end_to_end(wl, args.seed, args.seconds,
                                      max_jobs, work, probes)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()     # only once no other run uses it
        except OSError:
            pass
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
