"""The benchmark's correctness gate and row digests.

* Daemon and pool rows must be byte-identical, as canonical JSON, to an
  untimed serial in-process ``worker(spec)`` call (:func:`oracle_check`).
  The same call, timed, gives ``apps.point_ms``.
* Each run computes one seeded <=64-rank mesoscale shape on both engines;
  the rows must match (:func:`cross_engine_check`).
* :func:`rows_digest` hashes the rows of a fixed prefix of the job
  stream, so a speed-only change can show that every simulated
  statistic stayed identical for a given workload and seed.

A mismatch or an error record counts as a failed point.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field

from executors import JobRecord, worker_for
from workloads import canonical, mesoscale_check_job


def is_error(row) -> bool:
    return isinstance(row, dict) and "sweep_error" in row


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    #: canonical [kind, spec] -> untimed serial in-process wall (ms),
    #: for every distinct point the oracle computed
    apps_ms: dict = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"correctness: {why}", file=sys.stderr)


def count_errors(records: list[JobRecord], gate: GateResult) -> None:
    for rec in records:
        for (kind, spec), row in zip(rec.job, rec.rows):
            gate.attempted += 1
            if is_error(row):
                gate.fail(f"{kind} point failed: {row['sweep_error']}")


def oracle_check(records: list[JobRecord], gate: GateResult) -> None:
    """Count every row and compare it with a serial in-process call."""
    oracle: dict[str, str] = {}
    for rec in records:
        for (kind, spec), row in zip(rec.job, rec.rows):
            gate.attempted += 1
            if is_error(row):
                gate.fail(f"{kind} point failed: {row['sweep_error']}")
                continue
            key = canonical([kind, spec])
            if key not in oracle:
                worker = worker_for(kind)
                t0 = time.perf_counter()
                try:
                    ref = worker(spec)
                except Exception as exc:  # a mismatch, reported below
                    ref = {"oracle_error": repr(exc)}
                gate.apps_ms[key] = (time.perf_counter() - t0) * 1e3
                oracle[key] = canonical(ref)
            if canonical(row) != oracle[key]:
                gate.fail(f"{kind} row differs from serial oracle: {key}")


def cross_engine_check(seed: int, gate: GateResult) -> None:
    """The run's <=64-rank mesoscale shape on both engines."""
    for kind, spec in mesoscale_check_job(seed):
        worker = worker_for(kind)
        gate.attempted += 1
        try:
            vec = worker(spec)
            cor = worker(dict(spec, engine="coroutine"))
        except Exception as exc:  # the gate reports, never aborts, a run
            gate.fail(f"{kind} cross-engine point raised {exc!r}: "
                      f"{canonical(spec)}")
            continue
        if canonical(vec) != canonical(cor):
            gate.fail(f"{kind} vectorized != coroutine: {canonical(spec)}")


def rows_digest(records: list[JobRecord], jobs: int) -> tuple[int, str]:
    """(jobs hashed, sha256) over the first ``jobs`` jobs' points+rows."""
    h = hashlib.sha256()
    taken = records[:jobs]
    for rec in taken:
        for (kind, spec), row in zip(rec.job, rec.rows):
            h.update(canonical([kind, spec, row]).encode())
            h.update(b"\n")
    return len(taken), h.hexdigest()
