"""The executors a sweep runs through, behind one ``run_job`` interface.

* :class:`DaemonExecutor` — an in-process :class:`SweepService` with two
  local slots and a cold ``SharedStore``, driven by a
  :class:`ServiceClient` over its unix socket (submit, stream the
  job's events, fetch its rows).
* :class:`SweepExecutor` — ``repro.harness.parallel.sweep`` with a cold
  ``ResultCache``: ``jobs=2`` is the ``-j 2`` process pool, ``jobs=1``
  the CLI's serial in-process path.

Each executor keeps one :class:`JobRecord` per job it ran.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from workloads import Job

#: job kind -> the program's sweep worker, as ``SweepService.WORKERS``
#: names it (not imported from there: the pool and serial runs should
#: not load the service stack)
KIND_WORKERS = {"bandwidth": "repro.apps.pingpong:bandwidth_point",
                "himeno": "repro.harness.fig9:himeno_point"}


def worker_for(kind: str) -> Callable[[dict], Any]:
    module, _, name = KIND_WORKERS[kind].partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass
class JobRecord:
    job: Job
    rows: list
    t0: float               # the client starts submitting
    t_submitted: float      # the submit call returned
    t1: float               # every result is in hand
    job_id: Optional[str] = None
    attempts: list = field(default_factory=list)


class DaemonExecutor:
    """An in-process sweep daemon reached over its unix socket."""

    def __init__(self, root: Path, slots: int = 2):
        from repro.harness.service import ServiceClient, SweepService

        root.mkdir(parents=True, exist_ok=True)
        # AF_UNIX paths are capped near 108 bytes: a path relative to
        # the working directory stays short however deep the checkout is
        sock = os.path.relpath(root / "svc.sock")
        self.service = SweepService(root / "svc", socket_path=sock,
                                    jobs=slots)
        self.service.start()
        self.client = ServiceClient(socket_path=sock, timeout_s=120.0)
        self.client.ping()
        self.records: list[JobRecord] = []

    def run_job(self, job: Job) -> list:
        (kind,) = {k for k, _ in job}
        specs = [spec for _, spec in job]
        t0 = time.perf_counter()
        ticket = self.client.submit(kind, specs)
        t_sub = time.perf_counter()
        # Stream the job's events and fetch the rows on "done".  The
        # ``wait`` op polls every 20 ms from the moment it is called, so
        # its latencies snap to that grid and a median jumps by a whole
        # poll period when the machine speeds up or slows down a little.
        self.client.watch(ticket["job"], lambda event: None,
                          timeout_s=120.0)
        done = self.client.result(ticket["job"])
        t1 = time.perf_counter()
        if not done["finished"]:
            raise RuntimeError(f"{ticket['job']} not finished after its "
                               "done event")
        self.records.append(JobRecord(job, done["results"], t0, t_sub, t1,
                                      ticket["job"], done["attempts"]))
        return done["results"]

    def close(self) -> None:
        self.service.stop()


class SweepExecutor:
    """``parallel.sweep`` per job, one call per kind in the job."""

    def __init__(self, root: Path, jobs: int):
        from repro.harness.cache import ResultCache

        self.cache = ResultCache(root / "cache")
        self.jobs = jobs
        #: optional ``worker -> worker`` applied to every job's worker
        #: (the cProfile pass uses it to profile pool processes)
        self.wrap: Optional[Callable[[Callable], Callable]] = None
        self.records: list[JobRecord] = []

    def run_job(self, job: Job) -> list:
        from repro.harness import parallel

        t0 = time.perf_counter()
        rows: list = [None] * len(job)
        for kind in dict.fromkeys(k for k, _ in job):
            idx = [i for i, (k, _) in enumerate(job) if k == kind]
            worker = worker_for(kind)
            if self.wrap is not None:
                worker = self.wrap(worker)
            out = parallel.sweep(worker, [job[i][1] for i in idx],
                                 jobs=self.jobs, cache=self.cache,
                                 kind=kind)
            for i, row in zip(idx, out):
                rows[i] = row
        t1 = time.perf_counter()
        self.records.append(JobRecord(job, rows, t0, t0, t1))
        return rows

    def close(self) -> None:
        pass


def make_executor(kind: str, root: Path, lanes: int):
    if kind == "daemon":
        return DaemonExecutor(root, slots=lanes)
    return SweepExecutor(root, jobs=lanes)
