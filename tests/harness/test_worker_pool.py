"""Persistent point workers: reuse, reaping, fork binding, hygiene.

The sweep service and the federation agents run every point in a
:class:`~repro.harness.parallel.WorkerPool` worker that outlives the
point.  The ``service_smoke`` subset pins the pool's contract: a slot
reuses one worker, a reaped (timed-out or dead) worker is replaced
alone, a worker runs only the ``(_point_child, worker)`` pair it was
forked with, and warm-worker rows are byte-identical to a serial sweep.
The rest pins what a long-lived worker must not inherit, the lost
``stats.json`` updates, the event-driven ``wait`` and the lifecycle
counters.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.apps.pingpong import bandwidth_point
from repro.harness import parallel
from repro.harness.cache import ResultCache, SharedStore
from repro.harness.parallel import (PointTimeout, WorkerDied, WorkerPool,
                                    run_reaped, sweep)
from repro.harness.service import ServiceClient, SweepService

REPO = Path(__file__).resolve().parents[2]
PID_WORKER = "tests.harness.test_worker_pool:pid_point"


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- module-level workers (resolvable by dotted path in the daemon) ---------

def pid_point(spec: dict) -> dict:
    """The worker's pid, after an optional sleep — or, for an ``exit``
    spec, no result at all, as an interpreter crash would leave."""
    if spec.get("exit"):
        os._exit(3)
    time.sleep(spec.get("sleep_s", 0))
    return {"i": spec.get("i", 0), "pid": os.getpid()}


def forward_point_child(point_child, worker, spec, conn):
    """A rewrap of ``parallel._point_child`` that changes nothing."""
    point_child(worker, spec, conn)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is dead)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


@pytest.fixture()
def pool():
    with WorkerPool(2) as p:
        yield p


@pytest.mark.service_smoke
class TestPoolSemantics:
    def test_consecutive_points_on_one_slot_reuse_one_worker(self,
                                                             tmp_path):
        svc = SweepService(tmp_path / "svc", jobs=1)
        svc.start()
        try:
            job = svc.submit("pids", [{"i": i} for i in range(4)],
                             {"worker": PID_WORKER})
            out = svc.wait(job["job"], timeout_s=60)
            pids = {row["pid"] for row in out["results"]}
            assert len(pids) == 1 and os.getpid() not in pids
            assert out["attempts"] == [1, 1, 1, 1]
            assert svc.stats()["worker_pool"]["starts"] == 1
        finally:
            svc.stop()

    def test_timed_out_point_replaces_only_its_own_worker(self, pool):
        # two points at once: two live workers
        rows: list = [None, None]

        def run(k):
            rows[k] = run_reaped(pid_point, {"i": k, "sleep_s": 0.15},
                                 pool=pool)
        threads = [threading.Thread(target=run, args=(k,))
                   for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        before = set(pool.pids())
        assert before == {rows[0]["pid"], rows[1]["pid"]}
        with pytest.raises(PointTimeout):
            run_reaped(pid_point, {"sleep_s": 60}, timeout_s=0.2,
                       pool=pool)
        survivors = set(pool.pids())
        assert len(survivors) == 1 and survivors < before
        assert pool.reaps == {"timeout": 1, "died": 0}
        row = run_reaped(pid_point, {"i": 9}, pool=pool)
        assert row["i"] == 9 and row["pid"] in survivors

    def test_worker_exit_gives_worker_died_then_a_fresh_worker(self,
                                                               pool):
        first = run_reaped(pid_point, {}, pool=pool)["pid"]
        with pytest.raises(WorkerDied, match="code 3"):
            run_reaped(pid_point, {"exit": True}, pool=pool)
        assert pool.reaps == {"timeout": 0, "died": 1}
        assert not _alive(first) and pool.pids() == []
        fresh = run_reaped(pid_point, {}, pool=pool)["pid"]
        assert fresh != first and pool.starts == 2
        assert run_reaped(pid_point, {}, pool=pool)["pid"] == fresh

    def test_rewrapped_point_child_forks_a_fresh_worker(self, pool,
                                                        monkeypatch):
        first = run_reaped(pid_point, {}, pool=pool)["pid"]
        assert run_reaped(pid_point, {}, pool=pool)["pid"] == first
        monkeypatch.setattr(parallel, "_point_child", functools.partial(
            forward_point_child, parallel._point_child))
        wrapped = run_reaped(pid_point, {}, pool=pool)["pid"]
        assert wrapped != first
        assert run_reaped(pid_point, {}, pool=pool)["pid"] == wrapped
        monkeypatch.undo()
        assert run_reaped(pid_point, {}, pool=pool)["pid"] == first

    def test_warm_worker_fig8_rows_identical_to_serial_sweep(self):
        others = [{"system": system, "nbytes": 1 << k, "mode": mode}
                  for system in ("cichlid", "ricc")
                  for mode in ("mapped", "pinned")
                  for k in (8, 10, 12, 14, 18)]
        specs = [{"system": "cichlid", "nbytes": 1 << 16, "mode": m}
                 for m in ("mapped", "pinned", "pipelined")]
        with WorkerPool(1) as one:
            for spec in others:
                run_reaped(bandwidth_point, spec, pool=one)
            warm = [run_reaped(bandwidth_point, spec, pool=one)
                    for spec in specs]
            assert one.starts == 1
        assert canon(warm) == canon(sweep(bandwidth_point, specs, jobs=1))


class TestForkHygiene:
    def test_worker_forked_mid_put_does_not_keep_the_entry_lock(
            self, tmp_path, pool, monkeypatch):
        store = SharedStore(tmp_path / "store", version="v1")
        spec = {"i": 1}
        real_put = ResultCache.put

        def forking_put(self, kind, spec, result):
            # the entry lock is held here: fork a pooled worker now
            run_reaped(pid_point, {}, pool=pool)
            real_put(self, kind, spec, result)

        monkeypatch.setattr(ResultCache, "put", forking_put)
        store.put("bw", spec, {"v": 1})
        (worker_pid,) = pool.pids()
        assert _alive(worker_pid)
        with store._locked(store._path("bw", spec),
                           blocking=False) as held:
            assert held, "the idle worker still holds the entry lock"
        assert store.evict(max_bytes=0) == 1

    def test_worker_does_not_inherit_the_parents_sigterm_handler(
            self, pool):
        """A ``serve`` daemon drains on SIGTERM; a worker forked from it
        must simply die instead of running that drain on its copy."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            pid = run_reaped(pid_point, {}, pool=pool)["pid"]
        finally:
            signal.signal(signal.SIGTERM, previous)
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + 2.0
        while _alive(pid):
            assert time.monotonic() < deadline, "SIGTERM was ignored"
            time.sleep(0.02)
        # the dead idle worker is noticed at checkout, not billed to
        # the next point as a failed attempt
        assert run_reaped(pid_point, {}, pool=pool)["pid"] != pid
        assert pool.reaps == {"timeout": 0, "died": 1}

    def test_sigkilled_daemon_leaves_no_worker_alive(self, tmp_path):
        sock = str(tmp_path / "kill.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"),
                                             str(REPO)])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "serve", "--root",
             str(tmp_path / "svc"), "--socket", sock, "-j", "2"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            client = ServiceClient(sock, timeout_s=30.0)
            deadline = time.monotonic() + 20
            while True:
                try:
                    client.ping()
                    break
                except (OSError, RuntimeError):
                    assert time.monotonic() < deadline, "no daemon"
                    time.sleep(0.05)
            job = client.submit("pids", [{"i": i, "sleep_s": 0.2}
                                         for i in range(4)],
                                {"worker": PID_WORKER})
            out = client.wait(job["job"], timeout_s=60)
            pids = client.stats()["worker_pool"]["pids"]
            assert set(pids) == {row["pid"] for row in out["results"]}
            assert all(_alive(pid) for pid in pids)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        deadline = time.monotonic() + 2.0
        try:
            while any(_alive(pid) for pid in pids):
                assert time.monotonic() < deadline, \
                    f"orphaned workers still alive: {pids}"
                time.sleep(0.05)
        finally:
            for pid in filter(_alive, pids):  # never leak on failure
                os.kill(pid, signal.SIGKILL)


class TestStatsAndWait:
    def test_concurrent_gets_persist_every_count(self, tmp_path):
        """4 threads x 200 reads, more threads than cores and a short
        switch interval: every read must reach ``stats.json``."""
        store = SharedStore(tmp_path / "store", version="v1")
        store.put("bw", {"hit": True}, {"v": 1})

        def reader(k):
            for n in range(200):
                store.get("bw", {"hit": True} if n % 2 else {"miss": k})
        threads = [threading.Thread(target=reader, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = store.read_stats()
        assert (stats["hits"], stats["misses"]) == (400, 400)
        assert not list(store.root.glob(".stats.json.*"))

    def test_wait_is_woken_by_the_done_event_not_a_poll(self, tmp_path,
                                                         monkeypatch):
        svc = SweepService(tmp_path / "svc", jobs=1)
        svc.start()
        try:
            warm = svc.submit("pids", [{"i": 0}], {"worker": PID_WORKER})
            svc.wait(warm["job"], timeout_s=60)

            def no_sleeping(seconds):
                raise AssertionError("wait() polled with time.sleep")
            # the warm worker was forked before this patch and keeps
            # the real sleep for its paced point
            monkeypatch.setattr("repro.harness.service.time.sleep",
                                no_sleeping)
            job = svc.submit("pids", [{"i": 1, "sleep_s": 0.1}],
                             {"worker": PID_WORKER})
            out = svc.wait(job["job"], timeout_s=60)
            assert out["finished"] and out["results"][0]["i"] == 1
            slow = svc.submit("pids", [{"i": 2, "sleep_s": 0.3}],
                              {"worker": PID_WORKER})
            with pytest.raises(TimeoutError):
                svc.wait(slow["job"], timeout_s=0.1)
            monkeypatch.undo()
            assert svc.wait(slow["job"], timeout_s=60)["finished"]
        finally:
            svc.stop()

    def test_sixteen_points_on_two_slots_start_at_most_two_workers(
            self, tmp_path):
        svc = SweepService(tmp_path / "svc", jobs=2)
        svc.start()
        try:
            job = svc.submit("pids", [{"i": i} for i in range(16)],
                             {"worker": PID_WORKER})
            out = svc.wait(job["job"], timeout_s=60)
            assert out["errors"] == 0
            pool = svc.stats()["worker_pool"]
            assert pool["starts"] <= 2
            assert pool["reaps"] == {"timeout": 0, "died": 0}
            text = svc.prometheus()
            assert f"clmpi_worker_starts_total {pool['starts']}" in text
            assert 'clmpi_worker_reaps_total{reason="timeout"} 0' in text
            assert 'clmpi_worker_reaps_total{reason="died"} 0' in text
        finally:
            t0 = time.monotonic()
            svc.stop()
        # both workers forked at once; each sees EOF when stop() closes
        # its pipe, so the joins are prompt and nothing outlives stop()
        assert time.monotonic() - t0 < 2.0
        assert not any(_alive(pid) for pid in pool["pids"])
