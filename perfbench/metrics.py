"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` must list exactly these (``selftest.py`` checks it).
A per-layer metric of a layer the workload does not use reads 0; the
``LIVE`` table names, per workload, the per-layer metrics that measure
real work there and must therefore be non-zero.
"""

END_TO_END = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # process
    "import.repro_ms": "ms",
    "import.workers_ms": "ms",
    "service.start_ms": "ms",
    # harness.service / client
    "client.submit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.dispatch_gap_ms": "ms",
    "service.slot_busy_frac": "ratio",
    "client.result_lag_ms": "ms",
    # harness.queue
    "queue.submit_ms": "ms",
    "queue.record_point_ms": "ms",
    "queue.journal_bytes_per_point": "bytes",
    # harness.cache
    "store.get_hit_ms": "ms",
    "store.get_miss_ms": "ms",
    "store.put_ms": "ms",
    "store.hit_ratio": "ratio",
    # harness.parallel
    "parallel.reaped_ms": "ms",
    "parallel.harness_overhead_ms": "ms",
    "parallel.sweep_ms": "ms",
    "parallel.speedup": "ratio",
    "parallel.retries": "count",
    "parallel.useful_frac": "ratio",
    # apps
    "apps.point_ms": "ms",
    # sim / mpi / ocl / clmpi / hardware (RunReport counters, per point)
    "sim.events": "count",
    "sim.processes": "count",
    "mpi.messages": "count",
    "ocl.commands": "count",
    "clmpi.transfers": "count",
    "net.bytes": "bytes",
    "sim.events_per_message": "ratio",
    "sim.host_us_per_event": "us",
    # sim.vectorized
    "vectorized.events": "count",
    "vectorized.host_us_per_event": "us",
    # cProfile self-time shares
    "self.sim": "ratio",
    "self.sim.vectorized": "ratio",
    "self.mpi": "ratio",
    "self.ocl": "ratio",
    "self.clmpi": "ratio",
    "self.hardware": "ratio",
    "self.apps": "ratio",
    "self.harness": "ratio",
    "self.numpy": "ratio",
    "self.other": "ratio",
    # tracing and reconciliation
    "trace.overhead_frac": "ratio",
    "unattributed_ms": "ms",
}

_EVERYWHERE = ["import.repro_ms", "import.workers_ms", "store.get_miss_ms",
               "store.put_ms", "parallel.sweep_ms", "parallel.speedup",
               "parallel.useful_frac", "apps.point_ms", "self.apps",
               "self.harness", "self.other"]
_COROUTINE = ["sim.events", "sim.processes", "mpi.messages", "net.bytes",
              "sim.events_per_message", "sim.host_us_per_event", "self.sim",
              "self.mpi"]

LIVE = {
    "fig8-daemon": _EVERYWHERE + _COROUTINE + [
        "service.start_ms", "client.submit_ms", "service.queue_wait_ms",
        "service.slot_busy_frac", "client.result_lag_ms", "queue.submit_ms",
        "queue.record_point_ms", "queue.journal_bytes_per_point",
        "store.get_hit_ms", "store.hit_ratio", "parallel.reaped_ms",
        "ocl.commands", "clmpi.transfers"],
    "himeno-pool": _EVERYWHERE + _COROUTINE + [
        "ocl.commands", "self.ocl", "self.hardware", "self.clmpi"],
    "mesoscale-vectorized": _EVERYWHERE + [
        "vectorized.events", "vectorized.host_us_per_event",
        "self.sim.vectorized", "self.numpy"],
}
