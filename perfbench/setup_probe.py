"""One fresh-interpreter set-up measurement (run by ``run.py``).

Usage: ``python3 perfbench/setup_probe.py <src-dir> <executor> <workdir>``

Times ``import repro``, the import of the workload's worker modules and,
for the ``daemon`` executor, a ``SweepService`` started until its unix
socket answers ``ping``.  Prints one JSON line of milliseconds.
"""

import json
import os
import shutil
import sys
import time

WORKER_MODULES = {
    "daemon": ("repro.harness.service", "repro.apps.pingpong"),
    "pool": ("repro.harness.parallel", "repro.harness.cache",
             "repro.harness.fig9"),
    "serial": ("repro.harness.parallel", "repro.harness.cache",
               "repro.apps.pingpong", "repro.harness.fig9"),
}


def main(src: str, executor: str, workdir: str) -> dict:
    import importlib

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import repro  # noqa: F401
    t1 = time.perf_counter()
    for module in WORKER_MODULES[executor]:
        importlib.import_module(module)
    t2 = time.perf_counter()
    if executor == "daemon":
        from repro.harness.service import ServiceClient, SweepService

        os.makedirs(workdir, exist_ok=True)
        sock = os.path.relpath(os.path.join(workdir, "svc.sock"))
        service = SweepService(os.path.join(workdir, "svc"),
                               socket_path=sock, jobs=2)
        try:
            service.start()
            ServiceClient(socket_path=sock, timeout_s=30.0).ping()
            t3 = time.perf_counter()
        finally:
            service.stop()
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        t3 = t2
    return {"import_repro_ms": (t1 - t0) * 1e3,
            "import_workers_ms": (t2 - t1) * 1e3,
            "service_start_ms": (t3 - t2) * 1e3,
            "setup_s": t3 - t0}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
