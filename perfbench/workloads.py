"""Seeded workload generators for the repository benchmark.

A workload turns a seed into an endless, deterministic stream of *jobs*.
A job is a list of ``(kind, spec)`` points; ``kind`` names the program's
sweep worker (``bandwidth`` -> ``repro.apps.pingpong:bandwidth_point``,
``himeno`` -> ``repro.harness.fig9:himeno_point``) and ``spec`` is the
JSON-able dict that worker receives unchanged.  The program never sees
the seed, only the generated specs.

Job shapes are stratified so that jobs within one run cost alike: the
closed loop then times the executor, not the luck of the draw.  The
reason each workload exists sits next to its definition (``why``) and
is repeated in ``README.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

Point = tuple[str, dict]
Job = list[Point]


def canonical(obj) -> str:
    """Canonical JSON: the byte-identity yardstick for rows and specs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``daemon`` (SweepService over a unix socket), ``pool``
    #: (``parallel.sweep(jobs=2)``) or ``serial`` (``parallel.sweep(jobs=1)``)
    executor: str
    #: how many points the executor computes at once
    lanes: int
    why: str
    jobs: Callable[[int], Iterator[Job]]


# -- fig8-daemon -------------------------------------------------------------

#: Fig 8 pipeline block sizes (``bandwidth_specs``' default grid)
FIG8_BLOCKS = (1 << 20, 1 << 22, 1 << 24)
#: a pipelined point splits into at most this many blocks, which keeps
#: the costliest point within a few ms of the cheapest
FIG8_MAX_BLOCKS = 16
FIG8_REPEATS_PER_JOB = 2


def _fig8_size(rng: random.Random, lo_exp: int, hi_exp: int) -> int:
    """Log-uniform message size, rounded to whole 4 KiB pages."""
    raw = 2.0 ** rng.uniform(lo_exp, hi_exp)
    return max(4096, int(raw) // 4096 * 4096)


def _fig8_spec(rng: random.Random, system: str, mode) -> dict:
    block = None
    if mode == "pipelined":
        nbytes = _fig8_size(rng, 20, 26)
        block = rng.choice([b for b in FIG8_BLOCKS
                            if b <= nbytes and nbytes <= b * FIG8_MAX_BLOCKS])
    else:
        nbytes = _fig8_size(rng, 16, 26)
    return {"system": system, "nbytes": nbytes, "mode": mode,
            "block": block, "repeats": rng.choice((2, 3, 4))}


def fig8_daemon_jobs(seed: int) -> Iterator[Job]:
    """Jobs of 8 Fig 8 points: 6 fresh + 2 repeats of earlier jobs' points.

    Stratum per job: for each of cichlid and RICC one pinned-or-mapped,
    one pipelined and one auto-selected point (sizes, blocks and repeat
    counts seeded).  The two repeats hit the daemon's store, so every
    job reads the store beside writing it.  The first job has no
    history, so it draws 8 fresh points.
    """
    rng = random.Random(f"fig8-daemon/{seed}")
    seen: set[str] = set()
    history: list[dict] = []

    def fresh(system: str, mode) -> dict:
        while True:
            spec = _fig8_spec(rng, system, mode)
            key = canonical(spec)
            if key not in seen:
                seen.add(key)
                return spec

    while True:
        specs = [fresh(system, mode)
                 for system in ("cichlid", "ricc")
                 for mode in (rng.choice(("pinned", "mapped")),
                              "pipelined", None)]
        if len(history) >= FIG8_REPEATS_PER_JOB:
            repeats = [dict(s) for s in
                       rng.sample(history, FIG8_REPEATS_PER_JOB)]
        else:
            repeats = [fresh(rng.choice(("cichlid", "ricc")), "pinned")
                       for _ in range(FIG8_REPEATS_PER_JOB)]
        history.extend(specs)
        job = specs + repeats
        rng.shuffle(job)
        yield [("bandwidth", spec) for spec in job]


# -- himeno-pool -------------------------------------------------------------

HIMENO_IMPLS = ("serial", "hand-optimized", "clmpi")
#: the two rank counts of a job always sum to this, so every job costs
#: about the same (host cost grows about linearly with ranks).  48 keeps
#: a job at 0.09-0.17 s on two cores, so a 15 s run completes 100+ jobs.
HIMENO_RANK_SUM = 48
HIMENO_MIN_RANKS = 16


def himeno_pool_jobs(seed: int) -> Iterator[Job]:
    """Jobs of 6 coroutine-engine Himeno points on RICC.

    Shape: two rank counts ``r`` and ``48 - r`` (``r`` in 16..24, so
    16..32 ranks), each run by all three implementations.  Every block
    of five jobs takes each even ``r`` once, in seeded order, so the mix
    is the same in every run; the seed also draws each rank count's
    decomposition (2-4 i-planes per rank, odd j and k sizes 9..33).
    Every point is distinct within a run, so the cold cache only writes.
    """
    rng = random.Random(f"himeno-pool/{seed}")
    seen: set[str] = set()
    lows = list(range(HIMENO_MIN_RANKS, HIMENO_RANK_SUM // 2 + 1, 2))
    while True:
        rng.shuffle(lows)
        for low in lows:
            job: Job = []
            for ranks in (low, HIMENO_RANK_SUM - low):
                while True:
                    dims = [rng.choice((2, 3, 4)) * ranks + 2,
                            rng.randrange(9, 34, 2), rng.randrange(9, 34, 2)]
                    key = canonical([ranks, dims])
                    if key not in seen:
                        seen.add(key)
                        break
                job.extend(("himeno", {"system": "ricc", "nodes": ranks,
                                       "impl": impl, "size": "custom",
                                       "dims": dims, "iterations": 1})
                           for impl in HIMENO_IMPLS)
            yield job


# -- mesoscale-vectorized ----------------------------------------------------

#: relative host cost per rank on the vectorized engine (a two-iteration
#: Himeno point costs ~2.1x a two-repeat pingpong point of equal ranks,
#: fitted over 120 jobs on a 2-core x86 box)
MESO_COST = {"himeno": 2.1, "bandwidth": 1.0}
#: job cost budget in pingpong-rank units (~0.13 s on that box)
MESO_BUDGET = 9000
#: job templates: Himeno rank counts in order, ``None`` for a pingpong
#: point.  Only 1024, 2048 and 4096 ranks appear for Himeno: at other
#: counts (e.g. 1152, 1536, 3072) the vectorized engine's strict mode
#: refuses the run with an EngineError, because the i-slab exchange has
#: same-time arbitration ties only the coroutine engine can order.
MESO_TEMPLATES = (
    (4096, None), (2048, None),
    (1024, None, 1024), (2048, None, 1024), (1024, None, 2048),
    (1024, None, 1024, None), (2048, None, 1024, None),
    (1024, None, 2048, None),
)
#: the cross-engine shape runs the same templates scaled down by this
CHECK_SCALE = 64


def _meso_himeno(rng: random.Random, ranks: int, engine: str) -> dict:
    # decomposition: 2-4 i-planes per rank, odd j/k plane sizes 9..33
    return {"system": "ricc", "nodes": ranks,
            "impl": rng.choice(("serial", "clmpi")), "size": "custom",
            "dims": [rng.choice((2, 3, 4)) * ranks + 2,
                     rng.randrange(9, 34, 2), rng.randrange(9, 34, 2)],
            "iterations": 2, "engine": engine, "strict_engine": True}


def _meso_bandwidth(rng: random.Random, ranks: int, engine: str) -> dict:
    return {"system": rng.choice(("cichlid", "ricc")),
            "nbytes": _fig8_size(rng, 14, 22),
            "mode": rng.choice(("pinned", "mapped", None)), "block": None,
            "repeats": 2, "ranks": ranks, "engine": engine,
            "strict_engine": True}


def _meso_job(rng: random.Random, template: tuple, scale: int,
              seen: set) -> Job:
    """One mesoscale job from ``template`` with every rank count divided
    by ``scale``.  The pingpong points share what the Himeno points leave
    of the cost budget (seeded +-10%, clamped to 1024-4096 ranks before
    scaling), so every template costs within ~7% of the budget.  Points
    in ``seen`` are redrawn, so a run's cache only ever writes."""
    spare = MESO_BUDGET - sum(MESO_COST["himeno"] * r
                              for r in template if r is not None)
    share = spare / sum(1 for r in template if r is None)
    job: Job = []
    for himeno in template:
        while True:
            if himeno is not None:
                kind = "himeno"
                spec = _meso_himeno(rng, himeno // scale, "vectorized")
            else:
                kind = "bandwidth"
                ranks = min(4096, max(1024, share * rng.uniform(0.9, 1.1)))
                spec = _meso_bandwidth(rng, 2 * round(ranks / scale / 2),
                                       "vectorized")
            key = canonical([kind, spec])
            if key not in seen:
                seen.add(key)
                job.append((kind, spec))
                break
    return job


def mesoscale_jobs(seed: int) -> Iterator[Job]:
    """Jobs of 2-4 timing-only Himeno and pingpong points at 1024-4096
    ranks on the vectorized engine.  Every block of eight jobs uses each
    template once, in seeded order, so the job mix is the same in every
    run and only the seeded details vary."""
    rng = random.Random(f"mesoscale-vectorized/{seed}")
    seen: set[str] = set()
    while True:
        block = list(MESO_TEMPLATES)
        rng.shuffle(block)
        for template in block:
            yield _meso_job(rng, template, 1, seen)


def mesoscale_check_job(seed: int) -> Job:
    """The run's cross-engine shape: one mesoscale template scaled to
    16-64 ranks, computed on both engines by the correctness gate."""
    rng = random.Random(f"mesoscale-check/{seed}")
    return _meso_job(rng, rng.choice(MESO_TEMPLATES), CHECK_SCALE, set())


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig8-daemon", "daemon", 2,
        "Fig 8 points cost ~2.5 ms, a daemon point 10-16 ms: the harness "
        "layers (service, queue, store, reaped fork) dominate and the "
        "simulator does little.",
        fig8_daemon_jobs),
    Workload(
        "himeno-pool", "pool", 2,
        "Coroutine Himeno points at 16-32 ranks: the simulator stack (sim, "
        "mpi, ocl, hardware, clmpi) dominates and -j 2 should speed the "
        "sweep up.",
        himeno_pool_jobs),
    Workload(
        "mesoscale-vectorized", "serial", 1,
        "1024-4096-rank points on the vectorized engine: NumPy lanes do "
        "the work while the coroutine core, daemon and pool sit idle.",
        mesoscale_jobs),
)}


def job_shape(job: Job) -> list:
    """What must not vary with the seed: the kinds and the spec keys."""
    return sorted({(kind, tuple(sorted(spec))) for kind, spec in job})
