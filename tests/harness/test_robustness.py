"""Harness degradation: corrupt cache entries, crashing sweep workers,
partial figures, and the fault-plan CLI plumbing."""

import json
import os

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import (RetryPolicy, compute_point,
                                    error_record, is_error_record,
                                    measured_sweep, sweep)


# ---------------------------------------------------------------------------
# sweep workers (module-level, like the harness's own)
# ---------------------------------------------------------------------------
def doubling_worker(spec):
    return {"x2": spec["x"] * 2}


def crashing_worker(spec):
    if spec.get("die"):
        os._exit(13)   # kill the interpreter, not an exception
    if spec.get("raise"):
        raise ValueError(f"bad spec {spec['x']}")
    return {"x2": spec["x"] * 2}


def dies_once_worker(spec):
    """Kills its interpreter on the first attempt at a ``die_once``
    point only; the marker file remembers that attempt."""
    marker = spec.get("die_once")
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(13)
    return {"x2": spec["x"] * 2}


def rep1_raising_worker(spec):
    if spec.get("rep") == 1:
        raise ValueError(f"rep 1 of {spec['x']} failed")
    return {"x": spec["x"], "seconds": 1e-3 * (spec["x"] + 1)}


# ---------------------------------------------------------------------------
# cache corruption (the corrupt-as-miss contract)
# ---------------------------------------------------------------------------
class TestCacheCorruption:
    def entry_path(self, cache, spec):
        return cache._path("k", spec)

    def seed(self, tmp_path, spec, result):
        cache = ResultCache(root=tmp_path / "c", version="v1")
        cache.put("k", spec, result)
        return cache

    @pytest.mark.parametrize("damage", [
        "",                                  # truncated to nothing
        '{"spec": {}, "result"',             # truncated mid-write
        "not json at all",                   # garbage
        '{"spec": {}}',                      # parses, wrong shape
        "[1, 2, 3]",                         # parses, wrong type
    ])
    def test_damaged_entry_is_deleted_and_recomputed(self, tmp_path, damage):
        spec = {"x": 1}
        cache = self.seed(tmp_path, spec, {"x2": 2})
        path = self.entry_path(cache, spec)
        path.write_text(damage)

        fresh = ResultCache(root=tmp_path / "c", version="v1")
        assert fresh.get("k", spec) is None          # miss, not a crash
        assert fresh.misses == 1 and fresh.hits == 0
        assert not path.exists()                     # bad entry dropped

        # the sweep recomputes and re-stores the point
        out = sweep(doubling_worker, [spec], jobs=1, cache=fresh, kind="k")
        assert out == [{"x2": 2}]
        assert json.loads(path.read_text())["result"] == {"x2": 2}

    def test_intact_entry_still_hits(self, tmp_path):
        spec = {"x": 3}
        cache = self.seed(tmp_path, spec, {"x2": 6})
        fresh = ResultCache(root=tmp_path / "c", version="v1")
        assert fresh.get("k", spec) == {"x2": 6}
        assert fresh.hits == 1


# ---------------------------------------------------------------------------
# crash-proof sweeps
# ---------------------------------------------------------------------------
class TestCrashProofSweep:
    def test_killed_worker_yields_error_record(self, tmp_path):
        specs = [{"x": 0}, {"x": 1, "die": True}, {"x": 2},
                 {"x": 3, "raise": True}, {"x": 4}]
        cache = ResultCache(root=tmp_path / "c", version="v1")
        results = sweep(crashing_worker, specs, jobs=3, cache=cache,
                        kind="crash")
        assert [is_error_record(r) for r in results] == [
            False, True, False, True, False]
        assert results[0] == {"x2": 0}
        assert results[2] == {"x2": 4}
        assert results[4] == {"x2": 8}
        assert results[1]["sweep_error"]["type"] == "WorkerDied"
        assert results[1]["sweep_error"]["spec"] == specs[1]
        err3 = results[3]["sweep_error"]
        assert err3["type"] == "ValueError" and "bad spec 3" in err3["message"]

    def test_worker_dying_once_is_retried_in_a_fresh_worker(self, tmp_path):
        specs = [{"x": 0}, {"x": 1, "die_once": str(tmp_path / "died")},
                 {"x": 2}, {"x": 3}]
        results = sweep(dies_once_worker, specs, jobs=2)
        assert (tmp_path / "died").exists()
        assert results == [{"x2": 0}, {"x2": 2}, {"x2": 4}, {"x2": 6}]

    def test_error_records_are_never_cached(self, tmp_path):
        specs = [{"x": 0}, {"x": 1, "raise": True}]
        c1 = ResultCache(root=tmp_path / "c", version="v1")
        sweep(crashing_worker, specs, jobs=1, cache=c1, kind="crash")
        c2 = ResultCache(root=tmp_path / "c", version="v1")
        results = sweep(crashing_worker, specs, jobs=1, cache=c2,
                        kind="crash")
        assert c2.hits == 1 and c2.misses == 1       # only the good point hit
        assert is_error_record(results[1])

    def test_serial_sweep_isolates_exceptions(self):
        results = sweep(crashing_worker,
                        [{"x": 1, "raise": True}, {"x": 2}], jobs=1)
        assert is_error_record(results[0])
        assert results[1] == {"x2": 4}

    @pytest.mark.parametrize("executor", ["serial", "-j2", "point"])
    def test_failed_repetition_fails_the_point(self, executor):
        """A repetition that raises fails its point identically on
        every executor (the daemon's and agents' is ``compute_point``)."""
        specs = [{"x": 0}, {"x": 1}]
        measure = {"min_reps": 3, "max_reps": 3}
        if executor == "point":
            rows = [compute_point(rep1_raising_worker, spec,
                                  RetryPolicy(), measure=measure)[0]
                    for spec in specs]
        else:
            rows = measured_sweep(rep1_raising_worker, specs,
                                  measure=measure,
                                  jobs=1 if executor == "serial" else 2)
        assert rows == [
            error_record(dict(spec, rep=1),
                         ValueError(f"rep 1 of {spec['x']} failed"))
            for spec in specs]

    def test_is_error_record_shape(self):
        rec = error_record({"x": 1}, ValueError("boom"))
        assert is_error_record(rec)
        assert not is_error_record({"x2": 2})
        assert not is_error_record(None)
        assert not is_error_record("sweep_error")


# ---------------------------------------------------------------------------
# partial figures
# ---------------------------------------------------------------------------
class TestPartialFigures:
    def test_fig9_renders_error_cells(self, monkeypatch, capsys):
        from repro.harness import fig9

        def fake_sweep(worker, specs, measure=None, jobs=None,
                       cache=None, kind="x", telemetry=None):
            out = []
            for spec in specs:
                if spec["impl"] == "clmpi" and spec["nodes"] == 2:
                    out.append(error_record(
                        spec, RuntimeError("worker died")))
                else:
                    out.append({"gflops": 1.0, "comp_comm_ratio": 2.0})
            return out

        monkeypatch.setattr(fig9, "measured_sweep", fake_sweep)
        table = fig9.run_fig9(system="cichlid", nodes=[1, 2], verbose=True)
        rendered = table.render()
        assert "ERROR" in rendered and "n/a" in rendered
        assert "partial figure" in capsys.readouterr().out

    def test_fig8_skips_errors_and_sums_faults(self, monkeypatch, capsys):
        from repro.harness import fig8

        def fake_sweep(worker, specs, measure=None, jobs=None,
                       cache=None, kind="x", telemetry=None):
            out = []
            for spec in specs:
                if spec["mode"] == "mapped":
                    out.append(error_record(spec, RuntimeError("boom")))
                else:
                    out.append({"system": spec["system"],
                                "mode": spec["mode"] or "auto",
                                "block": spec["block"],
                                "nbytes": spec["nbytes"],
                                "repeats": spec["repeats"],
                                "seconds": 1e-3,
                                "faults": {"total": 2,
                                           "by_kind": {"drop": 2}}})
            return out

        monkeypatch.setattr(fig8, "measured_sweep", fake_sweep)
        table = fig8.run_fig8(system="cichlid", sizes=[1 << 20],
                              pipeline_blocks=[1 << 18], verbose=True)
        out = capsys.readouterr().out
        assert "injected faults across the sweep" in out
        assert "drop: 6" in out          # 3 surviving points x 2 drops
        assert "partial figure" in out
        assert "mapped" not in table.columns


# ---------------------------------------------------------------------------
# CLI fault-plan plumbing
# ---------------------------------------------------------------------------
class TestFaultsCli:
    def test_load_faults_round_trip(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.harness.runner import _load_faults, build_parser

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.lossy(0.25, seed=4).to_json())
        args = build_parser().parse_args(
            ["fig8", "--faults", str(path), "--fault-seed", "9"])
        plan = _load_faults(args)
        assert plan["seed"] == 9
        assert plan["events"][0]["probability"] == 0.25

    def test_fault_seed_requires_plan(self):
        from repro.harness.runner import _load_faults, build_parser

        args = build_parser().parse_args(["fig8", "--fault-seed", "9"])
        with pytest.raises(SystemExit, match="requires"):
            _load_faults(args)

    def test_unsupported_experiment_warns(self, tmp_path, capsys):
        from repro.faults import FaultPlan
        from repro.harness.runner import main

        path = tmp_path / "plan.json"
        path.write_text(FaultPlan.lossy(0.5).to_json())
        rc = main(["table1", "--faults", str(path)])
        assert rc == 0
        assert "does not support fault injection" in capsys.readouterr().err


class TestCrashRecoveringSweep:
    """Acceptance: a sweep point that loses a rank mid-run must finish
    via ULFM shrink — a valid data point from the survivors' view, with
    recovery metrics in its RunReport — instead of an error record."""

    CRASH = {"seed": 5,
             "events": [{"kind": "node_crash", "node": 1, "at": 2e-4}]}

    def test_node_crash_point_recovers_instead_of_erroring(self):
        from repro.apps.pingpong import bandwidth_point
        from repro.obs import validate_report

        spec = {"system": "cichlid", "nbytes": 1 << 20, "mode": "pinned",
                "block": None, "repeats": 2, "faults": self.CRASH,
                "obs": True, "ft": True}
        row = sweep(bandwidth_point, [spec], jobs=1)[0]
        assert not is_error_record(row)
        assert row["seconds"] > 0
        assert row["recovery"] == {"survivors": [0], "failed_ranks": [1],
                                   "world": 1}
        validate_report(row["report"])
        counters = row["report"]["metrics"]["counters"]
        assert counters["ft.detections"] >= 1
        assert counters["ft.revokes"] == 1
        assert counters["ft.shrinks"] == 1
        assert counters["clmpi.orphaned_flows"] >= 1
        assert row["faults"]["by_kind"].get("dead", 0) > 0

    def test_fig8_reports_recovered_points(self, capsys):
        from repro.harness.fig8 import run_fig8

        run_fig8(sizes=[1 << 20], pipeline_blocks=[1 << 20], repeats=2,
                 jobs=1, faults=self.CRASH)
        out = capsys.readouterr().out
        assert "recovered via Comm.shrink()" in out
        assert "lost rank(s) [1]" in out
