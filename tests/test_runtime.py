"""Tests for :mod:`repro.runtime` — jobs, cache, executors, journal."""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.pipeline import DlvpScheme, RecoveryMode, SimResult, simulate
from repro.runtime import (
    CODE_SALT_ENV,
    Job,
    JobLease,
    ParallelExecutor,
    ResultCache,
    RunJournal,
    Runtime,
    SerialExecutor,
    code_version_salt,
    job_from_identity,
    make_job,
    read_journal,
    register_scheme,
    scheme_ids,
    trace_cache_key,
)
from repro.runtime.jobs import _TRACE_MEMO
from repro.workloads import build_workload

WORKLOADS = ["gzip", "nat"]
N = 1_500


# Module-level factories: picklable-by-name is not required (jobs carry
# only the scheme id), but module scope keeps them resolvable in forked
# workers and re-importable under spawn.
def _slow_factory():
    time.sleep(30.0)
    return DlvpScheme()


def _raising_factory():
    raise RuntimeError("scheme factory failed on purpose")


def _crashing_factory():
    os._exit(3)


register_scheme("test/slow", _slow_factory)
register_scheme("test/raises", _raising_factory)
register_scheme("test/dies", _crashing_factory)


@pytest.fixture
def uncached_runtime():
    return Runtime(jobs=1, use_cache=False)


class TestJobKeys:
    def test_key_is_deterministic(self):
        a = make_job("gzip", N, "dlvp")
        b = make_job("gzip", N, "dlvp")
        assert a.key == b.key

    def test_key_varies_with_every_identity_field(self):
        base = make_job("gzip", N, "dlvp")
        assert base.key != make_job("nat", N, "dlvp").key
        assert base.key != make_job("gzip", N + 1, "dlvp").key
        assert base.key != make_job("gzip", N, "vtage").key
        assert base.key != make_job(
            "gzip", N, "dlvp", recovery=RecoveryMode.ORACLE_REPLAY
        ).key

    def test_timeout_not_part_of_key(self):
        assert make_job("gzip", N, "dlvp").key == \
            make_job("gzip", N, "dlvp", timeout=5.0).key

    def test_key_depends_on_code_salt(self, monkeypatch):
        before = make_job("gzip", N, "dlvp").key
        monkeypatch.setenv(CODE_SALT_ENV, "different-release")
        code_version_salt.cache_clear()
        try:
            assert make_job("gzip", N, "dlvp").key != before
        finally:
            monkeypatch.delenv(CODE_SALT_ENV)
            code_version_salt.cache_clear()

    def test_key_stable_across_processes(self):
        """A fresh interpreter computes the same salt and job key."""
        code = (
            "from repro.runtime import make_job, code_version_salt\n"
            f"job = make_job('gzip', {N}, 'dlvp')\n"
            "print(code_version_salt())\n"
            "print(job.key)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(CODE_SALT_ENV, None)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        code_version_salt.cache_clear()
        assert out[0] == code_version_salt()
        assert out[1] == make_job("gzip", N, "dlvp").key


class TestRecordsWithRetiredTraceRepresentationField:
    """Journals and serve tickets written while jobs still carried a
    trace-representation field must keep loading: gateway recovery and
    ``--resume`` across the upgrade depend on it.  Two fields retired:
    ``"trace_format"`` (object vs columnar engine) and ``"trace_ref"``
    (the shared-memory trace attach ref), whose journals also hold
    ``trace_published``/``fabric_orphans_removed`` events and
    ``trace_source: "shared"`` finishes."""

    LEGACY_FIELDS = (
        {"trace_format": "object"},
        {"trace_ref": "shm:repro-trace-1234-0"},
    )

    @staticmethod
    def _legacy_journal(events: list[dict], extra: dict) -> list[dict]:
        out = []
        for event in events:
            if event["event"] == "job_submitted":
                event = {**event, **extra}
            elif event["event"] == "job_finished" and "trace_ref" in extra:
                event = {**event, "trace_source": "shared"}
            elif event["event"] == "run_started" and "trace_ref" in extra:
                out.append({**event, "event": "fabric_orphans_removed",
                            "segments": 1})
                out.append(event)
                event = {**event, "event": "trace_published",
                         "trace_key": "t", "ref": extra["trace_ref"],
                         "workload": "gzip", "n_instructions": N,
                         "cells": 1}
            out.append(event)
        return out

    def test_job_from_identity_keeps_the_key(self):
        job = make_job("gzip", N, "dlvp")
        for extra in self.LEGACY_FIELDS:
            legacy = {**job.identity(), **extra}
            restored = job_from_identity(legacy)
            assert restored.key == job.key == legacy["key"], extra
            assert restored == job, extra

    def test_resume_replays_legacy_journal_without_executing(self, tmp_path):
        path = tmp_path / "fresh.jsonl"
        first = Runtime(jobs=1, use_cache=False, journal_path=path)
        grid = first.run_grid(["dlvp"], ["gzip"], N)
        first.journal.close()
        events = read_journal(path)
        assert any(e["event"] == "job_submitted" for e in events)

        for n, extra in enumerate(self.LEGACY_FIELDS):
            legacy = tmp_path / f"legacy{n}.jsonl"
            legacy.write_text("".join(
                json.dumps(e) + "\n"
                for e in self._legacy_journal(events, extra)
            ))
            for event in read_journal(legacy):
                if event["event"] == "job_submitted":
                    assert extra.items() <= event.items()
                    assert job_from_identity(event).key == event["key"]

            second = Runtime(jobs=1, use_cache=False, resume_from=legacy)
            grid2 = second.run_grid(["dlvp"], ["gzip"], N)
            summary = second.journal.summary()
            assert summary["resumed"] == 1, extra
            assert summary["executed"] == 0, extra
            assert second.journal.count("job_started") == 0, extra
            assert grid2.result("dlvp", "gzip") == grid.result("dlvp", "gzip")


class TestSimResultRoundTrip:
    @pytest.mark.parametrize("scheme_id", ["baseline", "dlvp", "tournament"])
    def test_round_trip_equality(self, scheme_id, uncached_runtime):
        grid = uncached_runtime.run_grid([scheme_id], ["gzip"], N)
        result = grid.result(scheme_id, "gzip")
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.ipc == result.ipc
        assert clone.value_coverage == result.value_coverage

    def test_schema_version_checked(self):
        trace = build_workload("gzip", N)
        payload = simulate(trace).to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            SimResult.from_dict(payload)

    def test_v1_payload_still_loads(self):
        # v1 results predate the way-predicted-probe energy split and
        # the PAQ flush counter; they must load with those fields at
        # their zero defaults (the old accounting), not be rejected.
        from repro.pipeline import DlvpScheme

        trace = build_workload("gzip", N)
        payload = simulate(trace, scheme=DlvpScheme()).to_dict()
        payload["schema"] = 1
        payload["energy"].pop("l1d_probes_way_predicted")
        payload["scheme_stats"].pop("probes_way_predicted")
        payload["scheme_stats"].pop("paq_flushed")
        result = SimResult.from_dict(json.loads(json.dumps(payload)))
        assert result.energy.l1d_probes_way_predicted == 0
        assert result.scheme_stats.probes_way_predicted == 0
        assert result.scheme_stats.paq_flushed == 0
        assert result.cycles == payload["cycles"]


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_workload("gzip", N)
        result = simulate(trace, scheme=DlvpScheme())
        cache.put("k" * 64, result)
        assert cache.get("k" * 64) == result

    def test_miss_and_corruption_are_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        path = cache.result_path("1" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get("1" * 64) is None

    def test_trace_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_workload("nat", N)
        key = trace_cache_key("nat", N)
        assert cache.get_trace(key) is None
        cache.put_trace(key, trace)
        loaded = cache.get_trace(key)
        assert loaded is not None
        assert loaded.name == trace.name
        assert list(loaded) == list(trace)


class TestCacheLifecycle:
    """LRU accounting behind ``cache gc`` and the serve store bound."""

    @staticmethod
    def _fill(cache, keys):
        trace = build_workload("gzip", N)
        result = simulate(trace, scheme=DlvpScheme())
        for key in keys:
            cache.put(key, result)
        return result

    @staticmethod
    def _age(cache, key, seconds):
        when = time.time() - seconds
        os.utime(cache.result_path(key), (when, when))

    def test_get_refreshes_last_used(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = "a" * 64, "b" * 64
        self._fill(cache, [a, b])
        self._age(cache, a, 3600)
        self._age(cache, b, 7200)
        assert cache.get(b) is not None      # touch: b becomes the MRU
        size = cache.result_path(a).stat().st_size
        report = cache.gc(max_size_mb=size * 1.5 / (1024 * 1024))
        assert report["results_removed"] == 1
        assert cache.get(b) is not None      # recently used survives
        assert cache.get(a) is None          # cold entry evicted

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        self._fill(cache, keys)
        for key, age in zip(keys, (30, 7200, 3600)):
            self._age(cache, key, age)
        size = cache.result_path(keys[0]).stat().st_size
        report = cache.gc(max_size_mb=size * 1.5 / (1024 * 1024))
        assert report["removed"] == 2 and report["kept"] == 1
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None and cache.get(keys[2]) is None

    def test_gc_reports_per_category_counts_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, ["a" * 64])
        cache.put_trace(trace_cache_key("nat", N), build_workload("nat", N))
        expected = sum(
            p.stat().st_size
            for p in (tmp_path / "results").rglob("*") if p.is_file()
        ) + sum(
            p.stat().st_size
            for p in (tmp_path / "traces").rglob("*") if p.is_file()
        )
        report = cache.gc(max_age_days=0.0)
        assert report["results_removed"] == 1
        assert report["traces_removed"] == 1
        assert report["bytes_freed"] == expected
        assert report["kept"] == 0 and report["bytes_kept"] == 0

    def test_stats_counts_sections(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, ["a" * 64, "b" * 64])
        empty_quarantine = cache.stats()["quarantined"]
        path = cache.result_path("c" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ corrupt")
        assert cache.get("c" * 64) is None   # quarantines the entry
        stats = cache.stats()
        assert stats["results"] == 2
        assert stats["quarantined"] == empty_quarantine + 1
        assert stats["bytes"] > 0


class TestCacheSemantics:
    def test_cold_then_warm(self, tmp_path):
        cold = Runtime(jobs=1, cache_dir=tmp_path)
        grid_cold = cold.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        cold_summary = cold.journal.summary()
        assert cold_summary["executed"] == 4
        assert cold_summary["cache_hits"] == 0

        warm = Runtime(jobs=1, cache_dir=tmp_path)
        grid_warm = warm.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        warm_summary = warm.journal.summary()
        assert warm_summary["executed"] == 0
        assert warm_summary["cache_hits"] == 4
        for scheme in ("baseline", "dlvp"):
            assert grid_warm.scheme_results(scheme) == \
                grid_cold.scheme_results(scheme)

    def test_no_cache_always_executes(self, tmp_path):
        for _ in range(2):
            runtime = Runtime(jobs=1, cache_dir=tmp_path, use_cache=False)
            runtime.run_grid(["baseline"], ["gzip"], N)
            assert runtime.journal.summary()["executed"] == 1
        assert not (tmp_path / "results").exists()

    def test_duplicate_jobs_deduplicated(self, uncached_runtime):
        job = make_job("gzip", N, "baseline")
        outcomes = uncached_runtime.run_jobs([job, job, job])
        assert len(outcomes) == 1
        assert uncached_runtime.journal.summary()["executed"] == 1


class TestExecutors:
    def test_serial_and_parallel_results_identical(self, tmp_path):
        serial = Runtime(jobs=1, use_cache=False)
        parallel = Runtime(jobs=2, use_cache=False)
        grid_s = serial.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        grid_p = parallel.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        for scheme in ("baseline", "dlvp"):
            assert grid_s.scheme_results(scheme) == grid_p.scheme_results(scheme)
        assert grid_s.speedups("dlvp") == grid_p.speedups("dlvp")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_job_timeout(self, jobs):
        runtime = Runtime(jobs=jobs, use_cache=False, timeout=1.0)
        outcomes = runtime.run_jobs([make_job("gzip", N, "test/slow",
                                              timeout=1.0)])
        (outcome,) = outcomes.values()
        assert outcome.status == "timeout"
        assert outcome.result is None
        assert "timeout" in (outcome.error or "")
        assert runtime.journal.summary()["timed_out"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_worker_bounded_retries(self, jobs):
        runtime = Runtime(jobs=jobs, use_cache=False, retries=1)
        outcomes = runtime.run_jobs([make_job("gzip", N, "test/raises")])
        (outcome,) = outcomes.values()
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert "scheme factory failed on purpose" in outcome.error

    def test_worker_crash_marks_one_cell_not_the_run(self):
        runtime = Runtime(jobs=2, use_cache=False, retries=1)
        jobs = [
            make_job("gzip", N, "dlvp"),
            make_job("gzip", N, "test/dies"),
            make_job("nat", N, "baseline"),
        ]
        outcomes = runtime.run_jobs(jobs)
        assert outcomes[jobs[0].key].status == "ok"
        assert outcomes[jobs[2].key].status == "ok"
        crashed = outcomes[jobs[1].key]
        assert crashed.status == "error"
        assert "worker process died" in crashed.error

    def test_cached_serial_and_parallel_grids_identical(self, tmp_path):
        """Workers that load traces from the trace cache settle the same
        grid as the serial run that built and cached them."""
        schemes = ["baseline", "dlvp", "cap"]
        serial = Runtime(jobs=1, cache_dir=tmp_path)
        reference = serial.run_grid(schemes, WORKLOADS, N)
        shutil.rmtree(tmp_path / "results")    # keep only the traces
        parallel = Runtime(jobs=2, cache_dir=tmp_path)
        grid = parallel.run_grid(schemes, WORKLOADS, N)
        assert not grid.failures()
        assert {o.trace_source for o in grid.cells.values()} <= {"cache", "memo"}
        assert "cache" in {o.trace_source for o in grid.cells.values()}
        for scheme in schemes:
            assert (grid.scheme_results(scheme)
                    == reference.scheme_results(scheme))

    def test_crash_spares_cells_sharing_its_trace(self, tmp_path):
        """A cell that kills its worker after the trace was acquired
        fails alone; the cells over the same trace settle ok."""
        runtime = Runtime(jobs=2, cache_dir=tmp_path, retries=1)
        jobs = [
            make_job("gzip", N, "baseline"),
            make_job("gzip", N, "test/dies"),
            make_job("gzip", N, "dlvp"),
        ]
        outcomes = runtime.run_jobs(jobs)
        assert outcomes[jobs[0].key].status == "ok"
        assert outcomes[jobs[2].key].status == "ok"
        crashed = outcomes[jobs[1].key]
        assert crashed.status == "error"
        assert "worker process died" in crashed.error

    def test_interrupt_cancels_crash_isolation_leases(self):
        """Ctrl-C while a broken pool's cell runs on a lease settles it
        interrupted, with the attempts it used, and kills its worker.

        The cell crashes its first attempt (breaking the shared pool,
        then once more on the lease) and hangs on its second.
        """
        def tap(event):
            if event["event"] == "job_started" and event["attempt"] == 2:
                threading.Timer(
                    0.3, os.kill, (os.getpid(), signal.SIGINT)).start()

        runtime = Runtime(jobs=2, use_cache=False, journal=RunJournal(tap=tap),
                          faults="crash@nat/baseline:1;hang@nat/baseline:2")
        grid = runtime.run_grid(["baseline"], ["nat"], N)
        hung = grid.outcome("baseline", "nat")
        assert (hung.status, hung.attempts) == ("interrupted", 2)
        assert runtime.journal.count("run_interrupted") == 1
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not multiprocessing.active_children()

    def test_interrupt_kills_hung_shared_pool_worker(self):
        """Ctrl-C while a shared-pool cell hangs settles it interrupted
        and kills the pool's workers, so none outlives the run."""
        def tap(event):
            if event["event"] == "job_started":
                threading.Timer(
                    1.0, os.kill, (os.getpid(), signal.SIGINT)).start()

        runtime = Runtime(jobs=2, use_cache=False, journal=RunJournal(tap=tap),
                          faults="hang@nat/baseline")
        grid = runtime.run_grid(["baseline"], ["nat"], N)
        hung = grid.outcome("baseline", "nat")
        assert (hung.status, hung.attempts) == ("interrupted", 1)
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not multiprocessing.active_children()

    def test_broken_pool_cells_settle_once_on_more_leases_than_cores(self):
        """Every cell of a broken pool settles exactly once, on the
        calling thread, with its attempt numbering intact."""
        jobs = [make_job(w, 500, s) for w in WORKLOADS
                for s in ("baseline", "dlvp", "cap", "vtage")]
        settled = []

        def on_outcome(outcome):
            assert threading.current_thread() is threading.main_thread()
            settled.append(outcome.job.key)

        outcomes = ParallelExecutor(max_workers=4).run(
            jobs, fault_spec="crash@*/*:1", on_outcome=on_outcome)
        assert sorted(settled) == sorted(job.key for job in jobs)
        assert [(o.status, o.attempts) for o in outcomes] == [("ok", 2)] * 8

    def test_executor_objects_run_raw_jobs(self):
        job = make_job("gzip", N, "baseline")
        serial = SerialExecutor().run([job])
        parallel = ParallelExecutor(max_workers=2).run([job])
        assert serial[0].ok and parallel[0].ok
        assert serial[0].result == parallel[0].result


# The executor contract: one job under one fault scenario settles the
# same (status, attempts, error prefix) on every executor.  Crash faults
# kill the process running the cell, so the in-process serial executor
# sits those out.  Values: (fault spec, job timeout, timeout_factor,
# expected outcome).
_CONTRACT = {
    "raise-once": ("raise@*/*:1", None, None, ("ok", 2, "")),
    "raise-always": ("raise@*/*", None, None,
                     ("error", 2, "repro.faults.plan.FaultInjected")),
    "hang-timeout": ("hang@*/*", 0.3, None,
                     ("timeout", 1, "job exceeded timeout of 0.300s")),
    "slow-escalates": ("slow@*/*=0.6", 0.3, 5.0, ("ok", 2, "")),
    "crash-once": ("crash@*/*:1", None, None, ("ok", 2, "")),
    "crash-always": ("crash@*/*", None, None,
                     ("error", 2, "worker process died (crash or kill)")),
}


def _run_on(executor, job, spec, factor):
    policy = dict(retries=1, timeout_factor=factor)
    if executor == "serial":
        (outcome,) = SerialExecutor(**policy).run([job], fault_spec=spec)
    elif executor == "parallel":
        (outcome,) = ParallelExecutor(2, **policy).run([job], fault_spec=spec)
    else:
        lease = JobLease(**policy)
        try:
            outcome = lease.run_one(job, fault_spec=spec)
        finally:
            lease.close()
    return outcome


@pytest.mark.parametrize("scenario,executor", [
    (scenario, executor)
    for scenario in _CONTRACT
    for executor in ("serial", "parallel", "lease")
    if not (executor == "serial" and scenario.startswith("crash"))
])
def test_executor_contract(scenario, executor):
    spec, timeout, factor, expected = _CONTRACT[scenario]
    job = make_job("gzip", 500, "dlvp", timeout=timeout)
    outcome = _run_on(executor, job, spec, factor)
    assert outcome.job.key == job.key
    assert (outcome.status, outcome.attempts,
            (outcome.error or "").partition(":")[0]) == expected


class TestTraceMemoAcrossRetries:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        _TRACE_MEMO.clear()
        yield
        _TRACE_MEMO.clear()

    def test_retry_reuses_first_attempts_trace(self, tmp_path):
        """Fails before the memo: attempt 2 used to rebuild the trace.

        With ``use_cache=False`` there is no trace cache to hide behind;
        only the in-worker memo can make the second attempt's
        ``trace_source`` read ``"memo"`` — and the journal must show the
        build happened exactly once.
        """
        journal_path = tmp_path / "retry.jsonl"
        runtime = Runtime(jobs=1, use_cache=False, retries=1,
                          journal_path=journal_path,
                          faults="raise@gzip/dlvp:1")
        outcomes = runtime.run_jobs([make_job("gzip", N, "dlvp")])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        events = read_journal(journal_path)
        built = [e for e in events if e["event"] == "trace_built"]
        assert len(built) == 1
        assert built[0]["attempt"] == 1
        finished = [e for e in events if e["event"] == "job_finished"]
        assert finished[-1]["trace_source"] == "memo"


class TestJournal:
    def test_jsonl_file_round_trip(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        runtime = Runtime(jobs=1, cache_dir=tmp_path,
                          journal_path=journal_path)
        runtime.run_grid(["baseline"], ["gzip"], N)
        events = read_journal(journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert "job_submitted" in kinds
        assert "cache_miss" in kinds
        finished = [e for e in events if e["event"] == "job_finished"]
        assert len(finished) == 1
        assert finished[0]["status"] == "ok"
        assert finished[0]["duration"] > 0

    def test_warm_run_journal_proves_zero_executions(self, tmp_path):
        Runtime(jobs=1, cache_dir=tmp_path).run_grid(["baseline"], ["gzip"], N)
        journal_path = tmp_path / "warm.jsonl"
        warm = Runtime(jobs=1, cache_dir=tmp_path, journal_path=journal_path)
        warm.run_grid(["baseline"], ["gzip"], N)
        events = read_journal(journal_path)
        assert sum(e["event"] == "cache_hit" for e in events) == 1
        assert sum(e["event"] == "job_started" for e in events) == 0
        assert sum(e["event"] == "job_finished" for e in events) == 0

    def test_format_summary_mentions_failures(self):
        runtime = Runtime(jobs=1, use_cache=False, retries=0)
        runtime.run_jobs([make_job("gzip", N, "test/raises")])
        assert "FAILED" in runtime.journal.format_summary()

    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        """Many processes appending to one journal: every line intact.

        The serve gateway and any number of CLI runs may share a
        journal path; each event must be a single ``O_APPEND`` write so
        concurrent writers interleave whole lines, never fragments."""
        path = tmp_path / "shared.jsonl"
        writers, events_each = 4, 200
        script = (
            "import sys\n"
            "from repro.runtime import RunJournal\n"
            "journal = RunJournal(sys.argv[1])\n"
            "writer = sys.argv[2]\n"
            f"for i in range({events_each}):\n"
            "    journal.event('torn_line_probe', writer=writer, seq=i,\n"
            "                  pad='x' * 2048)\n"
            "journal.close()\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), f"w{i}"], env=env
            )
            for i in range(writers)
        ]
        assert all(proc.wait(timeout=120) == 0 for proc in procs)
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == writers * events_each
        parsed = [json.loads(line) for line in lines]   # no torn JSON
        per_writer = {}
        for entry in parsed:
            per_writer.setdefault(entry["writer"], []).append(entry["seq"])
        assert set(per_writer) == {f"w{i}" for i in range(writers)}
        for seqs in per_writer.values():
            assert seqs == list(range(events_each))     # per-writer order


class TestRegistry:
    def test_builtins_registered(self):
        for scheme_id in ("baseline", "dlvp", "cap", "vtage", "dvtage",
                          "tournament"):
            assert scheme_id in scheme_ids()

    def test_reregistration_same_config_is_noop(self):
        spec = register_scheme("test/slow", _slow_factory)
        assert spec.scheme_id == "test/slow"

    def test_conflicting_reregistration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("test/slow", _slow_factory, config={"other": 1})

    def test_unknown_scheme_id(self):
        with pytest.raises(KeyError, match="unknown scheme id"):
            make_job("gzip", N, "no-such-scheme")
