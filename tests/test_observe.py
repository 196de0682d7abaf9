"""Tests for repro.observe: tracer protocol, backends, CLI integration.

The two properties that matter most:

* **Zero semantic overhead** — attaching a tracer must not change any
  simulated outcome: the traced run dispatches to the reference
  implementations, which are golden-verified against the inlined fast
  paths, so results are bit-identical either way.
* **Event fidelity** — the interval rows must reconcile with the
  aggregate counters the simulation reports anyway.
"""

import json

import pytest

from repro.__main__ import main
from repro.faults import FaultInjected, FaultPlan
from repro.observe import (
    ChromeTraceExporter,
    FaultTripwire,
    FlightRecorder,
    IntervalMetricsCollector,
    MultiTracer,
    Tracer,
    render_report,
    run_traced,
)
from repro.pipeline import SimResult, simulate
from repro.runtime import Runtime
from repro.runtime.registry import get_scheme
from repro.trace import ColumnarTrace
from repro.workloads import build_workload

SCHEME_IDS = ("dlvp", "cap", "vtage", "dvtage", "tournament")


class Recorder(Tracer):
    """Flat list of (kind, fields) for assertions."""

    def __init__(self):
        self.events = []

    def emit(self, kind, **fields):
        self.events.append((kind, fields))

    def kinds(self):
        return [k for k, _ in self.events]


def _trace(n=3000, name="aifirf"):
    return build_workload(name, n)


class TestZeroOverheadContract:
    @pytest.mark.parametrize("scheme_id,workload", [
        # aifirf legs keep the bare scheme id, so existing test ids hold
        pytest.param(scheme_id, workload, id=(
            str(scheme_id) if workload == "aifirf" else f"{scheme_id}-{workload}"
        ))
        for workload in ("aifirf", "gcc")
        for scheme_id in (None,) + SCHEME_IDS
    ])
    def test_traced_run_bit_identical(self, scheme_id, workload, monkeypatch):
        """Traced == untraced on a Trace and on a ColumnarTrace input.

        A traced run stays in the one simulate() loop: it never turns
        its columnar trace back into Instruction objects, neither the
        whole trace nor per-instruction views.  ``gcc`` has in-flight
        conflicts and LSCD-blocked loads at this length, so its DLVP
        leg compares the blocked-handle and LSCD-insert paths of the
        reference methods against the fused closures.
        """
        trace = _trace(name=workload)
        inputs = (trace, ColumnarTrace.from_trace(trace))

        def _forbidden(self):
            raise AssertionError("simulate() called ColumnarTrace.to_trace")

        def _no_views(self, i):
            raise AssertionError("simulate() called ColumnarTrace.instruction")

        monkeypatch.setattr(ColumnarTrace, "to_trace", _forbidden)
        monkeypatch.setattr(ColumnarTrace, "instruction", _no_views)
        build = (lambda: None) if scheme_id is None else get_scheme(scheme_id).build
        for trace_input in inputs:
            untraced = simulate(trace_input, scheme=build())
            traced = simulate(trace_input, scheme=build(), tracer=Recorder())
            u, t = untraced.to_dict(), traced.to_dict()
            u.pop("intervals"), t.pop("intervals")
            assert u == t
            if (workload, scheme_id) == ("gcc", "dlvp"):
                stats = traced.scheme_stats
                assert stats.inflight_conflicts > 0
                assert stats.lscd_blocked > 0

    def test_untraced_components_hold_no_tracer(self):
        scheme = get_scheme("dlvp").build()
        trace = _trace()
        simulate(trace, scheme=scheme)
        assert scheme.engine._tracer is None
        assert scheme.engine.paq._tracer is None


class TestTracerProtocol:
    def test_default_hooks_are_noops(self):
        tracer = Tracer()
        tracer.on_commit(0, 1, "LOAD")
        tracer.on_recovery(5, "branch", 0x40)
        tracer.on_lscd_insert(0x40, evicted=None, refreshed=False)

    def test_hooks_flow_through_emit(self):
        rec = Recorder()
        rec.on_recovery(5, "value", 0x40)
        rec.on_paq_service(9, 0x1000, True)
        assert rec.events == [
            ("recovery", {"cycle": 5, "reason": "value", "pc": 0x40}),
            ("paq_service", {"cycle": 9, "addr": 0x1000, "bypass": True}),
        ]

    def test_full_event_stream_from_dlvp_run(self):
        rec = Recorder()
        # long enough for the FPC confidence ramp to produce address
        # predictions (and hence PAQ/probe/verdict traffic)
        simulate(_trace(6000), scheme=get_scheme("dlvp").build(), tracer=rec)
        kinds = set(rec.kinds())
        assert {"run_start", "commit", "fetch_predict", "demand_access",
                "probe", "paq_enqueue", "paq_service", "apt_train",
                "vpe_verdict", "run_end"} <= kinds
        assert rec.kinds()[0] == "run_start"
        assert rec.kinds()[-1] == "run_end"

    def test_multitracer_fans_out(self):
        a, b = Recorder(), Recorder()
        multi = MultiTracer(a, b, None)
        assert len(multi.tracers) == 2
        multi.on_commit(3, 7, "ALU")
        assert a.events == b.events == [
            ("commit", {"index": 3, "cycle": 7, "op": "ALU"})
        ]


class TestIntervalMetrics:
    def test_rows_reconcile_with_aggregates(self):
        collector = IntervalMetricsCollector(interval=1000)
        trace = _trace(6000)
        result = simulate(trace, scheme=get_scheme("dlvp").build(),
                          tracer=collector)
        rows = result.intervals
        assert rows is not None and len(rows) == 6
        assert rows[0]["start"] == 0
        assert rows[-1]["end"] == result.instructions
        assert all(rows[i]["end"] == rows[i + 1]["start"]
                   for i in range(len(rows) - 1))
        assert sum(r["cycles"] for r in rows) == result.cycles
        assert sum(r["value_predictions"] for r in rows) == \
            result.value_predictions
        assert sum(r["value_correct"] for r in rows) == \
            result.value_predictions - result.value_mispredictions
        assert sum(r["recoveries_value"] for r in rows) == \
            result.flushes.value
        assert sum(r["recoveries_branch"] for r in rows) == \
            result.flushes.branch

    def test_confidence_ramp_visible(self):
        # The FPC confidence ramp: early intervals must show lower
        # coverage than late ones on a DLVP-friendly workload.
        collector = IntervalMetricsCollector(interval=8000)
        result = simulate(_trace(24000), scheme=get_scheme("dlvp").build(),
                          tracer=collector)
        rows = result.intervals
        assert rows[0]["coverage"] < rows[-1]["coverage"]

    def test_intervals_survive_serialization(self):
        collector = IntervalMetricsCollector(interval=1000)
        result = simulate(_trace(), scheme=get_scheme("dlvp").build(),
                          tracer=collector)
        round_tripped = SimResult.from_dict(result.to_dict())
        assert round_tripped.intervals == result.intervals

    def test_render_report(self):
        collector = IntervalMetricsCollector(interval=1000)
        result = simulate(_trace(2000), scheme=get_scheme("dlvp").build(),
                          tracer=collector)
        text = render_report(result.intervals)
        assert "cov%" in text and "0-1000" in text
        assert render_report([]) == "(no interval data)"

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalMetricsCollector(interval=0)


class TestSchemaVersioning:
    def test_v3_roundtrip(self):
        result = simulate(_trace(1000))
        data = result.to_dict()
        assert data["schema"] == 3
        assert "intervals" in data
        assert SimResult.from_dict(data).to_dict() == data

    def test_v2_payload_still_loads(self):
        data = simulate(_trace(1000)).to_dict()
        data.pop("intervals")
        data["schema"] = 2
        loaded = SimResult.from_dict(data)
        assert loaded.intervals is None
        assert loaded.cycles == data["cycles"]

    def test_unknown_schema_rejected(self):
        data = simulate(_trace(1000)).to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError):
            SimResult.from_dict(data)


class TestChromeTrace:
    def test_export_loads_as_trace_event_json(self, tmp_path):
        exporter = ChromeTraceExporter()
        simulate(_trace(6000), scheme=get_scheme("dlvp").build(),
                 tracer=exporter)
        out = tmp_path / "out.trace.json"
        exporter.write(out)
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "i" in phases          # instant events
        assert "C" in phases          # PAQ occupancy counter track
        assert "M" in phases          # thread-name metadata
        for e in events:
            assert {"ph", "name", "pid", "tid"} <= set(e)
            if e["ph"] != "M":
                assert isinstance(e["ts"], int)

    def test_commit_sampling_bounds_size(self):
        dense = ChromeTraceExporter(commit_sample=1)
        sparse = ChromeTraceExporter(commit_sample=64)
        simulate(_trace(), scheme=get_scheme("dlvp").build(), tracer=dense)
        simulate(_trace(), scheme=get_scheme("dlvp").build(), tracer=sparse)
        dense_commits = sum(1 for e in dense.events if e["name"] == "commit")
        sparse_commits = sum(1 for e in sparse.events if e["name"] == "commit")
        assert dense_commits > sparse_commits * 32


class TestFlightRecorder:
    def test_ring_keeps_last_n(self):
        flight = FlightRecorder(capacity=16)
        simulate(_trace(), scheme=get_scheme("dlvp").build(), tracer=flight)
        tail = flight.dump()
        assert len(tail) == 16
        assert flight.seen > 16
        assert tail[-1]["kind"] == "run_end"

    def test_tripwire_raises_mid_run(self):
        plan = FaultPlan.parse("raise@aifirf/dlvp")
        rule = plan.rule_for("aifirf", "dlvp", 1, "key")
        tripwire = FaultTripwire(rule)
        with pytest.raises(FaultInjected, match="instruction 1500"):
            simulate(_trace(3000), scheme=get_scheme("dlvp").build(),
                     tracer=tripwire)
        assert tripwire.tripped

    def test_tripwire_requires_raise_rule(self):
        plan = FaultPlan.parse("crash@*/*")
        with pytest.raises(ValueError):
            FaultTripwire(plan.rules[0])

    def test_run_traced_dumps_flight_on_fault(self, tmp_path):
        plan = FaultPlan.parse("raise@aifirf/dlvp")
        rule = plan.rule_for("aifirf", "dlvp", 1, "key")
        out = tmp_path / "run.trace.json"

        class MemoryJournal:
            def __init__(self):
                self.events = []

            def event(self, kind, **fields):
                self.events.append((kind, fields))

        journal = MemoryJournal()
        with pytest.raises(FaultInjected):
            run_traced(_trace(3000), scheme=get_scheme("dlvp").build(),
                       tripwire=FaultTripwire(rule), out=out, journal=journal)
        dump_path = tmp_path / "run.trace.flight.json"
        assert dump_path.exists()
        dump = json.loads(dump_path.read_text())
        assert dump["tail"] and dump["events_seen"] > 0
        kinds = [k for k, _ in journal.events]
        assert kinds == ["flight_recorder_dump"]
        fields = journal.events[0][1]
        assert fields["trace"] == "aifirf"
        assert "FaultInjected" in fields["error"]
        assert not out.exists()       # no chrome trace for a dead run

    def test_run_traced_success_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "ok.trace.json"
        run = run_traced(_trace(2000), scheme=get_scheme("dlvp").build(),
                         out=out)
        assert run.result is not None and run.result.intervals
        assert json.loads(out.read_text())["traceEvents"]


class TestRuntimeIntegration:
    def test_traced_jobs_write_artifacts(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path / "cache",
                          trace_dir=tmp_path / "traces")
        grid = runtime.run_grid(["baseline", "dlvp"], ["aifirf"], 2000)
        assert grid.result("dlvp", "aifirf").intervals
        assert (tmp_path / "traces" / "aifirf-dlvp.trace.json").exists()
        assert (tmp_path / "traces" / "aifirf-baseline.trace.json").exists()

    def test_traced_jobs_bypass_cache_reads(self, tmp_path):
        # warm the cache untraced...
        Runtime(jobs=1, cache_dir=tmp_path / "c").run_grid(
            ["dlvp"], ["aifirf"], 2000
        )
        # ...then a traced run of the same cell must still execute (the
        # artifacts are the point of tracing)
        runtime = Runtime(jobs=1, cache_dir=tmp_path / "c",
                          trace_dir=tmp_path / "t")
        runtime.run_grid(["dlvp"], ["aifirf"], 2000)
        assert runtime.journal.count("cache_hit") == 0
        assert (tmp_path / "t" / "aifirf-dlvp.trace.json").exists()


class TestCli:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        self.tmp_path = tmp_path

    def test_trace_command(self, capsys):
        out = self.tmp_path / "t.trace.json"
        assert main(["trace", "aifirf", "--scheme", "dlvp",
                     "--out", str(out), "--instructions", "3000",
                     "--interval", "1000"]) == 0
        printed = capsys.readouterr()
        assert "cov%" in printed.out
        assert json.loads(out.read_text())["traceEvents"]

    def test_trace_unknown_scheme(self):
        assert main(["trace", "aifirf", "--scheme", "bogus"]) == 2

    def test_observe_report_after_trace(self, capsys):
        out = self.tmp_path / "t.trace.json"
        assert main(["trace", "aifirf", "--out", str(out),
                     "--instructions", "3000", "--interval", "1000"]) == 0
        capsys.readouterr()
        assert main(["observe", "report"]) == 0
        report = capsys.readouterr().out
        assert "aifirf/dlvp" in report and "cov%" in report

    def test_observe_report_no_journal(self, capsys):
        assert main(["observe", "report",
                     "--journal", str(self.tmp_path / "missing.jsonl")]) == 2

    def test_trace_with_raise_fault(self, capsys):
        out = self.tmp_path / "f.trace.json"
        assert main(["trace", "aifirf", "--out", str(out),
                     "--instructions", "3000",
                     "--fault", "raise@aifirf/dlvp"]) == 1
        err = capsys.readouterr().err
        assert "flight recorder tail" in err
        assert (self.tmp_path / "f.trace.flight.json").exists()

    def test_run_with_trace_flag(self, capsys):
        traces = self.tmp_path / "traces"
        assert main(["run", "aifirf", "--instructions", "2000",
                     "--trace", str(traces)]) == 0
        assert (traces / "aifirf-dlvp.trace.json").exists()
