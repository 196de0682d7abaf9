"""Tests for the benchmark's own arithmetic and plans.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

import measure
import run
from plan import WORKLOADS, make_plan, stratified_sample
from spans import SpanRecorder

GROUPS = {
    "a": [f"a{i}" for i in range(12)],
    "b": [f"b{i}" for i in range(18)],
    "c": [f"c{i}" for i in range(30)],
    "d": [f"d{i}" for i in range(18)],
}
SCHEMES = ["baseline", "cap", "dlvp", "dvtage", "tournament", "vtage"]

# Per-layer metrics whose values partition the traced wall time.
WALL_PARTS = (
    "workloads.generate_s", "trace.decode_s", "trace.encode_s",
    "pipeline.substrate_s", "pipeline.scheme_build_s",
    *(f"predictors.{s}_s" for s in measure.PREDICTOR_SCHEMES),
    "predictors.standalone_s", "runtime.cache_get_s", "runtime.cache_put_s",
    "runtime.journal_s", "runtime.orchestrate_s", "experiments.self_s",
    "other_s",
)


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 24, 60, 100, 468])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    random.Random(n).shuffle(values)
    p, value = measure.tail_percentile(values)
    assert sum(1 for v in values if v > value) >= 10
    # one percentile higher would leave fewer than ten beyond
    rank = math.ceil((p + 1) * n / 100)
    assert p == 99 or n - rank < 10


def test_tail_percentile_needs_more_than_ten_values():
    assert measure.tail_percentile([1.0] * 10) is None
    assert measure.tail_percentile([]) is None


def test_tail_percentile_examples():
    assert measure.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert measure.tail_percentile([float(i) for i in range(1, 25)]) == (58, 14.0)


# -- spans and self time -------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_recorder_nests_spans_and_closes_on_error():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf():
        clock.now += 2.0

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    wrapped_leaf = rec.wrap("leaf", leaf)
    wrapped_boom = rec.wrap("boom", boom)

    def outer():
        clock.now += 1.0
        wrapped_leaf()
        with pytest.raises(RuntimeError):
            wrapped_boom()
        clock.now += 3.0

    rec.wrap("outer", outer)()
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("outer", -1), ("leaf", 0), ("boom", 0)]
    assert measure.self_times(rec.spans) == [4.0, 2.0, 1.0]


def test_attrs_see_the_result():
    rec = SpanRecorder(FakeClock())
    rec.wrap("f", lambda n: list(range(n)),
             lambda a, k, r: {"instructions": len(r)})(5)
    assert rec.spans[0]["attrs"] == {"instructions": 5}


def span(name, start, end, parent=-1, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": attrs}


def sim(start, end, scheme, trace, parent=-1, n=100):
    return span("pipeline.simulate", start, end, parent,
                scheme=scheme, trace=trace, instructions=n)


# -- baseline differencing ------------------------------------------------


def test_baseline_split_charges_substrate_to_every_cell():
    spans = [
        sim(0, 2, "baseline", "t1"), sim(2, 5, "dlvp", "t1"),
        sim(5, 9, "tournament", "t1"),
        sim(9, 10, "baseline", "t2"), sim(10, 10.5, "dlvp", "t2"),
    ]
    split = measure.baseline_split(spans)
    assert split["substrate_s"] == pytest.approx(2 * 3 + 1 * 2)
    assert split["dlvp_s"] == pytest.approx((3 - 2) + (0.5 - 1))
    assert split["tournament_s"] == pytest.approx(2)
    assert split["cap_s"] == 0.0
    parts = split["substrate_s"] + sum(
        split[f"{s}_s"] for s in measure.PREDICTOR_SCHEMES)
    assert parts == pytest.approx(10.5)


def test_baseline_split_rejects_missing_baseline_and_unknown_scheme():
    with pytest.raises(ValueError, match="no baseline"):
        measure.baseline_split([sim(0, 1, "dlvp", "t1")])
    with pytest.raises(ValueError, match="unreported"):
        measure.baseline_split([sim(0, 1, "baseline", "t1"),
                                sim(1, 2, "mystery", "t1")])


def test_layer_parts_sum_to_traced_wall():
    spans = [
        span("runtime.run_grid", 0.0, 9.0),
        span("workloads.generate", 0.5, 1.0, 0, instructions=100, via="runtime"),
        span("runtime.trace_get", 1.0, 1.5, 0, hit=True),
        span("trace.decode", 1.1, 1.4, 2, instructions=100),
        sim(2.0, 4.0, "baseline", "t1", 0),
        span("pipeline.scheme_build", 4.0, 4.1, 0),
        sim(4.1, 7.0, "vtage", "t1", 0),
        span("runtime.cache_put", 7.0, 7.5, 0),
        span("trace.encode", 7.1, 7.3, 7),
        span("runtime.journal", 7.5, 7.6, 0),
        span("experiments.figure", 9.0, 9.5),
        span("predictors.standalone", 9.1, 9.3, 10),
    ]
    m = measure.layer_metrics(spans, traced_wall=10.0)
    assert sum(m[k] for k in WALL_PARTS) == pytest.approx(10.0)
    assert m["other_s"] == pytest.approx(0.5)
    assert m["runtime.cache_get_s"] == pytest.approx(0.2)
    assert m["runtime.cache_put_s"] == pytest.approx(0.3)
    assert m["runtime.trace_cache_hits"] == 1
    assert m["runtime.traces_built"] == 1
    assert m["trace.decode_per_generate"] == pytest.approx(0.3 / 0.5)
    assert m["predictors.vtage_s"] == pytest.approx(0.9)
    assert m["experiments.self_s"] == pytest.approx(0.3)


# -- journal analysis -----------------------------------------------------


def test_settled_cells_counts_hits_as_ok_and_errors_as_failed():
    events = [
        {"event": "job_submitted", "key": "k1"},
        {"event": "job_submitted", "key": "k2"},
        {"event": "job_submitted", "key": "k3"},
        {"event": "cache_hit", "key": "k1"},
        {"event": "job_finished", "key": "k2", "status": "ok"},
        {"event": "job_finished", "key": "k3", "status": "error"},
    ]
    assert measure.settled_cells(events) == (3, 1)


def test_journal_timing():
    events = [
        {"event": "job_started", "ts": 101.0},
        {"event": "job_started", "ts": 101.0},
        {"event": "job_finished", "ts": 103.0, "duration": 2.0, "attempts": 1},
        {"event": "job_finished", "ts": 105.0, "duration": 3.0, "attempts": 2},
    ]
    t = measure.journal_timing(events, spawn_ts=100.0, jobs=2)
    assert t["setup_s"] == 1.0
    assert t["retries"] == 1
    assert t["worker_busy_ratio"] == pytest.approx(5.0 / 8.0)
    assert t["dispatch_gap_s"] == pytest.approx(3.0)


def test_digest_ignores_order_and_sees_changes():
    a = {("w1", "dlvp"): {"cycles": 10}, ("w2", "dlvp"): {"cycles": 20}}
    b = dict(reversed(list(a.items())))
    assert measure.results_digest(a) == measure.results_digest(b)
    c = {**a, ("w2", "dlvp"): {"cycles": 21}}
    assert measure.results_digest(a) != measure.results_digest(c)


def test_simulated_metrics():
    def cell(cycles, preds=0, wrong=0, loads=10):
        return {"cycles": cycles, "value_predictions": preds,
                "value_mispredictions": wrong, "loads": loads}

    payloads = {
        ("w1", "baseline"): cell(100), ("w1", "dlvp"): cell(50, 5, 1),
        ("w1", "vtage"): cell(100),
        ("w2", "baseline"): cell(100), ("w2", "dlvp"): cell(200, 0),
        ("w2", "vtage"): cell(100),
    }
    m = measure.simulated_metrics(payloads)
    assert m["sim_dlvp_speedup_gmean"] == pytest.approx(1.0)
    assert m["sim_vtage_speedup_gmean"] == pytest.approx(1.0)
    assert m["sim_dlvp_coverage"] == pytest.approx(0.25)
    assert m["sim_dlvp_accuracy"] == pytest.approx((0.8 + 1.0) / 2)


# -- seeded plans ---------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plans_are_seed_deterministic(workload):
    a = make_plan(workload, 7, GROUPS, SCHEMES)
    assert a == make_plan(workload, 7, GROUPS, SCHEMES)
    others = [make_plan(workload, seed, GROUPS, SCHEMES) for seed in range(8)]
    assert any(o["names"] != a["names"] for o in others)
    assert a["seed"] == 7


def test_sweeps_run_every_scheme():
    for workload, spec in WORKLOADS.items():
        plan = make_plan(workload, 3, GROUPS, SCHEMES)
        assert len(plan["names"]) == spec["sample"]
        if spec["kind"] == "sweep":
            assert sorted(plan["schemes"]) == SCHEMES


@pytest.mark.parametrize("k", [1, 4, 12, 78])
def test_stratified_sample_is_exact_and_proportional(k):
    picked = stratified_sample(GROUPS, k, random.Random(k))
    assert len(picked) == len(set(picked)) == k
    for g, names in GROUPS.items():
        share = k * len(names) / 78
        got = sum(1 for n in picked if n in names)
        assert math.floor(share) <= got <= math.ceil(share)


def test_stratified_sample_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        stratified_sample(GROUPS, 0, random.Random(0))
    with pytest.raises(ValueError):
        stratified_sample(GROUPS, 79, random.Random(0))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        make_plan("nope", 1, GROUPS, SCHEMES)


# -- BENCHMARK.json agrees with what the benchmark prints ----------------


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

    spans = [sim(0.0, 1.0, "baseline", "t1")]
    layers = measure.layer_metrics(spans, traced_wall=2.0)
    summary = {"wall_s": 2.0, "layers": layers, "n_cells": 1, "retries": 0,
               "worker_busy_ratio": 1.0, "dispatch_gap_s": 0.0}
    emitted = run.per_layer([(summary, summary)])
    assert [m["name"] for m in bench["per_layer"]] == list(emitted)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
