"""The benchmark's arithmetic: journal and span analysis, no I/O.

Everything here is a pure function of already-collected data (journal
events, span lists, wall times), so it is unit-tested directly.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

# Per-layer schemes reported as ``predictors.<id>_s``; ``baseline`` is
# the substrate every other scheme is differenced against.
BASELINE = "baseline"
PREDICTOR_SCHEMES = ("dlvp", "cap", "vtage", "dvtage", "tournament")


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` values above it.

    Nearest-rank: percentile ``p`` of ``n`` sorted values is the
    ``ceil(p/100 * n)``-th.  Returns ``(p, value)``, or None when there
    are too few values for any percentile to leave ``beyond`` above it.
    """
    n = len(values)
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    if p == 0:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


# -- untraced iterations: the run journal ------------------------------


def settled_cells(events: list[dict]) -> tuple[int, int]:
    """(cells attempted, cells not settled ok) over a run journal.

    Every ``job_submitted`` is one attempted cell.  It settled ok when
    its key was a result-cache hit or finished ``ok``.
    """
    ok_keys = {
        e["key"] for e in events
        if e["event"] == "cache_hit"
        or (e["event"] == "job_finished" and e["status"] == "ok")
    }
    submitted = [e["key"] for e in events if e["event"] == "job_submitted"]
    return len(submitted), sum(1 for key in submitted if key not in ok_keys)


def executed_payloads(events: list[dict]) -> dict[tuple[str, str], dict]:
    """``SimResult`` payloads of executed cells, by (workload, scheme)."""
    return {
        (e["workload"], e["scheme"]): e["result"]
        for e in events
        if e["event"] == "job_finished" and e["status"] == "ok"
    }


def results_digest(payloads: dict[tuple[str, str], dict]) -> str:
    """sha256 over every settled payload in (workload, scheme) order."""
    blob = json.dumps(sorted(([w, s], p) for (w, s), p in payloads.items()),
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def simulated_metrics(payloads: dict[tuple[str, str], dict]) -> dict[str, float]:
    """Properties of the modelled core; they repeat exactly per seed.

    Speedups are geometric means of baseline cycles / scheme cycles over
    the workloads that ran both; coverage and accuracy are plain means
    over DLVP cells, as Figure 6 averages them.
    """
    def gmean_ratio(scheme: str) -> float:
        ratios = [
            payloads[(w, BASELINE)]["cycles"] / p["cycles"]
            for (w, s), p in payloads.items()
            if s == scheme and (w, BASELINE) in payloads
        ]
        return math.exp(statistics.fmean(math.log(r) for r in ratios))

    dlvp = [p for (_, s), p in payloads.items() if s == "dlvp"]
    return {
        "sim_dlvp_speedup_gmean": gmean_ratio("dlvp"),
        "sim_vtage_speedup_gmean": gmean_ratio("vtage"),
        "sim_dlvp_coverage": statistics.fmean(
            p["value_predictions"] / p["loads"] if p["loads"] else 0.0
            for p in dlvp),
        "sim_dlvp_accuracy": statistics.fmean(
            1.0 - p["value_mispredictions"] / p["value_predictions"]
            if p["value_predictions"] else 1.0
            for p in dlvp),
    }


def journal_timing(events: list[dict], spawn_ts: float, jobs: int) -> dict:
    """Set-up, per-cell and worker-occupancy figures from one journal.

    ``setup_s`` runs from process spawn to the first ``job_started``.
    Occupancy is taken over the execution window, first ``job_started``
    to last ``job_finished``: busy ratio is summed cell durations over
    ``jobs`` x window, and the dispatch gap is what remains of it.
    """
    started = [e["ts"] for e in events if e["event"] == "job_started"]
    finished = [e for e in events if e["event"] == "job_finished"]
    durations = [e["duration"] for e in finished]
    window = max(e["ts"] for e in finished) - min(started)
    busy = sum(durations)
    return {
        "setup_s": min(started) - spawn_ts,
        "cells": durations,
        "retries": sum(e["attempts"] - 1 for e in finished),
        "worker_busy_ratio": busy / (jobs * window),
        "dispatch_gap_s": jobs * window - busy,
    }


# -- traced iterations: spans ------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def baseline_split(spans: list[dict]) -> dict[str, float]:
    """Split simulate() time into substrate and per-scheme predictor time.

    The substrate is the baseline scheme's simulate() time on a trace,
    charged to every cell on that trace; a scheme's predictor time is
    its simulate() time minus that charge, so the parts sum back to the
    total simulate() time.
    """
    calls = [s for s in spans if s["name"] == "pipeline.simulate"]
    base: dict[tuple, list[float]] = {}
    for s in calls:
        if s["attrs"]["scheme"] == BASELINE:
            key = (s["attrs"]["trace"], s["attrs"]["instructions"])
            base.setdefault(key, []).append(s["end"] - s["start"])
    out = {"substrate_s": 0.0, "substrate_instructions": 0}
    out.update({f"{scheme}_s": 0.0 for scheme in PREDICTOR_SCHEMES})
    for s in calls:
        scheme = s["attrs"]["scheme"]
        key = (s["attrs"]["trace"], s["attrs"]["instructions"])
        if key not in base:
            raise ValueError(f"no baseline simulate() on trace {key}")
        if scheme != BASELINE and scheme not in PREDICTOR_SCHEMES:
            raise ValueError(f"unreported scheme {scheme!r}")
        charge = statistics.fmean(base[key])
        out["substrate_s"] += charge
        out["substrate_instructions"] += s["attrs"]["instructions"]
        if scheme != BASELINE:
            out[f"{scheme}_s"] += (s["end"] - s["start"]) - charge
    return out


def layer_metrics(spans: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer self times and counts for one traced iteration.

    Every span name belongs to exactly one layer, so the layer self
    times plus ``other_s`` (wall time under no span) equal the traced
    wall time.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s["name"]] = total.get(s["name"], 0.0) + t
        count[s["name"]] = count.get(s["name"], 0) + 1

    def attr_sum(name: str, attr: str) -> int:
        return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)

    def hits(name: str, hit: bool) -> int:
        return sum(1 for s in spans
                   if s["name"] == name and s["attrs"].get("hit") is hit)

    generate_s = total.get("workloads.generate", 0.0)
    generated = attr_sum("workloads.generate", "instructions")
    decode_s = total.get("trace.decode", 0.0)
    decoded = attr_sum("trace.decode", "instructions")
    split = baseline_split(spans)
    m = {
        "workloads.generate_s": generate_s,
        "workloads.generate_calls": count.get("workloads.generate", 0),
        "workloads.generate_inst_per_s": generated / generate_s if generate_s else 0.0,
        "trace.decode_s": decode_s,
        "trace.decode_calls": count.get("trace.decode", 0),
        "trace.encode_s": total.get("trace.encode", 0.0),
        "trace.encode_calls": count.get("trace.encode", 0),
        "trace.decode_per_generate": (
            (decode_s / decoded) / (generate_s / generated)
            if decoded and generated and generate_s else 0.0),
        "pipeline.substrate_s": split["substrate_s"],
        "pipeline.substrate_inst_per_s": (
            split["substrate_instructions"] / split["substrate_s"]
            if split["substrate_s"] else 0.0),
        "pipeline.scheme_build_s": total.get("pipeline.scheme_build", 0.0),
        "pipeline.simulate_calls": count.get("pipeline.simulate", 0),
    }
    for scheme in PREDICTOR_SCHEMES:
        m[f"predictors.{scheme}_s"] = split[f"{scheme}_s"]
    m.update({
        "predictors.standalone_s": total.get("predictors.standalone", 0.0),
        "runtime.cache_get_s": (total.get("runtime.cache_get", 0.0)
                                + total.get("runtime.trace_get", 0.0)),
        "runtime.cache_put_s": total.get("runtime.cache_put", 0.0),
        "runtime.cache_hits": hits("runtime.cache_get", True),
        "runtime.cache_misses": hits("runtime.cache_get", False),
        "runtime.traces_built": sum(
            1 for s in spans if s["name"] == "workloads.generate"
            and s["attrs"].get("via") == "runtime"),
        "runtime.trace_cache_hits": hits("runtime.trace_get", True),
        "runtime.journal_s": total.get("runtime.journal", 0.0),
        "runtime.journal_events": count.get("runtime.journal", 0),
        "runtime.orchestrate_s": total.get("runtime.run_grid", 0.0),
        "experiments.self_s": total.get("experiments.figure", 0.0),
    })
    m["other_s"] = traced_wall - sum(own)
    m["traced.wall_s"] = traced_wall
    return m

