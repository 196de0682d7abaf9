"""The repository benchmark: paper-figure regeneration and sweeps.

    python3 perfbench/run.py --workload {paper-figs,sweep-short}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each iteration runs in a fresh child
process (``iteration.py``) against a fresh cache directory, as a user's
cold ``repro figure`` / ``repro sweep`` would.  Iterations repeat until
the next one would overrun ``--seconds`` (at least one always runs).

``--trace 0`` reports the end-to-end metrics, each timing the median
over the iterations.  ``--trace 1`` alternates an untraced iteration with a
traced, serial, in-process one and reports the per-layer metrics of the
pair whose traced wall time is the median.

Every run checks its outputs: every cell must settle ``ok``, and the
digest of the settled results must be identical across all iterations
(traced ones included).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  Exits 1 when a check fails and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure
from plan import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ITERATION_TIMEOUT_S = 150.0
PR_SET_CHILD_SUBREAPER = 36

# End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {
    "wall_s": "s", "sim_inst_per_s": "1/s", "cell_p50_s": "s",
    "cell_tail_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "sim_dlvp_speedup_gmean": "x", "sim_vtage_speedup_gmean": "x",
    "sim_dlvp_accuracy": "ratio",
}

# Published values, printed beside the simulated ones for context only.
PAPER = {
    "sim_dlvp_speedup_gmean": "DLVP +4.8% mean speedup (Fig 6a)",
    "sim_vtage_speedup_gmean": "VTAGE +2.1% mean speedup (Fig 6a)",
    "sim_dlvp_coverage": "DLVP 31.1% coverage (Fig 6b)",
    "sim_dlvp_accuracy": "DLVP >99% accuracy (Fig 6b)",
    "fig4_pap": "PAP 37% / 99.1% (Fig 4)",
    "fig4_cap8": "CAP@8 29.5% / 97.7% (Fig 4)",
    "fig8_shares": "DLVP 18.2% / VTAGE 16.1% of loads (Fig 8b)",
}


class IterationFailed(RuntimeError):
    """An iteration process timed out or exited non-zero."""


def become_subreaper() -> None:
    """Adopt orphaned descendants, so pool workers and the forkserver
    are reaped here and count in ``RUSAGE_CHILDREN``'s peak RSS."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants(pgid: int, grace_s: float = 10.0) -> None:
    """Wait for every adopted descendant; kill the group after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                deadline = float("inf")
            time.sleep(0.01)


def run_iteration(plan: dict, work: Path, src: Path, traced: bool) -> dict:
    """One iteration process; returns its wall time, journal and outputs."""
    tmp = Path(tempfile.mkdtemp(prefix="iter-", dir=work))
    try:
        plan_path, out_path, spans_path = (
            tmp / "plan.json", tmp / "out.json", tmp / "spans.json")
        cache_dir = tmp / "cache"
        plan_path.write_text(json.dumps(plan))
        cmd = [sys.executable, str(HERE / "iteration.py"), "--plan", str(plan_path),
               "--cache-dir", str(cache_dir), "--out", str(out_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        # Keep multiprocessing's temporary files (the forkserver socket)
        # inside the checkout, unless that would push the socket path
        # past the AF_UNIX limit of 107 bytes.
        if len(str(work / "tmp")) + 32 <= 107:
            (work / "tmp").mkdir(exist_ok=True)
            env["TMPDIR"] = str(work / "tmp")
        with open(tmp / "stderr.log", "wb") as err:
            spawn_ts = time.time()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err, start_new_session=True)
            try:
                rc = proc.wait(timeout=ITERATION_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = None
            finally:
                wall = time.time() - spawn_ts
                reap_descendants(proc.pid)
        if rc != 0:
            tail = (tmp / "stderr.log").read_text(errors="replace")[-2000:]
            reason = "timed out" if rc is None else f"exited {rc}"
            raise IterationFailed(f"iteration {reason}:\n{tail}")
        journal = cache_dir / "last-run.jsonl"
        return {
            "traced": traced,
            "spawn_ts": spawn_ts,
            "wall": wall,
            "events": [json.loads(line) for line in
                       journal.read_text().splitlines() if line.strip()],
            "extras": json.loads(out_path.read_text()),
            "spans": json.loads(spans_path.read_text()) if traced else None,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def summarize(it: dict, plan: dict) -> dict:
    """Per-iteration figures from the journal (and spans, when traced)."""
    events = it["events"]
    attempted, failed = measure.settled_cells(events)
    payloads = measure.executed_payloads(events)
    timing = measure.journal_timing(events, it["spawn_ts"], plan["jobs"])
    cells = timing["cells"]
    tail = measure.tail_percentile(cells)
    out = {
        "attempted": attempted,
        "failed": failed,
        "digest": measure.results_digest(payloads),
        "extras": it["extras"],
        "sim": measure.simulated_metrics(payloads),
        "wall_s": it["wall"],
        "sim_inst_per_s": len(cells) * plan["n_instructions"] / it["wall"],
        "cell_p50_s": statistics.median(cells),
        "cell_tail": tail,
        "setup_s": timing["setup_s"],
        "n_cells": len(cells),
        "retries": timing["retries"],
        "worker_busy_ratio": timing["worker_busy_ratio"],
        "dispatch_gap_s": timing["dispatch_gap_s"],
    }
    if it["traced"]:
        out["layers"] = measure.layer_metrics(it["spans"], it["wall"])
    return out


def iterate(plan: dict, seconds: float, traced: bool, work: Path,
            src: Path) -> list[tuple[dict, dict | None]]:
    """(untraced, traced-or-None) summaries until ``seconds`` would be
    overrun by one more round of the slowest round so far."""
    # spans are recorded in-process, so traced iterations run serially
    serial = dict(plan, jobs=1)
    rounds: list[tuple[dict, dict | None]] = []
    started = time.monotonic()
    slowest = 0.0
    while not rounds or time.monotonic() - started + slowest <= seconds:
        t0 = time.monotonic()
        plain = summarize(run_iteration(plan, work, src, False), plan)
        with_spans = (summarize(run_iteration(serial, work, src, True), serial)
                      if traced else None)
        rounds.append((plain, with_spans))
        slowest = max(slowest, time.monotonic() - t0)
    return rounds


def end_to_end(summaries: list[dict], peak_rss_kib: int) -> dict[str, float]:
    """Each timing is its median over the run's iterations."""
    def med(key: str) -> float:
        return statistics.median(s[key] for s in summaries)

    sim = summaries[0]["sim"]
    return {
        "wall_s": med("wall_s"),
        "sim_inst_per_s": med("sim_inst_per_s"),
        "cell_p50_s": med("cell_p50_s"),
        "cell_tail_s": statistics.median(s["cell_tail"][1] for s in summaries),
        "setup_s": med("setup_s"),
        "peak_rss_mib": peak_rss_kib / 1024,
        "sim_dlvp_speedup_gmean": sim["sim_dlvp_speedup_gmean"],
        "sim_vtage_speedup_gmean": sim["sim_vtage_speedup_gmean"],
        "sim_dlvp_accuracy": sim["sim_dlvp_accuracy"],
    }


def per_layer(rounds: list[tuple[dict, dict | None]]) -> dict[str, float]:
    """Layer metrics of the round whose traced wall time is the median."""
    ordered = sorted(rounds, key=lambda r: r[1]["wall_s"])
    plain, traced = ordered[(len(ordered) - 1) // 2]
    m = dict(traced["layers"])
    m["runtime.cells_executed"] = traced["n_cells"]
    m["runtime.retries"] = traced["retries"]
    m["runtime.worker_busy_ratio"] = plain["worker_busy_ratio"]
    m["runtime.dispatch_gap_s"] = plain["dispatch_gap_s"]
    m["traced.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_generate")):
        return "ratio"
    return "count"


def report(plan: dict, summaries: list[dict], checks: dict,
           metrics: dict[str, float], units: dict[str, str]) -> None:
    first = summaries[0]
    print(f"perfbench {plan['workload']}  seed={plan['seed']}  "
          f"{len(plan['names'])} workloads x {plan['n_instructions']} "
          f"instructions, jobs={plan['jobs']}, {len(summaries)} iteration(s)")
    print(f"  workloads: {' '.join(plan['names'])}")
    if "schemes" in plan:
        print(f"  schemes:   {' '.join(plan['schemes'])}")
    print(f"  result digest {first['digest'][:16]} "
          f"({'identical' if checks['digest_stable'] else 'DIFFERS'} "
          f"across iterations)")
    walls = " ".join(f"{s['wall_s']:.3f}" for s in summaries)
    print(f"  iteration wall times (s): {walls}")
    for name, value in metrics.items():
        note = ""
        if name == "cell_tail_s":
            p, _ = first["cell_tail"]
            note = f"  (p{p} of {first['n_cells']} cells per iteration)"
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")
    print("  simulated values (the model is not validated against hardware, "
          "so no error figure is given; paper values are context only):")
    for name, value in first["sim"].items():
        print(f"    {name:30s} {value:10.4f}   paper: {PAPER[name]}")
    for name, value in first["extras"].items():
        shown = " / ".join(f"{v:.1%}" for v in value)
        print(f"    {name:30s} {shown:>10s}   paper: {PAPER[name]}")
    print(f"  checks: {checks['attempted'] - checks['failed']}/"
          f"{checks['attempted']} cells ok (fail_ratio "
          f"{checks['failed'] / checks['attempted']:.4f}), digest "
          f"{'stable' if checks['digest_stable'] else 'UNSTABLE'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time paper-figure regeneration and sweeps, "
                    "end to end (--trace 0) or per layer (--trace 1).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.runtime import scheme_ids
    from repro.workloads import SUITE, workload_names

    families: dict[str, list[str]] = {}
    for name in workload_names():
        families.setdefault(SUITE[name].kernel.__name__, []).append(name)
    plan = make_plan(args.workload, args.seed, families, scheme_ids())
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    become_subreaper()
    try:
        rounds = iterate(plan, args.seconds, bool(args.trace), work, src)
    except IterationFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summaries = [s for r in rounds for s in r if s is not None]
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    checks = {
        "attempted": attempted,
        "failed": failed,
        "digest_stable": len({(s["digest"], json.dumps(s["extras"]))
                              for s in summaries}) == 1,
    }
    correct = failed == 0 and checks["digest_stable"]
    if args.trace:
        metrics = per_layer(rounds)
        units = {name: layer_unit(name) for name in metrics}
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = end_to_end(summaries, peak)
        units = END_TO_END
    report(plan, summaries, checks, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
