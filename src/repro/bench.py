"""Simulator throughput benchmark — ``python -m repro bench throughput``.

``bench throughput`` measures how many *simulated* instructions per
second ``simulate()`` sustains for each registered scheme on one
workload trace.  End-to-end grid timing (dispatch, trace cache,
journal) is measured by ``perfbench/run.py --workload sweep-short``.

Numbers land in a ``BENCH_*.json`` report (inst/s per scheme, wall
time, peak RSS of this process and its children, and ``setup_ms``: the
fixed cost of one ``simulate()`` call, see :func:`measure_setup`) so
the simulator's own performance trajectory is tracked in the
repository alongside its accuracy.

The committed report doubles as a regression baseline:
``--check BENCH_pr10.json`` re-measures and fails when any scheme's
best inst/s falls more than ``--max-regression`` below the committed
number.  The gate is **coherent by construction**:
the default here, the CI invocation and this docstring all say the
same 20% — best-of-N absorbs scheduler noise (which only ever slows a
run down), and the remaining machine-to-machine variance on the hosted
runners measures well under that margin at ``--repeats 5``.

Simulated *outcomes* are deliberately out of scope here: bit-identical
``SimResult``\\ s are locked by ``tests/test_golden_simresults.py``
(which exercises every trace input the runtime hands ``simulate()``),
so this module only has to care about speed.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Sequence

BENCH_REPORT_NAME = "BENCH_pr10.json"
# Where fresh, uncommitted reports go (the CI throughput job and the
# benchmarks/ session hook); the committed reference above is only
# ever rewritten on purpose.
CURRENT_REPORT_NAME = "bench_current.json"
DEFAULT_WORKLOAD = "gzip"
DEFAULT_INSTRUCTIONS = 24_000
DEFAULT_REPEATS = 3
# simulate() calls behind the best-of-N setup_ms figure; each costs
# well under a millisecond, so many repeats are cheap.
SETUP_REPEATS = 20
# One number, used everywhere: the default for --max-regression AND the
# value CI passes explicitly.  Keep the docstring above in sync.
DEFAULT_MAX_REGRESSION = 0.20
# Every registered scheme id, cheapest first; ``tournament`` runs two
# sub-predictors per load and dominates the wall time.
DEFAULT_SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")

# Throughput report sections by the engine that filled them.  Reports
# up to BENCH_pr10.json carry both; the one engine left (the former
# "columnar" loop) writes THROUGHPUT_SECTION, so fresh reports gate
# against the committed columnar numbers and the object section goes
# down check_regression's warn-and-skip path.
_ENGINE_SECTIONS = {"object": "schemes", "columnar": "columnar_schemes"}
THROUGHPUT_SECTION = _ENGINE_SECTIONS["columnar"]


def peak_rss_kib() -> int:
    """Peak resident set size of this process, in KiB.

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalise so the
    JSON report is comparable across both.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def child_peak_rss_kib() -> int:
    """Peak RSS over all reaped child processes of this process, KiB.

    ``RUSAGE_CHILDREN`` reports the *maximum* across terminated
    children — the memory :func:`peak_rss_kib` (parent-only) cannot
    see.  Zero when no child has been reaped yet.
    """
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def measure_scheme(trace, scheme_id: str, repeats: int = DEFAULT_REPEATS) -> dict:
    """Time ``simulate(trace, scheme)`` ``repeats`` times; report best.

    ``trace`` may be a :class:`~repro.trace.Trace` (converted on every
    call, so the conversion is timed too) or a
    :class:`~repro.trace.ColumnarTrace`.  A fresh scheme instance is
    built per repeat so no predictor state leaks between rounds;
    best-of-N is reported as the headline inst/s because scheduler noise
    only ever slows a run down.
    """
    from repro.pipeline.core_model import simulate
    from repro.runtime.registry import get_scheme

    spec = get_scheme(scheme_id)
    n = len(trace)
    rates = []
    wall = 0.0
    for _ in range(max(1, repeats)):
        scheme = spec.build()
        start = time.perf_counter()
        simulate(trace, scheme)
        elapsed = time.perf_counter() - start
        wall += elapsed
        rates.append(n / elapsed)
    return {
        "inst_per_s": round(max(rates)),
        "inst_per_s_mean": round(sum(rates) / len(rates)),
        "wall_s": round(wall, 3),
        "repeats": len(rates),
    }


def measure_setup(trace) -> float:
    """Best-of-N wall time, in ms, of a baseline ``simulate()`` on the
    first instruction of ``trace`` alone.

    With one instruction to simulate, this is what every call pays
    before its first instruction: building the core model, memory
    hierarchy and branch unit, and result assembly.  Reported next to
    inst/s, never gated on.
    """
    from repro.pipeline.core_model import simulate
    from repro.trace import ColumnarTrace

    one = ColumnarTrace(trace.name, [trace.instruction(0)])
    best = float("inf")
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        simulate(one, None)
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def run_throughput(
    workload: str = DEFAULT_WORKLOAD,
    instructions: int = DEFAULT_INSTRUCTIONS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    repeats: int = DEFAULT_REPEATS,
    progress=None,
) -> dict:
    """Run the full throughput bench; returns the JSON-safe report.

    Per-scheme numbers land in the report's ``THROUGHPUT_SECTION``.
    The trace is generated once as a :class:`~repro.trace.ColumnarTrace`
    (what the runtime hands ``simulate()``), so every scheme measures
    the exact same instruction stream.
    """
    from repro.workloads import build_workload_columnar

    t0 = time.perf_counter()
    trace = build_workload_columnar(workload, instructions)
    trace_s = time.perf_counter() - t0
    report = {
        "bench": "throughput",
        "workload": workload,
        "instructions": instructions,
        "trace_length": len(trace),
        "trace_build_s": round(trace_s, 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    results = {}
    for scheme_id in schemes:
        results[scheme_id] = measure_scheme(trace, scheme_id, repeats)
        if progress is not None:
            progress(scheme_id, results[scheme_id])
    report[THROUGHPUT_SECTION] = results
    report["setup_ms"] = measure_setup(trace)
    report["wall_s"] = round(time.perf_counter() - t0, 3)
    report["peak_rss_kib"] = peak_rss_kib()
    report["children_peak_rss_kib"] = child_peak_rss_kib()
    return report


def write_report(report: dict, path: str | Path) -> Path:
    """Write a bench report as stable (sorted-key) JSON; returns path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    """Read back a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def _usable_rate(entry) -> float | None:
    """Best-of-N inst/s of a report cell, or None when malformed."""
    if not isinstance(entry, dict):
        return None
    rate = entry.get("inst_per_s")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        return None
    return rate


def check_regression(
    current: dict,
    committed: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    warnings: list[str] | None = None,
) -> list[str]:
    """Compare a fresh report against a committed one.

    Returns a list of human-readable failures — empty means every
    (engine, scheme) present in both reports is within
    ``max_regression`` of its committed best-of-N inst/s.

    Mismatches between the two reports are *warned and skipped*, never
    failed: cells present on only one side (adding a scheme or an
    engine must not break CI retroactively), engine sections missing
    from either report, and entries without a usable ``inst_per_s``
    number (a malformed cell is a report problem, not a performance
    regression).  Pass a list as ``warnings`` to collect one message
    per skipped mismatch; the CLI prints them.
    """
    failures = []
    warn = warnings.append if warnings is not None else (lambda _msg: None)
    for engine, section in _ENGINE_SECTIONS.items():
        # reports of the retired grid bench carry a "schemes" *list*
        # (the grid config), not a per-scheme mapping — treat it as absent
        current_schemes = current.get(section)
        if not isinstance(current_schemes, dict):
            current_schemes = None
        committed_schemes = committed.get(section)
        if not isinstance(committed_schemes, dict):
            committed_schemes = None
        if current_schemes and not committed_schemes:
            warn(f"{engine}: committed report has no {section!r} section; "
                 f"skipping the whole engine")
        if committed_schemes and not current_schemes:
            warn(f"{engine}: fresh report has no {section!r} section; "
                 f"nothing to compare")
        current_schemes = current_schemes or {}
        committed_schemes = committed_schemes or {}
        for scheme_id in committed_schemes:
            if scheme_id not in current_schemes and current_schemes:
                warn(f"{engine}/{scheme_id}: in the committed report only; "
                     f"skipping")
        for scheme_id, entry in current_schemes.items():
            base = committed_schemes.get(scheme_id)
            if base is None:
                if committed_schemes:
                    warn(f"{engine}/{scheme_id}: not in the committed "
                         f"report; skipping")
                continue
            baseline_rate = _usable_rate(base)
            if baseline_rate is None or baseline_rate <= 0:
                warn(f"{engine}/{scheme_id}: committed entry has no usable "
                     f"inst_per_s; skipping")
                continue
            rate = _usable_rate(entry)
            if rate is None:
                warn(f"{engine}/{scheme_id}: fresh entry has no usable "
                     f"inst_per_s; skipping")
                continue
            floor = baseline_rate * (1.0 - max_regression)
            if rate < floor:
                failures.append(
                    f"{engine}/{scheme_id}: {rate:.0f} inst/s is "
                    f"{1 - rate / baseline_rate:.0%} below the committed "
                    f"{baseline_rate:.0f} inst/s (allowed: {max_regression:.0%})"
                )
    return failures
