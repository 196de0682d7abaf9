"""repro.observe — opt-in, zero-overhead-when-off instrumentation.

The simulator's components each accept an optional :class:`Tracer`
(see :mod:`repro.observe.tracer` for the event taxonomy and the
zero-overhead contract).  This package provides the backends:

* :class:`IntervalMetricsCollector` — per-10k-instruction coverage/
  accuracy/IPC/occupancy rows into ``SimResult.intervals``;
* :class:`ChromeTraceExporter` — ``chrome://tracing``-loadable JSON;
* :class:`FlightRecorder` — ring buffer of the last N events, dumped
  when a run dies;
* :class:`FaultTripwire` — deterministic mid-run ``raise`` faults
  bridging :mod:`repro.faults` into traced simulations;
* :func:`run_traced` — the assembled stack around one ``simulate``.
"""

from repro.observe.chrome import ChromeTraceExporter
from repro.observe.flight import FaultTripwire, FlightRecorder
from repro.observe.interval import (
    DEFAULT_INTERVAL,
    IntervalMetricsCollector,
    render_report,
)
from repro.observe.run import TracedRun, run_traced
from repro.observe.tracer import HOOKS, MultiTracer, Tracer

__all__ = [
    "ChromeTraceExporter",
    "DEFAULT_INTERVAL",
    "FaultTripwire",
    "FlightRecorder",
    "HOOKS",
    "IntervalMetricsCollector",
    "MultiTracer",
    "Tracer",
    "TracedRun",
    "render_report",
    "run_traced",
]
