"""In-memory spans around the simulator's public entry points.

A traced iteration wraps each layer's entry point *where its consumer
imported it* (``repro.runtime.jobs`` holds its own reference to
``build_workload``, ``repro.runtime.cache`` its own ``load_trace``, and
so on), runs the workload serially in one process, and writes the spans
out once at the end.  Nothing in the program is edited: the wrappers
live only in the traced benchmark process.

Each span is ``{"name", "start", "end", "parent", "attrs"}`` where
``parent`` is the index of the enclosing span (-1 at top level).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable


class SpanRecorder:
    """Nested spans on one thread, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[tuple, dict, object], dict] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, kwargs,
        result)`` adds fields once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "start": self.clock(), "end": None,
                    "parent": self._stack[-1] if self._stack else -1,
                    "attrs": {}}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced


def _length(args, kwargs, result) -> dict:
    return {"instructions": len(result)}


def _hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark workloads reach."""
    import repro.experiments.fig4_address_prediction as fig4
    import repro.experiments.fig6_value_prediction as fig6
    import repro.experiments.fig8_tournament as fig8
    import repro.experiments.runner as experiments_runner
    import repro.runtime.api as runtime_api
    import repro.runtime.cache as runtime_cache
    import repro.runtime.jobs as runtime_jobs
    import repro.runtime.journal as runtime_journal

    wrap = recorder.wrap
    built: dict = {}

    def patch(owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, wrap(name, getattr(owner, attr), attrs))

    # workloads: runtime builds one trace per call, build_suite many
    for attr in ("build_workload", "build_workload_columnar"):
        patch(runtime_jobs, attr, "workloads.generate",
              lambda a, k, r: {"instructions": a[1], "via": "runtime"})
    patch(experiments_runner, "build_suite", "workloads.generate",
          lambda a, k, r: {"instructions": sum(len(t) for t in r.values()),
                           "via": "experiments"})

    # trace: the codec the result cache reads and writes traces with
    for attr in ("load_trace", "load_trace_columnar"):
        patch(runtime_cache, attr, "trace.decode", _length)
    patch(runtime_cache, "save_trace", "trace.encode")

    # pipeline: scheme construction and simulate(); the scheme id of
    # each simulate() call is the one built just before it
    original_get_scheme = runtime_jobs.get_scheme

    def get_scheme(scheme_id: str):
        spec = original_get_scheme(scheme_id)

        def build():
            scheme = spec.build()
            built["last"] = (scheme, spec.scheme_id)
            return scheme

        return dataclasses.replace(
            spec, build=wrap("pipeline.scheme_build", build))

    runtime_jobs.get_scheme = get_scheme

    def simulate_attrs(args, kwargs, result) -> dict:
        scheme = kwargs.get("scheme", args[1] if len(args) > 1 else None)
        last = built.pop("last", (object(), "unknown"))
        return {"scheme": last[1] if last[0] is scheme else "unknown",
                "trace": result.trace_name,
                "instructions": result.instructions}

    patch(runtime_jobs, "simulate", "pipeline.simulate", simulate_attrs)
    patch(experiments_runner, "simulate", "pipeline.simulate", simulate_attrs)

    # predictors: Fig 4's standalone address predictors
    patch(fig4, "evaluate_pap", "predictors.standalone")
    patch(fig4, "evaluate_cap", "predictors.standalone")

    # runtime: result/trace cache, journal, grid orchestration
    cache_cls = runtime_cache.ResultCache
    patch(cache_cls, "get", "runtime.cache_get", _hit)
    patch(cache_cls, "contains", "runtime.cache_get")
    for attr in ("get_trace", "get_trace_columnar"):
        patch(cache_cls, attr, "runtime.trace_get", _hit)
    for attr in ("put", "put_trace", "put_trace_image"):
        patch(cache_cls, attr, "runtime.cache_put")
    patch(runtime_journal.RunJournal, "event", "runtime.journal")
    patch(runtime_api.Runtime, "run_grid", "runtime.run_grid")

    # experiments: figure run()/render() and the sweep summary helpers
    for module in (fig4, fig6, fig8):
        patch(module, "run", "experiments.figure")
    for cls in (fig4.Fig4Result, fig6.Fig6Result, fig8.Fig8Result):
        patch(cls, "render", "experiments.figure")
    for attr in ("format_table", "geometric_mean", "arithmetic_mean"):
        patch(experiments_runner, attr, "experiments.figure")
