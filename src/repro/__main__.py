"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                         — list the workload suite
* ``run <workload> [...]``         — simulate workloads under a scheme
* ``figure <id>``                  — regenerate one paper figure/table
* ``profile <workload> [...]``     — Figure 1/2 trace profiles
* ``sweep``                        — run a scheme x workload grid
* ``chaos``                        — sweep under deterministic fault injection
* ``cache verify|gc``              — audit / prune the result cache
* ``bench throughput``             — simulator inst/s report (``BENCH_*.json``)
* ``trace <workload>``             — one traced simulation (Chrome trace +
  interval metrics + flight recorder; see :mod:`repro.observe`)
* ``observe report``               — interval-metrics report from a journal

``run``, ``figure``, ``sweep`` and ``chaos`` go through
:mod:`repro.runtime`: ``--jobs N`` fans simulation out over N worker
processes, results are cached content-addressed under ``--cache-dir``
(default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; disable with
``--no-cache``), and a JSONL run journal is written (``--journal``,
default ``<cache-dir>/last-run.jsonl``).  Tables go to stdout, the
run summary to stderr, so output stays pipe- and diff-friendly.

Fault tolerance: Ctrl-C (or SIGTERM) prints a partial-grid report —
completed cells stay cached and journaled — and exits 130; relaunching
with ``--resume <journal>`` skips everything the journal already shows
finished, even under ``--no-cache``.  ``--retries``, ``--backoff`` and
``--timeout-escalation`` tune the retry policy; ``chaos --fault SPEC``
(or ``$REPRO_FAULT_SPEC``) injects deterministic worker crashes,
hangs, raises, slowdowns and cache corruption to prove the recovery
paths on demand.

Examples::

    python -m repro run perlbmk nat --scheme dlvp --instructions 20000
    python -m repro figure 6 --instructions 8000 --jobs 4
    python -m repro figure table2
    python -m repro profile gzip
    python -m repro sweep --schemes dlvp vtage --workloads gzip nat crc
    python -m repro sweep --schemes dlvp --resume ~/.cache/repro/last-run.jsonl
    python -m repro chaos --fault 'crash@gzip/dlvp:1' --jobs 4
    python -m repro trace aifirf --scheme dlvp --out trace.json
    python -m repro observe report
    python -m repro run aifirf --scheme dlvp --trace traces/
    python -m repro bench throughput --output bench_current.json
    python -m repro cache verify
    python -m repro cache gc --max-age-days 30 --max-size-mb 512
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import SuiteRunner, arithmetic_mean, geometric_mean
from repro.experiments.runner import format_table
from repro.faults import FAULT_SPEC_ENV, FaultPlan, active_plan
from repro.pipeline import RecoveryMode
from repro.runtime import (
    ResultCache,
    RunInterrupted,
    Runtime,
    default_cache_dir,
    scheme_ids,
)
from repro.trace import load_store_conflicts, repeatability
from repro.workloads import SUITE, build_workload, workload_names

_RUN_SCHEMES = ("dlvp", "cap", "vtage", "dvtage", "tournament")


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("runtime")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = serial, the default)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result/trace cache root "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    group.add_argument("--no-cache", action="store_true",
                       help="always simulate; do not read or write the cache")
    group.add_argument("--journal", default=None, metavar="FILE",
                       help="JSONL run journal path "
                            "(default: <cache-dir>/last-run.jsonl)")
    group.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-job wall-clock limit")
    group.add_argument("--retries", type=int, default=1, metavar="N",
                       help="extra attempts for a job whose worker raised "
                            "or died (default: 1)")
    group.add_argument("--backoff", type=float, default=0.0, metavar="SECONDS",
                       help="deterministic exponential retry delay base "
                            "(attempt n waits backoff * 2**(n-2))")
    group.add_argument("--timeout-escalation", type=float, default=None,
                       metavar="FACTOR",
                       help="retry timed-out jobs with their timeout "
                            "multiplied by FACTOR (default: no retry)")
    group.add_argument("--resume", default=None, metavar="JOURNAL",
                       help="skip jobs a previous run's journal already "
                            "shows finished (works with --no-cache)")


def _runtime_from_args(
    args: argparse.Namespace, faults: FaultPlan | None = None
) -> Runtime:
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    journal_path = args.journal
    if journal_path is None and not args.no_cache:
        journal_path = cache_dir / "last-run.jsonl"
    try:
        return Runtime(
            jobs=args.jobs,
            cache_dir=cache_dir,
            use_cache=not args.no_cache,
            journal_path=journal_path,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            timeout_factor=args.timeout_escalation,
            faults=faults,
            resume_from=args.resume,
            trace_dir=getattr(args, "trace", None),
        )
    except ValueError as exc:      # a usage error, like argparse's
        print(f"{args.command}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _interrupted(grid_or_exc) -> int:
    """Print an interrupted run's partial-grid report; exit code 130."""
    report = (
        grid_or_exc.grid.partial_report()
        if isinstance(grid_or_exc, RunInterrupted)
        else grid_or_exc.partial_report()
    )
    print(report, file=sys.stderr)
    return 130


def _print_summary(runtime: Runtime) -> None:
    print(runtime.journal.format_summary(), file=sys.stderr)


def cmd_list(args: argparse.Namespace) -> int:
    rows = [
        [spec.name, spec.group, spec.kernel.__name__]
        for spec in sorted(SUITE.values(), key=lambda s: (s.group, s.name))
    ]
    print(format_table(["workload", "group", "kernel"], rows))
    n_paper = len(workload_names())
    print(f"\n{len(SUITE)} workloads ({n_paper} paper, "
          f"{len(SUITE) - n_paper} adversarial)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.scheme not in scheme_ids():
        print(f"unknown scheme {args.scheme!r}; have {sorted(_RUN_SCHEMES)}",
              file=sys.stderr)
        return 2
    recovery = RecoveryMode(args.recovery)
    runtime = _runtime_from_args(args)
    grid = runtime.run_grid(
        ["baseline", args.scheme], args.workloads, args.instructions,
        recovery=recovery,
    )
    if not grid.complete:
        _print_summary(runtime)
        return _interrupted(grid)
    if grid.failures():
        for outcome in grid.failures():
            print(f"FAILED {outcome.job.workload}/{outcome.job.scheme_id}: "
                  f"{outcome.error}", file=sys.stderr)
        return 1
    rows = []
    for name in args.workloads:
        baseline = grid.result("baseline", name)
        result = grid.result(args.scheme, name)
        rows.append([
            name,
            f"{baseline.ipc:5.2f}",
            f"{result.ipc:5.2f}",
            f"{result.speedup_over(baseline):+7.2%}",
            f"{result.value_coverage:6.1%}",
            f"{result.value_accuracy:7.2%}",
            str(result.flushes.value),
        ])
    print(format_table(
        ["workload", "base ipc", "ipc", "speedup", "coverage", "accuracy",
         "value flushes"],
        rows,
    ))
    _print_summary(runtime)
    return 0


_FIGURES = {
    "1": ("fig1_conflicts", "run"),
    "2": ("fig2_repeatability", "run"),
    "4": ("fig4_address_prediction", "run"),
    "5": ("fig5_prefetch", "run"),
    "6": ("fig6_value_prediction", "run"),
    "7": ("fig7_vtage_flavors", "run"),
    "8": ("fig8_tournament", "run"),
    "9": ("fig9_selected", "run"),
    "10": ("fig10_recovery", "run"),
}
_TABLES = {"table1", "table2", "table3", "table4"}


def cmd_figure(args: argparse.Namespace) -> int:
    import importlib
    target = args.id.lower()
    if target in _TABLES:
        tables = importlib.import_module("repro.experiments.tables")
        print(getattr(tables, target)().render())
        return 0
    if target not in _FIGURES:
        print(f"unknown figure {args.id!r}; have "
              f"{sorted(_FIGURES)} and {sorted(_TABLES)}", file=sys.stderr)
        return 2
    module_name, func = _FIGURES[target]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    names = args.workloads or None
    runtime = _runtime_from_args(args)
    runner = SuiteRunner(
        n_instructions=args.instructions, names=names, runtime=runtime
    )
    try:
        print(getattr(module, func)(runner).render())
    except RunInterrupted as exc:
        _print_summary(runtime)
        return _interrupted(exc)
    _print_summary(runtime)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    known = scheme_ids()
    unknown = [s for s in args.schemes if s not in known]
    if unknown:
        print(f"unknown scheme(s) {unknown}; registered: {known}",
              file=sys.stderr)
        return 2
    workloads = args.workloads or workload_names()
    recovery = RecoveryMode(args.recovery)
    runtime = _runtime_from_args(args)
    schemes = [s for s in args.schemes if s != "baseline"]
    grid = runtime.run_grid(
        ["baseline"] + schemes, workloads, args.instructions, recovery=recovery
    )
    if not grid.complete:
        _print_summary(runtime)
        return _interrupted(grid)
    # failed/timed-out cells render as their status; means cover the
    # cells whose scheme AND baseline runs both succeeded
    speedups = {
        s: {
            w: grid.result(s, w).speedup_over(grid.result("baseline", w))
            for w in workloads
            if grid.outcome(s, w).ok and grid.outcome("baseline", w).ok
        }
        for s in schemes
    }
    rows = []
    for name in workloads:
        row = [name]
        for s in schemes:
            if name in speedups[s]:
                row.append(f"{speedups[s][name]:+8.2%}")
            else:
                bad = grid.outcome(s, name)
                if bad.ok:
                    bad = grid.outcome("baseline", name)
                row.append(bad.status.upper())
        rows.append(row)
    for label, mean in (("(arith mean)", arithmetic_mean),
                        ("(geo mean)", geometric_mean)):
        rows.append([label] + [
            f"{mean(speedups[s].values()):+8.2%}" if speedups[s] else "n/a"
            for s in schemes
        ])
    print(f"sweep — {len(schemes)} scheme(s) x {len(workloads)} workload(s), "
          f"{args.instructions} instructions, recovery={recovery.value}")
    print(format_table(["workload"] + schemes, rows))
    if grid.failures():
        for outcome in grid.failures():
            print(f"FAILED {outcome.job.workload}/{outcome.job.scheme_id}: "
                  f"{outcome.error}", file=sys.stderr)
    _print_summary(runtime)
    return 1 if grid.failures() else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a sweep under an explicit fault plan and report per-cell fates."""
    spec = args.fault if args.fault is not None else None
    plan = FaultPlan.parse(spec) if spec else active_plan()
    if plan is None or not plan.rules:
        print(f"chaos: no fault plan; pass --fault SPEC or set "
              f"${FAULT_SPEC_ENV}", file=sys.stderr)
        return 2
    known = scheme_ids()
    unknown = [s for s in args.schemes if s not in known]
    if unknown:
        print(f"unknown scheme(s) {unknown}; registered: {known}",
              file=sys.stderr)
        return 2
    workloads = args.workloads or workload_names()
    runtime = _runtime_from_args(args, faults=plan)
    print(f"chaos — plan '{plan.spec()}', {len(args.schemes)} scheme(s) x "
          f"{len(workloads)} workload(s), {args.instructions} instructions")
    grid = runtime.run_grid(args.schemes, workloads, args.instructions)
    rows = []
    for workload in workloads:
        for scheme in args.schemes:
            outcome = grid.outcome(scheme, workload)
            rows.append([
                workload, scheme, outcome.status, str(outcome.attempts),
                (outcome.error or "")[:60],
            ])
    print(format_table(["workload", "scheme", "status", "attempts", "error"],
                       rows))
    statuses = [o.status for o in grid.cells.values()]
    print(f"chaos: {statuses.count('ok')} ok, "
          f"{statuses.count('error')} error, "
          f"{statuses.count('timeout')} timeout, "
          f"{statuses.count('interrupted')} interrupted", file=sys.stderr)
    _print_summary(runtime)
    if not grid.complete:
        return _interrupted(grid)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache verify``: audit + quarantine; ``cache gc``: age/size prune."""
    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(
        root,
        on_corrupt=lambda key, reason, dest: print(
            f"quarantined {key[:12]}…: {reason} -> {dest}", file=sys.stderr
        ),
    )
    if args.action == "verify":
        report = cache.verify()
        print(f"cache {root}: {report['results']} results "
              f"({report['ok']} ok, {report['stale']} stale, "
              f"{report['corrupt']} quarantined), "
              f"{report['traces']} traces "
              f"({report['trace_corrupt']} quarantined)")
        return 1 if report["corrupt"] or report["trace_corrupt"] else 0
    report = cache.gc(max_age_days=args.max_age_days,
                      max_size_mb=args.max_size_mb)
    print(f"cache {root}: reclaimed {report['bytes_freed']} bytes — "
          f"removed {report['removed']} entries "
          f"({report['results_removed']} results, "
          f"{report['traces_removed']} traces, "
          f"{report['quarantined_removed']} quarantined), "
          f"kept {report['kept']} ({report['bytes_kept']} bytes)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench throughput``: simulate() inst/s per scheme."""
    from repro import bench

    unknown = [s for s in args.schemes if s not in scheme_ids()]
    if unknown:
        print(f"unknown scheme(s) {unknown}; registered: {scheme_ids()}",
              file=sys.stderr)
        return 2
    print(f"bench throughput — {args.workload} x {args.instructions} "
          f"instructions, best of {args.repeats}", file=sys.stderr)
    report = bench.run_throughput(
        workload=args.workload,
        instructions=args.instructions,
        schemes=args.schemes,
        repeats=args.repeats,
        progress=lambda sid, entry: print(
            f"  {sid:<11} {entry['inst_per_s']:>9,} inst/s "
            f"({entry['wall_s']:.2f}s)", file=sys.stderr),
    )
    rows = [
        [sid, f"{entry['inst_per_s']:,}", f"{entry['inst_per_s_mean']:,}",
         f"{entry['wall_s']:.2f}"]
        for sid, entry in report[bench.THROUGHPUT_SECTION].items()
    ]
    print(format_table(
        ["scheme", "inst/s (best)", "inst/s (mean)", "wall s"], rows
    ))
    print(f"setup {report['setup_ms']:.2f} ms per simulate(), "
          f"peak RSS {report['peak_rss_kib']} KiB, "
          f"total wall {report['wall_s']:.1f}s")
    if args.output:
        path = bench.write_report(report, args.output)
        print(f"wrote {path}", file=sys.stderr)
    if args.check:
        committed = bench.load_report(args.check)
        warnings: list[str] = []
        failures = bench.check_regression(
            report, committed, args.max_regression, warnings=warnings
        )
        for warning in warnings:
            print(f"WARNING {warning}", file=sys.stderr)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"{args.target} within {args.max_regression:.0%} of "
              f"{args.check}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """One traced simulation with the full observability stack.

    Writes a ``chrome://tracing``-loadable JSON to ``--out``, prints the
    interval-metrics report, and journals the run like any runtime job
    (so ``observe report`` finds it later).  A ``raise`` rule in
    ``--fault`` (or ``$REPRO_FAULT_SPEC``) arms a deterministic mid-run
    tripwire; the flight-recorder tail then lands beside ``--out`` and
    in the journal.
    """
    from repro import faults as faults_mod
    from repro.observe import FaultTripwire, render_report, run_traced
    from repro.runtime.jobs import make_job
    from repro.runtime.journal import RunJournal
    from repro.runtime.registry import get_scheme

    if args.scheme not in scheme_ids():
        print(f"unknown scheme {args.scheme!r}; registered: {scheme_ids()}",
              file=sys.stderr)
        return 2
    recovery = RecoveryMode(args.recovery)
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    journal_path = args.journal or cache_dir / "last-run.jsonl"
    journal = RunJournal(journal_path)
    job = make_job(args.workload, args.instructions, args.scheme,
                   recovery=recovery, trace_dir=str(Path(args.out).parent))
    journal.event("job_submitted", **job.identity())
    journal.event("job_started", key=job.key, workload=job.workload,
                  scheme=job.scheme_id, attempt=1)

    tripwire = None
    plan = faults_mod.active_plan(args.fault)
    if plan is not None:
        rule = plan.rule_for(job.workload, job.scheme_id, 1, job.key)
        if rule is not None and rule.kind == "raise":
            tripwire = FaultTripwire(rule)
            journal.event("fault_injected", key=job.key, fault=rule.kind,
                          rule=rule.clause())
        elif rule is not None:
            # crash/hang/slow act out exactly as in a runtime worker
            faults_mod.inject(job.workload, job.scheme_id, 1, job.key, plan)

    trace = build_workload(args.workload, args.instructions)
    try:
        run = run_traced(
            trace,
            scheme=get_scheme(args.scheme).build(),
            recovery=recovery,
            interval=args.interval,
            flight_capacity=args.flight,
            tripwire=tripwire,
            out=args.out,
            journal=journal,
        )
    except Exception as exc:
        journal.event("job_finished", key=job.key, workload=job.workload,
                      scheme=job.scheme_id, status="error", duration=0.0,
                      attempts=1, error=f"{type(exc).__name__}: {exc}")
        dump = Path(args.out).with_suffix(".flight.json")
        print(f"trace failed: {exc}", file=sys.stderr)
        if dump.exists():
            print(f"flight recorder tail: {dump}", file=sys.stderr)
        return 1
    result = run.result
    journal.event("job_finished", key=job.key, workload=job.workload,
                  scheme=job.scheme_id, status="ok", duration=0.0,
                  attempts=1, error=None, result=result.to_dict())
    print(f"trace — {args.workload}/{args.scheme}, "
          f"{result.instructions} instructions, {result.cycles} cycles, "
          f"ipc {result.ipc:.3f}")
    print(render_report(result.intervals))
    print(f"wrote {args.out} ({len(run.chrome.events)} events; "
          f"load in chrome://tracing)", file=sys.stderr)
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    """``observe report``: interval metrics from journaled traced runs."""
    from repro.observe import render_report
    from repro.runtime.journal import read_journal

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    journal_path = Path(args.journal or cache_dir / "last-run.jsonl")
    if not journal_path.exists():
        print(f"no journal at {journal_path}", file=sys.stderr)
        return 2
    events = read_journal(journal_path)
    traced = [
        e for e in events
        if e.get("event") == "job_finished" and e.get("status") == "ok"
        and isinstance(e.get("result"), dict)
        and e["result"].get("intervals")
    ]
    dumps = [e for e in events if e.get("event") == "flight_recorder_dump"]
    if not traced and not dumps:
        print("no traced runs with interval data in this journal",
              file=sys.stderr)
        return 1
    for entry in traced[-args.last:]:
        result = entry["result"]
        print(f"{entry.get('workload')}/{entry.get('scheme')} — "
              f"{result['instructions']} instructions, "
              f"{result['cycles']} cycles")
        print(render_report(result["intervals"]))
        print()
    for entry in dumps[-args.last:]:
        print(f"flight dump: {entry.get('trace')}/{entry.get('scheme')} — "
              f"{entry.get('error')} ({entry.get('events_seen')} events seen"
              + (f", {entry.get('dump_path')}" if entry.get("dump_path")
                 else "") + ")")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    for name in args.workloads:
        trace = build_workload(name, args.instructions)
        conflicts = load_store_conflicts(trace, window=64)
        repeats = repeatability(trace)
        print(f"{name}: {len(trace)} instructions, "
              f"{conflicts.total_loads} loads")
        print(f"  conflicting loads: {conflicts.fraction_conflicting:6.1%} "
              f"(committed {conflicts.fraction_committed:.1%}, "
              f"in-flight {conflicts.fraction_inflight:.1%})")
        print(f"  addresses repeating >= 8:  "
              f"{repeats.fraction_repeating('address', 8):6.1%}")
        print(f"  values repeating >= 64:    "
              f"{repeats.fraction_repeating('value', 64):6.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DLVP/PAP reproduction (MICRO 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite")

    run = sub.add_parser("run", help="simulate workloads under a scheme")
    run.add_argument("workloads", nargs="+", choices=sorted(SUITE),
                     metavar="workload")
    run.add_argument("--scheme", default="dlvp",
                     help="dlvp | cap | vtage | dvtage | tournament")
    run.add_argument("--recovery", default="flush",
                     choices=[m.value for m in RecoveryMode])
    run.add_argument("--instructions", type=int, default=16_000)
    run.add_argument("--trace", default=None, metavar="DIR",
                     help="run under the observability stack; write Chrome "
                          "traces (and flight dumps on failure) into DIR")
    _add_runtime_flags(run)

    fig = sub.add_parser("figure", help="regenerate one figure or table")
    fig.add_argument("id", help="1,2,4..10 or table1..table4")
    fig.add_argument("--instructions", type=int, default=8_000)
    fig.add_argument("--workloads", nargs="*", default=None,
                     help="optional workload subset")
    _add_runtime_flags(fig)

    sweep = sub.add_parser(
        "sweep", help="run a scheme x workload grid and print speedups"
    )
    sweep.add_argument("--schemes", nargs="+", required=True,
                       metavar="scheme",
                       help="registered scheme ids (see also: figure modules "
                            "register their sweep points on import)")
    sweep.add_argument("--workloads", nargs="*", default=None,
                       choices=sorted(SUITE), metavar="workload",
                       help="workload subset (default: whole suite)")
    sweep.add_argument("--recovery", default="flush",
                       choices=[m.value for m in RecoveryMode])
    sweep.add_argument("--instructions", type=int, default=8_000)
    sweep.add_argument("--trace", default=None, metavar="DIR",
                       help="run under the observability stack; write Chrome "
                            "traces (and flight dumps on failure) into DIR")
    _add_runtime_flags(sweep)

    chaos = sub.add_parser(
        "chaos",
        help="run a sweep under deterministic fault injection and report "
             "how the runtime recovered",
    )
    chaos.add_argument("--fault", default=None, metavar="SPEC",
                       help="fault spec, e.g. 'crash@gzip/dlvp:1' "
                            f"(default: ${FAULT_SPEC_ENV})")
    chaos.add_argument("--schemes", nargs="+", default=["baseline", "dlvp"],
                       metavar="scheme")
    chaos.add_argument("--workloads", nargs="*", default=None,
                       choices=sorted(SUITE), metavar="workload")
    chaos.add_argument("--instructions", type=int, default=2_000)
    _add_runtime_flags(chaos)

    cache = sub.add_parser(
        "cache", help="audit (verify) or prune (gc) the result cache"
    )
    cache.add_argument("action", choices=["verify", "gc"])
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc: drop entries older than this")
    cache.add_argument("--max-size-mb", type=float, default=None,
                       help="gc: prune oldest entries until under this size")

    bench = sub.add_parser(
        "bench",
        help="benchmark the simulator itself (inst/s per scheme)",
    )
    bench.add_argument("target", choices=["throughput"],
                       help="throughput: simulate() inst/s per scheme")
    bench.add_argument("--workload", default="gzip",
                       choices=sorted(SUITE),
                       help="the single workload to time")
    bench.add_argument("--instructions", type=int, default=24_000)
    bench.add_argument("--schemes", nargs="+", metavar="scheme",
                       default=["baseline"] + list(_RUN_SCHEMES),
                       help="scheme ids to time (default: all built-ins)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="simulate() runs per scheme; best is reported")
    bench.add_argument("--output", default=None, metavar="FILE",
                       help="write the JSON report (e.g. bench_current.json)")
    bench.add_argument("--check", default=None, metavar="FILE",
                       help="fail if inst/s regresses versus this "
                            "committed report")
    bench.add_argument("--max-regression", type=float, default=0.20,
                       metavar="FRACTION",
                       help="allowed best-of-N inst/s drop for --check "
                            "(default 0.20, the same value CI enforces)")

    tr = sub.add_parser(
        "trace",
        help="run one traced simulation (Chrome trace + interval metrics "
             "+ flight recorder)",
    )
    tr.add_argument("workload", choices=sorted(SUITE), metavar="workload")
    tr.add_argument("--scheme", default="dlvp",
                    help="dlvp | cap | vtage | dvtage | tournament | baseline")
    tr.add_argument("--out", default="trace.json", metavar="FILE",
                    help="Chrome trace output path (default: trace.json)")
    tr.add_argument("--instructions", type=int, default=16_000)
    tr.add_argument("--interval", type=int, default=10_000,
                    help="interval-metrics bin size in instructions")
    tr.add_argument("--flight", type=int, default=256,
                    help="flight-recorder ring capacity (events)")
    tr.add_argument("--recovery", default="flush",
                    choices=[m.value for m in RecoveryMode])
    tr.add_argument("--fault", default=None, metavar="SPEC",
                    help="fault spec; a matching raise rule trips mid-run "
                         f"(default: ${FAULT_SPEC_ENV})")
    tr.add_argument("--cache-dir", default=None, metavar="DIR")
    tr.add_argument("--journal", default=None, metavar="FILE",
                    help="JSONL journal (default: <cache-dir>/last-run.jsonl)")

    obs = sub.add_parser(
        "observe", help="report on journaled traced runs"
    )
    obs.add_argument("action", choices=["report"])
    obs.add_argument("--journal", default=None, metavar="FILE",
                     help="journal to read (default: <cache-dir>/last-run.jsonl)")
    obs.add_argument("--cache-dir", default=None, metavar="DIR")
    obs.add_argument("--last", type=int, default=8,
                     help="show at most the last N traced runs (default 8)")

    prof = sub.add_parser("profile", help="Figure 1/2 trace profiles")
    prof.add_argument("workloads", nargs="+", choices=sorted(SUITE),
                      metavar="workload")
    prof.add_argument("--instructions", type=int, default=16_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "figure": cmd_figure,
        "profile": cmd_profile,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "cache": cmd_cache,
        "bench": cmd_bench,
        "trace": cmd_trace,
        "observe": cmd_observe,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # backstop: the runtime normally absorbs the signal and returns
        # partial results, but a Ctrl-C outside run_jobs lands here
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
