"""One benchmark iteration, in its own process.

    python3 perfbench/iteration.py --plan PLAN.json --cache-dir DIR --out OUT.json
                                [--spans SPANS.json]

Runs the plan through the stock public API exactly as ``repro figure``
and ``repro sweep`` do: a ``Runtime`` configured only with ``jobs``, a
fresh cache directory and its journal, then either Figures 6, 8 and 4
through one ``SuiteRunner`` or one ``run_grid`` sweep with the summary
``repro sweep`` prints.  ``OUT.json`` receives the figure values the
report sets beside the paper's.  With ``--spans`` the layer entry points
are wrapped first (see ``spans.py``) and the spans are written there.

The entry point sits under a ``__main__`` guard: pool workers started
by the forkserver re-import this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def run_figures(runtime, plan: dict) -> dict:
    """Figures 6, 8 and 4 over one runner; 6 first so set-up ends at its
    first cell rather than after Figure 4's trace generation."""
    import repro.experiments.fig4_address_prediction as fig4
    import repro.experiments.fig6_value_prediction as fig6
    import repro.experiments.fig8_tournament as fig8
    from repro.experiments import SuiteRunner

    runner = SuiteRunner(n_instructions=plan["n_instructions"],
                         names=plan["names"], runtime=runtime)
    fig6.run(runner).render()
    f8 = fig8.run(runner)
    f8.render()
    f4 = fig4.run(runner)
    f4.render()
    cap8 = f4.cap_by_confidence[8]
    return {
        "fig4_pap": [f4.pap.coverage, f4.pap.accuracy],
        "fig4_cap8": [cap8.coverage, cap8.accuracy],
        "fig8_shares": list(f8.prediction_breakdown()),
    }


def run_sweep(runtime, plan: dict) -> dict:
    """One grid plus the per-workload speedup table ``repro sweep`` prints."""
    import repro.experiments.runner as experiments_runner

    grid = runtime.run_grid(plan["schemes"], plan["names"],
                            plan["n_instructions"])
    schemes = [s for s in plan["schemes"] if s != "baseline"]
    speedups = {
        s: {w: grid.result(s, w).speedup_over(grid.result("baseline", w))
            for w in plan["names"]
            if grid.outcome(s, w).ok and grid.outcome("baseline", w).ok}
        for s in schemes
    }
    rows = [[w] + [f"{speedups[s][w]:+8.2%}" if w in speedups[s] else "FAILED"
                   for s in schemes] for w in plan["names"]]
    for label, mean in (("(arith mean)", experiments_runner.arithmetic_mean),
                        ("(geo mean)", experiments_runner.geometric_mean)):
        rows.append([label] + [f"{mean(speedups[s].values()):+8.2%}"
                               for s in schemes])
    experiments_runner.format_table(["workload"] + schemes, rows)
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())

    recorder = None
    if args.spans:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    from repro.runtime import Runtime

    cache_dir = Path(args.cache_dir)
    runtime = Runtime(jobs=plan["jobs"], cache_dir=cache_dir,
                      journal_path=cache_dir / "last-run.jsonl")
    run = run_figures if plan["kind"] == "figures" else run_sweep
    extras = run(runtime, plan)
    runtime.journal.close()
    Path(args.out).write_text(json.dumps(extras))
    if recorder is not None:
        Path(args.spans).write_text(json.dumps(recorder.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
