"""Shared fixtures for the benchmark harness.

Each ``test_fig*`` / ``test_table*`` benchmark regenerates one of the
paper's tables or figures and prints the rows it reports.  The suite
runner (traces + baseline simulations) is built once per session; the
heavyweight figure experiments that several benches share are also
session-cached.

At session end the harness writes a fresh throughput report
(``repro.bench.CURRENT_REPORT_NAME``, ``bench_current.json``, git-ignored)
at the repo root with the simulator's own throughput (inst/s per scheme,
setup cost per ``simulate()``, wall time, peak RSS — see
:mod:`repro.bench`).  It never touches the committed reference
(``repro.bench.BENCH_REPORT_NAME``) that ``bench throughput --check``
gates against: re-baselining that file is a deliberate, separate step.

Knobs:
    REPRO_BENCH_INSTRUCTIONS   trace length per workload (default 16000)
    REPRO_BENCH_WORKLOADS      optional comma-separated subset
    REPRO_BENCH_THROUGHPUT     0 to skip the session-end throughput
                               report (default on)
"""

import os

import pytest

from repro.experiments import SuiteRunner

BENCH_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "16000"))
_WORKLOADS = os.environ.get("REPRO_BENCH_WORKLOADS")

# A representative cross-section used by the pricier sweeps (Figures
# 5/7/10 and the ablations) so the full harness stays manageable.
REPRESENTATIVE = [
    "perlbmk", "perlbench", "nat", "gzip", "bzip2", "vortex", "gcc",
    "aifirf", "tblook", "mcf", "h264ref", "milc", "sunspider", "avmshell",
    "octane", "linpack", "puwmod", "xalancbmk", "pdfjs", "soplex",
]


def _names():
    if _WORKLOADS:
        return [n.strip() for n in _WORKLOADS.split(",") if n.strip()]
    return None


@pytest.fixture(scope="session")
def suite_runner():
    """Full-suite runner (all 78 workloads unless overridden)."""
    return SuiteRunner(n_instructions=BENCH_INSTRUCTIONS, names=_names())


@pytest.fixture(scope="session")
def subset_runner():
    """Representative-subset runner for multi-configuration sweeps."""
    names = _names() or REPRESENTATIVE
    return SuiteRunner(n_instructions=BENCH_INSTRUCTIONS, names=names)


@pytest.fixture(scope="session")
def fig6_result(suite_runner):
    from repro.experiments import fig6_value_prediction
    return fig6_value_prediction.run(suite_runner)


_REPORT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                            "bench_report.txt")
_report_initialized = False


def emit(result) -> None:
    """Print an experiment's rows beneath the benchmark output and
    append them to ``bench_report.txt`` (so the rendered tables survive
    pytest's output capturing even without ``-s``)."""
    global _report_initialized
    text = result.render()
    print()
    print(text)
    mode = "a" if _report_initialized else "w"
    with open(_REPORT_PATH, mode) as fh:
        fh.write(text)
        fh.write("\n\n")
    _report_initialized = True


def pytest_sessionfinish(session, exitstatus):
    """Write a fresh throughput report after a green benchmark session.

    Skipped on failure (a broken session's timings are meaningless),
    on collect-only runs, or when ``REPRO_BENCH_THROUGHPUT=0``.
    """
    if exitstatus != 0 or session.config.option.collectonly:
        return
    if os.environ.get("REPRO_BENCH_THROUGHPUT", "1") == "0":
        return
    from repro import bench

    report_path = os.path.join(os.path.dirname(__file__), os.pardir,
                               bench.CURRENT_REPORT_NAME)
    report = bench.run_throughput()
    path = bench.write_report(report, report_path)
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        rates = ", ".join(
            f"{sid} {entry['inst_per_s']:,}/s"
            for sid, entry in report[bench.THROUGHPUT_SECTION].items()
        )
        tr.write_line(f"throughput report -> {path}: {rates}")
