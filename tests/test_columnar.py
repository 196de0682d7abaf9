"""The columnar trace engine: representation, streaming, serialization.

Four concerns share this file because they share one invariant — the
struct-of-arrays world must be *losslessly interchangeable* with the
object world:

* ``Trace ↔ ColumnarTrace ↔ v2 bytes`` round-trips bit for bit
  (property-based, covering ``taken=None``, multi-destination loads,
  128-bit vector values, empty ``srcs``/``values``);
* streamed workload generation emits the same instruction stream as
  the one-shot builder, in bounded memory;
* serialization streams on both ends (the regression tests here fail
  against the old buffer-everything save/load);
* the bench gate's three voices (``bench.py`` default, the CI
  invocation, the committed report) say the same thing, and only a
  deliberate step rewrites that committed report.

The *simulated-outcome* equivalence of the two engines lives in
``test_golden_simresults.py``, which runs every golden cell through
both.
"""

from __future__ import annotations

import importlib.util
import json
import re
import tracemalloc
from types import SimpleNamespace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import bench
from repro.isa import Instruction, OpClass
from repro.trace import (
    ColumnarTrace,
    Trace,
    iter_trace_chunks,
    load_trace,
    load_trace_columnar,
    save_trace,
    sniff_trace_version,
)
from repro.workloads import build_workload, build_workload_columnar

REPO_ROOT = Path(__file__).parent.parent

# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_U128 = st.integers(min_value=0, max_value=2**128 - 1)
_REG = st.integers(min_value=0, max_value=2**32 - 1)
_PC = st.integers(min_value=0, max_value=2**62 - 1).map(lambda v: v * 4)


@st.composite
def instructions(draw) -> Instruction:
    op = draw(st.sampled_from(list(OpClass)))
    kwargs = {"pc": draw(_PC), "op": op}
    if op == OpClass.LOAD:
        # loads: one value per destination; vector loads carry 128-bit
        # values (two u64 halves in the columnar encoding)
        ndests = draw(st.integers(min_value=1, max_value=4))
        is_vector = draw(st.booleans())
        values = st.lists(_U128 if is_vector else _U64,
                          min_size=ndests, max_size=ndests)
        kwargs.update(
            dests=tuple(draw(st.lists(_REG, min_size=ndests, max_size=ndests))),
            values=tuple(draw(values)),
            mem_addr=draw(_U64),
            mem_size=16 if is_vector else draw(st.sampled_from([1, 2, 4, 8])),
            is_vector=is_vector,
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
        )
    elif op == OpClass.STORE:
        kwargs.update(
            mem_addr=draw(_U64),
            mem_size=draw(st.sampled_from([1, 2, 4, 8])),
            values=(draw(_U64),),
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
        )
    elif op == OpClass.BRANCH:
        kwargs.update(
            taken=draw(st.none() | st.booleans()),
            target=draw(st.none() | _PC),
        )
    elif op in (OpClass.JUMP, OpClass.CALL, OpClass.RETURN, OpClass.INDIRECT):
        kwargs.update(target=draw(st.none() | _PC))
    else:
        # ALU-ish ops: possibly empty srcs/dests/values — the ragged
        # prefix-index encoding must represent zero-length rows
        kwargs.update(
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
            dests=tuple(draw(st.lists(_REG, max_size=2))),
            values=tuple(draw(st.lists(_U64, max_size=2))),
        )
    return Instruction(**kwargs)


traces = st.lists(instructions(), max_size=40).map(
    lambda insts: Trace("prop", insts)
)


@settings(max_examples=60, deadline=None)
@given(trace=traces)
def test_columnar_roundtrip_lossless(trace):
    columnar = ColumnarTrace.from_trace(trace)
    assert len(columnar) == len(trace)
    assert list(columnar) == list(trace.instructions)
    back = columnar.to_trace()
    assert list(back.instructions) == list(trace.instructions)


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_v2_serialization_roundtrip(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("v2") / "t.trace"
    save_trace(trace, path, format="v2", chunk_size=7)
    assert sniff_trace_version(path) == 2
    assert list(load_trace(path).instructions) == list(trace.instructions)
    assert load_trace_columnar(path) == ColumnarTrace.from_trace(trace)


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_v1_serialization_roundtrip(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("v1") / "t.trace"
    save_trace(trace, path, format="v1")
    assert sniff_trace_version(path) == 1
    assert list(load_trace(path).instructions) == list(trace.instructions)
    assert load_trace_columnar(path) == ColumnarTrace.from_trace(trace)


@settings(max_examples=40, deadline=None)
@given(trace=traces, data=st.data())
def test_extend_chunk_reassembly_roundtrip(trace, data):
    """Splitting at random points and re-extending is the identity.

    Covers empty chunks (duplicate cut points), the empty-self extend
    (the first chunk lands in a fresh trace) and ragged-index rebasing
    across arbitrary boundaries.
    """
    columnar = ColumnarTrace.from_trace(trace)
    n = len(columnar)
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=n), max_size=6)))
    bounds = [0] + cuts + [n]
    out = ColumnarTrace(trace.name)
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(ColumnarTrace(
            trace.name, (columnar.instruction(i) for i in range(lo, hi))
        ))
    assert out == columnar


def test_columnar_extend_rebases_ragged_indexes():
    a = ColumnarTrace.from_trace(Trace("a", [
        Instruction(pc=0, op=OpClass.ALU, srcs=(1, 2), dests=(3,), values=(9,)),
    ]))
    b = ColumnarTrace.from_trace(Trace("b", [
        Instruction(pc=4, op=OpClass.ALU, srcs=(4,), dests=(5,), values=(8,)),
    ]))
    a.extend(b)
    assert len(a) == 2
    assert a.instruction(1).srcs == (4,)
    assert a.instruction(1).values == (8,)


# ---------------------------------------------------------------------------
# streaming generation
# ---------------------------------------------------------------------------

STREAM_KERNELS = ("gzip", "mcf", "nat", "aifirf")


@pytest.mark.parametrize("workload", STREAM_KERNELS)
def test_stream_equals_build(workload):
    """Chunked emission must replay the one-shot builder bit for bit."""
    n = 6_000
    reference = build_workload(workload, n)
    streamed = []
    for chunk in build_workload(workload, n, stream=True):
        assert isinstance(chunk, ColumnarTrace)
        streamed.extend(chunk)
    assert streamed == list(reference.instructions)


def test_stream_chunk_sizes():
    chunks = list(build_workload("gzip", 6_000, stream=True, chunk_size=2_048))
    assert [len(c) for c in chunks[:-1]] == [2_048] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) <= 2_048
    assert sum(len(c) for c in chunks) == len(build_workload("gzip", 6_000))


def test_build_workload_columnar_matches():
    assert build_workload_columnar("gzip", 4_000) == ColumnarTrace.from_trace(
        build_workload("gzip", 4_000)
    )


def test_stream_abandonment_does_not_hang():
    """Dropping the generator mid-stream must release the producer."""
    gen = build_workload("gzip", 200_000, stream=True)
    next(gen)
    gen.close()      # must not deadlock on the bounded queue


def test_streaming_peak_memory_is_chunk_bounded():
    """O(chunk) generation: streaming 200k instructions must allocate
    far less than materializing them (an object trace of that size is
    well over 100 MB)."""
    tracemalloc.start()
    total = 0
    for chunk in build_workload("gzip", 200_000, stream=True):
        total += len(chunk)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total >= 199_000
    assert peak < 24 * 1024 * 1024, f"streaming peak {peak} bytes"


# ---------------------------------------------------------------------------
# serialization streams on both ends (regression: the old save built
# the whole file in a StringIO; the old load read_text().splitlines())
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_trace():
    return build_workload("gzip", 50_000)


def test_v1_save_streams(tmp_path, big_trace):
    path = tmp_path / "big.trace"
    tracemalloc.start()
    save_trace(big_trace, path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    file_size = path.stat().st_size
    assert file_size > 1_000_000
    # pre-fix: the whole serialized text (>= file_size) sat in memory
    assert peak < file_size / 2, f"save peak {peak} vs file {file_size}"


def test_chunked_read_streams(tmp_path, big_trace):
    path = tmp_path / "big.trace"
    save_trace(big_trace, path)
    file_size = path.stat().st_size
    tracemalloc.start()
    n = sum(len(chunk) for chunk in iter_trace_chunks(path, chunk_size=4_096))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert n == len(big_trace)
    # pre-fix: every line of the file was resident at once
    assert peak < file_size / 2, f"read peak {peak} vs file {file_size}"


def test_v2_chunked_roundtrip_of_generated_trace(tmp_path, big_trace):
    v2 = tmp_path / "big.v2.trace"
    save_trace(big_trace, v2, format="v2", chunk_size=8_192)
    assert load_trace_columnar(v2) == ColumnarTrace.from_trace(big_trace)


def test_save_trace_accepts_chunk_iterator(tmp_path):
    path = tmp_path / "streamed.trace"
    save_trace(build_workload("gzip", 12_000, stream=True), path, format="v2")
    assert load_trace_columnar(path) == build_workload_columnar("gzip", 12_000)


# ---------------------------------------------------------------------------
# column-edge validation: a tampered v2 file must be rejected at the
# deserialization boundary (from_columns), not crash the simulator later
# ---------------------------------------------------------------------------


def _tamper_srcs_final(t):
    t.srcs_index[len(t.srcs_index) - 1] = t.srcs_index[-1] + 1


def _tamper_dests_final(t):
    t.dests_index[len(t.dests_index) - 1] = t.dests_index[-1] + 3


def _tamper_values_final(t):
    t.values_index[len(t.values_index) - 1] = t.values_index[-1] + 1


def _tamper_hi_lo_length(t):
    t.values_hi.pop()


def _tamper_monotonicity(t):
    t.srcs_index[1] = t.srcs_index[-1] + 7


@pytest.mark.parametrize("mutate", [
    _tamper_srcs_final,
    _tamper_dests_final,
    _tamper_values_final,
    _tamper_hi_lo_length,
    _tamper_monotonicity,
], ids=["srcs-final", "dests-final", "values-final",
        "hi-lo-length", "non-monotonic"])
def test_tampered_v2_file_rejected(tmp_path, mutate):
    """iter_trace_chunks must reject columns whose prefix indexes do
    not describe the flat columns (pre-fix: accepted, then the engine
    read out of bounds or silently mis-sliced operands)."""
    trace = build_workload_columnar("gzip", 400)
    mutate(trace)
    path = tmp_path / "tampered.trace"
    # The chunk-iterator path writes columns verbatim; a full-trace
    # save would re-chunk through instruction views and normalize.
    save_trace([trace], path, format="v2")
    with pytest.raises(ValueError):
        list(iter_trace_chunks(path))


def test_from_columns_validates_flat_lengths():
    from array import array

    from repro.trace.columnar import COLUMNS

    good = build_workload_columnar("gzip", 100)
    columns = {attr: getattr(good, attr) for attr, _ in COLUMNS}
    assert len(ColumnarTrace.from_columns("ok", dict(columns))) == len(good)
    truncated = dict(columns)
    truncated["srcs"] = array("I", columns["srcs"][:-1])
    with pytest.raises(ValueError, match="srcs_index"):
        ColumnarTrace.from_columns("bad", truncated)


@pytest.mark.parametrize("as_foreign", [list, memoryview],
                         ids=["list", "memoryview"])
def test_from_columns_rejects_non_array_column(as_foreign):
    """A column that is not an ``array.array`` is a ValueError naming
    the column, not an AttributeError from deep inside the check."""
    from repro.trace.columnar import COLUMNS

    good = build_workload_columnar("gzip", 100)
    columns = {attr: getattr(good, attr) for attr, _ in COLUMNS}
    columns["mem_addr"] = as_foreign(columns["mem_addr"])
    with pytest.raises(ValueError, match="'mem_addr'"):
        ColumnarTrace.from_columns("foreign", columns)


# ---------------------------------------------------------------------------
# summary counts atomics (regression: ATOMIC was dropped from the
# memory-op accounting)
# ---------------------------------------------------------------------------


def test_summary_counts_atomics():
    trace = Trace("atomics", [
        Instruction(pc=0, op=OpClass.LOAD, dests=(1,), values=(7,), mem_addr=64),
        Instruction(pc=4, op=OpClass.ATOMIC, mem_addr=128, mem_size=8),
        Instruction(pc=8, op=OpClass.ATOMIC, mem_addr=128, mem_size=8),
        Instruction(pc=12, op=OpClass.STORE, values=(1,), mem_addr=64),
    ])
    summary = trace.summary()
    assert summary.atomics == 2
    assert summary.loads == 1
    assert summary.stores == 1
    columnar_summary = ColumnarTrace.from_trace(trace).summary()
    assert columnar_summary == summary


# ---------------------------------------------------------------------------
# bench-gate coherence: one number, used everywhere
# ---------------------------------------------------------------------------


def test_bench_gate_is_coherent():
    """bench.py's default, the CI invocation and the committed report
    must agree (the pre-fix state: default 30%, CI 5%, docs ±20%)."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    ci_gate = re.search(r"--max-regression\s+([0-9.]+)", ci)
    assert ci_gate is not None, "CI no longer passes --max-regression"
    assert float(ci_gate.group(1)) == bench.DEFAULT_MAX_REGRESSION
    assert bench.BENCH_REPORT_NAME in ci, (
        "CI checks a different report than bench.BENCH_REPORT_NAME"
    )
    report_path = REPO_ROOT / bench.BENCH_REPORT_NAME
    assert report_path.exists(), f"committed {bench.BENCH_REPORT_NAME} missing"
    report = json.loads(report_path.read_text())
    # the committed reference carries both engines' numbers
    assert report.get("schemes"), "object-engine section missing"
    assert report.get("columnar_schemes"), "columnar-engine section missing"
    for section in ("schemes", "columnar_schemes"):
        for scheme_id, entry in report[section].items():
            assert entry["inst_per_s"] > 0, (section, scheme_id)


def test_check_regression_covers_both_engines():
    committed = {
        "schemes": {"dlvp": {"inst_per_s": 100_000}},
        "columnar_schemes": {"dlvp": {"inst_per_s": 100_000}},
    }
    current = {
        "schemes": {"dlvp": {"inst_per_s": 99_000}},
        "columnar_schemes": {"dlvp": {"inst_per_s": 50_000}},
    }
    failures = bench.check_regression(current, committed, 0.20)
    assert len(failures) == 1
    assert failures[0].startswith("columnar/dlvp")
    # schemes/engines on only one side never fail retroactively
    assert bench.check_regression({"schemes": {}}, committed, 0.20) == []


def test_check_regression_warns_and_skips_mismatched_reports():
    """Report-shape mismatches are warnings, never failures.

    Pre-fix, a fresh cell without ``inst_per_s`` raised KeyError and
    cells on only one side vanished silently; now each mismatch is
    skipped with one collected warning, and only genuine slowdowns of
    comparable cells fail."""
    committed = {
        "schemes": {
            "dlvp": {"inst_per_s": 100_000},
            "retired": {"inst_per_s": 90_000},
            "broken_fresh": {"inst_per_s": 50_000},
            "broken_committed": {"inst_per_s": 0},
        },
    }
    current = {
        "schemes": {
            "dlvp": {"inst_per_s": 95_000},
            "brand_new": {"inst_per_s": 10},
            "broken_fresh": {"wall_s": 1.0},
            "broken_committed": {"inst_per_s": 70_000},
        },
        "columnar_schemes": {"dlvp": {"inst_per_s": 99_000}},
    }
    warnings: list[str] = []
    failures = bench.check_regression(current, committed, 0.20,
                                      warnings=warnings)
    assert failures == []
    text = "\n".join(warnings)
    assert "retired" in text            # committed-only cell skipped
    assert "brand_new" in text          # fresh-only cell skipped
    assert "broken_fresh" in text       # fresh cell lacks inst_per_s
    assert "broken_committed" in text   # committed baseline unusable
    assert "columnar_schemes" in text   # whole engine missing a baseline
    # a genuine regression still fails alongside the warnings
    current["schemes"]["dlvp"]["inst_per_s"] = 10_000
    failures = bench.check_regression(current, committed, 0.20,
                                      warnings=[])
    assert len(failures) == 1 and failures[0].startswith("object/dlvp")
    # and the warnings list stays optional
    assert bench.check_regression({"schemes": {}}, committed, 0.20) == []


def test_throughput_report_records_setup_cost_ungated():
    report = bench.run_throughput(instructions=300, schemes=("baseline",),
                                  repeats=1)
    assert 0 < report["setup_ms"] < report["wall_s"] * 1e3
    # setup_ms is informational: a 1000x slower setup fails nothing
    committed = {**report, "setup_ms": report["setup_ms"] / 1000}
    warnings: list[str] = []
    assert bench.check_regression(report, committed, 0.20,
                                  warnings=warnings) == []
    assert warnings == []


def test_benchmark_session_never_rewrites_committed_report(monkeypatch):
    """The benchmarks/ session hook writes the uncommitted current report;
    the committed reference the CI gate reads stays as it is."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    written = []
    monkeypatch.setattr(bench, "run_throughput",
                        lambda: {bench.THROUGHPUT_SECTION: {}})
    monkeypatch.setattr(bench, "write_report",
                        lambda report, path: written.append(Path(path)))
    monkeypatch.delenv("REPRO_BENCH_THROUGHPUT", raising=False)
    session = SimpleNamespace(config=SimpleNamespace(
        option=SimpleNamespace(collectonly=False),
        pluginmanager=SimpleNamespace(get_plugin=lambda name: None),
    ))
    conftest.pytest_sessionfinish(session, 0)
    assert [p.name for p in written] == [bench.CURRENT_REPORT_NAME]
    assert bench.CURRENT_REPORT_NAME != bench.BENCH_REPORT_NAME
    gitignore = (REPO_ROOT / ".gitignore").read_text().split()
    assert bench.CURRENT_REPORT_NAME in gitignore
