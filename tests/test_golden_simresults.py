"""Golden lock on ``simulate()``'s exact outcomes.

The hot-path overhaul (incremental folded histories, the inlined
``simulate()`` fast paths, the hierarchy/scheme call trimming, the
struct-of-arrays loop that replaced the Instruction-list one) is pure
optimization: it must never change a simulated outcome.  This suite
pins ``SimResult.to_dict()`` — cycles, flushes, misprediction counts,
hit rates, energy events, scheme stats — for one workload per suite
kernel under every registered scheme, against goldens generated from
the pre-optimization model.

A mismatch here means the fast path diverged from the reference
semantics.  Only regenerate after a *deliberate* model change::

    PYTHONPATH=src python tests/test_golden_simresults.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.pipeline.core_model import simulate
from repro.runtime.registry import get_scheme
from repro.workloads import SUITE, build_workload, build_workload_columnar

GOLDEN_PATH = Path(__file__).parent / "golden_simresults.json"
INSTRUCTIONS = 3_000
SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")

_TRACES: dict[tuple[str, str], object] = {}
_STORE = None
_HANDLES: list[object] = []


def _shared_trace(workload: str):
    """Publish the columnar trace and re-attach it through the fabric.

    The attached trace is memoryview-backed over the live segment, so
    this leg proves the zero-copy path — not a reconstruction of it.
    """
    global _STORE
    from repro.trace.share import TraceStore

    if _STORE is None:
        _STORE = TraceStore()
    ref = _STORE.publish(f"golden/{workload}", _trace(workload, "columnar"))
    handle = _STORE.attach(ref)
    _HANDLES.append(handle)
    return handle.trace


@pytest.fixture(scope="module", autouse=True)
def _fabric_cleanup():
    yield
    global _STORE
    for handle in _HANDLES:
        handle.close()
    _HANDLES.clear()
    if _STORE is not None:
        _STORE.close()
        _STORE = None


def kernel_representatives() -> list[tuple[str, str]]:
    """(kernel name, first workload using it) for every suite kernel."""
    reps: dict[str, str] = {}
    for spec in sorted(SUITE.values(), key=lambda s: s.name):
        reps.setdefault(spec.kernel.__name__, spec.name)
    return sorted(reps.items())


def _trace(workload: str, trace_input: str = "object"):
    key = (workload, trace_input)
    trace = _TRACES.get(key)
    if trace is None:
        if trace_input == "shared":
            trace = _shared_trace(workload)
        elif trace_input == "columnar":
            trace = build_workload_columnar(workload, INSTRUCTIONS)
        else:
            trace = build_workload(workload, INSTRUCTIONS)
        _TRACES[key] = trace
    return trace


def simulate_cell(
    workload: str, scheme_id: str, trace_input: str = "object"
) -> dict:
    scheme = get_scheme(scheme_id).build()
    return simulate(_trace(workload, trace_input), scheme).to_dict()


def _cells() -> list[tuple[str, str]]:
    return [
        (workload, scheme_id)
        for _, workload in kernel_representatives()
        for scheme_id in SCHEMES
    ]


@pytest.fixture(scope="module")
def goldens() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        f"`python {Path(__file__).name} --regen`"
    )
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_kernel(goldens):
    expected = {f"{w}/{s}" for w, s in _cells()}
    assert set(goldens["cells"]) == expected


@pytest.mark.parametrize("trace_input", ["object", "columnar", "shared"])
@pytest.mark.parametrize(
    "workload,scheme_id", _cells(), ids=lambda v: str(v)
)
def test_simresult_bit_identical(goldens, workload, scheme_id, trace_input):
    """Every trace input must hit the same goldens bit for bit.

    There is one engine; the legs differ in what is handed to it.  The
    ``object`` leg passes a :class:`~repro.trace.Trace`, which
    ``simulate()`` converts on entry.  The ``columnar`` leg passes the
    array-backed trace the runtime generates and caches (its input with
    the fabric off).  The ``shared`` leg simulates straight off a
    memoryview-backed trace attached from the shared-memory fabric,
    which is what licenses workers to attach instead of rebuilding.
    """
    golden = goldens["cells"][f"{workload}/{scheme_id}"]
    assert simulate_cell(workload, scheme_id, trace_input) == golden


def _regen() -> None:
    cells = {}
    for workload, scheme_id in _cells():
        cells[f"{workload}/{scheme_id}"] = simulate_cell(workload, scheme_id)
        print(f"  {workload}/{scheme_id}")
    GOLDEN_PATH.write_text(json.dumps(
        {"instructions": INSTRUCTIONS, "cells": cells},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
