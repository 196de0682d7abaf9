"""The shared trace fabric: publish once, attach zero-copy anywhere.

Three invariant families:

* **Losslessness** — a ``ColumnarTrace`` published into a segment and
  attached back converts to the *exact* original ``Trace``
  (property-based, covering ``taken=None``, 128-bit vector values,
  multi-destination loads, empty traces), over both transports (POSIX
  shared memory and the mmap-over-file fallback).
* **Lifecycle** — closing the store unlinks every segment (no
  ``/dev/shm`` leaks), even when a fault-injected pool worker is
  SIGKILL'd mid-grid; dead-owner orphans are GC'd at store
  construction; attached traces are read-only; attach of a torn or
  unlinked segment fails loudly so callers fall back to building.
* **Bookkeeping** — refs are idempotent per key, attachments are
  refcounted, and handles close idempotently.

The *simulated-outcome* equivalence of attached traces lives in
``test_golden_simresults.py``'s "shared" engine leg.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, OpClass
from repro.trace import ColumnarTrace, Trace
from repro.trace.share import (
    MAGIC,
    SEGMENT_PREFIX,
    _OWNER,
    TraceStore,
    attach,
    gc_orphans,
    shm_available,
)

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_U128 = st.integers(min_value=0, max_value=2**128 - 1)
_REG = st.integers(min_value=0, max_value=2**32 - 1)
_PC = st.integers(min_value=0, max_value=2**62 - 1).map(lambda v: v * 4)


@st.composite
def instructions(draw) -> Instruction:
    op = draw(st.sampled_from(list(OpClass)))
    kwargs = {"pc": draw(_PC), "op": op}
    if op == OpClass.LOAD:
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
        kwargs.update(
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
            dests=tuple(draw(st.lists(_REG, max_size=2))),
            values=tuple(draw(st.lists(_U64, max_size=2))),
        )
    return Instruction(**kwargs)


traces = st.lists(instructions(), max_size=40).map(
    lambda insts: Trace("prop", insts)
)

TRANSPORTS = [False] + ([True] if shm_available() else [])


def _shm_segments() -> list[str]:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    return sorted(p.name for p in shm.glob(SEGMENT_PREFIX + "*"))


# ---------------------------------------------------------------------------
# losslessness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("use_shm", TRANSPORTS)
@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_publish_attach_roundtrip_lossless(use_shm, trace):
    """Trace → columnar → segment → attached → Trace, bit for bit."""
    with TraceStore(use_shm=use_shm) as store:
        ref = store.publish("prop", ColumnarTrace.from_trace(trace))
        with store.attach(ref) as handle:
            assert len(handle.trace) == len(trace)
            back = handle.trace.to_trace()
            assert back.name == trace.name
            assert list(back.instructions) == list(trace.instructions)


@pytest.mark.parametrize("use_shm", TRANSPORTS)
def test_empty_trace_roundtrip(use_shm):
    with TraceStore(use_shm=use_shm) as store:
        ref = store.publish("empty", ColumnarTrace("empty"))
        with store.attach(ref) as handle:
            assert len(handle.trace) == 0
            assert handle.trace.to_trace().instructions == []


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not shm_available(), reason="no POSIX shared memory")
def test_store_close_leaves_no_shm_segments():
    before = _shm_segments()
    store = TraceStore(use_shm=True)
    trace = ColumnarTrace.from_trace(
        Trace("leak", [Instruction(pc=4, op=OpClass.ALU)])
    )
    refs = [store.publish(f"k{i}", trace) for i in range(3)]
    handles = [store.attach(ref) for ref in refs]
    assert len(_shm_segments()) == len(before) + 3
    # close() without closing handles first: the store owns them too
    assert handles
    store.close()
    assert _shm_segments() == before
    store.close()      # idempotent


def test_file_fallback_segments_removed_on_close(tmp_path):
    store = TraceStore(root=tmp_path, use_shm=False)
    ref = store.publish("k", ColumnarTrace("k"))
    assert ref.startswith("file:")
    assert list(tmp_path.glob(SEGMENT_PREFIX + "*"))
    store.close()
    assert not list(tmp_path.glob(SEGMENT_PREFIX + "*"))


def test_gc_orphans_reaps_dead_owner_only(tmp_path):
    dead_pid = 2 ** 22 + 12345          # far above any real pid here
    trace_bytes = b"torn-but-irrelevant-payload"
    orphan = tmp_path / (SEGMENT_PREFIX + "orphan")
    orphan.write_bytes(MAGIC + _OWNER.pack(dead_pid) + trace_bytes)
    live = tmp_path / (SEGMENT_PREFIX + "live")
    live.write_bytes(MAGIC + _OWNER.pack(os.getpid()) + trace_bytes)
    alien = tmp_path / (SEGMENT_PREFIX + "alien")
    alien.write_bytes(b"some other format entirely")
    removed = gc_orphans(tmp_path)
    assert orphan.name in removed
    assert not orphan.exists()
    assert live.exists()                # owner alive: not ours to reap
    assert alien.exists()               # wrong magic: not ours at all


def test_store_construction_runs_orphan_gc(tmp_path):
    orphan = tmp_path / (SEGMENT_PREFIX + "stale")
    orphan.write_bytes(MAGIC + _OWNER.pack(2 ** 22 + 999) + b"x")
    with TraceStore(root=tmp_path, use_shm=False) as store:
        assert orphan.name in store.orphans_removed
        assert not orphan.exists()


def test_attached_trace_is_read_only():
    trace = Trace("ro", [Instruction(pc=4, op=OpClass.ALU)])
    with TraceStore(use_shm=False) as store:
        ref = store.publish("ro", ColumnarTrace.from_trace(trace))
        with store.attach(ref) as handle:
            with pytest.raises(TypeError):
                handle.trace.append(Instruction(pc=8, op=OpClass.ALU))


def test_attach_failures_are_loud(tmp_path):
    with pytest.raises(ValueError):
        attach("not-a-ref")
    with pytest.raises(ValueError):
        attach("shm:")                  # malformed: empty ident
    with pytest.raises(FileNotFoundError):
        attach(f"file:{tmp_path / 'missing'}")
    torn = tmp_path / "torn"
    torn.write_bytes(b"wrong magic entirely" + b"\0" * 64)
    with pytest.raises(ValueError):
        attach(f"file:{torn}")
    if shm_available():
        with pytest.raises(FileNotFoundError):
            attach("shm:" + SEGMENT_PREFIX + "never-published")


def test_attach_after_unlink_fails(tmp_path):
    store = TraceStore(root=tmp_path, use_shm=False)
    ref = store.publish("k", ColumnarTrace("k"))
    store.unlink("k")
    with pytest.raises(FileNotFoundError):
        attach(ref)
    store.close()


def test_worker_crash_leaves_no_segments(tmp_path):
    """A SIGKILL'd fabric worker must not leak its attached segment."""
    if not shm_available():
        pytest.skip("no POSIX shared memory")
    from repro.runtime import Runtime

    before = _shm_segments()
    runtime = Runtime(jobs=2, cache_dir=tmp_path, retries=1,
                      fabric=True, faults="crash@gzip/dlvp:1")
    grid = runtime.run_grid(["baseline", "dlvp"], ["gzip"], 1_000)
    assert not grid.failures()
    assert _shm_segments() == before


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_publish_is_idempotent_per_key():
    a = ColumnarTrace.from_trace(Trace("a", [Instruction(pc=4, op=OpClass.ALU)]))
    with TraceStore(use_shm=False) as store:
        ref1 = store.publish("k", a)
        ref2 = store.publish("k", ColumnarTrace("ignored"))
        assert ref1 == ref2
        assert store.ref_for("k") == ref1
        assert store.ref_for("other") is None


def test_attachment_refcounting():
    trace = ColumnarTrace.from_trace(
        Trace("rc", [Instruction(pc=4, op=OpClass.ALU)])
    )
    with TraceStore(use_shm=False) as store:
        ref = store.publish("rc", trace)
        h1 = store.attach(ref)
        h2 = store.attach(ref)
        assert store.attachments() == 2
        assert store.attachments(ref) == 2
        h1.close()
        h1.close()                      # idempotent
        assert store.attachments(ref) == 1
        assert h1.closed and not h2.closed
        h2.close()
        assert store.attachments() == 0
