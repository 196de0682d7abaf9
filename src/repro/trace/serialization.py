"""Trace serialization: v1 line format and v2 binary columnar format.

Two on-disk formats, one sniffing loader:

* **v1** (``repro-trace-v1``) — the original plain-text format: a header
  line followed by one line per instruction.  Kept for interchange and
  for old cache entries.  Reads and writes now stream line-by-line;
  the original implementation buffered the whole trace as one string on
  save *and* ``read_text().splitlines()`` on load, double-materializing
  O(trace) memory.

* **v2** (``repro-trace-v2``) — binary columnar: the header is followed
  by framed chunks, each chunk the raw little-endian bytes of a
  :class:`~repro.trace.columnar.ColumnarTrace`'s columns.  Both the
  writer and the reader work chunk-at-a-time, so a million-instruction
  trace round-trips within a bounded RSS envelope, and the writer
  accepts a chunk *iterator* so streamed workload generation can be
  serialized without ever holding the full trace.

v1 line grammar (space-separated fields; ``-`` means absent)::

    pc op srcs dests mem_addr mem_size values taken target vector

``srcs``/``dests``/``values`` are comma-joined integers (or ``-``).
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.isa import Instruction, OpClass
from repro.trace.columnar import COLUMNS, ColumnarTrace
from repro.trace.trace import Trace

_MAGIC = "repro-trace-v1"
_MAGIC_V2 = b"repro-trace-v2\n"

# v2 framing: after the magic comes one header line
# ``<name> <itemsizes>\n`` (itemsizes as B:Q:I byte widths, validated on
# read), then chunks of ``<u32 count>`` + per-column ``<u64 nbytes> +
# raw bytes`` in COLUMNS order, a ``count == 0`` terminator, and a
# ``<u64 total>`` footer cross-checked against the chunk sum.
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CHUNK_END = 0

DEFAULT_CHUNK_SIZE = 8192


def _join(items: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in items) if items else "-"


def _split(field: str) -> tuple[int, ...]:
    return () if field == "-" else tuple(int(x) for x in field.split(","))


def _opt(field: str) -> int | None:
    return None if field == "-" else int(field)


def _format_line(inst: Instruction) -> str:
    taken = "-" if inst.taken is None else ("1" if inst.taken else "0")
    target = "-" if inst.target is None else str(inst.target)
    mem_addr = "-" if inst.mem_addr is None else str(inst.mem_addr)
    return (
        f"{inst.pc} {int(inst.op)} {_join(inst.srcs)} {_join(inst.dests)} "
        f"{mem_addr} {inst.mem_size} {_join(inst.values)} "
        f"{taken} {target} {1 if inst.is_vector else 0}\n"
    )


def _parse_line(line: str) -> Instruction:
    fields = line.split()
    if len(fields) != 10:
        raise ValueError(f"malformed trace line: {line!r}")
    taken_field = fields[7]
    return Instruction(
        pc=int(fields[0]),
        op=OpClass(int(fields[1])),
        srcs=_split(fields[2]),
        dests=_split(fields[3]),
        mem_addr=_opt(fields[4]),
        mem_size=int(fields[5]),
        values=_split(fields[6]),
        taken=None if taken_field == "-" else taken_field == "1",
        target=_opt(fields[8]),
        is_vector=fields[9] == "1",
    )


# -- v1 ------------------------------------------------------------------


def _save_trace_v1(trace: Trace | ColumnarTrace, path: str | Path) -> None:
    """Write the v1 line format, one line at a time (bounded memory)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {trace.name} {len(trace)}\n")
        for inst in trace:
            fh.write(_format_line(inst))


def _iter_v1(path: str | Path) -> Iterator[Instruction]:
    """Yield instructions from a v1 file, validating the declared count."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != _MAGIC:
            raise ValueError(f"not a {_MAGIC} file: {path}")
        count = int(header[2])
        seen = 0
        for line in fh:
            if line.strip():
                yield _parse_line(line)
                seen += 1
        if seen != count:
            raise ValueError(
                f"trace {path} declares {count} instructions but has {seen}"
            )


def _v1_name(path: str | Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise ValueError(f"not a {_MAGIC} file: {path}")
    return header[1]


# -- v2 ------------------------------------------------------------------


def _column_bytes(col) -> bytes:
    if sys.byteorder == "little":
        return col.tobytes()
    swapped = col[:]
    swapped.byteswap()
    return swapped.tobytes()


def _chunks_of(source: Trace | ColumnarTrace, chunk_size: int) -> Iterator[ColumnarTrace]:
    """Slice any trace container into ColumnarTrace chunks.

    A :class:`ColumnarTrace` that already fits one chunk is yielded
    as-is: its columns *are* the wire format, so re-materializing an
    ``Instruction`` view per row just to append it into an identical
    container would cost ~10x the serialization itself (this is the
    path every trace-cache write of a generated trace takes).
    """
    if isinstance(source, ColumnarTrace) and len(source) <= chunk_size:
        if len(source):
            yield source
        return
    chunk = ColumnarTrace(source.name)
    for inst in source:
        chunk.append(inst)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = ColumnarTrace(source.name)
    if len(chunk):
        yield chunk


def _save_trace_v2(
    source: Trace | ColumnarTrace | Iterable[ColumnarTrace],
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write the v2 binary columnar format, chunk by chunk.

    ``source`` may be a full trace (sliced into chunks here) or an
    iterator of :class:`ColumnarTrace` chunks — e.g. the generator from
    ``build_workload(..., stream=True)`` — in which case nothing larger
    than one chunk is ever resident.
    """
    name: str | None = None
    if isinstance(source, (Trace, ColumnarTrace)):
        # The name is known up front, so even a zero-instruction trace
        # serializes to a well-formed header + terminator + footer.
        name = source.name
        chunks: Iterable[ColumnarTrace] = _chunks_of(source, chunk_size)
    else:
        chunks = iter(source)
    with open(path, "wb") as fh:
        total = 0
        wrote_header = False
        if name is not None:
            fh.write(_MAGIC_V2)
            fh.write(f"{name} {_platform_itemsizes()}\n".encode())
            wrote_header = True
        for chunk in chunks:
            if not wrote_header:
                fh.write(_MAGIC_V2)
                fh.write(f"{chunk.name} {_platform_itemsizes()}\n".encode())
                wrote_header = True
            n = len(chunk)
            if not n:
                continue
            total += n
            fh.write(_U32.pack(n))
            for attr, _ in COLUMNS:
                data = _column_bytes(getattr(chunk, attr))
                fh.write(_U64.pack(len(data)))
                fh.write(data)
        if not wrote_header:
            raise ValueError("cannot serialize an empty chunk stream (no name)")
        fh.write(_U32.pack(_CHUNK_END))
        fh.write(_U64.pack(total))


def _platform_itemsizes() -> str:
    from array import array

    return ":".join(
        str(array(tc).itemsize) for tc in sorted({tc for _, tc in COLUMNS})
    )


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated v2 trace: wanted {n} bytes, got {len(data)}")
    return data


def iter_trace_chunks(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[ColumnarTrace]:
    """Yield the chunks of a v2 trace file one at a time (bounded memory).

    For v1 files, re-chunks the line stream into ``chunk_size``-
    instruction columnar chunks, so callers get a uniform streaming
    interface over both formats.  (v2 files yield their on-disk chunk
    boundaries; ``chunk_size`` only shapes the v1 re-chunking.)
    """
    from array import array

    version = sniff_trace_version(path)
    if version == 1:
        name = _v1_name(path)
        chunk = ColumnarTrace(name)
        for inst in _iter_v1(path):
            chunk.append(inst)
            if len(chunk) >= chunk_size:
                yield chunk
                chunk = ColumnarTrace(name)
        if len(chunk):
            yield chunk
        return

    expected_sizes = {tc: array(tc).itemsize for _, tc in COLUMNS}
    with open(path, "rb") as fh:
        _read_exact(fh, len(_MAGIC_V2))
        header = fh.readline().decode()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"malformed v2 header in {path}: {header!r}")
        name, itemsizes = parts
        declared = ":".join(
            str(expected_sizes[tc]) for tc in sorted(expected_sizes)
        )
        if itemsizes != declared:
            raise ValueError(
                f"v2 trace {path} written with array itemsizes {itemsizes}, "
                f"this platform has {declared}"
            )
        total = 0
        while True:
            n = _U32.unpack(_read_exact(fh, 4))[0]
            if n == _CHUNK_END:
                break
            columns: dict[str, array] = {}
            for attr, typecode in COLUMNS:
                nbytes = _U64.unpack(_read_exact(fh, 8))[0]
                col = array(typecode)
                col.frombytes(_read_exact(fh, nbytes))
                if sys.byteorder != "little":
                    col.byteswap()
                columns[attr] = col
            chunk = ColumnarTrace.from_columns(name, columns)
            if len(chunk) != n:
                raise ValueError(
                    f"v2 chunk in {path} declares {n} instructions, "
                    f"columns hold {len(chunk)}"
                )
            total += n
            yield chunk
        footer = _U64.unpack(_read_exact(fh, 8))[0]
        if footer != total:
            raise ValueError(
                f"v2 trace {path} footer declares {footer} instructions, "
                f"chunks held {total}"
            )


def sniff_trace_version(path: str | Path) -> int:
    """Return the on-disk format version (1 or 2) of a trace file."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC_V2))
    if head == _MAGIC_V2:
        return 2
    if head.startswith(_MAGIC.encode()):
        return 1
    raise ValueError(f"not a repro trace file: {path}")


# -- public API ----------------------------------------------------------


def save_trace(
    trace: Trace | ColumnarTrace | Iterable[ColumnarTrace],
    path: str | Path,
    format: str = "v1",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write ``trace`` to ``path``.

    ``format`` selects ``"v1"`` (line text) or ``"v2"`` (binary
    columnar).  Chunk iterators (streamed generation) require v2.
    """
    if format == "v1":
        if not isinstance(trace, (Trace, ColumnarTrace)):
            raise ValueError("v1 serialization needs a full trace, not a chunk stream")
        _save_trace_v1(trace, path)
    elif format == "v2":
        _save_trace_v2(trace, path, chunk_size)
    else:
        raise ValueError(f"unknown trace format: {format!r}")


def _v2_name(path: str | Path) -> str:
    """Read just the trace name from a v2 header (no chunk decoding)."""
    with open(path, "rb") as fh:
        _read_exact(fh, len(_MAGIC_V2))
        header = fh.readline().decode()
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"malformed v2 header in {path}: {header!r}")
    return parts[0]


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace` (either format)."""
    if sniff_trace_version(path) == 1:
        return Trace(_v1_name(path), _iter_v1(path))
    # name comes from the header, not the chunks, so a valid
    # zero-instruction file keeps its identity
    name = _v2_name(path)
    instructions: list[Instruction] = []
    for chunk in iter_trace_chunks(path):
        instructions.extend(chunk)
    return Trace(name, instructions)


def load_trace_columnar(path: str | Path) -> ColumnarTrace:
    """Read a trace file (either format) into a :class:`ColumnarTrace`."""
    out: ColumnarTrace | None = None
    for chunk in iter_trace_chunks(path):
        if out is None:
            out = chunk
        else:
            out.extend(chunk)
    if out is None:
        # zero-instruction (but valid) trace: recover the name via the
        # full loader
        return ColumnarTrace.from_trace(load_trace(path))
    return out
