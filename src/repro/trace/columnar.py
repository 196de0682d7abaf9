"""Struct-of-arrays trace representation.

A :class:`ColumnarTrace` stores the same information as a
:class:`~repro.trace.trace.Trace`, but as parallel ``array.array``
columns instead of one :class:`~repro.isa.Instruction` object per
dynamic instruction.  Two things fall out of that layout:

* the ``simulate()`` hot loop can read plain machine integers straight
  from the columns (no per-instruction attribute lookups, no object
  allocation) and only materialize an :class:`Instruction` *view* for
  the few instructions a prediction scheme actually inspects;
* fixed-size chunks of a columnar trace are cheap to concatenate and
  serialize, which is what lets workload generation and the v2 trace
  format stream million-instruction traces in bounded memory.

Ragged per-instruction fields (``srcs``, ``dests``, ``values``) use the
classic prefix-index encoding: ``srcs_index`` has ``n + 1`` entries and
instruction ``i``'s sources live in ``srcs[srcs_index[i]:
srcs_index[i + 1]]``.  Values may be up to 128 bits wide (vector
loads), so the flat value column is split into ``values_lo``/
``values_hi`` 64-bit halves sharing one index.

Scalar optional fields are flag-encoded (``flags`` bit layout below)
with ``0`` stored in the column when absent, so every column stays a
fixed-width numeric array.  Conversion is lossless both ways — the
hypothesis round-trip suite in ``tests/test_columnar.py`` pins that.

The module depends only on the stdlib ``array``; :func:`numpy_columns`
exposes zero-copy numpy views when numpy is importable.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator

from repro.isa import Instruction, OpClass
from repro.trace.trace import Trace, TraceSummary

_MASK64 = (1 << 64) - 1

# flags bit layout (one byte per instruction)
F_MEM = 1          # mem_addr is present (column holds the address)
F_TARGET = 2       # target is present
F_VECTOR = 4       # is_vector
F_TAKEN_KNOWN = 8  # taken is not None
F_TAKEN = 16       # taken is True (only meaningful with F_TAKEN_KNOWN)

# OpClass reconstruction table: OpClass(v) walks the enum's value map on
# every call; indexing a tuple is one C-level operation.
OPCLASS_BY_VALUE: tuple[OpClass, ...] = tuple(
    OpClass(v) for v in sorted(op.value for op in OpClass)
)

# (attribute, typecode) in serialization order; itemsizes are validated
# by the v2 reader so a platform with exotic array widths fails loudly
# instead of mis-decoding.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", "Q"),
    ("op", "B"),
    ("flags", "B"),
    ("mem_addr", "Q"),
    ("mem_size", "I"),
    ("target", "Q"),
    ("srcs_index", "Q"),
    ("srcs", "I"),
    ("dests_index", "Q"),
    ("dests", "I"),
    ("values_index", "Q"),
    ("values_lo", "Q"),
    ("values_hi", "Q"),
)


class ColumnarTrace:
    """An ordered instruction sequence stored column-wise.

    Supports the read surface the simulator and profilers need
    (``name``, ``len``, iteration, ``instruction(i)``, ``summary()``)
    plus append/extend so it doubles as the chunk type for streaming
    generation and the v2 serializer.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("name", "_snapshots")

    def __init__(self, name: str, instructions: Iterable[Instruction] = ()) -> None:
        self.name = name
        self._snapshots = None
        self.pc = array("Q")
        self.op = array("B")
        self.flags = array("B")
        self.mem_addr = array("Q")
        self.mem_size = array("I")
        self.target = array("Q")
        self.srcs_index = array("Q", (0,))
        self.srcs = array("I")
        self.dests_index = array("Q", (0,))
        self.dests = array("I")
        self.values_index = array("Q", (0,))
        self.values_lo = array("Q")
        self.values_hi = array("Q")
        for inst in instructions:
            self.append(inst)

    # -- construction ----------------------------------------------------

    def append(self, inst: Instruction) -> None:
        self._drop_snapshots()
        flags = 0
        if inst.mem_addr is not None:
            flags |= F_MEM
        if inst.target is not None:
            flags |= F_TARGET
        if inst.is_vector:
            flags |= F_VECTOR
        if inst.taken is not None:
            flags |= F_TAKEN_KNOWN
            if inst.taken:
                flags |= F_TAKEN
        self.pc.append(inst.pc)
        self.op.append(inst.op)
        self.flags.append(flags)
        self.mem_addr.append(inst.mem_addr if inst.mem_addr is not None else 0)
        self.mem_size.append(inst.mem_size)
        self.target.append(inst.target if inst.target is not None else 0)
        self.srcs.extend(inst.srcs)
        self.srcs_index.append(len(self.srcs))
        self.dests.extend(inst.dests)
        self.dests_index.append(len(self.dests))
        for v in inst.values:
            self.values_lo.append(v & _MASK64)
            self.values_hi.append((v >> 64) & _MASK64)
        self.values_index.append(len(self.values_lo))

    def extend(self, other: "ColumnarTrace") -> None:
        """Concatenate ``other``'s instructions (chunk reassembly)."""
        self._drop_snapshots()
        src_base = self.srcs_index[-1]
        dst_base = self.dests_index[-1]
        val_base = self.values_index[-1]
        for col in ("pc", "op", "flags", "mem_addr", "mem_size", "target",
                    "srcs", "dests", "values_lo", "values_hi"):
            getattr(self, col).extend(getattr(other, col))
        # prefix indexes rebase onto this trace's flat lengths
        self.srcs_index.extend(src_base + x for x in other.srcs_index[1:])
        self.dests_index.extend(dst_base + x for x in other.dests_index[1:])
        self.values_index.extend(val_base + x for x in other.values_index[1:])

    def _drop_snapshots(self) -> None:
        """Invalidate the :meth:`snapshots` memo before a mutation."""
        self._snapshots = None

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        return cls(trace.name, trace.instructions)

    @classmethod
    def from_columns(cls, name: str, columns: dict) -> "ColumnarTrace":
        """Adopt pre-built columns: the v2 deserializer's entry point.

        Every column must be an ``array.array`` of its ``COLUMNS``
        typecode; anything else raises :class:`ValueError` naming the
        column, since the input comes from outside the program.
        """
        out = cls(name)
        n = len(columns["pc"])
        for attr, typecode in COLUMNS:
            col = columns[attr]
            if not isinstance(col, array):
                raise ValueError(
                    f"column {attr!r}: expected array.array, "
                    f"got {type(col).__name__}"
                )
            if col.typecode != typecode:
                raise ValueError(
                    f"column {attr!r}: expected typecode {typecode!r}, "
                    f"got {col.typecode!r}"
                )
            setattr(out, attr, col)
        if len(columns["values_hi"]) != len(columns["values_lo"]):
            raise ValueError(
                f"values_hi length {len(columns['values_hi'])} != "
                f"values_lo length {len(columns['values_lo'])}"
            )
        flat_for_index = {
            "srcs_index": "srcs",
            "dests_index": "dests",
            "values_index": "values_lo",
        }
        for attr in ("srcs_index", "dests_index", "values_index"):
            idx = columns[attr]
            if len(idx) != n + 1 or idx[0] != 0:
                raise ValueError(f"column {attr!r}: malformed prefix index")
            flat = columns[flat_for_index[attr]]
            if idx[-1] != len(flat):
                raise ValueError(
                    f"column {attr!r}: final index {idx[-1]} != flat "
                    f"column length {len(flat)}"
                )
            prev = 0
            for x in idx:
                if x < prev:
                    raise ValueError(
                        f"column {attr!r}: prefix index not monotonic"
                    )
                prev = x
        return out

    # -- read surface ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[Instruction]:
        for i in range(len(self.pc)):
            yield self.instruction(i)

    def __getitem__(self, index: int) -> Instruction:
        return self.instruction(index)

    def instruction(self, i: int) -> Instruction:
        """Materialize instruction ``i`` as an :class:`Instruction` view.

        Hot path for simulate()'s object-API adapter (one view per
        predicted load), so it bypasses ``Instruction.__init__`` — the
        columns were populated from already-validated instructions, and
        ``__post_init__`` would re-check invariants the encoding cannot
        violate.
        """
        flags = self.flags[i]
        vs = self.values_index[i]
        ve = self.values_index[i + 1]
        lo = self.values_lo
        hi = self.values_hi
        inst = Instruction.__new__(Instruction)
        inst.pc = self.pc[i]
        inst.op = OPCLASS_BY_VALUE[self.op[i]]
        inst.srcs = tuple(self.srcs[self.srcs_index[i]:self.srcs_index[i + 1]])
        inst.dests = tuple(self.dests[self.dests_index[i]:self.dests_index[i + 1]])
        inst.mem_addr = self.mem_addr[i] if flags & F_MEM else None
        inst.mem_size = self.mem_size[i]
        inst.values = tuple(
            (hi[k] << 64) | lo[k] if hi[k] else lo[k] for k in range(vs, ve)
        )
        inst.taken = bool(flags & F_TAKEN) if flags & F_TAKEN_KNOWN else None
        inst.target = self.target[i] if flags & F_TARGET else None
        inst.is_vector = bool(flags & F_VECTOR)
        return inst

    def to_trace(self) -> Trace:
        return Trace(self.name, iter(self))

    def summary(self) -> TraceSummary:
        """Columnar twin of :meth:`Trace.summary` (same counts)."""
        return self.to_trace().summary()

    def snapshots(self) -> tuple:
        """Plain-list snapshots of every column, memoized per trace.

        The simulate() loop indexes columns millions of times;
        ``array.array`` indexing boxes a fresh int on every read, while
        a plain list returns the already-boxed object.  ``tolist()``
        converts at C speed once — and because a worker's memoized
        trace is not mutated between cells, the lists are cached here
        so *every scheme* simulated over the same trace shares one
        conversion instead of paying it per run.
        Mutation (:meth:`append`/:meth:`extend`) drops the memo.

        Returns the columns in ``COLUMNS`` order as a tuple of lists.
        """
        snap = self._snapshots
        if snap is None:
            snap = tuple(getattr(self, attr).tolist() for attr, _ in COLUMNS)
            self._snapshots = snap
        return snap

    def numpy_columns(self) -> "dict[str, object]":
        """Zero-copy numpy views of every column (requires numpy)."""
        import numpy as np

        return {
            attr: np.frombuffer(getattr(self, attr), dtype=typecode)
            for attr, typecode in COLUMNS
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.name == other.name and all(
            getattr(self, attr) == getattr(other, attr) for attr, _ in COLUMNS
        )

    def __repr__(self) -> str:
        return f"ColumnarTrace({self.name!r}, {len(self)} instructions)"
