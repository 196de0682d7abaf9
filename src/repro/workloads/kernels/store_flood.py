"""Adversarial conflicting-store flood.

The worst case the paper's title names: loads whose *addresses* are
perfectly predictable — each static load PC reads one fixed global
slot, so PAP and CAP both train to ~100% address coverage — while a
randomly-gated store to that same slot lands a handful of instructions
earlier.  Whenever the store is still in flight, the predictor's early
cache probe reads the stale pre-store value and the commit-time check
flushes (Figure 1's "in-flight conflict" band, floored).  This is not
one of the paper's 78 benchmarks; it lives in the suite's
``adversarial`` group as a stress workload for bounding scheme
behaviour under conflict pressure.
"""

from __future__ import annotations

from repro.workloads.base import WorkloadBuilder

_MASK64 = (1 << 64) - 1
_R_VAL = 24
_R_MIX = 25
_R_OUT = 26


def conflicting_store_flood(
    builder: WorkloadBuilder,
    n_instructions: int,
    slots: int = 32,
    store_rate: float = 0.75,
    gap_instructions: int = 3,
    code_base: int = 0xD0000,
    table_base: int = 0xE00000,
) -> None:
    """Flood loop-stable load addresses with conflicting stores.

    Args:
        slots: Number of global slots; each gets its own static code
            block, so every load PC has one constant address.
        store_rate: Probability a visit rewrites the slot just before
            reloading it (higher = more in-flight conflicts).
        gap_instructions: Filler ALU ops between store and reload;
            small enough that the store is still in the pipeline.
    """
    pc = 0
    i = 0
    while not builder.full(n_instructions):
        slot = i % slots
        addr = table_base + slot * 8
        # Per-slot static code block: the load PC below always reads
        # ``addr`` — a constant — which is what makes the address side
        # trivially predictable and the value side treacherous.
        pc = code_base + slot * 0x40
        if builder.rng.random() < store_rate:
            value = (i * 0x9E3779B97F4A7C15 + slot) & _MASK64
            builder.alu(pc, _R_VAL, srcs=(_R_VAL,), value=value)
            builder.store(pc + 4, addr=addr, value=value, size=8,
                          srcs=(_R_VAL,))
        for k in range(gap_instructions):
            builder.alu(pc + 8 + 4 * k, _R_MIX, srcs=(_R_MIX,))
        builder.load(
            pc + 8 + 4 * gap_instructions, dests=(_R_OUT,), addr=addr, size=8
        )
        builder.alu(pc + 12 + 4 * gap_instructions, _R_OUT, srcs=(_R_OUT,))
        builder.branch(
            pc + 16 + 4 * gap_instructions, taken=True, target=code_base
        )
        i += 1
