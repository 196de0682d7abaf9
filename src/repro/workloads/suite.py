"""The workload registry: the paper's 78-benchmark suite plus stress
workloads.

Names follow the paper's benchmark pool — SPEC2K, SPEC2K6, EEMBC and a
set of JS/media/other applications — and each maps to a kernel family
with parameters chosen so the benchmarks the paper singles out behave
the right way:

* ``perlbmk`` — deep call trees with spill/reload conflicts and
  load-fed mispredicting branches (the 71% DLVP outlier);
* ``nat`` — erratic-address/stable-value hash probing (favours VTAGE);
* ``aifirf`` — path-determined table addresses (favours DLVP);
* ``bzip2``/``avmshell`` — large-footprint scans and interpreter heaps
  where the double cache probe perturbs the TLB (Figure 9);
* ``h264ref`` — vector/LDM heavy (VTAGE's opcode-filter story).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.trace import ColumnarTrace, Trace
from repro.workloads.base import DEFAULT_STREAM_CHUNK, WorkloadSpec
from repro.workloads.kernels import (
    bytecode_interpreter,
    conflicting_store_flood,
    flag_check_loop,
    hash_lookup,
    matrix_multiply,
    mixed_phases,
    pointer_chase,
    producer_consumer,
    streaming_sum,
    string_scan,
    table_state_machine,
    vector_filter,
)

DEFAULT_INSTRUCTIONS = 24_000


def _spec(name, group, kernel, seed, **params) -> WorkloadSpec:
    return WorkloadSpec(name=name, group=group, kernel=kernel, params=params, seed=seed)


_SPEC2K = [
    _spec("gzip", "spec2k", string_scan, 101, buffer_bytes=48 * 1024, match_rate=0.15),
    _spec("vpr", "spec2k", mixed_phases, 102,
          weights={"state": 2.0, "streaming": 1.0, "objects": 1.0},
          objects_couple_every=4, objects_repoint_every=0),
    _spec("gcc", "spec2k", mixed_phases, 103,
          weights={"calls": 2.0, "objects": 1.0, "state": 1.0},
          calls_depth=5, objects_couple_every=4, objects_repoint_every=100,
          objects_num_roots=12),
    _spec("mcf", "spec2k", pointer_chase, 104, nodes=2048, mutate_every=3),
    _spec("crafty", "spec2k", mixed_phases, 105,
          weights={"state": 2.0, "flags": 1.0, "strings": 1.0},
          flags_chain_divs=1, flags_ring_slots=32, flags_update_lead=24),
    _spec("parser", "spec2k", string_scan, 106, buffer_bytes=24 * 1024, match_rate=0.3),
    _spec("perlbmk", "spec2k", flag_check_loop, 107,
          chain_divs=2, chain_alus=1, filler_alus=1, ring_slots=32, update_lead=24),
    _spec("gap", "spec2k", matrix_multiply, 108, dim=32),
    _spec("vortex", "spec2k", mixed_phases, 109,
          weights={"objects": 2.0, "calls": 1.0, "hash": 1.0},
          objects_num_roots=8, objects_couple_every=2, objects_repoint_every=0),
    _spec("twolf", "spec2k", mixed_phases, 110,
          weights={"state": 1.0, "objects": 1.0},
          objects_couple_every=4, objects_repoint_every=0),
    _spec("eon", "spec2k", vector_filter, 111, taps=6, ldm_regs=3),
    _spec("bzip2_2k", "spec2k", string_scan, 112,
          buffer_bytes=96 * 1024, match_rate=0.2, rewrite_fraction=0.1),
]

_SPEC2K6 = [
    _spec("perlbench", "spec2k6", mixed_phases, 201,
          weights={"flags": 1.0, "calls": 1.0, "hash": 1.0},
          flags_chain_divs=2, calls_depth=6),
    _spec("bzip2", "spec2k6", string_scan, 202,
          buffer_bytes=192 * 1024, match_rate=0.25, rewrite_fraction=0.15),
    _spec("gcc6", "spec2k6", mixed_phases, 203,
          weights={"calls": 2.0, "objects": 1.0, "state": 1.0, "strings": 1.0},
          objects_couple_every=4, objects_repoint_every=0),
    _spec("mcf6", "spec2k6", pointer_chase, 204, nodes=4096, mutate_every=2),
    _spec("gobmk", "spec2k6", hash_lookup, 205, buckets=1024, occupancy=0.04,
          insert_every=60),
    _spec("hmmer", "spec2k6", matrix_multiply, 206, dim=28),
    _spec("sjeng", "spec2k6", table_state_machine, 207, num_states=4,
          input_period=7),
    _spec("libquantum", "spec2k6", streaming_sum, 208, array_bytes=128 * 1024,
          stride=16),
    _spec("h264ref", "spec2k6", vector_filter, 209, taps=8, ldm_regs=4,
          frame_bytes=96 * 1024, ref_blocks=24),
    _spec("omnetpp", "spec2k6", mixed_phases, 210,
          weights={"pointer": 1.0, "objects": 1.0}, pointer_nodes=1024,
          pointer_mutate_every=4, objects_couple_every=3, objects_repoint_every=0),
    _spec("astar", "spec2k6", mixed_phases, 211,
          weights={"pointer": 1.0, "objects": 1.0}, pointer_nodes=768,
          objects_couple_every=4, objects_repoint_every=0),
    _spec("xalancbmk", "spec2k6", mixed_phases, 212,
          weights={"objects": 2.0, "hash": 1.0, "strings": 1.0},
          objects_num_roots=6, objects_couple_every=3, objects_repoint_every=0),
    _spec("soplex", "spec2k6", matrix_multiply, 213, dim=36),
    _spec("namd", "spec2k6", vector_filter, 214, taps=12, ldm_regs=4),
    _spec("lbm", "spec2k6", streaming_sum, 215, array_bytes=256 * 1024, stride=8),
    _spec("milc", "spec2k6", streaming_sum, 216, array_bytes=192 * 1024,
          stride=16, use_pairs=True),
    _spec("povray", "spec2k6", mixed_phases, 217,
          weights={"calls": 1.0, "objects": 1.0, "state": 1.0},
          objects_couple_every=4, objects_repoint_every=0),
    _spec("sphinx3", "spec2k6", mixed_phases, 218,
          weights={"streaming": 2.0, "hash": 1.0}),
]

_EEMBC_DEFS = [
    ("a2time", table_state_machine, {"num_states": 4, "input_period": 5}),
    ("aifftr", streaming_sum, {"array_bytes": 8 * 1024, "stride": 8}),
    ("aifirf", table_state_machine, {"num_states": 4, "input_period": 5, "path_loads": 2}),
    ("aiifft", streaming_sum, {"array_bytes": 8 * 1024, "stride": 16}),
    ("basefp", matrix_multiply, {"dim": 28}),
    ("bitmnp", string_scan, {"buffer_bytes": 4 * 1024, "match_rate": 0.5}),
    ("cacheb", streaming_sum, {"array_bytes": 96 * 1024, "stride": 64}),
    ("canrdr", table_state_machine, {"num_states": 4, "input_period": 3}),
    ("idctrn", vector_filter, {"taps": 8, "ldm_regs": 2, "frame_bytes": 4 * 1024}),
    ("iirflt", streaming_sum, {"array_bytes": 4 * 1024, "stride": 8, "use_pairs": True}),
    ("matrix_eembc", matrix_multiply, {"dim": 32}),
    ("pntrch", pointer_chase, {"nodes": 128, "mutate_every": 0}),
    ("puwmod", producer_consumer, {"queue_slots": 8, "gap_instructions": 5}),
    ("rspeed", table_state_machine, {"num_states": 3, "input_period": 5}),
    ("tblook", table_state_machine, {"num_states": 4, "input_period": 7, "path_loads": 2}),
    ("ttsprk", table_state_machine, {"num_states": 4, "input_period": 5}),
    ("dither", streaming_sum, {"array_bytes": 16 * 1024, "stride": 4}),
    ("rotate", matrix_multiply, {"dim": 32}),
    ("text_eembc", string_scan, {"buffer_bytes": 8 * 1024, "match_rate": 0.2}),
    ("autcor", streaming_sum, {"array_bytes": 64 * 1024, "stride": 8}),
    ("conven", string_scan, {"buffer_bytes": 6 * 1024, "match_rate": 0.4}),
    ("fbital", producer_consumer, {"queue_slots": 16, "gap_instructions": 8}),
    ("fft_eembc", vector_filter, {"taps": 4, "ldm_regs": 2}),
    ("viterb", table_state_machine, {"num_states": 4, "input_period": 3}),
    ("ospf", pointer_chase, {"nodes": 192, "mutate_every": 6}),
    ("pktflow", mixed_phases,
     {"weights": {"hash": 2.0, "state": 1.0}, "hash_occupancy": 0.05}),
    ("routelookup", hash_lookup, {"buckets": 512, "occupancy": 0.03}),
    ("bezier", matrix_multiply, {"dim": 28}),
    ("djpeg", vector_filter, {"taps": 16, "ldm_regs": 4, "frame_bytes": 12 * 1024}),
    ("rgbcmy", streaming_sum, {"array_bytes": 24 * 1024, "stride": 4}),
]

_EEMBC = [
    _spec(name, "eembc", kernel, 300 + i, **params)
    for i, (name, kernel, params) in enumerate(_EEMBC_DEFS)
]

_OTHER_DEFS = [
    ("linpack", matrix_multiply, {"dim": 32}),
    ("mplayer", vector_filter, {"taps": 10, "ldm_regs": 4, "frame_bytes": 32 * 1024}),
    ("browsermark", mixed_phases,
     {"weights": {"interp": 1.0, "objects": 1.0, "calls": 1.0},
      "objects_couple_every": 4, "objects_repoint_every": 0}),
    ("sunspider", bytecode_interpreter, {"program_length": 128, "num_handlers": 8}),
    ("dromaeo", bytecode_interpreter, {"program_length": 192, "num_handlers": 12}),
    ("octane", mixed_phases,
     {"weights": {"interp": 1.0, "objects": 2.0},
      "objects_couple_every": 3, "objects_repoint_every": 0}),
    ("kraken", mixed_phases,
     {"weights": {"interp": 1.0, "streaming": 1.5, "flags": 0.5},
      "flags_chain_divs": 1, "flags_ring_slots": 32, "flags_update_lead": 24}),
    ("scimark", matrix_multiply, {"dim": 40}),
    ("ibench", mixed_phases,
     {"weights": {"strings": 1.0, "hash": 1.0, "flags": 0.5},
      "flags_chain_divs": 1, "flags_ring_slots": 32, "flags_update_lead": 24}),
    ("avmshell", bytecode_interpreter,
     {"program_length": 256, "num_handlers": 16, "stack_conflicts": True}),
    ("pdfjs", mixed_phases,
     {"weights": {"interp": 1.0, "strings": 1.0, "flags": 0.5},
      "flags_chain_divs": 1, "flags_ring_slots": 32, "flags_update_lead": 24}),
    ("nat", hash_lookup,
     {"buckets": 2048, "occupancy": 0.01, "key_space": 16384}),
    ("v8_richards", bytecode_interpreter, {"program_length": 96, "num_handlers": 6}),
    ("v8_deltablue", mixed_phases,
     {"weights": {"objects": 2.0, "interp": 1.0},
      "objects_couple_every": 2, "objects_repoint_every": 0}),
    ("jetstream", mixed_phases,
     {"weights": {"interp": 1.0, "objects": 1.0, "flags": 0.5},
      "objects_couple_every": 4, "objects_repoint_every": 0,
      "flags_chain_divs": 1, "flags_ring_slots": 32, "flags_update_lead": 24}),
    ("speedometer", mixed_phases,
     {"weights": {"interp": 1.0, "objects": 1.0, "flags": 0.5},
      "objects_couple_every": 3, "objects_repoint_every": 0,
      "flags_chain_divs": 1, "flags_ring_slots": 32, "flags_update_lead": 24}),
    ("espresso", table_state_machine, {"num_states": 4, "input_period": 5}),
    ("queueing", producer_consumer, {"queue_slots": 12, "gap_instructions": 6}),
]

_OTHER = [
    _spec(name, "other", kernel, 400 + i, **params)
    for i, (name, kernel, params) in enumerate(_OTHER_DEFS)
]

# Stress workloads *outside* the paper's pool: adversarial patterns the
# chaos/robustness tests lean on.  They live in the registry (so caching
# and goldens cover them) but are excluded from the default
# `workload_names()` selection — figures, sweeps and Table 3 stay the
# paper's 78 benchmarks, byte for byte.
_ADVERSARIAL = [
    _spec("storeflood", "adversarial", conflicting_store_flood, 500,
          slots=32, store_rate=0.75, gap_instructions=3),
    _spec("storeflood_lite", "adversarial", conflicting_store_flood, 501,
          slots=48, store_rate=0.15, gap_instructions=8),
]

SUITE: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (*_SPEC2K, *_SPEC2K6, *_EEMBC, *_OTHER, *_ADVERSARIAL)
}

SUITE_GROUPS: dict[str, list[str]] = {}
for _spec_obj in SUITE.values():
    SUITE_GROUPS.setdefault(_spec_obj.group, []).append(_spec_obj.name)

# The paper's own benchmark pool (Table 3's denominator).
PAPER_GROUPS: tuple[str, ...] = ("spec2k", "spec2k6", "eembc", "other")


def workload_names(group: str | None = None) -> list[str]:
    """Workload names for one group, or the paper's default pool.

    With no ``group`` this returns only the 78 paper benchmarks
    (:data:`PAPER_GROUPS`) — the default selection every figure and
    sweep reproduces.  Adversarial stress workloads must be asked for
    by group (``workload_names("adversarial")``) or by name.
    """
    if group is None:
        return [
            name for g in PAPER_GROUPS for name in SUITE_GROUPS.get(g, [])
        ]
    if group not in SUITE_GROUPS:
        raise KeyError(f"unknown suite group: {group!r} (have {sorted(SUITE_GROUPS)})")
    return list(SUITE_GROUPS[group])


def _spec_for(name: str) -> WorkloadSpec:
    try:
        return SUITE[name]
    except KeyError:
        raise KeyError(f"unknown workload: {name!r}") from None


def build_workload(
    name: str,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    *,
    stream: bool = False,
    chunk_size: int = DEFAULT_STREAM_CHUNK,
) -> Trace | Iterator[ColumnarTrace]:
    """Generate one named workload's trace.

    With ``stream=True``, returns a generator of fixed-size
    :class:`ColumnarTrace` chunks instead of a materialized
    :class:`Trace` — same instructions bit for bit, O(chunk) memory
    (million-instruction traces never hold O(trace) objects).
    """
    spec = _spec_for(name)
    if stream:
        return spec.build_stream(n_instructions, chunk_size)
    return spec.build(n_instructions)


def build_workload_columnar(
    name: str,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    chunk_size: int = DEFAULT_STREAM_CHUNK,
) -> ColumnarTrace:
    """One named workload as a full :class:`ColumnarTrace` (streamed build)."""
    return _spec_for(name).build_columnar(n_instructions, chunk_size)


def build_suite(
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    names: list[str] | None = None,
) -> dict[str, Trace]:
    """Generate traces for the whole suite (or a named subset)."""
    selected = names if names is not None else list(SUITE)
    return {name: build_workload(name, n_instructions) for name in selected}
