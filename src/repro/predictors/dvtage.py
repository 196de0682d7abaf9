"""D-VTAGE — the differential VTAGE of Perais & Seznec (HPCA 2015).

Section 2.1 of the DLVP paper describes it: a last-value table (LVT)
sits in front of the first VTAGE component and stores the *last value*
per instruction, while the tagged components store *strides* (deltas).
The prediction is ``last_value + stride``, which captures strided value
sequences VTAGE proper cannot (its entries hold full values and a
changing value resets confidence every time).

The paper also names D-VTAGE's costs, which this model reproduces:

* an adder on the prediction critical path (we charge one extra cycle
  of prediction latency via :attr:`prediction_latency`);
* a speculative window to track in-flight last values — we model the
  idealised variant (the LVT is updated at train time in program
  order), which is the most favourable assumption for D-VTAGE.

It shares VTAGE's ISA problem: one slot per destination register, so
the static opcode filter applies equally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.isa import Instruction, OpClass
from repro.predictors.base import PredictorStats
from repro.predictors.confidence import VTAGE_FPC_VECTOR, fpc_advance
from repro.predictors.vtage import _FILTERED_TYPES, _itype_flat
from repro.branch.history import fold_history

_MASK64 = (1 << 64) - 1
_LOAD = int(OpClass.LOAD)


@dataclass(frozen=True)
class DvtageConfig:
    """D-VTAGE parameters, mirroring the VTAGE budget split.

    The LVT replaces part of the tagged-table budget: 256 LVT entries
    (tag + 64-bit last value) plus two tagged stride components keeps
    the total close to the 8KB-class budget of Table 4.
    """

    lvt_entries: int = 256
    table_entries: int = 256
    tag_bits: int = 16
    stride_bits: int = 16
    history_lengths: tuple[int, ...] = (5, 13)
    fpc_vector: tuple[float, ...] = VTAGE_FPC_VECTOR
    loads_only: bool = True
    static_filter: bool = True
    prediction_latency: int = 1          # the adder on the critical path
    seed: int = 0xD7A6

    def __post_init__(self) -> None:
        if self.lvt_entries & (self.lvt_entries - 1):
            raise ValueError("LVT entries must be a power of two")
        if self.table_entries & (self.table_entries - 1):
            raise ValueError("table entries must be a power of two")


@dataclass
class _LvtEntry:
    tag: int
    last_value: int


@dataclass
class _StrideEntry:
    tag: int
    stride: int
    confidence: int = 0


class DvtagePredictor:
    """LVT + tagged stride components, single-destination loads."""

    def __init__(self, config: DvtageConfig | None = None) -> None:
        self.config = config or DvtageConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self._lvt: list[_LvtEntry | None] = [None] * cfg.lvt_entries
        self._tables: list[list[_StrideEntry | None]] = [
            [None] * cfg.table_entries for _ in cfg.history_lengths
        ]
        self._index_bits = cfg.table_entries.bit_length() - 1
        self.stats = PredictorStats()

    # -- eligibility / keys ----------------------------------------------

    def eligible(self, inst: Instruction) -> bool:
        return self.eligible_flat(int(inst.op), len(inst.dests), inst.is_vector)

    def eligible_flat(self, op: int, ndests: int, is_vector: bool) -> bool:
        """:meth:`eligible` over raw column scalars (flat-protocol hot path)."""
        if op != _LOAD or ndests != 1:
            return False
        if self.config.static_filter and (
            _itype_flat(op, ndests, is_vector) in _FILTERED_TYPES
        ):
            return False
        return True

    def _mix(self, pc: int) -> int:
        word = pc >> 2
        return word ^ (word >> self._index_bits) ^ (word >> (2 * self._index_bits))

    def _lvt_key(self, pc: int) -> tuple[int, int]:
        index = self._mix(pc) & (self.config.lvt_entries - 1)
        tag = (pc >> 2) & ((1 << self.config.tag_bits) - 1)
        return index, tag

    def _stride_key(self, pc: int, table: int, history: int) -> tuple[int, int]:
        cfg = self.config
        hist_len = cfg.history_lengths[table]
        idx_fold = fold_history(history, hist_len, self._index_bits)
        tag_fold = fold_history(history, hist_len, cfg.tag_bits)
        index = (self._mix(pc) ^ idx_fold ^ (table * 0x9E5)) & (cfg.table_entries - 1)
        tag = ((pc >> 2) ^ (tag_fold << 1)) & ((1 << cfg.tag_bits) - 1)
        return index, tag

    # -- prediction --------------------------------------------------------

    def predict(self, inst: Instruction, history: int) -> int | None:
        """Predicted value (last value + provider stride), or None."""
        return self.predict_flat(
            inst.pc, int(inst.op), len(inst.dests), inst.is_vector, history
        )

    def predict_flat(
        self, pc: int, op: int, ndests: int, is_vector: bool, history: int
    ) -> int | None:
        """:meth:`predict` over raw column scalars (flat-protocol hot path)."""
        if not self.eligible_flat(op, ndests, is_vector):
            return None
        lvt_index, lvt_tag = self._lvt_key(pc)
        lvt = self._lvt[lvt_index]
        if lvt is None or lvt.tag != lvt_tag:
            return None
        provider = self._provider(pc, history)
        if provider is None:
            return None
        entry = provider[2]
        if entry.confidence < len(self.config.fpc_vector):
            return None
        return (lvt.last_value + entry.stride) & _MASK64

    def _provider(self, pc: int, history: int):
        for table in reversed(range(len(self.config.history_lengths))):
            index, tag = self._stride_key(pc, table, history)
            entry = self._tables[table][index]
            if entry is not None and entry.tag == tag:
                return table, index, entry
        return None

    # -- training -----------------------------------------------------------

    def train(self, inst: Instruction, history: int) -> int | None:
        """Predict-and-train; returns the prediction that was made."""
        return self.train_flat(
            inst.pc, int(inst.op), len(inst.dests), inst.is_vector,
            inst.values, history,
        )

    def train_flat(
        self,
        pc: int,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
        history: int,
    ) -> int | None:
        """:meth:`train` over raw column scalars (flat-protocol hot path)."""
        if op == _LOAD:
            self.stats.loads_seen += 1
        if not self.eligible_flat(op, ndests, is_vector):
            return None
        value = values[0] & _MASK64
        prediction = self.predict_flat(pc, op, ndests, is_vector, history)

        lvt_index, lvt_tag = self._lvt_key(pc)
        lvt = self._lvt[lvt_index]
        stride_mask = (1 << self.config.stride_bits) - 1

        if lvt is not None and lvt.tag == lvt_tag:
            observed = (value - lvt.last_value) & _MASK64
            # Strides are narrow (16 bits, sign-extended) in hardware.
            if observed & ~stride_mask and (observed | stride_mask) != _MASK64:
                observed = None      # stride not representable
            self._train_stride(pc, history, observed)
            lvt.last_value = value
        else:
            self._lvt[lvt_index] = _LvtEntry(tag=lvt_tag, last_value=value)

        if prediction is not None:
            self.stats.predictions += 1
            if prediction == value:
                self.stats.correct += 1
        return prediction

    def _train_stride(self, pc: int, history: int, observed: int | None) -> None:
        cfg = self.config
        provider = self._provider(pc, history)
        if provider is not None:
            _, _, entry = provider
            if observed is not None and entry.stride == observed:
                if entry.confidence < len(cfg.fpc_vector):
                    if fpc_advance(self._rng, cfg.fpc_vector, entry.confidence):
                        entry.confidence += 1
                return
            if entry.confidence == 0 and observed is not None:
                entry.stride = observed
            else:
                entry.confidence = 0
            start = provider[0] + 1
        else:
            start = 0
        if observed is None:
            return
        for table in range(start, len(cfg.history_lengths)):
            index, tag = self._stride_key(pc, table, history)
            entry = self._tables[table][index]
            if entry is None or entry.confidence == 0:
                self._tables[table][index] = _StrideEntry(tag=tag, stride=observed)
                return

    def storage_bits(self) -> int:
        cfg = self.config
        lvt = cfg.lvt_entries * (cfg.tag_bits + 64)
        tables = (
            len(cfg.history_lengths)
            * cfg.table_entries
            * (cfg.tag_bits + cfg.stride_bits + 3)
        )
        return lvt + tables
