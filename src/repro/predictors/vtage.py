"""VTAGE value predictor (Perais & Seznec, HPCA 2014) with the paper's
ARM-specific opcode filters.

Structure per Table 4: three direct-mapped, partially tagged tables of
256 entries indexed with hashes of PC and global *branch* history of
lengths {0, 5, 13}; each entry carries a 16-bit tag, a 64-bit value and
a 3-bit forward-probabilistic confidence counter.  The 0-history table
doubles as the tagged last-value base ("using tags with the LVP table is
crucial", Section 2.1).

Multi-destination loads (Section 5.2.2): each destination register is a
separate prediction slot whose key concatenates the slot number with the
PC; a 128-bit vector value burns two 64-bit slots.  Mispredicting *any*
slot flushes, and a load only counts as covered when *every* slot
predicts — this is precisely the ISA-induced inefficiency the paper
diagnoses.

Opcode filters:

* ``STATIC`` — LDP/LDM/VLD are never predicted and never update the
  tables (preloaded filter, no training needed).
* ``DYNAMIC`` — a small table tracks per-instruction-type accuracy;
  types observed below 95% accuracy are blocked from predicting and
  updating.  Training the filter costs mispredictions, which is why the
  paper finds static beats dynamic.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.isa import Instruction, OpClass
from repro.predictors.base import PredictorStats
from repro.predictors.confidence import VTAGE_FPC_VECTOR, fpc_advance
from repro.branch.history import fold_history


class OpcodeFilterMode(enum.Enum):
    """Which multi-destination-load filter VTAGE runs with (Fig 7)."""

    NONE = "none"
    DYNAMIC = "dynamic"
    STATIC = "static"


_LOAD = int(OpClass.LOAD)
_EXCLUDED_OPS = frozenset(
    {int(OpClass.STORE), int(OpClass.ATOMIC), int(OpClass.BARRIER)}
)
_OP_NAMES = {int(op): op.name.lower() for op in OpClass}


def instruction_type(inst: Instruction) -> str:
    """Coarse instruction type used by the opcode filters."""
    return _itype_flat(int(inst.op), len(inst.dests), inst.is_vector)


def _itype_flat(op: int, ndests: int, is_vector: bool) -> str:
    """:func:`instruction_type` over raw column scalars."""
    if op == _LOAD:
        if is_vector:
            return "vld"
        if ndests == 2:
            return "ldp"
        if ndests > 2:
            return "ldm"
        return "load"
    return _OP_NAMES[op]


_FILTERED_TYPES = frozenset({"ldp", "ldm", "vld"})


@dataclass(frozen=True)
class VtageConfig:
    """VTAGE parameters (Table 4: 3 x 256 x 83 bits = 62.3k bits)."""

    table_entries: int = 256
    tag_bits: int = 16
    history_lengths: tuple[int, ...] = (0, 5, 13)
    fpc_vector: tuple[float, ...] = VTAGE_FPC_VECTOR
    loads_only: bool = True
    filter_mode: OpcodeFilterMode = OpcodeFilterMode.STATIC
    dynamic_filter_threshold: float = 0.95
    dynamic_filter_warmup: int = 128
    max_history: int = 64
    seed: int = 0x57A6

    def __post_init__(self) -> None:
        if self.table_entries & (self.table_entries - 1):
            raise ValueError("table entries must be a power of two")
        if not self.history_lengths or self.history_lengths[0] != 0:
            raise ValueError("first VTAGE component must use history length 0 (LVP base)")


class _VtageEntry:
    __slots__ = ("tag", "value", "confidence")

    def __init__(self, tag: int, value: int, confidence: int = 0) -> None:
        self.tag = tag
        self.value = value
        self.confidence = confidence


@dataclass
class _SlotLookup:
    """Where one prediction slot hit (or would allocate)."""

    keys: list[tuple[int, int]]          # (index, tag) per table
    provider: int | None                  # table index of longest match
    prediction: int | None                # value if provider confident


@dataclass
class VtageHandle:
    """Fetch-time lookup state carried to execute (two-phase driving)."""

    lookups: list[_SlotLookup]
    prediction: tuple[int, ...] | None


@dataclass
class _TypeAccuracy:
    predictions: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.predictions if self.predictions else 1.0


class VtagePredictor:
    """VTAGE with per-destination-register slots and opcode filtering."""

    def __init__(self, config: VtageConfig | None = None) -> None:
        self.config = config or VtageConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self._tables: list[list[_VtageEntry | None]] = [
            [None] * cfg.table_entries for _ in cfg.history_lengths
        ]
        self._index_bits = cfg.table_entries.bit_length() - 1
        self.stats = PredictorStats()              # per-load accounting
        self.slot_predictions = 0
        self.slot_correct = 0
        self._type_accuracy: dict[str, _TypeAccuracy] = {}
        # One-entry memo of per-table (idx_fold, tag_fold) pairs for the
        # last seen history value: the branch history only changes on
        # branches, so runs of consecutive loads (and the multiple slots
        # of one load) share the fold computation.
        self._fold_memo_history: int | None = None
        self._fold_memo: list[tuple[int, int]] = []

    # -- eligibility ----------------------------------------------------

    def eligible(self, inst: Instruction) -> bool:
        """May this instruction be predicted / may it update the tables?"""
        return self.eligible_flat(
            int(inst.op), len(inst.dests), inst.is_vector, inst.values
        )

    def eligible_flat(
        self, op: int, ndests: int, is_vector: bool, values: tuple[int, ...]
    ) -> bool:
        """:meth:`eligible` over raw column scalars (flat-protocol hot path)."""
        if not ndests or not values:
            return False
        if self.config.loads_only and op != _LOAD:
            return False
        if op in _EXCLUDED_OPS:
            return False
        itype = _itype_flat(op, ndests, is_vector)
        mode = self.config.filter_mode
        if mode == OpcodeFilterMode.STATIC and itype in _FILTERED_TYPES:
            return False
        if mode == OpcodeFilterMode.DYNAMIC:
            acc = self._type_accuracy.get(itype)
            if (
                acc is not None
                and acc.predictions >= self.config.dynamic_filter_warmup
                and acc.accuracy < self.config.dynamic_filter_threshold
            ):
                return False
        return True

    # -- keys -----------------------------------------------------------

    def _slot_keys(self, pc: int, num_slots: int, slot: int, history: int) -> list[tuple[int, int]]:
        """(index, tag) in each table for one prediction slot.

        The PC is concatenated with the slot number and the destination
        count (the paper's fix for multi-destination loads) before
        hashing with the folded branch history.
        """
        cfg = self.config
        base = ((pc >> 2) << 5) | (slot << 1) | (num_slots & 1)
        # Fold high bits down so regularly-strided code does not alias
        # systematically in the small (256-entry) tables.
        mixed = base ^ (base >> self._index_bits) ^ (base >> (2 * self._index_bits))
        keys = []
        for table, (idx_fold, tag_fold) in enumerate(self._folds(history)):
            index = (mixed ^ idx_fold ^ (table * 0x9E5)) & (cfg.table_entries - 1)
            tag = (base ^ (base >> self._index_bits) ^ (tag_fold << 1)) & (
                (1 << cfg.tag_bits) - 1
            )
            keys.append((index, tag))
        return keys

    def _folds(self, history: int) -> list[tuple[int, int]]:
        """Per-table (index fold, tag fold) of ``history``, memoized."""
        if history == self._fold_memo_history:
            return self._fold_memo
        cfg = self.config
        folds = [
            (
                fold_history(history, hist_len, self._index_bits) if hist_len else 0,
                fold_history(history, hist_len, cfg.tag_bits) if hist_len else 0,
            )
            for hist_len in cfg.history_lengths
        ]
        self._fold_memo_history = history
        self._fold_memo = folds
        return folds

    def _lookup_slot(self, keys: list[tuple[int, int]]) -> _SlotLookup:
        provider = None
        prediction = None
        for table in reversed(range(len(self.config.history_lengths))):
            index, tag = keys[table]
            entry = self._tables[table][index]
            if entry is not None and entry.tag == tag:
                provider = table
                if entry.confidence >= len(self.config.fpc_vector):
                    prediction = entry.value
                break
        return _SlotLookup(keys=keys, provider=provider, prediction=prediction)

    # -- prediction -------------------------------------------------------

    def predict(self, inst: Instruction, history: int) -> tuple[int, ...] | None:
        """Predict all destination values, or None.

        All-or-nothing: a multi-destination load is only predicted when
        every slot has a confident provider (a partial prediction would
        still stall the consumers of the unpredicted registers and still
        risk a flush).
        """
        lookups = self._lookups_flat(
            inst.pc, int(inst.op), len(inst.dests), inst.is_vector,
            inst.values, history,
        )
        if lookups is None:
            return None
        values = [lk.prediction for lk in lookups]
        if any(v is None for v in values):
            return None
        return self._assemble_flat(len(inst.dests), inst.is_vector, values)

    def _lookups(self, inst: Instruction, history: int) -> list[_SlotLookup] | None:
        return self._lookups_flat(
            inst.pc, int(inst.op), len(inst.dests), inst.is_vector,
            inst.values, history,
        )

    def _lookups_flat(
        self,
        pc: int,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
        history: int,
    ) -> list[_SlotLookup] | None:
        if not self.eligible_flat(op, ndests, is_vector, values):
            return None
        num_slots = (2 * ndests) if is_vector else ndests
        return [
            self._lookup_slot(self._slot_keys(pc, num_slots, slot, history))
            for slot in range(num_slots)
        ]

    def _assemble_flat(
        self, ndests: int, is_vector: bool, slot_values: list[int]
    ) -> tuple[int, ...]:
        """Recombine 64-bit slots into per-destination values."""
        if not is_vector:
            return tuple(slot_values)
        values = []
        for i in range(ndests):
            low, high = slot_values[2 * i], slot_values[2 * i + 1]
            values.append((high << 64) | low)
        return tuple(values)

    def _slot_targets_flat(
        self, is_vector: bool, values: tuple[int, ...]
    ) -> list[int]:
        """The correct 64-bit value for each prediction slot."""
        if not is_vector:
            return [v & ((1 << 64) - 1) for v in values]
        targets = []
        for value in values:
            targets.append(value & ((1 << 64) - 1))
            targets.append((value >> 64) & ((1 << 64) - 1))
        return targets

    # -- two-phase driving (used inside the pipeline model) ---------------

    def begin(self, inst: Instruction, history: int) -> VtageHandle | None:
        """Fetch side: look up all slots; None when ineligible.

        Counts every load toward the coverage denominator, eligible or
        not — the paper's coverage is over *all* dynamic loads.
        """
        return self.begin_flat(
            inst.pc, int(inst.op), len(inst.dests), inst.is_vector,
            inst.values, history,
        )

    def begin_flat(
        self,
        pc: int,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
        history: int,
    ) -> VtageHandle | None:
        """:meth:`begin` over raw column scalars (flat-protocol hot path)."""
        if op == _LOAD:
            self.stats.loads_seen += 1
        lookups = self._lookups_flat(pc, op, ndests, is_vector, values, history)
        if lookups is None:
            return None
        slot_values = [lk.prediction for lk in lookups]
        prediction = None
        if all(v is not None for v in slot_values):
            prediction = self._assemble_flat(ndests, is_vector, slot_values)
        return VtageHandle(lookups=lookups, prediction=prediction)

    def finish(self, handle: VtageHandle, inst: Instruction) -> bool:
        """Execute side: train using the fetch-time lookups.

        Returns True when the (made) prediction was fully correct.
        """
        return self._train_with_lookups_flat(
            handle.lookups, int(inst.op), len(inst.dests), inst.is_vector,
            inst.values,
        )

    def finish_flat(
        self,
        handle: VtageHandle,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
    ) -> bool:
        """:meth:`finish` over raw column scalars (flat-protocol hot path)."""
        return self._train_with_lookups_flat(
            handle.lookups, op, ndests, is_vector, values
        )

    # -- training ---------------------------------------------------------

    def train(self, inst: Instruction, history: int) -> tuple[int, ...] | None:
        """Predict-and-train for one instruction; returns the prediction.

        Combines the fetch-time lookup with the execute-time update under
        the same history value — the idealised speculative-history
        management the standalone drivers use.
        """
        op = int(inst.op)
        ndests = len(inst.dests)
        is_vector = inst.is_vector
        if op == _LOAD:
            self.stats.loads_seen += 1
        lookups = self._lookups_flat(
            inst.pc, op, ndests, is_vector, inst.values, history
        )
        if lookups is None:
            return None
        slot_values = [lk.prediction for lk in lookups]
        predicted_all = all(v is not None for v in slot_values)
        self._train_with_lookups_flat(lookups, op, ndests, is_vector, inst.values)
        if not predicted_all:
            return None
        return self._assemble_flat(ndests, is_vector, slot_values)

    def _train_with_lookups_flat(
        self,
        lookups: list[_SlotLookup],
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
    ) -> bool:
        targets = self._slot_targets_flat(is_vector, values)
        slot_values = [lk.prediction for lk in lookups]
        predicted_all = all(v is not None for v in slot_values)
        correct_all = predicted_all and all(
            v == t for v, t in zip(slot_values, targets)
        )

        for lookup, target in zip(lookups, targets):
            self._train_slot(lookup, target)

        if op == _LOAD and predicted_all:
            self.stats.predictions += 1
            if correct_all:
                self.stats.correct += 1

        itype = _itype_flat(op, ndests, is_vector)
        acc = self._type_accuracy.setdefault(itype, _TypeAccuracy())
        if predicted_all:
            acc.predictions += 1
            if correct_all:
                acc.correct += 1
            self.slot_predictions += len(lookups)
            self.slot_correct += sum(
                1 for v, t in zip(slot_values, targets) if v == t
            )

        return correct_all

    def _train_slot(self, lookup: _SlotLookup, target: int) -> None:
        cfg = self.config
        if lookup.provider is not None:
            index, tag = lookup.keys[lookup.provider]
            entry = self._tables[lookup.provider][index]
            assert entry is not None and entry.tag == tag
            if entry.value == target:
                if entry.confidence < len(cfg.fpc_vector):
                    if fpc_advance(self._rng, cfg.fpc_vector, entry.confidence):
                        entry.confidence += 1
                return
            if entry.confidence == 0:
                entry.value = target
            else:
                entry.confidence = 0
            self._allocate(lookup, target)
            return
        self._allocate(lookup, target)

    def _allocate(self, lookup: _SlotLookup, target: int) -> None:
        """Allocate in a longer-history table whose victim is unconfident."""
        start = 0 if lookup.provider is None else lookup.provider + 1
        for table in range(start, len(self.config.history_lengths)):
            index, tag = lookup.keys[table]
            entry = self._tables[table][index]
            if entry is None or entry.confidence == 0:
                self._tables[table][index] = _VtageEntry(tag=tag, value=target)
                return

    # -- accounting ---------------------------------------------------------

    def storage_bits(self) -> int:
        """Table 4: 3 x 256 x 83 = 62.3k bits."""
        cfg = self.config
        entry_bits = cfg.tag_bits + 64 + 3
        return len(cfg.history_lengths) * cfg.table_entries * entry_bits

    def type_accuracy_report(self) -> dict[str, float]:
        """Observed per-type accuracy (drives the dynamic filter)."""
        return {t: a.accuracy for t, a in self._type_accuracy.items() if a.predictions}
