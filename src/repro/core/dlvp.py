"""The DLVP engine: address-predict at fetch, probe, value-predict,
train at execute (Section 3.2.2, Figure 3).

The engine is deliberately decoupled from the timing model: the
pipeline decides *when* things happen (fetch cycle, probe cycle,
execute cycle) and the engine decides *what* happens (predictions,
probes, training, LSCD filtering), so the same engine drives both the
full pipeline simulations and standalone analyses.

Probe semantics: the probe reads the *committed* memory image — the
simulator applies stores to the image only when they commit, so an
in-flight store is invisible to the probe exactly as it is invisible to
the real L1 data array.  A correctly predicted address can therefore
still yield a wrong value; that outcome trains the LSCD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import OpClass, fetch_group_address
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors.base import AddressPrediction
from repro.predictors.cap import CapPredictor
from repro.predictors.pap import PapPredictor, _SIZE_FROM_CODE
from repro.core.config import DlvpConfig
from repro.core.lscd import LoadStoreConflictDetector
from repro.core.paq import PaqEntry, PredictedAddressQueue

_PROBE_BYTES = 32      # captures LDM footprints up to 4 x 8B / VLD 2 x 16B
_FGA_MASK = ~(FETCH_GROUP_BYTES - 1)      # fetch_group_address(), inlined
_LOAD_INT = int(OpClass.LOAD)

# Fused-closure handle for an LSCD-blocked load.  Identity-checked by
# the make_flat_execute closure, so one shared tuple serves every
# blocked load (the fused twin of DlvpFetchHandle.lscd_blocked).  The -1
# fields keep it distinct from every real handle: CPython merges equal
# constant tuples across a module, so a (0, 0, None) literal elsewhere
# would BE this object and turn ordinary unpredicted loads into blocked
# ones.
_FLAT_BLOCKED = (-1, -1, None)


@dataclass
class DlvpStats:
    """Everything the evaluation reads off a DLVP run."""

    loads_seen: int = 0
    lscd_blocked: int = 0
    address_predictions: int = 0
    address_correct: int = 0
    value_predictions: int = 0
    value_correct: int = 0
    probes: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    probes_way_predicted: int = 0    # probes that read a single predicted way
    way_mispredictions: int = 0
    prefetches: int = 0
    inflight_conflicts: int = 0      # addr right, value wrong -> LSCD insert
    paq_flushed: int = 0             # PAQ entries cleared by pipeline flushes

    @property
    def coverage(self) -> float:
        """Value-prediction coverage (Figure 6b's definition)."""
        return self.value_predictions / self.loads_seen if self.loads_seen else 0.0

    @property
    def address_accuracy(self) -> float:
        if not self.address_predictions:
            return 1.0
        return self.address_correct / self.address_predictions

    @property
    def value_accuracy(self) -> float:
        if not self.value_predictions:
            return 1.0
        return self.value_correct / self.value_predictions

    @property
    def prefetch_fraction(self) -> float:
        """Fraction of loads for which DLVP generated a prefetch (Fig 5)."""
        return self.prefetches / self.loads_seen if self.loads_seen else 0.0


class DlvpFetchHandle:
    """Per-load state carried from fetch to execute.

    A ``__slots__`` plain class, not a dataclass: one is allocated per
    load that reaches :meth:`DlvpEngine.on_load_fetch`.
    """

    __slots__ = (
        "load_pc", "apt_index", "apt_tag", "prediction", "lscd_blocked",
        "probed", "probe_hit", "raw_probe_value", "dropped",
    )

    def __init__(
        self,
        load_pc: int,
        apt_index: int = 0,
        apt_tag: int = 0,
        prediction: AddressPrediction | None = None,
        lscd_blocked: bool = False,
        probed: bool = False,
        probe_hit: bool = False,
        raw_probe_value: int | None = None,
        dropped: bool = False,
    ) -> None:
        self.load_pc = load_pc
        self.apt_index = apt_index
        self.apt_tag = apt_tag
        self.prediction = prediction
        self.lscd_blocked = lscd_blocked
        self.probed = probed
        self.probe_hit = probe_hit
        self.raw_probe_value = raw_probe_value     # _PROBE_BYTES bytes at predicted addr
        self.dropped = dropped


class DlvpOutcome:
    """What the pipeline needs to know after a load executes."""

    __slots__ = ("value_predicted", "value_correct", "address_predicted", "address_correct")

    def __init__(
        self,
        value_predicted: bool,
        value_correct: bool,
        address_predicted: bool,
        address_correct: bool,
    ) -> None:
        self.value_predicted = value_predicted
        self.value_correct = value_correct
        self.address_predicted = address_predicted
        self.address_correct = address_correct


class DlvpEngine:
    """DLVP with a pluggable address predictor (PAP, or CAP for the
    paper's "CAP" value-prediction comparison point)."""

    def __init__(
        self,
        config: DlvpConfig | None = None,
        hierarchy: MemoryHierarchy | None = None,
        image: MemoryImage | None = None,
        address_predictor: PapPredictor | CapPredictor | None = None,
    ) -> None:
        self.config = config if config is not None else DlvpConfig()
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        # NB: ``image or MemoryImage()`` would be wrong — an empty image
        # is falsy (it has __len__) and must still be shared by reference.
        self.image = image if image is not None else MemoryImage()
        self.predictor = (
            address_predictor
            if address_predictor is not None
            else PapPredictor(self.config.pap)
        )
        self.paq = PredictedAddressQueue(
            entries=self.config.paq_entries, drop_cycles=self.config.paq_drop_cycles
        )
        # lscd_entries == 0 disables the filter entirely (ablation).
        self._lscd_enabled = self.config.lscd_entries > 0
        self.lscd = LoadStoreConflictDetector(max(1, self.config.lscd_entries))
        self.stats = DlvpStats()
        self._tracer = None
        # Resolved once: the isinstance check sat on the per-load path.
        self._is_pap = isinstance(self.predictor, PapPredictor)
        # Fetch-side hot-path aliases captured by make_flat_fetch().
        self._way_pred_enabled = self.config.way_prediction
        self._prefetch_on_miss = self.config.prefetch_on_miss
        self._lscd_pcs = self.lscd._pcs
        if self._is_pap:
            p = self.predictor
            self._path_push = p.history._history.push
            # APT internals for the inlined key/predict in
            # make_flat_fetch (created once, mutated in place).
            self._apt_idx_fold = p._idx_fold
            self._apt_tag_fold = p._tag_fold
            self._apt_index_bits = p._index_bits
            self._apt_index_mask = p._index_mask
            self._apt_tag_mask = p._tag_mask
            self._apt_tag_shift = p._tag_shift
            self._apt_entries = p._entries
            self._apt_conf_max = p._conf_max
            self._apt_use_way = p._use_way
        else:
            self._path_push = None
        # Optional per-run batched APT keys (fused closures only); see
        # bind_key_batch().
        self._kb = None

    def bind_key_batch(self, batch) -> None:
        """Attach (or detach, with None) a per-run APT key batch.

        ``batch`` is a :class:`repro.pipeline.batch.PapKeyBatch` built
        over the exact trace this engine is about to consume.  With a
        batch bound, the next :meth:`make_flat_fetch` closure reads
        precomputed (index, tag) keys by load ordinal instead of hashing
        the live folded history — and therefore skips the live history
        pushes entirely; the batch already accounts for every dynamic
        load's path bit, and nothing else reads the load-path history at
        run time.  Blocked and beyond-slot-limit loads advance the
        cursor without reading keys.
        """
        self._kb = batch

    def attach_tracer(self, tracer) -> None:
        """Opt into per-event instrumentation (see :mod:`repro.observe`).

        Traced runs drive the reference methods (:meth:`on_load_fetch`,
        :meth:`probe`, :meth:`predicted_values`, :meth:`on_load_execute`)
        through ``DlvpScheme``'s class-level ``flat_fetch``/
        ``flat_execute``, so every component hook fires; untraced runs
        use the fused closures, which carry no hook sites at all.
        """
        self._tracer = tracer
        self.paq.attach_tracer(tracer)
        self.lscd.attach_tracer(tracer)

    # -- fetch ----------------------------------------------------------

    def on_load_fetch(self, pc: int, fetch_cycle: int, slot: int) -> DlvpFetchHandle:
        """Address-predict one load in the first fetch stage.

        Args:
            pc: The dynamic load's PC (its address and values are only
                consulted at execute).
            fetch_cycle: Cycle the fetch group entered the pipeline.
            slot: Which predicted load of the fetch group this is (0 or
                1); PAP keys the APT with FGA + slot, the paper's
                "fetch group PC and fetch group PC plus one".
        """
        predictor = self.predictor
        is_pap = self._is_pap
        handle = DlvpFetchHandle(pc)

        if self._lscd_enabled and self.lscd.blocks(pc):
            handle.lscd_blocked = True
            if is_pap:
                predictor.history.push_load(pc)
            return handle

        if is_pap:
            # "Fetch group PC and fetch group PC plus one" (Section
            # 3.1.1): the slot number must land in bits the key hash
            # actually uses, so it is placed at the instruction-index
            # granularity (bit 2).
            key_pc = fetch_group_address(pc) | (slot << 2)
            index, tag = predictor.compute_key(key_pc)
            handle.apt_index, handle.apt_tag = index, tag
            prediction = handle.prediction = predictor.predict(index, tag)
            predictor.history.push_load(pc)
        else:
            prediction = handle.prediction = predictor.predict_pc(pc)

        if prediction is not None:
            accepted = self.paq.push(
                PaqEntry(prediction.addr, prediction.size, prediction.way, fetch_cycle)
            )
            if not accepted:
                handle.prediction = None       # PAQ full: no value prediction
        return handle

    def on_load_fetch_unpredicted(self, pc: int) -> None:
        """A load beyond the per-group prediction limit (Section 3.1.1).

        Fewer than 2% of fetch groups carry more than two loads; the
        extras still walk the load path (history update) and count
        toward coverage denominators, but are neither predicted nor
        trained.
        """
        self.stats.loads_seen += 1
        if self._is_pap:
            self.predictor.history.push_load(pc)

    # -- probe ------------------------------------------------------------

    def probe(self, handle: DlvpFetchHandle, probe_cycle: int) -> None:
        """Speculatively probe the L1 with the queued predicted address.

        Fills ``handle.raw_probe_value`` on an L1 hit; launches a
        prefetch on a miss when enabled.  Way prediction: with a stale
        or absent way, the one-way probe misses even though the block is
        resident (counted, and the paper reports it almost never
        happens).
        """
        if handle.prediction is None or handle.lscd_blocked:
            return
        entry = self.paq.service(probe_cycle)
        if entry is None:
            handle.dropped = True
            handle.prediction = None
            return
        handle.probed = True
        stats = self.stats
        stats.probes += 1
        way_predicted = self.config.way_prediction and entry.way is not None
        if way_predicted:
            # A one-way probe: reads a single predicted data way instead
            # of the full set (the paper's ~1/4-energy probe).
            stats.probes_way_predicted += 1
        hit, actual_way = self.hierarchy.probe_l1(entry.addr)
        if hit and way_predicted and entry.way != actual_way:
            stats.way_mispredictions += 1
            hit = False
        if hit:
            stats.probe_hits += 1
            handle.probe_hit = True
            handle.raw_probe_value = self.image.read(entry.addr, _PROBE_BYTES)
        else:
            stats.probe_misses += 1
            if self.config.prefetch_on_miss:
                self.hierarchy.prefetch_fill(entry.addr)
                stats.prefetches += 1
        if self._tracer is not None:
            self._tracer.on_probe(
                probe_cycle,
                handle.load_pc,
                entry.addr,
                hit,
                way_predicted,
                way_predicted and not hit and actual_way is not None,
            )

    # -- fused fast path (untraced runs) ---------------------------------

    def make_flat_fetch(self):
        """Build the fused per-load fetch closure for the simulate() loop.

        ``DlvpScheme.flat_prepare`` installs it as the scheme's
        ``flat_fetch`` (the scheme protocol's signature and return
        contract): the class-level reference ``flat_fetch``,
        :meth:`on_load_fetch`, :meth:`probe`, :meth:`predicted_values`,
        the PAQ push/drain and ``hierarchy.probe_l1`` collapsed into a
        single call with every hot attribute captured as a closure cell
        — per-load attribute chasing was the dominant scheme-side cost.
        Must be rebuilt per run (``flat_prepare``) because the closure
        owns the batched-key cursor.  Outcome equivalence with the
        layered methods is pinned by the golden suite and the
        traced-run bit-identity test.
        """
        lscd_enabled = self._lscd_enabled
        lscd_pcs = self._lscd_pcs
        lscd = self.lscd
        stats = self.stats
        is_pap = self._is_pap
        path_push = self._path_push
        kb = self._kb
        kb_pos = 0
        kb_end = 0
        kb_start = 0
        kb_idx0: list = []
        kb_tag0: list = []
        kb_idx1: list = []
        kb_tag1: list = []
        if is_pap:
            apt_idx_fold = self._apt_idx_fold
            apt_tag_fold = self._apt_tag_fold
            index_bits = self._apt_index_bits
            index_bits2 = 2 * self._apt_index_bits
            index_mask = self._apt_index_mask
            tag_mask = self._apt_tag_mask
            tag_shift = self._apt_tag_shift
            apt_entries = self._apt_entries
            conf_max = self._apt_conf_max
            use_way = self._apt_use_way
            predict_pc = None
        else:
            predict_pc = self.predictor.predict_pc
        paq = self.paq
        queue = paq._queue
        paq_capacity = paq.capacity
        drop_cycles = paq.drop_cycles
        way_pred_enabled = self._way_pred_enabled
        prefetch_on_miss = self._prefetch_on_miss
        hierarchy = self.hierarchy
        tlb_shift = hierarchy._tlb_shift
        tlb_mask = hierarchy._tlb_mask
        tlb_where = hierarchy._tlb_where
        tlb_lru = hierarchy._tlb_lru
        tlb_stats = hierarchy._tlb_stats
        tlb_fill = hierarchy._tlb_array.fill
        l1_shift = hierarchy._l1_shift
        l1_where = hierarchy._l1_where
        l1_stats = hierarchy._l1_stats
        prefetch_fill = hierarchy.prefetch_fill
        image_read = self.image.read
        size_from_code = _SIZE_FROM_CODE

        def flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        ):
            nonlocal kb_pos, kb_start, kb_end, kb_idx0, kb_tag0, kb_idx1, kb_tag1
            if op != _LOAD_INT:
                return None
            if load_slot is None:
                # on_load_fetch_unpredicted: count, advance the history.
                stats.loads_seen += 1
                if is_pap:
                    if kb is not None:
                        kb_pos += 1
                    else:
                        path_push((pc >> 2) & 1)
                return None
            if lscd_enabled and pc in lscd_pcs:       # lscd.blocks(), inlined
                lscd.filtered += 1
                if is_pap:
                    if kb is not None:
                        kb_pos += 1
                    else:
                        path_push((pc >> 2) & 1)
                return (None, False, _FLAT_BLOCKED, ndests)

            if is_pap:
                if kb is not None:
                    pos = kb_pos
                    kb_pos = pos + 1
                    if pos >= kb_end:
                        while pos >= kb_end:
                            kb_start, kb_idx0, kb_tag0, kb_idx1, kb_tag1 = (
                                kb.next_chunk()
                            )
                            kb_end = kb_start + len(kb_idx0)
                    j = pos - kb_start
                    if load_slot:
                        index = kb_idx1[j]
                        tag = kb_tag1[j]
                    else:
                        index = kb_idx0[j]
                        tag = kb_tag0[j]
                else:
                    # PapPredictor.compute_key, inlined (live folds).
                    key_pc = (pc & _FGA_MASK) | (load_slot << 2)
                    word = key_pc >> 2
                    index = (
                        word ^ (word >> index_bits) ^ (word >> index_bits2)
                        ^ apt_idx_fold.value
                    ) & index_mask
                    tag = (
                        word ^ (key_pc >> tag_shift) ^ apt_tag_fold.value
                    ) & tag_mask
                    path_push((pc >> 2) & 1)
                entry = apt_entries[index]
                if entry is None or entry.tag != tag or entry.confidence < conf_max:
                    return (None, False, (index, tag, None), ndests)
                pred_addr = entry.addr
                pred_way = entry.way if use_way else None
            else:
                index = tag = 0
                prediction = predict_pc(pc)
                if prediction is None:
                    return (None, False, (0, 0, None), ndests)
                pred_addr = prediction.addr
                pred_way = prediction.way

            # PAQ push + drain.  The queue is almost always empty, in
            # which case the pushed entry is immediately drained again
            # (bypass) — no PaqEntry, no deque traffic.
            if not queue and paq_capacity:
                paq.enqueued += 1
                if probe_cycle - fetch_cycle > drop_cycles:
                    paq.dropped += 1
                    return (None, False, (index, tag, None), ndests)
                paq.serviced += 1
                paq.bypassed += 1
                entry_addr = pred_addr
                entry_way = pred_way
            else:
                if len(queue) >= paq_capacity:
                    paq.rejected_full += 1
                    return (None, False, (index, tag, None), ndests)
                pred_size = (
                    size_from_code[entry.size_code] if is_pap else prediction.size
                )
                queue.append(
                    PaqEntry(pred_addr, pred_size, pred_way, fetch_cycle,
                             bypass=not queue)
                )
                paq.enqueued += 1
                drained = None
                while queue:
                    candidate = queue.popleft()
                    if probe_cycle - candidate.allocated_cycle > drop_cycles:
                        paq.dropped += 1
                        continue
                    paq.serviced += 1
                    if candidate.bypass:
                        paq.bypassed += 1
                    drained = candidate
                    break
                if drained is None:
                    return (None, False, (index, tag, None), ndests)
                entry_addr = drained.addr
                entry_way = drained.way

            handle = (index, tag, pred_addr)
            stats.probes += 1
            way_predicted = way_pred_enabled and entry_way is not None
            if way_predicted:
                stats.probes_way_predicted += 1
            # hierarchy.probe_l1, inlined: TLB translate, L1 residency.
            block = entry_addr >> tlb_shift
            way = tlb_where.get(block)
            if way is not None:
                lru = tlb_lru[block & tlb_mask]
                if lru[0] != way:
                    lru.remove(way)
                    lru.insert(0, way)
                tlb_stats.hits += 1
            else:
                tlb_stats.misses += 1
                tlb_fill(entry_addr)
            block = entry_addr >> l1_shift
            actual_way = l1_where.get(block)
            if actual_way is not None:
                l1_stats.probe_hits += 1
                hit = True
                if way_predicted and entry_way != actual_way:
                    stats.way_mispredictions += 1
                    hit = False
            else:
                l1_stats.probe_misses += 1
                hit = False
            if hit:
                stats.probe_hits += 1
                mask = (1 << (8 * mem_size)) - 1
                if ndests == 1:
                    if mem_size > _PROBE_BYTES:
                        return (None, False, handle, ndests)
                    if mem_size and not mem_size & 3:
                        v = image_read(entry_addr, mem_size)
                    else:
                        v = image_read(entry_addr, _PROBE_BYTES) & mask
                    # The reference flat_fetch's masked compare, flattened.
                    if len(values) == 1:
                        correct = v == (values[0] & mask)
                    else:
                        correct = (v,) == tuple(x & mask for x in values)
                    return ((v,), correct, handle, ndests)
                if mem_size * (ndests or 1) > _PROBE_BYTES:
                    return (None, False, handle, ndests)
                raw = image_read(entry_addr, _PROBE_BYTES)
                pred = tuple(
                    (raw >> (8 * mem_size * k)) & mask for k in range(ndests)
                )
                correct = pred == tuple(x & mask for x in values)
                return (pred, correct, handle, ndests)
            stats.probe_misses += 1
            if prefetch_on_miss:
                prefetch_fill(entry_addr)
                stats.prefetches += 1
            return (None, False, handle, ndests)

        return flat_fetch

    def make_flat_execute(self):
        """Fused execute-side twin of :meth:`make_flat_fetch`.

        Installed as ``DlvpScheme.flat_execute``: the class-level
        reference ``flat_execute`` and :meth:`on_load_execute` as one
        closure.
        """
        stats = self.stats
        is_pap = self._is_pap
        train = self.predictor.train
        lscd_enabled = self._lscd_enabled
        lscd_insert = self.lscd.insert

        def flat_execute(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            handle, predicted, way, value_predicted,
        ):
            stats.loads_seen += 1
            if handle is _FLAT_BLOCKED:
                stats.lscd_blocked += 1
                return False, False

            pred_addr = handle[2]
            if pred_addr is not None:
                addr_correct = pred_addr == mem_addr
                stats.address_predictions += 1
                if addr_correct:
                    stats.address_correct += 1
            else:
                addr_correct = False

            if is_pap:
                train(handle[0], handle[1], mem_addr, mem_size, way)
            else:
                train(pc, mem_addr)

            value_correct = False
            if value_predicted:
                mask = (1 << (8 * mem_size)) - 1
                if len(values) == 1:
                    value_correct = predicted == (values[0] & mask,)
                else:
                    value_correct = predicted == tuple(v & mask for v in values)
                stats.value_predictions += 1
                if value_correct:
                    stats.value_correct += 1
                elif addr_correct:
                    stats.inflight_conflicts += 1
                    if lscd_enabled:
                        lscd_insert(pc)

            return value_predicted, value_correct

        return flat_execute

    # -- value extraction ---------------------------------------------------

    def predicted_values(
        self, handle: DlvpFetchHandle, size: int, ndests: int
    ) -> tuple[int, ...] | None:
        """Assemble per-destination values from the probed bytes.

        ``size`` is the load's access width in bytes and ``ndests`` its
        destination-register count.  Returns None when no usable probe
        data exists or the load's footprint exceeds what the probe
        captured.
        """
        raw = handle.raw_probe_value
        if raw is None:
            return None
        if ndests == 1:
            # Single-destination fast path (the overwhelming majority).
            if size > _PROBE_BYTES:
                return None
            return (raw & ((1 << (8 * size)) - 1),)
        if size * max(1, ndests) > _PROBE_BYTES:
            return None
        mask = (1 << (8 * size)) - 1
        return tuple((raw >> (8 * size * k)) & mask for k in range(ndests))

    # -- execute --------------------------------------------------------

    def on_load_execute(
        self,
        handle: DlvpFetchHandle,
        pc: int,
        mem_addr: int,
        mem_size: int,
        values: tuple[int, ...],
        actual_way: int | None,
        value_predicted: bool,
        predicted: tuple[int, ...] | None,
    ) -> DlvpOutcome:
        """Validate the prediction and train the predictor (Section 3.1.2).

        Args:
            handle: The fetch-time handle.
            pc: The executing load's PC.
            mem_addr: Its computed address.
            mem_size: Its access width in bytes.
            values: Its architectural (loaded) values.
            actual_way: L1 way the block occupies after the demand
                access (trains way prediction).
            value_predicted: Whether the pipeline actually consumed a
                value prediction (it may have declined, e.g. PVT full).
            predicted: The values that were predicted, if any.
        """
        stats = self.stats
        stats.loads_seen += 1

        if handle.lscd_blocked:
            stats.lscd_blocked += 1
            return DlvpOutcome(False, False, False, False)

        prediction = handle.prediction
        addr_predicted = prediction is not None
        addr_correct = addr_predicted and prediction.addr == mem_addr
        if addr_predicted:
            stats.address_predictions += 1
            if addr_correct:
                stats.address_correct += 1

        # Train the address predictor with the executed load.
        if self._is_pap:
            train_outcome = self.predictor.train(
                handle.apt_index,
                handle.apt_tag,
                mem_addr,
                mem_size,
                actual_way,
            )
            if self._tracer is not None:
                self._tracer.on_apt_train(
                    pc, handle.apt_index, handle.apt_tag, train_outcome
                )
        else:
            self.predictor.train(pc, mem_addr)

        value_correct = False
        if value_predicted:
            assert predicted is not None
            mask = (1 << (8 * mem_size)) - 1
            masked_actual = tuple(v & mask for v in values)
            value_correct = predicted == masked_actual
            stats.value_predictions += 1
            if value_correct:
                stats.value_correct += 1
            elif addr_correct:
                # An in-flight store changed the location between the
                # probe and execution: exactly what LSCD filters.
                stats.inflight_conflicts += 1
                if self._lscd_enabled:
                    self.lscd.insert(pc)

        return DlvpOutcome(value_predicted, value_correct, addr_predicted, addr_correct)
