"""The trace-driven out-of-order core model.

One pass over the trace assigns each dynamic instruction a fetch,
issue, completion and commit cycle under the baseline's resource
constraints (Table 4).  Wrong-path work is not simulated; control and
value mispredictions cost their redirect/refill latency, the standard
trace-driven approximation.

What the model captures (because the paper's results hinge on it):

* load-use dependence chains — consumers wait on ``reg_ready`` unless a
  value prediction made the destination available at rename;
* flush costs — branch, memory-order and value mispredictions push the
  fetch stream past the resolving cycle plus the front-end depth;
* early branch resolution — a branch fed by a value-predicted load
  issues earlier, shrinking its own misprediction penalty (the paper's
  perlbmk effect);
* in-flight-store visibility — stores update the committed memory image
  only at commit, so DLVP probes can return stale values for racing
  loads (the LSCD's reason to exist);
* lane/width/window contention — 2 LS + 6 generic lanes, 4-wide fetch,
  8-wide commit, ROB/LDQ/STQ occupancy.

Performance: the per-instruction loop is the whole simulator's hot
path, so it trades a little readability for throughput — the trace is
read as struct-of-arrays columns (a :class:`~repro.trace.Trace` is
converted once on entry), method and attribute lookups are hoisted
into locals, the per-word store tracking
dicts are pruned as stores retire (they are otherwise O(trace) — a
memory leak and a dict-miss slowdown on long traces), and issue-port
busy maps are pruned below the monotonically advancing fetch cycle.
Every call builds a fresh substrate, so that build is near free: cache
sets come into being on their first fill (residency is one
``block -> way`` dict per cache, probed inline below) and TAGE/ITTAGE
tables are flat int lists, not per-entry objects.  A one-instruction
run costs ~0.2 ms, and the cyclic GC has few long-lived containers to
re-scan while the loop allocates.
All of it is outcome-preserving; the golden equivalence test pins every
suite kernel's ``SimResult`` to the seed model bit for bit.
"""

from __future__ import annotations

from repro.branch import BranchUnit
from repro.isa import (
    EXECUTION_LATENCY,
    OpClass,
    is_branch_op,
)
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.mdp import StoreSetsPredictor
from repro.memory import HierarchyConfig, MemoryHierarchy, MemoryImage
from repro.memory.prefetcher import _StrideEntry as _PfStrideEntry
from repro.pipeline import batch as _key_batch
from repro.pipeline.config import CoreConfig
from repro.pipeline.recovery import RecoveryMode
from repro.pipeline.schemes import Scheme
from repro.pipeline.stats import EnergyEvents, FlushStats, SimResult
from repro.trace import ColumnarTrace, Trace
from repro.trace.columnar import (
    F_TAKEN,
    F_TAKEN_KNOWN,
    F_TARGET,
    OPCLASS_BY_VALUE,
)

_LS_OPS = frozenset({OpClass.LOAD, OpClass.STORE, OpClass.ATOMIC})

# Prune the issue-port busy maps once they exceed this many distinct
# cycles; keeps each dict O(1)-ish amortized instead of O(cycles).
_PORT_PRUNE_THRESHOLD = 4096


class _IssuePorts:
    """Out-of-order issue bandwidth for one lane group.

    Tracks how many operations issued in each cycle; an operation ready
    at cycle ``r`` issues in the earliest cycle >= r with a free slot.
    Unlike a per-lane "next free" reservation, this lets ready younger
    ops backfill around older stalled ones — i.e., actual out-of-order
    scheduling under a lane-count constraint.
    """

    __slots__ = ("width", "_busy")

    def __init__(self, width: int) -> None:
        self.width = width
        self._busy: dict[int, int] = {}

    def issue_at(self, ready: int) -> int:
        busy = self._busy
        width = self.width
        cycle = ready
        count = busy.get(cycle, 0)
        while count >= width:
            cycle += 1
            count = busy.get(cycle, 0)
        busy[cycle] = count + 1
        return cycle

    def prune_below(self, cycle: int) -> None:
        """Drop busy slots for cycles that can no longer be probed.

        Safe whenever ``cycle`` is a lower bound on every future
        ``ready`` argument — the simulator passes the monotonically
        non-decreasing fetch cycle, and ready >= fetch + fetch_to_execute.
        """
        busy = self._busy
        if len(busy) > _PORT_PRUNE_THRESHOLD:
            for stale in [c for c in busy if c < cycle]:
                del busy[stale]


def simulate(
    trace: Trace | ColumnarTrace,
    scheme: Scheme | None = None,
    core_config: CoreConfig | None = None,
    hierarchy_config: HierarchyConfig | None = None,
    recovery: RecoveryMode = RecoveryMode.FLUSH,
    tracer: "object | None" = None,
) -> SimResult:
    """Run one trace through the core model.

    The loop reads the trace as struct-of-arrays: a :class:`Trace` is
    converted once here with :meth:`ColumnarTrace.from_trace`, so
    ``Trace``/``Instruction`` stay the authoring and analysis types
    while every per-instruction attribute read below is a list index
    and every opcode test compares plain integers.  Schemes are driven
    through their one protocol (``flat_fetch``/``flat_execute``, see
    :class:`~repro.pipeline.schemes.Scheme`) with raw column scalars,
    traced or not; ``flat_prepare`` runs once before the loop, after
    any tracer is attached, so a scheme can precompute chunk-level
    batched predictor keys (see :mod:`repro.pipeline.batch`) or pick
    its transport.

    Args:
        trace: The workload trace.
        scheme: Value-prediction scheme, or None for the baseline.
        core_config: Core parameters (Table 4 defaults).
        hierarchy_config: Memory-hierarchy parameters.
        recovery: Value-misprediction recovery model (Figure 10).
        tracer: A :class:`repro.observe.Tracer` (or anything matching
            its hook protocol) for opt-in instrumentation, or None (the
            default).  The zero-overhead contract: with ``tracer=None``
            every hook site below is a single pre-hoisted ``traced``
            boolean test, so outcomes and throughput are those of an
            untraced build; with a tracer attached, demand accesses go
            through :meth:`MemoryHierarchy.access`, and DLVP keeps its
            reference methods in place of the fused closures, so the
            component hooks fire, at identical simulated outcomes.

    Returns:
        A :class:`SimResult`; compare runs of the same trace with
        :meth:`SimResult.speedup_over`.
    """
    if isinstance(trace, Trace):
        trace = ColumnarTrace.from_trace(trace)
    cfg = core_config or CoreConfig()
    hierarchy = MemoryHierarchy(hierarchy_config)
    image = MemoryImage()
    branch_unit = BranchUnit()
    # TAGE history is trace-determined, so its per-table keys can be
    # precomputed in chunks (no-op without numpy; the live folded
    # registers then run instead, to the same bits).
    tage_batch = _key_batch.tage_key_batch(trace, branch_unit.tage)
    if tage_batch is not None:
        branch_unit.tage.bind_key_batch(tage_batch)
    mdp = StoreSetsPredictor()
    if scheme is not None:
        scheme.bind(hierarchy, image, branch_unit)
    traced = tracer is not None
    if traced:
        hierarchy.attach_tracer(tracer)
        if scheme is not None:
            scheme.attach_tracer(tracer)
        tracer.on_run_start(
            trace.name,
            scheme.name if scheme is not None else "baseline",
            len(trace),
        )

    n = len(trace)
    commit_cycles = [0] * n
    ls_ports = _IssuePorts(cfg.ls_lanes)
    gen_ports = _IssuePorts(cfg.generic_lanes)
    # word -> (store seq, store done cycle, store pc): newest store per
    # word.  Entries are removed as their store retires (see the commit
    # loop below), bounding both dicts by in-flight work, not trace
    # length.
    word_store: dict[int, tuple[int, int, int]] = {}
    store_done: dict[int, int] = {}

    fetch_cycle = 0
    pending_redirect = 0
    force_new_group = True
    slots_used = 0
    current_group = -1
    prev_pc = -5                       # sentinel: never matches prev_pc + 4
    loads_in_group = 0

    commit_ptr = 0
    last_commit_cycle = 0
    commits_in_cycle = 0
    load_commits: list[int] = []
    store_commits: list[int] = []

    flushes = FlushStats()
    loads = 0

    # ---- hot-loop local aliases (columns + config + substrate) --------
    # Columns are snapshotted into plain lists: indexing an array.array
    # boxes a fresh int every read, while list indexing returns the
    # already-boxed object.  trace.snapshots() converts at C speed once
    # and memoizes on the trace, so a sweep group running several
    # schemes over one trace shares a single conversion.
    (
        pcs,
        ops,
        flags_col,
        mem_addr_col,
        mem_size_col,
        target_col,
        srcs_index,
        srcs_flat,
        dests_index,
        dests_flat,
        values_index,
        values_lo,
        values_hi,
    ) = trace.snapshots()

    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    BRANCH = int(OpClass.BRANCH)
    # Opcode predicates as value-indexed lists: a list index beats a
    # frozenset probe, and op is already a small contiguous int.
    is_ls_op = [op in _LS_OPS for op in OPCLASS_BY_VALUE]
    is_br_op = [is_branch_op(op) for op in OPCLASS_BY_VALUE]
    exec_latency = [EXECUTION_LATENCY[op] for op in OPCLASS_BY_VALUE]
    # Register scoreboard as a flat list: register ids are small dense
    # ints, so list indexing replaces per-operand dict hashing.
    nregs = 1 + max(
        max(srcs_flat, default=-1),
        max(dests_flat, default=-1),
    )
    reg_ready = [0] * nregs
    fga_mask = ~(FETCH_GROUP_BYTES - 1)    # fetch_group_address(), inlined
    fetch_width = cfg.fetch_width
    rob_entries = cfg.rob_entries
    ldq_entries = cfg.ldq_entries
    stq_entries = cfg.stq_entries
    fetch_to_execute = cfg.fetch_to_execute
    rename_depth = cfg.rename_depth
    commit_width = cfg.commit_width
    branch_latency = cfg.branch_resolution_latency
    validation_penalty = cfg.value_validation_penalty
    forward_latency = cfg.store_forward_latency
    # Issue-port state, inlined: the busy dicts and widths are bound
    # locally and the issue_at scan is expanded in place below.
    ls_busy = ls_ports._busy
    ls_busy_get = ls_busy.get
    ls_width = ls_ports.width
    gen_busy = gen_ports._busy
    gen_busy_get = gen_busy.get
    gen_width = gen_ports.width
    # Memory-hierarchy state, inlined: the demand-access TLB/L1 paths
    # are expanded in place in the load/store blocks below (the aliased
    # block -> way and per-set LRU dicts are created once by
    # Cache.__init__ and only mutated in place, so the references stay
    # valid for the whole run).
    demand_accesses = hierarchy.demand_accesses
    l1_latency = hierarchy._l1_latency
    tlb_penalty = hierarchy._tlb_penalty
    tlb_shift = hierarchy._tlb_shift
    tlb_mask = hierarchy._tlb_mask
    tlb_where = hierarchy._tlb_where
    tlb_lru = hierarchy._tlb_lru
    tlb_stats = hierarchy._tlb_stats
    tlb_fill = hierarchy._tlb_array.fill
    l1_shift = hierarchy._l1_shift
    l1_mask = hierarchy._l1_mask
    l1_where = hierarchy._l1_where
    l1_lru = hierarchy._l1_lru
    l1_stats = hierarchy._l1_stats
    l1_fill = hierarchy.l1d.fill
    fill_from_below = hierarchy._fill_from_below
    prefetcher = hierarchy.prefetcher
    prefetch_fill = hierarchy.prefetch_fill
    hierarchy_access = hierarchy.access
    # Stride-prefetcher observe(), inlined at the load site below:
    # table and thresholds aliased, entry construction via the class.
    pf_table = prefetcher._table if prefetcher is not None else None
    if prefetcher is not None:
        pf_entries = prefetcher.entries
        pf_threshold = prefetcher.threshold
        pf_degree = prefetcher.degree
        pf_entry_cls = _PfStrideEntry
    # Store-sets load_dependence(), inlined at the load site below (the
    # event counter and clears are shared with the store_* methods).
    mdp_ssit = mdp._ssit
    mdp_lfst = mdp._lfst
    mdp_ssit_entries = mdp.config.ssit_entries
    mdp_lfst_entries = mdp.config.lfst_entries
    mdp_clear_interval = mdp.config.clear_interval
    image_write = image.write
    branch_resolve_fields = branch_unit.resolve_fields
    branch_resolve_conditional = branch_unit.make_resolve_conditional()
    mdp_store_fetched = mdp.store_fetched
    mdp_store_executed = mdp.store_executed
    mdp_report_violation = mdp.report_violation
    word_store_get = word_store.get
    oracle_replay = recovery == RecoveryMode.ORACLE_REPLAY
    fetch_all_ops = scheme is not None and not scheme.fetch_loads_only
    if scheme is not None:
        # Runs after attach_tracer: a scheme may pick its transport by
        # whether it is traced (DLVP installs fused closures only when
        # it is not).
        scheme.flat_prepare(trace)
        scheme_flat_fetch = scheme.flat_fetch
        scheme_flat_execute = scheme.flat_execute
        vpe_stats = scheme.vpe.stats
        # vpe.admit and vpe.record_validation, split into their halves
        # (allocate + the stat increments) so the common case is one
        # call plus inline counter updates, not three calls.
        pvt_try_allocate = scheme.vpe.pvt.try_allocate
        pvt_note_read = scheme.vpe.pvt.note_consumer_read

    for i in range(n):
        op = ops[i]
        pc = pcs[i]

        # ---- fetch grouping --------------------------------------------
        if (
            force_new_group
            or slots_used >= fetch_width
            or pc != prev_pc + 4
            or (pc & fga_mask) != current_group
        ):
            fetch_cycle = max(fetch_cycle + 1, pending_redirect)
            slots_used = 0
            loads_in_group = 0
            current_group = pc & fga_mask
            force_new_group = False
        slots_used += 1
        prev_pc = pc

        # ---- structural stalls (ROB / LDQ / STQ) ------------------------
        if i >= rob_entries:
            stall = commit_cycles[i - rob_entries]
            if stall > fetch_cycle:
                fetch_cycle = stall
        if op == LOAD:
            if len(load_commits) >= ldq_entries:
                stall = load_commits[-ldq_entries]
                if stall > fetch_cycle:
                    fetch_cycle = stall
        elif op == STORE:
            if len(store_commits) >= stq_entries:
                stall = store_commits[-stq_entries]
                if stall > fetch_cycle:
                    fetch_cycle = stall

        # ---- retire committed stores into the memory image --------------
        # Retirement also prunes the in-flight store tracking: a store
        # with commit_cycle <= fetch_cycle can never again satisfy the
        # "in flight at issue" checks below (every future issue cycle is
        # > the monotone fetch_cycle), so dropping it is outcome-neutral.
        while commit_ptr < i and commit_cycles[commit_ptr] <= fetch_cycle:
            if ops[commit_ptr] == STORE:
                caddr = mem_addr_col[commit_ptr]
                csize = mem_size_col[commit_ptr]
                k = values_index[commit_ptr]
                vhi = values_hi[k]
                cval = (vhi << 64) | values_lo[k] if vhi else values_lo[k]
                image_write(caddr, csize, cval)
                store_done.pop(commit_ptr, None)
                # _touched_words(), inlined (store sizes are >= 4).
                first = caddr >> 2
                last = (caddr + csize - 1) >> 2
                for word in range(first, last + 1):
                    entry = word_store_get(word)
                    if entry is not None and entry[0] == commit_ptr:
                        del word_store[word]
            commit_ptr += 1

        # ---- scheme fetch side ------------------------------------------
        load_slot = None
        if op == LOAD:
            loads += 1
            if loads_in_group < 2:
                load_slot = loads_in_group
            loads_in_group += 1
        fp = None
        if scheme is not None and (op == LOAD or fetch_all_ops):
            # Probe on the first load-store bubble after the predicted
            # address reaches the back-end (1 cycle predict + 1 cycle
            # transport).  Lane *reservations* are for future issue
            # cycles, so a bubble is essentially always available now;
            # the paper measures <0.1% of PAQ entries aging out.
            ndests_i = dests_index[i + 1] - dests_index[i]
            vs = values_index[i]
            ve = values_index[i + 1]
            if ve - vs == 1:
                hv = values_hi[vs]
                vals = ((hv << 64) | values_lo[vs] if hv else values_lo[vs],)
            elif ve == vs:
                vals = ()
            else:
                vals = tuple(
                    (values_hi[k] << 64) | values_lo[k]
                    if values_hi[k] else values_lo[k]
                    for k in range(vs, ve)
                )
            fp = scheme_flat_fetch(
                pc, op, mem_addr_col[i], mem_size_col[i], flags_col[i],
                ndests_i, vals, fetch_cycle, load_slot, fetch_cycle + 2,
            )
            if traced:
                tracer.on_fetch_predict(
                    fetch_cycle, pc, load_slot,
                    fp is not None and fp[0] is not None,
                )

        # ---- issue timing -----------------------------------------------
        src_ready = 0
        for k in range(srcs_index[i], srcs_index[i + 1]):
            ready = reg_ready[srcs_flat[k]]
            if ready > src_ready:
                src_ready = ready
        ready = fetch_cycle + fetch_to_execute
        if src_ready > ready:
            ready = src_ready

        acc_way = None
        if op == LOAD:
            addr = mem_addr_col[i]
            # mdp.load_dependence(pc), inlined (tick, SSIT, then LFST):
            # wait for the predicted store.
            ev = mdp._events + 1
            mdp._events = ev
            if ev % mdp_clear_interval == 0:
                mdp_ssit.clear()
                mdp_lfst.clear()
            dep_seq = None
            store_set = mdp_ssit.get((pc >> 2) % mdp_ssit_entries)
            if store_set is not None:
                dep_entry = mdp_lfst.get(store_set % mdp_lfst_entries)
                if dep_entry is not None:
                    mdp.dependencies_predicted += 1
                    dep_seq = dep_entry[1]
            if dep_seq is not None and dep_seq in store_done:
                if commit_cycles[dep_seq] > ready:
                    dep_done = store_done[dep_seq]
                    if dep_done > ready:
                        ready = dep_done
            issue = ready
            count = ls_busy_get(issue, 0)
            while count >= ls_width:
                issue += 1
                count = ls_busy_get(issue, 0)
            ls_busy[issue] = count + 1
            demand_accesses += 1
            if traced:
                # The reference demand access fires on_demand_access;
                # the local demand_accesses mirror keeps the end-of-run
                # write-back consistent.
                acc = hierarchy_access(pc, addr)
                acc_latency = acc.latency
                acc_way = acc.way
            else:
                # hierarchy.access(), inlined: TLB, then L1, then
                # prefetcher.
                block = addr >> tlb_shift
                way = tlb_where.get(block)
                if way is not None:
                    lru = tlb_lru[block & tlb_mask]
                    if lru[0] != way:
                        lru.remove(way)
                        lru.insert(0, way)
                    tlb_stats.hits += 1
                    acc_latency = l1_latency
                else:
                    tlb_stats.misses += 1
                    tlb_fill(addr)
                    acc_latency = l1_latency + tlb_penalty
                block = addr >> l1_shift
                acc_way = l1_where.get(block)
                if acc_way is not None:
                    lru = l1_lru[block & l1_mask]
                    if lru[0] != acc_way:
                        lru.remove(acc_way)
                        lru.insert(0, acc_way)
                    l1_stats.hits += 1
                else:
                    l1_stats.misses += 1
                    acc_way = l1_fill(addr)
                    acc_latency += fill_from_below(addr)
                # prefetcher.observe(pc, addr), inlined: train the
                # stride entry; issue `degree` prefetches once confident.
                if pf_table is not None:
                    slot = pc % pf_entries
                    pf = pf_table.get(slot)
                    if pf is None:
                        pf_table[slot] = pf_entry_cls(addr)
                    else:
                        stride = addr - pf.last_addr
                        if stride == pf.stride and stride != 0:
                            if pf.confidence < pf_threshold:
                                pf.confidence += 1
                        else:
                            pf.stride = stride
                            pf.confidence = 0
                        pf.last_addr = addr
                        if stride != 0 and pf.confidence >= pf_threshold:
                            prefetcher.trained += 1
                            for k in range(1, pf_degree + 1):
                                prefetch_fill(addr + stride * k)
                            prefetcher.issued += pf_degree
            # inst.footprint_bytes, inlined (op is LOAD here).
            ndests = dests_index[i + 1] - dests_index[i]
            nbytes = mem_size_col[i] * (ndests or 1)
            first = addr >> 2
            last = (addr + (nbytes if nbytes > 0 else 1) - 1) >> 2
            if first == last:
                newest = word_store_get(first)
            else:
                newest = None
                for word in range(first, last + 1):
                    entry = word_store_get(word)
                    if entry is not None and (newest is None or entry[0] > newest[0]):
                        newest = entry
            if newest is not None and commit_cycles[newest[0]] > issue:
                # In-flight producing store: forward from the STQ.
                if newest[1] > issue and (dep_seq is None or dep_seq < newest[0]):
                    mdp_report_violation(pc, newest[2])
                done = max(issue, newest[1]) + forward_latency
            else:
                # Address generation (1 cycle) then the cache access.
                done = issue + 1 + acc_latency
        elif op == STORE:
            addr = mem_addr_col[i]
            mdp_store_fetched(pc, i)
            demand_accesses += 1
            if traced:
                acc_way = hierarchy_access(pc, addr, is_store=True).way
            else:
                # hierarchy.access(is_store=True), inlined: TLB then L1,
                # no prefetcher training on stores.
                block = addr >> tlb_shift
                way = tlb_where.get(block)
                if way is not None:
                    lru = tlb_lru[block & tlb_mask]
                    if lru[0] != way:
                        lru.remove(way)
                        lru.insert(0, way)
                    tlb_stats.hits += 1
                else:
                    tlb_stats.misses += 1
                    tlb_fill(addr)
                block = addr >> l1_shift
                acc_way = l1_where.get(block)
                if acc_way is not None:
                    lru = l1_lru[block & l1_mask]
                    if lru[0] != acc_way:
                        lru.remove(acc_way)
                        lru.insert(0, acc_way)
                    l1_stats.hits += 1
                else:
                    l1_stats.misses += 1
                    acc_way = l1_fill(addr)
                    fill_from_below(addr)
            issue = ready
            count = ls_busy_get(issue, 0)
            while count >= ls_width:
                issue += 1
                count = ls_busy_get(issue, 0)
            ls_busy[issue] = count + 1
            done = issue + 1
            entry = (i, done, pc)
            nbytes = mem_size_col[i]
            first = addr >> 2
            last = (addr + (nbytes if nbytes > 0 else 1) - 1) >> 2
            if first == last:
                word_store[first] = entry
            else:
                for word in range(first, last + 1):
                    word_store[word] = entry
            store_done[i] = done
            mdp_store_executed(pc)
        elif is_ls_op[op]:
            issue = ready
            count = ls_busy_get(issue, 0)
            while count >= ls_width:
                issue += 1
                count = ls_busy_get(issue, 0)
            ls_busy[issue] = count + 1
            done = issue + exec_latency[op]
        else:
            issue = ready
            count = gen_busy_get(issue, 0)
            while count >= gen_width:
                issue += 1
                count = gen_busy_get(issue, 0)
            gen_busy[issue] = count + 1
            done = issue + exec_latency[op]

        # ---- branches ----------------------------------------------------
        if is_br_op[op]:
            done = issue + branch_latency
            fl = flags_col[i]
            taken = bool(fl & F_TAKEN) if fl & F_TAKEN_KNOWN else None
            if op == BRANCH:
                # Conditionals dominate the control stream: the fused
                # closure collapses the resolve/update/history chain.
                mispredicted = branch_resolve_conditional(pc, taken)
            else:
                target = target_col[i] if fl & F_TARGET else None
                mispredicted = branch_resolve_fields(op, pc, taken, target)
            if mispredicted:
                flushes.branch += 1
                pending_redirect = done + 1
                force_new_group = True
                if scheme is not None:
                    scheme.on_branch_flush()
                if traced:
                    tracer.on_recovery(done, "branch", pc)

        # ---- value prediction resolution ---------------------------------
        value_predicted = False
        if fp is not None:
            fp_values = fp[0]
            if fp_values is not None:
                if oracle_replay and not fp[1]:
                    pass        # oracle replay: treat as never predicted
                elif pvt_try_allocate(fp[3], fetch_cycle, done):
                    value_predicted = True
                else:
                    vpe_stats.pvt_rejections += 1
            value_correct = scheme_flat_execute(
                pc, op, mem_addr_col[i], mem_size_col[i], flags_col[i],
                ndests_i, vals, fp[2], fp_values, acc_way, value_predicted,
            )[1]
            if traced and fp_values is not None:
                tracer.on_vpe_verdict(done, pc, value_predicted, value_correct)
            if value_predicted:
                vpe_stats.value_predictions += 1
                if value_correct:
                    vpe_stats.value_correct += 1
                pvt_note_read(fp[3])
                if value_correct:
                    ready_time = fetch_cycle + rename_depth
                    for k in range(dests_index[i], dests_index[i + 1]):
                        reg_ready[dests_flat[k]] = ready_time
                else:
                    flushes.value += 1
                    pending_redirect = done + 1 + validation_penalty
                    force_new_group = True
                    scheme.on_value_flush()
                    if traced:
                        tracer.on_recovery(done, "value", pc)
                    for k in range(dests_index[i], dests_index[i + 1]):
                        reg_ready[dests_flat[k]] = done
        if not value_predicted:
            for k in range(dests_index[i], dests_index[i + 1]):
                reg_ready[dests_flat[k]] = done

        # ---- in-order commit ---------------------------------------------
        cc = done + 1
        if cc < last_commit_cycle:
            cc = last_commit_cycle
        if cc == last_commit_cycle:
            if commits_in_cycle >= commit_width:
                cc += 1
                commits_in_cycle = 1
            else:
                commits_in_cycle += 1
        else:
            commits_in_cycle = 1
        last_commit_cycle = cc
        commit_cycles[i] = cc
        if traced:
            tracer.on_commit(i, cc, OPCLASS_BY_VALUE[op])
        if op == LOAD:
            load_commits.append(cc)
        elif op == STORE:
            store_commits.append(cc)

        # ---- bounded busy-map pruning ------------------------------------
        if not i & 1023:
            ls_ports.prune_below(fetch_cycle)
            gen_ports.prune_below(fetch_cycle)

    cycles = last_commit_cycle
    hierarchy.demand_accesses = demand_accesses

    result = _assemble_result(
        trace.name, n, cycles, scheme, hierarchy, branch_unit, flushes, loads
    )
    if traced:
        tracer.on_run_end(result)
    return result

def _assemble_result(
    trace_name: str,
    n: int,
    cycles: int,
    scheme: Scheme | None,
    hierarchy: MemoryHierarchy,
    branch_unit: BranchUnit,
    flushes: FlushStats,
    loads: int,
) -> SimResult:
    """End-of-run accounting: energy events, scheme stats, SimResult."""
    energy = EnergyEvents(
        cycles=cycles,
        instructions=n,
        l1d_accesses=hierarchy.l1d.stats.accesses,
        l1d_probes=hierarchy.l1d.stats.probe_hits + hierarchy.l1d.stats.probe_misses,
        l2_accesses=hierarchy.l2.stats.accesses,
        l3_accesses=hierarchy.l3.stats.accesses,
    )
    value_predictions = 0
    value_mispredictions = 0
    scheme_name = "baseline"
    scheme_stats = None
    if scheme is not None:
        scheme_name = scheme.name
        scheme_stats = scheme.result_stats()
        value_predictions = scheme.vpe.stats.value_predictions
        value_mispredictions = scheme.vpe.stats.value_mispredictions
        reads, writes = scheme.access_counts()
        energy.l1d_probes_way_predicted = scheme.way_predicted_probes()
        energy.predictor_reads = reads
        energy.predictor_writes = writes
        energy.predictor_bits = scheme.predictor_storage_bits()
        energy.pvt_reads = scheme.vpe.pvt.reads
        energy.pvt_writes = scheme.vpe.pvt.writes

    tlb_stats = hierarchy.tlb.stats
    tlb_miss_rate = (
        tlb_stats.misses / tlb_stats.accesses if tlb_stats.accesses else 0.0
    )
    return SimResult(
        trace_name=trace_name,
        scheme_name=scheme_name,
        instructions=n,
        cycles=cycles,
        flushes=flushes,
        branch_mispredictions=branch_unit.stats.mispredictions,
        value_predictions=value_predictions,
        value_mispredictions=value_mispredictions,
        loads=loads,
        l1d_hit_rate=hierarchy.l1d.stats.hit_rate,
        tlb_miss_rate=tlb_miss_rate,
        energy=energy,
        scheme_stats=scheme_stats,
    )
