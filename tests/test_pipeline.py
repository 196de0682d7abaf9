"""Tests for the out-of-order core timing model."""

import gc
import tracemalloc

import pytest

from repro.branch import BranchUnit
from repro.isa import Instruction, OpClass
from repro.memory import MemoryHierarchy
from repro.pipeline import (
    CoreConfig,
    DlvpScheme,
    RecoveryMode,
    VtageScheme,
    simulate,
)
from repro.pipeline.core_model import _IssuePorts
from repro.trace import Trace
from repro.workloads import build_workload


def alu_chain(n, pc_base=0x1000, dep=True):
    """n serial (or independent) ALU ops."""
    insts = []
    for i in range(n):
        srcs = (1,) if dep else ()
        insts.append(Instruction(pc=pc_base + 4 * i, op=OpClass.ALU,
                                 srcs=srcs, dests=(1,) if dep else (2,),
                                 values=(i,)))
    return insts


class TestIssuePorts:
    def test_backfill_around_stalled_op(self):
        ports = _IssuePorts(1)
        late = ports.issue_at(100)
        early = ports.issue_at(5)
        assert late == 100
        assert early == 5          # younger ready op is not blocked

    def test_width_respected(self):
        ports = _IssuePorts(2)
        cycles = [ports.issue_at(10) for _ in range(5)]
        assert cycles == [10, 10, 11, 11, 12]


class TestBasicTiming:
    def test_empty_ish_trace(self):
        r = simulate(Trace("t", alu_chain(1)))
        assert r.cycles > 0
        assert r.instructions == 1

    def test_ipc_bounded_by_width(self):
        r = simulate(Trace("t", alu_chain(4000, dep=False)))
        assert r.ipc <= CoreConfig().fetch_width + 0.01

    def test_serial_chain_is_slower_than_parallel(self):
        serial = simulate(Trace("s", alu_chain(2000, dep=True)))
        parallel = simulate(Trace("p", alu_chain(2000, dep=False)))
        assert serial.cycles > parallel.cycles

    def test_div_chain_much_slower(self):
        divs = [Instruction(pc=0x1000 + 4 * i, op=OpClass.DIV, srcs=(1,),
                            dests=(1,), values=(0,)) for i in range(500)]
        alus = alu_chain(500, dep=True)
        assert simulate(Trace("d", divs)).cycles > 5 * simulate(Trace("a", alus)).cycles

    def test_more_instructions_more_cycles(self):
        short = simulate(Trace("s", alu_chain(500, dep=False)))
        long = simulate(Trace("l", alu_chain(5000, dep=False)))
        assert long.cycles > short.cycles

    def test_commit_width_bounds_cycles(self):
        r = simulate(Trace("t", alu_chain(4000, dep=False)))
        assert r.cycles >= 4000 // CoreConfig().commit_width


class TestMemoryTiming:
    def test_load_latency_on_critical_path(self):
        def trace_with_loads(n):
            insts = []
            for i in range(n):
                insts.append(Instruction(
                    pc=0x1000, op=OpClass.LOAD, srcs=(1,), dests=(1,),
                    mem_addr=0x100000 + (i % 64) * 2048, mem_size=8, values=(0,),
                ))
            return Trace("loads", insts)
        dependent = simulate(trace_with_loads(500))
        assert dependent.ipc < 1.0     # serial loads can't pipeline

    def test_store_load_forwarding(self):
        insts = []
        for i in range(200):
            insts.append(Instruction(pc=0x1000, op=OpClass.STORE,
                                     mem_addr=0x5000, mem_size=8, values=(i,)))
            insts.append(Instruction(pc=0x1004, op=OpClass.LOAD, dests=(1,),
                                     mem_addr=0x5000, mem_size=8, values=(i,)))
        r = simulate(Trace("fwd", insts))
        assert r.cycles > 0
        assert r.loads == 200

    def test_l1_hit_rate_reported(self):
        r = simulate(build_workload("gzip", 2000))
        assert 0.0 < r.l1d_hit_rate <= 1.0


class TestBranches:
    def test_random_branches_cost_cycles(self):
        import random
        rng = random.Random(1)
        def trace(predictable):
            insts = []
            for i in range(2000):
                taken = (i % 2 == 0) if predictable else rng.random() < 0.5
                insts.append(Instruction(pc=0x1000, op=OpClass.ALU, dests=(1,),
                                         values=(0,)))
                insts.append(Instruction(pc=0x1004, op=OpClass.BRANCH,
                                         taken=taken, target=0x1000))
            return Trace("b", insts)
        good = simulate(trace(True))
        bad = simulate(trace(False))
        assert bad.cycles > good.cycles
        assert bad.branch_mispredictions > good.branch_mispredictions

    def test_flush_stats_match_mispredictions(self):
        r = simulate(build_workload("perlbmk", 3000))
        assert r.flushes.branch == r.branch_mispredictions


class TestValuePredictionIntegration:
    def test_baseline_has_no_value_predictions(self):
        r = simulate(build_workload("perlbmk", 2000))
        assert r.value_predictions == 0
        assert r.scheme_name == "baseline"

    def test_dlvp_makes_predictions(self):
        r = simulate(build_workload("perlbmk", 4000), scheme=DlvpScheme())
        assert r.value_predictions > 0
        assert r.scheme_name == "dlvp"
        assert 0.0 < r.value_coverage < 1.0

    def test_dlvp_speeds_up_perlbmk(self):
        t = build_workload("perlbmk", 8000)
        base = simulate(t)
        d = simulate(t, scheme=DlvpScheme())
        assert d.speedup_over(base) > 0.10

    def test_correct_predictions_never_slow_down_much(self):
        t = build_workload("aifirf", 6000)
        base = simulate(t)
        d = simulate(t, scheme=DlvpScheme())
        assert d.speedup_over(base) > -0.02

    def test_oracle_replay_at_least_as_fast_as_flush(self):
        t = build_workload("gcc", 6000)
        flush = simulate(t, scheme=DlvpScheme(), recovery=RecoveryMode.FLUSH)
        replay = simulate(t, scheme=DlvpScheme(),
                          recovery=RecoveryMode.ORACLE_REPLAY)
        assert replay.cycles <= flush.cycles

    def test_oracle_replay_has_no_value_flushes(self):
        t = build_workload("gcc", 6000)
        replay = simulate(t, scheme=DlvpScheme(),
                          recovery=RecoveryMode.ORACLE_REPLAY)
        assert replay.flushes.value == 0

    def test_vtage_scheme_runs(self):
        r = simulate(build_workload("nat", 16000), scheme=VtageScheme())
        assert r.scheme_name == "vtage"
        assert r.value_predictions > 0

    def test_speedup_requires_same_trace(self):
        a = simulate(build_workload("gzip", 1000))
        b = simulate(build_workload("parser", 1000))
        with pytest.raises(ValueError, match="different traces"):
            b.speedup_over(a)

    def test_energy_events_populated(self):
        r = simulate(build_workload("perlbmk", 3000), scheme=DlvpScheme())
        assert r.energy.cycles == r.cycles
        assert r.energy.l1d_accesses > 0
        assert r.energy.l1d_probes > 0
        assert r.energy.predictor_bits > 0


class TestConfigValidation:
    def test_lane_sum_must_match_width(self):
        with pytest.raises(ValueError, match="lanes"):
            CoreConfig(ls_lanes=3, generic_lanes=6)

    def test_rename_before_execute(self):
        with pytest.raises(ValueError, match="rename"):
            CoreConfig(rename_depth=13)

    def test_positive_widths(self):
        with pytest.raises(ValueError, match="width"):
            CoreConfig(fetch_width=0)


class TestDeterminism:
    def test_same_run_same_cycles(self):
        t = build_workload("vortex", 3000)
        assert simulate(t, scheme=DlvpScheme()).cycles == \
            simulate(t, scheme=DlvpScheme()).cycles


class TestSubstrateConstructionBudget:
    """Every simulate() builds a fresh timing substrate, so building one
    must cost (almost) nothing: cache sets are created by their first
    fill and predictor tables are flat int lists.  These bounds sit far
    below what per-set or per-entry preallocation costs (~1.5 MiB and
    ~9.9k GC-tracked objects for the hierarchy, ~530 KiB and ~7.8k for
    the branch unit), so either coming back fails here."""

    @staticmethod
    def _footprint(factory):
        factory()                       # warm imports and lazy caches
        gc.collect()
        gc.disable()
        try:
            objects_before = len(gc.get_objects())
            tracemalloc.start()
            try:
                built = factory()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            objects = len(gc.get_objects()) - objects_before
        finally:
            gc.enable()
        del built
        return retained, objects

    @pytest.mark.parametrize("factory, max_kib, max_objects", [
        (MemoryHierarchy, 64, 200),
        (BranchUnit, 384, 400),
    ], ids=["hierarchy", "branch_unit"])
    def test_construction_allocates_little(self, factory, max_kib, max_objects):
        retained, objects = self._footprint(factory)
        assert retained <= max_kib * 1024, f"{retained / 1024:.0f} KiB"
        assert objects <= max_objects, f"{objects} GC-tracked objects"
