"""End-to-end tests of the DLVP engine (fetch -> probe -> execute)."""

import pytest

from repro.core import DlvpConfig, DlvpEngine
from repro.isa import Instruction, OpClass
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors import CapConfig, CapPredictor


def load(pc=0x1000, addr=0x5000, values=(42,), dests=(1,), size=8):
    return Instruction(pc=pc, op=OpClass.LOAD, dests=dests, mem_addr=addr,
                       mem_size=size, values=values)


def exec_scalars(inst):
    """The load fields DlvpEngine.on_load_execute reads."""
    return inst.pc, inst.mem_addr, inst.mem_size, inst.values


def make_engine(**config_kwargs):
    image = MemoryImage()
    hierarchy = MemoryHierarchy()
    engine = DlvpEngine(config=DlvpConfig(**config_kwargs), hierarchy=hierarchy,
                        image=image)
    return engine, image, hierarchy


def run_load(engine, inst, cycle, slot=0, image_value=None):
    """One full fetch->probe->execute round for a load."""
    if image_value is not None:
        engine.image.write(inst.mem_addr, inst.mem_size, image_value)
    handle = engine.on_load_fetch(inst.pc, cycle, slot)
    engine.probe(handle, cycle + 2)
    values = engine.predicted_values(handle, inst.mem_size, len(inst.dests))
    access = engine.hierarchy.access(inst.pc, inst.mem_addr)
    outcome = engine.on_load_execute(
        handle, *exec_scalars(inst), access.way, values is not None, values
    )
    return outcome, values


class TestHappyPath:
    def test_trains_then_predicts_correct_value(self):
        engine, image, _ = make_engine()
        image.write(0x5000, 8, 42)
        outcome = None
        for i in range(40):
            outcome, values = run_load(engine, load(), cycle=10 * i)
            if outcome.value_predicted:
                break
        assert outcome is not None and outcome.value_predicted
        assert outcome.value_correct
        assert engine.stats.value_correct >= 1
        assert engine.stats.probe_hits >= 1

    def test_engine_shares_caller_image(self):
        """Regression: an empty MemoryImage is falsy; the engine must
        keep the caller's instance, not silently make its own."""
        image = MemoryImage()
        engine = DlvpEngine(image=image)
        assert engine.image is image

    def test_multi_dest_values_extracted(self):
        engine, image, _ = make_engine()
        image.write(0x5000, 8, 11)
        image.write(0x5008, 8, 22)
        inst = load(dests=(1, 2), values=(11, 22))
        predicted = None
        for i in range(40):
            outcome, values = run_load(engine, inst, cycle=10 * i)
            if values is not None:
                predicted = values
                break
        assert predicted == (11, 22)

    def test_oversized_footprint_not_predicted(self):
        engine, image, _ = make_engine()
        inst = load(dests=tuple(range(1, 9)), values=tuple(range(8)), size=8)
        for i in range(40):
            outcome, values = run_load(engine, inst, cycle=10 * i)
            assert values is None       # 64B footprint > probe capture


class TestInFlightConflicts:
    def test_stale_probe_inserts_into_lscd(self):
        """Correct address + wrong value = an in-flight store raced the
        probe; the load must enter the LSCD."""
        engine, image, _ = make_engine()
        image.write(0x5000, 8, 42)
        # Train until a prediction happens.
        while True:
            outcome, _ = run_load(engine, load(), cycle=0)
            if outcome.value_predicted:
                break
        # Now the architectural value changes but the image (committed
        # state) still has the old value: probe returns stale 42.
        stale = load(values=(99,))
        handle = engine.on_load_fetch(stale.pc, 0, 0)
        engine.probe(handle, 2)
        values = engine.predicted_values(handle, stale.mem_size,
                                         len(stale.dests))
        access = engine.hierarchy.access(stale.pc, stale.mem_addr)
        outcome = engine.on_load_execute(handle, *exec_scalars(stale),
                                         access.way, True, values)
        assert not outcome.value_correct
        assert outcome.address_correct
        assert engine.stats.inflight_conflicts == 1
        assert stale.pc in engine.lscd

    def test_lscd_blocks_future_instances(self):
        engine, image, _ = make_engine()
        engine.lscd.insert(0x1000)
        handle = engine.on_load_fetch(load().pc, 0, 0)
        assert handle.lscd_blocked
        assert handle.prediction is None
        access = engine.hierarchy.access(0x1000, 0x5000)
        outcome = engine.on_load_execute(handle, *exec_scalars(load()),
                                         access.way, False, None)
        assert not outcome.address_predicted
        assert engine.stats.lscd_blocked == 1


class TestProbeBehaviour:
    def test_probe_miss_generates_prefetch(self):
        engine, image, hierarchy = make_engine()
        image.write(0x5000, 8, 42)
        # Train the APT (demand accesses keep L1 warm), then evict.
        while True:
            outcome, _ = run_load(engine, load(), cycle=0)
            if engine.predictor.predict_pc if False else True:
                if outcome.value_predicted:
                    break
        hierarchy.l1d.invalidate(0x5000)
        handle = engine.on_load_fetch(load().pc, 0, 0)
        engine.probe(handle, 2)
        assert not handle.probe_hit
        assert engine.stats.prefetches == 1
        # The prefetch brought the block back.
        assert hierarchy.probe_l1(0x5000)[0]

    def test_prefetch_disabled(self):
        engine, image, hierarchy = make_engine(prefetch_on_miss=False)
        image.write(0x5000, 8, 42)
        while True:
            outcome, _ = run_load(engine, load(), cycle=0)
            if outcome.value_predicted:
                break
        hierarchy.l1d.invalidate(0x5000)
        handle = engine.on_load_fetch(load().pc, 0, 0)
        engine.probe(handle, 2)
        assert engine.stats.prefetches == 0

    def test_stale_way_prediction_misses(self):
        engine, image, hierarchy = make_engine()
        image.write(0x5000, 8, 42)
        while True:
            outcome, _ = run_load(engine, load(), cycle=0)
            if outcome.value_predicted:
                break
        # Move the block to a different way: evict + refill after
        # touching other blocks in the set.
        hierarchy.l1d.invalidate(0x5000)
        hierarchy.l1d.fill(0x5000)
        handle = engine.on_load_fetch(load().pc, 0, 0)
        engine.probe(handle, 2)
        # Either the way happens to match (fine) or it is counted.
        assert engine.stats.way_mispredictions in (0, 1)

    def test_paq_age_drop_cancels_prediction(self):
        engine, image, _ = make_engine(paq_drop_cycles=2)
        image.write(0x5000, 8, 42)
        for i in range(40):
            handle = engine.on_load_fetch(load().pc, 0, 0)
            engine.probe(handle, 100)      # far beyond the drop window
            if handle.dropped:
                assert handle.prediction is None
                return
            access = engine.hierarchy.access(0x1000, 0x5000)
            engine.on_load_execute(handle, *exec_scalars(load()),
                                   access.way, False, None)
        pytest.fail("no prediction ever queued")


class TestCapBackend:
    def test_cap_variant_trains_and_predicts(self):
        image = MemoryImage()
        hierarchy = MemoryHierarchy()
        engine = DlvpEngine(
            hierarchy=hierarchy, image=image,
            address_predictor=CapPredictor(CapConfig(confidence_threshold=3,
                                                     update_delay=0)),
        )
        image.write(0x5000, 8, 42)
        predicted = False
        for i in range(60):
            handle = engine.on_load_fetch(load().pc, i, 0)
            engine.probe(handle, i + 2)
            values = engine.predicted_values(handle, load().mem_size,
                                             len(load().dests))
            access = hierarchy.access(0x1000, 0x5000)
            outcome = engine.on_load_execute(handle, *exec_scalars(load()),
                                             access.way,
                                             values is not None, values)
            predicted = predicted or outcome.value_predicted
        assert predicted


class TestUnpredictedPath:
    def test_third_load_of_group_counts_in_denominator(self):
        engine, _, _ = make_engine()
        engine.on_load_fetch_unpredicted(load().pc)
        assert engine.stats.loads_seen == 1
