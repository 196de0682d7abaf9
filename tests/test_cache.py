"""Tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import Cache, CacheConfig


def small_cache(assoc=2, sets=4, block=64):
    return Cache(CacheConfig(
        name="t", size_bytes=assoc * sets * block, associativity=assoc,
        block_bytes=block, latency=1,
    ))


class TestConfigValidation:
    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(name="x", size_bytes=3 * 64 * 2, associativity=2,
                        block_bytes=64, latency=1)

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig(name="x", size_bytes=1000, associativity=3,
                        block_bytes=64, latency=1)

    def test_num_sets(self):
        cfg = CacheConfig(name="x", size_bytes=64 * 1024, associativity=4,
                          block_bytes=64, latency=2)
        assert cfg.num_sets == 256


class TestAccessBehaviour:
    def test_first_access_misses(self):
        c = small_cache()
        hit, way = c.access(0x1000)
        assert not hit
        assert c.stats.misses == 1

    def test_second_access_hits_same_way(self):
        c = small_cache()
        _, way1 = c.access(0x1000)
        hit, way2 = c.access(0x1000)
        assert hit
        assert way1 == way2

    def test_same_block_different_offset_hits(self):
        c = small_cache(block=64)
        c.access(0x1000)
        hit, _ = c.access(0x1030)
        assert hit

    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, sets=1, block=64)
        c.access(0x000)           # A
        c.access(0x040)           # B
        c.access(0x000)           # touch A -> B is LRU
        c.access(0x080)           # C evicts B
        assert c.lookup(0x000, update_lru=False)[0]
        assert not c.lookup(0x040, update_lru=False)[0]
        assert c.lookup(0x080, update_lru=False)[0]

    def test_way_stable_until_eviction(self):
        c = small_cache(assoc=4, sets=1)
        _, way = c.access(0x1000)
        for addr in (0x2000, 0x3000, 0x4000):
            c.access(addr)
        assert c.lookup(0x1000, update_lru=False) == (True, way)

    def test_way_can_change_after_eviction_and_refill(self):
        c = small_cache(assoc=2, sets=1)
        _, first_way = c.access(0x000)
        c.access(0x040)
        c.access(0x040)        # make 0x000 LRU
        c.access(0x080)        # evict 0x000
        c.access(0x040)
        _, new_way = c.access(0x000)   # refill
        # 0x000 must land in whichever way was victim; possibly different.
        assert new_way in (0, 1)

    def test_eviction_counted(self):
        c = small_cache(assoc=1, sets=1)
        c.access(0x000)
        c.access(0x040)
        assert c.stats.evictions == 1


class TestProbe:
    def test_probe_does_not_allocate(self):
        c = small_cache()
        hit, way = c.probe(0x1000)
        assert not hit and way is None
        assert c.resident_blocks() == 0
        assert c.stats.probe_misses == 1

    def test_probe_does_not_touch_lru(self):
        c = small_cache(assoc=2, sets=1)
        c.access(0x000)
        c.access(0x040)          # LRU order: 0x040, 0x000
        c.probe(0x000)           # must NOT promote 0x000
        c.access(0x080)          # evicts LRU = 0x000
        assert not c.lookup(0x000, update_lru=False)[0]

    def test_probe_hit_reports_way(self):
        c = small_cache()
        _, way = c.access(0x1000)
        hit, probe_way = c.probe(0x1000)
        assert hit and probe_way == way
        assert c.stats.probe_hits == 1


class TestInvalidate:
    def test_invalidate_resident(self):
        c = small_cache()
        c.access(0x1000)
        assert c.invalidate(0x1000)
        assert not c.lookup(0x1000, update_lru=False)[0]

    def test_invalidate_absent_returns_false(self):
        assert not small_cache().invalidate(0x1000)

    def test_fill_after_invalidate_reuses_way(self):
        c = small_cache(assoc=2, sets=1)
        c.access(0x000)
        c.access(0x040)
        c.invalidate(0x000)
        way = c.fill(0x080)
        assert c.resident_blocks() == 2
        assert way in (0, 1)


class TestProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63).map(lambda b: b * 64),
                    min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = small_cache(assoc=2, sets=4)
        for addr in addrs:
            c.access(addr)
        assert c.resident_blocks() <= 8

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63).map(lambda b: b * 64),
                    min_size=1, max_size=200))
    def test_access_after_access_hits(self, addrs):
        c = small_cache(assoc=2, sets=4)
        for addr in addrs:
            c.access(addr)
            hit, _ = c.lookup(addr, update_lru=False)
            assert hit

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63).map(lambda b: b * 64),
                    min_size=1, max_size=200))
    def test_stats_balance(self, addrs):
        c = small_cache()
        for addr in addrs:
            c.access(addr)
        assert c.stats.hits + c.stats.misses == len(addrs)
        assert 0.0 <= c.stats.hit_rate <= 1.0


class _TrueLruModel:
    """Reference cache: per-way blocks plus last-use timestamps.

    Independent of :class:`Cache`'s bookkeeping: the LRU victim is the
    occupied way with the oldest timestamp, a fill takes the lowest
    free way first, and a block never moves between ways while
    resident.
    """

    def __init__(self, sets, assoc, block_bytes):
        self.sets = sets
        self.block_bytes = block_bytes
        self.lines = [[None] * assoc for _ in range(sets)]
        self.last_use = [[0] * assoc for _ in range(sets)]
        self.clock = 0
        self.evictions = 0

    def _locate(self, addr):
        block = addr // self.block_bytes
        ways = self.lines[block % self.sets]
        return block, block % self.sets, (ways.index(block) if block in ways else None)

    def _touch(self, set_idx, way):
        self.clock += 1
        self.last_use[set_idx][way] = self.clock

    def lookup(self, addr, update_lru=True):
        _, set_idx, way = self._locate(addr)
        if way is None:
            return False, None
        if update_lru:
            self._touch(set_idx, way)
        return True, way

    def probe(self, addr):
        return self.lookup(addr, update_lru=False)

    def fill(self, addr):
        block, set_idx, way = self._locate(addr)
        if way is None:
            ways = self.lines[set_idx]
            if None in ways:
                way = ways.index(None)
            else:
                way = min(range(len(ways)), key=lambda w: self.last_use[set_idx][w])
                self.evictions += 1
            ways[way] = block
        self._touch(set_idx, way)
        return way

    def access(self, addr):
        hit, way = self.lookup(addr)
        return (True, way) if hit else (False, self.fill(addr))

    def invalidate(self, addr):
        _, set_idx, way = self._locate(addr)
        if way is None:
            return False
        self.lines[set_idx][way] = None
        return True

    def resident_blocks(self):
        return sum(b is not None for ways in self.lines for b in ways)


_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["access", "fill", "lookup", "peek", "probe", "invalidate"]
        ),
        st.integers(min_value=0, max_value=11),    # block: 3 per set
        st.integers(min_value=0, max_value=63),    # byte offset
    ),
    min_size=20,
    max_size=200,
)


class TestLruModel:
    @settings(max_examples=300)
    @given(_CACHE_OPS)
    def test_matches_true_lru_model(self, ops):
        # 4 sets x 2 ways: sets are created lazily by the first fill, so
        # every stream mixes cold sets, full sets and invalidated ways.
        cache = small_cache(assoc=2, sets=4, block=64)
        model = _TrueLruModel(sets=4, assoc=2, block_bytes=64)
        for op, block, offset in ops:
            addr = block * 64 + offset
            if op == "peek":
                got = cache.lookup(addr, update_lru=False)
                want = model.lookup(addr, update_lru=False)
            else:
                got = getattr(cache, op)(addr)
                want = getattr(model, op)(addr)
            assert got == want, (op, hex(addr))
            assert cache.stats.evictions == model.evictions
            assert cache.resident_blocks() == model.resident_blocks()
            for other in range(12):
                assert (cache.lookup(other * 64, update_lru=False)
                        == model.lookup(other * 64, update_lru=False))
