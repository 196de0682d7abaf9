"""Set-associative cache with true-LRU replacement and way tracking.

DLVP's way-prediction optimization (Section 3.2.2, "Power Optimization")
needs to know *which way* a block occupies and whether that way changes
when a block is evicted and later refilled, so :meth:`Cache.lookup` and
:meth:`Cache.fill` report way numbers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    block_bytes: int
    latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*block ({self.associativity}*{self.block_bytes})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{self.name}: number of sets must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    probe_hits: int = 0
    probe_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache.

    Residency is one ``block -> way`` dict for the whole cache (the
    block number already fixes the set).  Each set's way array (way ->
    block, ``None`` = invalid) and LRU order (occupied ways, MRU first)
    are created by the first :meth:`fill` into that set, so building a
    cache costs the same at 64 sets as at 4,096 and a run pays only for
    the sets its trace touches.  Way numbers are stable per block: a
    block keeps its way until evicted, and a fill takes the lowest free
    way before evicting.  This matches hardware, where LRU state is
    metadata and blocks do not migrate between ways.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_shift = config.block_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._where: dict[int, int] = {}
        self._ways: dict[int, list[int | None]] = {}
        self._lru: dict[int, list[int]] = {}

    def lookup(self, addr: int, update_lru: bool = True) -> tuple[bool, int | None]:
        """Check residency without allocating.

        Returns:
            ``(hit, way)`` — ``way`` is the occupied way on a hit, else
            ``None``.
        """
        block = addr >> self._set_shift
        way = self._where.get(block)
        if way is None:
            return False, None
        if update_lru:
            lru = self._lru[block & self._set_mask]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
        return True, way

    def access(self, addr: int) -> tuple[bool, int]:
        """Demand access: hit updates LRU; miss fills (evicting LRU).

        Returns ``(hit, way)`` where ``way`` is the block's way after the
        access completes.  The residency check is inlined (rather than
        delegating to :meth:`lookup`) — this is the hot path.
        """
        block = addr >> self._set_shift
        way = self._where.get(block)
        if way is not None:
            lru = self._lru[block & self._set_mask]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            self.stats.hits += 1
            return True, way
        self.stats.misses += 1
        return False, self.fill(addr)

    def probe(self, addr: int) -> tuple[bool, int | None]:
        """Speculative (DLVP-style) probe: never allocates or reorders LRU."""
        way = self._where.get(addr >> self._set_shift)
        if way is not None:
            self.stats.probe_hits += 1
            return True, way
        self.stats.probe_misses += 1
        return False, None

    def fill(self, addr: int) -> int:
        """Insert the block for ``addr``; returns the way it landed in.

        Filling an already-resident block just refreshes its LRU
        position.
        """
        block = addr >> self._set_shift
        set_idx = block & self._set_mask
        where = self._where
        way = where.get(block)
        lru = self._lru.get(set_idx)
        if way is not None:
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            return way
        if lru is None:
            ways = self._ways[set_idx] = [None] * self.config.associativity
            lru = self._lru[set_idx] = []
        else:
            ways = self._ways[set_idx]
        if len(lru) < len(ways):
            way = ways.index(None)
        else:
            way = lru.pop()
            del where[ways[way]]
            self.stats.evictions += 1
        ways[way] = block
        where[block] = way
        lru.insert(0, way)
        return way

    def invalidate(self, addr: int) -> bool:
        """Drop the block for ``addr`` if resident; True if it was."""
        block = addr >> self._set_shift
        way = self._where.pop(block, None)
        if way is None:
            return False
        set_idx = block & self._set_mask
        self._ways[set_idx][way] = None
        self._lru[set_idx].remove(way)
        return True

    def resident_blocks(self) -> int:
        """Number of valid blocks (for tests and occupancy reporting)."""
        return len(self._where)
