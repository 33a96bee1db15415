"""Tests for the set-associative cache, MSHRs and write buffer."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import Cache, CacheConfig, MemoryHierarchy
from repro.cache.writebuffer import WriteBuffer
from repro.fasttier.lean import LeanCache


def small_cache(**kwargs):
    defaults = dict(name="test", size=1024, associativity=2, line_size=64)
    defaults.update(kwargs)
    return Cache(CacheConfig(**defaults))


class TestGeometry:
    def test_num_sets(self):
        cache = small_cache()
        assert cache.config.num_sets == 1024 // (2 * 64)

    def test_table2_l1_geometry(self):
        cache = Cache(CacheConfig())
        assert cache.config.num_sets == 128
        assert cache.config.hit_latency == 2

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, associativity=3, line_size=64)

    def test_line_address(self):
        cache = small_cache()
        assert cache.line_address(0x1234) == 0x1200
        assert cache.line_address(0x1200) == 0x1200


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup(0x1000) is None
        cache.install(0x1000)
        assert cache.lookup(0x1000) is not None
        assert cache.lookup(0x1038) is not None  # same line

    def test_lru_eviction(self):
        cache = small_cache()  # 2-way, 8 sets, 64B lines
        set_stride = cache.config.num_sets * 64
        a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
        cache.install(a)
        cache.install(b)
        cache.lookup(a)  # touch a so b becomes LRU
        _, victim = cache.install(c)
        assert victim is not None
        assert cache.victim_address(c, victim) == b
        assert cache.lookup(a, touch=False) is not None
        assert cache.lookup(b, touch=False) is None

    def test_victim_carries_metadata(self):
        cache = small_cache()
        set_stride = cache.config.num_sets * 64
        line, _ = cache.install(0x0, token_bits=0b1)
        line.dirty = True
        cache.install(set_stride)
        _, victim = cache.install(2 * set_stride)
        assert victim is not None and victim.token_bits == 0b1 and victim.dirty

    def test_invalidate(self):
        cache = small_cache()
        cache.install(0x1000)
        cache.invalidate(0x1000)
        assert cache.lookup(0x1000) is None

    def test_flush(self):
        cache = small_cache()
        for i in range(16):
            cache.install(i * 64)
        cache.flush()
        assert all(
            cache.lookup(i * 64, touch=False) is None for i in range(16)
        )

    def test_stats(self):
        cache = small_cache()
        cache.stats.misses += 1
        cache.install(0)
        line = cache.lookup(0)
        assert line is not None
        cache.stats.hits += 1
        assert cache.stats.accesses == 2
        assert cache.stats.miss_rate == 0.5

    @given(st.lists(st.integers(min_value=0, max_value=2**16), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_installed_lines_always_found_until_evicted(self, addresses):
        """A just-installed line is always a hit immediately after."""
        cache = small_cache()
        for address in addresses:
            cache.install(address)
            assert cache.lookup(address, touch=False) is not None

    @given(st.lists(st.integers(min_value=0, max_value=2**14), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_set_occupancy_never_exceeds_associativity(self, addresses):
        cache = small_cache()
        for address in addresses:
            if cache.lookup(address) is None:
                cache.install(address)
        per_set = Counter(
            (base // 64) % cache.config.num_sets for base, _ in cache.lines()
        )
        assert max(per_set.values(), default=0) <= 2


class EagerLruCache:
    """Reference model: every way of every set built up front, victim =
    first invalid way, else the least recently used one."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.sets = [[None] * ways for _ in range(num_sets)]  # [line_no, tick]
        self.tick = 0

    def _find(self, line_no):
        for way in self.sets[line_no % self.num_sets]:
            if way is not None and way[0] == line_no:
                return way
        return None

    def lookup(self, line_no):
        way = self._find(line_no)
        if way is not None:
            self.tick += 1
            way[1] = self.tick
        return way is not None

    def install(self, line_no):
        """Returns the evicted line number, or None."""
        self.tick += 1
        way = self._find(line_no)
        if way is not None:
            way[1] = self.tick
            return None
        ways = self.sets[line_no % self.num_sets]
        if None in ways:
            ways[ways.index(None)] = [line_no, self.tick]
            return None
        victim = min(ways, key=lambda w: w[1])
        evicted = victim[0]
        victim[:] = [line_no, self.tick]
        return evicted

    def invalidate(self, line_no):
        ways = self.sets[line_no % self.num_sets]
        for i, way in enumerate(ways):
            if way is not None and way[0] == line_no:
                ways[i] = None

    def resident(self):
        return {w[0] for ways in self.sets for w in ways if w is not None}


# 3 sets x 2 ways covers the non-power-of-two set-count path.
_GEOMETRIES = st.sampled_from([(3 * 2 * 64, 2), (1024, 2), (512, 4)])
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "install", "invalidate"]),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=300,
)


class TestLazyWays:
    def test_fresh_hierarchy_holds_no_lines(self):
        h = MemoryHierarchy()
        for cache in (h.l1d, h.l1i, h.l2):
            assert list(cache.lines()) == []

    def test_lines_exist_only_for_fills(self):
        cache = small_cache()  # 8 sets x 2 ways
        for i in range(5):
            cache.install(i * 64)
        assert sorted(base for base, _ in cache.lines()) == [
            i * 64 for i in range(5)
        ]

    def test_invalidate_frees_the_way(self):
        cache = small_cache()
        stride = cache.config.num_sets * 64
        cache.install(0)
        cache.install(stride)
        cache.invalidate(0)
        _, victim = cache.install(2 * stride)
        assert victim is None
        assert cache.lookup(stride, touch=False) is not None

    def test_reinstall_refills_in_place(self):
        cache = small_cache()
        line, _ = cache.install(0x40, token_bits=0b1)
        line.dirty = True
        again, victim = cache.install(0x40)
        assert again is line and victim is None
        assert not line.dirty and line.token_bits == 0
        assert len(list(cache.lines())) == 1

    def test_writeback_all_empties_the_caches(self):
        h = MemoryHierarchy()
        h.write(0x1000, b"\x01" * 8)
        h.fetch_line(0x400000)
        h.writeback_all()
        assert list(h.l1d.lines()) == [] and list(h.l2.lines()) == []

    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(size=48 * 4, associativity=4, line_size=48)

    @given(_GEOMETRIES, _OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_eager_reference(self, geometry, ops):
        """Victims, hits and residency match a cache whose ways all
        exist up front."""
        size, ways = geometry
        cache = small_cache(size=size, associativity=ways)
        ref = EagerLruCache(cache.config.num_sets, ways)
        for op, line_no in ops:
            address = line_no * 64 + 5
            if op == "lookup":
                assert (cache.lookup(address) is not None) == ref.lookup(line_no)
            elif op == "install":
                _, victim = cache.install(address)
                got = (
                    None if victim is None
                    else cache.victim_address(address, victim) // 64
                )
                assert got == ref.install(line_no)
            else:
                cache.invalidate(address)
                ref.invalidate(line_no)
            assert {b // 64 for b, _ in cache.lines()} == ref.resident()

    @given(_GEOMETRIES, _OPS)
    @settings(max_examples=60, deadline=None)
    def test_lean_cache_tracks_the_real_cache(self, geometry, ops):
        """The fast tier's presence model keeps the same lines resident
        as the real cache under the same fill/touch stream."""
        size, ways = geometry
        cache = small_cache(size=size, associativity=ways)
        lean = LeanCache(size, ways, 64)
        for op, line_no in ops:
            if op == "invalidate":
                continue  # the lean model has no invalidation
            hit = cache.lookup(line_no * 64) is not None
            assert lean.probe(line_no) == hit
            if op == "install" and not hit:
                cache.install(line_no * 64)
                lean.install(line_no)
            assert {b // 64 for b, _ in cache.lines()} == set(lean.ticks)


class TestWriteBuffer:
    def test_no_stall_with_room(self):
        wb = WriteBuffer(entries=8)
        assert wb.insert() == 0

    def test_stalls_when_full(self):
        wb = WriteBuffer(entries=2, drain_per_access=0.0)
        wb.insert()
        wb.insert()
        assert wb.insert() > 0
        assert wb.full_stalls == 1

    def test_drains_over_time(self):
        wb = WriteBuffer(entries=2, drain_per_access=1.0)
        for _ in range(100):
            assert wb.insert() == 0  # drains one per access, never fills

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            WriteBuffer(entries=0)
