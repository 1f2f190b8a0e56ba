"""Tests for the memory subsystem: coalescer, caches, MSHRs, locking, DRAM."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig, DRAMConfig
from repro.events import EventQueue
from repro.memory import (
    DRAM,
    LatencyChannel,
    PerfectMemory,
    SetAssocCache,
    coalesce,
    line_of,
)
from repro.memory.coalescer import CoalesceCache
from repro.stats import Stats


class _Backing:
    """Fixed-latency endpoint recording requests."""

    def __init__(self, events, latency=100):
        self.events = events
        self.latency = latency
        self.reads = []
        self.writes = []

    def read(self, line, now, callback):
        self.reads.append((line, now))
        self.events.schedule(now + self.latency, callback)

    def write(self, line, now):
        self.writes.append((line, now))


def _drain(events):
    while len(events):
        events.run_until(events.next_time())


def make_cache(size=4096, ways=4, mshrs=4, latency=10):
    events = EventQueue()
    stats = Stats()
    backing = _Backing(events)
    cache = SetAssocCache(
        "l1", CacheConfig(size_bytes=size, ways=ways, hit_latency=latency,
                          num_mshrs=mshrs), backing, events, stats)
    return cache, backing, events, stats


class TestCoalescer:
    def test_contiguous_warp_is_one_line(self):
        addrs = np.arange(32) * 4.0 + 0x1000
        active = np.ones(32, dtype=bool)
        assert coalesce(addrs, active) == [0x1000]

    def test_stride_eight_is_two_lines(self):
        addrs = np.arange(32) * 8.0 + 0x1000
        active = np.ones(32, dtype=bool)
        assert coalesce(addrs, active) == [0x1000, 0x1080]

    def test_inactive_threads_ignored(self):
        addrs = np.arange(32) * 4.0
        active = np.zeros(32, dtype=bool)
        assert coalesce(addrs, active) == []

    def test_same_address_all_threads(self):
        addrs = np.full(32, 0x2004)
        active = np.ones(32, dtype=bool)
        assert coalesce(addrs, active) == [0x2000]

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=64),
           st.lists(st.booleans(), min_size=32, max_size=32))
    @settings(max_examples=60)
    def test_property_lines_cover_active_addresses(self, base, stride,
                                                   active_bits):
        addrs = (np.arange(32) * stride * 4 + base * 4).astype(np.float64)
        active = np.array(active_bits)
        lines = coalesce(addrs, active)
        assert lines == sorted(set(lines))
        for addr in addrs[active]:
            assert line_of(int(addr)) in lines
        for line in lines:
            assert any(line_of(int(a)) == line for a in addrs[active])



# ---- CoalesceCache vs the uncached coalesce() reference ------------------

lane_addresses = st.lists(
    st.integers(min_value=0, max_value=1 << 20).map(lambda w: w * 4),
    min_size=32, max_size=32).map(lambda xs: np.asarray(xs,
                                                        dtype=np.float64))
lane_bools = st.lists(st.booleans(), min_size=32, max_size=32).map(
    lambda bs: np.asarray(bs, dtype=bool))

ALL_OFF = np.zeros(32, dtype=bool)
ALL_ON = np.ones(32, dtype=bool)
ONE_LANE = np.eye(1, 32, 17, dtype=bool)[0]


@given(lane_addresses, lane_bools)
@example(np.zeros(32), ALL_OFF)
@example(np.arange(32) * 4.0, ALL_ON)
@example(np.arange(32) * 4.0, ONE_LANE)
@example(np.full(32, 4096.0), ALL_ON)
@example(np.arange(32)[::-1] * 4.0, ALL_ON)   # descending: negative rel
@settings(max_examples=200)
def test_coalesce_cache_matches_lane_loop(addresses, active):
    """``CoalesceCache`` (vectorized, memoized) == the uncached
    :func:`coalesce`."""
    cache = CoalesceCache()
    expect_lines = coalesce(addresses, active)
    assert cache.lines(addresses, active) == expect_lines
    # Second query must hit the memo table and still agree.
    assert cache.lines(addresses, active) == expect_lines

class TestCache:
    def test_miss_then_hit(self):
        cache, backing, events, stats = make_cache()
        done = []
        cache.read(0x1000, 0, lambda t: done.append(t))
        _drain(events)
        assert len(backing.reads) == 1
        cache.read(0x1000, 200, lambda t: done.append(t))
        _drain(events)
        assert len(backing.reads) == 1           # second was a hit
        assert stats["l1.hits"] == 1 and stats["l1.misses"] == 1

    def test_secondary_miss_merges(self):
        cache, backing, events, stats = make_cache()
        done = []
        cache.read(0x1000, 0, lambda t: done.append("a"))
        cache.read(0x1000, 1, lambda t: done.append("b"))
        _drain(events)
        assert len(backing.reads) == 1
        assert sorted(done) == ["a", "b"]
        assert stats["l1.mshr_merged"] == 1

    def test_mshr_full_requests_not_lost(self):
        cache, backing, events, stats = make_cache(mshrs=2)
        done = []
        for i in range(8):
            cache.read(0x1000 + i * 128, 0, lambda t, i=i: done.append(i))
        _drain(events)
        assert sorted(done) == list(range(8))
        assert stats["l1.mshr_stalls"] > 0

    def test_eviction_lru(self):
        # 4-way, fill 5 lines of the same set: the oldest is evicted.
        cache, backing, events, stats = make_cache(size=4 * 128, ways=4)
        for i in range(5):
            cache.read(i * 128, i * 1000, lambda t: None)
            _drain(events)
        assert not cache.contains(0)
        assert cache.contains(4 * 128)
        assert stats["l1.evictions"] == 1

    def test_write_through_no_allocate(self):
        cache, backing, events, stats = make_cache()
        cache.write(0x3000, 0)
        _drain(events)
        assert backing.writes and not cache.contains(0x3000)

    def test_locked_line_survives_eviction_pressure(self):
        cache, backing, events, stats = make_cache(size=4 * 128, ways=4)
        cache.read(0, 0, lambda t: None, lock=True)
        _drain(events)
        assert cache.contains(0)
        for i in range(1, 8):
            cache.read(i * 128, i * 100, lambda t: None)
            _drain(events)
        assert cache.contains(0)                 # still locked
        cache.unlock(0)
        for i in range(8, 12):
            cache.read(i * 128, 2000 + i, lambda t: None)
            _drain(events)
        assert not cache.contains(0)             # unlocked: evictable

    def test_can_lock_respects_n_minus_1(self):
        cache, backing, events, stats = make_cache(size=4 * 128, ways=4)
        for i in range(3):
            assert cache.can_lock(i * 128)
            cache.read(i * 128, 0, lambda t: None, lock=True)
        _drain(events)
        assert not cache.can_lock(3 * 128)       # would lock all 4 ways
        cache.unlock(0)
        assert cache.can_lock(3 * 128)

    def test_can_lock_counts_pending_fills(self):
        cache, backing, events, stats = make_cache(size=4 * 128, ways=4)
        for i in range(3):
            cache.read(i * 128, 0, lambda t: None, lock=True)
        # Fills have not arrived yet; the pending locks must already count.
        assert not cache.can_lock(3 * 128)
        _drain(events)

    def test_fully_locked_set_bypasses_fill(self):
        cache, backing, events, stats = make_cache(size=4 * 128, ways=4)
        # Lock all four ways directly (bypassing can_lock, as racing
        # non-affine fills could).
        done = []
        for i in range(4):
            cache.read(i * 128, 0, lambda t: done.append(i), lock=True)
        _drain(events)
        cache.read(4 * 128, 100, lambda t: done.append(4))
        _drain(events)
        assert 4 in done                          # data still delivered
        assert not cache.contains(4 * 128)
        assert stats["l1.locked_bypass"] == 1

    def test_mshr_pressure_no_double_counting(self):
        """Regression: requests drained from the MSHR-wait queue used to
        re-enter ``read`` and re-increment accesses/misses (and pay the
        admission port twice).  Under forced MSHR pressure, accesses must
        equal the number of issued requests exactly."""
        cache, backing, events, stats = make_cache(mshrs=2)
        done = []
        for i in range(8):
            cache.read(0x1000 + i * 128, 0, lambda t, i=i: done.append(i))
        _drain(events)
        assert sorted(done) == list(range(8))
        assert stats["l1.mshr_stalls"] > 0
        assert stats["l1.accesses"] == 8
        assert stats["l1.misses"] == 8
        assert stats["l1.hits"] == 0
        assert stats["l1.hits"] + stats["l1.misses"] == \
            stats["l1.accesses"]

    def test_mshr_retry_hit_not_recounted(self):
        """A stalled request whose line is filled by the time it retries
        is delivered via the hit path but counted only once (as the miss
        it was on arrival)."""
        cache, backing, events, stats = make_cache(mshrs=1)
        done = []
        cache.read(0x8000, 0, lambda t: done.append("x"))    # holds MSHR
        cache.read(0x1000, 0, lambda t: done.append("a1"))   # stalls
        cache.read(0x1000, 0, lambda t: done.append("a2"))   # stalls too
        _drain(events)
        assert sorted(done) == ["a1", "a2", "x"]
        assert stats["l1.accesses"] == 3
        assert stats["l1.hits"] + stats["l1.misses"] == \
            stats["l1.accesses"]

    def test_mshr_pressure_identity_with_rehits(self):
        """hits + misses == accesses across a mixed stall/hit/merge mix."""
        cache, backing, events, stats = make_cache(mshrs=2)
        issued = 0
        for round_start in (0, 5000):
            for i in range(10):
                cache.read(0x2000 + (i % 6) * 128, round_start + i,
                           lambda t: None)
                issued += 1
            _drain(events)
        assert stats["l1.accesses"] == issued
        assert stats["l1.hits"] + stats["l1.misses"] == \
            stats["l1.accesses"]
        assert stats["l1.hits"] > 0

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=120))
    @settings(max_examples=30)
    def test_property_stat_identity_under_pressure(self, line_ids):
        cache, backing, events, stats = make_cache(mshrs=3)
        for i, lid in enumerate(line_ids):
            cache.read(lid * 128, i, lambda t: None)
        _drain(events)
        assert stats["l1.accesses"] == len(line_ids)
        assert stats["l1.hits"] + stats["l1.misses"] == \
            stats["l1.accesses"]

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=120))
    @settings(max_examples=30)
    def test_property_every_read_completes(self, line_ids):
        cache, backing, events, stats = make_cache(mshrs=3)
        done = []
        for i, lid in enumerate(line_ids):
            cache.read(lid * 128, i, lambda t, i=i: done.append(i))
        _drain(events)
        assert sorted(done) == list(range(len(line_ids)))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=31),
                              st.booleans()), min_size=1, max_size=80))
    @settings(max_examples=30)
    def test_property_lock_counts_never_negative(self, ops):
        cache, backing, events, stats = make_cache()
        for i, (lid, lock) in enumerate(ops):
            if lock and cache.can_lock(lid * 128):
                cache.read(lid * 128, i, lambda t: None, lock=True)
            else:
                cache.unlock(lid * 128)
            _drain(events)
        for ways in cache._sets:
            for line in ways:
                assert line.lock_count >= 0


class TestDRAM:
    def make(self, **kw):
        events = EventQueue()
        stats = Stats()
        dram = DRAM(DRAMConfig(**kw), events, stats)
        return dram, events, stats

    def test_read_completes_with_latency(self):
        dram, events, stats = self.make(latency=100)
        done = []
        dram.read(0x1000, 0, lambda t: done.append(t))
        _drain(events)
        assert len(done) == 1
        assert done[0] >= 100

    def test_row_hit_faster_than_miss(self):
        dram, events, stats = self.make(num_banks=1)
        times = []
        dram.read(0, 0, lambda t: times.append(t))
        _drain(events)
        dram.read(128, 10000, lambda t: times.append(t))   # same row
        _drain(events)
        assert stats["dram.row_hits"] == 1
        assert stats["dram.row_misses"] == 1

    def test_fr_fcfs_groups_rows(self):
        """Interleaved requests to two rows of one bank: FR-FCFS services
        the open row's requests together, yielding row hits."""
        dram, events, stats = self.make(num_banks=1, row_size=2048)
        rows = [0, 16 * 128, 128, 16 * 128 + 128, 256, 16 * 128 + 256]
        for i, addr in enumerate(rows):
            dram.read(addr, i, lambda t: None)
        _drain(events)
        # 6 accesses, 2 activations (one per row) at most 3.
        assert stats["dram.row_misses"] <= 3
        assert stats["dram.row_hits"] >= 3

    def test_banks_service_in_parallel(self):
        dram, events, stats = self.make(num_banks=16, latency=0,
                                        t_row_miss=20, burst_cycles=1)
        times = []
        for i in range(16):
            dram.read(i * 128, 0, lambda t: times.append(t))
        _drain(events)
        # All 16 banks activate concurrently: finish ~20 + bus, not 16*20.
        assert max(times) < 16 * 20

    def test_writes_counted(self):
        dram, events, stats = self.make()
        dram.write(0, 0)
        _drain(events)
        assert stats["dram.writes"] == 1

    def test_deep_bank_queue_linear_event_churn(self):
        """Regression: every arrival while a bank was busy used to
        schedule its own retry, so a K-deep queue cost O(K^2) events.
        With one pending kick per bank the total stays O(K)."""
        dram, events, stats = self.make(num_banks=1)
        scheduled = [0]
        real_schedule = events.schedule

        def counting(time, callback):
            scheduled[0] += 1
            real_schedule(time, callback)

        events.schedule = counting
        k = 60
        done = []
        for i in range(k):
            # Alternate rows so FR-FCFS stays exercised.
            dram.read((i % 2) * 16 * 128 + i * 128, 0,
                      lambda t, i=i: done.append(i))
        _drain(events)
        assert sorted(done) == list(range(k))
        # Arrival + kick + completion per request, plus slack: old code
        # needed ~K^2/2 (~1800) schedules here.
        assert scheduled[0] <= 6 * k

    def test_at_most_one_pending_kick_per_bank(self):
        dram, events, stats = self.make(num_banks=2)
        for i in range(20):
            dram.read(i * 128, 0, lambda t: None)
        # Let arrivals land, then check the guard while banks are busy.
        events.run_until(dram._pipe_in)
        assert all(isinstance(p, bool) for p in dram._pending_kick)
        _drain(events)
        assert dram._pending_kick == [False, False]

    @given(st.lists(st.integers(min_value=0, max_value=4096), min_size=1,
                    max_size=100))
    @settings(max_examples=30)
    def test_property_all_reads_answered_in_order_free_system(self, lines):
        dram, events, stats = self.make()
        done = []
        for i, line in enumerate(lines):
            dram.read(line * 128, i * 2, lambda t, i=i: done.append(i))
        _drain(events)
        assert sorted(done) == list(range(len(lines)))


class TestChannelsAndPerfect:
    def test_latency_channel_adds_both_ways(self):
        events = EventQueue()
        backing = _Backing(events, latency=50)
        channel = LatencyChannel(backing, 40, events)
        done = []
        channel.read(0, 0, lambda t: done.append(t))
        _drain(events)
        assert done[0] >= 130                      # 40 + 50 + 40

    def test_perfect_memory(self):
        events = EventQueue()
        perfect = PerfectMemory(events)
        done = []
        perfect.read(0, 0, lambda t: done.append(t))
        _drain(events)
        assert done == [1]
        assert perfect.can_lock(0) and perfect.contains(0)
        assert not perfect.in_flight(0)
