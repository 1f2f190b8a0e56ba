"""Tests for the persistent result store: keying, hit/miss/invalidation
semantics, atomic writes, serialization round-trips, and the warm-suite
guarantee (a second run_suite performs zero simulations)."""

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.harness import (
    DiskCache,
    cache_key,
    clear_cache,
    configure_cache,
    disk_cache,
    experiment_config,
    run_one,
    run_suite,
)
from repro.harness import runner
from repro.harness.diskcache import decode_result, encode_result
from repro.sim.gpu import RunResult
from repro.sim.launch import GlobalMemory
from repro.stats import Stats
from repro.workloads import BY_ABBR, get

CFG = experiment_config(num_sms=2)


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path):
    """Every test gets a fresh memo cache and its own disk cache dir."""
    clear_cache()
    configure_cache(tmp_path / "cache")
    yield
    configure_cache(enabled=False)
    clear_cache()


def _count_simulations(monkeypatch):
    calls = []
    real = runner.simulate_launch

    def counting(launch, technique, config):
        calls.append((launch.kernel.name, technique))
        return real(launch, technique, config)

    monkeypatch.setattr(runner, "simulate_launch", counting)
    return calls


class TestCacheKey:
    def test_deterministic_across_rebuilds(self):
        a = cache_key(get("CP").launch("tiny"), "baseline", CFG)
        b = cache_key(get("CP").launch("tiny"), "baseline", CFG)
        assert a == b and len(a) == 64

    def test_sensitive_to_every_component(self):
        base = cache_key(get("CP").launch("tiny"), "baseline", CFG)
        assert cache_key(get("CP").launch("tiny"), "dac", CFG) != base
        assert cache_key(get("LIB").launch("tiny"), "baseline", CFG) != base
        assert cache_key(get("CP").launch("paper"), "baseline", CFG) != base
        other = dataclasses.replace(CFG, alu_latency=CFG.alu_latency + 1)
        assert cache_key(get("CP").launch("tiny"), "baseline", other) != base

    def test_sensitive_to_memory_image(self):
        launch = get("CP").launch("tiny")
        base = cache_key(launch, "baseline", CFG)
        launch.memory.words[0] = 123.0
        assert cache_key(launch, "baseline", CFG) != base


#: One write to a ``GlobalMemory(4096)``: an in-range word index and a
#: finite, non-zero value (a small pool, so two memories often agree).
_WRITES = st.lists(st.tuples(st.integers(0, 1023),
                             st.sampled_from([1.0, -2.5, 3.0, 1e300])),
                   max_size=6)


class TestMemoryImage:
    @settings(max_examples=200, deadline=None)
    @given(alloc=st.integers(0, 992), shared=_WRITES,
           only_a=_WRITES, only_b=_WRITES)
    def test_image_equality_is_full_equality(self, alloc, shared,
                                             only_a, only_b):
        a, b = GlobalMemory(4096), GlobalMemory(4096)
        for memory, own in ((a, only_a), (b, only_b)):
            memory.alloc(alloc)
            for index, value in shared + own:
                memory.words[index] = value
        assert np.array_equal(a.image(), b.image()) == \
            np.array_equal(a.words, b.words)

    def test_image_is_an_owned_copy_of_the_prefix(self):
        memory = GlobalMemory(4096)
        addr = memory.alloc_array([1.0, 2.0, 3.0])
        image = memory.image()
        assert image.base is None
        assert len(image) == memory._next_free // 4
        assert list(image[addr // 4:addr // 4 + 3]) == [1.0, 2.0, 3.0]
        memory.words[-1] = -0.0
        assert len(memory.image()) == len(memory.words)

    @pytest.mark.parametrize("value", [1.0, -0.0])
    def test_key_sees_a_write_past_the_allocations(self, value):
        launch = get("CP").launch("tiny")
        base = cache_key(launch, "baseline", CFG)
        launch.memory.words[launch.memory._next_free // 4 + 5] = value
        assert cache_key(launch, "baseline", CFG) != base

    def test_key_sees_the_memory_size(self):
        launch = get("CP").launch("tiny")
        bigger = GlobalMemory(2 * launch.memory.size_bytes)
        bigger.words[:len(launch.memory.words)] = launch.memory.words
        bigger._next_free = launch.memory._next_free
        other = dataclasses.replace(launch, memory=bigger)
        assert np.array_equal(bigger.image(), launch.memory.image())
        assert cache_key(other, "baseline", CFG) != \
            cache_key(launch, "baseline", CFG)

    @pytest.mark.parametrize("abbr", sorted(BY_ABBR))
    def test_result_carries_only_the_allocated_image(self, abbr):
        """No registry kernel writes past its allocations, and a result
        owns its image, so the launch's full memory can be freed."""
        launch = get(abbr).launch("tiny")
        result = runner.simulate_launch(launch, "baseline", CFG)
        image = result.extra["memory_words"]
        assert image.base is None
        assert len(image) == launch.memory._next_free // 4


class TestDiskCache:
    def _result(self):
        return runner.simulate_launch(get("CP").launch("tiny"),
                                      "baseline", CFG)

    def test_store_load_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path / "d")
        result = self._result()
        cache.store("k1", result)
        loaded = cache.load("k1")
        assert loaded is not result
        assert loaded.cycles == result.cycles
        assert loaded.kernel_name == result.kernel_name
        assert loaded.config == result.config
        assert loaded.stats.as_dict() == result.stats.as_dict()
        assert np.array_equal(loaded.extra["memory_words"],
                              result.extra["memory_words"])
        assert loaded.extra["stalls"] == result.extra["stalls"]
        assert cache.hits == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "d")
        assert cache.load("nope") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = DiskCache(tmp_path / "d")
        cache.store("k1", self._result())
        cache._path("k1").write_bytes(b"not a pickle")
        assert cache.load("k1") is None
        assert "k1" not in cache
        assert cache.misses == 1

    def test_invalidate_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path / "d")
        result = self._result()
        cache.store("k1", result)
        cache.store("k2", result)
        assert len(cache) == 2 and cache.keys() == ["k1", "k2"]
        assert cache.invalidate("k1")
        assert not cache.invalidate("k1")
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path / "d")
        for i in range(3):
            cache.store(f"k{i}", self._result())
        leftovers = [p for p in cache.root.iterdir()
                     if not p.name.endswith(DiskCache.SUFFIX)]
        assert leftovers == []


_HAMMER = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.config import GPUConfig
    from repro.harness.diskcache import DiskCache
    from repro.sim.gpu import RunResult
    from repro.stats import Stats

    root, wid = sys.argv[1], int(sys.argv[2])
    cache = DiskCache(root)
    stats = Stats()
    stats.add("writer", float(wid))
    for i in range(150):
        slot = i % 6
        result = RunResult(cycles=1000 + slot, stats=stats,
                           config=GPUConfig(), kernel_name=f"kern{slot}",
                           extra={"memory_words": np.zeros(16384)})
        cache.store(f"k{slot}", result)
        loaded = cache.load(f"k{slot}")
        # A concurrent reader sees the old entry or the new one — never
        # a torn write.
        assert loaded is not None, f"torn read at {i}"
        assert loaded.kernel_name == f"kern{slot}"
        assert loaded.cycles == 1000 + slot
    assert cache.corrupt == 0
    print("ok")
""")


@pytest.mark.resilience
def test_two_process_writers_never_corrupt_the_cache(tmp_path):
    """Satellite acceptance: two processes hammering the same keys leave
    only whole, loadable entries — no torn reads, no ``.corrupt``
    quarantine files, no leftover temporaries."""
    root = tmp_path / "shared"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen(
        [sys.executable, "-c", _HAMMER, str(root), str(wid)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        for wid in range(2)]
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out.decode()
        assert b"ok" in out
    cache = DiskCache(root)
    for slot in range(6):
        loaded = cache.load(f"k{slot}")
        assert loaded is not None and loaded.cycles == 1000 + slot
        # The survivor is one writer's complete entry, never a blend.
        assert loaded.stats.as_dict()["writer"] in (0.0, 1.0)
    assert cache.corrupt == 0
    assert not list(root.glob(f"*{DiskCache.CORRUPT_SUFFIX}"))
    leftovers = [p for p in root.iterdir()
                 if not p.name.endswith(DiskCache.SUFFIX)]
    assert leftovers == []


class TestWiring:
    def test_run_one_populates_disk(self):
        run_one("CP", "baseline", "tiny", CFG)
        assert len(disk_cache()) == 1

    def test_warm_run_skips_simulation(self, monkeypatch):
        run_one("CP", "baseline", "tiny", CFG)
        clear_cache()                      # drop the in-process memo
        calls = _count_simulations(monkeypatch)
        warm = run_one("CP", "baseline", "tiny", CFG)
        assert calls == []
        assert warm.cycles > 0

    def test_use_cache_false_bypasses_disk(self, monkeypatch):
        run_one("CP", "baseline", "tiny", CFG)
        clear_cache()
        calls = _count_simulations(monkeypatch)
        run_one("CP", "baseline", "tiny", CFG, use_cache=False)
        assert len(calls) == 1
        assert disk_cache().hits == 0

    def test_warm_suite_performs_zero_simulations(self, monkeypatch):
        """Acceptance criterion: a warm second run_suite over >= 5
        benchmarks loads every result from disk."""
        abbrs = ["CP", "LIB", "ST", "BFS", "HS"]
        techniques = ("baseline", "dac")
        cold = run_suite(abbrs, "tiny", CFG, techniques=techniques)
        clear_cache()
        calls = _count_simulations(monkeypatch)
        warm = run_suite(abbrs, "tiny", CFG, techniques=techniques)
        assert calls == []
        for abbr in abbrs:
            for tech in techniques:
                assert warm[abbr][tech].cycles == cold[abbr][tech].cycles
                assert warm[abbr][tech].stats.as_dict() == \
                    cold[abbr][tech].stats.as_dict()

    def test_invalidation_forces_resimulation(self, monkeypatch):
        run_one("CP", "baseline", "tiny", CFG)
        clear_cache()
        disk = disk_cache()
        key = cache_key(get("CP").launch("tiny"), "baseline", CFG)
        assert disk.invalidate(key)
        calls = _count_simulations(monkeypatch)
        run_one("CP", "baseline", "tiny", CFG)
        assert len(calls) == 1


class TestSerialization:
    def _result(self):
        return runner.simulate_launch(get("LIB").launch("tiny"), "dac", CFG)

    def test_pickle_roundtrip(self):
        result = self._result()
        for obj in (result.stats, result.config, result):
            copy = pickle.loads(pickle.dumps(obj))
            if isinstance(obj, Stats):
                assert copy.as_dict() == obj.as_dict()
            elif isinstance(obj, GPUConfig):
                assert copy == obj
        copy = pickle.loads(pickle.dumps(result))
        assert copy.cycles == result.cycles
        assert copy.stats.as_dict() == result.stats.as_dict()
        assert np.array_equal(copy.extra["memory_words"],
                              result.extra["memory_words"])

    def test_codec_roundtrip(self):
        result = self._result()
        copy = decode_result(encode_result(result))
        assert isinstance(copy, RunResult)
        assert copy.cycles == result.cycles
        assert copy.kernel_name == result.kernel_name
        assert copy.config == result.config
        assert copy.stats.as_dict() == result.stats.as_dict()
        assert copy.extra["stalls"] == result.extra["stalls"]
        assert np.array_equal(copy.extra["memory_words"],
                              result.extra["memory_words"])
        # A DAC result carries no decoupled program: nothing reads it.
        assert "program" not in copy.extra

    def test_config_from_dict(self):
        config = experiment_config(num_sms=3).with_technique("mta")
        copy = GPUConfig.from_dict(dataclasses.asdict(config))
        assert copy == config
