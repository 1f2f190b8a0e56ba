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
from repro.stats import Stats
from repro.workloads import get

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
