"""Tests for the sweep utilities."""

import pytest

from repro.config import GPUConfig
from repro.harness import experiment_config, override, sweep


class TestOverride:
    def test_top_level(self):
        cfg = override(GPUConfig(), "num_sms", 3)
        assert cfg.num_sms == 3

    def test_nested(self):
        cfg = override(GPUConfig(), "dac.pwaq_entries", 96)
        assert cfg.dac.pwaq_entries == 96
        assert cfg.dac.pwpq_entries == 192      # untouched

    def test_cache_field(self):
        cfg = override(GPUConfig(), "l1.size_bytes", 4096)
        assert cfg.l1.size_bytes == 4096

    def test_too_deep(self):
        with pytest.raises(ValueError):
            override(GPUConfig(), "a.b.c", 1)


class TestSweep:
    def test_sweep_runs_and_reports(self):
        cfg = experiment_config(num_sms=2)
        result = sweep("CS", "dac.pwaq_entries", [48, 192], cfg,
                       scale="tiny", keep_stats=("dac.records",))
        assert len(result.points) == 2
        assert all(p.speedup > 0 for p in result.points)
        assert all("dac.records" in p.stats for p in result.points)
        # Deeper per-warp queues run further ahead: never much slower.
        assert result.points[1].speedup >= result.points[0].speedup * 0.95
        text = result.table()
        assert "dac.pwaq_entries" in text and "CS" in text

    def test_sweep_other_technique(self):
        cfg = experiment_config(num_sms=2)
        result = sweep("CS", "mta.prefetch_degree", [0, 4], cfg,
                       technique="mta", scale="tiny",
                       keep_stats=("mta.prefetches",))
        assert len(result.points) == 2
        # Degree 0 disables prefetching entirely.
        assert result.points[0].stats["mta.prefetches"] == 0

    def test_sweep_scheduler_policy(self):
        """Table 1's two-level scheduler and loose round-robin both
        finish, within a factor of two of each other."""
        cfg = experiment_config(num_sms=2)
        result = sweep("MC", "scheduler", ["two_level", "lrr"], cfg,
                       technique="baseline", scale="tiny")
        assert all(0.5 < p.speedup < 2.0 for p in result.points)

    def test_sweep_parallel_matches_serial(self):
        from repro.harness import clear_cache
        cfg = experiment_config(num_sms=2)
        clear_cache()
        serial = sweep("CS", "dac.pwaq_entries", [48, 192], cfg,
                       scale="tiny", use_cache=False)
        clear_cache()
        par = sweep("CS", "dac.pwaq_entries", [48, 192], cfg,
                    scale="tiny", jobs=2)
        assert [p.cycles for p in par.points] == \
            [p.cycles for p in serial.points]
        assert [p.speedup for p in par.points] == \
            [p.speedup for p in serial.points]
        clear_cache()

    def test_parallel_sweep_without_cache_simulates_nothing_in_parent(
            self, monkeypatch):
        from repro.harness import clear_cache, configure_cache, runner
        calls = []
        real = runner.simulate_launch
        monkeypatch.setattr(
            runner, "simulate_launch",
            lambda *a: (calls.append(a), real(*a))[1])
        configure_cache(enabled=False)
        clear_cache()
        result = sweep("CS", "dac.pwaq_entries", [48, 192],
                       experiment_config(num_sms=2), scale="tiny", jobs=2,
                       use_cache=False)
        assert len(result.points) == 2
        assert calls == []
