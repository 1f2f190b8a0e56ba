"""Tests for configuration, the event queue, and the stats store."""

import dataclasses
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.events import EventQueue
from repro.harness import experiment_config
from repro.stats import Stats

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

TABLE1_GTX480 = """\
Baseline GPU
  GPU        Fermi (GTX480), 15 SMs, 48 warps/SM
  SM         32 SIMT lanes, 128KB register file
  Scheduler  2 Schedulers/SM, Two Level Active
  L1         48 KB/SM, 4 Ways, 32 MSHRs
  L2         768 KB, 6 Partitions, 8 Ways
GPU Prefetcher (MTA)
  Prefetch Buffer  16KB/SM (in addition to the L1)
Compact Affine Execution (CAE)
  Affine Units     2 per SM
Decoupled Affine Computation (DAC)
  ATQ (per SM)   24 Entries
  PWAQ (per SM)  192 Entries
  PWPQ (per SM)  192 Entries
  Affine Stack   depth 8, 48 PWSs"""

TABLE1_EXPERIMENT = """\
Baseline GPU
  GPU        Fermi (GTX480), 4 SMs, 48 warps/SM
  SM         32 SIMT lanes, 128KB register file
  Scheduler  2 Schedulers/SM, Two Level Active
  L1         48 KB/SM, 4 Ways, 32 MSHRs
  L2         204 KB, 6 Partitions, 8 Ways
GPU Prefetcher (MTA)
  Prefetch Buffer  16KB/SM (in addition to the L1)
Compact Affine Execution (CAE)
  Affine Units     2 per SM
Decoupled Affine Computation (DAC)
  ATQ (per SM)   24 Entries
  PWAQ (per SM)  192 Entries
  PWPQ (per SM)  192 Entries
  Affine Stack   depth 8, 48 PWSs"""


def _leaf_fields(config, prefix=""):
    """Dotted names of every settable leaf value of a config dataclass."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


class TestConfig:
    def test_table1_defaults(self):
        c = GPUConfig.gtx480()
        assert c.num_sms == 15
        assert c.warps_per_sm == 48
        assert c.num_schedulers == 2
        assert c.l1.size_bytes == 48 * 1024 and c.l1.ways == 4
        assert c.l1.num_mshrs == 32
        assert c.l2.size_bytes == 768 * 1024 and c.l2.ways == 8
        assert c.dac.atq_entries == 24
        assert c.dac.pwaq_entries == 192
        assert c.dac.pwpq_entries == 192
        assert c.mta.buffer_bytes == 16 * 1024

    def test_table1_render(self):
        text = GPUConfig.gtx480().table1()
        for token in ("GTX480", "48 warps/SM", "48 KB/SM", "768 KB",
                      "Two Level Active", "16KB/SM", "ATQ"):
            assert token in text

    def test_table1_pinned(self):
        """Both Table 1 renderings, byte for byte, including the lines the
        model fixes (SIMT lanes, register file, CAE affine units)."""
        assert GPUConfig.gtx480().table1() == TABLE1_GTX480
        assert experiment_config().table1() == TABLE1_EXPERIMENT

    def test_every_field_is_read_by_the_model(self):
        """A field nothing outside ``config.py`` reads is a knob that lies:
        sweeping it returns identical cycles without a warning."""
        source = "\n".join(
            path.read_text() for path in SRC.rglob("*.py")
            if path != SRC / "config.py")
        unread = [name for name in _leaf_fields(GPUConfig())
                  if "." + name.rsplit(".", 1)[-1] not in source]
        assert unread == []

    def test_scaled_preserves_per_sm_resources(self):
        c = GPUConfig.gtx480().scaled(4)
        assert c.num_sms == 4
        assert c.l1.size_bytes == 48 * 1024       # per-SM untouched
        assert c.warps_per_sm == 48
        assert c.l2.size_bytes < 768 * 1024       # capacity scales

    def test_with_technique_validates(self):
        c = GPUConfig()
        assert c.with_technique("dac").technique == "dac"
        with pytest.raises(ValueError):
            c.with_technique("magic")

    def test_perfect_memory_flag(self):
        assert GPUConfig().with_perfect_memory().perfect_memory

    def test_configs_hashable_for_memoization(self):
        a = GPUConfig(num_sms=2)
        b = GPUConfig(num_sms=2)
        assert a == b and hash(a) == hash(b)

    def test_dac_ablation_knob(self):
        c = GPUConfig()
        ablated = dataclasses.replace(
            c, dac=dataclasses.replace(c.dac, lock_lines=False))
        assert not ablated.dac.lock_lines and c.dac.lock_lines


class TestEventQueue:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(5, lambda t: fired.append((t, "b")))
        q.schedule(3, lambda t: fired.append((t, "a")))
        q.schedule(9, lambda t: fired.append((t, "c")))
        q.run_until(6)
        assert fired == [(3, "a"), (5, "b")]
        q.run_until(20)
        assert fired[-1] == (9, "c")

    def test_same_cycle_is_fifo(self):
        q = EventQueue()
        fired = []
        for name in "abc":
            q.schedule(4, lambda t, n=name: fired.append(n))
        q.run_until(4)
        assert fired == ["a", "b", "c"]

    def test_events_may_schedule_events(self):
        q = EventQueue()
        fired = []

        def first(t):
            fired.append("first")
            q.schedule(t, lambda t2: fired.append("chained"))

        q.schedule(1, first)
        q.run_until(1)
        assert fired == ["first", "chained"]

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time() is None
        q.schedule(7, lambda t: None)
        assert q.next_time() == 7
        assert len(q) == 1


class TestStats:
    def test_add_and_get(self):
        s = Stats()
        s.add("x")
        s.add("x", 2)
        assert s["x"] == 3
        assert s["missing"] == 0
        assert "x" in s and "missing" not in s

    def test_merge(self):
        a, b = Stats(), Stats()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 5)
        merged = a.merged_with(b)
        assert merged["x"] == 3 and merged["y"] == 5

    def test_report_filters_by_prefix(self):
        s = Stats()
        s.add("dac.records", 10)
        s.add("l1.hits", 3)
        text = s.report("dac.")
        assert "dac.records" in text and "l1.hits" not in text
