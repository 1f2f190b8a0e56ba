"""Tests for warp scheduling and GPU-level CTA dispatch."""

import numpy as np
import pytest

from repro.harness.bench import run_cell
from repro.harness.runner import TECHNIQUES, experiment_config, \
    simulate_launch
from repro.isa import parse_kernel
from repro.sim import GPU, GPUConfig, GlobalMemory, KernelLaunch, simulate
from repro.sim.scheduler import Scheduler
from repro.workloads.fuzz import build_fuzz_launch


def _counting_kernel():
    return parse_kernel("""
        mul r0, %ctaid.x, %ntid.x;
        add tid, %tid.x, r0;
        mov acc, 0;
        mov i, 0;
    LOOP:
        add acc, acc, tid;
        add i, i, 1;
        setp.lt p0, i, 8;
        @p0 bra LOOP;
        mul r1, tid, 4;
        add oaddr, param.out, r1;
        st.global [oaddr], acc;
    """, name="count", params=("out",))


def _launch(blocks, threads=64, mem_size=1 << 20):
    mem = GlobalMemory(mem_size)
    out = mem.alloc(blocks * threads)
    kernel = _counting_kernel()
    return KernelLaunch(kernel, (blocks, 1, 1), (threads, 1, 1),
                        dict(out=out), mem), out


class TestCTADispatch:
    def test_blocks_spread_over_sms(self):
        launch, out = _launch(blocks=4)
        gpu = GPU(GPUConfig(num_sms=4))
        gpu.run(launch)
        expected = np.arange(256) * 8.0
        np.testing.assert_array_equal(launch.memory.read_array(out, 256),
                                      expected)

    def test_more_blocks_than_slots_waves(self):
        # 40 blocks of 2 warps on 1 SM with 8 CTA slots: 5 waves of refill.
        launch, out = _launch(blocks=40)
        result = simulate(launch, GPUConfig(num_sms=1))
        expected = np.arange(40 * 64) * 8.0
        np.testing.assert_array_equal(
            launch.memory.read_array(out, 40 * 64), expected)
        assert result.cycles > 0

    def test_oversized_cta_rejected(self):
        mem = GlobalMemory(1 << 20)
        kernel = _counting_kernel()
        launch = KernelLaunch(kernel, (1, 1, 1), (1024, 1, 1),
                              dict(out=mem.alloc(1024)), mem)
        import dataclasses
        config = dataclasses.replace(GPUConfig(num_sms=1), warps_per_sm=8)
        with pytest.raises(ValueError):
            GPU(config).run(launch)

    def test_warp_slot_reuse_across_waves(self):
        launch, out = _launch(blocks=12)
        gpu = GPU(GPUConfig(num_sms=1))
        gpu.run(launch)
        for sm in gpu.sms:
            assert not sm.warps                      # all retired
            assert sorted(sm._free_slots) == list(range(48))


class TestSchedulers:
    @pytest.mark.parametrize("policy", ["lrr", "two_level"])
    def test_policies_produce_identical_results(self, policy):
        launch, out = _launch(blocks=4)
        config = GPUConfig(num_sms=2, scheduler=policy)
        simulate(launch, config)
        expected = np.arange(256) * 8.0
        np.testing.assert_array_equal(launch.memory.read_array(out, 256),
                                      expected)

    def test_both_schedulers_issue(self):
        launch, _ = _launch(blocks=2, threads=128)   # 4 warps: 2/scheduler
        gpu = GPU(GPUConfig(num_sms=1))
        gpu.run(launch)
        # With two schedulers over four warps, runtime must be well under
        # a single-issue serialization of all instructions.
        total = gpu.stats["warp_instructions"]
        assert gpu.stats["cycles"] < total * 2

    def test_fast_forward_skips_idle_cycles(self):
        """A memory-latency-bound run must not iterate cycle by cycle: the
        reported cycle count is far larger than the issue count, yet the
        run completes quickly (fast-forward to the next event)."""
        mem = GlobalMemory(1 << 20)
        kernel = parse_kernel("""
            mul r1, %tid.x, 4;
            add a1, param.X, r1;
            ld.global v, [a1];
            add w, v, 1;
            add o1, param.O, r1;
            st.global [o1], w;
        """, name="ff", params=("X", "O"))
        launch = KernelLaunch(kernel, (1, 1, 1), (32, 1, 1),
                              dict(X=mem.alloc_array(np.arange(32)),
                                   O=mem.alloc(32)), mem)
        result = simulate(launch, GPUConfig(num_sms=1))
        assert result.cycles > 300                   # DRAM round trip
        assert result.stats["warp_instructions"] == 7


# ---- warp iteration-order invariance ------------------------------------

def _order_preserving_remove(self, warp):
    """The pre-swap-pop removal: O(N) but keeps iteration order."""
    self.warps.remove(warp)
    warp.sched = None
    self._asleep = False


def _assert_same(swap, kept, label: str) -> None:
    assert swap.cycles == kept.cycles, (
        f"{label}: cycles diverged (swap-pop {swap.cycles}, "
        f"order-preserving {kept.cycles})")
    a, b = swap.stats.as_dict(), kept.stats.as_dict()
    diff = [f"{k}: swap-pop={a.get(k)!r} order-preserving={b.get(k)!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    assert not diff, f"{label}: Stats diverged:\n" + "\n".join(diff)


def test_stats_invariant_under_removal_order(monkeypatch):
    """Swap-pop removal permutes the scheduler's walk order relative to
    the old ``list.remove``; the timing semantics must not depend on it
    (the rotation owns fairness, not list positions)."""
    cfg = GPUConfig(num_sms=1)
    for technique in TECHNIQUES:
        for seed in range(25):
            swap = simulate_launch(build_fuzz_launch(seed), technique, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(Scheduler, "remove_warp",
                              _order_preserving_remove)
                kept = simulate_launch(build_fuzz_launch(seed), technique,
                                       cfg)
            _assert_same(swap, kept, f"seed {seed} {technique} order")


def test_stats_invariant_under_removal_order_golden_cell(monkeypatch):
    cfg = experiment_config()
    swap = run_cell("SG", "dac", "tiny", cfg)
    monkeypatch.setattr(Scheduler, "remove_warp", _order_preserving_remove)
    kept = run_cell("SG", "dac", "tiny", cfg)
    _assert_same(swap, kept, "SG/dac/tiny order")


# ---- issue-slot attribution ----------------------------------------------

def test_issue_window_tail_is_idle_even_when_the_next_tick_issues():
    """A scheduler loses its last warp inside an issue window and gets a
    new one after the window has closed, with no tick in between.  The
    span is busy up to ``busy_until`` and idle after it, even though the
    tick that closes it issues and moves ``busy_until``."""
    from types import SimpleNamespace

    from repro.stats import Stats
    from repro.trace import NULL_TRACER

    sm = SimpleNamespace(tracer=NULL_TRACER, stats=Stats(), lsu_free=0,
                         index=0, try_issue=lambda warp, now, sched: 2)
    scheduler = Scheduler(sm, 0, "lrr", 2)
    warp = SimpleNamespace(slot=0, sched=None)
    scheduler.add_warp(warp)
    assert scheduler.tick(0)                 # issued at 0, busy until 2
    scheduler.remove_warp(warp)
    assert not scheduler.tick(1)             # busy
    scheduler.add_warp(warp)                 # no tick at 2, 3 or 4
    assert scheduler.tick(5)
    scheduler.close(6)
    assert scheduler.stalls == {"issued": 2, "busy": 1, "idle": 3}
