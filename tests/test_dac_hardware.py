"""Unit tests for the DAC hardware structures: queues, expansion units,
the affine warp executor, and the two-level affine SIMT stack."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.affine import scalar
from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.core import run_dac
from repro.core.expansion import AddressExpansionUnit
from repro.core.queues import (
    ATQ,
    AddressRecord,
    BarrierMarker,
    PerWarpQueue,
    TupleEntry,
)
from repro.isa import parse_kernel
from repro.sim import GPUConfig, GlobalMemory, KernelLaunch

CFG = GPUConfig(num_sms=1)


class TestQueues:
    def test_atq_budget(self):
        atq = ATQ(2)
        atq.register_cta(1)
        atq.register_cta(2)
        entry = lambda: TupleEntry("data", 0, scalar(0),
                                   np.ones(32, dtype=bool))
        atq.push(1, entry())
        atq.push(2, entry())
        assert not atq.has_space()
        with pytest.raises(RuntimeError):
            atq.push(1, entry())
        atq.pop(1)
        assert atq.has_space()

    def test_atq_barrier_markers_do_not_consume_budget(self):
        atq = ATQ(1)
        atq.register_cta(1)
        atq.push(1, BarrierMarker(1))
        assert atq.has_space()
        assert isinstance(atq.head(1), BarrierMarker)

    def test_atq_drop_cta_returns_leftovers(self):
        atq = ATQ(4)
        atq.register_cta(1)
        atq.push(1, TupleEntry("data", 0, scalar(0),
                               np.ones(32, dtype=bool)))
        leftovers = atq.drop_cta(1)
        assert len(leftovers) == 1
        assert len(atq) == 0

    def test_per_warp_queue_capacity(self):
        q = PerWarpQueue(2)
        q.push("a")
        q.push("b")
        assert q.full()
        with pytest.raises(RuntimeError):
            q.push("c")
        assert q.pop() == "a"
        assert q.head() == "b"


class TestAddressExpansionFills:
    def test_out_of_order_fills_keep_the_latest_and_wake_once(self):
        """A record's early fills may return out of order: its fill time
        is the latest of them, and its warp's scheduler is woken once, by
        the last one."""
        wakes = []
        sched = SimpleNamespace(wake=lambda: wakes.append(len(wakes)))
        warp = SimpleNamespace(sched=sched)
        sm = SimpleNamespace(trace_on=False, index=0)
        aeu = AddressExpansionUnit(sm, ATQ(4))
        record = AddressRecord(kind="data", queue_id=0, lines=[0, 128],
                               addrs=np.zeros(32, dtype=np.int64),
                               mask=np.ones(32, dtype=bool),
                               fills_remaining=2)
        aeu._on_fill(record, warp, 50)
        assert record.fills_remaining == 1 and wakes == []
        aeu._on_fill(record, warp, 40)
        assert record.fill_time == 50
        assert record.fills_remaining == 0
        assert wakes == [0]


def _run_dac_kernel(source, params_spec, grid=(1, 1, 1), block=(64, 1, 1),
                    shared_words=0, setup=None, config=CFG):
    mem = GlobalMemory(1 << 20)
    params = setup(mem) if setup else dict(params_spec)
    kernel = parse_kernel(source, name="t", params=tuple(params))
    assert verify(decouple(kernel)).ok
    launch = KernelLaunch(kernel, grid, block, params, mem, shared_words)
    result = run_dac(launch, config)
    return result, mem, params


SAXPY = """
    mul r0, %ctaid.x, %ntid.x;
    add tid, %tid.x, r0;
    mul r1, tid, 4;
    add xaddr, param.X, r1;
    ld.global xv, [xaddr];
    add yaddr, param.Y, r1;
    ld.global yv, [yaddr];
    mad v, xv, 2, yv;
    add oaddr, param.O, r1;
    st.global [oaddr], v;
"""


class TestDACEndToEnd:
    def test_saxpy_correct(self):
        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64)),
                        Y=mem.alloc_array(np.arange(64) * 10),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(SAXPY, None, setup=setup)
        got = mem.read_array(params["O"], 64)
        np.testing.assert_array_equal(got, np.arange(64) * 12)
        stats = result.stats
        assert stats["dac.affine_loads"] == 2 * 2     # 2 loads x 2 warps
        assert stats["dac.deq_loads"] == 4
        assert stats["dac.deq_stores"] == 2

    def test_early_requests_lock_and_unlock(self):
        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64)),
                        Y=mem.alloc_array(np.arange(64) * 10),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(SAXPY, None, setup=setup)
        # All locks must be released by the matching dequeues.
        assert result.stats["dac.leftover_records"] == 0
        assert result.stats["dac.affine_unfinished"] == 0

    def test_guarded_enq_matches_guarded_deq(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            setp.lt p1, tid, 40;
            mul r1, tid, 4;
            add xaddr, param.X, r1;
            @p1 ld.global xv, [xaddr];
            add oaddr, param.O, r1;
            @p1 st.global [oaddr], xv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64) + 5),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        got = mem.read_array(params["O"], 64)
        expected = np.where(np.arange(64) < 40, np.arange(64) + 5.0, 0.0)
        np.testing.assert_array_equal(got, expected)
        # Warp 1 (tids 32..63) gets a partial record; warp 0 a full one.
        assert result.stats["dac.records"] > 0

    def test_fully_inactive_warp_gets_no_record(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            setp.lt p1, tid, 32;
            mul r1, tid, 4;
            add xaddr, param.X, r1;
            @p1 ld.global xv, [xaddr];
            add oaddr, param.O, r1;
            @p1 st.global [oaddr], xv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64) + 5),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        # Only warp 0 is active: one load record + one store record.
        assert result.stats["dac.affine_loads"] == 1
        assert result.stats["dac.affine_store_records"] == 1
        got = mem.read_array(params["O"], 64)
        expected = np.where(np.arange(64) < 32, np.arange(64) + 5.0, 0.0)
        np.testing.assert_array_equal(got, expected)

    def test_peu_tiers_scalar_loop(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mov i, 0;
            mov acc, 0;
        LOOP:
            mul r2, i, 4;
            add a1, param.X, r2;
            ld.global v, [a1];
            add acc, acc, v;
            add i, i, 1;
            setp.lt p0, i, 4;
            @p0 bra LOOP;
            mul r3, tid, 4;
            add oaddr, param.O, r3;
            st.global [oaddr], acc;
        """

        def setup(mem):
            return dict(X=mem.alloc_array([1.0, 2.0, 3.0, 4.0]),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      np.full(64, 10.0))
        # The loop predicate is scalar: the single-comparison tier (§4.3).
        assert result.stats["dac.peu_scalar"] > 0
        assert result.stats["dac.peu_simt"] == 0

    def test_peu_endpoint_tier(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            setp.lt p1, tid, 40;
            mul r1, tid, 4;
            add xaddr, param.X, r1;
            @p1 ld.global xv, [xaddr];
            add oaddr, param.O, r1;
            @p1 st.global [oaddr], xv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64)),
                        O=mem.alloc(64))

        result, _, _ = _run_dac_kernel(src, None, setup=setup)
        # tid < 40: warp 0 all-true (endpoint uniform), warp 1 mixed (SIMT).
        assert result.stats["dac.peu_endpoint"] >= 1
        assert result.stats["dac.peu_simt"] >= 1

    def test_divergent_tuple_expansion(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            setp.lt p1, tid, 16;
            mul off, tid, 4;
            @p1 mov off, 0;
            add xaddr, param.X, off;
            ld.global xv, [xaddr];
            mul r1, tid, 4;
            add oaddr, param.O, r1;
            st.global [oaddr], xv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64) * 100),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        tid = np.arange(64)
        expected = np.where(tid < 16, 0.0, tid * 100.0)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      expected)
        assert result.stats["dac.divergent_expansions"] > 0
        assert result.stats["dac.dcrf_writes"] > 0

    def test_mod_tuple_load(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mul r1, tid, 4;
            rem r2, r1, 64;
            add xaddr, param.X, r2;
            ld.global xv, [xaddr];
            add oaddr, param.O, r1;
            st.global [oaddr], xv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(16) + 1),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        expected = (np.arange(64) % 16 + 1).astype(float)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      expected)
        kernel = parse_kernel(src, name="t", params=tuple(params))
        assert decouple(kernel).decoupled_loads == 1

    def test_barrier_gates_expansion(self):
        src = """
            mul r1, %tid.x, 4;
            add xaddr, param.X, r1;
            ld.global xv, [xaddr];
            st.shared [r1], xv;
            bar.sync;
            mov r2, %ntid.x;
            sub r3, r2, 1;
            sub r4, r3, %tid.x;
            mul r5, r4, 4;
            ld.shared yv, [r5];
            add oaddr, param.O, r1;
            st.global [oaddr], yv;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64)),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup,
                                              shared_words=64)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      np.arange(64)[::-1])

    def test_undecoupled_kernel_falls_back(self):
        src = """
            ld.global i1, [param.P];
            mul r2, i1, 4;
            add a2, param.P, r2;
            ld.global v, [a2];
            mul r3, v, 4;
            add a3, param.P, r3;
            atom.global [a3], 1;
        """

        def setup(mem):
            return dict(P=mem.alloc_array(np.zeros(64)))

        result, _, _ = _run_dac_kernel(src, None, setup=setup)
        # The scalar param load decouples; the chased loads do not, and
        # the run completes without DAC machinery for them.
        assert result.cycles > 0

    def test_multiple_ctas_interleave(self):
        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(256)),
                        Y=mem.alloc_array(np.arange(256) * 10),
                        O=mem.alloc(256))

        result, mem, params = _run_dac_kernel(SAXPY, None, grid=(4, 1, 1),
                                              setup=setup)
        np.testing.assert_array_equal(mem.read_array(params["O"], 256),
                                      np.arange(256) * 12)
        assert result.stats["dac.affine_unfinished"] == 0


class TestAffineStackAccounting:
    def test_wls_and_pws_counters(self):
        # Divergence along tid.x: mixed warps must write PWS entries.
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mov v, 1;
            setp.lt p1, tid, 48;
            @!p1 bra SKIP;
            mul r1, tid, 4;
            add xaddr, param.X, r1;
            ld.global v, [xaddr];
        SKIP:
            mul r2, tid, 4;
            add oaddr, param.O, r2;
            st.global [oaddr], v;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64) + 7),
                        O=mem.alloc(64))

        result, mem, params = _run_dac_kernel(src, None, setup=setup)
        tid = np.arange(64)
        expected = np.where(tid < 48, tid + 7.0, 1.0)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      expected)
        assert result.stats["dac.wls_writes"] >= 1
        assert result.stats["dac.pws_writes"] >= 1
