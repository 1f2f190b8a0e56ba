"""Edge-path tests for DAC: strided (multi-line) records, atomic dequeues,
refetch after early eviction, queue back-pressure under long run-ahead."""

import dataclasses

import numpy as np

from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.core import run_dac
from repro.isa import parse_kernel
from repro.sim import GPUConfig, GlobalMemory, KernelLaunch

CFG = GPUConfig(num_sms=1)


def _run(source, setup, grid=(1, 1, 1), block=(64, 1, 1), config=CFG):
    mem = GlobalMemory(1 << 21)
    params = setup(mem)
    kernel = parse_kernel(source, name="t", params=tuple(params))
    assert verify(decouple(kernel)).ok
    launch = KernelLaunch(kernel, grid, block, params, mem)
    return run_dac(launch, config), mem, params


class TestStridedRecords:
    def test_stride_32_words_touches_many_lines(self):
        """Stride-128B addresses: every thread its own line — the AEU must
        generate a 32-line record and charge 32 ALU cycles for it."""
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mul r1, tid, 128;
            add a1, param.X, r1;
            ld.global v, [a1];
            mul r2, tid, 4;
            add o1, param.O, r2;
            st.global [o1], v;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64 * 32)),
                        O=mem.alloc(64))

        result, mem, params = _run(src, setup)
        got = mem.read_array(params["O"], 64)
        np.testing.assert_array_equal(got, np.arange(64) * 32)
        # 2 warps x 32 lines each.
        assert result.stats["dac.affine_load_lines"] == 64
        assert result.stats["dac.aeu_alu_cycles"] >= 64

    def test_word_masks_recorded(self):
        src = """
            mul r1, %tid.x, 8;
            add a1, param.X, r1;
            ld.global v, [a1];
            mul r2, %tid.x, 4;
            add o1, param.O, r2;
            st.global [o1], v;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(64)), O=mem.alloc(32))

        result, mem, params = _run(src, setup, block=(32, 1, 1))
        # Stride 8 bytes: 32 threads span 2 lines, every other word.
        assert result.stats["dac.affine_load_lines"] == 2
        got = mem.read_array(params["O"], 32)
        np.testing.assert_array_equal(got, np.arange(32) * 2)


class TestAtomics:
    def test_atomic_dequeue(self):
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            rem bin, tid, 8;
            mul r1, bin, 4;
            add h1, param.H, r1;
            atom.global [h1], 1;
        """

        def setup(mem):
            return dict(H=mem.alloc(8))

        result, mem, params = _run(src, setup, grid=(2, 1, 1))
        got = mem.read_array(params["H"], 8)
        np.testing.assert_array_equal(got, np.full(8, 16.0))
        assert result.stats["dac.deq_stores"] > 0


class TestEvictionAndBackPressure:
    def test_refetch_after_early_eviction_still_correct(self):
        """With locking disabled and a tiny L1, early lines are evicted
        before use; the dequeue path must refetch and stay correct."""
        tiny_l1 = dataclasses.replace(
            CFG,
            l1=dataclasses.replace(CFG.l1, size_bytes=512, ways=2),
            dac=dataclasses.replace(CFG.dac, lock_lines=False))
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mov acc, 0;
            mov i, 0;
        LOOP:
            mul r1, i, param.nb;
            mul r2, tid, 4;
            add r3, r1, r2;
            add a1, param.X, r3;
            ld.global v, [a1];
            add acc, acc, v;
            add i, i, 1;
            setp.lt p0, i, 8;
            @p0 bra LOOP;
            mul r4, tid, 4;
            add o1, param.O, r4;
            st.global [o1], acc;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(128 * 8)),
                        O=mem.alloc(128), nb=128 * 4)

        result, mem, params = _run(src, setup, grid=(2, 1, 1),
                                   config=tiny_l1)
        tid = np.arange(128)
        expected = sum(tid + i * 128 for i in range(8)).astype(float)
        np.testing.assert_array_equal(mem.read_array(params["O"], 128),
                                      expected)

    def test_deep_runahead_respects_queue_capacity(self):
        """A 64-iteration loop against 4-entry per-warp queues: the affine
        warp must throttle, and every record must still pair up."""
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mov acc, 0;
            mov i, 0;
        LOOP:
            mul r1, i, param.nb;
            mul r2, tid, 4;
            add r3, r1, r2;
            add a1, param.X, r3;
            ld.global v, [a1];
            add acc, acc, v;
            add i, i, 1;
            setp.lt p0, i, 64;
            @p0 bra LOOP;
            mul r4, tid, 4;
            add o1, param.O, r4;
            st.global [o1], acc;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.ones(64 * 64)),
                        O=mem.alloc(64), nb=64 * 4)

        result, mem, params = _run(src, setup)
        np.testing.assert_array_equal(mem.read_array(params["O"], 64),
                                      np.full(64, 64.0))
        s = result.stats
        assert s["dac.deq_loads"] == s["dac.affine_loads"] == 2 * 64
        assert s["dac.leftover_records"] == 0

    def test_lock_denial_path(self):
        """Stride-128 loads from many warps flood one L1: the AEU must hit
        the N-1 lock ceiling and fall back to unlocked requests."""
        small_l1 = dataclasses.replace(
            CFG, l1=dataclasses.replace(CFG.l1, size_bytes=2048, ways=4))
        src = """
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mul r1, tid, 128;
            add a1, param.X, r1;
            ld.global v, [a1];
            mul r2, tid, 4;
            add o1, param.O, r2;
            st.global [o1], v;
        """

        def setup(mem):
            return dict(X=mem.alloc_array(np.arange(256 * 32)),
                        O=mem.alloc(256))

        result, mem, params = _run(src, setup, grid=(2, 1, 1),
                                   block=(128, 1, 1), config=small_l1)
        np.testing.assert_array_equal(mem.read_array(params["O"], 256),
                                      np.arange(256) * 32)
        assert result.stats["dac.lock_denied"] > 0
