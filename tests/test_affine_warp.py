"""Unit tests for the affine warp executor (AffineCTAExec) in isolation."""

import numpy as np

from repro.affine import AffinePredicate, DivergentSet
from repro.compiler.cfg import CFG
from repro.core.affine_warp import AffineCTAExec, ConcreteExpr
from repro.core.queues import ATQ, BarrierMarker, TupleEntry
from repro.isa import parse_kernel
from repro.sim import GPUConfig, GlobalMemory, KernelLaunch
from repro.sim.launch import CTAState
from repro.stats import Stats
from repro.trace import NULL_TRACER


class _FakeSM:
    """Just enough SM surface for AffineCTAExec."""

    def __init__(self):
        self.stats = Stats()
        self.warps = []
        self.atq_mem = ATQ(64)
        self.atq_pred = ATQ(64)
        self.config = GPUConfig(num_sms=1)
        self.trace_on = False
        self.tracer = NULL_TRACER


def make_exec(source, params=(), block=(64, 1, 1), param_values=None):
    kernel = parse_kernel(source, name="aff", params=params)
    mem = GlobalMemory(1 << 16)
    launch = KernelLaunch(kernel, (1, 1, 1), block, param_values or {}, mem)
    cta = CTAState((0, 0, 0), launch)
    sm = _FakeSM()
    sm.atq_mem.register_cta(id(cta))
    sm.atq_pred.register_cta(id(cta))
    exec_ = AffineCTAExec(sm, cta, kernel, CFG(kernel))
    return exec_, sm, cta


def run_to_completion(exec_, limit=1000):
    for _ in range(limit):
        if exec_.done:
            return
        assert exec_.ready(0)
        exec_.step(0)
    raise AssertionError("affine stream did not finish")


class TestTupleExecution:
    def test_address_chain(self):
        exec_, sm, cta = make_exec("""
            mul r1, %tid.x, 4;
            add addr, param.A, r1;
            enq.data.global addr;
        """, params=("A",), param_values=dict(A=0x1000))
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert isinstance(entry, TupleEntry)
        assert entry.expr.base == 0x1000
        assert entry.expr.offsets[0] == 4.0

    def test_ctaid_folds_into_base(self):
        exec_, sm, cta = make_exec("""
            mul r0, %ctaid.x, %ntid.x;
            add tid, %tid.x, r0;
            mul r1, tid, 4;
            enq.addr.global r1;
        """)
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        # ctaid.x == 0 for this CTA; offset from tid.x survives.
        assert entry.expr.offsets[0] == 4.0

    def test_scalar_loop_executes_n_times(self):
        exec_, sm, cta = make_exec("""
            mov i, 0;
        LOOP:
            mul r1, i, 4;
            add a1, param.A, r1;
            enq.data.global a1;
            add i, i, 1;
            setp.lt p0, i, 5;
            @p0 bra LOOP;
        """, params=("A",), param_values=dict(A=0))
        run_to_completion(exec_)
        entries = []
        while sm.atq_mem.head(id(cta)) is not None:
            entries.append(sm.atq_mem.pop(id(cta)))
        assert len(entries) == 5
        assert [e.expr.base for e in entries] == [0, 4, 8, 12, 16]

    def test_affine_branch_diverges_stack(self):
        exec_, sm, cta = make_exec("""
            setp.lt p1, %tid.x, 16;
            @!p1 bra SKIP;
            mul r1, %tid.x, 4;
            enq.addr.global r1;
        SKIP:
            exit;
        """)
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert entry.mask.sum() == 16               # only tid < 16 enqueued
        assert sm.stats["dac.wls_writes"] >= 1

    def test_guarded_enq_with_empty_mask_skipped(self):
        exec_, sm, cta = make_exec("""
            setp.lt p1, %tid.x, 0;
            mul r1, %tid.x, 4;
            @p1 enq.addr.global r1;
        """)
        run_to_completion(exec_)
        assert sm.atq_mem.head(id(cta)) is None

    def test_barrier_pushes_markers_to_both_lanes(self):
        exec_, sm, cta = make_exec("""
            bar.sync;
            mul r1, %tid.x, 4;
            enq.addr.global r1;
        """)
        run_to_completion(exec_)
        assert isinstance(sm.atq_mem.head(id(cta)), BarrierMarker)
        assert isinstance(sm.atq_pred.head(id(cta)), BarrierMarker)
        assert exec_.barriers_seen == 1

    def test_divergent_merge_creates_set_and_dcrf(self):
        exec_, sm, cta = make_exec("""
            setp.lt p1, %tid.x, 8;
            mul off, %tid.x, 4;
            @p1 mov off, 0;
            enq.addr.global off;
        """)
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert isinstance(entry.expr, DivergentSet)
        assert sm.stats["dac.dcrf_writes"] == 1
        values = entry.expr.evaluate_with(exec_.tx, exec_.ty, exec_.tz,
                                          exec_.dcrf)
        expected = np.where(np.arange(64) < 8, 0.0, np.arange(64) * 4.0)
        np.testing.assert_array_equal(values, expected)

    def test_concrete_fallback_on_unsupported_op(self):
        # Re-modding a mod tuple is not tuple-expressible: §3 fallback.
        exec_, sm, cta = make_exec("""
            mul r1, %tid.x, 4;
            rem r2, r1, 64;
            mul r3, r2, 4;
            rem r4, r3, 32;
            enq.addr.global r4;
        """)
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert isinstance(entry.expr, ConcreteExpr)
        expected = np.mod(np.mod(np.arange(64) * 4, 64) * 4, 32)
        np.testing.assert_array_equal(entry.expr.values, expected)

    def test_enq_pred_scalar(self):
        exec_, sm, cta = make_exec("""
            setp.lt p0, 3, 5;
            enq.pred p0;
        """)
        run_to_completion(exec_)
        entry = sm.atq_pred.head(id(cta))
        assert isinstance(entry.expr, AffinePredicate)
        assert entry.expr.is_scalar and entry.expr.scalar_value

    def test_ready_false_when_atq_full(self):
        exec_, sm, cta = make_exec("""
            mul r1, %tid.x, 4;
            enq.addr.global r1;
        """)
        sm.atq_mem = ATQ(0)
        sm.atq_mem.register_cta(id(cta))
        exec_.step(0)                               # mul
        assert not exec_.ready(0)                   # enq blocked

    def test_mem_ref_displacement(self):
        exec_, sm, cta = make_exec("""
            mul r1, %tid.x, 4;
            enq.data.global [r1+8];
        """, params=())
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert entry.expr.base == 8.0

    def test_2d_block_offsets(self):
        exec_, sm, cta = make_exec("""
            mul ry, %tid.y, 100;
            add v, ry, %tid.x;
            enq.addr.global v;
        """, block=(16, 4, 1))
        run_to_completion(exec_)
        entry = sm.atq_mem.head(id(cta))
        assert entry.expr.offsets == (1.0, 100.0, 0.0)
