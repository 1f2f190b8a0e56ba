"""Hang paths must terminate with a structured, actionable report.

Both guard rails in the main loop — the ``max_cycles`` bound and the
no-progress detector — raise :class:`SimulationHang` carrying the
per-scheduler stall attribution, DAC queue occupancies, and a per-warp
state table, so a wedged run explains itself instead of printing a bare
cycle count.  The wedge kernels here are deterministic: an infinite loop
(max_cycles), and two hand-edited decoupled programs run through
``run_dac(..., program=)``: an affine stream missing its last ``enq``
starving a dequeue (queue starvation), and a warp that dequeues one record
too many on one side of a barrier (barrier mismatch).
"""

import dataclasses

import pytest

from repro.analysis.fixtures import drop_last_enq
from repro.compiler.decouple import decouple
from repro.compiler.verifier import verify
from repro.core import run_dac
from repro.isa import parse_kernel
from repro.sim import (
    DeadlockError,
    GPUConfig,
    GlobalMemory,
    KernelLaunch,
    SimulationHang,
    simulate,
)

CFG = GPUConfig(num_sms=1)


def _launch(source, block=(32, 1, 1), params=None):
    mem = GlobalMemory(1 << 20)
    params = params if params is not None else {}
    kernel = parse_kernel(source, name="t", params=tuple(params))
    return KernelLaunch(kernel, (1, 1, 1), block, params, mem)


COPY = """
    mul r0, %ctaid.x, %ntid.x;
    add tid, %tid.x, r0;
    mul r1, tid, 4;
    add xaddr, param.X, r1;
    ld.global xv, [xaddr];
    add oaddr, param.O, r1;
    st.global [oaddr], xv;
"""

COPY_BARRIER = """
    mul r0, %ctaid.x, %ntid.x;
    add tid, %tid.x, r0;
    mul r1, tid, 4;
    add xaddr, param.X, r1;
    ld.global xv, [xaddr];
    bar.sync;
    add oaddr, param.O, r1;
    st.global [oaddr], xv;
"""


#: Inserted before the non-affine stream's ``bar``: warp 0 (tid < 32)
#: dequeues a second data record that the affine stream never enqueues.
STARVE_WARP0 = """
    setp.ge p0, %tid.x, 32;
    @p0 bra SKIP;
    ld.global xw, deq.data;
SKIP:
"""


def _copy_launch(source, block):
    mem = GlobalMemory(1 << 20)
    params = dict(X=mem.alloc(64), O=mem.alloc(64))
    kernel = parse_kernel(source, name="t", params=tuple(params))
    assert verify(decouple(kernel)).ok
    return KernelLaunch(kernel, (1, 1, 1), block, params, mem)


def _starve_warp0_before_barrier(program):
    nonaffine = program.nonaffine
    text = "\n".join(str(inst) for inst in nonaffine.instructions)
    assert text.count("bar;") == 1
    text = text.replace("bar;", STARVE_WARP0 + "bar;")
    return dataclasses.replace(program, nonaffine=parse_kernel(
        text, name=nonaffine.name, params=nonaffine.params))


class TestMaxCyclesPath:
    SRC = """
    LOOP:
        mov r0, 1;
        bra LOOP;
    """

    def _hang(self):
        launch = _launch(self.SRC)
        config = dataclasses.replace(CFG, max_cycles=2000)
        with pytest.raises(SimulationHang) as info:
            simulate(launch, config)
        return info.value

    def test_is_still_a_deadlock_error(self):
        # Callers that catch DeadlockError keep working.
        assert issubclass(SimulationHang, DeadlockError)
        launch = _launch(self.SRC)
        config = dataclasses.replace(CFG, max_cycles=2000)
        with pytest.raises(DeadlockError):
            simulate(launch, config)

    def test_carries_full_report(self):
        hang = self._hang()
        assert hang.reason == "max_cycles"
        assert hang.cycle >= 2000
        assert hang.last_progress_cycle <= hang.cycle
        assert hang.stall_snapshot          # per-scheduler attribution
        assert hang.warp_states
        text = str(hang)
        assert "max_cycles" in text
        assert "scheduler stalls" in text
        assert "warp slot" in text


class TestQueueStarvation:
    def test_record_drop_starves_dequeue(self):
        """Without the store's ``enq`` the warp's last record never comes,
        so the consumer waits on an empty PWAQ with no event ever coming:
        the no-progress detector must fire and attribute the stall to the
        empty queue."""
        launch = _copy_launch(COPY, block=(32, 1, 1))
        program = drop_last_enq(decouple(launch.kernel))
        with pytest.raises(SimulationHang) as info:
            run_dac(launch, CFG, program=program)
        hang = info.value
        assert hang.reason == "no_progress"
        assert "queue_empty" in hang.stall_snapshot
        assert 0 in hang.queue_occupancy
        occ = hang.queue_occupancy[0]
        assert set(occ) == {"atq_mem", "atq_pred", "pwaq", "pwpq"}
        text = str(hang)
        assert "queues:" in text
        assert "simulation hang" in text


class TestBarrierMismatch:
    def test_starved_warp_wedges_its_barrier_partner(self):
        """Warp 0 waits for a record that never comes, so it never reaches
        the barrier; warp 1 waits there forever.  The hang report must show
        both the empty-queue stall and the barrier wait."""
        launch = _copy_launch(COPY_BARRIER, block=(64, 1, 1))
        program = _starve_warp0_before_barrier(decouple(launch.kernel))
        with pytest.raises(SimulationHang) as info:
            run_dac(launch, CFG, program=program)
        hang = info.value
        assert hang.reason == "no_progress"
        assert "queue_empty" in hang.stall_snapshot
        assert "barrier" in hang.stall_snapshot
        text = str(hang)
        assert "barrier=True" in text       # warp 1 parked at the barrier
        assert "barrier=False" in text      # warp 0 never got there
