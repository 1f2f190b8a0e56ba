"""Per-warp execution state for the timing model."""

from __future__ import annotations

import numpy as np

from ..isa.instructions import decoded_of
from .executor import WarpExecutor
from .launch import CTAState, KernelLaunch
from .simt_stack import SIMTStack


class WarpContext:
    """One warp: SIMT stack, architectural registers, and scoreboard.

    The scoreboard is a per-register count of outstanding writes; an
    instruction may issue only when every register it reads or writes has a
    zero count (in-order issue, stall-on-use).  The functional interpreter
    (:mod:`repro.sim.functional`) runs the same class without timing.
    """

    __slots__ = (
        "launch", "cta", "warp_in_cta", "slot", "width", "tx", "ty", "tz",
        "initial_mask", "stack", "regs", "preds", "pending", "mem_pending",
        "done", "at_barrier", "executor", "cae_stride", "cae_special",
        "last_issue",
        "code",                    # per-kernel Decoded list (shared)
        "sched",                   # owning scheduler (wake target)
        "_mask_facts_memo",        # (mask object, all, count) cache
        "pwaq", "pwpq",            # DAC per-warp queues (attached by DACSM)
    )

    def __init__(self, launch: KernelLaunch, cta: CTAState,
                 warp_in_cta: int, slot: int, width: int = 32):
        self.launch = launch
        self.cta = cta
        self.warp_in_cta = warp_in_cta
        self.slot = slot                    # hardware warp slot on the SM
        self.width = width
        bx, by, bz = launch.block_dim
        linear = np.arange(warp_in_cta * width, (warp_in_cta + 1) * width)
        self.initial_mask = linear < launch.threads_per_block
        linear = np.minimum(linear, launch.threads_per_block - 1)
        self.tx = (linear % bx).astype(np.float64)
        self.ty = ((linear // bx) % by).astype(np.float64)
        self.tz = (linear // (bx * by)).astype(np.float64)
        self.pending: dict[str, int] = {}
        self.mem_pending = 0                # outstanding load instructions
        self.done = False
        self.at_barrier = False
        self.cae_stride: dict[str, float | None] = {}
        self.cae_special: dict = {}         # SpecialReg -> stride (CAE)
        self.last_issue = 0
        self.code = decoded_of(launch.kernel)
        self.sched = None
        self._mask_facts_memo = None
        self.stack = SIMTStack(self.initial_mask)
        self.regs: dict[str, np.ndarray] = {}
        self.preds: dict[str, np.ndarray] = {}
        self.executor = WarpExecutor(self)

    # ---- geometry --------------------------------------------------------

    def special(self, family: str, dim: str):
        if family == "tid":
            return {"x": self.tx, "y": self.ty, "z": self.tz}[dim]
        axis = "xyz".index(dim)
        if family == "ntid":
            return float(self.launch.block_dim[axis])
        if family == "ctaid":
            return float(self.cta.block_idx[axis])
        if family == "nctaid":
            return float(self.launch.grid_dim[axis])
        raise ValueError(f"unknown special register %{family}.{dim}")

    @property
    def pc(self) -> int:
        return self.stack.pc

    # ---- scoreboard --------------------------------------------------------

    def acquire(self, name: str) -> None:
        self.pending[name] = self.pending.get(name, 0) + 1

    def release(self, name: str) -> None:
        self.pending[name] -= 1
        # A scoreboard release is a wake condition: the owning scheduler may
        # have cached this warp as blocked.
        sched = self.sched
        if sched is not None:
            sched._asleep = False

    def scoreboard_ready(self, decoded) -> bool:
        """No pending write to any register the instruction reads or
        writes (``decoded.scoreboard``)."""
        pending = self.pending
        if not pending:
            return True
        for name in decoded.scoreboard:
            if pending.get(name, 0):
                return False
        return True

    def _mask_facts(self, mask) -> tuple:
        """(mask, all, count) memoized on top-of-stack mask identity.

        SIMT-stack masks are copied on push and never mutated in place, so
        the array object is a sound cache key.  The issue and dequeue paths
        ask these questions on every walk/issue; without the cache the
        numpy reductions dominate.
        """
        count = int(np.count_nonzero(mask))
        facts = (mask, count == mask.shape[0], count)
        self._mask_facts_memo = facts
        return facts

    def active_all(self) -> bool:
        mask = self.stack.active_mask
        cached = self._mask_facts_memo
        if cached is not None and cached[0] is mask:
            return cached[1]
        return self._mask_facts(mask)[1]

    def active_count(self) -> int:
        mask = self.stack.active_mask
        cached = self._mask_facts_memo
        if cached is not None and cached[0] is mask:
            return cached[2]
        return self._mask_facts(mask)[2]

    # ---- issue masks -----------------------------------------------------

    def issue_mask(self, decoded):
        """(mask, active-lane count) for issuing ``decoded`` now: the
        top-of-stack mask with the guard predicate applied."""
        if decoded.guard_pred is None:
            return self.stack.active_mask, self.active_count()
        mask = self.executor.guard_mask(decoded.inst,
                                        self.stack.active_mask)
        return mask, int(np.count_nonzero(mask))

    def branch_split(self, mask):
        """(taken, ntaken, taken_any, ntaken_any) for a guarded branch:
        ``mask`` is the guard-applied taken set, ``ntaken`` the remaining
        active lanes."""
        ntaken = self.stack.active_mask & ~mask
        return mask, ntaken, bool(mask.any()), bool(ntaken.any())
