"""Compact Affine Execution baseline (Kim et al. [13], paper §5.1.1).

CAE adds affine functional units beside the SIMT lanes and *dynamically*
tracks which registers hold affine values (a base + a single per-lane
stride across the warp).  Warp instructions whose operands are affine and
whose opcode the affine unit supports execute there instead of on the SIMT
lanes, halving their issue occupancy (two affine units, one per scheduler).
CAE removes redundancy only *within* a warp — every warp still executes
every instruction, which is exactly the limitation DAC lifts (Fig. 3).

CAE cannot execute affine instructions after divergence and requires all 32
threads of a warp to follow a single stride pattern (so benchmarks whose
last-level block dimension is under 32, like BP, only get scalar coverage —
§5.4).
"""

from __future__ import annotations

import numpy as np

from ..isa import CAE_CAPABLE_OPS, Immediate, Instruction, Opcode, Param, \
    PredReg, Register, SpecialReg
from ..sim.sm import SM
from ..sim.warp import WarpContext


def _value_stride(values) -> float | None:
    """The per-lane stride if ``values`` is an arithmetic sequence over the
    warp, else None.  Scalars have stride 0."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return 0.0
    diffs = arr[1:] - arr[:-1]               # np.diff, without its checks
    stride = float(diffs[0]) if len(diffs) else 0.0
    if np.all(diffs == stride):
        return stride
    return None


def _launch_mask(warp: WarpContext, mask: np.ndarray) -> bool:
    """``mask`` equals the warp's launch mask.  The bottom SIMT-stack entry
    is a copy of it that nothing mutates, so while the stack has depth 1
    its top mask answers by identity, without a compare."""
    stack = warp.stack
    if mask is stack.active_mask and stack.depth == 1:
        return True
    return np.array_equal(mask, warp.initial_mask)


class CAESM(SM):
    """SM with two affine functional units (runtime affine tracking)."""

    def __init__(self, gpu, index: int):
        super().__init__(gpu, index)
        self._issued_affine = False

    # ---- operand stride inspection --------------------------------------

    def _operand_stride(self, warp: WarpContext, op) -> float | None:
        if isinstance(op, Register):
            return warp.cae_stride.get(op.name)
        if isinstance(op, (Immediate, Param)):
            return 0.0
        if isinstance(op, SpecialReg):
            # Geometry registers are fixed for the warp's lifetime.
            cache = warp.cae_special
            if op not in cache:
                cache[op] = _value_stride(warp.special(op.family, op.dim))
            return cache[op]
        if isinstance(op, PredReg):
            return None
        return None

    def _affine_eligible(self, warp: WarpContext, inst: Instruction,
                         mask: np.ndarray) -> bool:
        if inst.opcode not in CAE_CAPABLE_OPS:
            return False
        if inst.guard is not None:
            return False                      # no predication on affine units
        if not _launch_mask(warp, mask):
            return False                      # no divergence support [13]
        strides = [self._operand_stride(warp, op) for op in inst.srcs]
        if any(s is None for s in strides):
            return False
        if inst.opcode in (Opcode.MUL, Opcode.MAD):
            # The product needs at least one uniform (stride-0) side.
            a, b = strides[0], strides[1]
            if a != 0.0 and b != 0.0:
                return False
        return True

    # ---- hooks -------------------------------------------------------------

    def issue(self, warp, decoded, now: int) -> int:
        self._issued_affine = False
        interval = super().issue(warp, decoded, now)
        inst = decoded.inst
        if not decoded.counts_alu and decoded.dst_name is not None \
                and isinstance(warp, WarpContext):
            # Loads (and any non-ALU writer) break the affine tag.
            for dst in inst.written_regs():
                if isinstance(dst, Register):
                    warp.cae_stride[dst.name] = None
        if self._issued_affine:
            return 1                           # affine unit: off the lanes
        return interval

    def on_alu_executed(self, warp: WarpContext, inst: Instruction,
                        mask: np.ndarray) -> None:
        eligible = self._affine_eligible(warp, inst, mask)
        if eligible:
            self._issued_affine = True
            self.stats.add("cae.affine_instructions")
            # The affine unit computes the (base, stride) pair: roughly two
            # ALU ops instead of 32 lane ops.
            self.stats.add("cae.affine_alu_ops", 2)
            self.stats.add("alu_ops", -int(np.count_nonzero(mask)) + 2)
        for dst in inst.written_regs():
            if not isinstance(dst, Register):
                continue
            if _launch_mask(warp, mask) or mask.all():
                warp.cae_stride[dst.name] = _value_stride(
                    warp.regs.get(dst.name, 0.0))
            else:
                warp.cae_stride[dst.name] = None
