"""Baseline per-warp SIMT reconvergence stack (paper §3, §4.5 background).

Standard post-dominator reconvergence: a divergent branch pushes one entry
per path with the reconvergence PC (the branch block's immediate
post-dominator); an entry pops when its PC reaches its RPC.  Masks are
32-element bool arrays.
"""

from __future__ import annotations

import numpy as np


class SIMTStack:
    """Stack of (mask, pc, rpc) entries; the top entry is what executes."""

    __slots__ = ("_masks", "_pcs", "_rpcs", "max_depth")

    def __init__(self, initial_mask: np.ndarray, entry_pc: int = 0):
        self._masks: list[np.ndarray] = [initial_mask.copy()]
        self._pcs: list[int] = [entry_pc]
        self._rpcs: list[int] = [-1]          # sentinel: never pops
        self.max_depth = 1

    @property
    def pc(self) -> int:
        return self._pcs[-1]

    @pc.setter
    def pc(self, value: int) -> None:
        self._pcs[-1] = value
        self._pop_reconverged()

    @property
    def active_mask(self) -> np.ndarray:
        return self._masks[-1]

    @property
    def depth(self) -> int:
        return len(self._pcs)

    def _pop_reconverged(self) -> None:
        while len(self._pcs) > 1 and self._pcs[-1] == self._rpcs[-1]:
            self._pcs.pop()
            self._rpcs.pop()
            self._masks.pop()

    def diverge(self, taken_mask: np.ndarray, ntaken_mask: np.ndarray,
                target_pc: int, fallthrough_pc: int, rpc: int) -> None:
        """Split the top entry at a divergent branch.  Entries whose start PC
        already equals the RPC are not pushed (their lanes simply wait in the
        entry below)."""
        self._pcs[-1] = rpc
        self._pop_reconverged()
        if ntaken_mask.any() and fallthrough_pc != rpc:
            self._push(ntaken_mask, fallthrough_pc, rpc)
        if taken_mask.any() and target_pc != rpc:
            self._push(taken_mask, target_pc, rpc)

    def _push(self, mask: np.ndarray, pc: int, rpc: int) -> None:
        self._masks.append(mask.copy())
        self._pcs.append(pc)
        self._rpcs.append(rpc)
        self.max_depth = max(self.max_depth, len(self._pcs))
