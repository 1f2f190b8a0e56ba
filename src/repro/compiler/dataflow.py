"""Reaching-definition analysis over the kernel CFG (paper §4.7)."""

from __future__ import annotations

from collections import defaultdict

from ..isa import Kernel, PredReg
from .cfg import CFG


class ReachingDefs:
    """Classic iterative reaching definitions at instruction granularity.

    A *definition* is the index of an instruction that writes a register.
    ``reaching(idx, reg)`` returns the definition indices that may reach the
    entry of instruction ``idx`` for register ``reg`` (empty set = the
    register is read before any write; it evaluates as zero).
    """

    def __init__(self, kernel: Kernel, cfg: CFG):
        self.kernel = kernel
        self.cfg = cfg
        self._defs_of_reg: dict[str, set[int]] = defaultdict(set)
        for idx, inst in enumerate(kernel.instructions):
            for reg in inst.written_regs():
                self._defs_of_reg[reg.name].add(idx)
        self._block_in = self._solve()
        self._at_entry: list[dict[str, frozenset[int]]] = \
            self._per_instruction()

    # ---- block-level fixpoint ----------------------------------------

    def _block_gen_kill(self, block):
        gen: dict[str, int] = {}
        kill: set[str] = set()
        for idx in range(block.start, block.end):
            for reg in self.kernel.instructions[idx].written_regs():
                gen[reg.name] = idx
                kill.add(reg.name)
        return gen, kill

    def _solve(self):
        blocks = self.cfg.blocks
        gen_kill = [self._block_gen_kill(b) for b in blocks]
        block_in = [defaultdict(set) for _ in blocks]
        block_out = [defaultdict(set) for _ in blocks]
        changed = True
        while changed:
            changed = False
            for block in blocks:
                bin_ = defaultdict(set)
                for pred in block.predecessors:
                    for reg, defs in block_out[pred].items():
                        bin_[reg] |= defs
                gen, kill = gen_kill[block.index]
                bout = defaultdict(set)
                for reg, defs in bin_.items():
                    if reg not in kill:
                        bout[reg] |= defs
                for reg, def_idx in gen.items():
                    bout[reg].add(def_idx)
                if bout != block_out[block.index] or \
                        bin_ != block_in[block.index]:
                    block_in[block.index] = bin_
                    block_out[block.index] = bout
                    changed = True
        return block_in

    def _per_instruction(self):
        result = [dict() for _ in self.kernel.instructions]
        for block in self.cfg.blocks:
            live = {reg: frozenset(defs)
                    for reg, defs in self._block_in[block.index].items()}
            for idx in range(block.start, block.end):
                result[idx] = dict(live)
                inst = self.kernel.instructions[idx]
                for reg in inst.written_regs():
                    live = dict(live)
                    live[reg.name] = frozenset({idx})
        return result

    # ---- queries -----------------------------------------------------

    def reaching(self, inst_index: int, reg_name: str) -> frozenset[int]:
        return self._at_entry[inst_index].get(reg_name, frozenset())

    def backward_slice(self, roots: set[int],
                       reg_filter=None) -> set[int]:
        """All definitions transitively feeding the register sources of the
        ``roots`` instructions.  ``reg_filter(inst_index, reg_name)`` can
        restrict which source registers of a *root* are followed (e.g. only
        the address operand of a store)."""
        worklist = list(roots)
        slice_: set[int] = set()
        first = set(roots)
        while worklist:
            idx = worklist.pop()
            inst = self.kernel.instructions[idx]
            for op in inst.read_regs():
                if idx in first and reg_filter is not None \
                        and not reg_filter(idx, op.name):
                    continue
                for def_idx in self.reaching(idx, op.name):
                    if def_idx not in slice_:
                        slice_.add(def_idx)
                        worklist.append(def_idx)
            # Guarded writes merge with the previous value of the dest.
            if inst.guard is not None and isinstance(inst.guard, PredReg):
                for dst in inst.written_regs():
                    for def_idx in self.reaching(idx, dst.name):
                        if def_idx not in slice_:
                            slice_.add(def_idx)
                            worklist.append(def_idx)
        return slice_
