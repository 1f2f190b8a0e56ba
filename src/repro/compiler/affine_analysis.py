"""Affine operand classification and control-dependence analysis (§4.7).

Implements the paper's iterative type propagation over the CFG: every
operand is scalar, affine, or non-affine; definitions start scalar and are
promoted monotonically until a fixpoint.  Also classifies branches by the
class of their predicate (scalar branches are uniform per CTA, affine
branches diverge along thread IDs, non-affine branches are data dependent)
and computes which instructions are control-dependent on which branches.
"""

from __future__ import annotations

from collections import defaultdict

from ..affine import OperandClass, join, leaf_class, result_class
from ..isa import Kernel, PredReg
from .cfg import CFG, cyclic_nodes
from .dataflow import ReachingDefs


class AffineAnalysis:
    """All static analyses the decoupler needs, for one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.cfg = CFG(kernel)
        self.reaching = ReachingDefs(kernel, self.cfg)
        #: class of the value each defining instruction writes
        self.def_class: dict[int, OperandClass] = {}
        self._classify()
        self.control_deps = self._control_dependence()
        self.loop_blocks = self._loop_blocks()

    # ---- classification fixpoint ---------------------------------------

    def _use_class(self, inst_index: int, op) -> OperandClass:
        leaf = leaf_class(op)
        if leaf is not None:
            return leaf
        defs = self.reaching.reaching(inst_index, op.name)
        if not defs:
            return OperandClass.SCALAR       # read-before-write: zero
        return join(*(self.def_class.get(d, OperandClass.SCALAR)
                      for d in defs))

    def _classify(self) -> None:
        insts = self.kernel.instructions
        for idx, inst in enumerate(insts):
            if inst.written_regs():
                self.def_class[idx] = OperandClass.SCALAR
        changed = True
        while changed:
            changed = False
            for idx, inst in enumerate(insts):
                if not inst.written_regs():
                    continue
                src_classes = [self._use_class(idx, op) for op in inst.srcs]
                new = result_class(inst.opcode, src_classes, inst.cmp)
                if isinstance(inst.guard, PredReg):
                    # A guarded write merges with the previous value: the
                    # observable result joins the old definitions, and a
                    # non-affine guard makes the merge untrackable.
                    guard_class = self._use_class(idx, inst.guard)
                    if guard_class is OperandClass.NONAFFINE:
                        new = OperandClass.NONAFFINE
                    for dst in inst.written_regs():
                        for d in self.reaching.reaching(idx, dst.name):
                            new = join(new, self.def_class[d])
                if new != self.def_class[idx]:
                    self.def_class[idx] = new
                    changed = True

    # ---- per-instruction queries ------------------------------------------

    def operand_class(self, inst_index: int, op) -> OperandClass:
        return self._use_class(inst_index, op)

    def address_class(self, inst_index: int) -> OperandClass:
        """Class of a memory instruction's address computation."""
        ref = self.kernel.instructions[inst_index].mem_ref()
        if ref is None:
            return OperandClass.NONAFFINE
        return self._use_class(inst_index, ref.address)

    def branch_kind(self, inst_index: int) -> str:
        """'uniform' (no guard), 'scalar', 'affine', or 'nonaffine'."""
        inst = self.kernel.instructions[inst_index]
        if inst.guard is None:
            return "uniform"
        cls = self._use_class(inst_index, inst.guard)
        return {OperandClass.SCALAR: "scalar",
                OperandClass.AFFINE: "affine",
                OperandClass.NONAFFINE: "nonaffine"}[cls]

    def is_potentially_affine(self, inst_index: int) -> bool:
        """Paper Fig. 6: instructions computing on scalar data and thread
        IDs, before divergence and instruction-type restrictions apply."""
        inst = self.kernel.instructions[inst_index]
        if inst.is_memory:
            return self.address_class(inst_index) is not OperandClass.NONAFFINE
        if inst.is_branch:
            return self.branch_kind(inst_index) in ("uniform", "scalar",
                                                    "affine")
        if inst.is_barrier or inst.is_exit or inst.is_enq:
            return False
        if not inst.written_regs():
            return False
        return self.def_class[inst_index] is not OperandClass.NONAFFINE

    def potential_affine_fractions(self) -> dict[str, float]:
        """Fig. 6 data: fraction of static instructions that are potentially
        affine, per category (of all instructions)."""
        total = len(self.kernel.instructions)
        counts = defaultdict(int)
        for idx, inst in enumerate(self.kernel.instructions):
            if self.is_potentially_affine(idx):
                counts[inst.category] += 1
        return {cat: counts[cat] / total
                for cat in ("arithmetic", "memory", "branch")}

    # ---- control dependence ----------------------------------------------

    def _control_dependence(self) -> dict[int, set[int]]:
        """Map: instruction index -> set of conditional-branch instruction
        indices it is control-dependent on (region between the branch and
        its reconvergence point)."""
        deps: dict[int, set[int]] = defaultdict(set)
        insts = self.kernel.instructions
        for idx, inst in enumerate(insts):
            if not inst.is_branch or inst.guard is None:
                continue
            recon = self.cfg.reconvergence_pc(idx)
            recon_block = (self.cfg.block_of(recon).index
                           if recon < len(insts) else CFG.EXIT)
            branch_block = self.cfg.block_of(idx)
            seen: set[int] = set()
            stack = list(branch_block.successors)
            while stack:
                b = stack.pop()
                if b == recon_block or b in seen:
                    continue
                seen.add(b)
                stack.extend(self.cfg.blocks[b].successors)
            for b in seen:
                block = self.cfg.blocks[b]
                for i in range(block.start, block.end):
                    deps[i].add(idx)
            # The region between a branch and its reconvergence includes the
            # tail of the branch's own block?  No: the branch ends its block.
        return deps

    def _loop_blocks(self) -> set[int]:
        blocks = self.cfg.blocks
        return cyclic_nodes(range(len(blocks)),
                            lambda b: blocks[b].successors)

    def in_loop(self, inst_index: int) -> bool:
        return self.cfg.block_of(inst_index).index in self.loop_blocks

    def nonaffine_control_dep(self, inst_index: int) -> bool:
        return any(self.branch_kind(b) == "nonaffine"
                   for b in self.control_deps.get(inst_index, ()))

    def affine_conditions(self, inst_indices: set[int]) -> set[int]:
        """Distinct affine (thread-divergent) branches that any of the given
        instructions is control-dependent on — the §4.6 'divergent affine
        conditions'."""
        conds: set[int] = set()
        for idx in inst_indices:
            for b in self.control_deps.get(idx, ()):
                if self.branch_kind(b) == "affine":
                    conds.add(b)
        return conds
