"""Control-flow graph over kernel instructions.

Provides basic blocks, edges, immediate post-dominators (the reconvergence
points used by both the baseline SIMT stack and the compiler's divergent
affine analysis, paper §4.7 / Fig. 15), and reaching-definition preliminaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..isa import Instruction, Kernel


@dataclass
class BasicBlock:
    index: int                      # block id
    start: int                      # first instruction index
    end: int                        # one past last instruction index
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def instructions(self, kernel: Kernel) -> list[Instruction]:
        return kernel.instructions[self.start:self.end]

    def __hash__(self) -> int:
        return self.index


class CFG:
    """Basic blocks + dominance info for one kernel."""

    EXIT = -1     # virtual exit node id in the block graph

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.blocks: list[BasicBlock] = []
        self._block_of_inst: list[int] = []
        self._build()
        self._ipdom = self._compute_ipdom()

    # ---- construction ----------------------------------------------------

    def _build(self) -> None:
        insts = self.kernel.instructions
        leaders = {0}
        for idx, inst in enumerate(insts):
            if inst.is_branch:
                leaders.add(self.kernel.target_index(inst.target))
                if idx + 1 < len(insts):
                    leaders.add(idx + 1)
            elif inst.is_exit and idx + 1 < len(insts):
                leaders.add(idx + 1)
        starts = sorted(leaders)
        bounds = list(zip(starts, starts[1:] + [len(insts)]))
        start_to_block = {s: i for i, (s, _) in enumerate(bounds)}
        self.blocks = [BasicBlock(i, s, e) for i, (s, e) in enumerate(bounds)]
        self._block_of_inst = [0] * len(insts)
        for block in self.blocks:
            for idx in range(block.start, block.end):
                self._block_of_inst[idx] = block.index
        for block in self.blocks:
            last = insts[block.end - 1]
            succs: list[int] = []
            if last.is_branch:
                succs.append(start_to_block[
                    self.kernel.target_index(last.target)])
                if last.guard is not None and block.end < len(insts):
                    succs.append(start_to_block[block.end])
            elif last.is_exit:
                pass
            elif block.end < len(insts):
                succs.append(start_to_block[block.end])
            block.successors = succs
            for s in succs:
                self.blocks[s].predecessors.append(block.index)

    def block_of(self, inst_index: int) -> BasicBlock:
        return self.blocks[self._block_of_inst[inst_index]]

    # ---- dominance ---------------------------------------------------------

    def _graph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_node(self.EXIT)
        for block in self.blocks:
            g.add_node(block.index)
            for s in block.successors:
                g.add_edge(block.index, s)
            if not block.successors or \
                    self.kernel.instructions[block.end - 1].is_exit:
                g.add_edge(block.index, self.EXIT)
        return g

    def _compute_ipdom(self) -> dict[int, int]:
        """Immediate post-dominator per block (block ids; EXIT for none)."""
        reversed_graph = self._graph().reverse()
        idom = nx.immediate_dominators(reversed_graph, self.EXIT)
        return {b: d for b, d in idom.items() if b != self.EXIT}

    def reconvergence_pc(self, branch_index: int) -> int:
        """Instruction index where threads diverging at ``branch_index``
        reconverge; ``len(kernel)`` when they only meet at exit."""
        block = self.block_of(branch_index)
        ipdom = self._ipdom.get(block.index, self.EXIT)
        if ipdom == self.EXIT:
            return len(self.kernel.instructions)
        return self.blocks[ipdom].start

    # ---- traversal helpers ---------------------------------------------

    def reverse_postorder(self) -> list[int]:
        g = self._graph()
        g.remove_node(self.EXIT)
        order = list(nx.dfs_postorder_nodes(g, source=0))
        order.reverse()
        missing = [b.index for b in self.blocks if b.index not in set(order)]
        return order + missing
