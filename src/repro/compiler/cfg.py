"""Control-flow graph over kernel instructions.

Provides basic blocks, edges, immediate post-dominators (the reconvergence
points used by both the baseline SIMT stack and the compiler's divergent
affine analysis, paper §4.7 / Fig. 15), and reaching-definition preliminaries.

The graph routines are plain functions over a successor callback, so the
compiler and the lint passes share one DFS and one SCC walk.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from functools import reduce
from typing import TypeVar

from ..isa import Instruction, Kernel

N = TypeVar("N", bound=Hashable)


def postorder(root: N, succs: Callable[[N], Iterable[N]]) -> list[N]:
    """Depth-first postorder of the nodes reachable from ``root``, taking
    each node's edges in ``succs`` order (iterative: no recursion limit)."""
    seen = {root}
    order: list[N] = []
    work = [(root, iter(succs(root)))]
    while work:
        node, edges = work[-1]
        for nxt in edges:
            if nxt not in seen:
                seen.add(nxt)
                work.append((nxt, iter(succs(nxt))))
                break
        else:
            work.pop()
            order.append(node)
    return order


def immediate_dominators(root: N, succs: Callable[[N], Iterable[N]],
                         preds: Callable[[N], Iterable[N]]) -> dict[N, N]:
    """Immediate dominator of every node reachable from ``root`` (the root
    maps to itself), by the Cooper–Harvey–Kennedy iteration over reverse
    postorder.  ``preds`` may name nodes unreachable from ``root``."""
    order = postorder(root, succs)
    rank = {node: i for i, node in enumerate(order)}
    idom = {root: root}

    def intersect(a, b):
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(order[:-1]):
            # An earlier node in reverse postorder (the DFS parent at
            # least) is always processed.
            new = reduce(intersect, [p for p in preds(node) if p in idom])
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


def strongly_connected_components(
        nodes: Iterable[N], succs: Callable[[N], Iterable[N]]) -> list[list[N]]:
    """The SCCs of the graph, in topological order (an SCC comes before
    every SCC it has an edge to).  Iterative Tarjan."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    stack: list[N] = []
    on_stack: set[N] = set()
    sccs: list[list[N]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succs(root)))]
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succs(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
    sccs.reverse()              # Tarjan emits sinks first
    return sccs


def cyclic_nodes(nodes: Iterable[N], succs: Callable[[N], Iterable[N]]) -> set[N]:
    """The nodes that lie on a cycle: each is reachable from its own
    successors."""
    loops: set[N] = set()
    for scc in strongly_connected_components(nodes, succs):
        if len(scc) > 1 or scc[0] in succs(scc[0]):
            loops.update(scc)
    return loops


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

    def _compute_ipdom(self) -> dict[int, int]:
        """Immediate post-dominator per block (block ids; EXIT for none):
        the immediate dominators of the reversed block graph, rooted at
        EXIT.  A block with no successors (it ends in ``exit`` or falls off
        the kernel) has the one edge to EXIT; a block that cannot reach
        EXIT has no entry."""
        blocks = self.blocks
        exits = [b.index for b in blocks if not b.successors]

        def reversed_succs(node: int) -> list[int]:
            return exits if node == self.EXIT else blocks[node].predecessors

        def reversed_preds(node: int) -> list[int]:
            return blocks[node].successors or [self.EXIT]

        idom = immediate_dominators(self.EXIT, reversed_succs,
                                    reversed_preds)
        del idom[self.EXIT]
        return idom

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
        """Blocks reachable from the entry in reverse DFS postorder
        (successors taken in list order), then the unreachable ones."""
        order = postorder(0, lambda b: self.blocks[b].successors)
        order.reverse()
        reached = set(order)
        return order + [b.index for b in self.blocks
                        if b.index not in reached]
