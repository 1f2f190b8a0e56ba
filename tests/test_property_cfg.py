"""Property tests for the CFG graph routines (``repro.compiler.cfg``).

Random block graphs of up to 8 nodes check each routine against its
definition, computed the slow way: post-dominance by deleting a block and
searching for EXIT, and loops and strongly-connected components by
transitive-closure reachability."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cfg import (
    CFG,
    BasicBlock,
    cyclic_nodes,
    strongly_connected_components,
)


@st.composite
def block_graphs(draw) -> list[list[int]]:
    """Successor lists, as a kernel's blocks have them: at most two
    (branch target, fall-through), possibly the same block twice."""
    n = draw(st.integers(1, 8))
    return [draw(st.lists(st.integers(0, n - 1), max_size=2))
            for _ in range(n)]


def cfg_of(succs: list[list[int]]) -> CFG:
    """A CFG over the given block graph.  The graph routines read only
    ``blocks``, so no kernel is needed; a block without successors leaves
    the kernel (its edge goes to EXIT)."""
    cfg = CFG.__new__(CFG)
    cfg.blocks = [BasicBlock(i, i, i + 1, list(s))
                  for i, s in enumerate(succs)]
    for block in cfg.blocks:
        for s in block.successors:
            cfg.blocks[s].predecessors.append(block.index)
    return cfg


def reachable(succs: list[list[int]], start: int, removed=None) -> set[int]:
    """Nodes reachable from ``start`` by one or more edges, never entering
    ``removed``."""
    seen: set[int] = set()
    work = [s for s in succs[start] if s != removed]
    while work:
        node = work.pop()
        if node not in seen:
            seen.add(node)
            work.extend(s for s in succs[node] if s != removed)
    return seen


def reaches_exit(succs, start: int, removed=None) -> bool:
    nodes = {start} | reachable(succs, start, removed)
    return any(not succs[n] for n in nodes if n != removed)


@given(block_graphs())
@settings(max_examples=300, deadline=None)
def test_ipdom_matches_post_dominance_definition(succs):
    ipdom = cfg_of(succs)._compute_ipdom()
    for b in range(len(succs)):
        if not reaches_exit(succs, b):
            assert b not in ipdom
            continue
        # d strictly post-dominates b iff deleting d cuts b off from EXIT.
        expected = {d for d in range(len(succs))
                    if d != b and not reaches_exit(succs, b, removed=d)}
        # The ipdom chain visits each of them once (bounded: a cycle in
        # the map would repeat one).
        chain = []
        node = ipdom[b]
        while node != CFG.EXIT and len(chain) <= len(succs):
            chain.append(node)
            node = ipdom[node]
        assert len(chain) == len(expected) and set(chain) == expected


@given(block_graphs())
@settings(max_examples=300, deadline=None)
def test_reverse_postorder(succs):
    order = cfg_of(succs).reverse_postorder()
    assert sorted(order) == list(range(len(succs)))
    assert order[0] == 0
    live = {0} | reachable(succs, 0)
    assert set(order[:len(live)]) == live
    pos = {b: i for i, b in enumerate(order)}
    for u in live:
        for v in succs[u]:
            if u not in reachable(succs, v):
                assert pos[u] < pos[v]      # a forward edge, not a back edge


@given(block_graphs())
@settings(max_examples=300, deadline=None)
def test_sccs_and_loops_match_reachability(succs):
    n = len(succs)
    reach = [reachable(succs, u) for u in range(n)]
    sccs = strongly_connected_components(range(n), succs.__getitem__)
    assert sorted(m for scc in sccs for m in scc) == list(range(n))
    for scc in sccs:
        for u in scc:
            assert {v for v in range(n)
                    if v == u or (v in reach[u] and u in reach[v])} \
                == set(scc)
    for i, earlier in enumerate(sccs):
        for later in sccs[i + 1:]:
            assert not any(v in reach[u] for u in later for v in earlier)
    assert cyclic_nodes(range(n), succs.__getitem__) == \
        {u for u in range(n) if u in reach[u]}
