"""k-power graphs and their structural queries.

The directed graph of (G, k) sends every x to x**k; the undirected graph
symmetrises that map, drops loops and merges mutual arcs, so its edge set
is exactly {x, y} with x != y and (x**k = y or y**k = x).  A `KPowerGraph`
is the undirected graph together with the successor map it was built from.

The undirected edges come from the successor map s by one rule, shared
with the sweep engine (``verify.analyze_batch``): every arc x -> s(x) with
x != s(x) is an edge, except that a mutual pair (s(s(x)) = x) would give
the same edge twice, so the arc leaving its larger end is dropped.  The
kept keys min*n + max are then distinct, and one sort lists the edges in
(u, v) order, from which the adjacency lists fill already sorted.

Every vertex has out-degree one, so each component carries exactly one
directed cycle.  One vectorised pass over the successor map, `_components`,
finds them: the sweep engine runs it on a whole batch, `components` on one.

Exponents are normalised to k mod o(G) (residue 0 mapped to o(G)) before
powering: congruent exponents give the identical graph.  Both raw and
normalised k are kept on the graph objects.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

import numpy as np

from .groups import FiniteGroup, successor_rows

SHAPE_ISOLATED = "isolated"
SHAPE_K2 = "k2"
SHAPE_CYCLE = "cycle"
SHAPE_TREE = "tree"
SHAPE_UNICYCLIC = "unicyclic"


def normalize_exponent(k: int, order: int) -> int:
    """Reduce k to its graph-equivalent residue in 1..order."""
    if k < 2:
        raise ValueError("k-power graphs are defined for k >= 2")
    r = k % order
    return order if r == 0 else r


@dataclass
class KPowerGraph:
    group_order: int
    k: int
    k_normalized: int
    adjacency: list[list[int]]  # sorted neighbour lists, loop-free
    successor: np.ndarray = field(compare=False)  # the int64 map x -> x**k

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.group_order) for v in self.adjacency[u] if u < v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


@dataclass
class ComponentProfile:
    vertices: list[int]  # ascending
    vertex_count: int
    edge_count: int
    shape: str
    cycle_length: int | None  # length of the unique cycle, when shape has one

    @property
    def shape_tag(self) -> str:
        return shape_tag(self.shape, self.cycle_length)


def shape_tag(shape: str, cycle_length: int | None) -> str:
    """Compact tag such as 'cycle(5)' or 'tree'."""
    if shape in (SHAPE_CYCLE, SHAPE_UNICYCLIC):
        return f"{shape}({cycle_length})"
    return shape


def build_undirected(group: FiniteGroup, k: int) -> KPowerGraph:
    """Symmetrised, de-duplicated, loop-free k-power graph."""
    k_norm = normalize_exponent(k, group.order)
    return undirected_from_successor(successor_rows(group, [k_norm])[0], k, k_norm)


def undirected_from_successor(successor: list[int] | np.ndarray, k: int, k_norm: int) -> KPowerGraph:
    """Build the undirected graph from an already-computed successor map.

    Deduplicates by the rule ``verify.analyze_batch`` uses (see the module
    docstring) and sorts the distinct edge keys once.
    """
    succ = np.asarray(successor, dtype=np.int64)
    n = succ.size
    ident = np.arange(n, dtype=np.int64)
    keep = (succ != ident) & ((succ[succ] != ident) | (ident < succ))
    tail, head = ident[keep], succ[keep]
    keys = np.sort(np.minimum(tail, head) * n + np.maximum(tail, head))
    return graph_from_sorted_edges(succ, k, k_norm, (keys // n).tolist(), (keys % n).tolist())


def graph_from_sorted_edges(succ: np.ndarray, k: int, k_norm: int, us: list[int], vs: list[int]) -> KPowerGraph:
    """The graph of the int64 successor map ``succ``, whose edges (us[i], vs[i]),
    us[i] < vs[i], come in (u, v) order.

    In that order every vertex meets its lower neighbours (ascending) before
    its higher ones (ascending), so appending edge by edge leaves each
    adjacency list sorted.
    """
    # The n lists are n new containers: with the collector on, a graph near
    # 2^16 vertices sets off about a hundred young-generation collections
    # and a full one that walks every live graph, each time, though lists
    # of ints can hold no reference cycle for it to free.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        adjacency: list[list[int]] = [[] for _ in range(succ.size)]
        for u, v in zip(us, vs):
            adjacency[u].append(v)
            adjacency[v].append(u)
    finally:
        if was_enabled:
            gc.enable()
    return KPowerGraph(succ.size, k, k_norm, adjacency, succ)


def _components(succ: np.ndarray):
    """Components of the functional graph ``succ``, one per directed cycle.

    Returns, with components numbered in ascending order of their cycles'
    least vertices: those least vertices, every vertex's component number,
    each component's cycle length and each component's least vertex.
    """
    N = succ.size
    # Peel vertices of in-degree zero until only the directed cycles remain.
    # A peeled vertex's in-degree is set to -1, so no later frontier holds it
    # again; every vertex a level points to is on a cycle or in a later level.
    indeg = np.bincount(succ, minlength=N)
    levels = []
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        levels.append(frontier)
        indeg -= np.bincount(succ[frontier], minlength=N)
        indeg[frontier] = -1
        frontier = np.flatnonzero(indeg == 0)
    on_cycle = indeg > 0
    del indeg, frontier

    # Number the M on-cycle vertices 0..M-1 in id order, so that a compact
    # number orders as the vertex it names, and follow the cycles on them.
    cycle = np.flatnonzero(on_cycle)
    M = cycle.size
    compact = np.empty(N, dtype=np.int64)
    compact[cycle] = np.arange(M, dtype=np.int64)
    jump = succ[cycle]
    del cycle
    jump = compact[jump]
    del compact

    # Label each cycle by its least vertex: doubling windows with minimum.
    # After t passes a label is the least of the window of w = 2^t vertices
    # that starts at it.  Stop at the first pass that changes no label:
    # while w < L on a cycle of length L whose least vertex is m, the vertex
    # w steps before m has a window that misses m (labels start distinct,
    # so its label is above m), and the next pass lowers it to m.  So a pass
    # with no change means w >= L on every cycle and every label is final.
    # The passes swap two buffers; mode="clip" lets take write into `out`
    # directly (the default mode copies it), and every index is in range.
    label = np.arange(M, dtype=np.int64)
    spare = np.empty(M, dtype=np.int64)
    while True:
        ahead = np.take(label, jump, out=spare, mode="clip")
        if not (ahead < label).any():
            break
        np.minimum(label, ahead, out=label)
        jump, spare = np.take(jump, jump, out=spare, mode="clip"), jump
    del jump, spare, ahead

    # Each cycle's least vertex labels itself, so a running count over those
    # roots numbers the components densely in ascending label order.  Tail
    # vertices take their successor's component, level by level from the
    # cycles outward; the least vertex of a component is its root or a tail.
    root = label == np.arange(M, dtype=np.int64)
    cycle = np.flatnonzero(on_cycle)
    uniq = cycle[root]
    cycle_dense = np.cumsum(root)
    cycle_dense -= 1
    cycle_dense = cycle_dense[label]
    del root, label
    comp_dense = np.empty(N, dtype=np.int64)
    comp_dense[cycle] = cycle_dense
    del cycle
    comp_cycle_len = np.bincount(cycle_dense, minlength=uniq.size)
    del cycle_dense
    comp_least = uniq.copy()
    for level in reversed(levels):
        dense = comp_dense[succ[level]]
        comp_dense[level] = dense
        np.minimum.at(comp_least, dense, level)
    return uniq, comp_dense, comp_cycle_len, comp_least


def components(gr: KPowerGraph) -> list[ComponentProfile]:
    """Connected components, classified by shape, ordered by least member.

    A view over `_components` on the graph's successor map.  A component
    with V vertices has V arcs, one leaving each vertex, and its undirected
    graph loses one edge to them when its directed cycle has length L <= 2:
    the loop of a fixed point, or the two arcs of a mutual pair.
    """
    _, comp, cycle_len, least = _components(gr.successor)
    sizes = np.bincount(comp, minlength=cycle_len.size)
    edges = sizes - (cycle_len <= 2)
    # A stable sort keeps each component's vertices in ascending order.
    members = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    sizes, edges, cycle_len = sizes.tolist(), edges.tolist(), cycle_len.tolist()
    profiles = []
    for c in np.argsort(least).tolist():
        shape, cycle = component_shape(sizes[c], edges[c], cycle_len[c])
        vertices = members[ends[c] - sizes[c]:ends[c]]
        profiles.append(ComponentProfile(vertices, sizes[c], edges[c], shape, cycle))
    return profiles


def component_shape(vertex_count: int, edge_count: int, cycle_length: int) -> tuple[str, int | None]:
    """A component's shape and the length of its undirected cycle, if any.

    ``cycle_length`` is the length of the component's directed cycle: a
    fixed point (1) or a mutual pair (2) closes no undirected cycle.
    """
    if vertex_count == 1:
        return SHAPE_ISOLATED, None
    if vertex_count == 2 and edge_count == 1:
        return SHAPE_K2, None
    if cycle_length < 3:
        return SHAPE_TREE, None
    return (SHAPE_CYCLE if vertex_count == cycle_length else SHAPE_UNICYCLIC), cycle_length


def has_cycle(gr: KPowerGraph) -> bool:
    """True iff some component is a cycle or carries one."""
    return any(p.cycle_length is not None for p in components(gr))


def cycle_lengths(gr: KPowerGraph) -> list[int]:
    """Lengths of all component cycles, ascending (one per cyclic component)."""
    return sorted(p.cycle_length for p in components(gr) if p.cycle_length is not None)


def distances_from(gr: KPowerGraph, v: int) -> list[int | None]:
    """BFS distances from v; None marks unreachable vertices."""
    if not 0 <= v < gr.group_order:
        raise IndexError(f"vertex {v} out of range")
    dist: list[int | None] = [None] * gr.group_order
    dist[v] = 0
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u]
            for w in gr.adjacency[u]:
                if dist[w] is None:
                    dist[w] = du + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def diameter(gr: KPowerGraph) -> int:
    """Greatest distance between any two vertices; rejects disconnected graphs.

    Connected k-power graphs are trees (n vertices, at most n-1 edges), so
    two BFS passes suffice; the dense-graph fallback scans every source.
    """
    n = gr.group_order
    dist = distances_from(gr, 0)
    if any(d is None for d in dist):
        raise ValueError("diameter is defined for connected graphs only")
    if n == 1:
        return 0
    if gr.edge_count == n - 1:
        far = max(range(n), key=lambda u: dist[u])
        second = distances_from(gr, far)
        return max(second)  # type: ignore[type-var]
    best = max(dist)
    for source in range(1, n):
        best = max(best, max(distances_from(gr, source)))  # type: ignore[type-var]
    return best


# -- exports ----------------------------------------------------------------


def to_dot(group: FiniteGroup, gr: KPowerGraph) -> str:
    """Byte-stable DOT rendering with canonical element-name labels."""
    lines = [f'graph "{group.spec} k={gr.k}" {{']
    for v, name in enumerate(group.element_names()):
        lines.append(f'  {v} [label="{name}"];')
    for u, v in gr.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(group: FiniteGroup, gr: KPowerGraph) -> dict:
    """Stable JSON document: spec string, k, sorted edges, fixed points."""
    return {
        "group": str(group.spec),
        "k": gr.k,
        "edges": [[u, v] for u, v in gr.edges()],
        "fixed_points": np.flatnonzero(gr.successor == np.arange(gr.group_order)).tolist(),
    }
