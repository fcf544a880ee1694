"""k-power graphs and their structural queries.

The directed graph of (G, k) sends every x to x**k; the undirected graph
symmetrises that map, drops loops and merges mutual arcs, so its edge set
is exactly {x, y} with x != y and (x**k = y or y**k = x).  A `KPowerGraph`
is the undirected graph together with the successor map it was built from.

The undirected edges come from the successor map s by one rule, shared
with the sweep engine (``verify.analyze_batch``), `kept_arcs`: every arc
x -> s(x) with x != s(x) is an edge, except that a mutual pair
(s(s(x)) = x) would give the same edge twice, so the arc leaving its
larger end is dropped.  Edge and degree counts are counts of the kept
arcs; their keys min*n + max are distinct, and one sort lists the edges in
(u, v) order for the exports and, only when asked for, the adjacency lists.

Every vertex has out-degree one, so each component carries exactly one
directed cycle.  One vectorised pass over the successor map, `_components`,
finds them: the sweep engine runs it on a whole batch, a `KPowerGraph` once
on its own row.  Its peel levels and on-cycle distance parities (tracked on
a graph's own pass only) also give the 3-colouring certificate
(``analysis.chromatic``) and the diameter of a connected graph, a tree, so
neither walks adjacency lists; only `distances_from` does.

Exponents are normalised to k mod o(G) (residue 0 mapped to o(G)) before
powering: congruent exponents give the identical graph.  Both raw and
normalised k are kept on the graph objects.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


@dataclass(eq=False)
class KPowerGraph:
    """The undirected graph of the successor row x -> x**k.

    Everything but `distances_from` reads the row through arrays: the
    component pass runs once per graph, on first use, and the Python
    adjacency lists are built only if something asks for them.
    """

    k: int
    k_normalized: int
    successor: np.ndarray  # the int64 map x -> x**k

    @property
    def group_order(self) -> int:
        return self.successor.size

    @cached_property
    def component_pass(self) -> ComponentPass:
        """The component pass, with the distance parities the colouring reads."""
        return _components(self.successor, parity=True)

    @cached_property
    def edge_count(self) -> int:
        return int(np.count_nonzero(kept_arcs(self.successor)))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Every vertex's degree: each kept arc adds one at both ends."""
        succ = self.successor
        tail = np.flatnonzero(kept_arcs(succ))
        return np.bincount(tail, minlength=succ.size) + np.bincount(succ[tail], minlength=succ.size)

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """Sorted neighbour lists, loop-free."""
        return _adjacency_lists(self.successor)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        n = self.group_order
        keys = _edge_keys(self.successor)
        return list(zip((keys // n).tolist(), (keys % n).tolist()))

    def degree(self, v: int) -> int:
        return int(self.degrees[v])

    def __eq__(self, other) -> bool:
        """Same exponents and the same edges; the successor rows may differ."""
        if not isinstance(other, KPowerGraph):
            return NotImplemented
        return (self.k, self.k_normalized, self.group_order) == (
            other.k, other.k_normalized, other.group_order
        ) and np.array_equal(_edge_keys(self.successor), _edge_keys(other.successor))


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
    """The graph of an already-computed successor map."""
    return KPowerGraph(k, k_norm, np.asarray(successor, dtype=np.int64))


def kept_arcs(succ: np.ndarray) -> np.ndarray:
    """Mask of the arcs x -> s(x) that are edges, one arc per edge (see the
    module docstring): no loop, and no arc leaving the larger end of a
    mutual pair.  ``succ`` is one successor map, or a matrix whose rows
    are each their own map."""
    ident = np.arange(succ.shape[-1], dtype=np.int64)
    keep = (succ[succ] if succ.ndim == 1 else np.take_along_axis(succ, succ, axis=1)) != ident
    keep |= ident < succ
    keep &= succ != ident
    return keep


def _edge_keys(succ: np.ndarray) -> np.ndarray:
    """The edges' keys min*n + max, distinct and sorted."""
    tail = np.flatnonzero(kept_arcs(succ))
    head = succ[tail]
    keys = np.minimum(tail, head) * succ.size + np.maximum(tail, head)
    keys.sort()
    return keys


def _adjacency_lists(succ: np.ndarray) -> list[list[int]]:
    """Sorted neighbour lists of the graph of ``succ``.

    In (u, v) order every vertex meets its lower neighbours (ascending)
    before its higher ones (ascending), so appending edge by edge leaves
    each list sorted.
    """
    n = succ.size
    keys = _edge_keys(succ)
    us, vs = (keys // n).tolist(), (keys % n).tolist()
    # The n lists are n new containers: with the collector on, a graph near
    # 2^16 vertices sets off about a hundred young-generation collections
    # and a full one that walks every live graph, each time, though lists
    # of ints can hold no reference cycle for it to free.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            adjacency[u].append(v)
            adjacency[v].append(u)
    finally:
        if was_enabled:
            gc.enable()
    return adjacency


class ComponentPass(NamedTuple):
    """`_components` on a functional graph, components numbered in ascending
    order of their cycles' least vertices."""

    roots: np.ndarray  # each cycle's least vertex, ascending
    comp: np.ndarray  # every vertex's component number
    cycle_len: np.ndarray  # each component's directed cycle length
    least: np.ndarray  # each component's least vertex
    levels: list[np.ndarray]  # the peel levels, leaves first
    on_cycle: np.ndarray  # mask of the vertices on a directed cycle
    odd: np.ndarray | None  # per on-cycle vertex, in id order: an odd number of steps forward to its root


def _components(succ: np.ndarray, parity: bool = False) -> ComponentPass:
    """Components of the functional graph ``succ``, one per directed cycle.

    It runs once per row of every sweep, on rows of a few hundred vertices,
    so its fixed costs count: it calls array methods, not the numpy
    functions that wrap them.  The distance parities (``odd``) are tracked
    only when ``parity`` asks for them: on the long cycles of a prime
    cyclic group they cost more than the labels themselves.
    """
    N = succ.size
    # Peel vertices of in-degree zero until only the directed cycles remain.
    # A peeled vertex's in-degree is set to -1, so no later frontier holds it
    # again; every vertex a level points to is on a cycle or in a later level.
    indeg = np.bincount(succ, minlength=N)
    levels = []
    frontier = (indeg == 0).nonzero()[0]
    while frontier.size:
        levels.append(frontier)
        indeg -= np.bincount(succ[frontier], minlength=N)
        indeg[frontier] = -1
        frontier = (indeg == 0).nonzero()[0]
    on_cycle = indeg > 0
    del indeg, frontier

    # Number the M on-cycle vertices 0..M-1 in id order, so that a compact
    # number orders as the vertex it names, and follow the cycles on them.
    cycle = on_cycle.nonzero()[0]
    M = cycle.size
    compact = np.empty(N, dtype=np.int64)
    compact[cycle] = np.arange(M, dtype=np.int64)
    jump = succ[cycle]
    del cycle
    jump = compact[jump]
    del compact

    # Label each cycle by its least vertex: doubling windows with minimum.
    # After t passes a label is the least of the window of w = 2^t vertices
    # that starts at it, and `odd` the parity of the offset of its first
    # occurrence there (the colouring reads nothing else of the offset).
    # Stop at the first pass that changes no label: while w < L on a cycle
    # of length L whose least vertex is m, the vertex w steps before m has
    # a window that misses m (labels start distinct, so its label is above
    # m), and the next pass lowers it to m.  So a pass with no change means
    # w >= L on every cycle: every window holds its whole cycle, every
    # label is final and every offset is the distance to m.
    # The passes swap two buffers; mode="clip" lets take write into `out`
    # directly (the default mode copies it), and every index is in range.
    label = np.arange(M, dtype=np.int64)
    spare = np.empty(M, dtype=np.int64)
    odd = np.zeros(M, dtype=bool) if parity else None
    w = 1
    while True:
        ahead = label.take(jump, out=spare, mode="clip")
        lower = ahead < label
        if not np.count_nonzero(lower):
            break
        np.minimum(label, ahead, out=label)
        if parity:
            # a lower minimum lies in the window's second half, w steps on
            odd[lower] = odd[jump[lower]] ^ (w == 1)
        jump, spare = jump.take(jump, out=spare, mode="clip"), jump
        w *= 2
    del jump, spare, ahead, lower

    # Each cycle's least vertex labels itself, so a running count over those
    # roots numbers the components densely in ascending label order.  Tail
    # vertices take their successor's component, level by level from the
    # cycles outward; the least vertex of a component is its root or a tail.
    root = label == np.arange(M, dtype=np.int64)
    cycle = on_cycle.nonzero()[0]
    uniq = cycle[root]
    cycle_dense = root.cumsum()
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
    return ComponentPass(uniq, comp_dense, comp_cycle_len, comp_least, levels, on_cycle, odd)


def components(gr: KPowerGraph) -> list[ComponentProfile]:
    """Connected components, classified by shape, ordered by least member.

    A view over the graph's component pass.  A component with V vertices
    has V arcs, one leaving each vertex, and its undirected graph loses one
    edge to them when its directed cycle has length L <= 2: the loop of a
    fixed point, or the two arcs of a mutual pair.
    """
    cp = gr.component_pass
    comp, cycle_len = cp.comp, cp.cycle_len
    sizes = np.bincount(comp, minlength=cycle_len.size)
    edges = sizes - (cycle_len <= 2)
    # A stable sort keeps each component's vertices in ascending order.
    members = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    sizes, edges, cycle_len = sizes.tolist(), edges.tolist(), cycle_len.tolist()
    profiles = []
    for c in np.argsort(cp.least).tolist():
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
    """Greatest distance between any two vertices of a connected graph.

    A connected k-power graph is a tree: its one directed cycle is a fixed
    point (the identity) or a mutual pair, so the tail arcs and, for a
    pair, the pair's edge are all its edges.  Heights over the tail arcs
    come from the peel levels, leaves first, so each level's heights are
    final before they reach its successors.  A longest path turns at its
    vertex nearest the cycle, down its two highest child branches, or
    crosses the pair's edge.  Disconnected graphs, and connected ones with
    an undirected cycle, are rejected.
    """
    cp = gr.component_pass
    if cp.roots.size != 1:
        raise ValueError("diameter is defined for connected graphs only")
    cycle_len = int(cp.cycle_len[0])
    if cycle_len >= 3:
        raise ValueError("diameter is computed on trees only; this graph has a cycle")
    succ = gr.successor
    height = np.zeros(succ.size, dtype=np.int64)
    for level in cp.levels:
        np.maximum.at(height, succ[level], height[level] + 1)
    # A vertex's second branch: a child branch below its height, or its
    # height again when two children reach it.
    tails = (~cp.on_cycle).nonzero()[0]
    parent = succ[tails]
    reach = height[tails] + 1
    top = reach == height[parent]
    second = np.zeros(succ.size, dtype=np.int64)
    np.maximum.at(second, parent[~top], reach[~top])
    ties = np.bincount(parent[top], minlength=succ.size) >= 2
    best = int(np.where(ties, 2 * height, height + second).max())
    if cycle_len == 2:
        root = int(cp.roots[0])
        best = max(best, int(height[root] + height[succ[root]]) + 1)
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
