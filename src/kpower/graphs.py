"""k-power graphs and their structural queries.

The directed graph of (G, k) sends every x to x**k; the undirected graph
symmetrises that map, drops loops and merges mutual arcs, so its edge set
is exactly {x, y} with x != y and (x**k = y or y**k = x).  A `KPowerGraph`
is its successor row: every edge, degree, component and distance is read
off that one int64 array, and nothing builds adjacency lists.

The undirected edges come from the successor map s by one rule, shared
with the sweep engine (``verify.analyze_batch``), `kept_arcs`: every arc
x -> s(x) with x != s(x) is an edge, except that a mutual pair
(s(s(x)) = x) would give the same edge twice, so the arc leaving its
larger end is dropped.  Edge and degree counts, and each component's edge
count, are counts of the kept arcs; their keys min*n + max are distinct,
and one sort lists the edges in (u, v) order for the exports.

Every vertex has out-degree one, so each component carries exactly one
directed cycle.  One vectorised pass over the successor map, `_components`,
finds them, and gives every vertex one code: 2j for a vertex of the j-th
peel round, and on a cycle the parity of its distance forward to its
cycle's least vertex.  The sweep engine runs it once per block of a
batch's rows, one per distinct graph, and hands each its successor row and
code (``verify.GroupBatch.graph_for_row``); a standalone `KPowerGraph` runs
it once on its own row.  The row and the code give the 3-colouring
certificate (``analysis.chromatic``) and the diameter of a connected graph,
a tree.  `distances_from` walks the row and its predecessor index.

Exponents are normalised to k mod o(G) (residue 0 mapped to o(G)) before
powering: congruent exponents give the identical graph.  Both raw and
normalised k are kept on the graph objects.

The exports read the sorted edge keys as one E x 2 array (`_edge_ends`):
the JSON document's edge list is one ``tolist`` of it, and the DOT text
formats all node lines, then all edge lines, with one ``%`` each over a
repeated line template, so neither builds a Python object per element
that it does not print.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .groups import FiniteGroup, successor_rows

# A component's shape is its index here (`shape_codes`); the shapes below
# SHAPE_TREE are those of the paper's `shapes` theorem.
SHAPES = ("isolated", "k2", "cycle", "tree", "unicyclic")
SHAPE_TREE = SHAPES.index("tree")


def normalize_exponent(k: int, order: int) -> int:
    """Reduce k to its graph-equivalent residue in 1..order."""
    if k < 2:
        raise ValueError("k-power graphs are defined for k >= 2")
    r = k % order
    return order if r == 0 else r


@dataclass(eq=False)
class KPowerGraph:
    """The undirected graph of the successor row x -> x**k.

    Everything is read off the row through arrays; the component pass
    runs once per graph, on first use.  A sweep row is its class's successor
    row, with that row of the batch pass's ``code`` (``verify.GroupBatch.graph_for_row``),
    which is all the certificates read, so it runs no pass of its own for them.
    """

    k: int
    k_normalized: int
    successor: np.ndarray  # the int64 map x -> x**k

    @property
    def group_order(self) -> int:
        return self.successor.size

    @cached_property
    def component_pass(self) -> ComponentPass:
        """`_components` on the row, run on first use."""
        return _components(self.successor)

    @cached_property
    def code(self) -> np.ndarray:
        """Every vertex's peel round and cycle parity (`ComponentPass.code`)."""
        return self.component_pass.code

    @cached_property
    def edge_count(self) -> int:
        return int(np.count_nonzero(kept_arcs(self.successor)))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Every vertex's degree: each kept arc adds one at both ends."""
        succ = self.successor
        tail = np.flatnonzero(kept_arcs(succ))
        return np.bincount(tail, minlength=succ.size) + np.bincount(succ[tail], minlength=succ.size)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically sorted."""
        u, v = _edge_ends(self.successor).T
        return list(zip(u.tolist(), v.tolist()))

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
    if shape in ("cycle", "unicyclic"):
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


def _edge_ends(succ: np.ndarray) -> np.ndarray:
    """The edges as an E x 2 array of rows (u, v), u < v, in lexicographic order."""
    return np.stack(np.divmod(_edge_keys(succ), succ.size), axis=1)


class ComponentPass(NamedTuple):
    """`_components` on a functional graph, components numbered in ascending
    order of their cycles' least vertices."""

    comp: np.ndarray  # every vertex's component number
    cycle_len: np.ndarray  # each component's directed cycle length
    least: np.ndarray  # each component's least vertex
    # Every vertex's code: 2j in the j-th peel round; on a cycle 1 when its
    # distance forward to the cycle's least vertex is odd, else 0.  One byte
    # unless a tail is more than 127 rounds deep, which no group's is.
    code: np.ndarray


def _components(succ: np.ndarray) -> ComponentPass:
    """Components of the functional graph ``succ``, one per directed cycle.

    It runs once per block of a sweep batch's rows and once per standalone
    graph.  On the small graphs of a request its fixed costs count, so it
    calls array methods, not the numpy functions that wrap them.  Every
    doubling pass also moves the on-cycle distance parities the colouring
    reads, by a bitwise select on bool buffers: ``np.copyto`` with
    ``where=`` took 10.7 ns per element, against about 1 ns for the three
    in-place bit operations, and on the long cycles of a prime cyclic group
    the parities are updated as often as the labels.
    """
    N = succ.size
    # The code outlives every temporary below.  Allocated among them, it
    # pins freed memory: on cyclic:65536 at 32 exponents, allocating it
    # after the pass raised the batch's peak RSS (glibc malloc) by 7 MB.
    code = np.zeros(N, dtype=np.uint8)
    # Peel vertices of in-degree zero until only the directed cycles remain.
    # A peeled vertex's in-degree is set to -1, so no later frontier holds it
    # again; every vertex a level points to is on a cycle or in a later level.
    indeg = np.bincount(succ, minlength=N)
    levels = []
    frontier = (indeg == 0).nonzero()[0]
    while frontier.size:
        levels.append(frontier)
        if len(levels) == 128:  # code 256 outgrows a byte
            code = code.astype(np.min_scalar_type(2 * N))
        code[frontier] = 2 * len(levels)
        # one decrement per arc, where a bincount would count and add all N
        np.subtract.at(indeg, succ.take(frontier), 1)
        indeg[frontier] = -1
        frontier = (indeg == 0).nonzero()[0]
    del indeg, frontier

    # Number the M on-cycle vertices (code 0 so far) 0..M-1 in id order, so
    # that a compact number orders as the vertex it names, and follow the
    # cycles on them.
    cycle = (code == 0).nonzero()[0]
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
    odd = np.zeros(M, dtype=bool)
    odd_ahead = np.empty(M, dtype=bool)
    w = 1
    while True:
        ahead = label.take(jump, out=spare, mode="clip")
        lower = ahead < label
        if not np.count_nonzero(lower):
            break
        np.minimum(label, ahead, out=label)
        # a lower minimum lies in the window's second half, w steps on:
        # odd = odd_ahead where lower, by odd ^= (odd_ahead ^ odd) & lower
        if w == 1:
            np.copyto(odd, lower)
        else:
            odd.take(jump, out=odd_ahead, mode="clip")
            odd_ahead ^= odd
            odd_ahead &= lower
            odd ^= odd_ahead
        jump, spare = jump.take(jump, out=spare, mode="clip"), jump
        w *= 2
    del jump, ahead, lower, odd_ahead

    # Each cycle's least vertex labels itself, so numbering those roots
    # 0..C-1 in id order, and reading each label's number, numbers the
    # components densely in ascending label order.  Tail vertices take
    # their successor's component, level by level from the cycles outward;
    # the least vertex of a component is its root or a tail.
    root = (label == np.arange(M, dtype=np.int64)).nonzero()[0]
    cycle = (code == 0).nonzero()[0]
    code[cycle] = odd
    del odd
    comp_least = cycle[root]
    spare[root] = np.arange(root.size, dtype=np.int64)
    cycle_dense = spare.take(label)
    del root, label, spare
    comp_dense = np.empty(N, dtype=np.int64)
    comp_dense[cycle] = cycle_dense
    del cycle
    comp_cycle_len = np.bincount(cycle_dense, minlength=comp_least.size)
    del cycle_dense
    for level in reversed(levels):
        dense = comp_dense[succ[level]]
        comp_dense[level] = dense
        np.minimum.at(comp_least, dense, level)
    return ComponentPass(comp_dense, comp_cycle_len, comp_least, code)


def components(gr: KPowerGraph) -> list[ComponentProfile]:
    """Connected components, classified by shape, ordered by least member.

    A view over the graph's component pass; each kept arc is one edge of
    its tail's component.
    """
    cp = gr.component_pass
    comp, cycle_len = cp.comp, cp.cycle_len
    sizes = np.bincount(comp, minlength=cycle_len.size)
    edges = np.bincount(comp[kept_arcs(gr.successor)], minlength=cycle_len.size)
    shapes = shape_codes(sizes, cycle_len).tolist()
    # A stable sort keeps each component's vertices in ascending order.
    members = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    sizes, edges, cycle_len = sizes.tolist(), edges.tolist(), cycle_len.tolist()
    profiles = []
    for c in np.argsort(cp.least).tolist():
        shape = SHAPES[shapes[c]]
        cycle = cycle_len[c] if shape in ("cycle", "unicyclic") else None
        vertices = members[ends[c] - sizes[c]:ends[c]]
        profiles.append(ComponentProfile(vertices, sizes[c], edges[c], shape, cycle))
    return profiles


def shape_codes(vertex_count: np.ndarray, cycle_len: np.ndarray) -> np.ndarray:
    """Each component's shape, as its index into `SHAPES`.

    ``cycle_len`` is the length of a component's directed cycle.  A fixed
    point (1) or a mutual pair (2) closes no undirected cycle, so its
    component is a tree, isolated with one vertex and K2 with two.  A longer
    one is a cycle, unicyclic when the component has more vertices.
    """
    codes = np.where(vertex_count > cycle_len, SHAPES.index("unicyclic"), SHAPES.index("cycle"))
    codes[cycle_len < 3] = SHAPE_TREE
    codes[vertex_count == 2] = SHAPES.index("k2")
    codes[vertex_count == 1] = SHAPES.index("isolated")
    return codes


def distances_from(gr: KPowerGraph, v: int) -> list[int | None]:
    """BFS distances from v; None marks unreachable vertices.

    A vertex's neighbours are its successor and its predecessors, which
    one stable sort of the row groups by successor.  A loop, or the second
    arc of a mutual pair, only reaches a vertex already visited, so no
    neighbour needs deduplicating.
    """
    n = gr.group_order
    if not 0 <= v < n:
        raise IndexError(f"vertex {v} out of range")
    # the predecessors of x are preds[start[x]:start[x + 1]]
    preds = np.argsort(gr.successor, kind="stable").tolist()
    start = [0, *np.bincount(gr.successor, minlength=n).cumsum().tolist()]
    succ = gr.successor.tolist()
    dist: list[int | None] = [None] * n
    dist[v] = 0
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for w in (succ[u], *preds[start[u]:start[u + 1]]):
                if dist[w] is None:
                    dist[w] = du
                    nxt.append(w)
        frontier = nxt
    return dist


def diameter(gr: KPowerGraph) -> int:
    """Greatest distance between any two vertices of a connected graph.

    A connected k-power graph is a tree: its one directed cycle is a fixed
    point (the identity) or a mutual pair, so the tail arcs and, for a
    pair, the pair's edge are all its edges.  Each component holds one
    directed cycle, so a graph is a tree exactly when its on-cycle vertices
    are one fixed point or one mutual pair; any other graph, disconnected
    or with an undirected cycle, is rejected.  Over the tail arcs, a
    vertex of the j-th peel round is j - 1 high, and an on-cycle vertex one
    above its highest child.  A longest path turns at its vertex nearest
    the cycle, down its two highest child branches, or crosses the pair's
    edge.
    """
    succ = gr.successor
    code = gr.code
    cycle = (code < 2).nonzero()[0]
    if not (cycle.size == 1 or (cycle.size == 2 and succ[cycle[0]] == cycle[1])):
        raise ValueError("diameter is defined for trees only; this graph is disconnected or has a cycle")
    # int64 before the ufunc.at calls: uint8 values into int64 take numpy's slow path
    height = code.astype(np.int64)
    height >>= 1
    height -= 1
    height[cycle] = 0
    tails = (code >= 2).nonzero()[0]
    parent = succ[tails]
    reach = height[tails] + 1
    np.maximum.at(height, parent, reach)  # only the on-cycle heights rise
    # A vertex's second branch: a child branch below its height, or its
    # height again when two children reach it.
    top = reach == height[parent]
    second = np.zeros(succ.size, dtype=np.int64)
    np.maximum.at(second, parent[~top], reach[~top])
    ties = np.bincount(parent[top], minlength=succ.size) >= 2
    best = int(np.where(ties, 2 * height, height + second).max())
    if cycle.size == 2:
        best = max(best, int(height[cycle].sum()) + 1)
    return best


# -- exports ----------------------------------------------------------------


def to_dot(group: FiniteGroup, gr: KPowerGraph) -> str:
    """Byte-stable DOT rendering with canonical element-name labels.

    The node lines, and then the edge lines, are each one ``%`` over a
    repeated line template, fed the flat list of the values it prints.
    """
    n = gr.group_order
    nodes = [None] * (2 * n)
    nodes[::2] = range(n)
    nodes[1::2] = group.element_names()
    ends = _edge_ends(gr.successor)
    return "".join((
        f'graph "{group.spec} k={gr.k}" {{\n',
        '  %d [label="%s"];\n' * n % tuple(nodes),
        "  %d -- %d;\n" * len(ends) % tuple(ends.ravel().tolist()),
        "}\n",
    ))


def to_json_dict(group: FiniteGroup, gr: KPowerGraph) -> dict:
    """Stable JSON document: spec string, k, sorted edges, fixed points."""
    return {
        "group": str(group.spec),
        "k": gr.k,
        "edges": _edge_ends(gr.successor).tolist(),
        "fixed_points": np.flatnonzero(gr.successor == np.arange(gr.group_order)).tolist(),
    }
