"""Directed and undirected k-power graphs and their structural queries.

The directed graph of (G, k) sends every x to x**k; the undirected graph
symmetrises that map, drops loops and merges mutual arcs, so its edge set
is exactly {x, y} with x != y and (x**k = y or y**k = x).

Since every vertex has out-degree one, each undirected component carries
at most one cycle (the graphs are pseudoforests); the component classifier
below leans on that.

Exponents are normalised to k mod o(G) (residue 0 mapped to o(G)) before
powering: congruent exponents give the identical graph, and the normalised
value is the canonical cache/report key.  Both raw and normalised k are
kept on the graph objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup

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
class DirectedKPowerGraph:
    group_order: int
    k: int
    k_normalized: int
    successor: list[int]

    @property
    def fixed_points(self) -> list[int]:
        """Vertices with x**k = x; these carry no arc."""
        return [x for x, s in enumerate(self.successor) if s == x]

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs x -> x**k with x != x**k, in vertex order."""
        return [(x, s) for x, s in enumerate(self.successor) if s != x]


@dataclass
class KPowerGraph:
    group_order: int
    k: int
    k_normalized: int
    adjacency: list[list[int]]  # sorted neighbour lists, loop-free

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


def build_directed(group: FiniteGroup, k: int) -> DirectedKPowerGraph:
    """The functional graph x -> x**k on the group's element indices."""
    k_norm = normalize_exponent(k, group.order)
    successor = [group.power(x, k_norm) for x in range(group.order)]
    return DirectedKPowerGraph(group.order, k, k_norm, successor)


def build_undirected(group: FiniteGroup, k: int) -> KPowerGraph:
    """Symmetrised, de-duplicated, loop-free k-power graph."""
    directed = build_directed(group, k)
    return undirected_from_successor(directed.successor, k, directed.k_normalized)


def undirected_from_successor(successor: list[int], k: int, k_norm: int) -> KPowerGraph:
    """Build the undirected graph from an already-computed successor map."""
    n = len(successor)
    neighbour_sets: list[set[int]] = [set() for _ in range(n)]
    for x, s in enumerate(successor):
        if s != x:
            neighbour_sets[x].add(s)
            neighbour_sets[s].add(x)
    adjacency = [sorted(nbrs) for nbrs in neighbour_sets]
    return KPowerGraph(n, k, k_norm, adjacency)


def components(gr: KPowerGraph) -> list[ComponentProfile]:
    """Connected components, classified by shape, ordered by least member."""
    n = gr.group_order
    adjacency = gr.adjacency
    seen = [False] * n
    profiles = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        order = [start]
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
                    queue.append(w)
        order.sort()
        edge_count = sum(len(adjacency[v]) for v in order) // 2
        profiles.append(_classify_component(order, edge_count, adjacency))
    return profiles


def _classify_component(vertices: list[int], edge_count: int, adjacency) -> ComponentProfile:
    v = len(vertices)
    if v == 1:
        return ComponentProfile(vertices, 1, edge_count, SHAPE_ISOLATED, None)
    if v == 2 and edge_count == 1:
        return ComponentProfile(vertices, 2, 1, SHAPE_K2, None)
    if edge_count == v - 1:
        return ComponentProfile(vertices, v, edge_count, SHAPE_TREE, None)
    if edge_count != v:
        raise RuntimeError(
            f"component with {v} vertices and {edge_count} edges is not a pseudotree"
        )
    # Exactly one cycle: strip leaves until only the cycle remains.
    degree = {u: len(adjacency[u]) for u in vertices}
    leaves = [u for u in vertices if degree[u] == 1]
    while leaves:
        u = leaves.pop()
        degree[u] = 0
        for w in adjacency[u]:
            if degree[w] > 1:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    cycle_len = sum(1 for u in vertices if degree[u] >= 2)
    if cycle_len < 3:
        raise RuntimeError("undirected cycle shorter than 3 cannot occur in a simple graph")
    shape = SHAPE_CYCLE if cycle_len == v else SHAPE_UNICYCLIC
    return ComponentProfile(vertices, v, edge_count, shape, cycle_len)


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
    for v in range(gr.group_order):
        lines.append(f'  {v} [label="{group.element_name(v)}"];')
    for u, v in gr.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(group: FiniteGroup, gr: KPowerGraph) -> dict:
    """Stable JSON document: spec string, k, sorted edges, fixed points."""
    successor = [group.power(x, gr.k_normalized) for x in range(group.order)]
    return {
        "group": str(group.spec),
        "k": gr.k,
        "edges": [[u, v] for u, v in gr.edges()],
        "fixed_points": [x for x, s in enumerate(successor) if s == x],
    }
