"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own fast paths: powers are taken by
iterated multiplication, edges by the O(n^2) pairwise definition, and so
on, so that each library result is checked against an independent route.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from kpower import verify
from kpower.chair import ChairSolution
from kpower.graphs import ComponentProfile, KPowerGraph
from kpower.groups import FiniteGroup, build_group, successor_rows


def iterated_power(group: FiniteGroup, x: int, k: int) -> int:
    """x**k by plain left-to-right multiplication (no squaring, no order trick)."""
    result = group.identity
    for _ in range(k):
        result = group.op(result, x)
    return result


def pairwise_edges(group: FiniteGroup, k: int) -> set[tuple[int, int]]:
    """The defining edge set: {x, y} with x != y and x^k = y or y^k = x."""
    powers = [iterated_power(group, x, k) for x in range(group.order)]
    edges = set()
    for x in range(group.order):
        for y in range(x + 1, group.order):
            if powers[x] == y or powers[y] == x:
                edges.add((x, y))
    return edges


def brute_degrees(group: FiniteGroup, k: int) -> list[int]:
    """Vertex degrees read off the pairwise edge set."""
    degrees = [0] * group.order
    for u, v in pairwise_edges(group, k):
        degrees[u] += 1
        degrees[v] += 1
    return degrees


def naive_multiplicative_order(k: int, m: int) -> int:
    """Order of k mod m by stepping through successive powers."""
    if m == 1:
        return 1
    r = k % m
    t = 1
    while r != 1:
        r = r * k % m
        t += 1
        assert t <= m, "order search overran the modulus"
    return t


def edge_counts_only(S: np.ndarray) -> np.ndarray:
    """Per-row undirected edge counts of a successor matrix, without the batch engine.

    Edges are non-loop arcs, with mutual pairs (x^k = y and y^k = x)
    merging into one edge.
    """
    idx = np.arange(S.shape[1], dtype=np.int64)[None, :]
    fixed = S == idx
    back = np.take_along_axis(S, S, axis=1) == idx
    mutual = back & ~fixed
    return (~fixed).sum(axis=1) - mutual.sum(axis=1) // 2


def whistle_positions(n: int, whistles: int) -> list[int]:
    """Chair of each person-residue after the given whistle, by stepping.

    This is the independent oracle: person-residue i starts on chair i at
    whistle 1 and advances by i at every later whistle - the exponent map
    is never used.
    """
    if n < 1:
        raise ValueError("expects n >= 1")
    if whistles < 1:
        raise ValueError("expects at least the initial whistle")
    positions = list(range(n))
    for _ in range(whistles - 1):
        positions = [(pos + i) % n for i, pos in enumerate(positions)]
    return positions


def minimal_whistles_by_simulation(n: int) -> int:
    """Least whistle count >= 2 with every chair occupied once, by stepping."""
    positions = list(range(n))
    w = 1
    while True:
        positions = [(pos + i) % n for i, pos in enumerate(positions)]
        w += 1
        seen = [0] * n
        for pos in positions:
            seen[pos] += 1
        if all(c == 1 for c in seen):
            return w


def unique_tables(S: np.ndarray) -> dict[str, np.ndarray]:
    """Edge and component tables of a successor matrix by the np.unique route.

    This is the sort-based formulation the batch engine used before its
    mask dedup, kept as the reference it is pinned against: per-row edge
    counts and per-vertex degrees read off the distinct edge keys.  Components
    are labelled by walking each vertex into its cycle one step at a time
    and taking the least vertex of that cycle; the first occurrence of a
    label is then its component's least vertex.
    """
    R, n = S.shape
    N = R * n
    succ = (S.astype(np.int64) + (np.arange(R, dtype=np.int64) * n)[:, None]).ravel()
    ident = np.arange(N, dtype=np.int64)
    moving = succ != ident
    lo = np.minimum(ident[moving], succ[moving])
    hi = np.maximum(ident[moving], succ[moving])
    keys = np.unique(lo * N + hi)
    edge_u = keys // N
    edge_v = keys % N

    step = succ.tolist()
    comp = np.empty(N, dtype=np.int64)
    on_cycle = np.zeros(N, dtype=bool)
    for x in range(N):
        seen: dict[int, int] = {}
        path = []
        y = x
        while y not in seen:
            seen[y] = len(path)
            path.append(y)
            y = step[y]
        cycle = path[seen[y]:]
        comp[x] = min(cycle)
        on_cycle[cycle] = True

    uniq, comp_least, comp_dense = np.unique(comp, return_index=True, return_inverse=True)
    C = uniq.size
    return {
        "edge_count": np.bincount(edge_u // n, minlength=R),
        "degrees": (np.bincount(edge_u, minlength=N) + np.bincount(edge_v, minlength=N)).reshape(R, n),
        "comp_row": uniq // n,
        "comp_vertices": np.bincount(comp_dense, minlength=C),
        "comp_edges": np.bincount(comp_dense[edge_u], minlength=C),
        "comp_cycle_len": np.bincount(comp_dense[on_cycle], minlength=C),
        "comp_least": comp_least,
    }


def peel_codes(successor) -> list[int]:
    """Every vertex's component-pass code, by stripping leaves and walking cycles.

    The independent route to ``graphs.ComponentPass.code``: vertices of
    in-degree zero are stripped round by round, and one stripped in round j
    gets 2j.  What remains are the directed cycles; each is walked from its
    least vertex m, and a vertex on it gets the parity of its number of
    steps forward to m.
    """
    n = len(successor)
    code = [0] * n
    alive = set(range(n))
    j = 0
    while True:
        indeg = dict.fromkeys(alive, 0)
        for x in alive:
            indeg[successor[x]] += 1
        leaves = [x for x in alive if indeg[x] == 0]
        if not leaves:
            break
        j += 1
        for x in leaves:
            code[x] = 2 * j
        alive.difference_update(leaves)
    walked = set()
    for m in sorted(alive):
        if m in walked:
            continue
        cycle = [m]
        while successor[cycle[-1]] != m:
            cycle.append(successor[cycle[-1]])
        for i, x in enumerate(cycle):
            code[x] = (len(cycle) - i) % len(cycle) % 2
        walked.update(cycle)
    return code


def set_adjacency(successor) -> list[list[int]]:
    """Sorted neighbour lists of a successor map's undirected graph, by sets.

    This is the formulation the graph builder used before it shared the
    batch engine's mask dedup, kept as the reference it is pinned against:
    one neighbour set per vertex, every non-loop arc added both ways.
    """
    n = len(successor)
    neighbour_sets: list[set[int]] = [set() for _ in range(n)]
    for x, s in enumerate(successor):
        if s != x:
            neighbour_sets[x].add(s)
            neighbour_sets[s].add(x)
    return [sorted(nbrs) for nbrs in neighbour_sets]


def set_distances(adjacency: list[list[int]], v: int) -> list[int | None]:
    """BFS distances from v over neighbour lists; None marks unreachable vertices."""
    dist: list[int | None] = [None] * len(adjacency)
    dist[v] = 0
    queue = [v]
    for u in queue:
        for w in adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def list_components(gr: KPowerGraph) -> list[ComponentProfile]:
    """Components of a graph by BFS over its set-built neighbour lists, ordered by least member.

    This is the list-walking formulation ``graphs.components`` used before
    it became a view over the batch engine's component pass, kept as the
    reference it is pinned against; it reads the graph only through its
    successor row (`set_adjacency`).  A component with as many edges as
    vertices has one cycle, found by stripping leaves until only it remains.
    """
    adjacency = set_adjacency(gr.successor.tolist())
    seen = [False] * gr.group_order
    profiles = []
    for start in range(gr.group_order):
        if seen[start]:
            continue
        seen[start] = True
        vertices = [start]
        queue = [start]
        while queue:
            for w in adjacency[queue.pop()]:
                if not seen[w]:
                    seen[w] = True
                    vertices.append(w)
                    queue.append(w)
        vertices.sort()
        v = len(vertices)
        e = sum(len(adjacency[u]) for u in vertices) // 2
        if v == 1:
            profiles.append(ComponentProfile(vertices, 1, e, "isolated", None))
        elif v == 2 and e == 1:
            profiles.append(ComponentProfile(vertices, 2, 1, "k2", None))
        elif e == v - 1:
            profiles.append(ComponentProfile(vertices, v, e, "tree", None))
        else:
            assert e == v, f"component with {v} vertices and {e} edges is not a pseudotree"
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
            cycle = sum(1 for u in vertices if degree[u] >= 2)
            assert cycle >= 3, "an undirected cycle in a simple graph has length >= 3"
            shape = "cycle" if cycle == v else "unicyclic"
            profiles.append(ComponentProfile(vertices, v, e, shape, cycle))
    return profiles


def list_chromatic(gr: KPowerGraph) -> tuple[int, list[int]]:
    """A greedy colouring in BFS order from each component's least vertex.

    This is the list-walking formulation ``analysis.chromatic`` used before
    it became a certificate read off the successor row, kept as the
    reference it is pinned against.  Colours are 1-based; each vertex takes
    the least colour none of its coloured neighbours has.
    """
    adjacency = set_adjacency(gr.successor.tolist())
    colors = [0] * gr.group_order
    chi = 0
    for root in range(gr.group_order):
        if colors[root]:
            continue
        colors[root] = 1
        chi = max(chi, 1)
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if colors[w]:
                        continue
                    used = {colors[u] for u in adjacency[w]}
                    c = 1
                    while c in used:
                        c += 1
                    colors[w] = c
                    chi = max(chi, c)
                    nxt.append(w)
            frontier = nxt
    return chi, colors


def list_clique_number(gr: KPowerGraph) -> int:
    """The clique number of a graph with no K_4, by a triangle search over neighbour sets."""
    adj_sets = [set(nbrs) for nbrs in set_adjacency(gr.successor.tolist())]
    edges = [(u, v) for u, nbrs in enumerate(adj_sets) for v in nbrs if u < v]
    if not edges:
        return 1
    return 3 if any(adj_sets[u] & adj_sets[v] for u, v in edges) else 2


def reference_edges(gr: KPowerGraph) -> list[tuple[int, int]]:
    """The graph's edges (u, v), u < v, sorted: a set of the successor row's non-loop arcs."""
    return sorted({(min(x, y), max(x, y)) for x, y in enumerate(gr.successor.tolist()) if x != y})


def reference_dot(group: FiniteGroup, gr: KPowerGraph) -> str:
    """The DOT export built one f-string per node and per edge."""
    lines = [f'graph "{group.spec} k={gr.k}" {{']
    for v, name in enumerate(group.element_names()):
        lines.append(f'  {v} [label="{name}"];')
    for u, v in reference_edges(gr):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_trace(solution: ChairSolution) -> str:
    """The chair trace built by sorting each whistle's (seat, person) tuples."""
    n = solution.n
    lines = []
    for k in range(2, solution.minimal_k + 1):
        placements = sorted(
            ((k * i) % n, n if i == 0 else i) for i in range(n)
        )
        entries = "; ".join(f"seat[{seat}] <- person {person}" for seat, person in placements)
        lines.append(f"w={k}: {entries}")
    lines.append(f"RESULT k={solution.minimal_k}")
    return "\n".join(lines) + "\n"


def perm_index(group: FiniteGroup, p: tuple[int, ...]) -> int:
    """Element index of the one-line permutation p in a sym group, by a row scan."""
    return int(np.flatnonzero((group._perm_array == p).all(axis=1))[0])


def perm_order(p: tuple[int, ...]) -> int:
    """Order of a permutation in one-line form: the lcm of its cycle lengths, walked by hand."""
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = math.lcm(order, length)
    return order


ROW_KINDS = ("random", "fixed", "involution", "cycle", "tree")

# Groups of order 1 and 2 plus one small group of each other family.
POWER_MAP_SPECS = ("cyclic:1", "cyclic:2", "dihedral:1", "cyclic:12", "sym:3",
                   "dihedral:5", "quaternion:3", "product:2x4")


@st.composite
def successor_matrices(draw):
    """Random successor matrices, each row one functional graph on 0..n-1.

    A row is a random map, all fixed points, disjoint swapped pairs (an
    involution), one cycle over part of the vertices, or a connected tree
    whose directed cycle is a fixed point or, when n >= 2, a mutual pair,
    with n in 1..40.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    R = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(R):
        kind = draw(st.sampled_from(ROW_KINDS))
        row = list(range(n))
        if kind == "random":
            row = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        elif kind == "involution":
            perm = draw(st.permutations(range(n)))
            pairs = draw(st.integers(min_value=0, max_value=n // 2))
            for a, b in zip(perm[:pairs], perm[pairs:2 * pairs]):
                row[a], row[b] = b, a
        elif kind == "cycle":
            perm = draw(st.permutations(range(n)))
            length = draw(st.integers(min_value=1, max_value=n))
            cycle = perm[:length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                row[a] = b
        elif kind == "tree":
            perm = draw(st.permutations(range(n)))
            if n >= 2 and draw(st.booleans()):
                row[perm[0]], row[perm[1]] = perm[1], perm[0]
            for i in range(1, n):
                if row[perm[i]] == perm[i]:
                    row[perm[i]] = perm[draw(st.integers(0, i - 1))]
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(R, n)


@st.composite
def power_map_cases(draw):
    """A group and its exponents at k = 0 or 1 mod o(G) and k > o(G) + 1."""
    group = build_group(draw(st.sampled_from(POWER_MAP_SPECS)))
    o = group.order
    aligned = st.builds(lambda m, r: m * o + r, st.integers(1, 3), st.sampled_from((0, 1)))
    beyond = st.integers(min_value=o + 2, max_value=4 * o + 4)
    ks = draw(st.lists(st.one_of(aligned, beyond), min_size=1, max_size=6))
    return group, np.array(ks, dtype=np.int64)


def power_map_matrices():
    """Successor rows of real groups at k = 0 or 1 mod o(G) and k > o(G) + 1."""
    return power_map_cases().map(lambda case: successor_rows(*case))


# The rows of Z_10 at k = 5 and k = 6 planted as the next exponent's, and
# the line check_thm16 gives each.
THM16_LINES = {
    5: "group=cyclic:10 k=5: expected two stars K_{1,4} centred at 0 and 5, got 5 edges, first off the list (0,5)",
    6: "group=cyclic:10 k=6: expected the perfect matching {a, a+5}, got 8 edges, first off the list (1,3)",
}


def plant_thm16(monkeypatch, broken):
    """Z_10's successor rows at k = 5 and/or 6 (``broken``) replaced by the row of k + 1."""
    real = verify.successor_rows
    monkeypatch.setattr(verify, "successor_rows", lambda group, ks: real(group, ks + np.isin(ks % 10, broken)))
