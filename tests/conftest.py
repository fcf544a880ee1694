"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own fast paths: powers are taken by
iterated multiplication, edges by the O(n^2) pairwise definition, and so
on, so that each library result is checked against an independent route.
"""

from __future__ import annotations

import numpy as np

from kpower.groups import FiniteGroup


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
    mask dedup, kept as the reference it is pinned against.  Components
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
        "edge_u": edge_u,
        "edge_v": keys % N,
        "edge_row": edge_u // n,
        "comp_row": uniq // n,
        "comp_vertices": np.bincount(comp_dense, minlength=C),
        "comp_edges": np.bincount(comp_dense[edge_u], minlength=C),
        "comp_cycle_len": np.bincount(comp_dense[on_cycle], minlength=C),
        "comp_least": comp_least,
    }
