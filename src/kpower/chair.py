"""The shifting-chair riddle on the directed k-power graph of Z_n.

n people numbered 1..n sit ascending on n chairs in a circle; at every
whistle after the first, person i advances i seats clockwise.  Relabelling
chairs so that person i starts on chair i (mod n), the seating after the
k-th whistle is the map i -> k*i (mod n), i.e. the directed k-power graph
of Z_n.  A whistle count k seats everyone on a distinct chair exactly when
that map is a bijection, i.e. every in- and out-degree is 1, i.e.
gcd(n, k) = 1 - so the solver searches by direct simulation and then
cross-asserts the coprimality characterisation.

People and chairs are indexed 0..n-1 internally; person numbers are 1..n
in rendered traces (person n is residue 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def degree_profile(n: int, k: int) -> list[tuple[int, int]]:
    """(in-degree, out-degree) of every vertex of the directed graph i -> k*i.

    Out-degrees are identically 1; in-degree(a) counts solutions of
    k*x = a (mod n), fixed points included.
    """
    if n < 1:
        raise ValueError("expects n >= 1")
    if k < 2:
        raise ValueError("expects k >= 2")
    targets = (k * np.arange(n, dtype=np.int64)) % n
    indeg = np.bincount(targets, minlength=n)
    return [(int(d), 1) for d in indeg]


@dataclass
class ChairSolution:
    n: int
    minimal_k: int
    seating: list[int]  # residue i ends on chair seating[i]
    collision_trace: dict[int, tuple[int, int]]  # rejected k -> (chair, occupancy)


def solve_chairs(n: int) -> ChairSolution:
    """Smallest whistle count k >= 2 that seats everyone, by simulation.

    Each candidate k is tested by counting chair occupancies of the map
    i -> k*i (mod n); the first chair with occupancy != 1 is recorded for
    every rejected candidate.  The result is cross-asserted against the
    closed form (least k >= 2 coprime to n).
    """
    if n < 1:
        raise ValueError("expects n >= 1")
    residues = np.arange(n, dtype=np.int64)
    collisions: dict[int, tuple[int, int]] = {}
    k = 2
    while True:
        seats = (k * residues) % n
        occupancy = np.bincount(seats, minlength=n)
        if bool((occupancy == 1).all()):
            break
        bad = int(np.flatnonzero(occupancy != 1)[0])
        collisions[k] = (bad, int(occupancy[bad]))
        k += 1

    # Cross-check the simulation against the coprimality characterisation.
    if math.gcd(n, k) != 1:
        raise RuntimeError(f"simulation found k={k} but gcd({n}, {k}) != 1")
    for rejected in collisions:
        if math.gcd(n, rejected) == 1:
            raise RuntimeError(f"simulation rejected k={rejected} despite gcd({n}, {rejected}) = 1")

    return ChairSolution(n=n, minimal_k=k, seating=seats.tolist(), collision_trace=collisions)


def render_trace(solution: ChairSolution) -> str:
    """Text trace: one line per whistle, then the result line.

    Entries are ``seat[j] <- person p`` sorted by seat then person, so
    collisions show up as repeated seats on a rejected whistle's line.
    """
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
