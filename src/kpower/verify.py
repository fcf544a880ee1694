"""Sweep verification: closed forms against brute force, at scale.

A whole group's worth of exponents is analysed in one shot: the successor
maps for every k form a matrix (``groups.successor_rows``, the package's one
vectorised power map, re-exported here) whose rows are glued into a single
disjoint functional graph on R*n vertices.  Edges and component structure
then fall out of a constant number of vectorised passes, none of them a
hash, a sort or a stable argsort:

  * edge dedup by mask (``graphs.kept_arcs``): an arc x -> s(x) with
    x != s(x) repeats another edge exactly when s(s(x)) = x and x > s(x),
    so those arcs are dropped and each remaining arc is one edge; edge
    counts and degrees are bincounts of them;
  * the component pass, ``graphs._components``, which every
    ``graphs.KPowerGraph`` also runs on its one row:
    - leaf peeling exposes the directed cycles (tails of power maps are
      short, so the loop runs only a handful of rounds) and keeps its levels;
    - doubling-with-minimum, over the on-cycle vertices alone, labels every
      cycle by its least vertex (a graph's own pass also marks each vertex
      by the parity of its distance to it, for the colouring) and stops at
      the first pass that changes no label, so the pass count follows the
      longest cycle, not the order;
    - a running count over the cycles' least vertices numbers the
      components in ascending label order, and the peel levels, replayed
      from the cycles outward, carry each tail vertex to its component.

Each whole-batch temporary is dropped once its last use is past, so a
batch peaks at a few times the size of its successor matrix.

`BatchMetrics` is the package's one graph side for these metrics and for
the clique number, perfection and the star and forest shapes; nothing
computes them again per graph.  Each theorem check compares a closed form
against them and reports counterexamples.  The colouring and the diameters
are certificates built per row from the same peel levels and cycle
distance parities; no check builds an adjacency list.  The closed forms
live in `analysis`, written once and vectorised over the exponents.
`analysis.analyze` builds a one-row batch, runs every check but the
whole-group ``thm16`` on it and reports their failures.  The test suite
pins the engine against list-walking references and networkx.

`sweep_batches` is the one loop from a `SweepSpec` to its batches, one
per group in sweep order; `run_verification` and ``kpower sweep`` both
iterate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import analysis, numth
from .chair import solve_chairs
from .graphs import KPowerGraph, _components, diameter, kept_arcs
from .groups import FAMILIES, FiniteGroup, GroupSpec, build_group, successor_rows

THEOREMS = (
    "edges",
    "degrees",
    "connectivity",
    "clique",
    "chromatic",
    "forest",
    "star",
    "empty",
    "components",
    "shapes",
    "order-adjacency",
    "thm16",
    "perfect",
    "chair",
)

MAX_COUNTEREXAMPLES = 5


# -- batched successor analysis --------------------------------------------------


@dataclass
class BatchMetrics:
    """Per-row and per-component structure of a batch of k-power graphs."""

    n: int
    edge_count: np.ndarray  # (R,)
    degrees: np.ndarray  # (R, n)
    fixed_count: np.ndarray  # (R,)
    comp_count: np.ndarray  # (R,)
    connected: np.ndarray  # (R,) bool
    has_cycle: np.ndarray  # some component cycle of length >= 3
    has_long_odd_cycle: np.ndarray  # odd length >= 5
    omega: np.ndarray  # clique number: 1 edgeless, 3 with a triangle, else 2
    all_shapes_basic: np.ndarray  # every component isolated/K2/cycle
    pseudoforest_ok: np.ndarray  # every component has edges <= vertices
    star_shape: np.ndarray
    chi: np.ndarray  # 1/2/3 from cycle parity
    comp_row: np.ndarray  # per-component arrays
    comp_vertices: np.ndarray
    comp_edges: np.ndarray
    comp_cycle_len: np.ndarray  # directed cycle length (1 = fixed point, 2 = mutual pair)
    comp_least: np.ndarray  # least (flat) vertex of each component


def analyze_batch(S: np.ndarray) -> BatchMetrics:
    R, n = S.shape
    N = R * n
    succ = S.astype(np.int64)
    succ += (np.arange(R, dtype=np.int64) * n)[:, None]
    succ = succ.ravel()

    fixed_count = (S == np.arange(n)).sum(axis=1)
    # The kept arcs are the edges, one arc each (`graphs.kept_arcs`).
    keep = kept_arcs(succ)
    uniq, comp_dense, comp_cycle_len, comp_least = _components(succ)[:4]
    C = uniq.size
    comp_vertices = np.bincount(comp_dense, minlength=C)
    # Each kept arc is one edge of its tail's component.
    comp_edges = np.bincount(comp_dense[keep], minlength=C)
    del comp_dense

    # Each kept arc adds one to the degree of both ends, and to the edge
    # count of its row, which its head shares with its tail.
    arcs = np.flatnonzero(keep)
    del keep
    degrees = np.bincount(arcs, minlength=N)
    np.take(succ, arcs, out=arcs)
    del succ
    degrees += np.bincount(arcs, minlength=N)
    degrees = degrees.reshape(R, n)
    arcs //= n
    edge_count = np.bincount(arcs, minlength=R)
    del arcs

    comp_row = uniq // n
    comp_count = np.bincount(comp_row, minlength=R)
    connected = comp_count == 1

    undirected_cycle = comp_cycle_len >= 3
    odd = undirected_cycle & (comp_cycle_len % 2 == 1)
    odd_long = odd & (comp_cycle_len >= 5)
    has_cycle = _row_any(comp_row[undirected_cycle], R)
    has_odd_cycle = _row_any(comp_row[odd], R)
    has_long_odd_cycle = _row_any(comp_row[odd_long], R)

    isolated = comp_vertices == 1
    pair = (comp_vertices == 2) & (comp_edges == 1)
    pure_cycle = undirected_cycle & (comp_vertices == comp_cycle_len)
    basic = isolated | pair | pure_cycle
    all_shapes_basic = np.bincount(comp_row[~basic], minlength=R) == 0
    pseudoforest_ok = np.bincount(comp_row[comp_edges > comp_vertices], minlength=R) == 0

    if n >= 2:
        star_shape = (edge_count == n - 1) & (degrees.max(axis=1) == n - 1)
    else:
        star_shape = np.zeros(R, dtype=bool)

    # The triangles of a functional graph are its directed 3-cycles (x^k != x
    # but x^{k^3} = x), so a row has one iff a component's cycle has length 3.
    has_triangle = _row_any(comp_row[comp_cycle_len == 3], R)
    has_edge = (edge_count > 0).astype(np.int64)
    omega = np.where(has_triangle, 3, 1 + has_edge)
    chi = 1 + has_edge + has_odd_cycle.astype(np.int64)

    return BatchMetrics(
        n=n,
        edge_count=edge_count,
        degrees=degrees,
        fixed_count=fixed_count,
        comp_count=comp_count,
        connected=connected,
        has_cycle=has_cycle,
        has_long_odd_cycle=has_long_odd_cycle,
        omega=omega,
        all_shapes_basic=all_shapes_basic,
        pseudoforest_ok=pseudoforest_ok,
        star_shape=star_shape,
        chi=chi,
        comp_row=comp_row,
        comp_vertices=comp_vertices,
        comp_edges=comp_edges,
        comp_cycle_len=comp_cycle_len,
        comp_least=comp_least,
    )


def _row_any(rows: np.ndarray, R: int) -> np.ndarray:
    return np.bincount(rows, minlength=R) > 0


def normalized_exponents(ks: np.ndarray, order: int) -> np.ndarray:
    kn = ks % order
    kn[kn == 0] = order
    return kn


# -- per-group check context -------------------------------------------------------


@dataclass
class GroupBatch:
    """Everything the theorem checks need for one group.

    The closed forms and the diameters that both a check and
    ``analysis.analyze``'s report read are cached properties, evaluated once
    per batch on first use.
    """

    group: FiniteGroup
    ks: np.ndarray
    kn: np.ndarray
    S: np.ndarray
    metrics: BatchMetrics

    @classmethod
    def build(cls, group: FiniteGroup, ks: np.ndarray) -> "GroupBatch":
        kn = normalized_exponents(ks, group.order)
        S = successor_rows(group, ks)
        return cls(group, ks, kn, S, analyze_batch(S))

    @cached_property
    def connectivity(self) -> tuple[np.ndarray, np.ndarray]:
        """(criterion, diameter bound) per row, from ``analysis.connectivity_rows``."""
        return analysis.connectivity_rows(self.group, self.kn)

    @cached_property
    def diameters(self) -> np.ndarray:
        """Each connected row's diameter, from its graph's peel levels; -1 on disconnected rows."""
        out = np.full(len(self.ks), -1, dtype=np.int64)
        for r in np.flatnonzero(self.metrics.connected).tolist():
            out[r] = diameter(self.graph_for_row(r))
        return out

    @cached_property
    def clique_criterion(self) -> np.ndarray:
        return analysis.clique_criterion_rows(self.group, self.kn)

    @cached_property
    def forest_criterion(self) -> np.ndarray:
        return analysis.forest_criterion_rows(self.group, self.kn)

    @cached_property
    def star_case(self) -> np.ndarray:
        return analysis.star_case_rows(self.group, self.kn)

    @cached_property
    def empty_criterion(self) -> np.ndarray:
        return analysis.empty_criterion_rows(self.group, self.kn)

    @cached_property
    def cyclic_pi(self) -> np.ndarray:
        """Cyclic groups only: ``analysis.cyclic_pi_rows``."""
        return analysis.cyclic_pi_rows(self.group.order, self.kn)

    @cached_property
    def primitive_root(self) -> np.ndarray:
        """Cyclic groups only: ``analysis.primitive_root_rows``."""
        return analysis.primitive_root_rows(self.group.order, self.kn)

    def graph_for_row(self, r: int) -> KPowerGraph:
        """Row r's KPowerGraph, over its successor row."""
        return KPowerGraph(int(self.ks[r]), int(self.kn[r]), self.S[r])


@dataclass
class TheoremCheck:
    """One theorem's tally: cells checked, distinct cells failed, a few counterexamples.

    A batch check's cell is one (group, k), the chair check's is one n.
    """

    name: str
    cells: int = 0
    failures: list[str] = field(default_factory=list)
    failed_cells: int = 0
    _failed: set = field(default_factory=set, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def note(self, failure: str) -> None:
        """Keep the first MAX_COUNTEREXAMPLES failures, then one "..." marker."""
        if len(self.failures) < MAX_COUNTEREXAMPLES:
            self.failures.append(failure)
        elif len(self.failures) == MAX_COUNTEREXAMPLES:
            self.failures.append("...")

    def mark(self, cells) -> None:
        """Count every cell in ``cells`` as failed, each distinct cell once."""
        before = len(self._failed)
        self._failed.update(cells)
        self.failed_cells += len(self._failed) - before

    def fail(self, group: FiniteGroup, k: int, expected, got) -> None:
        self.note(f"group={group.spec} k={k}: expected {expected}, got {got}")
        self.mark([(group.spec, k)])

    def merge(self, other: "TheoremCheck") -> None:
        """Add another check's tallies; the two must cover disjoint cells."""
        self.cells += other.cells
        self.failed_cells += other.failed_cells
        for f in other.failures:
            self.note(f)


def _mark_rows(check: TheoremCheck, batch: GroupBatch, rows: np.ndarray) -> None:
    check.mark((batch.group.spec, k) for k in batch.ks[rows].tolist())


def _report_mismatches(check: TheoremCheck, batch: GroupBatch, bad_rows: np.ndarray,
                       expected, got) -> None:
    """Fail every row in ``bad_rows``; ``expected`` and ``got`` are per-row
    arrays or one value for all rows."""
    if not bad_rows.size:
        return
    _mark_rows(check, batch, bad_rows)
    for r in bad_rows[:MAX_COUNTEREXAMPLES]:
        e = expected[r] if isinstance(expected, np.ndarray) else expected
        g = got[r] if isinstance(got, np.ndarray) else got
        check.fail(batch.group, int(batch.ks[r]), e, g)


def _check_rows(check: TheoremCheck, batch: GroupBatch, expected: np.ndarray,
                got: np.ndarray) -> TheoremCheck:
    """Report every row where the closed form and the graph side differ."""
    _report_mismatches(check, batch, np.flatnonzero(expected != got), expected, got)
    return check


# -- individual theorem checks ------------------------------------------------------


def check_edges(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("edges", cells=len(batch.ks))
    got = batch.metrics.edge_count
    _check_rows(check, batch, analysis.edge_count_rows(batch.group, batch.kn), got)
    over = np.flatnonzero(got > batch.group.order - 1)
    _report_mismatches(check, batch, over, batch.group.order - 1, got)
    return check


def check_degrees(batch: GroupBatch) -> TheoremCheck:
    """Closed-form degrees vs graph degrees, every vertex (cyclic only)."""
    group = batch.group
    n = group.order
    check = TheoremCheck("degrees")
    if group.spec.family != "cyclic":
        return check
    check.cells = len(batch.ks) * n
    formula = analysis.cyclic_degree_rows(n, batch.kn, np.arange(n, dtype=np.int64))
    mismatch = formula != batch.metrics.degrees
    bad_rows = np.flatnonzero(mismatch.any(axis=1))
    _mark_rows(check, batch, bad_rows)
    for r in bad_rows[:MAX_COUNTEREXAMPLES]:
        v = int(np.flatnonzero(mismatch[r])[0])
        check.fail(
            group,
            int(batch.ks[r]),
            f"deg({v}) = {int(formula[r, v])}",
            int(batch.metrics.degrees[r, v]),
        )
    return check


def check_connectivity(batch: GroupBatch) -> TheoremCheck:
    """Order criterion vs graph connectivity; diameter bound; cyclic pi test."""
    group = batch.group
    n = group.order
    check = TheoremCheck("connectivity", cells=len(batch.ks))
    criterion, bound = batch.connectivity
    got = batch.metrics.connected
    _check_rows(check, batch, criterion, got)

    if group.spec.family == "cyclic":
        # pi(n) subset of pi(k), and connected implies tree
        _check_rows(check, batch, batch.cyclic_pi, got)
        tree_bad = np.flatnonzero(got & (batch.metrics.edge_count != n - 1))
        _report_mismatches(check, batch, tree_bad, n - 1, batch.metrics.edge_count)

    # a disconnected row's diameter reads -1, below every bound
    diam = batch.diameters
    for r in np.flatnonzero(diam > bound).tolist():
        check.fail(group, int(batch.ks[r]), f"diameter <= {int(bound[r])}", int(diam[r]))
    return check


def check_clique(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("clique", cells=len(batch.ks))
    return _check_rows(check, batch, batch.clique_criterion, batch.metrics.omega == 3)


def check_chromatic(batch: GroupBatch) -> TheoremCheck:
    """chi <= 3, and the colouring certificate is proper with exactly chi colours."""
    check = TheoremCheck("chromatic", cells=len(batch.ks))
    chi = batch.metrics.chi
    over = np.flatnonzero(chi > 3)
    _report_mismatches(check, batch, over, "<= 3", chi)
    S = batch.S
    R, n = S.shape
    colors_mat = np.empty((R, n), dtype=np.int8)
    for r in range(R):
        got_chi, colors = analysis.chromatic(batch.graph_for_row(r))
        if got_chi != int(chi[r]):
            check.fail(batch.group, int(batch.ks[r]), int(chi[r]), got_chi)
        colors_mat[r] = colors
    # Proper: no edge, one kept arc each, joins two equal colours.  Every
    # loop x -> x clashes, so only a row with more clashes than fixed points
    # has a conflicting edge.
    clash = colors_mat == np.take_along_axis(colors_mat, S, axis=1)
    rows = np.flatnonzero(np.count_nonzero(clash, axis=1) > batch.metrics.fixed_count)
    clash = clash[rows] & kept_arcs(S[rows])
    rows = rows[np.nonzero(clash)[0]]
    del clash
    _mark_rows(check, batch, rows)
    for r in rows[:MAX_COUNTEREXAMPLES].tolist():
        check.fail(batch.group, int(batch.ks[r]), "proper colouring", "conflict")
    # exactly chi colours: max equals chi and every colour below it occurs
    max_color = colors_mat.max(axis=1)
    occurs = np.stack([(colors_mat == c).any(axis=1) for c in (1, 2, 3)], axis=1)
    full_range = occurs.cumprod(axis=1)[np.arange(R), max_color - 1] > 0
    bad = np.flatnonzero((max_color != chi) | ~full_range)
    _report_mismatches(check, batch, bad, chi, max_color)
    return check


def check_forest(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("forest", cells=len(batch.ks))
    return _check_rows(check, batch, batch.forest_criterion, ~batch.metrics.has_cycle)


def check_star(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("star", cells=len(batch.ks))
    case = batch.star_case != analysis.STAR_CASE_NONE
    return _check_rows(check, batch, case, batch.metrics.star_shape)


def check_empty(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("empty", cells=len(batch.ks))
    return _check_rows(check, batch, batch.empty_criterion, batch.metrics.edge_count == 0)


def check_components(batch: GroupBatch) -> TheoremCheck:
    """Coprime cyclic: count >= tau(n), equality iff primitive-root criterion."""
    group = batch.group
    check = TheoremCheck("components")
    if group.spec.family != "cyclic":
        return check
    n = group.order
    kn = batch.kn
    coprime = np.gcd(kn, n) == 1
    check.cells = int(coprime.sum())
    if check.cells == 0:
        return check
    tau_n = numth.tau(n)
    criterion = coprime & batch.primitive_root
    count = batch.metrics.comp_count
    below = np.flatnonzero(coprime & (count < tau_n))
    _report_mismatches(check, batch, below, f">= tau {tau_n}", count)
    bad = np.flatnonzero(coprime & ((count == tau_n) != criterion))
    _report_mismatches(check, batch, bad, criterion, count == tau_n)
    return check


def check_shapes(batch: GroupBatch) -> TheoremCheck:
    """Cyclic: components all isolated/K2/cycle iff the gcd criterion holds."""
    group = batch.group
    check = TheoremCheck("shapes")
    if group.spec.family != "cyclic":
        return check
    check.cells = len(batch.kn)
    criterion = analysis.shapes_basic_rows(group.order, batch.kn)
    return _check_rows(check, batch, criterion, batch.metrics.all_shapes_basic)


def check_order_adjacency(batch: GroupBatch) -> TheoremCheck:
    """Coprime cyclic: every edge joins elements of equal order."""
    group = batch.group
    check = TheoremCheck("order-adjacency")
    if group.spec.family != "cyclic":
        return check
    n = group.order
    kn = batch.kn
    coprime = np.gcd(kn, n) == 1
    check.cells = int(coprime.sum())
    if check.cells == 0:
        return check
    orders = n // np.gcd(n, np.arange(n, dtype=np.int64))
    # Each edge is one kept arc x -> s(x), listed as (u, v), u < v, in
    # (row, u, v) order.
    S = batch.S
    mismatched = orders[S] != orders
    mismatched &= coprime[:, None]
    rows = np.flatnonzero(mismatched.any(axis=1))
    mismatched = mismatched[rows] & kept_arcs(S[rows])
    at, xs = np.nonzero(mismatched)
    del mismatched
    ys = S[rows[at], xs]
    keys = (rows[at] * n + np.minimum(xs, ys)) * n + np.maximum(xs, ys)
    keys.sort()
    rows, lo, hi = keys // (n * n), keys // n % n, keys % n
    _mark_rows(check, batch, rows)
    for r, u, v in zip(rows[:MAX_COUNTEREXAMPLES].tolist(), lo.tolist(), hi.tolist()):
        check.fail(group, int(batch.ks[r]), "order-homogeneous edge", f"({u},{v})")
    return check


def check_thm16(batch: GroupBatch) -> TheoremCheck:
    """Cyclic n = 2 mod 4 (n >= 6): the two closed-form shapes at n/2, n/2+1."""
    group = batch.group
    check = TheoremCheck("thm16")
    n = group.order
    if group.spec.family != "cyclic" or n % 4 != 2 or n < 6:
        return check
    check.cells = 2
    try:
        analysis.theorem16_structure(n)
    except analysis.TheoremViolation as exc:
        check.fail(group, n // 2, "certified structure", str(exc))
    return check


def check_perfect(batch: GroupBatch) -> TheoremCheck:
    """Perfection equals absence of odd cycles of length >= 5."""
    check = TheoremCheck("perfect", cells=len(batch.ks))
    m = batch.metrics
    perfect = ~m.has_long_odd_cycle
    # chi = 3 with omega = 2 must witness imperfection, and vice versa for
    # pseudoforests: imperfect means an odd hole >= 5, so no triangle is
    # required for chi = 3.
    implied_imperfect = (m.chi == 3) & (m.omega != 3)
    bad = np.flatnonzero(perfect & implied_imperfect)
    _report_mismatches(check, batch, bad, "imperfect", "perfect")
    bad2 = np.flatnonzero(~perfect & (m.chi < 3))
    _report_mismatches(check, batch, bad2, "chi = 3", batch.metrics.chi)
    return check


def check_chair(max_n: int) -> TheoremCheck:
    """Simulated minimal whistle count vs the coprimality closed form.

    Also checks the two-sided degree-profile characterisation (all degrees
    (1,1) iff gcd(n,k) = 1) exhaustively for n <= 256, all k <= n+1.
    """
    check = TheoremCheck("chair", cells=max_n)
    for n in range(1, max_n + 1):
        sol = solve_chairs(n)
        expected = 2
        while math.gcd(n, expected) != 1:
            expected += 1
        if sol.minimal_k != expected:
            check.note(f"n={n}: expected minimal k {expected}, got {sol.minimal_k}")
            check.mark([n])
    for n in range(1, min(max_n, 256) + 1):
        ks = np.arange(2, n + 2, dtype=np.int64)
        targets = (ks[:, None] * np.arange(n, dtype=np.int64)[None, :]) % n
        flat = (targets + (np.arange(len(ks), dtype=np.int64) * n)[:, None]).ravel()
        indeg = np.bincount(flat, minlength=len(ks) * n).reshape(len(ks), n)
        all_ones = (indeg == 1).all(axis=1)
        coprime = np.gcd(ks, n) == 1
        for r in np.flatnonzero(all_ones != coprime)[:MAX_COUNTEREXAMPLES]:
            check.note(
                f"n={n} k={int(ks[r])}: degree profile all (1,1) is {bool(all_ones[r])} "
                f"but gcd = {math.gcd(n, int(ks[r]))}"
            )
            check.mark([n])
    return check


_BATCH_CHECKS = {
    "edges": check_edges,
    "degrees": check_degrees,
    "connectivity": check_connectivity,
    "clique": check_clique,
    "chromatic": check_chromatic,
    "forest": check_forest,
    "star": check_star,
    "empty": check_empty,
    "components": check_components,
    "shapes": check_shapes,
    "order-adjacency": check_order_adjacency,
    "thm16": check_thm16,
    "perfect": check_perfect,
}


# -- sweeps ----------------------------------------------------------------------


@dataclass
class SweepSpec:
    families: tuple[str, ...]
    max_n: int
    min_n: int = 1
    k_max: int | None = None  # None means all of 2..o(G)+1
    theorems: tuple[str, ...] = THEOREMS
    product_max_factors: int = 3

    def __post_init__(self):
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        for theorem in self.theorems:
            if theorem not in THEOREMS:
                raise ValueError(f"unknown theorem selector {theorem!r}")
        if self.max_n < self.min_n:
            raise ValueError("empty parameter range")


def sweep_group_specs(spec: SweepSpec):
    """Group specs of a sweep, in deterministic order."""
    for family in spec.families:
        if family == "product":
            lo = max(spec.min_n, 2)
            sizes = range(2, spec.product_max_factors + 1)
            for size in sizes:
                for combo in _multisets(lo, spec.max_n, size):
                    yield GroupSpec("product", combo)
        else:
            lo = spec.min_n
            if family == "quaternion":
                lo = max(lo, 2)
            hi = spec.max_n
            if family == "sym":
                hi = min(hi, 8)
            for n in range(lo, hi + 1):
                yield GroupSpec(family, (n,))


def _multisets(lo: int, hi: int, size: int):
    """Non-decreasing tuples from [lo, hi]^size (isomorphism representatives)."""
    if size == 1:
        for a in range(lo, hi + 1):
            yield (a,)
        return
    for rest in _multisets(lo, hi, size - 1):
        for a in range(rest[-1], hi + 1):
            yield rest + (a,)


def exponents_for(group: FiniteGroup, k_max: int | None) -> np.ndarray:
    hi = group.order + 1 if k_max is None else min(k_max, group.order + 1)
    return np.arange(2, hi + 1, dtype=np.int64)


def corpus_specs():
    """The standard verification corpus: every family at its acceptance cap.

    Cyclic n <= 512, dihedral parameter <= 200 (order 400), generalized
    quaternion parameter <= 32 (order 128), symmetric n <= 6, and products
    of 2..3 cyclic factors each in 2..12 (non-decreasing tuples, so each
    isomorphism class appears once; single factors duplicate the cyclic
    family and are skipped).
    """
    yield from sweep_group_specs(SweepSpec(("cyclic",), 512))
    yield from sweep_group_specs(SweepSpec(("dihedral",), 200))
    yield from sweep_group_specs(SweepSpec(("quaternion",), 32))
    yield from sweep_group_specs(SweepSpec(("sym",), 6))
    yield from sweep_group_specs(SweepSpec(("product",), 12, min_n=2))


def sweep_batches(spec: SweepSpec):
    """One `GroupBatch` per group of the sweep that has exponents, in sweep order."""
    for gspec in sweep_group_specs(spec):
        group = build_group(gspec)
        ks = exponents_for(group, spec.k_max)
        if len(ks):
            yield GroupBatch.build(group, ks)


def run_verification(spec: SweepSpec) -> list[TheoremCheck]:
    """Run the selected theorem checks over the sweep, merging per-group results."""
    results = {name: TheoremCheck(name) for name in spec.theorems}
    batch_names = [name for name in spec.theorems if name in _BATCH_CHECKS]
    for batch in sweep_batches(spec):
        for name in batch_names:
            results[name].merge(_BATCH_CHECKS[name](batch))
    if "chair" in spec.theorems:
        results["chair"].merge(check_chair(spec.max_n))
    return [results[name] for name in spec.theorems]
