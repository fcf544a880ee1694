"""Sweep verification: closed forms against brute force, at scale.

A whole group's worth of exponents is analysed in one call: the successor
maps for every k form a matrix (``groups.successor_rows``, the package's one
vectorised power map, re-exported here).  Each row is its own functional
graph, so `analyze_batch` works through the matrix in blocks of whole rows,
of about ``_BLOCK_VERTICES`` vertices, each glued into one disjoint
functional graph on its R*n vertices; the blocks' tables are joined in row
order.  Within a block, edges and component structure fall out of a
constant number of vectorised passes, none of them a hash, a sort or a
stable argsort:

  * edge dedup by mask (``graphs.kept_arcs``): an arc x -> s(x) with
    x != s(x) repeats another edge exactly when s(s(x)) = x and x > s(x),
    so those arcs are dropped and each remaining arc is one edge; edge
    counts and degrees are bincounts of them;
  * the component pass, ``graphs._components``, which a standalone
    ``graphs.KPowerGraph`` also runs on its one row:
    - leaf peeling exposes the directed cycles (tails of power maps are
      short, so the loop runs only a handful of rounds, each touching the
      in-degrees of its own arcs' heads) and writes each tail vertex's
      code, 2j for the j-th round;
    - doubling-with-minimum, over the on-cycle vertices alone, labels every
      cycle by its least vertex, writes each on-cycle vertex's code, the
      parity of its distance to it, and stops at the first pass that
      changes no label, so the pass count follows the longest cycle, not
      the order;
    - the cycles' least vertices, numbered in id order, number the
      components in ascending label order, and the peel rounds, replayed
      from the cycles outward, carry each tail vertex to its component.

Every temporary is the size of a block and dropped once its last use is
past, so beside its outputs (the degree matrix, one int64 per vertex, and
the code, one byte) a batch holds only a few blocks' worth of arrays.

The graph side runs once per distinct graph.  x^k depends on k only modulo
o(x), so P(G, k) = P(G, k') exactly when k = k' mod exp(G), the lcm of the
element orders.  ``GroupBatch.build`` still builds every row, classes the
rows by their exponent mod exp(G) and compares each with its class's first
row; the ``period`` check fails any row that differs, and such a row is
analysed as its own graph.  Only the representatives' rows are kept, and
only they go through `analyze_batch` and the per-row certificates: what
describes a graph (successor rows ``S``, degrees, component arrays, code)
is stored once per distinct graph, and the checks that read it work per
class.  The per-row answers a check compares row by row (edge count,
components, chi, ...) are gathered to every row through the class index.
Every closed form is still evaluated on each row's own exponent, so every
cell is still proved.  A batch whose rows are all distinct (a cyclic sweep
with k <= o(G)+1, a one-row ``analyze``) is analysed as built.

`BatchMetrics` is the package's one graph side for these metrics and for
the clique number, perfection and the star and forest shapes; nothing
computes them again per graph.  Each theorem check compares a closed form
against them and reports counterexamples.  The colouring and the diameters
are certificates built per representative row, by the per-graph functions
``analysis.chromatic`` and ``graphs.diameter``, from the successor row and
that row's ``code`` of its block's one component pass (each vertex's peel
round and cycle distance parity, one byte per vertex), so no check runs
the pass again or builds an adjacency list.  The closed forms live in
`analysis`, written once and vectorised over the exponents.
`analysis.analyze` builds a one-row batch, runs every check on it and
reports their failures.  The test suite
pins the engine against list-walking references and networkx.

`sweep_batches` is the one loop from a `SweepSpec` to its batches, one
per group in sweep order; `run_verification` and ``kpower sweep`` both
iterate it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import analysis, numth
from .chair import in_degree_rows, solve_chairs
from .graphs import SHAPE_TREE, KPowerGraph, _components, _edge_keys, diameter, kept_arcs, shape_codes
from .groups import FAMILIES, FiniteGroup, GroupSpec, build_group, successor_rows

MAX_COUNTEREXAMPLES = 5


# -- batched successor analysis --------------------------------------------------


@dataclass
class BatchMetrics:
    """Per-row answers and per-graph tables of a batch of k-power graphs.

    ``analyze_batch`` gives every field one entry per analysed row.  In a
    `GroupBatch`, which keeps one successor row per distinct graph, the
    answers (marked "row") hold one entry per row of the batch, and the
    tables (marked "graph") one per class, read through ``row_class``.
    """

    n: int
    edge_count: np.ndarray  # row: (R,)
    degrees: np.ndarray  # graph: (U, n)
    comp_count: np.ndarray  # row: (R,)
    connected: np.ndarray  # row: (R,) bool
    has_cycle: np.ndarray  # row: some component cycle of length >= 3
    has_long_odd_cycle: np.ndarray  # row: odd length >= 5
    omega: np.ndarray  # row: clique number: 1 edgeless, 3 with a triangle, else 2
    all_shapes_basic: np.ndarray  # row: no component is a tree or unicyclic (`graphs.shape_codes`)
    star_shape: np.ndarray  # row
    chi: np.ndarray  # row: 1/2/3 from cycle parity
    comp_row: np.ndarray  # graph: per-component arrays; the analysed row of each
    comp_vertices: np.ndarray  # graph
    comp_edges: np.ndarray  # graph
    comp_cycle_len: np.ndarray  # graph: directed cycle length (1 = fixed point, 2 = mutual pair)
    comp_least: np.ndarray  # graph: least vertex of each component, flat over the analysed rows
    code: np.ndarray  # graph: (U, n) `graphs.ComponentPass.code`


def analyze_batch(S: np.ndarray) -> BatchMetrics:
    R, n = S.shape
    # Each row is its own functional graph: a block of whole rows is
    # analysed alone, and its components follow the previous blocks'.  An
    # empty batch is one empty block.
    step = max(1, _BLOCK_VERTICES // n)
    degrees = np.empty((R, n), dtype=np.int64)
    blocks = [_analyze_block(S[first:first + step], first, degrees[first:first + step])
              for first in range(0, max(R, 1), step)]
    # A uint8 block of codes joined to a uint16 one is promoted, as in one pass.
    comp_vertices, comp_edges, comp_cycle_len, comp_least, edge_count, code = map(np.concatenate, zip(*blocks))
    del blocks
    comp_row = comp_least // n  # a component's least vertex lies in its own row

    comp_count = np.bincount(comp_row, minlength=R)
    connected = comp_count == 1

    undirected_cycle = comp_cycle_len >= 3
    odd = undirected_cycle & (comp_cycle_len % 2 == 1)
    odd_long = odd & (comp_cycle_len >= 5)
    has_cycle = _row_any(comp_row[undirected_cycle], R)
    has_odd_cycle = _row_any(comp_row[odd], R)
    has_long_odd_cycle = _row_any(comp_row[odd_long], R)
    all_shapes_basic = ~_row_any(comp_row[shape_codes(comp_vertices, comp_cycle_len) >= SHAPE_TREE], R)

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
        comp_count=comp_count,
        connected=connected,
        has_cycle=has_cycle,
        has_long_odd_cycle=has_long_odd_cycle,
        omega=omega,
        all_shapes_basic=all_shapes_basic,
        star_shape=star_shape,
        chi=chi,
        comp_row=comp_row,
        comp_vertices=comp_vertices,
        comp_edges=comp_edges,
        comp_cycle_len=comp_cycle_len,
        comp_least=comp_least,
        code=code.reshape(R, n),
    )


def _analyze_block(S: np.ndarray, first: int, degrees: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``first``.. of a batch, analysed as one disjoint functional
    graph on their R*n vertices: their components in ascending order of
    root, with the flat ids of the whole batch, then their edge counts and
    codes.  Their degrees are written into ``degrees``."""
    R, n = S.shape
    N = R * n
    succ = S.astype(np.int64)
    succ += (np.arange(R, dtype=np.int64) * n)[:, None]
    succ = succ.ravel()

    # The pass runs first, so the code it returns, which outlives the block,
    # is allocated before any temporary of the block (see `_components`).
    comp_dense, comp_cycle_len, comp_least, code = _components(succ)
    comp_least += first * n
    # The kept arcs are the edges, one arc each (`graphs.kept_arcs`).
    keep = kept_arcs(succ)
    C = comp_cycle_len.size
    comp_vertices = np.bincount(comp_dense, minlength=C)
    # Each kept arc is one edge of its tail's component.
    comp_edges = np.bincount(comp_dense[keep], minlength=C)
    del comp_dense

    # Each kept arc adds one to the degree of both ends, and to the edge
    # count of its row, which its head shares with its tail.
    arcs = np.flatnonzero(keep)
    del keep
    tail_degrees = np.bincount(arcs, minlength=N)
    np.take(succ, arcs, out=arcs)
    del succ
    np.add(tail_degrees, np.bincount(arcs, minlength=N), out=degrees.reshape(N))
    del tail_degrees
    arcs //= n
    edge_count = np.bincount(arcs, minlength=R)
    del arcs
    return comp_vertices, comp_edges, comp_cycle_len, comp_least, edge_count, code


def _row_any(rows: np.ndarray, R: int) -> np.ndarray:
    return np.bincount(rows, minlength=R) > 0


# The per-row answers of `BatchMetrics`, which a `GroupBatch` gathers to
# every row; its other fields but ``n`` are the analysed rows' tables.
_ROW_ANSWERS = ("edge_count", "comp_count", "connected", "has_cycle", "has_long_odd_cycle",
                "omega", "all_shapes_basic", "star_shape", "chi")


# Successor entries compared at once when rows are checked against their class.
_COMPARE_ENTRIES = 1 << 16

# Vertices `analyze_batch` analyses at once, in blocks of whole rows: a
# block's arrays fit a 4 MiB L2 cache.  On one round of cyclic:65536 at 32
# exponents, blocks of 2^16..2^19 vertices took 0.50-0.62 s, one pass over
# the whole batch 0.76 s.
_BLOCK_VERTICES = 1 << 17


def _rows_unlike(S: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The rows r of S that differ from row ``first[r]``, ascending.

    Rows are compared a bounded chunk at a time, never as one copy of every
    repeated row.
    """
    rows = np.flatnonzero(first != np.arange(first.size))
    step = max(1, _COMPARE_ENTRIES // S.shape[1])
    unlike = [rows[:0]]
    for i in range(0, rows.size, step):
        chunk = rows[i:i + step]
        unlike.append(chunk[(S[chunk] != S[first[chunk]]).any(axis=1)])
    return np.concatenate(unlike)


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
    S: np.ndarray  # a graph table: row c is class c's successor row
    metrics: BatchMetrics
    # The row classes whose graph side ran once: ``rep[c]`` is class c's
    # representative row and ``row_class[r]`` row r's class.  A batch built
    # from its parts keeps every row in ``S``, each its own class.
    rep: np.ndarray | None = None
    row_class: np.ndarray | None = None
    # Rows whose successor row differs from the first row with the same
    # exponent mod exp(G); each is its own class, and ``check_period`` fails it.
    aperiodic: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        if self.rep is None:
            self.rep = self.row_class = np.arange(len(self.ks))

    @classmethod
    def build(cls, group: FiniteGroup, ks: np.ndarray) -> "GroupBatch":
        """Every row's successor row, kept and analysed once per distinct graph.

        x**k depends on k only mod o(x), so rows whose exponents agree mod
        exp(G) hold one graph.  Each row is compared with its class's first
        row; only those representatives are kept and go through
        ``analyze_batch``.  Its per-row answers are gathered to every row,
        and its tables, ``S`` among them, stay one row per class.
        """
        kn = normalized_exponents(ks, group.order)
        S = successor_rows(group, ks)
        _, rep, row_class = np.unique(ks % group.exponent, return_index=True, return_inverse=True)
        aperiodic = _rows_unlike(S, rep[row_class])
        if aperiodic.size:  # each breaks away into a class of its own
            row_class[aperiodic] = rep.size + np.arange(aperiodic.size)
            rep = np.concatenate([rep, aperiodic])
        if rep.size < len(ks):  # the class rows alone; every row's are freed before the pass
            S = S[rep]
        else:  # every row is its own class, in row order
            rep = row_class = np.arange(len(ks))
        metrics = analyze_batch(S)
        for name in _ROW_ANSWERS:  # each class's answers, gathered to its rows
            setattr(metrics, name, getattr(metrics, name)[row_class])
        return cls(group, ks, kn, S, metrics, rep, row_class, aperiodic)

    @cached_property
    def connectivity(self) -> tuple[np.ndarray, np.ndarray]:
        """(criterion, diameter bound) per row, from ``analysis.connectivity_rows``."""
        return analysis.connectivity_rows(self.group, self.kn)

    @cached_property
    def diameters(self) -> np.ndarray:
        """Each tree row's diameter, read off its class's row of the code; -1 on every other row.

        A tree is a connected row with n - 1 edges; ``check_connectivity``
        fails a connected row with any other count, and a tree row whose
        code ``graphs.diameter`` rejects, which reads -1 too.
        """
        m = self.metrics
        out = np.full(self.rep.size, -1, dtype=np.int64)
        tree = m.connected & (m.edge_count == self.group.order - 1)
        for c in np.flatnonzero(tree[self.rep]).tolist():
            try:
                out[c] = diameter(self.graph_for_row(int(self.rep[c])))
            except ValueError:
                pass
        return out[self.row_class]

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
    def cyclic_pi(self) -> np.ndarray:
        """Cyclic groups only: ``analysis.cyclic_pi_rows``."""
        return analysis.cyclic_pi_rows(self.group.order, self.kn)

    @cached_property
    def primitive_root(self) -> np.ndarray:
        """Cyclic groups only: ``analysis.primitive_root_rows``."""
        return analysis.primitive_root_rows(self.group.order, self.kn)

    def graph_for_row(self, r: int) -> KPowerGraph:
        """Row r's KPowerGraph, over its successor row, with its class's row
        of the batch pass's code already set as its own."""
        c = self.row_class[r]
        gr = KPowerGraph(int(self.ks[r]), int(self.kn[r]), self.S[c])
        gr.code = self.metrics.code[c]
        return gr


@dataclass
class TheoremCheck:
    """One theorem's tally: cells checked, distinct cells failed, a few counterexamples.

    A batch check's cell is one (group, k), the chair check's is one n.
    ``fail`` is the one way to record a failure.
    """

    name: str
    cells: int = 0
    failures: list[str] = field(default_factory=list)
    failed_cells: int = 0
    _failed: set = field(default_factory=set, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, cells, lines) -> None:
        """Count each distinct cell in ``cells`` once as failed; keep the first MAX_COUNTEREXAMPLES
        ``lines`` of all calls, read lazily, then one "..." if any line was cut."""
        before = len(self._failed)
        self._failed.update(cells)
        self.failed_cells += len(self._failed) - before
        room = MAX_COUNTEREXAMPLES - len(self.failures)  # -1 once the marker is in
        if room >= 0:
            lines = iter(lines)
            self.failures += itertools.islice(lines, room)
            if next(lines, None) is not None:
                self.failures.append("...")

    def merge(self, other: "TheoremCheck") -> None:
        """Add another check's tallies; the two must cover disjoint cells."""
        self.cells += other.cells
        self.failed_cells += other.failed_cells
        self.fail((), other.failures)


def _fail_rows(check: TheoremCheck, batch: GroupBatch, rows, expected, got) -> None:
    """Fail each row's cell, with one line for each of the first MAX_COUNTEREXAMPLES rows.

    ``expected`` and ``got`` are one value for all rows, or lists or arrays
    whose i-th entry describes ``rows[i]`` (only the listed rows' are read).
    A "..." line stands for the rows past them, so ``check.fail`` marks the cut.
    """
    if not len(rows):
        return
    spec = batch.group.spec
    ks = batch.ks[rows].tolist()
    listed = (v if isinstance(v, (list, np.ndarray)) else [v] * MAX_COUNTEREXAMPLES for v in (expected, got))
    lines = [f"group={spec} k={k}: expected {e}, got {g}" for k, e, g in zip(ks[:MAX_COUNTEREXAMPLES], *listed)]
    check.fail(((spec, k) for k in ks), lines + ["..."] * (len(ks) > MAX_COUNTEREXAMPLES))


def _check_rows(check: TheoremCheck, batch: GroupBatch, expected: np.ndarray,
                got: np.ndarray) -> TheoremCheck:
    """Report every row where the closed form and the graph side differ."""
    bad = np.flatnonzero(expected != got)
    _fail_rows(check, batch, bad, expected[bad], got[bad])
    return check


# -- individual theorem checks ------------------------------------------------------


def check_edges(batch: GroupBatch) -> TheoremCheck:
    """Closed-form edge counts vs the graph's, and |E| <= n - 1.

    A census that breaks the closed form's own invariant fails every cell
    of the batch.
    """
    check = TheoremCheck("edges", cells=len(batch.ks))
    got = batch.metrics.edge_count
    try:
        expected = analysis.edge_count_rows(batch.group, batch.kn)
    except analysis.TheoremViolation as exc:
        check.fail([(batch.group.spec, k) for k in batch.ks.tolist()], [f"group={batch.group.spec}: {exc}"])
    else:
        _check_rows(check, batch, expected, got)
    over = np.flatnonzero(got > batch.group.order - 1)
    _fail_rows(check, batch, over, batch.group.order - 1, got[over])
    return check


def check_degrees(batch: GroupBatch) -> TheoremCheck:
    """Closed-form degrees vs graph degrees, every vertex (cyclic only).

    Both sides are read one row per class.  A cyclic group's exponent is its
    order n, so the rows of a class share one kn = k mod n, and the closed
    form on the class's row is exactly the closed form on each of its rows.
    """
    group = batch.group
    n = group.order
    check = TheoremCheck("degrees")
    if group.spec.family != "cyclic":
        return check
    check.cells = len(batch.ks) * n
    degrees = batch.metrics.degrees
    formula = analysis.cyclic_degree_rows(n, batch.kn[batch.rep], np.arange(n, dtype=np.int64))
    mismatch = formula != degrees
    bad_rows = np.flatnonzero(mismatch.any(axis=1)[batch.row_class])
    listed = batch.row_class[bad_rows[:MAX_COUNTEREXAMPLES]]
    v = mismatch[listed].argmax(axis=1)  # each listed row's first mismatched vertex
    _fail_rows(check, batch, bad_rows, [f"deg({a}) = {b}" for a, b in zip(v, formula[listed, v])],
               degrees[listed, v])
    return check


def check_connectivity(batch: GroupBatch) -> TheoremCheck:
    """Order criterion vs graph connectivity; connected means a tree; diameter bound; cyclic pi test."""
    group = batch.group
    n = group.order
    check = TheoremCheck("connectivity", cells=len(batch.ks))
    criterion, bound = batch.connectivity
    got = batch.metrics.connected
    _check_rows(check, batch, criterion, got)

    if group.spec.family == "cyclic":
        # pi(n) subset of pi(k)
        _check_rows(check, batch, batch.cyclic_pi, got)
    # a connected k-power graph is a tree, and its code is a tree's
    tree = got & (batch.metrics.edge_count == n - 1)
    tree_bad = np.flatnonzero(got & ~tree)
    _fail_rows(check, batch, tree_bad, n - 1, batch.metrics.edge_count[tree_bad])
    _fail_rows(check, batch, np.flatnonzero(tree & (batch.diameters < 0)), "a tree in the component pass",
               "a cycle or two components")

    # a row that is no tree has no diameter and reads -1, below every bound
    over = np.flatnonzero(batch.diameters > bound)
    _fail_rows(check, batch, over, [f"diameter <= {b}" for b in bound[over[:MAX_COUNTEREXAMPLES]]],
               batch.diameters[over])
    return check


def check_clique(batch: GroupBatch) -> TheoremCheck:
    check = TheoremCheck("clique", cells=len(batch.ks))
    return _check_rows(check, batch, batch.clique_criterion, batch.metrics.omega == 3)


def check_chromatic(batch: GroupBatch) -> TheoremCheck:
    """chi <= 3, and the colouring certificate is proper with colours exactly 1..chi.

    The certificate runs on each class representative, from its row of
    the batch pass's code; a class's result is every row's in it.
    """
    check = TheoremCheck("chromatic", cells=len(batch.ks))
    chi = batch.metrics.chi
    over = np.flatnonzero(chi > 3)
    _fail_rows(check, batch, over, "<= 3", chi[over])
    S, rep, row_class = batch.S, batch.rep, batch.row_class
    U, n = S.shape
    colors_mat = np.empty((U, n), dtype=np.int8)
    for c, r in enumerate(rep.tolist()):
        colors_mat[c] = analysis.chromatic(batch.graph_for_row(r))
    # Proper: no edge, one kept arc each, joins two equal colours.  A loop
    # x -> x is no edge, so only a class with a clash off its loops has a
    # conflicting edge.  Each row is listed once per such edge.
    clash = colors_mat == np.take_along_axis(colors_mat, S, axis=1)
    clash &= S != np.arange(n)
    classes = np.flatnonzero(clash.any(axis=1))
    conflicts = np.count_nonzero(clash[classes] & kept_arcs(S[classes]), axis=1)
    del clash
    per_class = np.zeros(U, dtype=np.int64)
    per_class[classes] = conflicts
    rows = np.repeat(np.arange(len(batch.ks)), per_class[row_class])
    _fail_rows(check, batch, rows, "proper colouring", "conflict")
    # Exactly chi colours: every colour lies in 1..chi, and each of them occurs.
    low, high = colors_mat.min(axis=1), colors_mat.max(axis=1)
    used = sum((colors_mat == c).any(axis=1) for c in range(int(low.min()), int(high.max()) + 1))
    exact = (low[row_class] == 1) & (high[row_class] == chi) & (used[row_class] == chi)
    bad = np.flatnonzero(~exact)
    listed = row_class[bad[:MAX_COUNTEREXAMPLES]]
    _fail_rows(check, batch, bad, [f"colours 1..{c}" for c in chi[bad[:MAX_COUNTEREXAMPLES]]],
               [f"{u} colours in {a}..{b}" for u, a, b in zip(used[listed], low[listed], high[listed])])
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
    criterion = analysis.empty_criterion_rows(batch.group, batch.kn)
    return _check_rows(check, batch, criterion, batch.metrics.edge_count == 0)


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
    _fail_rows(check, batch, below, f">= tau {tau_n}", count[below])
    bad = np.flatnonzero(coprime & ((count == tau_n) != criterion))
    _fail_rows(check, batch, bad, criterion[bad], count[bad] == tau_n)
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
    # Decided per class, whose rows share kn (exp(G) = n); each edge of a failing
    # class's rows is one kept arc x -> s(x), listed as (u, v), u < v, in (row, u, v) order.
    S = batch.S
    mismatched = orders[S] != orders
    mismatched &= coprime[batch.rep, None]
    rows = np.flatnonzero(mismatched.any(axis=1)[batch.row_class])
    classes = batch.row_class[rows]
    mismatched = mismatched[classes] & kept_arcs(S[classes])
    at, xs = np.nonzero(mismatched)
    del mismatched
    ys = S[classes[at], xs]
    keys = (rows[at] * n + np.minimum(xs, ys)) * n + np.maximum(xs, ys)
    keys.sort()
    rows, lo, hi = keys // (n * n), keys // n % n, keys % n
    _fail_rows(check, batch, rows, "order-homogeneous edge",
               [f"({u},{v})" for u, v in zip(lo[:MAX_COUNTEREXAMPLES], hi[:MAX_COUNTEREXAMPLES])])
    return check


def _half_exponent_keys(n: int, kn: int) -> np.ndarray:
    """P(Z_n, kn)'s sorted edge keys min*n + max at kn = n/2 (evens joined to 0,
    odds to n/2) or n/2 + 1 (the pairs {a, a + n/2})."""
    half = n // 2
    if kn == half + 1:
        return np.arange(half, dtype=np.int64) * (n + 1) + half
    odd = np.arange(1, n, 2, dtype=np.int64)
    return np.concatenate([np.arange(2, n, 2, dtype=np.int64), odd[odd < half] * n + half,
                           half * n + odd[odd > half]])


def check_thm16(batch: GroupBatch) -> TheoremCheck:
    """Cyclic n = 2 mod 4 (n >= 6): by exact edge sets, the rows at k = n/2 are two stars,
    those at n/2 + 1 the perfect matching; a shape's keys are built only if it has a row."""
    group = batch.group
    check = TheoremCheck("thm16")
    n = group.order
    if group.spec.family != "cyclic" or n % 4 != 2 or n < 6:
        return check
    half = n // 2
    for kn, shape in ((half, f"two stars K_{{1,{half - 1}}} centred at 0 and {half}"),
                      (half + 1, f"the perfect matching {{a, a+{half}}}")):
        rows = np.flatnonzero(batch.kn == kn).tolist()
        check.cells += len(rows)
        expected = _half_exponent_keys(n, kn) if rows else None
        for r in rows:
            keys = _edge_keys(batch.S[batch.row_class[r]])
            off = keys[expected.take(np.searchsorted(expected, keys), mode="clip") != keys]
            if off.size or keys.size != expected.size:  # equal sizes and no key off: the same list
                got = "first off the list (%d,%d)" % divmod(int(off[0]), n) if off.size else "all on the list"
                _fail_rows(check, batch, [r], shape, f"{keys.size} edges, {got}")
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
    _fail_rows(check, batch, bad, "imperfect", "perfect")
    bad2 = np.flatnonzero(~perfect & (m.chi < 3))
    _fail_rows(check, batch, bad2, "chi = 3", m.chi[bad2])
    return check


def check_period(batch: GroupBatch) -> TheoremCheck:
    """P(G, k) depends on k only mod exp(G): each row equals the first row of its residue.

    ``GroupBatch.build`` compares every row with that first row and gives
    each row that differs a class of its own, so no other check reads
    another row's graph side for it; this check fails those rows.
    """
    check = TheoremCheck("period", cells=len(batch.ks))
    residues = batch.ks % batch.group.exponent
    expected, got = [], []
    for r in batch.aperiodic[:MAX_COUNTEREXAMPLES].tolist():
        first = int(np.flatnonzero(residues == residues[r])[0])
        row, like = batch.S[batch.row_class[r]], batch.S[batch.row_class[first]]
        x = int(np.flatnonzero(row != like)[0])
        expected.append(f"{x}^k = {like[x]} as at k={batch.ks[first]}")
        got.append(row[x])
    _fail_rows(check, batch, batch.aperiodic, expected, got)
    return check


def check_chair(max_n: int) -> TheoremCheck:
    """Simulated minimal whistle count vs the coprimality closed form: the
    error ``chair.solve_chairs`` raises where the two disagree is n's
    counterexample.

    Also checks the two-sided degree-profile characterisation (all degrees
    (1,1) iff gcd(n,k) = 1) exhaustively for n <= 256, all k <= n+1.
    """
    check = TheoremCheck("chair", cells=max_n)
    for n in range(1, max_n + 1):
        try:
            solve_chairs(n)
        except RuntimeError as exc:
            check.fail([n], [f"n={n}: {exc}"])
    for n in range(1, min(max_n, 256) + 1):
        ks = np.arange(2, n + 2, dtype=np.int64)
        all_ones = (in_degree_rows(n, ks) == 1).all(axis=1)
        coprime = np.gcd(ks, n) == 1
        bad = np.flatnonzero(all_ones != coprime).tolist()
        if bad:
            check.fail([n], (f"n={n} k={int(ks[r])}: degree profile all (1,1) is {bool(all_ones[r])} "
                             f"but gcd = {math.gcd(n, int(ks[r]))}" for r in bad))
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
    "period": check_period,
}

# The catalogue: every batch check in registry order, then the chair riddle.
THEOREMS = (*_BATCH_CHECKS, "chair")


# -- sweeps ----------------------------------------------------------------------


@dataclass
class SweepSpec:
    families: tuple[str, ...]
    max_n: int
    min_n: int = 1
    k_max: int | None = None  # None means all of 2..o(G)+1
    theorems: tuple[str, ...] = THEOREMS

    def __post_init__(self):
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        for theorem in self.theorems:
            if theorem not in THEOREMS:
                raise ValueError(f"unknown theorem selector {theorem!r}")
        if self.max_n < self.min_n:
            raise ValueError("empty parameter range")
        if self.k_max is not None and self.k_max < 2:
            raise ValueError("k_max must be at least 2")
        # a chair-only spec builds no batch, so it needs no group
        if set(self.theorems) & set(_BATCH_CHECKS) and next(sweep_group_specs(self), None) is None:
            raise ValueError("the sweep selects no group (sym takes n <= 8, quaternion n >= 2, product factors >= 2)")


def sweep_group_specs(spec: SweepSpec):
    """Group specs of a sweep, in deterministic order."""
    for family in spec.families:
        if family == "product":
            lo = max(spec.min_n, 2)
            # non-decreasing tuples: one isomorphism representative each
            for size in (2, 3):
                for combo in itertools.combinations_with_replacement(range(lo, spec.max_n + 1), size):
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
    """One `GroupBatch` per group of the sweep, in sweep order."""
    for gspec in sweep_group_specs(spec):
        group = build_group(gspec)
        yield GroupBatch.build(group, exponents_for(group, spec.k_max))


def run_verification(spec: SweepSpec) -> list[TheoremCheck]:
    """Run the selected theorem checks over the sweep, merging per-group results."""
    results = {name: TheoremCheck(name) for name in spec.theorems}
    batch_names = [name for name in spec.theorems if name in _BATCH_CHECKS]
    if batch_names:  # a chair-only spec builds no batches
        for batch in sweep_batches(spec):
            for name in batch_names:
                results[name].merge(_BATCH_CHECKS[name](batch))
    if "chair" in spec.theorems:
        results["chair"].merge(check_chair(spec.max_n))
    return [results[name] for name in spec.theorems]
