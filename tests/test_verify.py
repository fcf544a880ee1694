"""The batched engine against the per-instance library, plus sweep plumbing."""

import itertools
import tracemalloc
from dataclasses import fields

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpower.graphs
import kpower.verify as V
from conftest import (
    edge_counts_only,
    list_chromatic,
    list_clique_number,
    list_components,
    peel_codes,
    power_map_matrices,
    set_adjacency,
    set_distances,
    successor_matrices,
    unique_tables,
)
from kpower.analysis import analyze, chromatic
from kpower.graphs import (
    SHAPES,
    build_undirected,
    components,
    diameter,
    shape_codes,
    shape_tag,
    undirected_from_successor,
)
from kpower.groups import build_group

SAMPLE_SPECS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:31",
    "cyclic:48",
    "sym:4",
    "dihedral:10",
    "quaternion:4",
    "product:4x9",
)


@pytest.fixture(scope="module", params=SAMPLE_SPECS)
def batch(request):
    group = build_group(request.param)
    ks = V.exponents_for(group, None)
    return V.GroupBatch.build(group, ks)


class TestSuccessorRows:
    def test_matches_power(self, batch):
        # every row's own successor row, and the class row the batch keeps for it
        g = batch.group
        S = V.successor_rows(g, batch.ks)
        for r in range(0, len(batch.ks), max(1, len(batch.ks) // 7)):
            k = int(batch.ks[r])
            expected = [g.power(x, k) for x in range(g.order)]
            assert S[r].tolist() == batch.S[batch.row_class[r]].tolist() == expected

    def test_keeps_one_row_per_class(self, batch):
        assert batch.S.shape == (batch.rep.size, batch.group.order)


class TestBatchAgainstLibrary:
    """Every engine metric must agree with list-walking references on the row's graph and networkx."""

    def test_row_metrics(self, batch):
        g = batch.group
        m = batch.metrics
        step = max(1, len(batch.ks) // 11)
        for r in range(0, len(batch.ks), step):
            k = int(batch.ks[r])
            gr = build_undirected(g, k)
            profiles = list_components(gr)
            h = nx.Graph(gr.edges())
            h.add_nodes_from(range(g.order))
            assert int(m.edge_count[r]) == gr.edge_count == h.number_of_edges()
            degrees = m.degrees[batch.row_class[r]]  # a table: one row per class
            assert degrees.tolist() == gr.degrees.tolist() == [h.degree(v) for v in range(g.order)]
            assert int(m.comp_count[r]) == len(profiles) == nx.number_connected_components(h)
            assert bool(m.connected[r]) == (len(profiles) == 1)
            assert int(m.omega[r]) == list_clique_number(gr) == max(len(c) for c in nx.find_cliques(h))
            assert int(m.chi[r]) == chromatic(gr).max() == list_chromatic(gr)[0]
            assert bool(~m.has_cycle[r]) == nx.is_forest(h)
            star = g.order >= 2 and h.number_of_edges() == g.order - 1 == max(d for _, d in h.degree())
            assert bool(m.star_shape[r]) == star
            long_odd = any(p.cycle_length and p.cycle_length % 2 and p.cycle_length >= 5 for p in profiles)
            assert bool(~m.has_long_odd_cycle[r]) == (not long_odd)

    def test_component_tables(self, batch):
        g = batch.group
        m = batch.metrics
        step = max(1, len(batch.ks) // 5)
        for r in range(0, len(batch.ks), step):
            profiles = list_components(build_undirected(g, int(batch.ks[r])))
            u = batch.row_class[r]  # the tables hold one row per class
            mask = m.comp_row == u
            assert sorted(m.comp_vertices[mask].tolist()) == sorted(p.vertex_count for p in profiles)
            assert sorted(m.comp_edges[mask].tolist()) == sorted(p.edge_count for p in profiles)
            engine_cycles = sorted(int(c) for c in m.comp_cycle_len[mask] if c >= 3)
            library_cycles = sorted(p.cycle_length for p in profiles if p.cycle_length)
            assert engine_cycles == library_cycles
            least = sorted((m.comp_least[mask] - u * g.order).tolist())
            assert least == [p.vertices[0] for p in profiles]

    def test_edge_counts_only_shortcut(self, batch):
        lean = edge_counts_only(V.successor_rows(batch.group, batch.ks))
        assert np.array_equal(lean, batch.metrics.edge_count)

    def test_row_graphs_match_library(self, batch):
        g = batch.group
        step = max(1, len(batch.ks) // 5)
        for r in range(0, len(batch.ks), step):
            gr = batch.graph_for_row(r)
            assert gr.edges() == build_undirected(g, int(batch.ks[r])).edges()


class TestAgainstUniqueReference:
    """The mask dedup and the presence-mask labels match the np.unique route exactly."""

    @staticmethod
    def assert_tables_match(S):
        metrics = V.analyze_batch(S)
        for name, expected in unique_tables(S).items():
            got = getattr(metrics, name)
            assert got.tolist() == expected.tolist(), name

    @settings(max_examples=300, deadline=None)
    @given(successor_matrices())
    def test_random_successor_matrices(self, S):
        self.assert_tables_match(S)

    @settings(max_examples=100, deadline=None)
    @given(power_map_matrices())
    def test_power_map_edge_cases(self, S):
        self.assert_tables_match(S)

    def test_sample_batches(self, batch):
        self.assert_tables_match(V.successor_rows(batch.group, batch.ks))


class TestCodeAgainstPeelReference:
    """The component pass's per-vertex code, standalone and as each row of a
    batch, against round-by-round leaf stripping and a walk round each cycle."""

    @staticmethod
    def assert_codes_match(S):
        batch_code = V.analyze_batch(S).code
        for r, row in enumerate(S):
            expected = peel_codes(row.tolist())
            assert kpower.graphs._components(row).code.tolist() == expected
            assert batch_code[r].tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(successor_matrices())
    def test_random_successor_matrices(self, S):
        self.assert_codes_match(S)

    @settings(max_examples=100, deadline=None)
    @given(power_map_matrices())
    def test_power_map_rows(self, S):
        self.assert_codes_match(S)


class TestPassPrimitivesOnHardRows:
    """Rows that load the pass's peel decrement and parity select, standalone
    and as the middle row of a batch, against leaf stripping and BFS."""

    @staticmethod
    def relabelled(rng, row):
        """The same functional graph with its vertices renamed at random."""
        name = rng.permutation(row.size)
        out = np.empty_like(row)
        out[name] = name[row]
        return out

    @staticmethod
    def assert_row_matches(row):
        n = row.size
        code = peel_codes(row.tolist())
        alone = undirected_from_successor(row, 2, 2)
        profiles = list_components(alone)
        assert alone.code.tolist() == code
        assert components(alone) == profiles
        # between a row of fixed points and one of mutual pairs
        S = np.stack([np.arange(n), row, np.arange(n)[::-1]])
        m = V.analyze_batch(S)
        assert m.code[1].tolist() == code
        mine = np.flatnonzero(m.comp_row == 1)
        shapes = shape_codes(m.comp_vertices, m.comp_cycle_len)
        got = sorted((int(m.comp_least[c]) - n, int(m.comp_vertices[c]), int(m.comp_edges[c]),
                      shape_tag(SHAPES[shapes[c]], int(m.comp_cycle_len[c]))) for c in mine.tolist())
        assert got == [(p.vertices[0], p.vertex_count, p.edge_count, p.shape_tag) for p in profiles]

    def test_one_round_sends_many_arcs_into_one_head(self):
        # a path 9 -> 8 -> ... -> 0 with a loop at 0, and 500 leaves into
        # vertex 5: the first peel round decrements vertex 5 500 times
        row = np.append(np.maximum(np.arange(10) - 1, 0), np.full(500, 5))
        code = peel_codes(row.tolist())
        assert code[5] == 2 * 5 and code[10:] == [2] * 500
        self.assert_row_matches(row)
        self.assert_row_matches(self.relabelled(np.random.default_rng(11), row))

    def test_parity_through_twelve_doubling_passes(self):
        # a random permutation of 5000 vertices beside one cycle of 2^11 + 1,
        # whose labels settle only after 12 doubling passes
        rng = np.random.default_rng(19)
        length = 2**11 + 1
        cycle = 5000 + np.arange(length)
        row = np.concatenate([rng.permutation(5000), np.roll(cycle, -1)])
        row = self.relabelled(rng, row)
        assert V.analyze_batch(row[None]).comp_cycle_len.max() >= length
        self.assert_row_matches(row)


class TestCycleLabelStopRule:
    """Cycle labelling stops at its first pass that changes no label.

    Its windows double from one vertex, so a cycle of length 2^j is covered
    after j passes and one of 2^j + 1 needs one more.  Each row below holds
    one such cycle, in shuffled order, on the odd vertices 1, 3, 5, ...; the
    even vertices are fixed points, so a fixed point lies between any two
    vertices of the cycle, and a cycle vertex labelled by any vertex but the
    cycle's least would be numbered into another component.
    """

    N_VERTICES = 68

    @classmethod
    def cycle_row(cls, rng, length, tails):
        n = cls.N_VERTICES
        row = np.arange(n, dtype=np.int64)
        cycle = rng.permutation(np.arange(1, 2 * length, 2))
        row[cycle] = np.roll(cycle, -1)
        if tails:
            rest = np.arange(2 * length, n)
            row[rest] = rng.choice(cycle, size=rest.size)
        return row

    @pytest.mark.parametrize("tails", (False, True))
    def test_cycles_of_length_power_of_two_and_one_more(self, tails):
        rng = np.random.default_rng(2026)
        lengths = [L for j in range(6) for L in (2**j, 2**j + 1)]
        S = np.stack([self.cycle_row(rng, L, tails) for L in lengths for _ in range(4)])
        TestAgainstUniqueReference.assert_tables_match(S)
        longest = V.analyze_batch(S).comp_cycle_len.max()
        assert longest == 2**5 + 1

    def test_one_long_cycle_beside_short_ones(self):
        # the longest cycle alone sets the pass count; every row must wait for it
        rng = np.random.default_rng(7)
        S = np.stack([self.cycle_row(rng, L, False) for L in (2, 3, 33, 5, 17)])
        TestAgainstUniqueReference.assert_tables_match(S)


class TestMemory:
    """Peak allocations of the sweep engine, as multiples of the successor matrix.

    The engine works a block of rows at a time, so beside its outputs it
    holds a handful of block-sized arrays at once (about 3.3x ``S.nbytes``
    on a batch of two blocks, 1.7x on one of eight); the bounds leave
    headroom but fail on a return to whole-batch temporaries, which
    measured about 18x and 11x, or to one pass over the whole batch, 4.4x.
    """

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_peaks_bounded(self):
        group = build_group("cyclic:4096")
        ks = np.arange(2, 4098, 64, dtype=np.int64)
        S = V.successor_rows(group, ks)
        assert S.shape == (64, 4096)
        assert self.traced_peak(V.analyze_batch, S) <= 6 * S.nbytes
        batch = V.GroupBatch.build(group, ks)
        assert self.traced_peak(V.check_chromatic, batch) <= 2 * S.nbytes
        assert self.traced_peak(V.check_degrees, batch) <= 1.5 * S.nbytes

    def test_blocks_bound_the_batch_peak(self):
        # 256 rows of 4096 vertices are 8 blocks of 2^17 vertices; one pass
        # over the whole batch peaked at 4.4x
        group = build_group("cyclic:4096")
        S = V.successor_rows(group, np.arange(2, 4098, 16, dtype=np.int64))
        assert S.shape == (256, 4096) and V._BLOCK_VERTICES == 32 * 4096
        assert self.traced_peak(V.analyze_batch, S) <= 3 * S.nbytes

    def test_prime_order_batch_peaks_bounded(self):
        # a prime order puts nearly every vertex on a cycle, where the pass's
        # code holds a distance parity per vertex; odd and even k
        group = build_group("cyclic:4093")
        ks = np.arange(2, 4098, 64, dtype=np.int64) + np.arange(64) % 2
        batch = V.GroupBatch.build(group, ks)
        assert batch.rep.size == 64
        S = batch.S
        assert self.traced_peak(V.analyze_batch, S) <= 6 * S.nbytes
        assert self.traced_peak(V.check_chromatic, batch) <= 2 * S.nbytes

    def test_build_keeps_one_table_row_per_class(self):
        # sym:6 at every k is 720 rows of 60 classes.  After the build,
        # tables copied to every row held 3.85x the int64 R x n bytes, every
        # row's successor row kept beside one-row-per-class tables 1.26x, and
        # successor rows kept per class too 0.34x
        group = build_group("sym:6")
        ks = V.exponents_for(group, None)
        tracemalloc.start()
        try:
            batch = V.GroupBatch.build(group, ks)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert batch.rep.size == 60
        assert batch.S.shape == (60, 720)
        assert held <= 0.5 * len(ks) * group.order * 8

    def test_sym_power_map_fills_its_output_in_place(self):
        # the gather writes into its own index array, not into a second R x n one
        group = build_group("sym:6")
        ks = V.exponents_for(group, None)
        nbytes = len(ks) * group.order * 8
        assert self.traced_peak(V.successor_rows, group, ks) <= 1.2 * nbytes


# Every family, with orders 1 and 2 and a group whose exponent is below its order.
DEDUP_SPECS = ("cyclic:1", "cyclic:2", "cyclic:12", "dihedral:1", "dihedral:2", "dihedral:6",
               "quaternion:2", "quaternion:3", "sym:1", "sym:2", "sym:3", "sym:4",
               "product:2x4", "product:2x3x4")


def every_row_analysed(batch):
    """The batch from every row's own successor row, each row its own class."""
    S = V.successor_rows(batch.group, batch.ks)
    return V.GroupBatch(batch.group, batch.ks, batch.kn, S, V.analyze_batch(S))


def tables_at(m, rows):
    """The tables of ``m``'s rows ``rows``, as ``analyze_batch`` gives them
    on those rows alone: components in the order of ``rows``, renumbered."""
    comps = [np.flatnonzero(m.comp_row == r) for r in rows.tolist()]
    comp = np.concatenate([m.comp_row[:0], *comps])
    comp_row = np.repeat(np.arange(rows.size), [c.size for c in comps])
    tables = {name: getattr(m, name)[rows] for name in ("degrees", "code")}
    tables.update({name: getattr(m, name)[comp] for name in ("comp_vertices", "comp_edges", "comp_cycle_len")})
    tables["comp_row"] = comp_row
    tables["comp_least"] = m.comp_least[comp] - (m.comp_row[comp] - comp_row) * m.n
    return tables


def assert_same_metrics(got, expected, rep):
    """Every per-row answer of ``got`` equals the every-row ``expected``'s on
    every row; every table, one row per class, equals ``expected``'s rows at
    the classes' representatives ``rep``."""
    assert got.n == expected.n
    tables = tables_at(expected, rep)
    for f in fields(V.BatchMetrics)[1:]:
        a = getattr(got, f.name)
        b = getattr(expected, f.name) if f.name in V._ROW_ANSWERS else tables[f.name]
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f.name


class TestDeduplicatedBatch:
    """Analysing one row per class of k mod exp(G) changes nothing a check reads."""

    @pytest.mark.parametrize("spec", DEDUP_SPECS)
    def test_same_metrics_and_checks_as_every_row(self, spec):
        # k in 2..3o(G)+4 holds k = 0 and 1 mod o(G) three times each
        group = build_group(spec)
        ks = np.append(np.arange(2, 3 * group.order + 5), 2**62 + 1)
        batch = V.GroupBatch.build(group, ks)
        reference = every_row_analysed(batch)
        assert batch.rep.size == group.exponent
        assert_same_metrics(batch.metrics, reference.metrics, batch.rep)
        assert np.array_equal(batch.diameters, reference.diameters)
        for name, fn in V._BATCH_CHECKS.items():
            got, expected = fn(batch), fn(reference)
            assert (got.cells, got.failed_cells, got.failures) == (
                expected.cells, expected.failed_cells, expected.failures), name
            assert got.passed, (name, got.failures[:2])

    def test_distinct_rows_keep_the_batch_as_built(self):
        group = build_group("cyclic:8")
        batch = V.GroupBatch.build(group, np.arange(2, 10))
        assert batch.rep.tolist() == batch.row_class.tolist() == list(range(8))

    def test_chromatic_runs_once_per_class(self, monkeypatch):
        calls = []
        real = V.analysis.chromatic

        def counted(gr):
            calls.append(gr.k)
            return real(gr)

        monkeypatch.setattr(V.analysis, "chromatic", counted)
        group = build_group("product:10x10x10")
        batch = V.GroupBatch.build(group, V.exponents_for(group, None))
        for name, fn in V._BATCH_CHECKS.items():
            assert fn(batch).passed, name
        assert sorted(calls) == list(range(2, 12))

    def test_wrong_colour_on_a_representative_fails_its_class(self, monkeypatch):
        # product:2x4 has exponent 4: k = 3 represents k = 3, 7, ..., 27
        real = V.analysis.chromatic

        def planted(gr):
            colors = real(gr)
            return np.ones_like(colors) if gr.k == 3 else colors

        monkeypatch.setattr(V.analysis, "chromatic", planted)
        group = build_group("product:2x4")
        ks = np.arange(2, 28)
        check = V.check_chromatic(V.GroupBatch.build(group, ks))
        assert check.failed_cells == np.count_nonzero(ks % 4 == 3) == 7
        assert check.failures[0] == "group=product:2x4 k=3: expected proper colouring, got conflict"
        # each row once per conflicting edge (two in this graph), in row order
        listed = [int(f.split("k=")[1].split(":")[0]) for f in check.failures if f != "..."]
        assert listed == [3, 3, 7, 7, 11]

    def test_wrong_degree_in_a_class_row_fails_every_row_of_it(self):
        # cyclic:12 has exponent 12: k = 5, 17 and 29 are one class, whose
        # one row of degrees every row reads; at k = 5, 7 <-> 11 is an edge
        group = build_group("cyclic:12")
        batch = V.GroupBatch.build(group, np.array([5, 17, 29]))
        assert batch.rep.tolist() == [0] and batch.row_class.tolist() == [0, 0, 0]
        reference = every_row_analysed(batch)
        batch.metrics.degrees[0, 7] += 1
        reference.metrics.degrees[:, 7] += 1
        got, expected = V.check_degrees(batch), V.check_degrees(reference)
        assert (got.cells, got.failed_cells, got.failures) == (
            expected.cells, expected.failed_cells, expected.failures)
        assert got.failures == [f"group=cyclic:12 k={k}: expected deg(7) = 1, got 2" for k in (5, 17, 29)]

    def test_planted_fault_in_a_class_row_reads_as_on_every_row(self, monkeypatch):
        # cyclic:8 at k = 3, 5, 11, 19: k = 3, 11 and 19 are one class, and
        # each of its rows gets 1 -> 2, 2 -> 1 and 6 -> 0, so no row breaks
        # away and the class's one kept row carries the fault for all three
        real = V.successor_rows

        def planted(g, exponents):
            S = real(g, exponents)
            S[np.ix_(np.flatnonzero(exponents % 8 == 3), [1, 2, 6])] = [2, 1, 0]
            return S

        monkeypatch.setattr(V, "successor_rows", planted)
        batch = V.GroupBatch.build(build_group("cyclic:8"), np.array([3, 5, 11, 19]))
        assert batch.rep.tolist() == [0, 1] and batch.row_class.tolist() == [0, 1, 0, 0]
        reference = every_row_analysed(batch)
        failed = {}
        for name in ("order-adjacency", "degrees", "edges", "period"):
            got, expected = V._BATCH_CHECKS[name](batch), V._BATCH_CHECKS[name](reference)
            assert (got.cells, got.failed_cells, got.failures) == (
                expected.cells, expected.failed_cells, expected.failures), name
            failed[name] = got.failed_cells
        assert failed == {"order-adjacency": 3, "degrees": 3, "edges": 3, "period": 0}
        # the edges of the class's one row, listed for each of its rows in row order
        assert V.check_order_adjacency(batch).failures[:4] == [
            f"group=cyclic:8 k={k}: expected order-homogeneous edge, got {edge}"
            for k in (3, 11) for edge in ("(0,6)", "(1,2)")]

    def test_aperiodic_row_fails_period_alone(self, monkeypatch):
        # Row k = 10 of product:2x4 (k = 2 mod 4) relabelled by a swap of two
        # vertices: the same graph up to isomorphism, so every other check
        # passes on it, but no longer the row of k = 2.
        group = build_group("product:2x4")
        ks = np.arange(2, 28)
        real = V.successor_rows

        def planted(g, exponents):
            S = real(g, exponents)
            row = S[8]
            u, v = next((u, v) for u in range(8) for v in range(u + 1, 8)
                        if not np.array_equal(swapped(row, u, v), row))
            S[8] = swapped(row, u, v)
            return S

        def swapped(row, u, v):
            swap = np.arange(row.size)
            swap[[u, v]] = v, u
            return swap[row[swap]]

        monkeypatch.setattr(V, "successor_rows", planted)
        batch = V.GroupBatch.build(group, ks)
        assert batch.aperiodic.tolist() == [8]
        assert batch.rep.size == 5
        assert_same_metrics(batch.metrics, V.analyze_batch(V.successor_rows(group, ks)), batch.rep)
        checks = {name: fn(batch) for name, fn in V._BATCH_CHECKS.items()}
        assert {name: c.failed_cells for name, c in checks.items() if not c.passed} == {"period": 1}
        assert checks["period"].failures[0].startswith("group=product:2x4 k=10: expected ")
        assert checks["period"].failures[0].split(" as at ")[1].startswith("k=2, got ")


def blocked(S, block_vertices):
    """``analyze_batch`` on S, in blocks of ``block_vertices`` vertices."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(V, "_BLOCK_VERTICES", block_vertices)
        return V.analyze_batch(S)


class TestBlocks:
    """Blocks of one row (1 and n vertices) and of three rows (3n) give
    every field and dtype of one block over the whole batch."""

    @staticmethod
    def assert_blocks_change_nothing(S):
        whole = blocked(S, S.size)
        n = S.shape[1]
        for size in (1, n, 3 * n):
            assert_same_metrics(blocked(S, size), whole, np.arange(S.shape[0]))

    @settings(max_examples=200, deadline=None)
    @given(successor_matrices())
    def test_random_successor_matrices(self, S):
        self.assert_blocks_change_nothing(S)

    @settings(max_examples=100, deadline=None)
    @given(power_map_matrices())
    def test_power_map_matrices(self, S):
        self.assert_blocks_change_nothing(S)

    def test_deep_block_joined_to_byte_blocks(self):
        # the 299-round path of `test_share_of_a_pass_deeper_than_a_byte` in
        # one block and plain rows in another: the joined code is uint16
        path = np.maximum(np.arange(300) - 1, 0)
        rng = np.random.default_rng(5)
        S = np.stack([rng.permutation(300), rng.integers(0, 300, 300), np.arange(300), path])
        assert blocked(S, 3 * 300).code.dtype == np.uint16
        self.assert_blocks_change_nothing(S)


@pytest.fixture
def component_passes(monkeypatch):
    """The row sizes of every `graphs._components` call, through both bindings."""
    sizes = []
    real = kpower.graphs._components

    def counted(succ):
        sizes.append(succ.size)
        return real(succ)

    for module in (kpower.graphs, V):
        monkeypatch.setattr(module, "_components", counted)
    return sizes


class TestOneComponentPass:
    """A batch runs the component pass once per block of rows, and these
    batches are one block each; the certificates read their class's row of
    its code."""

    def test_sweep_runs_one_pass_per_batch(self, component_passes):
        spec = V.SweepSpec(("cyclic",), 8, min_n=8, theorems=tuple(V._BATCH_CHECKS))
        assert all(check.passed for check in V.run_verification(spec))
        assert component_passes == [8 * 8]

    def test_analyze_runs_one_pass(self, component_passes):
        group = build_group("cyclic:12")
        assert analyze(group, 5).discrepancies == []
        assert component_passes == [12]
        # a connected row (a star at k = 12) reads its diameter off the batch's code too
        report = analyze(group, 12)
        assert report.discrepancies == [] and report.diameter == 2
        assert component_passes == [12, 12]

    @pytest.mark.parametrize("spec", (*DEDUP_SPECS, "cyclic:31", "cyclic:47"))
    def test_certificates_match_standalone_graphs(self, spec):
        # cyclic:47 at k of order 23 mod 47 has two 23-cycles, odd and long
        group = build_group(spec)
        ks = np.arange(2, 3 * group.order + 5)
        batch = V.GroupBatch.build(group, ks)
        for c, r in enumerate(batch.rep.tolist()):
            shared = batch.graph_for_row(r)
            alone = undirected_from_successor(batch.S[c].copy(), int(ks[r]), int(batch.kn[r]))
            assert shared.code.dtype == alone.code.dtype == np.uint8
            assert shared.code.tolist() == alone.code.tolist() == peel_codes(batch.S[c].tolist())
            colors = chromatic(shared)
            assert colors.dtype == np.int8 and np.array_equal(colors, chromatic(alone))
            assert colors.max() == batch.metrics.chi[r] == list_chromatic(alone)[0]
            if batch.diameters[r] < 0:
                with pytest.raises(ValueError):
                    diameter(alone)
                continue
            adjacency = set_adjacency(batch.S[c].tolist())
            eccentricities = [max(set_distances(adjacency, v)) for v in range(group.order)]
            assert diameter(shared) == batch.diameters[r] == diameter(alone) == max(eccentricities)

    def test_share_of_a_pass_deeper_than_a_byte(self):
        # a path 299 -> 298 -> ... -> 0 with a loop at 0: 299 peel rounds,
        # whose codes (2 per round) outgrow one byte; no group is that deep
        row = np.maximum(np.arange(300) - 1, 0)
        expected = peel_codes(row.tolist())
        assert max(expected) == 2 * 299
        for code in (V.analyze_batch(row[None]).code[0], kpower.graphs._components(row).code):
            assert code.dtype == np.uint16 and code.tolist() == expected

    def test_component_profiles_of_a_shared_graph(self):
        # a sweep row comes with its code alone; `components` runs the
        # graph's own pass
        batch = V.GroupBatch.build(build_group("cyclic:31"), np.arange(2, 33))
        assert kpower.graphs.components(batch.graph_for_row(0)) == kpower.graphs.components(
            build_undirected(batch.group, 2))


class TestChecks:
    def test_all_theorems_pass_on_sample(self, batch):
        for name, fn in V._BATCH_CHECKS.items():
            check = fn(batch)
            assert check.passed, (batch.group.spec, name, check.failures[:2])

    def test_detects_planted_failure(self):
        # corrupt one successor entry in each of rows k=3 and k=6; each
        # failing check counts the distinct cells it failed on, however many
        # counterexamples (k=6 fails connectivity twice) it lists
        group = build_group("cyclic:12")
        ks = V.exponents_for(group, None)
        S = V.successor_rows(group, ks)
        S[1, 5] = (S[1, 5] + 1) % 12
        S[4, 7] = (S[4, 7] + 1) % 12
        batch = V.GroupBatch(group, ks, V.normalized_exponents(ks, 12), S, V.analyze_batch(S))
        checks = {name: fn(batch) for name, fn in V._BATCH_CHECKS.items()}
        failed = {name: c.failed_cells for name, c in checks.items() if not c.passed}
        assert failed == {"edges": 1, "degrees": 2, "connectivity": 1}
        assert len(checks["connectivity"].failures) == 2
        assert all(c.failed_cells == 0 for c in checks.values() if c.passed)

    def test_diameter_above_the_bound_fails_its_cell(self, monkeypatch):
        # the bound halved on connected rows: each tree of cyclic:8 (k = 2,
        # 4, 6, 8, diameters 4, 3, 4, 2) is then above it
        real = V.analysis.connectivity_rows

        def planted(group, kn):
            connected, bound = real(group, kn)
            return connected, np.where(connected, bound // 2, bound)

        monkeypatch.setattr(V.analysis, "connectivity_rows", planted)
        group = build_group("cyclic:8")
        check = V.check_connectivity(V.GroupBatch.build(group, V.exponents_for(group, None)))
        assert check.failed_cells == 4
        assert check.failures == [
            "group=cyclic:8 k=2: expected diameter <= 3, got 4",
            "group=cyclic:8 k=4: expected diameter <= 2, got 3",
            "group=cyclic:8 k=6: expected diameter <= 3, got 4",
            "group=cyclic:8 k=8: expected diameter <= 1, got 2",
        ]

    def test_period_names_the_first_differing_vertex(self, monkeypatch):
        # in Z_4, k = 6 repeats k = 2 (x -> 2x); plant 1 -> 3 in the k = 6 row
        real = V.successor_rows

        def planted(group, ks):
            S = real(group, ks)
            S[1, 1] = 3
            return S

        monkeypatch.setattr(V, "successor_rows", planted)
        batch = V.GroupBatch.build(build_group("cyclic:4"), np.array([2, 6], dtype=np.int64))
        check = V.check_period(batch)
        assert check.failed_cells == 1
        assert check.failures == ["group=cyclic:4 k=6: expected 1^k = 2 as at k=2, got 3"]

    @pytest.mark.parametrize("broken", [(5,), (6,), (5, 6)])
    def test_thm16_fails_the_cell_of_each_broken_shape(self, monkeypatch, broken):
        # Z_10: two stars at k = 5, a perfect matching at k = 6; a broken
        # shape is planted as the graph of the next exponent
        real = V.analysis.build_undirected
        monkeypatch.setattr(V.analysis, "build_undirected",
                            lambda group, k: real(group, k + 1 if k in broken else k))
        check = V.check_thm16(V.GroupBatch.build(build_group("cyclic:10"), np.arange(2, 4)))
        messages = {5: "P(Z_10,5) does not split into the two expected stars",
                    6: "P(Z_10,6) is not the expected perfect matching"}
        assert (check.cells, check.failed_cells) == (2, len(broken))
        assert check.failures == [
            f"group=cyclic:10 k={k}: expected certified structure, got {messages[k]}" for k in broken]

    def test_order_adjacency_lists_each_edge_once_in_order(self):
        # row k=3: 1 <-> 2 (orders 8 and 4) is one edge, and the arc 6 -> 0
        # (orders 4 and 1) lists first as (0,6); row k=5: the arc 7 -> 4
        group = build_group("cyclic:8")
        ks = np.array([3, 5], dtype=np.int64)
        S = V.successor_rows(group, ks)
        S[0, 1], S[0, 2], S[0, 6] = 2, 1, 0
        S[1, 7] = 4
        batch = V.GroupBatch(group, ks, ks, S, V.analyze_batch(S))
        check = V.check_order_adjacency(batch)
        assert check.failed_cells == 2
        assert [f.rsplit(" ", 1)[1] for f in check.failures] == ["(0,6)", "(1,2)", "(4,7)"]
        assert [f.split(":")[1].split(" ")[1] for f in check.failures] == ["k=3", "k=3", "k=5"]

    def test_chromatic_lists_each_conflicting_edge_once(self, monkeypatch):
        # cyclic:4 at k=3 has the one edge 1 <-> 3, two arcs; colour it all 1
        group = build_group("cyclic:4")
        batch = V.GroupBatch.build(group, np.array([3], dtype=np.int64))
        monkeypatch.setattr(V.analysis, "chromatic", lambda gr: np.ones(gr.group_order, dtype=np.int8))
        check = V.check_chromatic(batch)
        assert check.failed_cells == 1
        assert [f for f in check.failures if f.endswith("got conflict")] == [
            "group=cyclic:4 k=3: expected proper colouring, got conflict"
        ]

    @pytest.mark.parametrize("colour,seen", [(0, "4 colours in 0..3"), (4, "4 colours in 1..4")])
    def test_chromatic_colours_must_be_exactly_one_to_chi(self, monkeypatch, colour, seen):
        # P(Z31, 2) is six pentagons and the isolated vertex 0: chi = 3, and
        # any colour on vertex 0 keeps the certificate proper
        real = V.analysis.chromatic

        def planted(gr):
            colors = real(gr)
            colors[0] = colour
            return colors

        monkeypatch.setattr(V.analysis, "chromatic", planted)
        batch = V.GroupBatch.build(build_group("cyclic:31"), np.array([2], dtype=np.int64))
        check = V.check_chromatic(batch)
        assert check.failed_cells == 1
        assert check.failures == [f"group=cyclic:31 k=2: expected colours 1..3, got {seen}"]

    def test_one_value_for_all_rows_is_reported_whole(self):
        # check_perfect names its expected value with one string for every
        # row; the counterexample must show that string, not one character
        group = build_group("cyclic:31")
        batch = V.GroupBatch.build(group, np.arange(2, 33))
        batch.metrics.has_long_odd_cycle[:] = False
        check = V.check_perfect(batch)
        assert check.failures[0] == "group=cyclic:31 k=2: expected imperfect, got perfect"
        m = batch.metrics
        assert check.failed_cells == int(((m.chi == 3) & (m.omega != 3)).sum()) > 0


class TestTheoremCheck:
    def test_counterexamples_are_capped_with_one_marker(self):
        check = V.TheoremCheck("edges")
        for k in range(2, 14):
            check.fail([("cyclic:3", k)], [f"group=cyclic:3 k={k}: expected 0, got 1"])
        assert len(check.failures) == V.MAX_COUNTEREXAMPLES + 1
        assert check.failures[-1] == "..."
        assert "..." not in check.failures[:-1]
        assert check.failed_cells == 12

        merged = V.TheoremCheck("edges")
        merged.fail([("cyclic:3", 99)], ["group=cyclic:3 k=99: expected 0, got 1"])
        merged.fail([("cyclic:3", 99)], ["group=cyclic:3 k=99: expected 0, got 2"])
        assert merged.failed_cells == 1
        own = list(merged.failures)
        merged.merge(check)
        assert merged.failures == own + check.failures[:3] + ["..."]
        assert merged.failed_cells == 13

        fresh = V.TheoremCheck("edges")
        fresh.merge(check)
        assert fresh.failures == check.failures

    @pytest.mark.parametrize("sizes", [(8,), (3, 3), (5,), (2, 3)])
    def test_marker_means_lines_were_cut(self, sizes):
        # one comparison of 8 failing rows, or two of 3, list five lines and
        # the marker; five rows in all list five lines and no marker
        batch = V.GroupBatch.build(build_group("cyclic:16"), np.arange(2, 18))
        check = V.TheoremCheck("edges")
        first = 0
        for size in sizes:
            V._fail_rows(check, batch, np.arange(first, first + size), 0, 1)
            first += size
        cut = sum(sizes) > V.MAX_COUNTEREXAMPLES
        assert check.failed_cells == sum(sizes)
        assert len(check.failures) == V.MAX_COUNTEREXAMPLES + cut
        assert check.failures[V.MAX_COUNTEREXAMPLES:] == (["..."] if cut else [])
        assert "..." not in check.failures[:V.MAX_COUNTEREXAMPLES]

    _CALL = st.tuples(st.lists(st.integers(0, 9), max_size=4), st.integers(0, 8), st.booleans())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_CALL, st.lists(_CALL, max_size=5)), max_size=10))
    def test_tally_matches_a_plain_list_model(self, ops):
        # a tuple is one fail(cells, lines) call, a list the calls of a check
        # merged in; the model keeps every line and every cell
        cap = V.MAX_COUNTEREXAMPLES
        numbers = itertools.count()
        stream = []

        def call(check, seen, cells, n_lines, lazy):
            lines = [f"line {next(numbers)}" for _ in range(n_lines)]
            stream.extend(lines)
            seen.update(cells)
            pulled = []
            room = cap - len(check.failures)
            check.fail(cells, (pulled.append(line) or line for line in lines) if lazy else lines)
            if lazy:  # read no further than the line past the cap
                assert len(pulled) == (min(n_lines, room + 1) if room >= 0 else 0)

        check, seen, merged_cells = V.TheoremCheck("t"), set(), 0
        for op in ops:
            if isinstance(op, tuple):
                call(check, seen, *op)
            else:
                other, other_seen = V.TheoremCheck("t"), set()
                for args in op:
                    call(other, other_seen, *args)
                check.merge(other)
                merged_cells += len(other_seen)
        assert check.failed_cells == len(seen) + merged_cells
        assert check.failures == stream[:cap] + ["..."] * (len(stream) > cap)


class TestSweepPlumbing:
    def test_group_specs_deterministic(self):
        spec = V.SweepSpec(("cyclic", "quaternion"), 5)
        names = [str(s) for s in V.sweep_group_specs(spec)]
        assert names == [
            "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
            "quaternion:2", "quaternion:3", "quaternion:4", "quaternion:5",
        ]

    def test_product_multisets(self):
        spec = V.SweepSpec(("product",), 3, min_n=2)
        names = [str(s) for s in V.sweep_group_specs(spec)]
        assert names == [
            "product:2x2", "product:2x3", "product:3x3",
            "product:2x2x2", "product:2x2x3", "product:2x3x3", "product:3x3x3",
        ]

    def test_k_max_caps_exponents(self):
        group = build_group("cyclic:50")
        assert V.exponents_for(group, 10).tolist() == list(range(2, 11))
        assert V.exponents_for(group, None).tolist() == list(range(2, 52))

    def test_sweep_batches_follow_the_group_specs(self):
        spec = V.SweepSpec(("cyclic", "quaternion"), 5, k_max=4)
        batches = list(V.sweep_batches(spec))
        assert [b.group.spec for b in batches] == list(V.sweep_group_specs(spec))
        for b in batches:
            assert b.ks.tolist() == V.exponents_for(b.group, 4).tolist()
        # the least k_max, 2, gives every group, order 1 included, its k = 2
        batches = V.sweep_batches(V.SweepSpec(("cyclic",), 3, k_max=2))
        assert [b.ks.tolist() for b in batches] == [[2]] * 3

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            V.SweepSpec(("rings",), 5)
        with pytest.raises(ValueError):
            V.SweepSpec(("cyclic",), 5, theorems=("edges", "nope"))
        with pytest.raises(ValueError):
            V.SweepSpec(("cyclic",), 2, min_n=5)
        for k_max in (1, 0, -3):
            with pytest.raises(ValueError, match="k_max must be at least 2"):
                V.SweepSpec(("cyclic",), 5, k_max=k_max)

    @pytest.mark.parametrize("families, min_n, max_n", [
        (("sym",), 9, 9), (("quaternion",), 1, 1), (("product",), 1, 1), (("quaternion", "product"), 1, 1),
    ])
    def test_spec_selecting_no_group_rejected(self, monkeypatch, families, min_n, max_n):
        monkeypatch.setattr(V, "build_group", lambda spec: pytest.fail("a group was built"))
        with pytest.raises(ValueError, match="the sweep selects no group"):
            V.SweepSpec(families, max_n, min_n=min_n)
        with pytest.raises(ValueError, match="the sweep selects no group"):
            V.SweepSpec(families, max_n, min_n=min_n, theorems=("edges", "chair"))
        # the chair check needs no group
        assert V.run_verification(V.SweepSpec(families, max_n, min_n=min_n, theorems=("chair",)))[0].passed

    def test_run_verification_smoke(self):
        checks = V.run_verification(V.SweepSpec(("cyclic",), 30, theorems=("edges", "chair")))
        assert [c.name for c in checks] == ["edges", "chair"]
        assert all(c.passed for c in checks)
        assert checks[0].cells == sum(n for n in range(1, 31))

    def test_chair_only_builds_no_batches(self, monkeypatch):
        def no_batches(spec):
            raise AssertionError("sweep_batches was called")

        monkeypatch.setattr(V, "sweep_batches", no_batches)
        checks = V.run_verification(V.SweepSpec(("cyclic", "dihedral"), 30, theorems=("chair",)))
        assert [c.name for c in checks] == ["chair"]
        assert checks[0].passed


class TestChair:
    def test_chair_check_passes(self):
        assert V.check_chair(300).passed

    def test_degree_profile_fault_fails_each_n_once(self, monkeypatch):
        # coprimality planted false for every k at n = 6 and n = 10: their six
        # coprime exponents fail, the first five are listed, then one marker
        real = np.gcd
        monkeypatch.setattr(np, "gcd", lambda ks, n: real(ks, n) + (n in (6, 10)))
        check = V.check_chair(12)
        assert (check.cells, check.failed_cells) == (12, 2)
        assert check.failures == [
            "n=6 k=5: degree profile all (1,1) is True but gcd = 1",
            "n=6 k=7: degree profile all (1,1) is True but gcd = 1",
            "n=10 k=3: degree profile all (1,1) is True but gcd = 1",
            "n=10 k=7: degree profile all (1,1) is True but gcd = 1",
            "n=10 k=9: degree profile all (1,1) is True but gcd = 1",
            "...",
        ]
