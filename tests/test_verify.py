"""The batched engine against the per-instance library, plus sweep plumbing."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

import kpower.verify as V
from conftest import (
    edge_counts_only,
    list_chromatic,
    list_clique_number,
    list_components,
    power_map_matrices,
    successor_matrices,
    unique_tables,
)
from kpower.analysis import chromatic
from kpower.graphs import build_undirected
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
        g = batch.group
        for r in range(0, len(batch.ks), max(1, len(batch.ks) // 7)):
            k = int(batch.ks[r])
            expected = [g.power(x, k) for x in range(g.order)]
            assert batch.S[r].tolist() == expected


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
            assert m.degrees[r].tolist() == [gr.degree(v) for v in range(g.order)]
            assert int(m.comp_count[r]) == len(profiles) == nx.number_connected_components(h)
            assert bool(m.connected[r]) == (len(profiles) == 1)
            assert int(m.omega[r]) == list_clique_number(gr) == max(len(c) for c in nx.find_cliques(h))
            assert int(m.chi[r]) == chromatic(gr)[0] == list_chromatic(gr)[0]
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
            mask = m.comp_row == r
            assert sorted(m.comp_vertices[mask].tolist()) == sorted(p.vertex_count for p in profiles)
            assert sorted(m.comp_edges[mask].tolist()) == sorted(p.edge_count for p in profiles)
            engine_cycles = sorted(int(c) for c in m.comp_cycle_len[mask] if c >= 3)
            library_cycles = sorted(p.cycle_length for p in profiles if p.cycle_length)
            assert engine_cycles == library_cycles
            least = sorted((m.comp_least[mask] - r * g.order).tolist())
            assert least == [p.vertices[0] for p in profiles]

    def test_edge_counts_only_shortcut(self, batch):
        lean = edge_counts_only(batch.S)
        assert np.array_equal(lean, batch.metrics.edge_count)

    def test_row_graphs_match_library(self, batch):
        g = batch.group
        step = max(1, len(batch.ks) // 5)
        for r in range(0, len(batch.ks), step):
            gr = batch.graph_for_row(r)
            assert gr.adjacency == build_undirected(g, int(batch.ks[r])).adjacency


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
        self.assert_tables_match(batch.S)


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

    The engine holds at most a handful of whole-batch arrays at once (about
    4.5x ``S.nbytes`` on this batch); the bounds leave headroom but fail on a
    return to whole-batch temporaries, which measured about 18x and 11x.
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
        monkeypatch.setattr(V.analysis, "chromatic", lambda gr: (2, np.ones(gr.group_order, dtype=np.int8)))
        check = V.check_chromatic(batch)
        assert check.failed_cells == 1
        assert [f for f in check.failures if f.endswith("got conflict")] == [
            "group=cyclic:4 k=3: expected proper colouring, got conflict"
        ]

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
        group = build_group("cyclic:3")
        check = V.TheoremCheck("edges")
        for k in range(2, 14):
            check.fail(group, k, 0, 1)
        assert len(check.failures) == V.MAX_COUNTEREXAMPLES + 1
        assert check.failures[-1] == "..."
        assert "..." not in check.failures[:-1]
        assert check.failed_cells == 12

        merged = V.TheoremCheck("edges")
        merged.fail(group, 99, 0, 1)
        merged.fail(group, 99, 0, 2)
        assert merged.failed_cells == 1
        own = list(merged.failures)
        merged.merge(check)
        assert merged.failures == own + check.failures[:3] + ["..."]
        assert merged.failed_cells == 13

        fresh = V.TheoremCheck("edges")
        fresh.merge(check)
        assert fresh.failures == check.failures


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
        # a group without exponents yields no batch
        assert list(V.sweep_batches(V.SweepSpec(("cyclic",), 5, k_max=1))) == []

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            V.SweepSpec(("rings",), 5)
        with pytest.raises(ValueError):
            V.SweepSpec(("cyclic",), 5, theorems=("edges", "nope"))
        with pytest.raises(ValueError):
            V.SweepSpec(("cyclic",), 2, min_n=5)

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
