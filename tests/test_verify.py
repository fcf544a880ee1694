"""The batched engine against the per-instance library, plus sweep plumbing."""

import networkx as nx
import numpy as np
import pytest

import kpower.verify as V
from conftest import edge_counts_only
from kpower.analysis import chromatic, clique_number, is_forest, is_perfect, is_star
from kpower.graphs import build_undirected, components
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
    """Every engine metric must agree with the per-instance graph route and networkx."""

    def test_row_metrics(self, batch):
        g = batch.group
        m = batch.metrics
        step = max(1, len(batch.ks) // 11)
        for r in range(0, len(batch.ks), step):
            k = int(batch.ks[r])
            gr = build_undirected(g, k)
            profiles = components(gr)
            h = nx.Graph(gr.edges())
            h.add_nodes_from(range(g.order))
            assert int(m.edge_count[r]) == gr.edge_count == h.number_of_edges()
            assert m.degrees[r].tolist() == [gr.degree(v) for v in range(g.order)]
            assert int(m.comp_count[r]) == len(profiles) == nx.number_connected_components(h)
            assert bool(m.connected[r]) == (len(profiles) == 1)
            omega, _ = clique_number(gr, g, k)
            assert int(m.omega[r]) == omega == max(len(c) for c in nx.find_cliques(h))
            assert int(m.chi[r]) == chromatic(gr)[0]
            assert bool(~m.has_cycle[r]) == is_forest(g, k, gr)[0] == nx.is_forest(h)
            assert bool(m.star_shape[r]) == is_star(g, k, gr)[0]
            assert bool(~m.has_long_odd_cycle[r]) == is_perfect(gr)

    def test_component_tables(self, batch):
        g = batch.group
        m = batch.metrics
        step = max(1, len(batch.ks) // 5)
        for r in range(0, len(batch.ks), step):
            profiles = components(build_undirected(g, int(batch.ks[r])))
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
        wanted = set(range(0, len(batch.ks), step))
        for r, gr in batch.iter_row_graphs():
            if r not in wanted:
                continue
            assert gr.adjacency == build_undirected(g, int(batch.ks[r])).adjacency


class TestChecks:
    def test_all_theorems_pass_on_sample(self, batch):
        for name, fn in V._BATCH_CHECKS.items():
            check = fn(batch)
            assert check.passed, (batch.group.spec, name, check.failures[:2])

    def test_detects_planted_failure(self):
        # corrupt one successor entry; several checks must light up
        group = build_group("cyclic:12")
        ks = V.exponents_for(group, None)
        S = V.successor_rows(group, ks)
        S[1, 5] = (S[1, 5] + 1) % 12
        batch = V.GroupBatch(group, ks, V.normalized_exponents(ks, 12), S, V.analyze_batch(S))
        failing = [name for name, fn in V._BATCH_CHECKS.items() if not fn(batch).passed]
        assert "degrees" in failing or "edges" in failing


class TestTheoremCheck:
    def test_counterexamples_are_capped_with_one_marker(self):
        group = build_group("cyclic:3")
        check = V.TheoremCheck("edges")
        for k in range(2, 14):
            check.fail(group, k, 0, 1)
        assert len(check.failures) == V.MAX_COUNTEREXAMPLES + 1
        assert check.failures[-1] == "..."
        assert "..." not in check.failures[:-1]

        merged = V.TheoremCheck("edges")
        merged.fail(group, 99, 0, 1)
        first = merged.failures[0]
        merged.merge(check)
        assert merged.failures == [first] + check.failures[:4] + ["..."]

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


class TestChair:
    def test_chair_check_passes(self):
        assert V.check_chair(300).passed
