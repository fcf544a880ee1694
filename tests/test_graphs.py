"""Graph layer: small-group fixtures, the pairwise-definition oracle, shapes, exports."""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    list_chromatic,
    list_clique_number,
    list_components,
    pairwise_edges,
    perm_index,
    power_map_cases,
    power_map_matrices,
    set_adjacency,
    successor_matrices,
)
from kpower import graphs
from kpower.analysis import analyze, chromatic
from kpower.graphs import (
    build_undirected,
    components,
    diameter,
    distances_from,
    kept_arcs,
    to_dot,
    to_json_dict,
    undirected_from_successor,
)
from kpower.groups import build_group
from kpower.verify import GroupBatch, SweepSpec, analyze_batch, run_verification

# S_3 elements under lexicographic enumeration, by their usual names:
# the identity, the two 3-cycles, and the three transpositions.
S3 = build_group("sym:3")
E3 = 0
ROT1 = perm_index(S3, (1, 2, 0))  # (1 2 3)
ROT2 = perm_index(S3, (2, 0, 1))  # (1 3 2)
SWAP12 = perm_index(S3, (1, 0, 2))  # (1 2)
SWAP23 = perm_index(S3, (0, 2, 1))  # (2 3)
SWAP13 = perm_index(S3, (2, 1, 0))  # (1 3)


def edge_set(group, k):
    return set(build_undirected(group, k).edges())


def normalized(*pairs):
    return {(min(u, v), max(u, v)) for u, v in pairs}


class TestSmallGroupFixtures:
    def test_s3_k2(self):
        assert edge_set(S3, 2) == normalized(
            (E3, SWAP12), (E3, SWAP23), (E3, SWAP13), (ROT1, ROT2)
        )

    def test_s3_k3(self):
        assert edge_set(S3, 3) == normalized((E3, ROT1), (E3, ROT2))

    def test_s3_k4(self):
        assert edge_set(S3, 4) == normalized((E3, SWAP12), (E3, SWAP23), (E3, SWAP13))

    def test_s3_k5(self):
        assert edge_set(S3, 5) == normalized((ROT1, ROT2))

    def test_z4_k2_star_at_two(self):
        z4 = build_group("cyclic:4")
        assert edge_set(z4, 2) == {(0, 2), (1, 2), (2, 3)}


class TestDirected:
    """Every graph keeps the power map it was built from as its successor row."""

    def test_z4_successors(self):
        gr = build_undirected(build_group("cyclic:4"), 2)
        assert gr.successor.tolist() == [0, 2, 0, 2]
        assert gr.successor.dtype == np.int64
        assert np.flatnonzero(gr.successor == np.arange(4)).tolist() == [0]
        assert gr.edges() == [(0, 2), (1, 2), (2, 3)]

    def test_k_congruent_to_one_gives_fixed_points(self):
        g = build_group("dihedral:4")
        gr = build_undirected(g, g.order + 1)
        assert gr.successor.tolist() == list(range(g.order))
        assert gr.k_normalized == 1

    def test_z31_doubling(self):
        gr = build_undirected(build_group("cyclic:31"), 2)
        assert gr.successor.tolist() == [(2 * x) % 31 for x in range(31)]

    def test_identity_always_fixed(self):
        for spec in ("cyclic:9", "sym:4", "quaternion:3"):
            g = build_group(spec)
            for k in (2, 3, 7):
                assert build_undirected(g, k).successor[g.identity] == g.identity

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_undirected(build_group("cyclic:4"), 1)

    def test_successor_is_not_compared(self):
        gr = build_undirected(build_group("cyclic:6"), 5)
        assert gr == undirected_from_successor(gr.successor.tolist(), 5, 5)


class TestAgainstPairwiseDefinition:
    """build_undirected must reproduce the O(n^2) defining scan exactly."""

    @pytest.mark.parametrize(
        "spec", ["cyclic:1", "cyclic:12", "cyclic:31", "sym:3", "sym:4", "dihedral:6", "quaternion:2", "quaternion:4", "product:2x3x4"]
    )
    def test_edge_sets_match(self, spec):
        g = build_group(spec)
        for k in range(2, g.order + 2):
            assert set(build_undirected(g, k).edges()) == pairwise_edges(g, k), (spec, k)

    def test_exponent_normalization_collapses_congruent_k(self):
        g = build_group("cyclic:10")
        for k in range(2, 12):
            assert edge_set(g, k) == edge_set(g, k + 10) == edge_set(g, k + 70)

    def test_edge_count_at_most_n_minus_one(self):
        for spec in ("cyclic:24", "dihedral:8", "sym:4"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                assert build_undirected(g, k).edge_count <= g.order - 1


class TestComponents:
    def test_z31_k2_isolated_plus_six_pentagons(self):
        profiles = components(build_undirected(build_group("cyclic:31"), 2))
        tags = sorted(p.shape_tag for p in profiles)
        assert tags == ["cycle(5)"] * 6 + ["isolated"]

    def test_z4_k2_single_tree(self):
        profiles = components(build_undirected(build_group("cyclic:4"), 2))
        assert len(profiles) == 1
        assert profiles[0].shape == "tree"
        assert profiles[0].vertex_count == 4

    def test_all_fixed_points_means_all_isolated(self):
        g = build_group("cyclic:7")
        profiles = components(build_undirected(g, 8))  # k = n+1, every vertex fixed
        assert [p.shape for p in profiles] == ["isolated"] * 7

    def test_profiles_partition_and_order(self):
        for spec in ("cyclic:30", "sym:4", "dihedral:9"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                gr = build_undirected(g, k)
                profiles = components(gr)
                seen = [v for p in profiles for v in p.vertices]
                assert sorted(seen) == list(range(g.order))
                assert [min(p.vertices) for p in profiles] == sorted(min(p.vertices) for p in profiles)
                assert sum(p.edge_count for p in profiles) == gr.edge_count

    def test_shape_counts_consistent(self):
        for spec in ("cyclic:64", "quaternion:6", "product:3x9"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                for p in components(build_undirected(g, k)):
                    if p.shape == "isolated":
                        assert (p.vertex_count, p.edge_count) == (1, 0)
                    elif p.shape == "k2":
                        assert (p.vertex_count, p.edge_count) == (2, 1)
                    elif p.shape == "cycle":
                        assert p.edge_count == p.vertex_count == p.cycle_length >= 3
                    elif p.shape == "tree":
                        assert p.edge_count == p.vertex_count - 1
                    else:
                        assert p.shape == "unicyclic"
                        assert p.edge_count == p.vertex_count
                        assert 3 <= p.cycle_length < p.vertex_count
                    # pseudoforest bound, component by component
                    assert p.edge_count <= p.vertex_count


class TestCycles:
    @staticmethod
    def cycle_lengths(gr) -> list[int]:
        return sorted(p.cycle_length for p in components(gr) if p.cycle_length is not None)

    def test_z31_k2_cycle_lengths(self):
        gr = build_undirected(build_group("cyclic:31"), 2)
        assert self.cycle_lengths(gr) == [5, 5, 5, 5, 5, 5]

    def test_trees_have_no_cycles(self):
        assert self.cycle_lengths(build_undirected(build_group("cyclic:4"), 2)) == []
        assert self.cycle_lengths(build_undirected(S3, 2)) == []

    def test_directed_orbit_matches_cycle_length(self):
        # the cycle through x has length ord_{o(x)}(k) when coprime
        gr = build_undirected(build_group("cyclic:7"), 2)
        assert self.cycle_lengths(gr) == [3, 3]  # ord_7(2) = 3


class TestDistancesAndDiameter:
    def test_isolated_vertex(self):
        gr = build_undirected(build_group("cyclic:31"), 2)
        dist = distances_from(gr, 0)
        assert dist[0] == 0
        assert dist.count(None) == 30

    def test_z4_star_distances(self):
        gr = build_undirected(build_group("cyclic:4"), 2)
        assert distances_from(gr, 2) == [1, 1, 0, 1]
        assert diameter(gr) == 2

    def test_k2_diameter(self):
        assert diameter(build_undirected(build_group("cyclic:2"), 2)) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            diameter(build_undirected(build_group("cyclic:31"), 2))

    def test_connected_with_a_cycle_rejected(self):
        # a triangle: connected, but no group's graph is, so it is not a tree
        with pytest.raises(ValueError):
            diameter(undirected_from_successor([1, 2, 0], 2, 2))

    def test_tree_shortcut_matches_full_scan(self):
        for n, k in ((8, 2), (16, 2), (27, 3), (9, 3), (4, 2)):
            g = build_group(f"cyclic:{n}")
            gr = build_undirected(g, k)
            by_shortcut = diameter(gr)
            eccentricities = []
            for v in range(n):
                dist = distances_from(gr, v)
                assert None not in dist
                eccentricities.append(max(dist))
            assert by_shortcut == max(eccentricities)


class TestFromSuccessor:
    def test_matches_build_undirected(self):
        for spec in ("cyclic:20", "dihedral:5"):
            g = build_group(spec)
            for k in (2, 3, 5, 9):
                gr = build_undirected(g, k)
                via_succ = undirected_from_successor(gr.successor.tolist(), k, gr.k_normalized)
                assert via_succ.adjacency == gr.adjacency
                assert np.array_equal(via_succ.successor, gr.successor)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_the_collector_as_it_found_it(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            adjacency = undirected_from_successor([1, 2, 0, 3], 2, 2).adjacency
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert adjacency == [[1, 2], [0, 2], [0, 1], []]


class TestAgainstSetReference:
    """The mask-dedup builder and the batch's row graphs against one neighbour set per vertex."""

    @staticmethod
    def assert_matches(gr, row):
        assert gr.adjacency == set_adjacency(row)
        assert all(type(v) is int for nbrs in gr.adjacency for v in nbrs)
        assert gr.successor.tolist() == list(row)

    @settings(max_examples=300, deadline=None)
    @given(successor_matrices())
    def test_random_successor_maps(self, S):
        for row in S.tolist():
            self.assert_matches(undirected_from_successor(row, 2, 2), row)

    @settings(max_examples=200, deadline=None)
    @given(successor_matrices())
    def test_kept_arcs_of_a_matrix_are_each_rows_edges(self, S):
        keep = kept_arcs(S)
        for r, row in enumerate(S.tolist()):
            assert np.array_equal(keep[r], kept_arcs(S[r]))
            arcs = [(min(x, row[x]), max(x, row[x])) for x in np.flatnonzero(keep[r]).tolist()]
            adjacency = set_adjacency(row)
            assert sorted(arcs) == [(u, v) for u in range(len(row)) for v in adjacency[u] if u < v]

    @settings(max_examples=100, deadline=None)
    @given(power_map_cases())
    def test_power_map_rows(self, case):
        group, ks = case
        batch = GroupBatch.build(group, ks)
        rows = batch.S.tolist()
        for r, row in enumerate(rows):
            self.assert_matches(undirected_from_successor(row, int(ks[r]), int(batch.kn[r])), row)
            self.assert_matches(undirected_from_successor(batch.S[r], int(ks[r]), int(batch.kn[r])), row)
            self.assert_matches(batch.graph_for_row(r), row)


class TestComponentViewsAgainstListReference:
    """The component queries, views over the engine's component pass, and the
    engine's cycle metrics on the same row, against BFS, leaf stripping and
    a triangle search on the adjacency lists."""

    @staticmethod
    def assert_matches(gr):
        reference = list_components(gr)
        profiles = components(gr)
        assert profiles == reference
        assert all(type(x) is int for p in profiles for x in (p.vertex_count, p.edge_count, *p.vertices))
        cycles = [p.cycle_length for p in reference if p.cycle_length is not None]
        m = analyze_batch(gr.successor[None])
        assert bool(m.has_cycle[0]) == bool(cycles)
        assert bool(m.has_long_odd_cycle[0]) == any(c >= 5 and c % 2 for c in cycles)
        assert int(m.omega[0]) == list_clique_number(gr)

    @settings(max_examples=300, deadline=None)
    @given(successor_matrices())
    def test_random_successor_maps(self, S):
        for row in S.tolist():
            self.assert_matches(undirected_from_successor(row, 2, 2))

    @settings(max_examples=100, deadline=None)
    @given(power_map_matrices())
    def test_power_map_rows(self, S):
        for row in S:
            self.assert_matches(undirected_from_successor(row, 2, 2))


class TestCertificatesAgainstListReference:
    """The colouring certificate and the peel-level diameter, both read off
    the successor row, against the greedy colouring and BFS eccentricities
    on the adjacency lists."""

    @staticmethod
    def assert_matches(row):
        gr = undirected_from_successor(row, 2, 2)
        chi, colors = chromatic(gr)
        assert colors.dtype == np.int8
        assert all(colors[u] != colors[v] for u, v in gr.edges())
        assert sorted(set(colors.tolist())) == list(range(1, chi + 1))
        assert chi == list_chromatic(gr)[0]

        profiles = list_components(gr)
        if len(profiles) == 1 and profiles[0].cycle_length is None:
            eccentricities = [max(distances_from(gr, v)) for v in range(gr.group_order)]
            assert diameter(gr) == max(eccentricities)
        else:
            with pytest.raises(ValueError):
                diameter(gr)

    @settings(max_examples=300, deadline=None)
    @given(successor_matrices())
    def test_random_successor_maps(self, S):
        for row in S.tolist():
            self.assert_matches(row)

    @settings(max_examples=100, deadline=None)
    @given(power_map_matrices())
    def test_power_map_rows(self, S):
        for row in S:
            self.assert_matches(row)

    def test_trees_rooted_at_a_mutual_pair(self):
        # 0 <-> 1, with a path of two below 0 and one leaf below 1: 3 - 2 - 0 - 1 - 4
        gr = undirected_from_successor([1, 0, 0, 2, 1], 2, 2)
        assert diameter(gr) == 4
        assert chromatic(gr)[0] == 2
        # one leaf below each end of the pair: the pair's edge is the middle of the path 2 - 0 - 1 - 3
        assert diameter(undirected_from_successor([1, 0, 0, 1], 2, 2)) == 3

    def test_odd_cycle_takes_a_third_colour(self):
        # the 5-cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0 with a tail 5 -> 1 on the third-coloured vertex
        chi, colors = chromatic(undirected_from_successor([1, 2, 3, 4, 0, 1], 2, 2))
        assert chi == 3
        assert colors.tolist() == [1, 3, 2, 1, 2, 1]


class TestNoAdjacencyLists:
    """Sweeps, `analyze` and exports read the successor rows through arrays:
    the lazy adjacency builder must never run."""

    @pytest.fixture(autouse=True)
    def forbid_lists(self, monkeypatch):
        def refuse(succ):
            raise AssertionError("adjacency lists built")

        monkeypatch.setattr(graphs, "_adjacency_lists", refuse)

    def test_sweep(self):
        families = ("cyclic", "dihedral", "quaternion", "sym", "product")
        checks = run_verification(SweepSpec(families, 6))
        assert all(check.passed for check in checks)

    @pytest.mark.parametrize("spec,k", [("cyclic:12", 2), ("cyclic:8", 2), ("cyclic:31", 2),
                                        ("sym:4", 3), ("quaternion:3", 6), ("product:2x4", 5)])
    def test_analyze_and_export(self, spec, k):
        g = build_group(spec)
        assert analyze(g, k).discrepancies == []
        gr = build_undirected(g, k)
        to_dot(g, gr)
        to_json_dict(g, gr)

    def test_lists_still_build_on_request(self, monkeypatch):
        monkeypatch.undo()
        assert undirected_from_successor([1, 2, 0, 3], 2, 2).adjacency == [[1, 2], [0, 2], [0, 1], []]


class TestOneRowPath:
    """The one-row builders read the shared power map; pin them to the definition."""

    SPECS = ("cyclic:1", "cyclic:12", "product:2x3x4", "dihedral:1", "dihedral:7",
             "quaternion:2", "quaternion:5", "sym:1", "sym:2", "sym:4")

    @staticmethod
    def exponents(g):
        o = g.order
        return sorted({2, 3, 4, 5, o, o + 1, o + 2, 3 * o + 7, 2**63 - 1} - {0, 1})

    @pytest.mark.parametrize("spec", SPECS)
    def test_successor_is_the_power_map(self, spec):
        g = build_group(spec)
        for k in self.exponents(g):
            gr = build_undirected(g, k)
            assert gr.successor.tolist() == [g.power(x, gr.k_normalized) for x in range(g.order)]
            assert gr.successor.dtype == np.int64

    @pytest.mark.parametrize("spec", SPECS)
    def test_exported_fixed_points(self, spec):
        g = build_group(spec)
        for k in self.exponents(g):
            doc = to_json_dict(g, build_undirected(g, k))
            assert doc["fixed_points"] == [x for x in range(g.order) if g.power(x, k) == x]
            json.dumps(doc)


class TestExports:
    def test_dot_golden(self):
        expected = (
            'graph "sym:3 k=3" {\n'
            '  0 [label="e"];\n'
            '  1 [label="(2 3)"];\n'
            '  2 [label="(1 2)"];\n'
            '  3 [label="(1 2 3)"];\n'
            '  4 [label="(1 3 2)"];\n'
            '  5 [label="(1 3)"];\n'
            "  0 -- 3;\n"
            "  0 -- 4;\n"
            "}\n"
        )
        assert to_dot(S3, build_undirected(S3, 3)) == expected

    def test_json_schema(self):
        z4 = build_group("cyclic:4")
        doc = to_json_dict(z4, build_undirected(z4, 2))
        assert doc == {
            "group": "cyclic:4",
            "k": 2,
            "edges": [[0, 2], [1, 2], [2, 3]],
            "fixed_points": [0],
        }
        json.dumps(doc)  # must be serialisable as-is

    def test_empty_graph_export(self):
        g = build_group("cyclic:5")
        doc = to_json_dict(g, build_undirected(g, 6))
        assert doc["edges"] == []
        assert doc["fixed_points"] == [0, 1, 2, 3, 4]

    def test_exports_are_byte_stable(self):
        g = build_group("quaternion:2")
        first = to_dot(g, build_undirected(g, 6))
        second = to_dot(g, build_undirected(g, 6))
        assert first == second
