"""Analysis layer: every closed form against its brute-force counterpart."""

import math

import networkx as nx
import numpy as np
import pytest

from conftest import POWER_MAP_SPECS, brute_degrees, pairwise_edges
from kpower import analysis, numth, verify
from kpower.analysis import (
    CyclicExtras,
    TheoremViolation,
    analyze,
    chromatic,
    clique_criterion_rows,
    component_count_cyclic,
    covering_exponent_rows,
    degree_cyclic,
    edge_count_formula,
    forest_criterion_rows,
    is_connected_criterion,
    is_connected_cyclic_pi,
    is_empty_graph,
    primitive_root_rows,
    shapes_basic_rows,
    star_case_rows,
    theorem16_structure,
)
from kpower.graphs import build_undirected, components, diameter
from kpower.groups import build_group, successor_rows
from kpower.verify import GroupBatch, check_order_adjacency, exponents_for

S3 = build_group("sym:3")
Z4 = build_group("cyclic:4")
Z31 = build_group("cyclic:31")
Q8 = build_group("quaternion:2")


def every_k(g) -> GroupBatch:
    """The batch of every distinct graph of g: k in 2..o(G)+1."""
    return GroupBatch.build(g, exponents_for(g, None))


def nx_graph(gr) -> nx.Graph:
    h = nx.Graph(gr.edges())
    h.add_nodes_from(range(gr.group_order))
    return h


class TestEdgeCountFormula:
    def test_s3_fixture_values(self):
        assert edge_count_formula(S3, 2) == 4
        assert edge_count_formula(S3, 3) == 2
        assert edge_count_formula(S3, 4) == 3
        assert edge_count_formula(S3, 5) == 1

    def test_matches_brute_force_small_corpus(self):
        for spec in ("cyclic:1", "cyclic:60", "sym:4", "dihedral:10", "quaternion:4", "product:4x6"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                assert edge_count_formula(g, k) == len(pairwise_edges(g, k)), (spec, k)

    def test_cyclic_phi_variant(self):
        # for cyclic groups the census sums collapse: |E| = n - k1 - (k2 - k1)/2
        for n in (1, 2, 12, 31, 36, 100):
            g = build_group(f"cyclic:{n}")
            for k in range(2, n + 2):
                k1 = math.gcd(k - 1, n)
                k2 = math.gcd(k * k - 1, n)
                assert edge_count_formula(g, k) == n - k1 - (k2 - k1) // 2


class TestDegreeCyclic:
    def test_fixture_values(self):
        assert degree_cyclic(4, 2, 2) == 3
        assert degree_cyclic(4, 2, 0) == 1
        assert degree_cyclic(31, 2, 0) == 0

    def test_mutual_edge_case(self):
        # 1 and 2 swap under squaring mod 3: the out-edge is also the in-edge
        assert degree_cyclic(3, 2, 1) == 1

    def test_matches_brute_force(self):
        for n in range(1, 65):
            g = build_group(f"cyclic:{n}")
            for k in range(2, n + 2):
                brute = brute_degrees(g, k)
                for a in range(n):
                    assert degree_cyclic(n, k, a) == brute[a], (n, k, a)

    def test_rows_match_case_by_case_reference(self):
        # the four cases of the docstring, written as nested selections over
        # whole R x n arrays
        def reference(n, kn, a):
            o = n // np.gcd(n, a)
            k = kn[:, None]
            d = np.gcd(k, n)
            fixes = (k - 1) % o == 0
            mutual = (k * k - 1) % o == 0
            return np.where(
                a % d != 0,
                np.where(fixes, 0, 1),
                np.where(fixes, d - 1, np.where(mutual, d, d + 1)),
            )

        for n in range(1, 513):
            kn = np.arange(1, n + 1, dtype=np.int64)
            a = np.arange(n, dtype=np.int64)
            got = analysis.cyclic_degree_rows(n, kn, a)
            expected = reference(n, kn, a)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), n

    def test_bounded_by_gcd_plus_one(self):
        for n in (12, 36, 60):
            for k in range(2, n + 2):
                d = math.gcd(n, k)
                assert max(degree_cyclic(n, k, a) for a in range(n)) <= d + 1


class TestConnectivity:
    def test_z4_connected_with_bound(self):
        connected, bound = is_connected_criterion(Z4, 2)
        assert connected
        assert bound >= diameter(build_undirected(Z4, 2)) == 2

    def test_z31_disconnected(self):
        assert is_connected_criterion(Z31, 2) == (False, None)

    def test_z8_bound_is_six(self):
        g = build_group("cyclic:8")
        assert is_connected_criterion(g, 2) == (True, 6)

    def test_min_covering_exponent(self):
        # least m with d | k**m, one row per k and one column per d; -1 where no power works
        def least(d, k):
            return int(covering_exponent_rows(np.array([d]), np.array([k]))[0, 0])

        assert least(1, 5) == 0
        assert least(8, 2) == 3
        assert least(12, 6) == 2  # 12 | 36
        assert least(31, 2) == -1

    def test_pi_criterion(self):
        assert is_connected_cyclic_pi(4, 2)
        assert not is_connected_cyclic_pi(31, 2)
        assert is_connected_cyclic_pi(12, 6)

    def test_criterion_matches_bfs_and_trees(self):
        for spec in ("cyclic:36", "sym:4", "dihedral:8", "quaternion:3"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                gr = build_undirected(g, k)
                connected = len(components(gr)) == 1
                criterion, bound = is_connected_criterion(g, k)
                assert criterion == connected, (spec, k)
                if connected:
                    assert gr.edge_count == g.order - 1  # connected implies tree
                    assert diameter(gr) <= bound


class TestClique:
    @staticmethod
    def clique(g, k) -> tuple[int, bool]:
        report = analyze(g, k)
        return report.clique_number, report.clique_criterion_holds

    def test_z7_k2_triangle(self):
        assert self.clique(build_group("cyclic:7"), 2) == (3, True)

    def test_s3_k2_no_triangle(self):
        assert self.clique(S3, 2) == (2, False)

    def test_empty_graph_omega_one(self):
        assert self.clique(build_group("cyclic:6"), 7) == (1, False)

    def test_criterion_iff_triangle_small_corpus(self):
        for spec in ("cyclic:63", "sym:4", "dihedral:12", "product:3x7"):
            g = build_group(spec)
            batch = every_k(g)
            omega = batch.metrics.omega
            criterion = clique_criterion_rows(g, batch.kn)
            assert omega.max() <= 3
            assert np.array_equal(omega == 3, criterion), spec
            # cross-check omega against networkx's clique finder
            if g.order <= 64:
                for r in range(len(batch.ks)):
                    h = nx_graph(batch.graph_for_row(r))
                    assert omega[r] == max(len(c) for c in nx.find_cliques(h)), (spec, r)


class TestChromatic:
    def test_z31_k2_needs_three(self):
        assert chromatic(build_undirected(Z31, 2)).max() == 3

    def test_s3_k2_bipartite(self):
        assert chromatic(build_undirected(S3, 2)).max() == 2

    def test_empty_graph_one_colour(self):
        g = build_group("cyclic:6")
        assert chromatic(build_undirected(g, 7)).max() == 1

    def test_coloring_proper_and_tight(self):
        for spec in ("cyclic:100", "sym:4", "quaternion:5", "product:5x5"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                gr = build_undirected(g, k)
                colors = chromatic(gr)
                chi = int(colors.max())
                assert chi <= 3
                assert all(colors[u] != colors[v] for u, v in gr.edges())
                assert sorted(set(colors)) == list(range(1, chi + 1))
                # bipartiteness agrees with networkx
                if g.order <= 100:
                    h = nx.Graph(gr.edges())
                    h.add_nodes_from(range(g.order))
                    assert (chi <= 2) == nx.is_bipartite(h), (spec, k)


def perfect_oracle(gr) -> bool:
    """Independent perfect-graph check via networkx.

    Verifies the pseudoforest property, then scans every basis cycle as a
    candidate odd hole (in a pseudoforest every cycle is chordless and
    component-unique).  Odd antiholes need at least C(7,2)/... more edges
    than a pseudoforest subgraph can carry, except length 5 where the
    antihole IS a 5-hole, so the hole scan is complete.
    """
    h = nx.Graph(gr.edges())
    h.add_nodes_from(range(gr.group_order))
    for comp in nx.connected_components(h):
        sub = h.subgraph(comp)
        assert sub.number_of_edges() <= len(comp), "not a pseudoforest"
    for cycle in nx.cycle_basis(h):
        if len(cycle) >= 5 and len(cycle) % 2 == 1:
            # chordless check: consecutive pairs are the only adjacencies
            chords = sum(1 for i in range(len(cycle)) for j in range(i + 2, len(cycle))
                         if h.has_edge(cycle[i], cycle[j]) and not (i == 0 and j == len(cycle) - 1))
            assert chords == 0
            return False
    return True


class TestPerfect:
    def test_z31_k2_imperfect(self):
        assert not analyze(Z31, 2).is_perfect

    def test_z4_k2_perfect(self):
        assert analyze(Z4, 2).is_perfect

    def test_z7_k2_perfect_triangles(self):
        assert analyze(build_group("cyclic:7"), 2).is_perfect

    def test_matches_oracle_cyclic_to_64(self):
        for n in range(1, 65):
            batch = every_k(build_group(f"cyclic:{n}"))
            perfect = ~batch.metrics.has_long_odd_cycle
            for r in range(len(batch.ks)):
                assert perfect[r] == perfect_oracle(batch.graph_for_row(r)), (n, r)


class TestStar:
    @staticmethod
    def star(g, k) -> tuple[bool, str]:
        report = analyze(g, k)
        return report.is_star, report.star_criterion_case

    def test_z4_k2(self):
        assert self.star(Z4, 2) == (True, "z4_k2")

    def test_q8_k2_and_k6(self):
        assert self.star(Q8, 2) == (True, "q8_k2_or_6")
        assert self.star(Q8, 6) == (True, "q8_k2_or_6")

    def test_s3_k2_not_star(self):
        assert self.star(S3, 2) == (False, "not_star")

    def test_exponent_annihilates_everything(self):
        assert self.star(S3, 6) == (True, "all_orders_divide_k")
        assert self.star(build_group("cyclic:5"), 5) == (True, "all_orders_divide_k")

    def test_single_vertex_is_not_a_star(self):
        assert self.star(build_group("cyclic:1"), 2) == (False, "not_star")

    def test_graph_test_iff_case_small_corpus(self):
        for spec in ("cyclic:4", "cyclic:16", "sym:3", "dihedral:4", "quaternion:2", "quaternion:4", "product:2x2"):
            g = build_group(spec)
            batch = every_k(g)
            case = star_case_rows(g, batch.kn)
            assert np.array_equal(batch.metrics.star_shape, case != "not_star"), spec
            # a star: one vertex adjacent to all n - 1 others, and no other edge
            for r in range(len(batch.ks)):
                h = nx_graph(batch.graph_for_row(r))
                star = g.order >= 2 and h.number_of_edges() == g.order - 1 == max(d for _, d in h.degree())
                assert batch.metrics.star_shape[r] == star, (spec, r)


class TestEmpty:
    def test_s3_k7(self):
        assert is_empty_graph(S3, 7)

    def test_z4_k2_not_empty(self):
        assert not is_empty_graph(Z4, 2)

    def test_exponent_plus_one(self):
        for spec in ("cyclic:9", "dihedral:5", "sym:4"):
            g = build_group(spec)
            exponent = math.lcm(*g.order_census().keys())
            assert is_empty_graph(g, exponent + 1)

    def test_iff_no_edges(self):
        for spec in ("cyclic:36", "dihedral:9", "quaternion:3"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                assert is_empty_graph(g, k) == (build_undirected(g, k).edge_count == 0)


class TestForest:
    @staticmethod
    def forest(g, k) -> tuple[bool, bool]:
        report = analyze(g, k)
        return report.is_forest, report.forest_criterion_holds

    def test_z31_k2_cycles(self):
        assert self.forest(Z31, 2) == (False, False)

    def test_z4_k2_tree(self):
        assert self.forest(Z4, 2) == (True, True)

    def test_s3_k2_forest(self):
        assert self.forest(S3, 2) == (True, True)

    def test_iff_on_small_corpus(self):
        for spec in ("cyclic:60", "sym:4", "dihedral:15", "quaternion:6"):
            g = build_group(spec)
            batch = every_k(g)
            acyclic = ~batch.metrics.has_cycle
            assert np.array_equal(acyclic, forest_criterion_rows(g, batch.kn)), spec
            for r in range(len(batch.ks)):
                assert acyclic[r] == nx.is_forest(nx_graph(batch.graph_for_row(r))), (spec, r)


class TestComponentCountCyclic:
    def test_primitive_root_case(self):
        assert component_count_cyclic(7, 3) == (2, 2, True)

    def test_z31_k2(self):
        assert component_count_cyclic(31, 2) == (7, 2, False)

    def test_trivial_group(self):
        assert component_count_cyclic(1, 5) == (1, 1, True)

    def test_count_fault_raises_the_components_check_text(self, monkeypatch):
        # P(Z31, 2) has 7 components; planted as 1, below tau(31) = 2
        real = verify.analyze_batch

        def planted(S):
            m = real(S)
            m.comp_count[:] = 1
            return m

        monkeypatch.setattr(verify, "analyze_batch", planted)
        with pytest.raises(TheoremViolation) as info:
            component_count_cyclic(31, 2)
        assert str(info.value) == "group=cyclic:31 k=2: expected >= tau 2, got 1"

    def test_criterion_fault_raises_the_components_check_text(self, monkeypatch):
        # k = 33 is k = 2 mod 31: the batch row is labelled by the normalised k
        monkeypatch.setattr(analysis, "primitive_root_rows", lambda n, kn: np.ones(len(kn), dtype=bool))
        with pytest.raises(TheoremViolation) as info:
            component_count_cyclic(31, 33)
        assert str(info.value) == "group=cyclic:31 k=2: expected True, got False"

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            component_count_cyclic(6, 4)

    def test_criterion_is_primitive_root_mod_every_divisor(self):
        # the engine tests ord_n(k) = phi(n) only; check the definition itself
        for n in range(1, 200):
            ks = np.arange(1, n + 1, dtype=np.int64)
            expected = [math.gcd(n, int(k)) == 1
                        and all(numth.is_primitive_root(int(k), d) for d in numth.divisors(n))
                        for k in ks]
            assert primitive_root_rows(n, ks).tolist() == expected, n

    def test_bound_and_criterion_sweep(self):
        for n in range(1, 80):
            for k in range(2, n + 2):
                if math.gcd(n, k) == 1:
                    count, tau_n, crit = component_count_cyclic(n, k)
                    assert count >= tau_n
                    assert (count == tau_n) == crit


class TestOrderHomogeneity:
    @staticmethod
    def order_check(g, k):
        return check_order_adjacency(GroupBatch.build(g, np.array([k], dtype=np.int64)))

    def test_z31_k2(self):
        check = self.order_check(Z31, 2)
        assert (check.cells, check.passed) == (1, True)

    def test_z7_k3(self):
        check = self.order_check(build_group("cyclic:7"), 3)
        assert (check.cells, check.passed) == (1, True)

    def test_not_applicable_when_not_coprime(self):
        assert self.order_check(Z4, 2).cells == 0

    def test_holds_for_general_groups_too(self):
        # the check covers cyclic groups only; every arc x -> x^k of a
        # coprime row keeps o(x), so every edge joins equal orders
        for spec in ("sym:4", "dihedral:7", "quaternion:3"):
            g = build_group(spec)
            batch = every_k(g)
            orders = np.array(g.element_orders)
            coprime = np.gcd(batch.kn, g.order) == 1
            assert coprime.any()
            assert (orders[batch.S[batch.row_class[coprime]]] == orders).all(), spec


class TestExponentPeriod:
    """x^k depends on k only modulo o(x), so P(G, k) depends on k only
    modulo the exponent exp(G), the lcm of the element orders."""

    SPECS = POWER_MAP_SPECS + ("sym:4", "quaternion:3", "product:3x4x6")

    @pytest.mark.parametrize("spec", SPECS)
    def test_rows_equal_iff_exponents_congruent(self, spec):
        g = build_group(spec)
        exp = math.lcm(*g.element_orders)
        ks = np.arange(2, 3 * g.order + 5, dtype=np.int64)
        S = successor_rows(g, ks)
        same_row = (S[:, None, :] == S[None, :, :]).all(axis=2)
        assert np.array_equal(same_row, ks[:, None] % exp == ks[None, :] % exp)

    @pytest.mark.parametrize("spec", SPECS)
    def test_reports_repeat_after_one_exponent(self, spec):
        # k_normalized is k mod o(G), which moves when exp(G) < o(G)
        g = build_group(spec)
        exp = math.lcm(*g.element_orders)
        for k in range(2, g.order + 2):
            report, shifted = analyze(g, k).to_json_dict(), analyze(g, k + exp).to_json_dict()
            assert shifted.pop("k") == k + exp
            assert (shifted.pop("k_normalized") - report.pop("k_normalized")) % exp == 0
            del report["k"]
            assert shifted == report, (spec, k)


class TestHalfExponentStructures:
    def test_n10(self):
        cert = theorem16_structure(10)
        assert cert.star_centers == (0, 5)
        assert cert.star_leaf_count == 4
        assert cert.half_description == "2*K_{1,4}"
        assert cert.matching_pairs == [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
        assert cert.matching_description == "5*P_2"

    def test_n6_smallest(self):
        cert = theorem16_structure(6)
        assert cert.star_leaf_count == 2
        assert len(cert.matching_pairs) == 3

    def test_rejects_wrong_shape_of_n(self):
        for n in (2, 4, 8, 12, 9):
            with pytest.raises(ValueError):
                theorem16_structure(n)

    def test_sweep_to_400(self):
        for n in range(6, 401, 4):
            assert n % 4 == 2
            cert = theorem16_structure(n)
            assert cert.star_leaf_count == n // 2 - 1
            assert len(cert.matching_pairs) == n // 2


class TestShapesCriterion:
    def test_matched_pairs_exception_found_by_scan(self):
        """Exhaustive scan: every-component-basic iff coprime or the
        matched-pairs family (n = 2 mod 4, k = n/2 + 1 mod n)."""
        basic = {"isolated", "k2", "cycle"}
        for n in range(1, 101):
            g = build_group(f"cyclic:{n}")
            for k in range(2, n + 2):
                profiles = components(build_undirected(g, k))
                all_basic = all(p.shape in basic for p in profiles)
                assert all_basic == shapes_basic_rows(n, np.array([k % n or n]))[0], (n, k)

    def test_coprime_always_basic(self):
        for n in (5, 12, 31, 50):
            for k in range(2, n + 2):
                if math.gcd(n, k) == 1:
                    assert shapes_basic_rows(n, np.array([k % n or n]))[0]


class TestAnalyze:
    def test_s3_k2_report(self):
        report = analyze(S3, 2)
        assert report.edges == 4
        assert report.clique_number == 2
        assert report.chromatic_number == 2
        assert report.component_count == 2
        assert report.discrepancies == []
        assert report.cyclic is None

    def test_z31_k2_report(self):
        report = analyze(Z31, 2)
        assert report.component_count == 7
        assert report.chromatic_number == 3
        assert report.clique_number == 2
        assert not report.is_perfect
        assert not report.is_forest
        assert report.cyclic == CyclicExtras(False, 2, False, None)
        assert report.discrepancies == []

    def test_z4_k2_report(self):
        report = analyze(Z4, 2)
        assert report.is_star
        assert report.star_criterion_case == "z4_k2"
        assert report.is_connected
        assert report.is_forest
        assert report.diameter == 2
        assert report.discrepancies == []

    def test_degenerate_single_vertex(self):
        report = analyze(build_group("cyclic:1"), 2)
        assert report.is_connected
        assert report.is_forest
        assert not report.is_star
        assert report.is_empty
        assert report.diameter == 0
        assert report.discrepancies == []

    def test_no_discrepancies_across_families(self):
        for spec in ("cyclic:48", "sym:4", "dihedral:10", "quaternion:4", "product:2x3x5"):
            g = build_group(spec)
            for k in range(2, g.order + 2):
                report = analyze(g, k)
                assert report.discrepancies == [], (spec, k)
                shapes: dict[str, int] = {}
                for p in components(build_undirected(g, k)):
                    shapes[p.shape_tag] = shapes.get(p.shape_tag, 0) + 1
                assert list(report.component_shapes.items()) == list(shapes.items()), (spec, k)

    def test_planted_closed_form_is_reported(self, monkeypatch):
        # P(Z31, 2) has cycles, so the true forest criterion is False.
        monkeypatch.setattr(analysis, "forest_criterion_rows", lambda group, kn: np.ones(len(kn), dtype=bool))
        report = analyze(Z31, 2)
        assert report.forest_criterion_holds
        assert not report.is_forest
        assert report.discrepancies == ["forest: group=cyclic:31 k=2: expected True, got False"]

    def test_is_empty_reads_the_graph(self, monkeypatch):
        # P(Z31, 32) is edgeless and P(Z31, 2) is not; the planted criterion
        # says the opposite, which only the discrepancy shows
        monkeypatch.setattr(analysis, "empty_criterion_rows", lambda group, kn: kn == 2)
        for k, empty in ((2, False), (32, True)):
            report = analyze(Z31, k)
            assert report.is_empty is empty
            assert report.discrepancies == [f"empty: group=cyclic:31 k={k % 31 or 31}: "
                                            f"expected {not empty}, got {empty}"]

    def test_cyclic_degree_check_runs(self, monkeypatch):
        real = analysis.cyclic_degree_rows
        monkeypatch.setattr(analysis, "cyclic_degree_rows", lambda n, kn, a: real(n, kn, a) + (a == 3))
        report = analyze(build_group("cyclic:12"), 5)
        assert report.discrepancies == ["degrees: group=cyclic:12 k=5: expected deg(3) = 1, got 0"]

    def test_census_violation_is_reported_not_raised(self, monkeypatch):
        def broken(group, kn):
            raise TheoremViolation("planted census fault")

        monkeypatch.setattr(analysis, "edge_count_rows", broken)
        report = analyze(S3, 2)
        assert report.edge_count_formula == -1
        assert report.edges == 4
        assert report.discrepancies == [
            "planted census fault",
            "edge count: formula -1 != graph 4",
            "edges: group=sym:3: planted census fault",
        ]

    def test_connected_graph_with_a_cycle_has_no_diameter(self, monkeypatch):
        # dihedral:3 at k = 7 (k = 1 mod 6) planted as a triangle with three leaves on 0
        real = verify.successor_rows

        def planted(group, ks):
            S = real(group, ks)
            S[ks % 6 == 1] = [1, 2, 0, 0, 0, 0]
            return S

        monkeypatch.setattr(verify, "successor_rows", planted)
        report = analyze(build_group("dihedral:3"), 7)
        assert report.is_connected
        assert report.diameter is None
        assert "connectivity: group=dihedral:3 k=1: expected 5, got 6" in report.discrepancies

    def test_json_round_trip_field_order(self):
        import json

        doc = analyze(S3, 2).to_json_dict()
        keys = list(doc.keys())
        assert keys[:6] == ["group", "k", "k_normalized", "edges", "edge_count_formula", "edge_count_brute"]
        assert keys[-1] == "discrepancies"
        json.dumps(doc)
