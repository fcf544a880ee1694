"""Shifting-chair riddle: simulation, closed form, and the whistle oracle."""

import math

import pytest

from conftest import minimal_whistles_by_simulation, reference_trace, whistle_positions
from kpower.chair import degree_profile, render_trace, solve_chairs
from kpower.graphs import build_undirected, components
from kpower.groups import build_group


def least_coprime(n: int) -> int:
    k = 2
    while math.gcd(n, k) != 1:
        k += 1
    return k


class TestDegreeProfile:
    def test_n4_k2(self):
        assert degree_profile(4, 2) == [(2, 1), (0, 1), (2, 1), (0, 1)]

    def test_coprime_all_ones(self):
        for n, k in ((7, 2), (10, 3), (9, 2), (1, 2)):
            assert degree_profile(n, k) == [(1, 1)] * n

    def test_n6_k3_vertex_one_unreachable(self):
        profile = degree_profile(6, 3)
        assert profile[1][0] == 0

    def test_in_degrees_sum_to_n(self):
        for n in (1, 5, 12, 30):
            for k in range(2, n + 2):
                assert sum(d for d, _ in degree_profile(n, k)) == n
                assert all(od == 1 for _, od in degree_profile(n, k))


class TestSolve:
    def test_frozen_examples(self):
        assert solve_chairs(6).minimal_k == 5
        assert solve_chairs(5).minimal_k == 2
        assert solve_chairs(1).minimal_k == 2

    def test_solution_invariants(self):
        for n in (1, 6, 14, 30, 105, 210):
            sol = solve_chairs(n)
            assert math.gcd(n, sol.minimal_k) == 1
            assert sorted(sol.seating) == list(range(n))  # a bijection
            for rejected, (chair, occupancy) in sol.collision_trace.items():
                assert math.gcd(n, rejected) > 1
                assert occupancy != 1
                assert 0 <= chair < n

    def test_matches_least_coprime(self):
        for n in range(1, 400):
            assert solve_chairs(n).minimal_k == least_coprime(n)

    def test_matches_whistle_oracle(self):
        # the oracle advances people by their own number, never multiplying
        for n in range(1, 300):
            assert solve_chairs(n).minimal_k == minimal_whistles_by_simulation(n)

    def test_whistle_positions_against_map(self):
        for n in (3, 8, 13):
            for w in range(1, n + 2):
                positions = whistle_positions(n, w)
                assert positions == [(w * i) % n for i in range(n)]


class TestSeatingCycleStructure:
    def test_permutation_cycles_match_graph_cycles(self):
        """For the winning k, the seating permutation's cycle type matches the
        undirected graph: fixed points are isolated vertices, 2-cycles are K2
        components, longer cycles are the graph's cycle components."""
        for n in (7, 10, 21, 31, 45):
            sol = solve_chairs(n)
            k = sol.minimal_k
            # cycle type of i -> k*i mod n
            seen = [False] * n
            perm_cycles = []
            for start in range(n):
                if seen[start]:
                    continue
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = sol.seating[j]
                    length += 1
                perm_cycles.append(length)
            profiles = components(build_undirected(build_group(f"cyclic:{n}"), k))
            graph_isolated = sum(1 for p in profiles if p.shape == "isolated")
            graph_k2 = sum(1 for p in profiles if p.shape == "k2")
            graph_cycles = sorted(p.cycle_length for p in profiles if p.cycle_length)
            assert sorted(c for c in perm_cycles if c >= 3) == graph_cycles
            assert sum(1 for c in perm_cycles if c == 2) == graph_k2
            assert sum(1 for c in perm_cycles if c == 1) == graph_isolated


class TestTrace:
    def test_n6_trace_format(self):
        text = render_trace(solve_chairs(6))
        lines = text.strip().split("\n")
        assert lines[-1] == "RESULT k=5"
        assert lines[0].startswith("w=2: ")
        assert len(lines) == 5  # w = 2, 3, 4, 5 and the result
        assert "seat[0] <- person " in lines[0]

    def test_trace_final_whistle_all_seats_once(self):
        sol = solve_chairs(10)
        final = render_trace(sol).strip().split("\n")[-2]
        seats = [piece.split("]")[0] for piece in final.split("seat[")[1:]]
        assert sorted(int(s) for s in seats) == list(range(10))

    def test_matches_reference(self):
        for n in [*range(1, 301), 5184]:
            sol = solve_chairs(n)
            assert render_trace(sol) == reference_trace(sol), n

    def test_collision_visible_on_rejected_whistle(self):
        sol = solve_chairs(6)
        first = render_trace(sol).strip().split("\n")[0]
        seats = [int(piece.split("]")[0]) for piece in first.split("seat[")[1:]]
        assert len(seats) != len(set(seats))


class TestValidation:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_chairs(0)
        with pytest.raises(ValueError):
            degree_profile(5, 1)
        with pytest.raises(ValueError):
            whistle_positions(4, 0)
