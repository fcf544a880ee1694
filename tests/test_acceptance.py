"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus is: cyclic n <= 512, dihedral parameter <= 200 (order <= 400),
generalized quaternion parameter <= 32 (order <= 128), symmetric n <= 6,
and products of 2..3 cyclic factors each in 2..12 (one representative per
isomorphism class) - with every exponent k in 2..o(G)+1 throughout,
roughly 281k graphs in all.

The structural criteria share one corpus sweep (module-scoped fixture);
the criteria with stated time budgets run their own fresh, timed passes.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import kpower.verify as V
from conftest import edge_counts_only, perm_index
from kpower import analysis
from kpower.analysis import analyze, theorem16_structure
from kpower.graphs import build_undirected, components
from kpower.groups import build_group

S3 = build_group("sym:3")
Z4 = build_group("cyclic:4")
Z31 = build_group("cyclic:31")
Q8 = build_group("quaternion:2")


def _report(name: str, ok: bool, detail: str, failures: list[str] | None = None):
    state = "PASS" if ok else "FAIL"
    print(f"\n[{state}] {name}: {detail}")
    if failures:
        for f in failures[:5]:
            print(f"        counterexample: {f}")
    assert ok, f"{name}: {(failures or ['see detail'])[:5]}"


def _timed_best(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- shared corpus sweep -------------------------------------------------------------


class CorpusResults:
    def __init__(self):
        self.checks: dict[str, V.TheoremCheck] = {
            name: V.TheoremCheck(name)
            for name in (
                "clique",
                "chromatic",
                "connectivity",
                "star",
                "empty",
                "forest",
                "shapes",
                "components",
                "order-adjacency",
            )
        }
        self.cells = 0
        self.omega_over_3 = 0
        self.chi_over_3 = 0
        self.pseudoforest_failures: list[str] = []
        self.elapsed = 0.0


@pytest.fixture(scope="module")
def corpus(request) -> CorpusResults:
    results = CorpusResults()
    t0 = time.perf_counter()
    for gspec in V.corpus_specs():
        group = build_group(gspec)
        batch = V.GroupBatch.build(group, V.exponents_for(group, None))
        results.cells += len(batch.ks)
        for name, check in results.checks.items():
            check.merge(V._BATCH_CHECKS[name](batch))
        m = batch.metrics
        results.chi_over_3 += int((m.chi > 3).sum())
        bad = np.flatnonzero(~m.pseudoforest_ok)
        for r in bad[:3]:
            results.pseudoforest_failures.append(f"group={gspec} k={int(batch.ks[r])}")
    results.elapsed = time.perf_counter() - t0
    return results


# -- the criteria --------------------------------------------------------------------


def test_criterion_01_small_group_fixtures():
    """Exact edge sets of the five small fixture graphs, in under 1 ms."""
    sigma1, sigma2 = perm_index(S3, (1, 2, 0)), perm_index(S3, (2, 0, 1))
    tau1, tau2, tau3 = (perm_index(S3, p) for p in ((1, 0, 2), (0, 2, 1), (2, 1, 0)))
    expected = {
        2: {(0, tau1), (0, tau2), (0, tau3), (sigma1, sigma2)},
        3: {(0, sigma1), (0, sigma2)},
        4: {(0, tau1), (0, tau2), (0, tau3)},
        5: {(sigma1, sigma2)},
    }
    expected = {
        k: {(min(u, v), max(u, v)) for u, v in pairs} for k, pairs in expected.items()
    }

    def check():
        for k, pairs in expected.items():
            assert set(build_undirected(S3, k).edges()) == pairs
        assert set(build_undirected(Z4, 2).edges()) == {(0, 2), (1, 2), (2, 3)}
        star = build_undirected(Z4, 2)
        assert star.degree(2) == 3  # centred at 2

    check()
    best = _timed_best(check)
    _report(
        "criterion 1 (small-group fixtures)",
        best < 1e-3,
        f"exact edge sets; {best * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_02_pentagon_decomposition():
    """One isolated vertex plus six 5-cycles; chi 3, omega 2, imperfect."""

    def check():
        gr = build_undirected(Z31, 2)
        tags = sorted(p.shape_tag for p in components(gr))
        assert tags == ["cycle(5)"] * 6 + ["isolated"]
        chi, _ = analysis.chromatic(gr)
        m = V.analyze_batch(gr.successor[None])
        criterion = analysis.clique_criterion_rows(Z31, np.array([2]))
        assert (chi, int(m.omega[0]), bool(criterion[0])) == (3, 2, False)
        assert m.has_long_odd_cycle[0]  # imperfect

    check()
    best = _timed_best(check)
    _report(
        "criterion 2 (pentagon decomposition)",
        best < 1e-3,
        f"1 isolated + six 5-cycles, chi 3, omega 2, imperfect; {best * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_03_edge_count_formula():
    """Closed-form edge count equals brute force across the whole corpus, < 60 s."""
    failures: list[str] = []
    cells = 0
    t0 = time.perf_counter()
    for gspec in V.corpus_specs():
        group = build_group(gspec)
        ks = V.exponents_for(group, None)
        S = V.successor_rows(group, ks)
        kn = V.normalized_exponents(ks, group.order)
        formula = analysis.edge_count_rows(group, kn)
        brute = edge_counts_only(S)
        cells += len(ks)
        for r in np.flatnonzero(formula != brute)[:3]:
            failures.append(f"group={gspec} k={int(ks[r])}: formula {int(formula[r])} != {int(brute[r])}")
        if (brute > group.order - 1).any():
            failures.append(f"group={gspec}: edge count above n-1")
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (edge-count formula)",
        not failures and elapsed < 60,
        f"{cells} cells exact in {elapsed:.1f} s (< 60 s)",
        failures,
    )


def test_criterion_04_degree_formula():
    """Closed-form degrees equal brute force: cyclic n <= 512, all k, all vertices, < 30 s."""
    t0 = time.perf_counter()
    check = V.TheoremCheck("degrees")
    for gspec in V.sweep_group_specs(V.SweepSpec(("cyclic",), 512)):
        group = build_group(gspec)
        batch = V.GroupBatch.build(group, V.exponents_for(group, None))
        check.merge(V.check_degrees(batch))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (degree formula)",
        check.passed and elapsed < 30,
        f"{check.cells} vertex cells exact in {elapsed:.1f} s (< 30 s)",
        check.failures,
    )


def test_criterion_05_global_bounds(corpus):
    """omega <= 3 and chi <= 3 corpus-wide; omega = 3 iff the order criterion;
    the returned colouring is proper and uses exactly chi colours.

    omega <= 3 holds structurally because every component is verified to be a
    pseudotree (criterion 11): no 4-clique fits in 4 vertices with <= 4 edges.
    """
    clique = corpus.checks["clique"]
    chromatic = corpus.checks["chromatic"]
    ok = (
        clique.passed
        and chromatic.passed
        and corpus.chi_over_3 == 0
        and not corpus.pseudoforest_failures
    )
    _report(
        "criterion 5 (clique/chromatic bounds)",
        ok,
        f"{clique.cells} cells: omega <= 3, chi <= 3, omega=3 iff criterion, "
        f"colourings proper and tight",
        clique.failures + chromatic.failures,
    )


def test_criterion_06_connectivity(corpus):
    """Order criterion iff BFS connectivity; connected graphs are trees with
    diameter within twice the worst covering exponent."""
    check = corpus.checks["connectivity"]
    _report(
        "criterion 6 (connectivity + diameter bound)",
        check.passed,
        f"{check.cells} cells: criterion = BFS, trees when connected, diameter bounded",
        check.failures,
    )


def test_criterion_07_characterizations(corpus):
    """Star / empty / forest / component-shape booleans match their criteria."""
    named = [corpus.checks[name] for name in ("star", "empty", "forest", "shapes")]
    failures = [f for check in named for f in check.failures]
    # the paper's exceptional star cases, asserted explicitly
    for group, k, case in ((Q8, 2, "q8_k2_or_6"), (Q8, 6, "q8_k2_or_6"), (Z4, 2, "z4_k2")):
        report = analyze(group, k)
        assert (report.is_star, report.star_criterion_case) == (True, case)
    cells = ", ".join(f"{c.name} {c.cells}" for c in named)
    _report(
        "criterion 7 (star/empty/forest/shapes)",
        not failures,
        f"cells: {cells}; Q8 at k=2,6 and Z4 at k=2 included",
        failures,
    )


def test_criterion_08_component_census(corpus):
    """Coprime cyclic pairs: count >= tau(n), equality iff primitive-root
    criterion, and every edge joins elements of equal order."""
    comp = corpus.checks["components"]
    homog = corpus.checks["order-adjacency"]
    _report(
        "criterion 8 (component census)",
        comp.passed and homog.passed,
        f"{comp.cells} coprime cells: bound, equality criterion, order-homogeneous edges",
        comp.failures + homog.failures,
    )


def test_criterion_09_half_exponent_structures():
    """For every n <= 1000 with n even and n/2 odd (n >= 6): the two stars at
    k = n/2 and the perfect matching at k = n/2 + 1, by exact edge sets.

    n = 2 is outside the domain: its first exponent n/2 = 1 is below the
    k >= 2 range of the graph family.
    """
    count = 0
    for n in range(6, 1001, 4):
        cert = theorem16_structure(n)
        assert cert.star_leaf_count == n // 2 - 1
        assert len(cert.matching_pairs) == n // 2
        count += 1
    _report(
        "criterion 9 (half-exponent structures)",
        count == 249,
        f"{count} values of n certified (6..998)",
    )


def test_criterion_10_chair():
    """Simulated minimal whistle count equals the least coprime k >= 2 for all
    n <= 10^4; degree profile is all (1,1) exactly on coprime pairs, < 10 s."""
    t0 = time.perf_counter()
    check = V.check_chair(10_000)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 10 (shifting chairs)",
        check.passed and elapsed < 10,
        f"n <= 10000 in {elapsed:.1f} s (< 10 s)",
        check.failures,
    )


def test_criterion_11_pseudoforest(corpus):
    """Every component of every corpus graph has no more edges than vertices."""
    _report(
        "criterion 11 (pseudoforest property)",
        not corpus.pseudoforest_failures,
        f"{corpus.cells} graphs, every component edge count <= vertex count "
        f"(corpus sweep {corpus.elapsed:.0f} s)",
        corpus.pseudoforest_failures,
    )
