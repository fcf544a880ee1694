"""Closed-form graph parameters for k-power graphs, paired with brute force.

Each closed form is written once, as a ``*_rows`` function of the group's
order census vectorised over an array ``kn`` of normalised exponents.  The
sweep checks in ``verify`` evaluate it on a whole group's exponents; the
public scalar functions here are one-row calls of the same code.

The graph side has one home, the batch engine ``verify.analyze_batch``:
edge count, degrees, components, clique number, perfection and the star
and forest shapes are its ``BatchMetrics``, and ``analyze`` reports them
for one (G, k) next to their criteria.  Only what a batch does not hold is
computed per graph: the colouring certificate ``chromatic``, read off the
component pass's peel levels and cycle distance parities, and in
``graphs`` the component profiles, the diameter, BFS distances and the
exports.  The tests pin the engine against list-walking references.

``analyze`` is a one-row view over the batch engine: its
``discrepancies`` are the counterexamples of the sweep's theorem checks on
that one row, so a report records any closed-form/graph disagreement
instead of reconciling it; the strict standalone operations raise
``TheoremViolation`` instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import numth, verify
from .graphs import (
    KPowerGraph,
    build_undirected,
    component_shape,
    diameter,  # unused here; perfbench/tests pins this binding
    normalize_exponent,
    shape_tag,
)
from .groups import FiniteGroup, build_group

# Order censuses that identify the two exceptional star-graph groups:
# the cyclic group of order 4, and the quaternion group of order 8
# (the unique order-8 group with exactly one involution and no element
# of order 8).
_CENSUS_Z4 = {1: 1, 2: 1, 4: 2}
_CENSUS_Q8 = {1: 1, 2: 1, 4: 6}

STAR_CASE_ALL_ORDERS = "all_orders_divide_k"
STAR_CASE_Z4 = "z4_k2"
STAR_CASE_Q8 = "q8_k2_or_6"
STAR_CASE_NONE = "not_star"


class TheoremViolation(RuntimeError):
    """A proven identity failed to hold; indicates an implementation bug."""


def _one_row(k: int, n: int) -> np.ndarray:
    """The normalised exponent array of a single scalar k (validates k >= 2)."""
    return np.array([normalize_exponent(k, n)], dtype=np.int64)


def _distinct_orders(group: FiniteGroup) -> np.ndarray:
    """The distinct element orders of the group, ascending."""
    return np.array(list(group.order_census()), dtype=np.int64)


# -- edge count ---------------------------------------------------------------


def edge_count_rows(group: FiniteGroup, kn: np.ndarray) -> np.ndarray:
    """Closed-form edge count of P(G, k) for every normalised exponent.

    |E| = n - sum_{d | k1} t_d - (1/2) sum_{d | k2, d !| k1} t_d with
    k1 = gcd(k-1, n) and k2 = gcd(k^2-1, n).  Since k-1 divides k^2-1 the
    k1-divisors nest inside the k2-divisors.  The halved sum is over element
    orders > 2 only, whose counts are always even; an odd sum there means
    the census itself is broken.
    """
    n = group.order
    census = group.order_census()
    orders = np.array(list(census), dtype=np.int64)
    counts = np.array(list(census.values()), dtype=np.int64)
    k1 = np.gcd(kn - 1, n)[:, None]
    k2 = np.gcd(kn * kn - 1, n)[:, None]
    fixed = (k1 % orders == 0) @ counts
    mutual = (k2 % orders == 0) @ counts - fixed
    if np.any(mutual % 2):
        raise TheoremViolation("odd element count in the mutual-edge sum; census is broken")
    return n - fixed - mutual // 2


def edge_count_formula(group: FiniteGroup, k: int) -> int:
    """Closed-form edge count of P(G, k) from the order census."""
    return int(edge_count_rows(group, _one_row(k, group.order))[0])


# -- degrees (cyclic groups) --------------------------------------------------


def cyclic_degree_rows(n: int, kn: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Closed-form degrees in P(Z_n, k): one row per exponent, one column per residue a.

    With d = gcd(n, k) and o = o(a) = n/gcd(n, a):
      d !| a:  0 if o | k-1 else 1
      d  | a:  d-1 if o | k-1
               d   if o | k^2-1 but o !| k-1   (the out-edge is mutual)
               d+1 otherwise
    """
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


def degree_cyclic(n: int, k: int, a: int) -> int:
    """Degree of vertex a in P(Z_n, k), in closed form."""
    if n < 1:
        raise ValueError("degree_cyclic expects n >= 1")
    if k < 2:
        raise ValueError("degree_cyclic expects k >= 2")
    if not 0 <= a < n:
        raise ValueError(f"residue {a} out of range for Z_{n}")
    return int(cyclic_degree_rows(n, _one_row(k, n), np.array([a]))[0, 0])


# -- connectivity -------------------------------------------------------------


def covering_exponent_rows(orders: np.ndarray, kn: np.ndarray) -> np.ndarray:
    """Least m >= 0 with d | k**m, one row per exponent k and one column per d.

    d | k**m iff every prime power p**a exactly dividing d has p | k and
    m >= a / v_p(k); -1 marks columns where no power of k works.  Valuations
    are read off gcds with the largest power of p not above max(orders);
    capping v_p(k) there leaves every ceil(a / v_p(k)) unchanged.
    """
    need = np.zeros((len(kn), len(orders)), dtype=np.int64)
    possible = np.ones(need.shape, dtype=bool)
    top = int(orders.max())
    for p in numth.prime_set(int(np.lcm.reduce(orders))):
        powers = [1]
        while powers[-1] * p <= top:
            powers.append(powers[-1] * p)
        alpha = np.searchsorted(powers, np.gcd(orders, powers[-1]))[None, :]
        v = np.searchsorted(powers, np.gcd(kn, powers[-1]))[:, None]
        possible &= (v > 0) | (alpha == 0)
        need = np.maximum(need, -(-alpha // np.maximum(v, 1)))
    return np.where(possible, need, -1)


def min_covering_exponent(d: int, k: int) -> int | None:
    """Least m >= 0 with d | k**m, or None when no power of k is divisible."""
    if d < 1:
        raise ValueError("expects d >= 1")
    m = int(covering_exponent_rows(np.array([d]), np.array([k % d or d]))[0, 0])
    return None if m < 0 else m


def connectivity_rows(group: FiniteGroup, kn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(criterion, diameter bound) for every normalised exponent.

    P(G, k) is connected iff every element order divides some power of k;
    when it is, the diameter is at most twice the largest minimal such
    power over the elements.  The bound reads -1 on disconnected rows.
    """
    exponents = covering_exponent_rows(_distinct_orders(group), kn)
    connected = (exponents >= 0).all(axis=1)
    return connected, np.where(connected, 2 * exponents.max(axis=1), -1)


def is_connected_criterion(group: FiniteGroup, k: int) -> tuple[bool, int | None]:
    """Connectivity test from element orders, plus the diameter bound."""
    connected, bound = connectivity_rows(group, _one_row(k, group.order))
    return (True, int(bound[0])) if connected[0] else (False, None)


def cyclic_pi_rows(n: int, kn: np.ndarray) -> np.ndarray:
    """P(Z_n, k) is connected iff every prime of n also divides k."""
    connected = np.ones(len(kn), dtype=bool)
    for p in numth.prime_set(n):
        connected &= kn % p == 0
    return connected


def is_connected_cyclic_pi(n: int, k: int) -> bool:
    """P(Z_n, k) is connected iff every prime of n also divides k."""
    if n < 1:
        raise ValueError("expects n >= 1")
    if k < 2:
        raise ValueError("expects k >= 2")
    return bool(cyclic_pi_rows(n, _one_row(k, n))[0])


# -- clique and chromatic numbers ----------------------------------------------


def clique_criterion_rows(group: FiniteGroup, kn: np.ndarray) -> np.ndarray:
    """omega = 3 iff some element order m > 3 has m | k^3-1 and m !| k-1."""
    orders = _distinct_orders(group)
    m = orders[orders > 3]
    k = kn[:, None]
    return (((k**3 - 1) % m == 0) & ((k - 1) % m != 0)).any(axis=1)


def chromatic(gr: KPowerGraph) -> tuple[int, np.ndarray]:
    """A proper colouring with the minimum number of colours (never above 3).

    A certificate read off the successor row, with colours 1..3 in an int8
    array.  A vertex on a directed cycle gets 2 when its distance forward
    to its cycle's least vertex is odd, else 1; on an odd cycle of length
    >= 3 that leaves the least vertex and its successor both 1, so the
    successor gets 3.  Tail vertices, from the cycles outward, get 2 when
    their successor has 1, else 1.  So chi is 1 for edgeless graphs, 2 for
    bipartite graphs with an edge, and 3 exactly when some component's
    cycle is odd.
    """
    succ = gr.successor
    cp = gr.component_pass
    colors = np.empty(succ.size, dtype=np.int8)
    colors[cp.on_cycle] = 1 + cp.odd
    odd = (cp.cycle_len >= 3) & (cp.cycle_len % 2 == 1)
    colors[succ[cp.roots[odd]]] = 3
    for level in reversed(cp.levels):
        colors[level] = 1 + (colors[succ[level]] == 1)
    return int(colors.max()), colors


# -- characterizations ----------------------------------------------------------


def star_case_rows(group: FiniteGroup, kn: np.ndarray) -> np.ndarray:
    """Star-criterion case for every normalised exponent (an array of STAR_CASE_*).

    The three-way disjunction, in this order: every element order divides
    k; or G is cyclic of order 4 with k = 2; or G is the order-8 quaternion
    group with k in {2, 6}.  A single vertex is never a star.
    """
    if group.order < 2:
        return np.full(len(kn), STAR_CASE_NONE)
    census = group.order_census()
    orders = np.array(list(census), dtype=np.int64)
    z4 = (kn == 2) & (census == _CENSUS_Z4)
    q8 = ((kn == 2) | (kn == 6)) & (census == _CENSUS_Q8)
    case = np.where(q8, STAR_CASE_Q8, STAR_CASE_NONE)
    case = np.where(z4, STAR_CASE_Z4, case)
    return np.where((kn[:, None] % orders == 0).all(axis=1), STAR_CASE_ALL_ORDERS, case)


def empty_criterion_rows(group: FiniteGroup, kn: np.ndarray) -> np.ndarray:
    """P(G, k) is edgeless iff every element order divides k - 1."""
    return ((kn[:, None] - 1) % _distinct_orders(group) == 0).all(axis=1)


def is_empty_graph(group: FiniteGroup, k: int) -> bool:
    """True iff every element order divides k - 1 (all vertices fixed)."""
    return bool(empty_criterion_rows(group, _one_row(k, group.order))[0])


def forest_criterion_rows(group: FiniteGroup, kn: np.ndarray) -> np.ndarray:
    """Acyclic iff no element order m > 1 is coprime to k with ord_m(k) > 2.

    Such an m would close an m-orbit of length ord_m(k) into a cycle;
    conversely any cycle forces one.  For coprime k, ord_m(k) > 2 means
    k^2 != 1 (mod m).
    """
    orders = _distinct_orders(group)
    m = orders[orders > 1]
    k = kn[:, None]
    return ~((np.gcd(k, m) == 1) & ((k * k - 1) % m != 0)).any(axis=1)


# -- cyclic specialisations ------------------------------------------------------


def _pow_mod(base: np.ndarray, e: int, n: int) -> np.ndarray:
    """base**e mod n elementwise, by squaring (n <= 2**16 keeps products in int64)."""
    result = np.ones_like(base)
    b = base % n
    while e:
        if e & 1:
            result = result * b % n
        b = b * b % n
        e >>= 1
    return result


def primitive_root_rows(n: int, kn: np.ndarray) -> np.ndarray:
    """Whether k is a primitive root modulo every divisor of n.

    Reduction mod d maps the units mod n onto the units mod d, so a
    generator mod n generates mod every divisor; the test is therefore
    ord_n(k) = phi(n): gcd(k, n) = 1 and k^(phi(n)/q) != 1 (mod n) for
    every prime q of phi(n).
    """
    phi = numth.euler_phi(n)
    generates = np.gcd(kn, n) == 1
    for q in numth.prime_set(phi):
        generates &= _pow_mod(kn, phi // q, n) != 1
    return generates


def component_count_cyclic(n: int, k: int) -> tuple[int, int, bool]:
    """(component count, tau(n), primitive-root criterion) for coprime (n, k).

    Raises ValueError unless gcd(n, k) = 1 (the bound is only claimed
    there), and TheoremViolation if the count drops below tau(n) or the
    equality fails to match the criterion.
    """
    if n < 1:
        raise ValueError("expects n >= 1")
    if math.gcd(n, k) != 1:
        raise ValueError(f"component bound requires gcd(n, k) = 1, got gcd({n}, {k}) != 1")
    group = build_group(f"cyclic:{n}")
    count = int(build_undirected(group, k).component_pass.roots.size)
    tau_n = numth.tau(n)
    criterion = bool(primitive_root_rows(n, _one_row(k, n))[0])
    if count < tau_n:
        raise TheoremViolation(f"P(Z_{n},{k}) has {count} components, below tau({n}) = {tau_n}")
    if (count == tau_n) != criterion:
        raise TheoremViolation(
            f"P(Z_{n},{k}): component count {count} vs tau {tau_n} disagrees with "
            f"the primitive-root criterion ({criterion})"
        )
    return count, tau_n, criterion


@dataclass
class HalfExponentCertificate:
    """Structural witness for P(Z_n, n/2) and P(Z_n, n/2+1), n = 2 mod 4."""

    n: int
    k_half: int
    star_centers: tuple[int, int]
    star_leaf_count: int
    half_description: str
    k_half_plus_one: int
    matching_pairs: list[tuple[int, int]]
    matching_description: str


def theorem16_structure(n: int) -> HalfExponentCertificate:
    """Verify the two closed-form shapes at k = n/2 and k = n/2 + 1.

    For even n with n/2 odd (n >= 6): at k = n/2 the graph is two stars
    K_{1, n/2-1} centred at 0 and n/2 (evens attach to 0, odds to n/2);
    at k = n/2 + 1 it is n/2 disjoint edges {a, a + n/2}.  A mismatch
    raises TheoremViolation since both shapes are forced.
    """
    if n < 6 or n % 4 != 2:
        raise ValueError("requires even n with n/2 odd and n >= 6")
    half = n // 2
    group = build_group(f"cyclic:{n}")

    expected_stars = sorted(
        [(0, a) for a in range(2, n, 2)] + [(min(a, half), max(a, half)) for a in range(1, n, 2) if a != half]
    )
    got_stars = build_undirected(group, half).edges()
    if got_stars != expected_stars:
        raise TheoremViolation(f"P(Z_{n},{half}) does not split into the two expected stars")

    pairs = [(a, (a + half) % n) for a in range(1, n, 2)]
    expected_matching = sorted((min(a, b), max(a, b)) for a, b in pairs)
    got_matching = build_undirected(group, half + 1).edges()
    if got_matching != expected_matching:
        raise TheoremViolation(f"P(Z_{n},{half + 1}) is not the expected perfect matching")

    return HalfExponentCertificate(
        n=n,
        k_half=half,
        star_centers=(0, half),
        star_leaf_count=half - 1,
        half_description=f"2*K_{{1,{half - 1}}}",
        k_half_plus_one=half + 1,
        matching_pairs=sorted((min(a, b), max(a, b)) for a, b in pairs),
        matching_description=f"{half}*P_2",
    )


def shapes_basic_rows(n: int, kn: np.ndarray) -> np.ndarray:
    """Predicts when every component of P(Z_n, k) is isolated, K_2 or a cycle.

    True when gcd(n, k) = 1.  The lone exception on the non-coprime side is
    k = n/2 + 1 (mod n) for n = 2 mod 4, where the graph degenerates to a
    perfect matching of K_2 components even though gcd(n, k) = 2: the usual
    witness (the degree-1 vertex 1 attached to a higher-degree vertex k)
    collapses because k is then a fixed point.  For n = 2, n/2 + 1 = n is
    the normalised residue 0.
    """
    return (np.gcd(kn, n) == 1) | ((n % 4 == 2) & (kn == n // 2 + 1))


# -- the aggregate report ---------------------------------------------------------


@dataclass
class CyclicExtras:
    pi_criterion_connected: bool
    tau: int
    primitive_root_all_divisors: bool | None  # None when gcd(n, k) != 1
    thm16_structure: str | None  # "two_stars" | "half_matching" | None


@dataclass
class AnalysisReport:
    group: str
    k: int
    k_normalized: int
    edges: int
    edge_count_formula: int
    edge_count_brute: int
    degree_sequence: list[int]
    component_count: int
    component_shapes: dict[str, int]
    is_connected: bool
    diameter: int | None
    diameter_bound: int | None
    clique_number: int
    clique_criterion_holds: bool
    chromatic_number: int
    is_forest: bool
    forest_criterion_holds: bool
    is_star: bool
    star_criterion_case: str
    is_empty: bool
    is_perfect: bool
    cyclic: CyclicExtras | None
    discrepancies: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """The fields in declaration order, with ``components`` repeating
        ``component_count`` just before it."""
        doc = {}
        for f in fields(self):
            if f.name == "component_count":
                doc["components"] = self.component_count
            doc[f.name] = getattr(self, f.name)
        if self.cyclic is not None:
            doc["cyclic"] = asdict(self.cyclic)
        return doc


def _component_shapes(m: verify.BatchMetrics) -> dict[str, int]:
    """Shape-tag counts of a one-row batch, in order of each component's least vertex."""
    shapes: dict[str, int] = {}
    order = np.argsort(m.comp_least).tolist()
    vertices = m.comp_vertices.tolist()
    edges = m.comp_edges.tolist()
    cycle = m.comp_cycle_len.tolist()  # directed: 1 = fixed point, 2 = mutual pair
    for c in order:
        tag = shape_tag(*component_shape(vertices[c], edges[c], cycle[c]))
        shapes[tag] = shapes.get(tag, 0) + 1
    return shapes


def analyze(group: FiniteGroup, k: int) -> AnalysisReport:
    """Compute every parameter and criterion for one (G, k) pair.

    The report reads a one-row ``verify.GroupBatch``: its graph-side metrics
    and the closed forms and diameter its checks evaluate.  Every batch
    check but ``thm16`` (a whole-group certificate) runs on that row, and
    ``discrepancies`` lists their counterexamples, after the comparison of
    ``edge_count_formula`` with the graph, rather than raising, so reports
    remain producible outside any theorem's hypothesis.
    """
    n = group.order
    kn = normalize_exponent(k, n)
    # The row is labelled by kn: a raw k may not fit in int64, and the
    # graph depends on k only through kn.
    batch = verify.GroupBatch.build(group, np.array([kn], dtype=np.int64))
    m = batch.metrics
    discrepancies: list[str] = []

    edges_brute = int(m.edge_count[0])
    try:
        edges_formula = edge_count_formula(group, k)
    except TheoremViolation as exc:
        edges_formula = -1
        discrepancies.append(str(exc))
    if edges_formula != edges_brute:
        discrepancies.append(f"edge count: formula {edges_formula} != graph {edges_brute}")
    for name, check in verify._BATCH_CHECKS.items():
        if name == "thm16":
            continue
        try:
            discrepancies += [f"{name}: {failure}" for failure in check(batch).failures]
        except TheoremViolation as exc:
            discrepancies.append(f"{name}: {exc}")

    connected = bool(m.connected[0])
    criterion_connected, bound = batch.connectivity
    cyclic_extras = None
    if group.spec.family == "cyclic":
        tag = None
        if n % 4 == 2:
            if kn == n // 2:
                tag = "two_stars"
            elif kn == n // 2 + 1:
                tag = "half_matching"
        prim_root = bool(batch.primitive_root[0]) if math.gcd(n, kn) == 1 else None
        cyclic_extras = CyclicExtras(bool(batch.cyclic_pi[0]), numth.tau(n), prim_root, tag)

    return AnalysisReport(
        group=str(group.spec),
        k=k,
        k_normalized=kn,
        edges=edges_brute,
        edge_count_formula=edges_formula,
        edge_count_brute=edges_brute,
        degree_sequence=sorted(m.degrees[0].tolist(), reverse=True),
        component_count=int(m.comp_count[0]),
        component_shapes=_component_shapes(m),
        is_connected=connected,
        diameter=int(batch.diameters[0]) if connected else None,
        diameter_bound=int(bound[0]) if criterion_connected[0] else None,
        clique_number=int(m.omega[0]),
        clique_criterion_holds=bool(batch.clique_criterion[0]),
        # check_chromatic proves the colouring certificate uses exactly chi colours
        chromatic_number=int(m.chi[0]),
        is_forest=not m.has_cycle[0],
        forest_criterion_holds=bool(batch.forest_criterion[0]),
        is_star=bool(m.star_shape[0]),
        star_criterion_case=str(batch.star_case[0]),
        is_empty=bool(batch.empty_criterion[0]),
        is_perfect=not m.has_long_odd_cycle[0],
        cyclic=cyclic_extras,
        discrepancies=discrepancies,
    )
