"""Group layer: canonical enumerations, operation axioms, order censuses."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iterated_power, perm_index, perm_order
from kpower import numth
from kpower.groups import MAX_ORDER, _perm_ranks, build_group, parse_group_spec, successor_rows

# Exhaustive-scan corpus: one of each family, orders <= 48.
SMALL_SPECS = (
    "cyclic:1",
    "cyclic:12",
    "cyclic:31",
    "sym:3",
    "sym:4",
    "dihedral:1",
    "dihedral:6",
    "quaternion:2",
    "quaternion:5",
    "product:2x3x4",
    "product:6x8",
)


@pytest.fixture(scope="module")
def small_groups():
    return [build_group(spec) for spec in SMALL_SPECS]


class TestSpecParsing:
    def test_roundtrip(self):
        for text in SMALL_SPECS:
            assert str(parse_group_spec(text)) == text

    def test_rejects_garbage(self):
        for bad in ("cyclic", "ring:4", "cyclic:x", "product:2xq"):
            with pytest.raises(ValueError):
                parse_group_spec(bad)

    def test_rejects_bad_parameters(self):
        for bad in ("cyclic:0", "sym:9", "dihedral:0", "quaternion:1", "product:0x2"):
            with pytest.raises(ValueError):
                build_group(bad)

    def test_order_ceiling(self):
        with pytest.raises(ValueError):
            build_group(f"cyclic:{MAX_ORDER + 1}")
        assert build_group(f"cyclic:{MAX_ORDER}").order == MAX_ORDER


class TestBuild:
    def test_cyclic4_orders(self):
        g = build_group("cyclic:4")
        assert g.order == 4
        assert g.element_orders == [1, 4, 2, 4]

    def test_sym3_census(self):
        assert build_group("sym:3").order_census() == {1: 1, 2: 3, 3: 2}

    def test_q8_unique_involution(self):
        g = build_group("quaternion:2")
        assert g.order == 8
        assert g.order_census()[2] == 1

    def test_q4n_unique_involution(self):
        for n in range(2, 9):
            assert build_group(f"quaternion:{n}").order_census()[2] == 1

    def test_family_orders(self):
        assert build_group("sym:4").order == 24
        assert build_group("dihedral:7").order == 14
        assert build_group("quaternion:3").order == 12
        assert build_group("product:3x5x7").order == 105


class TestOperation:
    def test_cyclic_addition(self):
        g = build_group("cyclic:4")
        assert g.op(1, 3) == 0

    def test_sym3_involution_squares_to_identity(self):
        g = build_group("sym:3")
        tau = next(x for x in range(6) if g.element_orders[x] == 2)
        assert g.op(tau, tau) == g.identity

    def test_q8_a_squared_is_b_squared(self):
        g = build_group("quaternion:2")
        a, b = 1, 4  # enumeration: a^0, a^1, a^2, a^3, b, ab, a2b, a3b
        assert g.op(a, a) == g.op(b, b)

    def test_axioms_exhaustive(self, small_groups):
        # two-sided identity and full associativity on every order <= 48 group
        for g in small_groups:
            if g.order > 48:
                continue
            e = g.identity
            for x in range(g.order):
                assert g.op(e, x) == x
                assert g.op(x, e) == x
            for x in range(g.order):
                for y in range(g.order):
                    xy = g.op(x, y)
                    for z in range(g.order):
                        assert g.op(xy, z) == g.op(x, g.op(y, z))

    def test_inverses_exist(self, small_groups):
        for g in small_groups:
            for x in range(g.order):
                assert any(g.op(x, y) == g.identity for y in range(g.order))

    def test_out_of_range_rejected(self):
        g = build_group("cyclic:4")
        with pytest.raises(IndexError):
            g.op(0, 4)
        with pytest.raises(IndexError):
            g.power(-1, 2)


class TestPower:
    def test_zeroth_power_is_identity(self, small_groups):
        for g in small_groups:
            for x in range(min(g.order, 20)):
                assert g.power(x, 0) == g.identity

    def test_fixture_values(self):
        z4 = build_group("cyclic:4")
        assert z4.power(1, 2) == 2
        s3 = build_group("sym:3")
        sigma1 = perm_index(s3, (1, 2, 0))
        sigma2 = perm_index(s3, (2, 0, 1))
        assert s3.power(sigma1, 2) == sigma2

    def test_matches_iterated_multiplication(self, small_groups):
        for g in small_groups:
            for x in range(g.order):
                for k in range(13):
                    assert g.power(x, k) == iterated_power(g, x, k)

    def test_lagrange(self, small_groups):
        for g in small_groups:
            for x in range(g.order):
                assert g.power(x, g.order) == g.identity


class TestElementOrders:
    def test_identity_and_generators(self):
        assert build_group("cyclic:31").element_order(0) == 1
        assert build_group("cyclic:31").element_order(1) == 31
        assert build_group("quaternion:2").element_order(4) == 4  # b

    def test_orders_match_definition(self, small_groups):
        for g in small_groups:
            for x in range(g.order):
                o = g.element_orders[x]
                assert iterated_power(g, x, o) == g.identity
                for t in range(1, o):
                    assert iterated_power(g, x, t) != g.identity

    def test_census_sums_to_order(self, small_groups):
        for g in small_groups:
            census = g.order_census()
            assert sum(census.values()) == g.order
            assert census[1] == 1
            for d, t in census.items():
                assert g.order % d == 0  # Lagrange
                if d > 2:
                    assert t % 2 == 0

    def test_cyclic_census_is_phi(self):
        for n in (1, 6, 12, 31, 36, 100):
            census = build_group(f"cyclic:{n}").order_census()
            assert census == {d: numth.euler_phi(d) for d in numth.divisors(n)}

    def test_z12_census_frozen(self):
        assert build_group("cyclic:12").order_census() == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    def test_census_is_one_cached_pair_of_arrays(self, small_groups):
        for g in small_groups:
            orders, counts = g.census
            assert g.census[0] is orders and g.census[1] is counts
            assert orders.dtype == counts.dtype == np.int64
            assert not orders.flags.writeable and not counts.flags.writeable
            expected_orders, expected_counts = np.unique(g.element_orders, return_counts=True)
            assert orders.tolist() == expected_orders.tolist()
            assert counts.tolist() == expected_counts.tolist()
            census = g.order_census()
            assert census == dict(zip(orders.tolist(), counts.tolist()))
            census[1] = 0  # a fresh dict each call
            assert g.order_census()[1] == 1

    @pytest.mark.parametrize("spec", (
        "cyclic:1", "cyclic:2", "cyclic:12", "dihedral:1", "dihedral:2", "dihedral:15",
        "quaternion:2", "quaternion:3", *(f"sym:{m}" for m in range(1, 7)),
        "product:2x4", "product:2x3x4", "product:6x8",
    ))
    def test_exponent_is_lcm_of_element_orders(self, spec):
        g = build_group(spec)
        assert type(g.exponent) is int
        assert g.exponent == int(np.lcm.reduce(g.element_orders))

    def test_exponent_below_order(self):
        assert build_group("product:2x4").exponent == 4
        assert build_group("sym:4").exponent == 12
        assert build_group("quaternion:2").exponent == 4


def orders_by_multiplication(g) -> list[int]:
    """Each element's order as the least t >= 1 with x^t = e, one product at a time."""
    orders = []
    for x in range(g.order):
        y, t = x, 1
        while y != g.identity:
            y, t = g.op(y, x), t + 1
        orders.append(t)
    return orders


# Every family: all small cyclic and dihedral groups, quaternion from its
# least parameter, and products with a factor of 1.
ORDER_SPECS = (
    *(f"cyclic:{n}" for n in range(1, 65)),
    *(f"dihedral:{n}" for n in range(1, 41)),
    *(f"quaternion:{n}" for n in range(2, 25)),
    "product:1", "product:1x1", "product:1x7", "product:4x1", "product:3x1x5",
    "product:2x2x2", "product:6x4x10", "product:12x18",
)


class TestVectorisedOrders:
    """The vectorised closed forms for element orders against per-element references."""

    @pytest.mark.parametrize("spec", ORDER_SPECS)
    def test_matches_multiplication(self, spec):
        g = build_group(spec)
        assert g.element_orders == orders_by_multiplication(g)
        assert all(type(o) is int for o in g.element_orders)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sym_in_full(self, m):
        g = build_group(f"sym:{m}")
        perms = list(itertools.permutations(range(m)))
        assert g._perm_array.dtype == np.int64
        assert g._perm_array.tolist() == [list(p) for p in perms]
        assert g.element_orders == [perm_order(p) for p in perms]


class TestNames:
    def test_cyclic_names(self):
        assert build_group("cyclic:3").element_names() == ["0", "1", "2"]

    def test_sym3_names(self):
        names = build_group("sym:3").element_names()
        assert names[0] == "e"
        assert set(names) == {"e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)"}

    def test_dihedral_names(self):
        assert build_group("dihedral:3").element_names() == ["e", "a", "a2", "b", "ab", "a2b"]

    def test_product_names(self):
        assert build_group("product:2x2").element_names() == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]

    @pytest.mark.parametrize("spec", (
        "cyclic:1", "cyclic:17", "dihedral:1", "dihedral:2", "dihedral:12",
        "quaternion:2", "quaternion:9", "product:1", "product:1x3", "product:2x1x3",
        "product:10x11", *(f"sym:{m}" for m in range(1, 9)),
    ))
    def test_names_match_element_name(self, spec):
        g = build_group(spec)
        assert g.element_names() == [g.element_name(x) for x in range(g.order)]


class TestPermRanks:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_ranks_of_all_products_match_op(self, n):
        """``_perm_ranks`` ranks every pairwise composition as the scalar ``op`` does."""
        g = build_group(f"sym:{n}")
        perms = g._perm_array
        # (x * y)[i] = x[y[i]]
        products = perms[np.arange(g.order)[:, None, None], perms[None, :, :]]
        expected = [[g.op(x, y) for y in range(g.order)] for x in range(g.order)]
        assert _perm_ranks(perms, products).tolist() == expected


# Every family, with the groups of order 1 and 2 among them.
POWER_MAP_SPECS = (
    "cyclic:1",
    "cyclic:2",
    "cyclic:12",
    "cyclic:31",
    "product:1",
    "product:2",
    "product:2x3x4",
    "product:6x8",
    "dihedral:1",
    "dihedral:2",
    "dihedral:6",
    "dihedral:9",
    "quaternion:2",
    "quaternion:3",
    "quaternion:5",
    "sym:1",
    "sym:2",
    "sym:3",
    "sym:4",
)

# Exponents past int64's square root: a product k * x before reduction overflows.
HUGE_EXPONENTS = (2**62 + 3, 2**63 - 1)


@functools.lru_cache(maxsize=None)
def cached_group(spec):
    return build_group(spec)


def assert_rows_match_power(g, ks, xs=None):
    S = successor_rows(g, ks)
    assert S.dtype == np.int64 and S.flags.c_contiguous
    assert S.shape == (len(ks), g.order)
    xs = range(g.order) if xs is None else xs
    for r, k in enumerate(ks):
        assert [int(S[r, x]) for x in xs] == [g.power(x, k) for x in xs], (str(g.spec), k)


@st.composite
def power_map_cases(draw):
    """A group and exponents at k = 0 or 1 mod o(G), beyond o(G) + 1, and at random."""
    g = cached_group(draw(st.sampled_from(POWER_MAP_SPECS)))
    o = g.order
    aligned = st.builds(lambda m, r: m * o + r, st.integers(0, 4), st.sampled_from((0, 1)))
    beyond = st.integers(min_value=o + 2, max_value=6 * o + 6)
    anywhere = st.integers(min_value=0, max_value=2**63 - 1)
    ks = draw(st.lists(st.one_of(aligned, beyond, anywhere), min_size=1, max_size=5))
    return g, ks


class TestSuccessorRows:
    """The vectorised power map against the scalar definition, element by element."""

    @settings(max_examples=150, deadline=None)
    @given(power_map_cases())
    def test_matches_power(self, case):
        g, ks = case
        assert_rows_match_power(g, ks)

    @pytest.mark.parametrize("spec", ("quaternion:2", "quaternion:3", "quaternion:6"))
    def test_every_quaternion_reflection_residue(self, spec):
        g = cached_group(spec)
        ks = [m * 4 + r for r in range(4) for m in (0, 1, 5)]
        ks += [2**62 + r for r in range(4)] + [2**63 - 4 + r for r in range(4)]
        assert_rows_match_power(g, ks)

    @pytest.mark.parametrize("spec", ("cyclic:1000", "product:20x25x30", "dihedral:97", "quaternion:50", "sym:5"))
    def test_huge_exponents_do_not_overflow(self, spec):
        g = build_group(spec)
        xs = sorted(random.Random(spec).sample(range(g.order), min(g.order, 600)))
        assert_rows_match_power(g, list(HUGE_EXPONENTS), xs)

    @pytest.mark.parametrize("spec", ("dihedral:2053", "quaternion:1031", "sym:7"))
    def test_large_groups_on_sampled_elements(self, spec):
        g = build_group(spec)
        xs = sorted(random.Random(spec).sample(range(g.order), 300))
        ks = [2, 3, 4, 5, 7, 8, g.order, g.order + 1, g.order + 2, 3 * g.order + 5, *HUGE_EXPONENTS]
        assert_rows_match_power(g, ks, xs)
