"""Concrete finite groups with dense element indexing.

Supported families and their canonical element enumerations (index 0 is
always the identity):

  cyclic:N        residues 0..N-1 under addition mod N
  sym:N           permutations of (0..N-1) in lexicographic one-line order
  dihedral:N      a^0..a^{N-1}, then a^0 b..a^{N-1} b          (order 2N)
  quaternion:N    a^0..a^{2N-1}, then a^0 b..a^{2N-1} b        (order 4N)
                  with a^N = b^2, a^{2N} = e, b^-1 a b = a^-1
  product:N1xN2x..  mixed-radix tuples over Z_N1 x Z_N2 x .., last
                  coordinate varying fastest

Groups are immutable once built: ``build_group`` materialises every
element's order and the family's realization data, from which
``FiniteGroup.op`` evaluates the operation in closed form.  The element
orders come from one vectorised closed form per family (h / gcd(h, i) on
rotations and residues, the lcm of m / gcd(m, d) over a product's digits,
the lcm of a permutation's cycle lengths), and ``element_names`` builds
every name family-wide; ``element_name`` is the scalar form they are pinned
against.  Group orders are capped at 2**16; larger requests are rejected
rather than attempted.

The power map x -> x**k is computed in one place, ``successor_rows``: a
vectorised closed form per family over a whole array of exponents.  The
sweep (``verify``), the one-row graph builders and the exports (``graphs``)
and ``analysis.analyze`` all call it; ``FiniteGroup.power`` is the scalar
public API, written from the operation alone, and serves as its test
reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_ORDER = 1 << 16

FAMILIES = ("cyclic", "sym", "dihedral", "quaternion", "product")


@dataclass(frozen=True)
class GroupSpec:
    """Family name plus its integer parameters."""

    family: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        if self.family == "product":
            return "product:" + "x".join(str(p) for p in self.params)
        return f"{self.family}:{self.params[0]}"


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the CLI spec syntax: cyclic:N, sym:N, dihedral:N, quaternion:N, product:N1xN2x..."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"bad group spec {text!r}: expected family:params")
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown group family {family!r} (expected one of {', '.join(FAMILIES)})")
    try:
        if family == "product":
            params = tuple(int(piece) for piece in rest.split("x"))
        else:
            params = (int(rest),)
    except ValueError:
        raise ValueError(f"bad group spec {text!r}: parameters must be integers") from None
    return GroupSpec(family, params)


@dataclass
class FiniteGroup:
    """A fully materialised finite group on indices 0..order-1."""

    spec: GroupSpec
    order: int
    identity: int
    element_orders: list[int]
    # family-specific realization data
    _perm_array: np.ndarray | None = field(default=None, repr=False, compare=False)
    _moduli: tuple[int, ...] | None = None
    _strides: tuple[int, ...] | None = None

    # -- core operations ---------------------------------------------------

    def op(self, x: int, y: int) -> int:
        """Group product x * y, from the family's closed-form realization."""
        self._check_index(x)
        self._check_index(y)
        family = self.spec.family
        if family == "cyclic":
            return (x + y) % self.order
        if family == "sym":
            px, py = self._perm_array[x].tolist(), self._perm_array[y].tolist()
            return _perm_rank([px[i] for i in py])
        if family == "dihedral":
            n = self.order // 2
            i, s = x % n, x >= n
            j, t = y % n, y >= n
            if not s:
                return (i + j) % n + (n if t else 0)
            # b a^j = a^-j b, and b^2 = e
            return (i - j) % n + (0 if t else n)
        if family == "quaternion":
            n2 = self.order // 2  # = 2n, the rotation subgroup size
            i, s = x % n2, x >= n2
            j, t = y % n2, y >= n2
            if not s:
                return (i + j) % n2 + (n2 if t else 0)
            # b a^j = a^-j b, and b^2 = a^n
            if not t:
                return (i - j) % n2 + n2
            return (i - j + n2 // 2) % n2
        # product: componentwise addition
        digits_x = self._decode(x)
        digits_y = self._decode(y)
        return self._encode(
            tuple((dx + dy) % m for dx, dy, m in zip(digits_x, digits_y, self._moduli))
        )

    def power(self, x: int, k: int) -> int:
        """x**k by repeated squaring; x**0 is the identity."""
        self._check_index(x)
        if k < 0:
            raise ValueError("power expects a non-negative exponent")
        # Reduce through the element's order first: keeps the loop short
        # even for enormous exponents.
        k %= self.element_orders[x]
        result = self.identity
        base = x
        while k:
            if k & 1:
                result = self.op(result, base)
            k >>= 1
            base = self.op(base, base)
        return result

    def element_order(self, x: int) -> int:
        """Least t >= 1 with x**t = identity."""
        self._check_index(x)
        return self.element_orders[x]

    @cached_property
    def census(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct element orders ascending, element count of each): read-only int64 arrays."""
        counts = np.bincount(np.array(self.element_orders, dtype=np.int64))
        orders = np.flatnonzero(counts)
        counts = counts[orders]
        orders.flags.writeable = counts.flags.writeable = False
        return orders, counts

    def order_census(self) -> dict[int, int]:
        """Map d -> number of elements of order d, keys ascending (a fresh dict)."""
        orders, counts = self.census
        return dict(zip(orders.tolist(), counts.tolist()))

    @cached_property
    def exponent(self) -> int:
        """exp(G), the lcm of the element orders: x**k depends on k only mod exp(G)."""
        return math.lcm(*self.census[0].tolist())

    def element_name(self, x: int) -> str:
        """Canonical display name for an element index."""
        self._check_index(x)
        return self._name(x)

    def element_names(self) -> list[str]:
        """Every element's ``element_name``, in index order, built family-wide."""
        family = self.spec.family
        if family == "cyclic":
            return list(map(str, range(self.order)))
        if family == "sym":
            return _perm_cycle_names(self._perm_array)
        if family in ("dihedral", "quaternion"):
            half = self.order // 2
            rotations = ["e", "a", *(f"a{i}" for i in range(2, half))][:half]
            return rotations + ["b"] + [name + "b" for name in rotations[1:]]
        # product: the last digit varies fastest, so the names are the
        # prefixes so far, each extended by every digit of the next factor
        names = ["("]
        for i, m in enumerate(self._moduli):
            digits = [("," if i else "") + str(d) for d in range(m)]
            names = [name + digit for name in names for digit in digits]
        return [name + ")" for name in names]

    def _name(self, x: int) -> str:
        family = self.spec.family
        if family == "cyclic":
            return str(x)
        if family == "sym":
            return _perm_cycle_notation(self._perm_array[x].tolist())
        if family in ("dihedral", "quaternion"):
            half = self.order // 2
            i, reflected = x % half, x >= half
            if not reflected:
                return "e" if i == 0 else ("a" if i == 1 else f"a{i}")
            return "b" if i == 0 else ("ab" if i == 1 else f"a{i}b")
        # product
        return "(" + ",".join(str(d) for d in self._decode(x)) + ")"

    def _decode(self, x: int) -> tuple[int, ...]:
        return tuple((x // s) % m for s, m in zip(self._strides, self._moduli))

    def _encode(self, digits: tuple[int, ...]) -> int:
        return sum(d * s for d, s in zip(digits, self._strides))

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range for group of order {self.order}")


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Materialise a group: identity, element orders and the data ``op`` reads."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    family, params = spec.family, spec.params

    if family == "cyclic":
        (n,) = params
        if n < 1:
            raise ValueError("cyclic groups need n >= 1")
        order = n
    elif family == "sym":
        (n,) = params
        if not 1 <= n <= 8:
            raise ValueError("symmetric groups are supported for 1 <= n <= 8")
        order = math.factorial(n)
    elif family == "dihedral":
        (n,) = params
        if n < 1:
            raise ValueError("dihedral groups need n >= 1")
        order = 2 * n
    elif family == "quaternion":
        (n,) = params
        if n < 2:
            raise ValueError("generalized quaternion groups need n >= 2")
        order = 4 * n
    elif family == "product":
        if not params or any(m < 1 for m in params):
            raise ValueError("product moduli must all be >= 1")
        order = math.prod(params)
    else:  # pragma: no cover - parse_group_spec already filters
        raise ValueError(f"unknown family {family!r}")

    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the supported ceiling {MAX_ORDER}")

    group = FiniteGroup(spec=spec, order=order, identity=0, element_orders=[])

    if family == "sym":
        group._perm_array = np.fromiter(
            itertools.chain.from_iterable(itertools.permutations(range(params[0]))),
            dtype=np.int64, count=order * params[0],
        ).reshape(order, params[0])
    elif family == "product":
        group._moduli = params
        strides = []
        acc = 1
        for m in reversed(params):
            strides.append(acc)
            acc *= m
        group._strides = tuple(reversed(strides))

    group.element_orders = _element_orders(group)
    return group


def _element_orders(group: FiniteGroup) -> list[int]:
    """Every element's order, from a vectorised closed form per family."""
    family = group.spec.family
    n = group.order
    idx = np.arange(n, dtype=np.int64)
    if family == "cyclic":
        orders = n // np.gcd(n, idx)
    elif family in ("dihedral", "quaternion"):
        # a^i has order h / gcd(h, i) on the h rotations; every reflection
        # has order 2 (dihedral) or 4 (quaternion).
        h = n // 2
        reflection = 2 if family == "dihedral" else 4
        orders = np.concatenate([h // np.gcd(h, idx[:h]), np.full(h, reflection)])
    elif family == "product":
        orders = np.ones(n, dtype=np.int64)
        for stride, m in zip(group._strides, group._moduli):
            orders = np.lcm(orders, m // np.gcd(m, (idx // stride) % m))
    else:
        # symmetric: the lcm of the cycle lengths
        orders = np.lcm.reduce(_cycle_lengths(group._perm_array), axis=1)
    return orders.tolist()


def _symbol_successor(perms: np.ndarray) -> np.ndarray:
    """The n permutations on m symbols as one functional graph on n*m flat
    vertices: vertex r*m + i steps to r*m + perms[r, i]."""
    n, m = perms.shape
    return (perms + np.arange(0, n * m, m, dtype=np.int64)[:, None]).ravel()


def _cycle_lengths(perms: np.ndarray) -> np.ndarray:
    """For each permutation p and symbol i, the least t >= 1 with p^t(i) = i.

    Walks all symbols one step at a time: m steps on m symbols.
    """
    n, m = perms.shape
    succ = _symbol_successor(perms)
    start = np.arange(n * m, dtype=np.int64)
    length = np.zeros(n * m, dtype=np.int64)
    walk = succ
    for t in range(1, m + 1):
        np.putmask(length, (walk == start) & (length == 0), t)
        walk = succ[walk]
    return length.reshape(n, m)


def _perm_cycle_names(perms: np.ndarray) -> list[str]:
    """``_perm_cycle_notation`` of every row of ``perms``, built column-wise.

    Each cycle is listed from its least symbol, and the cycles by their
    least symbols: sorting the symbols by (least symbol of the cycle,
    distance from it) lays out the notation, and every symbol contributes
    one token: nothing when fixed, otherwise itself led by "(" or " ", with
    ")" closing its cycle.
    """
    n, m = perms.shape
    length = _cycle_lengths(perms)
    succ = _symbol_successor(perms)
    least = np.arange(n * m, dtype=np.int64)
    to_least = np.zeros(n * m, dtype=np.int64)
    walk = least
    for t in range(1, m):
        walk = succ[walk]
        closer = walk < least
        np.putmask(least, closer, walk)
        np.putmask(to_least, closer, t)
    from_least = (length - to_least.reshape(n, m)) % length
    layout = np.argsort(least.reshape(n, m) * m + from_least, axis=1)
    kind = np.where(length == 1, 0, np.where(from_least == 0, 1, np.where(from_least == length - 1, 3, 2)))
    tokens = np.array(
        [["", f"({v + 1}", f" {v + 1}", f" {v + 1})"] for v in range(m)], dtype=object
    )
    pieces = tokens[layout, np.take_along_axis(kind, layout, axis=1)]
    return ["".join(row) or "e" for row in pieces.tolist()]


def _perm_cycle_notation(p: list[int]) -> str:
    """Cycle notation on 1-based symbols, e.g. (1 2 3); identity is 'e'."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        if len(cycle) > 1:
            cycles.append(cycle)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles)


def _perm_ranks(perms: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Element index of each one-line array along the last axis of ``products``.

    Ranks by the base-m code of the array: the enumeration is lexicographic,
    so the codes of ``perms`` ascend and ``searchsorted`` finds each product.
    """
    m = perms.shape[1]
    weights = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(perms @ weights, products @ weights)


def _perm_rank(p: list[int]) -> int:
    """Index of one one-line permutation in lexicographic order (its Lehmer code).

    The scalar counterpart of ``_perm_ranks``, and independent of it: the
    rank is sum_i c_i (m-1-i)!, where c_i counts the later entries below p[i].
    """
    m = len(p)
    rank = 0
    for i, v in enumerate(p):
        rank = rank * (m - i) + sum(w < v for w in p[i + 1:])
    return rank


def successor_rows(group: FiniteGroup, ks) -> np.ndarray:
    """Matrix S with S[r, x] = x**ks[r], one row per exponent (int64, C-contiguous).

    This is the package's one power map; every family has a vectorised
    closed form.  Exponents are reduced modulo the relevant element orders
    before any product, so no entry overflows int64.
    """
    n = group.order
    ks = np.asarray(ks, dtype=np.int64)
    family = group.spec.family
    idx = np.arange(n, dtype=np.int64)
    if family == "cyclic":
        out = np.multiply.outer(ks % n, idx)
        out %= n
        return out
    if family == "product":
        out = np.zeros((len(ks), n), dtype=np.int64)
        term = np.empty_like(out)
        for stride, m in zip(group._strides, group._moduli):
            digit = (idx // stride) % m
            np.multiply.outer(ks % m, digit, out=term)
            term %= m
            term *= stride
            out += term
        return out
    if family in ("dihedral", "quaternion"):
        # a^i -> a^(ik mod h) on the h rotations; a reflection a^i b has
        # order 2 (dihedral) or 4 (quaternion: squared a^N, cubed a^(i+N) b,
        # with N = h/2), so its powers are one of a few fixed rows.
        h = n // 2
        i = idx[:h]
        out = np.empty((len(ks), n), dtype=np.int64)
        rotations = out[:, :h]
        np.multiply.outer(ks % h, i, out=rotations)
        rotations %= h
        reflection_powers = [np.zeros(h, dtype=np.int64), h + i]
        if family == "quaternion":
            reflection_powers += [np.full(h, h // 2, dtype=np.int64), h + (i + h // 2) % h]
        which = ks % len(reflection_powers)
        for p, row in enumerate(reflection_powers):
            out[which == p, h:] = row
        return out
    # symmetric: a per-element power table x^0 .. x^(o(x)-1), read at
    # k mod o(x); step j composes every x^j with x (one vectorised
    # composition per step, max o(x) - 1 steps) and ranks the products.
    perms = group._perm_array
    orders = np.array(group.element_orders, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(orders, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    flat[offsets[:-1]] = group.identity
    active, power = idx, perms
    for j in range(1, int(orders.max())):
        keep = orders[active] > j
        active, power = active[keep], power[keep]
        flat[offsets[active] + j] = _perm_ranks(perms, power)
        power = np.take_along_axis(power, perms[active], axis=1)
    # The gather overwrites its own index array: mode="clip" lets take write
    # into `out` directly (the default mode copies it), and every index is
    # in range.
    idx = ks[:, None] % orders
    idx += offsets[:-1]
    return flat.take(idx, out=idx, mode="clip")
