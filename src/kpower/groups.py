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

Groups are immutable once built: the operation, every element's order and
(below order 512) a full Cayley table are materialised by ``build_group``.
Group orders are capped at 2**16; larger requests are rejected rather than
attempted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_ORDER = 1 << 16

# Cayley tables are cached below this order; above it the operation is
# always evaluated through the family's closed-form realization.
TABLE_CACHE_LIMIT = 512

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
    _perms: list[tuple[int, ...]] | None = None
    _perm_index: dict[tuple[int, ...], int] | None = None
    _moduli: tuple[int, ...] | None = None
    _strides: tuple[int, ...] | None = None
    _table: np.ndarray | None = field(default=None, repr=False)
    _census: dict[int, int] | None = field(default=None, repr=False, compare=False)

    # -- core operations ---------------------------------------------------

    def op(self, x: int, y: int) -> int:
        """Group product x * y."""
        self._check_index(x)
        self._check_index(y)
        if self._table is not None:
            return int(self._table[x, y])
        return self._op_raw(x, y)

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

    def order_census(self) -> dict[int, int]:
        """Map d -> number of elements of order d, keys ascending."""
        if self._census is None:
            census: dict[int, int] = {}
            for o in self.element_orders:
                census[o] = census.get(o, 0) + 1
            self._census = dict(sorted(census.items()))
        return dict(self._census)

    def element_name(self, x: int) -> str:
        """Canonical display name for an element index."""
        self._check_index(x)
        family = self.spec.family
        if family == "cyclic":
            return str(x)
        if family == "sym":
            return _perm_cycle_notation(self._perms[x])
        if family in ("dihedral", "quaternion"):
            half = self.order // 2
            i, reflected = x % half, x >= half
            if not reflected:
                return "e" if i == 0 else ("a" if i == 1 else f"a{i}")
            return "b" if i == 0 else ("ab" if i == 1 else f"a{i}b")
        # product
        return "(" + ",".join(str(d) for d in self._decode(x)) + ")"

    def element_names(self) -> list[str]:
        return [self.element_name(x) for x in range(self.order)]

    # -- realization of the operation ---------------------------------------

    def _op_raw(self, x: int, y: int) -> int:
        family = self.spec.family
        if family == "cyclic":
            return (x + y) % self.order
        if family == "sym":
            px, py = self._perms[x], self._perms[y]
            return self._perm_index[tuple(px[i] for i in py)]
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

    def _decode(self, x: int) -> tuple[int, ...]:
        return tuple((x // s) % m for s, m in zip(self._strides, self._moduli))

    def _encode(self, digits: tuple[int, ...]) -> int:
        return sum(d * s for d, s in zip(digits, self._strides))

    def _check_index(self, x: int) -> None:
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} out of range for group of order {self.order}")


def build_group(spec: GroupSpec | str) -> FiniteGroup:
    """Materialise a group: operation, identity, element orders, table cache."""
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
        perms = [tuple(p) for p in itertools.permutations(range(params[0]))]
        group._perms = perms
        group._perm_index = {p: i for i, p in enumerate(perms)}
    elif family == "product":
        group._moduli = params
        strides = []
        acc = 1
        for m in reversed(params):
            strides.append(acc)
            acc *= m
        group._strides = tuple(reversed(strides))

    group.element_orders = _element_orders(group)
    if order < TABLE_CACHE_LIMIT:
        group._table = _build_table(group)
    return group


def _element_orders(group: FiniteGroup) -> list[int]:
    family = group.spec.family
    n = group.order
    if family == "cyclic":
        return [n // math.gcd(n, a) for a in range(n)]
    if family == "sym":
        return [_perm_order(p) for p in group._perms]
    if family == "dihedral":
        half = n // 2
        rotations = [half // math.gcd(half, i) for i in range(half)]
        return rotations + [2] * half
    if family == "quaternion":
        n2 = n // 2
        rotations = [n2 // math.gcd(n2, i) for i in range(n2)]
        return rotations + [4] * n2
    # product
    orders = []
    for x in range(n):
        digits = group._decode(x)
        o = 1
        for d, m in zip(digits, group._moduli):
            o = math.lcm(o, m // math.gcd(m, d))
        orders.append(o)
    return orders


def _perm_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = math.lcm(order, length)
    return order


def _perm_cycle_notation(p: tuple[int, ...]) -> str:
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


def _build_table(group: FiniteGroup) -> np.ndarray:
    """Full Cayley table, vectorised for the structured families."""
    n = group.order
    family = group.spec.family
    idx = np.arange(n, dtype=np.int32)
    if family == "cyclic":
        return (idx[:, None] + idx[None, :]) % n
    if family == "product":
        table = np.zeros((n, n), dtype=np.int64)
        for stride, m in zip(group._strides, group._moduli):
            dig = (idx // stride) % m
            table += ((dig[:, None] + dig[None, :]) % m) * stride
        return table.astype(np.int32)
    if family in ("dihedral", "quaternion"):
        half = n // 2
        i = (idx % half)[:, None]
        s = (idx >= half)[:, None]
        j = (idx % half)[None, :]
        t = (idx >= half)[None, :]
        rot_plus = (i + j) % half
        rot_minus = (i - j) % half
        if family == "dihedral":
            rotation = np.where(s, rot_minus, rot_plus)
            reflected = s ^ t
            return (rotation + np.where(reflected, half, 0)).astype(np.int32)
        # quaternion: b^2 injects an extra a^n (= a^{half/2}) when both args reflect
        rotation = np.where(s, np.where(t, (rot_minus + half // 2) % half, rot_minus), rot_plus)
        reflected = s ^ t
        return (rotation + np.where(reflected, half, 0)).astype(np.int32)
    # symmetric: plain double loop (order < 512 means n <= 5 here)
    table = np.zeros((n, n), dtype=np.int32)
    for x in range(n):
        for y in range(n):
            table[x, y] = group._op_raw(x, y)
    return table
