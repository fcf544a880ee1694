"""Seeded inputs for the three benchmark workloads.

Every workload is a list of ``Op`` values made from ``random.Random(seed)``
alone, so the same seed always yields the same list.  An op is one unit of
closed-loop work: one group batch on the sweep workloads, one CLI call on
``requests``.

The list is made of rounds, and a run always completes whole rounds.  A
round has the same make-up for every seed; the seed picks the members, so
two seeds cost nearly the same and the metrics barely depend on the seed:

* ``corpus-sample``: each family of ``verify.corpus_specs()``, up to order
  ``CORPUS_MAX_ORDER``, is cut into runs of neighbouring orders and a round
  takes one random member of every run: the largest group first, the rest
  in a random order.
* ``large-groups``: a fixed roster of group kinds, each drawn from a narrow
  order range, with 32 jittered exponents per group.
* ``requests``: one request per (order level, family, kind) and one chair
  per level; each slot steps its order jitter and k along seeded sequences
  that cover their ranges evenly over the rounds.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import NamedTuple

from kpower import groups, numth, verify

WORKLOADS = ("corpus-sample", "large-groups", "requests")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "corpus-sample": "the acceptance sweep's traffic: many small groups (orders up to 1000), "
    "every k, all 13 batch checks; colouring and analyze_batch dominate",
    "large-groups": "few large batches (order 4k to 2^16, 32 exponents each) where "
    "per-vertex array work, the generic power table and memory dominate",
    "requests": "the per-instance CLI path verify bypasses: analyze, export json/dot "
    "and chair --trace on every family, orders 4 to about 5k",
}

CORPUS_SLOTS = 176  # runs per corpus round
CORPUS_ROUNDS = 4
# The 16 corpus products above this order (7% of its cells) take up to 8 s
# each; left in, a handful of them would make up most of a 30 s round, and
# which of them a seed draws would move the whole result.
CORPUS_MAX_ORDER = 1000
LARGE_EXPONENTS = 32
LARGE_ROUNDS = 32
REQUEST_LEVELS = 5
REQUEST_KINDS = ("analyze", "export-json", "export-dot")  # plus one chair per level
REQUEST_ROUNDS = 32


class Op(NamedTuple):
    """One closed-loop operation.

    ``kind`` is ``sweep`` or a request kind; ``arg`` is a group spec, or n
    for ``chair``; ``ks`` are the exponents (empty for ``chair``).
    """

    kind: str
    arg: str
    ks: tuple[int, ...]


def spec_order(spec: groups.GroupSpec) -> int:
    """Group order from the spec alone, without building the group."""
    n = spec.params[0]
    if spec.family == "cyclic":
        return n
    if spec.family == "dihedral":
        return 2 * n
    if spec.family == "quaternion":
        return 4 * n
    if spec.family == "sym":
        return math.factorial(n)
    return math.prod(spec.params)


def generate(workload: str, seed: int) -> list[Op]:
    if workload == "corpus-sample":
        return corpus_sample(seed)
    if workload == "large-groups":
        return large_groups(seed)
    if workload == "requests":
        return requests(seed)
    raise ValueError(f"unknown workload {workload!r}")


def round_size(workload: str) -> int:
    """Ops in one round; a run always completes whole rounds."""
    return {
        "corpus-sample": CORPUS_SLOTS,
        "large-groups": len(_LARGE_ROSTER),
        "requests": REQUEST_LEVELS * (len(groups.FAMILIES) * len(REQUEST_KINDS) + 1),
    }[workload]


def digest(ops: list[Op]) -> str:
    """SHA-256 over the generated (kind, spec, k) list."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}|{op.arg}|{','.join(map(str, op.ks))}\n".encode())
    return h.hexdigest()


# -- corpus-sample ---------------------------------------------------------------


def corpus_runs(slots: int = CORPUS_SLOTS) -> list[list[groups.GroupSpec]]:
    """The corpus up to ``CORPUS_MAX_ORDER``, cut into ``slots`` runs of
    neighbouring orders, largest first.

    Slots go to families in proportion to their size (at least one each);
    within a family the specs, sorted by descending order, are split into
    equal-count runs, the family's largest spec alone in the first.  The
    runs of all families are then ordered by their largest member.
    """
    by_family: dict[str, list[groups.GroupSpec]] = {}
    for spec in verify.corpus_specs():
        if spec_order(spec) <= CORPUS_MAX_ORDER:
            by_family.setdefault(spec.family, []).append(spec)
    total = sum(len(v) for v in by_family.values())
    share = {f: max(1, round(slots * len(v) / total)) for f, v in by_family.items()}
    biggest = max(share, key=share.get)
    share[biggest] += slots - sum(share.values())

    runs = []
    for family, specs in by_family.items():
        specs = sorted(specs, key=lambda s: (-spec_order(s), str(s)))
        m = share[family]
        if m == 1:
            runs.append(specs)
            continue
        rest = specs[1:]
        cuts = [round(j * len(rest) / (m - 1)) for j in range(m)]
        runs.append(specs[:1])
        runs.extend(rest[a:b] for a, b in zip(cuts, cuts[1:]))
    runs.sort(key=lambda run: (-spec_order(run[0]), str(run[0])))
    return runs


def corpus_sample(seed: int, rounds: int = CORPUS_ROUNDS) -> list[Op]:
    rng = random.Random(seed)
    runs = corpus_runs()
    ops = []
    for _ in range(rounds):
        batch = []
        for run in runs:
            spec = rng.choice(run)
            batch.append(Op("sweep", str(spec), tuple(range(2, spec_order(spec) + 2))))
        # The largest group leads, so the heap reaches its peak first and
        # peak memory does not depend on the order; the rest are shuffled,
        # so that a slow spell of the host does not fall on one band of
        # orders and move the latency quantiles.
        rest = batch[1:]
        rng.shuffle(rest)
        ops.extend(batch[:1] + rest)
    return ops


# -- large-groups ------------------------------------------------------------------


def _odd_between(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo | 1, hi + 1, 2)


def _prime_between(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([p for p in range(lo, hi + 1) if numth.factorize(p) == [(p, 1)]])


# One round: a parameter draw per group kind.  cyclic:65536 is the order
# ceiling and sets the peak memory; the n = 2 (mod 4) cyclic group exercises
# thm16.  The generic power table costs the sum of element orders, which
# for dihedral and quaternion groups depends on the factors of N; a prime N
# keeps that sum, and the round's cost, nearly the same for every seed.
_LARGE_ROSTER = (
    lambda rng: groups.GroupSpec("cyclic", (groups.MAX_ORDER,)),
    lambda rng: groups.GroupSpec("cyclic", (2 * _odd_between(rng, 2049, 3071),)),
    lambda rng: groups.GroupSpec("dihedral", (_prime_between(rng, 2048, 2200),)),
    lambda rng: groups.GroupSpec("quaternion", (_prime_between(rng, 1024, 1100),)),
    lambda rng: groups.GroupSpec("sym", (7,)),
    lambda rng: groups.GroupSpec("sym", (8,)),
    lambda rng: groups.GroupSpec("product", tuple(sorted(rng.randint(20, 26) for _ in range(3)))),
)


def jittered_exponents(rng: random.Random, order: int, count: int) -> tuple[int, ...]:
    """``count`` distinct k in 2..order+1, one uniform draw per equal stratum.

    Strata alternate between even and odd k, so half the exponents are even
    for every seed (whether k is even decides, e.g., which cyclic 2-groups
    are connected and need a BFS diameter).
    """
    ks = []
    for j in range(count):
        lo = 2 + j * order // count
        hi = 2 + (j + 1) * order // count  # exclusive
        first = lo + (lo - j) % 2  # least k >= lo with k = j (mod 2)
        ks.append(rng.randrange(first, hi, 2))
    return tuple(ks)


def large_groups(seed: int, rounds: int = LARGE_ROUNDS) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for _ in range(rounds):
        for draw in _LARGE_ROSTER:
            spec = draw(rng)
            ks = jittered_exponents(rng, spec_order(spec), LARGE_EXPONENTS)
            ops.append(Op("sweep", str(spec), ks))
    return ops


# -- requests ------------------------------------------------------------------------


def _spec_near(family: str, target: float) -> groups.GroupSpec:
    """A group of ``family`` whose order is close to ``target``."""
    cap = groups.MAX_ORDER
    if family == "cyclic":
        return groups.GroupSpec("cyclic", (min(cap, max(1, round(target))),))
    if family == "dihedral":
        return groups.GroupSpec("dihedral", (min(cap // 2, max(1, round(target / 2))),))
    if family == "quaternion":
        return groups.GroupSpec("quaternion", (min(cap // 4, max(2, round(target / 4))),))
    if family == "sym":
        m = min(range(1, 9), key=lambda m: abs(math.log(math.factorial(m)) - math.log(target)))
        return groups.GroupSpec("sym", (m,))
    a = max(2, round(target ** (1 / 3)))
    b = max(2, round((target / a) ** 0.5))
    c = max(2, min(round(target / (a * b)), cap // (a * b)))
    return groups.GroupSpec("product", tuple(sorted((a, b, c))))


_GOLDEN = (math.sqrt(5) - 1) / 2


def _spread(rng: random.Random, rounds: int) -> list[float]:
    """``rounds`` points in [0, 1) along a golden-ratio sequence from a seeded
    start: every prefix of it covers [0, 1) about evenly, so however many
    rounds a run completes, its draws span the whole range."""
    start = rng.random()
    return [(start + r * _GOLDEN) % 1.0 for r in range(rounds)]


def requests(seed: int, rounds: int = REQUEST_ROUNDS) -> list[Op]:
    """Rounds of one request per (order level, family, kind) plus one chair per level.

    Level j aims at order 4 * 6**j (j = 0..4: 4 up to 5184), shrunk by a
    factor in (2**-0.25, 1]; each request has its own k.  Each slot takes
    its shrink factor and its k along seeded ``_spread`` sequences, so the
    requests of a run cover their ranges evenly and a run's cost does not
    hinge on a few lucky or unlucky draws.  With an odd number of equal
    levels the median request sits mid-level, not on a boundary between two
    levels' latencies.  The top level stays small enough for a run to hold
    about a hundred top-level requests, whose cost swings with k; groups at
    the 2**16 ceiling are covered by large-groups.
    """
    rng = random.Random(seed)
    levels = range(REQUEST_LEVELS)
    slots = [(j, family, kind) for j in levels for family in groups.FAMILIES for kind in REQUEST_KINDS]
    slots += [(j, None, "chair") for j in levels]
    draws = {slot: (_spread(rng, rounds), _spread(rng, rounds)) for slot in slots}
    ops = []
    for r in range(rounds):
        batch = []
        for slot in slots:
            j, family, kind = slot
            shrink, pick = draws[slot][0][r], draws[slot][1][r]
            target = 4 * 6**j * 2 ** (-shrink / 4)
            if kind == "chair":
                batch.append(Op("chair", str(round(target)), ()))
                continue
            spec = _spec_near(family, target)
            k = 2 + int(pick * spec_order(spec))
            batch.append(Op(kind, str(spec), (k,)))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops
