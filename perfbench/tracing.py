"""Spans and exact counts recorded around kpower's public functions.

The tracer wraps functions from outside the package: ``install`` replaces a
function on every loaded ``kpower`` module that bound it (``verify`` and
``analysis`` each hold their own ``graphs.diameter``, for instance), and
``uninstall`` puts the originals back.  A span is ``[name, start, end,
parent]`` with ``parent`` the index of the enclosing span, or -1.  Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer functions recorded as spans: (module, attribute, span name).
SPANNED = (
    ("groups", "build_group", "groups.build_group"),
    ("graphs", "build_undirected", "graphs.build_undirected"),
    ("graphs", "undirected_from_successor", "graphs.undirected_from_successor"),
    ("graphs", "components", "graphs.components"),
    ("graphs", "diameter", "graphs.diameter"),
    ("graphs", "to_dot", "graphs.export"),
    ("graphs", "to_json_dict", "graphs.export"),
    ("analysis", "analyze", "analysis.analyze"),
    ("analysis", "chromatic", "analysis.chromatic"),
    ("analysis", "theorem16_structure", "analysis.theorem16_structure"),
    ("verify", "successor_rows", "verify.successor_rows"),
    ("verify", "analyze_batch", "verify.analyze_batch"),
    ("chair", "solve_chairs", "chair.solve_chairs"),
    ("chair", "render_trace", "chair.render_trace"),
    ("cli", "main", "cli.main"),
) + tuple(
    ("numth", fn, "numth")
    for fn in (
        "gcd",
        "factorize",
        "euler_phi",
        "divisors",
        "tau",
        "prime_set",
        "multiplicative_order",
        "is_primitive_root",
        "solve_linear_congruence",
    )
)

# Group methods too hot for spans: counted only.
COUNTED_METHODS = (("op", "groups.op.calls"), ("power", "groups.power.calls"))


def _successor_bytes(group, ks) -> tuple[str, int]:
    return "verify.successor_rows.bytes", len(ks) * group.order * 8


def _batch_vertices(S) -> tuple[str, int]:
    return "verify.analyze_batch.vertices", int(S.size)


# Work counted from a call's arguments, by span name.
WORK = {
    "verify.successor_rows": _successor_bytes,
    "verify.analyze_batch": _batch_vertices,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.paused = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, name, fn):
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if work is not None:
                key, amount = work(*args, **kwargs)
                self.counts[key] += amount
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def pause(self):
        """Record nothing inside the block (used while judging outputs)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self) -> None:
        """Wrap every layer function on every kpower module that bound it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kpower" or n.startswith("kpower.")]
        for module_name, attr, name in SPANNED:
            original = getattr(sys.modules[f"kpower.{module_name}"], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        group_class = sys.modules["kpower.groups"].FiniteGroup
        for attr, key in COUNTED_METHODS:
            self._replace(group_class, attr, self.count(key, vars(group_class)[attr]))

    def _replace(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time covered by child spans.

    Children of one span never overlap (one thread), so the covered time is
    the sum of the children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += end - start - child_time[i]
    return dict(out)


def span_counts(spans) -> Counter:
    return Counter(name for name, _start, _end, _parent in spans)
