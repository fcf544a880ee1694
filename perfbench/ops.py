"""Running one op against kpower's public functions, and judging its output.

``execute`` is the timed part: it does only what a user of the package would
do.  ``judge`` runs afterwards, untimed, and returns ``None`` for a correct
result or a one-line reason why it is wrong:

* a sweep op must pass every batch check, and each per-row check must count
  one cell per exponent;
* ``analyze`` must report no discrepancies and equal formula and brute-force
  edge counts;
* an export must hold as many edges as ``analysis.edge_count_formula``;
* ``chair`` must find the least k >= 2 coprime to n.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from kpower import analysis, cli, groups, verify

from workloads import Op

# Batch checks that count exactly one cell per exponent on every family.
PER_ROW_CHECKS = ("edges", "connectivity", "clique", "chromatic", "forest", "star", "empty", "perfect")


def direct(name, fn, *args):
    """Call without recording; the untraced stand-in for ``Tracer.span``."""
    return fn(*args)


class OpRunner:
    """Executes ops; request outputs go to files under ``workdir``."""

    def __init__(self, workdir: str, span=direct):
        self.workdir = workdir
        self.span = span

    def cells(self, op: Op) -> int:
        """(G, k) graphs an op cross-checks: one per exponent, one per request."""
        return len(op.ks) if op.kind == "sweep" else 1

    def execute(self, op: Op):
        if op.kind == "sweep":
            group = groups.build_group(op.arg)
            batch = verify.GroupBatch.build(group, np.asarray(op.ks, dtype=np.int64))
            return {
                name: self.span(f"verify.check.{name}", check, batch)
                for name, check in verify._BATCH_CHECKS.items()
            }
        path = self.output_path(op)
        if op.kind == "chair":
            argv = ["chair", "--n", op.arg, "--trace"]
        elif op.kind == "analyze":
            argv = ["analyze", "--group", op.arg, "--k", str(op.ks[0]), "--no-meta"]
        else:
            fmt = op.kind.removeprefix("export-")
            argv = ["export", "--group", op.arg, "--k", str(op.ks[0]), "--format", fmt]
        return cli.main(argv + ["--out", path])

    def output_path(self, op: Op) -> str:
        return os.path.join(self.workdir, f"{op.kind}.out")

    def judge(self, op: Op, result) -> str | None:
        if op.kind == "sweep":
            return judge_sweep(op, result)
        if result != 0:
            return f"exit code {result}"
        path = self.output_path(op)
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        finally:
            os.remove(path)
        if op.kind == "chair":
            return judge_chair(int(op.arg), text)
        if op.kind == "analyze":
            return judge_analyze(json.loads(text))
        expected = analysis.edge_count_formula(groups.build_group(op.arg), op.ks[0])
        if op.kind == "export-json":
            got = len(json.loads(text)["edges"])
        else:
            got = sum(1 for line in text.splitlines() if " -- " in line)
        if got != expected:
            return f"exported {got} edges, closed form says {expected}"
        return None


class TracedRunner(OpRunner):
    """Each op inside a root span ``op``; judging records nothing."""

    def __init__(self, workdir: str, tracer):
        super().__init__(workdir, span=tracer.span)
        self.tracer = tracer

    def execute(self, op: Op):
        return self.tracer.span("op", super().execute, op)

    def judge(self, op: Op, result) -> str | None:
        with self.tracer.pause():
            return super().judge(op, result)


def judge_sweep(op: Op, checks: dict) -> str | None:
    failed = [f"{name}: {c.failures[0]}" for name, c in checks.items() if not c.passed]
    if failed:
        return "; ".join(failed)
    for name in PER_ROW_CHECKS:
        if checks[name].cells != len(op.ks):
            return f"{name} counted {checks[name].cells} cells for {len(op.ks)} exponents"
    return None


def judge_analyze(doc: dict) -> str | None:
    if doc["discrepancies"]:
        return "discrepancies: " + "; ".join(doc["discrepancies"])
    if doc["edge_count_formula"] != doc["edge_count_brute"]:
        return f"edge count formula {doc['edge_count_formula']} != brute {doc['edge_count_brute']}"
    return None


def least_coprime_k(n: int) -> int:
    k = 2
    while math.gcd(n, k) != 1:
        k += 1
    return k


def judge_chair(n: int, text: str) -> str | None:
    expected = least_coprime_k(n)
    reported = [line for line in text.splitlines() if line.startswith("minimal_k: ")]
    if reported != [f"minimal_k: {expected}"] or f"RESULT k={expected}\n" not in text:
        return f"chair n={n}: expected minimal k {expected}, got {reported}"
    return None
