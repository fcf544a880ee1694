"""kpower benchmark: seeded closed-loop workloads, timed from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus-sample --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench/tests -q      # tests of the benchmark itself

Workloads (see ``workloads.py``): ``corpus-sample``, ``large-groups`` and
``requests``.  One client thread in one process sends the next op only
after the previous one completes (a closed loop).  A run completes whole
rounds of ops, and starts another only while the mean round fits in what
is left of ``--seconds`` of busy time.  Every op's output is judged
(``ops.py``); a wrong answer or an exception counts as a failed op and the
run goes on.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median of five set-ups (importing kpower and generating the
  inputs), four of them in fresh child processes;
* ``cells_per_s``: (G, k) graphs fully cross-checked per busy second (a
  request counts one), the median over the run's rounds;
* ``requests_per_s``, ``request_p50_ms``, ``request_p90_ms``: ops per busy
  second (median over rounds) and Harrell-Davis latency quantiles over all
  ops of the run; on the sweeps an op is one group batch;
* ``ok_ops_ratio``: 1 - failed ops / attempted ops;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``--trace 1`` first repeats the untraced loop for half the budget in a child
process, then runs the same ops again with tracing installed, and prints
per-layer self times and exact counts; the difference between the two busy
times is the tracing overhead.  Spans are written to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(prefixed ``perfbench-info``) records the machine, the input digest and the
sample counts.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "ok_ops_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CHECK_NAMES = (
    "edges", "degrees", "connectivity", "clique", "chromatic", "forest", "star",
    "empty", "components", "shapes", "order-adjacency", "thm16", "perfect",
)

PER_LAYER = {
    **{f"verify.check.{name}.s": "s" for name in CHECK_NAMES},
    "verify.successor_rows.s": "s",
    "verify.successor_rows.bytes": "bytes",
    "verify.analyze_batch.s": "s",
    "verify.analyze_batch.vertices": "count",
    "analysis.chromatic.s": "s",
    "analysis.chromatic.calls": "count",
    "graphs.diameter.s": "s",
    "graphs.diameter.calls": "count",
    "groups.build_group.s": "s",
    "groups.build_group.calls": "count",
    "groups.power.calls": "count",
    "groups.op.calls": "count",
    "graphs.build_undirected.s": "s",
    "graphs.undirected_from_successor.s": "s",
    "graphs.components.s": "s",
    "graphs.components.calls": "count",
    "graphs.export.s": "s",
    "analysis.analyze.s": "s",
    "analysis.theorem16_structure.s": "s",
    "cli.main.s": "s",
    "numth.s": "s",
    "numth.calls": "count",
    "chair.solve_chairs.s": "s",
    "chair.render_trace.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-sample", "large-groups", "requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: what a child process does.
    parser.add_argument("--role", choices=("main", "setup", "plain"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import kpower and generate the workload; returns (seconds, ops)."""
    t0 = time.perf_counter()
    import ops  # noqa: F401  (imports every kpower module the ops call)
    import workloads

    op_list = workloads.generate(workload, seed)
    return time.perf_counter() - t0, op_list


class Round(NamedTuple):
    ops: int
    cells: int
    busy: float


class LoopResult:
    def __init__(self):
        self.timeline: list[tuple[str, str, float]] = []  # (kind, arg, seconds) per op
        self.cells = 0
        self.errors: list[str] = []
        self.largest_batch_bytes = 0  # R * n * 8, the int64 successor matrix
        self.rounds: list[Round] = []

    @property
    def latencies(self) -> list[float]:
        return [seconds for _kind, _arg, seconds in self.timeline]

    @property
    def attempted(self) -> int:
        return len(self.timeline)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def rate(self, count: str) -> float:
        """Median over the run's rounds of ``ops`` or ``cells`` per busy
        second, so that a short slow spell of the host moves at most the
        rounds it falls on."""
        return statistics.median(getattr(r, count) / r.busy for r in self.rounds)


def closed_loop(runner, op_list, *, budget=None, count=None, round_size=1) -> LoopResult:
    """Run ops one after another: exactly ``count`` of them, or else whole
    rounds of ``round_size`` ops, starting another round only while the mean
    round so far fits in what is left of ``budget`` busy seconds (at least
    one round).  The inputs repeat if exhausted."""
    import workloads
    from kpower.groups import parse_group_spec

    out = LoopResult()
    busy = 0.0
    i = 0
    round_start = Round(0, 0, 0.0)
    while i < count if count is not None else not (i and i % round_size == 0
                                                    and busy * (1 + round_size / i) > budget):
        op = op_list[i % len(op_list)]
        t0 = time.perf_counter()
        try:
            result, error = runner.execute(op), None
        except (Exception, SystemExit) as exc:  # a failed op must not end the run
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if error is None:
            try:
                error = runner.judge(op, result)
            except Exception as exc:
                error = f"judging failed: {type(exc).__name__}: {exc}"
        busy += latency
        out.timeline.append((op.kind, op.arg, latency))
        out.cells += runner.cells(op)
        if error is not None:
            out.errors.append(f"{op.kind} {op.arg}: {error}")
        if op.kind != "chair":
            order = workloads.spec_order(parse_group_spec(op.arg))
            out.largest_batch_bytes = max(out.largest_batch_bytes, len(op.ks) * order * 8)
        i += 1
        if i % round_size == 0:
            now = Round(i, out.cells, busy)
            out.rounds.append(Round(*(b - a for a, b in zip(round_start, now))))
            round_start = now
    return out


def run_child(args, role: str, seconds: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one order statistic on a few hundred
    samples."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered))


def end_to_end(loop: LoopResult, setup_s: float) -> dict:
    ms = [t * 1000 for t in loop.latencies]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": setup_s,
        "cells_per_s": loop.rate("cells"),
        "requests_per_s": loop.rate("ops"),
        "request_p50_ms": quantile(ms, 0.5),
        "request_p90_ms": quantile(ms, 0.9),
        "ok_ops_ratio": (loop.attempted - len(loop.errors)) / loop.attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, overhead_s: float) -> dict:
    from tracing import self_times, span_counts

    selfs = self_times(tracer.spans)
    calls = span_counts(tracer.spans)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = overhead_s
        elif name == "trace.spans":
            value = len(tracer.spans)
        elif name.endswith(".s"):
            value = selfs.get(name[:-2], 0.0)
        elif name.endswith(".calls") and name[:-6] in calls:
            value = calls[name[:-6]]
        else:
            value = tracer.counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(path: str, tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kpower", "__init__.py")):
        print(f"error: kpower sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_s, op_list = setup(args.workload, args.seed)
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import machine
    import workloads
    from ops import OpRunner

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    info = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client thread, 1 process",
        "inputs_generated": len(op_list),
        "inputs_digest": workloads.digest(op_list),
        "machine": machine.record(numpy.__version__),
    }
    round_size = workloads.round_size(args.workload)
    try:
        runner = OpRunner(workdir)
        if args.role == "plain":
            loop = closed_loop(runner, op_list, budget=args.seconds, round_size=round_size)
            print(json.dumps({"ops": loop.attempted, "busy_s": loop.busy, "errors": loop.errors}))
            return 0
        if args.trace == 0:
            setups = [setup_s] + [run_child(args, "setup", 0)["setup_s"]
                                  for _ in range(SETUP_SAMPLES - 1)]
            loop = closed_loop(runner, op_list, budget=args.seconds, round_size=round_size)
            metrics = end_to_end(loop, statistics.median(setups))
            info["setup_samples_s"] = setups
            attempted, errors = loop.attempted, loop.errors
        else:
            from ops import TracedRunner
            from tracing import Tracer

            plain = run_child(args, "plain", args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                loop = closed_loop(TracedRunner(workdir, tracer), op_list, count=plain["ops"])
            finally:
                tracer.uninstall()
            overhead = loop.busy - plain["busy_s"]
            metrics = per_layer(tracer, overhead)
            spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.json.gz")
            write_spans(spans_path, tracer)
            info.update(untraced_busy_s=plain["busy_s"], traced_busy_s=loop.busy,
                        spans_file=os.path.relpath(spans_path, ROOT))
            attempted = plain["ops"] + loop.attempted
            errors = plain["errors"] + loop.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    l3 = info["machine"]["l3_bytes"]
    info.update(
        latency_samples=loop.attempted,
        cells=loop.cells,
        largest_batch_bytes=loop.largest_batch_bytes,
        largest_batch_fits_l3=None if l3 is None else loop.largest_batch_bytes <= l3,
        errors=errors[:10],
    )
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result, "ops": loop.timeline}, handle)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
