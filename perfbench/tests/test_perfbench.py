"""Tests of the benchmark itself: inputs, span arithmetic and the correctness gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import kpower.analysis  # noqa: E402
import kpower.cli  # noqa: E402
import kpower.graphs  # noqa: E402
import kpower.verify  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times, span_counts  # noqa: E402
from workloads import Op  # noqa: E402


# -- reproducible inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert workloads.digest(first) == workloads.digest(workloads.generate(workload, 7))
    assert workloads.digest(first) != workloads.digest(workloads.generate(workload, 8))


def test_corpus_round_takes_one_member_of_every_run_of_every_family():
    capped = [s for s in kpower.verify.corpus_specs()
              if workloads.spec_order(s) <= workloads.CORPUS_MAX_ORDER]
    runs = workloads.corpus_runs()
    assert len(runs) == workloads.CORPUS_SLOTS
    assert sorted(map(str, (s for run_ in runs for s in run_))) == sorted(map(str, capped))
    first_round = workloads.corpus_sample(3)[: workloads.CORPUS_SLOTS]
    assert {op.arg.split(":")[0] for op in first_round} == set(kpower.groups.FAMILIES)
    assert sorted(run_index(runs, op.arg) for op in first_round) == list(range(len(runs)))
    assert first_round[0].arg == str(max(capped, key=workloads.spec_order))
    for op in first_round:
        order = workloads.spec_order(kpower.groups.parse_group_spec(op.arg))
        assert op.ks == tuple(range(2, order + 2))


def run_index(runs, spec: str) -> int:
    return next(i for i, run_ in enumerate(runs) if spec in map(str, run_))


def test_large_group_exponents_are_distinct_and_in_range():
    ops_ = workloads.large_groups(5, rounds=2)
    assert len(ops_) == 2 * workloads.round_size("large-groups")
    assert {op.arg.split(":")[0] for op in ops_} == set(kpower.groups.FAMILIES)
    for op in ops_:
        order = workloads.spec_order(kpower.groups.parse_group_spec(op.arg))
        assert 4096 <= order <= kpower.groups.MAX_ORDER
        assert len(set(op.ks)) == workloads.LARGE_EXPONENTS
        assert all(2 <= k <= order + 1 for k in op.ks)


def test_request_round_covers_every_family_kind_and_level():
    size = workloads.round_size("requests")
    first_round = workloads.requests(9, rounds=2)[:size]
    top = 4 * 6 ** (workloads.REQUEST_LEVELS - 1)
    combos = set()
    for op in first_round:
        if op.kind == "chair":
            assert 3 <= int(op.arg) <= top
            continue
        spec = kpower.groups.parse_group_spec(op.arg)
        order = workloads.spec_order(spec)
        assert order <= 2 * top
        assert 2 <= op.ks[0] <= order + 1
        combos.add((spec.family, op.kind))
    assert len(combos) == len(kpower.groups.FAMILIES) * len(workloads.REQUEST_KINDS)
    assert sum(op.kind == "chair" for op in first_round) == workloads.REQUEST_LEVELS


# -- spans -------------------------------------------------------------------------------


def test_self_time_of_hand_built_spans():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["op", 10.0, 12.0, -1],
    ]
    assert self_times(spans) == {"op": 3.0 + 2.0, "a": 2.0 + 4.0, "b": 1.0}
    assert span_counts(spans) == {"op": 2, "a": 2, "b": 1}


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.span("outer", lambda: tracer.span("inner", lambda: None))
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    original = kpower.graphs.diameter
    tracer = Tracer()
    tracer.install()
    try:
        for module in (kpower.graphs, kpower.verify, kpower.analysis, kpower):
            assert module.diameter is not original
            assert module.diameter.__wrapped__ is original
        runner = ops.TracedRunner(".", tracer)
        result = runner.execute(Op("sweep", "cyclic:8", tuple(range(2, 10))))
        assert runner.judge(Op("sweep", "cyclic:8", tuple(range(2, 10))), result) is None
    finally:
        tracer.uninstall()
    for module in (kpower.graphs, kpower.verify, kpower.analysis, kpower):
        assert module.diameter is original
    calls = span_counts(tracer.spans)
    assert calls["op"] == 1
    assert calls["graphs.diameter"] > 0  # made from inside verify
    assert calls["verify.check.chromatic"] == 1
    assert calls["analysis.chromatic"] == 8
    assert tracer.counts["verify.analyze_batch.vertices"] == 8 * 8
    assert tracer.counts["verify.successor_rows.bytes"] == 8 * 8 * 8


def test_incomplete_beta_closed_forms():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert run.betainc(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert run.betainc(3.5, 1, x) == pytest.approx(x**3.5, abs=1e-12)
        assert run.betainc(1, 0.4, x) == pytest.approx(1 - (1 - x) ** 0.4, abs=1e-12)


def test_harrell_davis_quantiles():
    assert run.quantile([7.0], 0.9) == pytest.approx(7.0)
    assert run.quantile([2.0] * 50, 0.5) == pytest.approx(2.0)
    symmetric = [float(v) for v in range(101)]
    assert run.quantile(symmetric, 0.5) == pytest.approx(50.0)
    assert 85 < run.quantile(symmetric, 0.9) < 95


# -- the correctness gate ------------------------------------------------------------------


@pytest.fixture
def runner(tmp_path):
    return ops.OpRunner(str(tmp_path))


REQUESTS = [
    Op("analyze", "dihedral:6", (5,)),
    Op("export-json", "product:2x3x4", (7,)),
    Op("export-dot", "sym:4", (3,)),
    Op("chair", "30", ()),
]


@pytest.mark.parametrize("op", REQUESTS + [Op("sweep", "quaternion:3", tuple(range(2, 14)))])
def test_correct_outputs_pass(runner, op):
    assert runner.judge(op, runner.execute(op)) is None


def test_gate_fires_on_a_wrong_batch_edge_count(runner, monkeypatch):
    real = kpower.verify.analyze_batch

    def planted(S):
        metrics = real(S)
        metrics.edge_count = metrics.edge_count + 1
        return metrics

    monkeypatch.setattr(kpower.verify, "analyze_batch", planted)
    op = Op("sweep", "cyclic:10", tuple(range(2, 12)))
    assert "edges" in runner.judge(op, runner.execute(op))


def test_gate_fires_on_a_wrong_cell_count(runner):
    op = Op("sweep", "cyclic:10", tuple(range(2, 12)))
    checks = runner.execute(op)
    checks["star"].cells -= 1
    assert "star counted" in runner.judge(op, checks)


def test_gate_fires_on_an_analyze_discrepancy(runner, monkeypatch):
    real = kpower.analysis.edge_count_formula
    monkeypatch.setattr(kpower.analysis, "edge_count_formula", lambda g, k: real(g, k) + 1)
    op = REQUESTS[0]
    assert "discrepancies" in runner.judge(op, runner.execute(op))


def test_gate_fires_on_a_dropped_export_edge(runner, monkeypatch):
    real = kpower.cli.to_json_dict

    def planted(group, gr):
        doc = real(group, gr)
        doc["edges"] = doc["edges"][1:]
        return doc

    monkeypatch.setattr(kpower.cli, "to_json_dict", planted)
    op = REQUESTS[1]
    assert "closed form" in runner.judge(op, runner.execute(op))


def test_gate_fires_on_a_wrong_chair_answer(runner, monkeypatch):
    real = kpower.cli.solve_chairs
    monkeypatch.setattr(
        kpower.cli, "solve_chairs", lambda n: dataclasses.replace(real(n), minimal_k=real(n).minimal_k + 2)
    )
    op = REQUESTS[3]
    assert "expected minimal k 7" in runner.judge(op, runner.execute(op))


def test_failed_op_is_counted_and_the_run_goes_on(runner, monkeypatch):
    real = kpower.groups.build_group

    def planted(spec):
        if str(spec) == "cyclic:5":
            raise RuntimeError("planted")
        return real(spec)

    monkeypatch.setattr(kpower.groups, "build_group", planted)
    op_list = [Op("sweep", "cyclic:5", tuple(range(2, 7))), Op("sweep", "cyclic:6", tuple(range(2, 8)))]
    loop = run.closed_loop(runner, op_list, count=2)
    assert loop.attempted == 2
    assert loop.cells == 5 + 6
    assert loop.errors == ["sweep cyclic:5: RuntimeError: planted"]


# -- the contract file ------------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_rates_are_medians_over_whole_rounds(runner):
    op_list = [Op("sweep", f"cyclic:{n}", tuple(range(2, n + 2))) for n in (3, 4, 5, 6, 7, 8)]
    loop = run.closed_loop(runner, op_list, budget=0.0, round_size=2)
    assert [r[:2] for r in loop.rounds] == [(2, 3 + 4)]
    loop = run.closed_loop(runner, op_list, count=6, round_size=2)
    assert [r[:2] for r in loop.rounds] == [(2, 3 + 4), (2, 5 + 6), (2, 7 + 8)]
    assert loop.rate("cells") == sorted(r.cells / r.busy for r in loop.rounds)[1]
    assert loop.rate("ops") == sorted(r.ops / r.busy for r in loop.rounds)[1]
