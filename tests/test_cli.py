"""CLI behaviour: documented examples, exit codes, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kpower.verify as V
from kpower.analysis import analyze
from kpower.cli import _json_text, build_parser, main
from kpower.graphs import build_undirected, to_json_dict
from kpower.groups import MAX_ORDER, build_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def chair_fault(monkeypatch):
    """n = 12 at k = 5 planted with a second person on chair 0: the solver
    rejects a k coprime to n, which its own guard raises."""
    real = np.bincount

    def planted(x, minlength=0):
        occupancy = real(x, minlength=minlength)
        if minlength == 12 and x.tolist() == [5 * i % 12 for i in range(12)]:
            occupancy[0] += 1
        return occupancy

    monkeypatch.setattr(np, "bincount", planted)


class TestAnalyze:
    def test_sym3_k2_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--group", "sym:3", "--k", "2", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert doc["edges"] == 4
        assert doc["edge_count_formula"] == doc["edge_count_brute"] == 4
        assert doc["cyclic"] is None

    def test_z31_components(self, capsys):
        code, out, _ = run(capsys, "analyze", "--group", "cyclic:31", "--k", "2", "--no-meta")
        doc = json.loads(out)
        assert code == 0
        assert doc["components"] == 7
        assert doc["chromatic_number"] == 3
        assert doc["is_perfect"] is False

    def test_degenerate_single_vertex(self, capsys):
        code, out, _ = run(capsys, "analyze", "--group", "cyclic:1", "--k", "2", "--no-meta")
        doc = json.loads(out)
        assert code == 0
        assert doc["is_connected"] is True
        assert doc["is_empty"] is True
        assert doc["is_star"] is False

    def test_text_format_mirrors_json_order(self, capsys):
        code, out, _ = run(capsys, "analyze", "--group", "sym:3", "--k", "2",
                           "--format", "text", "--no-meta")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group: sym:3"
        assert lines[1] == "k: 2"
        assert any(line == "edges: 4" for line in lines)

    def test_meta_included_by_default(self, capsys):
        _, out, _ = run(capsys, "analyze", "--group", "cyclic:4", "--k", "2")
        assert "generated_at" in json.loads(out)["meta"]

    def test_no_meta_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "analyze", "--group", "cyclic:20", "--k", "4", "--no-meta")
        _, second, _ = run(capsys, "analyze", "--group", "cyclic:20", "--k", "4", "--no-meta")
        assert first == second

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--group", "ring:4", "--k", "2")
        assert code == 2
        assert "error" in err

    def test_order_ceiling_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--group", "cyclic:70000", "--k", "2")
        assert code == 2
        assert "ceiling" in err

    def test_k_below_two_exit_2(self, capsys):
        code, _, _ = run(capsys, "analyze", "--group", "cyclic:4", "--k", "1")
        assert code == 2


class TestExport:
    def test_s3_k3_dot(self, capsys):
        code, out, _ = run(capsys, "export", "--group", "sym:3", "--k", "3", "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 6
        assert out.count(" -- ") == 2

    def test_z4_k2_json(self, capsys):
        code, out, _ = run(capsys, "export", "--group", "cyclic:4", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["edges"] == [[0, 2], [1, 2], [2, 3]]

    def test_empty_graph_export(self, capsys):
        code, out, _ = run(capsys, "export", "--group", "cyclic:5", "--k", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["edges"] == []

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "export", "--group", "cyclic:4", "--k", "2", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith('graph "cyclic:4 k=2"')

    def test_unwritable_path(self, capsys):
        path = "/nonexistent/x/y.dot"
        code, out, err = run(capsys, "export", "--group", "cyclic:4", "--k", "2", "-o", path)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"


class TestVerify:
    def test_cyclic_edges_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max-n", "40",
                           "--theorem", "edges")
        assert code == 0
        assert "theorem edges" in out
        assert "all pass" in out

    def test_quaternion_star_includes_q8(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "quaternion", "--max-n", "8",
                           "--theorem", "star")
        assert code == 0
        assert "all pass" in out

    def test_full_catalog_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max-n", "25")
        assert code == 0
        assert out.count("theorem ") == 15

    def test_chair_only_needs_no_group(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "sym", "--min-n", "9", "--max-n", "9",
                             "--theorem", "chair")
        assert (code, out, err) == (0, "theorem chair: 9 cells, all pass\n", "")

    def test_component_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max-n", "60",
                           "--theorem", "components")
        assert code == 0

    def test_fail_line_counts_failed_cells(self, capsys, monkeypatch):
        check = V.TheoremCheck("edges", cells=10)
        for k in (2, 3, 3, 4):
            check.fail([("cyclic:5", k)], [f"group=cyclic:5 k={k}: expected 0, got 1"])
        monkeypatch.setattr(V, "run_verification", lambda spec: [check])
        code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max-n", "5")
        assert code == 1
        assert out.splitlines()[0] == "theorem edges: 10 cells, 3 failed, FAIL"
        assert out.count("counterexample: ") == 4

    def test_bad_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--family", "rings", "--max-n", "5"])
        assert info.value.code == 2

    def test_connected_graph_with_a_cycle_is_a_counterexample(self, capsys, monkeypatch):
        # dihedral:3 at k = 7 planted as 0 -> 1 -> 2 -> 0 with 3, 4, 5 -> 0:
        # connected, but with a triangle, so no tree and no diameter
        real = V.successor_rows

        def planted(group, ks):
            S = real(group, ks)
            if str(group.spec) == "dihedral:3":
                S[np.asarray(ks) == 7] = [1, 2, 0, 0, 0, 0]
            return S

        monkeypatch.setattr(V, "successor_rows", planted)
        code, out, err = run(capsys, "verify", "--family", "dihedral", "--max-n", "3",
                             "--theorem", "connectivity")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "theorem connectivity: 12 cells, 1 failed, FAIL",
            "  counterexample: group=dihedral:3 k=7: expected False, got True",
            "  counterexample: group=dihedral:3 k=7: expected 5, got 6",
        ]

    def test_tree_answer_the_component_pass_rejects_is_a_counterexample(self, capsys, monkeypatch):
        # every row of cyclic:8 reported connected with 7 edges: the odd k,
        # whose codes hold cycles, have no diameter, and fail their cells
        real = V.analyze_batch

        def planted(S):
            m = real(S)
            m.connected[:] = True
            m.edge_count[:] = S.shape[1] - 1
            return m

        monkeypatch.setattr(V, "analyze_batch", planted)
        code, out, err = run(capsys, "verify", "--family", "cyclic", "--min-n", "8", "--max-n", "8",
                             "--theorem", "connectivity")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == "theorem connectivity: 8 cells, 4 failed, FAIL"
        assert all(line.startswith("  counterexample: ") for line in lines[1:])
        code, out, err = run(capsys, "analyze", "--no-meta", "--group", "cyclic:8", "--k", "3")
        report = json.loads(out)
        assert (code, err, report["diameter"]) == (0, "", None)
        assert ("connectivity: group=cyclic:8 k=3: expected a tree in the component pass, "
                "got a cycle or two components") in report["discrepancies"]

    def test_chair_simulation_fault_is_a_counterexample(self, capsys, chair_fault):
        code, out, err = run(capsys, "verify", "--family", "cyclic", "--max-n", "20", "--theorem", "chair")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "theorem chair: 20 cells, 1 failed, FAIL",
            "  counterexample: n=12: simulation rejected k=5 despite gcd(12, 5) = 1",
        ]

    def test_broken_census_fails_its_group(self, capsys, monkeypatch):
        real = V.analysis.edge_count_rows

        def broken(group, kn):
            if str(group.spec) == "cyclic:4":
                raise V.analysis.TheoremViolation("planted census fault")
            return real(group, kn)

        monkeypatch.setattr(V.analysis, "edge_count_rows", broken)
        code, out, err = run(capsys, "verify", "--family", "cyclic", "--max-n", "5",
                             "--theorem", "edges")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "theorem edges: 15 cells, 4 failed, FAIL",
            "  counterexample: group=cyclic:4: planted census fault",
        ]


class TestChair:
    def test_n6(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["minimal_k"] == 5

    def test_n7(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", "7", "--format", "json")
        assert json.loads(out)["minimal_k"] == 2

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", "1", "--format", "json")
        assert json.loads(out)["minimal_k"] == 2

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 10**15, 2**64])
    def test_n_above_the_order_ceiling_exit_2(self, capsys, monkeypatch, n):
        # rejected before any seating is simulated, so nothing of size n is allocated
        monkeypatch.setattr("kpower.cli.solve_chairs", lambda n: pytest.fail("solve_chairs was called"))
        code, out, err = run(capsys, "chair", "--n", str(n))
        assert code == 2
        assert out == ""
        assert err == f"error: n {n} exceeds the supported ceiling {MAX_ORDER}\n"

    def test_n_at_the_order_ceiling(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", str(MAX_ORDER), "--format", "json")
        assert code == 0
        assert json.loads(out)["minimal_k"] == 3

    def test_text_ends_with_an_empty_mapping_on_its_line(self, capsys):
        # odd n rejects no k: the empty mapping prints as {}, with no blank line after it
        code, out, _ = run(capsys, "chair", "--n", "7")
        assert code == 0
        assert out.endswith("seating: [0, 2, 4, 6, 1, 3, 5]\nrejected: {}\n")

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", "6", "--trace")
        assert code == 0
        assert "RESULT k=5" in out
        assert out.count("w=") == 4

    def test_simulation_fault_is_a_counterexample(self, capsys, chair_fault, tmp_path):
        # exit 1 with one counterexample line, as verify reports it; no report is written
        path = tmp_path / "chair.txt"
        code, out, err = run(capsys, "chair", "--n", "12", "--trace", "--out", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines() == ["counterexample: n=12: simulation rejected k=5 despite gcd(12, 5) = 1"]
        assert not path.exists()


class TestSweep:
    def test_edge_matrix(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--family", "cyclic", "--max-n", "6",
                         "--param", "edges", "-o", str(target))
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0].startswith("group,k=2,k=3")
        assert len(lines) == 7  # header + n = 1..6
        row4 = dict(zip(lines[0].split(","), lines[4].split(",")))
        assert row4["group"] == "cyclic:4"
        assert row4["k=2"] == "3"

    def test_components_param(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "cyclic", "--max-n", "5",
                           "--param", "components")
        assert code == 0
        assert out.startswith("group,")



UNWRITABLE = "missing-dir/out.txt"
NO_GROUP = "the sweep selects no group (sym takes n <= 8, quaternion n >= 2, product factors >= 2)"

USAGE_ERRORS = [
    (["analyze", "--group", "bogus:3", "--k", "2"],
     "unknown group family 'bogus' (expected one of cyclic, sym, dihedral, quaternion, product)"),
    (["analyze", "--group", "cyclic:4", "--k", "1"], "k must be at least 2"),
    (["export", "--group", "bogus:3", "--k", "2"],
     "unknown group family 'bogus' (expected one of cyclic, sym, dihedral, quaternion, product)"),
    (["export", "--group", "cyclic:4", "--k", "1"], "k must be at least 2"),
    (["chair", "--n", "0"], "n must be at least 1"),
    (["chair", "--n", "65537"], "n 65537 exceeds the supported ceiling 65536"),
    (["verify", "--family", "cyclic", "--max-n", "2", "--min-n", "3"], "empty parameter range"),
    (["sweep", "--family", "cyclic", "--max-n", "2", "--min-n", "3"], "empty parameter range"),
    (["verify", "--family", "cyclic", "--max-n", "5", "--k-max", "1"], "k_max must be at least 2"),
    (["sweep", "--family", "cyclic", "--max-n", "5", "--k-max", "0"], "k_max must be at least 2"),
    (["verify", "--family", "sym", "--min-n", "9", "--max-n", "9"], NO_GROUP),
    (["verify", "--family", "quaternion", "--max-n", "1"], NO_GROUP),
    (["verify", "--family", "sym", "--min-n", "9", "--max-n", "9", "--theorem", "edges"], NO_GROUP),
    (["sweep", "--family", "product", "--max-n", "1"], NO_GROUP),
    (["sweep", "--family", "quaternion", "--max-n", "1"], NO_GROUP),
    (["analyze", "--group", "cyclic:4", "--k", "2", "-o", UNWRITABLE], None),
    (["export", "--group", "cyclic:4", "--k", "2", "-o", UNWRITABLE], None),
    (["chair", "--n", "4", "-o", UNWRITABLE], None),
    (["sweep", "--family", "cyclic", "--max-n", "3", "-o", UNWRITABLE], None),
]


class TestUsageErrors:
    """Every usage error exits 2 with exactly one ``error:`` line and no output."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, argv, message):
        if message is None:
            path = tmp_path / UNWRITABLE
            argv = [str(path) if arg == UNWRITABLE else arg for arg in argv]
            message = f"cannot write {path}: [Errno 2] No such file or directory: '{path}'"
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ("verify", "sweep"))
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, command):
        # numpy's message for `verify --family sym --max-n 8` at every k, never allocated here
        message = "Unable to allocate 12.1 GiB for an array with shape (40320, 40320) and data type int64"

        def exhausted(group, ks):
            raise MemoryError(message)

        monkeypatch.setattr(V, "successor_rows", exhausted)
        code, out, err = run(capsys, command, "--family", "cyclic", "--max-n", "4")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}; a lower --k-max needs less memory\n"


def _describe(action):
    kind = action.type
    return (
        tuple(action.option_strings), action.dest, action.default, action.required,
        None if action.choices is None else tuple(action.choices),
        None if kind is None else kind.__name__, type(action).__name__,
    )


_HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, "_HelpAction")
_FAMILY = (("--family",), "family", None, True, ("cyclic", "sym", "dihedral", "quaternion", "product"),
           None, "_AppendAction")
_RANGE = [
    (("--max-n",), "max_n", None, True, None, "int", "_StoreAction"),
    (("--min-n",), "min_n", 1, False, None, "int", "_StoreAction"),
    (("--k-max",), "k_max", None, False, None, "int", "_StoreAction"),
]
_OUT = (("--out", "-o"), "out", None, False, None, None, "_StoreAction")

PARSER_SNAPSHOT = {
    "analyze": [
        _HELP,
        (("--group",), "group", None, True, None, None, "_StoreAction"),
        (("--k",), "k", None, True, None, "int", "_StoreAction"),
        (("--format",), "format", "json", False, ("json", "text"), None, "_StoreAction"),
        (("--no-meta",), "no_meta", False, False, None, None, "_StoreTrueAction"),
        _OUT,
    ],
    "export": [
        _HELP,
        (("--group",), "group", None, True, None, None, "_StoreAction"),
        (("--k",), "k", None, True, None, "int", "_StoreAction"),
        (("--format",), "format", "dot", False, ("dot", "json"), None, "_StoreAction"),
        _OUT,
    ],
    "verify": [
        _HELP,
        _FAMILY,
        *_RANGE,
        (("--theorem",), "theorem", None, False,
         ("edges", "degrees", "connectivity", "clique", "chromatic", "forest", "star", "empty",
          "components", "shapes", "order-adjacency", "thm16", "perfect", "period", "chair"),
         None, "_AppendAction"),
    ],
    "chair": [
        _HELP,
        (("--n",), "n", None, True, None, "int", "_StoreAction"),
        (("--trace",), "trace", False, False, None, None, "_StoreTrueAction"),
        (("--format",), "format", "text", False, ("json", "text"), None, "_StoreAction"),
        _OUT,
    ],
    "sweep": [
        _HELP,
        _FAMILY,
        *_RANGE,
        (("--param",), "param", "edges", False,
         ("edges", "components", "chromatic", "clique", "connected", "forest", "star", "empty", "perfect"),
         None, "_StoreAction"),
        _OUT,
    ],
}


class TestParser:
    def test_every_subcommand_keeps_its_flags(self):
        (sub,) = build_parser()._subparsers._group_actions
        assert {name: [_describe(a) for a in p._actions] for name, p in sub.choices.items()} == PARSER_SNAPSHOT

class TestConfig:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group": "cyclic:31", "k": 2, "no_meta": True}))
        code, out, _ = run(capsys, "--config", str(cfg), "analyze")
        assert code == 0
        assert json.loads(out)["components"] == 7
        # explicit flag beats the config value
        code, out, _ = run(capsys, "--config", str(cfg), "analyze", "--group", "cyclic:4")
        assert json.loads(out)["group"] == "cyclic:4"

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(capsys, "--config", "/nope.json", "analyze", "--group", "cyclic:4", "--k", "2")
        assert code == 2

    def test_config_defaults_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group": "cyclic:31", "k": 2, "no_meta": True, "format": "text"}))
        code, _, _ = run(capsys, "--config", str(cfg), "analyze")
        assert code == 0
        code, out, _ = run(capsys, "analyze", "--group", "cyclic:4", "--k", "2")
        assert code == 0
        doc = json.loads(out)  # json again, with the meta field
        assert "meta" in doc
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--k", "2"])  # --group is required again
        assert info.value.code == 2

    def test_shared_sweep_flags_do_not_carry_config_into_the_next_call(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": ["cyclic"], "max_n": 3, "theorem": ["edges"]}))
        code, _, _ = run(capsys, "--config", str(cfg), "verify")
        assert code == 0
        for command in ("verify", "sweep"):
            with pytest.raises(SystemExit) as info:
                main([command, "--family", "cyclic"])  # --max-n is required again
            assert info.value.code == 2

    @pytest.mark.parametrize("values, needle", [
        ({"k": "2"}, "'k' must be of type int"),
        ({"k": 2.0}, "'k' must be of type int"),
        ({"k": True}, "'k' must be of type int"),
        ({"group": 31}, "'group' must be of type str"),
        ({"group": None}, "'group' must be of type str"),
        ({"format": "yaml"}, "'format' must be one of json, text"),
        ({"no_meta": "yes"}, "'no_meta' must be true or false"),
        ({"no_meta": 1}, "'no_meta' must be true or false"),
    ])
    def test_bad_analyze_values_exit_2(self, capsys, tmp_path, values, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"group": "cyclic:4", "k": 2, **values}))
        code, out, err = run(capsys, "--config", str(cfg), "analyze")
        assert code == 2
        assert out == ""
        assert "bad config" in err and needle in err

    @pytest.mark.parametrize("values, needle", [
        ({"family": "cyclic"}, "'family' must be a list"),
        ({"family": ["cyclic", "rings"]}, "'family' must be one of"),
        ({"family": ["cyclic"], "max_n": 5, "theorem": ["edges", 3]}, "'theorem' must be of type str"),
    ])
    def test_bad_verify_values_exit_2(self, capsys, tmp_path, values, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, _, err = run(capsys, "--config", str(cfg), "verify", "--max-n", "3")
        assert code == 2
        assert needle in err

    def test_good_verify_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": ["cyclic"], "max_n": 6, "k_max": None, "theorem": ["edges"]}))
        code, out, _ = run(capsys, "--config", str(cfg), "verify")
        assert code == 0
        assert out == "theorem edges: 21 cells, all pass\n"

    def test_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "not checked for analyze", "n": "x"}))
        code, out, _ = run(capsys, "--config", str(cfg), "analyze", "--group", "cyclic:4", "--k", "2", "--no-meta")
        assert code == 0
        assert json.loads(out)["group"] == "cyclic:4"

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "--config", str(cfg), "analyze", "--group", "cyclic:4", "--k", "2")
        assert code == 2
        assert "JSON object" in err


def reference_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8))
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=6),
    ),
    max_leaves=40,
)


class TestJsonText:
    """``_json_text`` must give the bytes of ``json.dumps(doc, indent=2)`` plus a newline."""

    @settings(max_examples=400, deadline=None)
    @given(json_documents)
    def test_matches_json_dumps(self, doc):
        assert _json_text(doc) == reference_json(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], {"a": {}}, {"a": []}, [[]], [{}], {"": [0]}, [[1, 2], [3]], [[1, 2], [3, 4, 5]],
        [[True, 2]], [[1, None]], [1, True], {"x": (1, 2)}, {"e": "\u00e9\n\"\\"}, [1.5, -0.0],
        {"nested": [[0, 1], [1, 2]], "deeper": {"list": [[5, 6]]}}, {1: "int key"}, {None: 0, "a": 1},
    ])
    def test_corner_documents(self, doc):
        assert _json_text(doc) == reference_json(doc)

    @pytest.mark.parametrize("spec, k", [("cyclic:1", 2), ("cyclic:5", 6), ("sym:3", 7), ("dihedral:1", 3)])
    def test_edgeless_and_single_vertex_exports(self, spec, k):
        g = build_group(spec)
        doc = to_json_dict(g, build_undirected(g, k))
        assert doc["edges"] == []
        assert _json_text(doc) == reference_json(doc)
        assert _json_text(analyze(g, k).to_json_dict()) == reference_json(analyze(g, k).to_json_dict())

    @pytest.mark.parametrize("spec", ["cyclic:4999", "sym:7", "dihedral:2500", "quaternion:1250", "product:16x17x18"])
    def test_large_analyze_and_export_documents(self, spec):
        g = build_group(spec)
        k = 2 + g.order // 3
        export = to_json_dict(g, build_undirected(g, k))
        assert export["edges"]
        assert _json_text(export) == reference_json(export)
        report = analyze(g, k).to_json_dict()
        assert _json_text(report) == reference_json(report)
