"""CLI behaviour: documented examples, exit codes, determinism."""

import json

import pytest

from kpower.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        with pytest.raises(SystemExit):
            main(["export", "--group", "cyclic:4", "--k", "2", "-o", "/nonexistent/x/y.dot"])


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
        assert out.count("theorem ") == 14

    def test_component_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "cyclic", "--max-n", "60",
                           "--theorem", "components")
        assert code == 0

    def test_bad_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--family", "rings", "--max-n", "5"])
        assert info.value.code == 2


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

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "chair", "--n", "6", "--trace")
        assert code == 0
        assert "RESULT k=5" in out
        assert out.count("w=") == 4


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
