"""Byte-stability of every user-visible output against recorded fixtures.

The fixtures under ``tests/golden/`` hold the exact bytes of ``analyze
--no-meta`` (json and text), ``export`` (json and dot), ``sweep`` for every
``--param``, ``verify`` and every demo script.  The spec list covers all
five families, groups of order 1 and 2, exponents k = 0 and 1 mod o(G),
and k > o(G) + 1.

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys

import pytest

from kpower.cli import _PARAM_CHOICES, main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
DEMOS = os.path.join(ROOT, "demos")

CASES = (
    ("cyclic:1", 2),
    ("cyclic:2", 2),
    ("cyclic:2", 3),
    ("cyclic:4", 2),
    ("cyclic:10", 5),
    ("cyclic:10", 6),
    ("cyclic:12", 12),
    ("cyclic:12", 13),
    ("cyclic:20", 2),
    ("cyclic:31", 2),
    ("cyclic:31", 35),
    ("cyclic:36", 6),
    ("cyclic:48", 7),
    ("cyclic:100", 3),
    ("cyclic:360", 14),
    ("sym:1", 2),
    ("sym:2", 3),
    ("sym:3", 2),
    ("sym:3", 6),
    ("sym:3", 7),
    ("sym:4", 5),
    ("sym:4", 30),
    ("sym:5", 7),
    ("dihedral:1", 2),
    ("dihedral:5", 2),
    ("dihedral:6", 5),
    ("dihedral:6", 12),
    ("dihedral:6", 13),
    ("dihedral:10", 23),
    ("dihedral:30", 4),
    ("quaternion:2", 2),
    ("quaternion:2", 6),
    ("quaternion:2", 8),
    ("quaternion:2", 9),
    ("quaternion:3", 5),
    ("quaternion:4", 40),
    ("product:1x2", 2),
    ("product:2x2", 2),
    ("product:2x3x4", 7),
    ("product:3x5", 15),
    ("product:3x5", 16),
    ("product:4x9", 38),
    ("product:6x6", 5),
)

FAMILY_FLAGS = [arg for family in ("cyclic", "sym", "dihedral", "quaternion", "product")
                for arg in ("--family", family)]


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"### kpower {' '.join(argv)} (exit {code})\n{out.getvalue()}"


def _per_case(command: str, fmt: str, extra: tuple[str, ...] = ()) -> str:
    return "".join(
        _cli([command, "--group", spec, "--k", str(k), "--format", fmt, *extra])
        for spec, k in CASES
    )


def _demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True, timeout=300,
    )
    return done.stdout


def _outputs():
    """Fixture file name -> function producing its text."""
    outputs = {
        "analyze-json.txt": lambda: _per_case("analyze", "json", ("--no-meta",)),
        "analyze-text.txt": lambda: _per_case("analyze", "text", ("--no-meta",)),
        "export-json.txt": lambda: _per_case("export", "json"),
        "export-dot.txt": lambda: _per_case("export", "dot"),
        "verify.txt": lambda: _cli(["verify", *FAMILY_FLAGS, "--max-n", "5"]),
        "sweep-k-max.txt": lambda: _cli(["sweep", *FAMILY_FLAGS, "--max-n", "5", "--k-max", "9"]),
    }
    for param in _PARAM_CHOICES:
        outputs[f"sweep-{param}.txt"] = (
            lambda param=param: _cli(["sweep", *FAMILY_FLAGS, "--max-n", "5", "--param", param])
        )
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".py"):
            outputs[f"demo-{name[:-3]}.txt"] = lambda name=name: _demo(name)
    return outputs


OUTPUTS = _outputs()


@pytest.mark.parametrize("fixture", sorted(OUTPUTS))
def test_output_matches_fixture(fixture):
    with open(os.path.join(GOLDEN, fixture), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert OUTPUTS[fixture]() == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for fixture, produce in OUTPUTS.items():
        with open(os.path.join(GOLDEN, fixture), "w", encoding="utf-8", newline="") as handle:
            handle.write(produce())
        print("wrote", fixture)
