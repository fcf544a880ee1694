"""Command-line front end.

Subcommands:
  analyze  full report for one (group, k) pair, as JSON or text
  export   the graph itself, as DOT or JSON
  verify   theorem sweeps over group families; exits 1 on any counterexample
  chair    the shifting-chair riddle for one n
  sweep    CSV matrix of one report parameter across k

``--config FILE`` supplies the chosen subcommand's defaults from a JSON
object; each value is checked as argparse checks the flag (type, choices,
true/false for switches, a list for repeatable flags).

Exit codes: 0 success, 1 a counterexample (of a ``verify`` theorem, or a
``chair`` simulation against its closed form), 2 usage or parse error,
including a bad config value, a ``--k-max`` below 2, an ``--out`` path
that cannot be written, a sweep that selects no group (a chair-only
``verify`` needs none) and one too large for memory (lower ``--k-max``).
Output is deterministic; ``analyze`` adds a timestamp unless --no-meta.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone

from . import verify as verify_mod
from .analysis import analyze
from .chair import render_trace, solve_chairs
from .graphs import build_undirected, to_dot, to_json_dict
from .groups import FAMILIES, MAX_ORDER, build_group, parse_group_spec

# ``sweep --param`` choices, in CSV fixture order, each with its reader of
# `verify.BatchMetrics` (one value per exponent; bools print as 0 and 1).
_SWEEP_PARAMS = {
    "edges": lambda m: m.edge_count,
    "components": lambda m: m.comp_count,
    "chromatic": lambda m: m.chi,
    "clique": lambda m: m.omega,
    "connected": lambda m: m.connected,
    "forest": lambda m: ~m.has_cycle,
    "star": lambda m: m.star_shape,
    "empty": lambda m: m.edge_count == 0,
    "perfect": lambda m: ~m.has_long_odd_cycle,
}


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _json_text(doc: dict) -> str:
    """Exactly ``json.dumps(doc, indent=2) + "\\n"``, without its pure-Python encoder.

    An indent makes ``json.dumps`` walk the document in Python, which is
    slow on the long int lists of an export; those are joined here in one
    pass, and only scalars go through the C encoder.
    """
    return _json_value(doc, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    # ``newline`` is a line break plus the indentation of the current level.
    inner = newline + "  "
    if type(value) is list and value:
        if all(type(v) is int for v in value):
            return "[" + inner + ("," + inner).join(map(str, value)) + newline + "]"
        if all(type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
               for v in value):
            deeper = inner + "  "
            pair = "[" + deeper + "%d," + deeper + "%d" + inner + "]"
            return "[" + inner + ("," + inner).join(pair % (u, v) for u, v in value) + newline + "]"
        return "[" + inner + ("," + inner).join(_json_value(v, inner) for v in value) + newline + "]"
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = (json.dumps(key) + ": " + _json_value(v, inner) for key, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # Scalars, empty containers and anything unusual: the reference encoder.
    # JSON strings never hold a raw line break, so re-indenting is exact.
    return json.dumps(value, indent=2).replace("\n", newline)


def _text_report(doc: dict, prefix: str = "") -> str:
    # Text mirrors the JSON field order so both stay greppable.
    lines = []
    for key, value in doc.items():
        if isinstance(value, dict) and value:  # an empty mapping prints as {}
            lines.append(f"{prefix}{key}:")
            lines.append(_text_report(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return "\n".join(lines)


def _checked_group(args):
    """The group of ``--group``, once ``--k`` is checked too; both raise ValueError."""
    group = build_group(parse_group_spec(args.group))
    if args.k < 2:
        raise ValueError("k must be at least 2")
    return group


def cmd_analyze(args) -> int:
    group = _checked_group(args)
    report = analyze(group, args.k)
    doc = report.to_json_dict()
    if not args.no_meta:
        doc["meta"] = {"generated_at": datetime.now(timezone.utc).isoformat()}
    if args.format == "json":
        _write_output(_json_text(doc), args.out)
    else:
        _write_output(_text_report(doc) + "\n", args.out)
    return 0


def cmd_export(args) -> int:
    group = _checked_group(args)
    gr = build_undirected(group, args.k)
    if args.format == "dot":
        _write_output(to_dot(group, gr), args.out)
    else:
        _write_output(_json_text(to_json_dict(group, gr)), args.out)
    return 0


def _sweep_spec(args, **fields) -> verify_mod.SweepSpec:
    return verify_mod.SweepSpec(
        families=tuple(args.family), max_n=args.max_n, min_n=args.min_n, k_max=args.k_max, **fields
    )


def cmd_verify(args) -> int:
    theorems = tuple(args.theorem) if args.theorem else verify_mod.THEOREMS
    checks = verify_mod.run_verification(_sweep_spec(args, theorems=theorems))
    failed = False
    for check in checks:
        if check.passed:
            print(f"theorem {check.name}: {check.cells} cells, all pass")
        else:
            failed = True
            print(f"theorem {check.name}: {check.cells} cells, {check.failed_cells} failed, FAIL")
            for failure in check.failures:
                print(f"  counterexample: {failure}")
    return 1 if failed else 0


def cmd_chair(args) -> int:
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if args.n > MAX_ORDER:
        raise ValueError(f"n {args.n} exceeds the supported ceiling {MAX_ORDER}")
    try:
        solution = solve_chairs(args.n)
    except RuntimeError as exc:  # the simulation disagrees with its closed form
        print(f"counterexample: n={args.n}: {exc}")
        return 1
    doc = {
        "n": solution.n,
        "minimal_k": solution.minimal_k,
        "seating": solution.seating,
        "rejected": {
            str(k): {"chair": chair, "occupancy": occ}
            for k, (chair, occ) in sorted(solution.collision_trace.items())
        },
    }
    pieces = []
    if args.trace:
        pieces.append(render_trace(solution))
    if args.format == "json":
        pieces.append(_json_text(doc))
    else:
        pieces.append(_text_report(doc) + "\n")
    _write_output("".join(pieces), args.out)
    return 0


def cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    rows = []
    k_top = 0
    for batch in verify_mod.sweep_batches(spec):
        values = _SWEEP_PARAMS[args.param](batch.metrics)
        rows.append((str(batch.group.spec), {int(k): int(v) for k, v in zip(batch.ks, values)}))
        k_top = max(k_top, int(batch.ks[-1]))
    lines = ["group," + ",".join(f"k={k}" for k in range(2, k_top + 1))]
    for name, values in rows:
        cells = [str(values.get(k, "")) for k in range(2, k_top + 1)]
        lines.append(name + "," + ",".join(cells))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpower",
        description="Build, analyse and cross-verify k-power graphs of finite groups.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of defaults for the chosen subcommand (flags win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags that pick a sweep's groups and exponents, shared by verify and sweep.
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument("--family", action="append", required=True, choices=FAMILIES)
    sweep_flags.add_argument("--max-n", type=int, required=True, help="family parameter cap")
    sweep_flags.add_argument("--min-n", type=int, default=1)
    sweep_flags.add_argument("--k-max", type=int, default=None,
                             help="cap on k (default: all k in 2..o(G)+1)")

    p_analyze = sub.add_parser("analyze", help="full report for one (group, k)")
    p_analyze.add_argument("--group", required=True, help="e.g. cyclic:31, sym:3, dihedral:5, quaternion:2, product:2x3x4")
    p_analyze.add_argument("--k", type=int, required=True)
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.add_argument("--no-meta", action="store_true", help="omit the timestamp field")
    p_analyze.add_argument("--out", "-o", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_export = sub.add_parser("export", help="export the graph as DOT or JSON")
    p_export.add_argument("--group", required=True)
    p_export.add_argument("--k", type=int, required=True)
    p_export.add_argument("--format", choices=("dot", "json"), default="dot")
    p_export.add_argument("--out", "-o", default=None)
    p_export.set_defaults(func=cmd_export)

    p_verify = sub.add_parser("verify", parents=[sweep_flags], help="sweep theorem checks over families")
    p_verify.add_argument("--theorem", action="append", choices=verify_mod.THEOREMS,
                          help="repeatable; default runs the whole catalog")
    p_verify.set_defaults(func=cmd_verify)

    p_chair = sub.add_parser("chair", help="solve the shifting-chair riddle")
    p_chair.add_argument("--n", type=int, required=True)
    p_chair.add_argument("--trace", action="store_true", help="emit the whistle-by-whistle trace")
    p_chair.add_argument("--format", choices=("json", "text"), default="text")
    p_chair.add_argument("--out", "-o", default=None)
    p_chair.set_defaults(func=cmd_chair)

    p_sweep = sub.add_parser("sweep", parents=[sweep_flags], help="CSV matrix of one parameter across k")
    p_sweep.add_argument("--param", choices=_SWEEP_PARAMS, default="edges")
    p_sweep.add_argument("--out", "-o", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file values in as the chosen subcommand's defaults; explicit flags win.

    The values are checked against the subcommand's actions as argparse
    would check a flag; a bad one raises ValueError.
    """
    at = argv.index("--config")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2 :]
    with open(path, encoding="utf-8") as handle:
        defaults = json.load(handle)
    if not isinstance(defaults, dict):
        raise ValueError(f"{path} must hold a JSON object")
    (sub_action,) = parser._subparsers._group_actions
    command = next((arg for arg in rest if arg in sub_action.choices), None)
    if command is None:
        return rest  # argparse reports the missing subcommand
    sub_parser = sub_action.choices[command]
    actions = {a.dest: a for a in sub_parser._actions if a.dest in defaults}
    for dest, action in actions.items():
        _check_config_value(command, action, defaults[dest])
        action.required = False
    sub_parser.set_defaults(**{dest: defaults[dest] for dest in actions})
    return rest


def _check_config_value(command: str, action: argparse.Action, value) -> None:
    """Raise ValueError unless ``value`` is one the flag behind ``action`` could give."""
    where = f"{command} {action.dest!r}"
    if isinstance(action, argparse._StoreTrueAction):
        if type(value) is not bool:
            raise ValueError(f"{where} must be true or false, not {value!r}")
        return
    if value is None and action.default is None and not action.required:
        return
    items = value
    if isinstance(action, argparse._AppendAction):
        if type(value) is not list:
            raise ValueError(f"{where} must be a list, not {value!r}")
    else:
        items = [value]
    kind = action.type or str
    for item in items:
        if type(item) is not kind:
            raise ValueError(f"{where} must be of type {kind.__name__}, not {item!r}")
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"{where} must be one of {', '.join(map(str, action.choices))}, not {item!r}")


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every call without --config: built on first use, never mutated."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config" in argv:
        # Config values become parser defaults, so they get a parser of their
        # own; the shared one never carries them into a later call.
        parser = build_parser()
        try:
            argv = _apply_config(parser, argv)
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: bad config: {exc}", file=sys.stderr)
            return 2
    else:
        parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a sweep batch holds every exponent's successor row of its group at once
        print(f"error: {exc or 'out of memory'}; a lower --k-max needs less memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
