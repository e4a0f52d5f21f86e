"""Command-line interface.

Subcommands:

* ``parse``: parse and validate a program, printing diagnostics.
* ``explore``: bounded concrete-semantics exploration with error and
  state-graph reporting.
* ``check``: symbolic backward reachability for a property class or a
  custom target file (constraint and partial-config records).

``check`` exit codes: 0 unreachable, 1 reachable (trace printed),
2 usage/input error, 3 budget exhausted (only with ``--budget``).
Every command exits 141 (128 + SIGPIPE, what a shell reports for a
process killed by a closed pipe), without a traceback, when standard
output is closed before it finishes printing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .concrete import Bounds, config_to_text, explore
from .engine import BudgetExhausted, Reachable, Unreachable, check, validate_trace
from .parser import ParseError, parse
from .syntax import validate
from .targets import (
    assertion_targets,
    constraint_to_text,
    cyclic_wait_targets,
    natural,
    natural_or_inf,
    read_targets,
    registration_error_targets,
)

EXIT_UNREACHABLE = 0
EXIT_REACHABLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _report(args, kind: str, text: str, path: str | None = None) -> None:
    """Print a note or an error to stderr: ``KIND: TEXT``, or ``PATH:
    TEXT`` for an error in an input file.  With check --progress, stderr
    stays one JSON event per line, ``{"event": KIND, "text": ...}``,
    whose text is the plain line without its ``KIND: `` tag."""
    line = f"{path or kind}: {text}"
    if args.progress:
        line = json.dumps({"event": kind, "text": line if path else text})
    print(line, file=sys.stderr, flush=True)


class UsageError(Exception):
    """A usage or input error, ``(text, path)`` with path None unless the
    error is in an input file: ``main`` reports it and returns
    ``EXIT_USAGE``."""


def _open(path: str, mode: str = "r"):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as e:
        raise UsageError(str(e))


def _read(path: str) -> str:
    with _open(path) as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise UsageError(str(e), path)


def _load_program(args, check: bool = True):
    text = _read(args.file)
    try:
        return parse(text, check)
    except ParseError as e:
        raise UsageError(str(e), args.file)


def cmd_parse(args) -> int:
    program = _load_program(args, check=False)
    errors = validate(program)
    for e in errors:
        print(e)
    if program.is_atomic():
        print("info: atomic program (next-with-body): exact symbolic engine unavailable")
    if errors:
        return EXIT_USAGE
    print(
        f"ok: {len(program.tasks)} tasks, "
        f"{len(program.bool_vars)} booleans, "
        f"{program.phaser_sites()} phaser creation sites"
    )
    return 0


def cmd_explore(args) -> int:
    program = _load_program(args)
    bounds = Bounds(**{name: getattr(args, name) for name in Bounds.field_names})
    # open the graph file first, so a bad path fails before exploring
    with nullcontext() if args.graph is None else _open(args.graph, "w") as graph:
        result = explore(program, bounds, record_graph=graph is not None)
        print(f"configurations: {len(result.configs)}")
        print(f"exhausted: {'yes' if result.exhausted else 'no'}")
        for err, idx in result.errors:
            print(f"error: {type(err).__name__} {err} at configuration {idx}")
        if args.dump:
            for i, c in enumerate(result.configs):
                print(f"# configuration {i}")
                print(config_to_text(c, program))
        if graph is not None:
            graph.write("digraph states {\n")
            for src, task, stmt, dst in result.edges:
                label = stmt.replace('"', "'")
                graph.write(f'  c{src} -> c{dst} [label="t{task}: {label}"];\n')
            graph.write("}\n")
    if graph is not None:
        print(f"graph written to {args.graph}")
    return 0


def _load_targets(args, program) -> list:
    if args.target is not None and args.property != "custom":
        raise UsageError("--target requires --property custom")
    if args.property == "assert":
        return assertion_targets(program)
    if args.property == "regerror":
        return registration_error_targets(program)
    if args.property == "cyclic-wait":
        return cyclic_wait_targets(program, args.max_cycle, args.slack)
    # custom: a target file of constraint and partial-config records
    if not args.target:
        raise UsageError("--property custom requires --target FILE")
    left_out = []
    try:
        targets = read_targets(_read(args.target), program, left_out)
    except ValueError as e:
        raise UsageError(str(e), args.target)
    why = "no task reaches a sequence this record pins, so it has no model"
    for line in left_out:
        _report(args, "note", f"{args.target}: line {line}: {why}")
    return targets


def cmd_check(args) -> int:
    program = _load_program(args)
    targets = _load_targets(args, program)
    pops = [0]

    def report_pop(ev):
        pops[0] = ev["processed"]
        print(json.dumps(ev), file=sys.stderr, flush=True)

    progress = report_pop if args.progress else None
    try:
        result = check(program, targets, k=args.k, b=args.b, budget=args.budget, progress=progress)
    except ValueError as e:
        raise UsageError(str(e))
    code = _print_result(args, program, targets, result)
    if args.progress:
        # the last line, printed here: a reader of check's progress callback
        # counts every event it passes as a pop
        verdict = {EXIT_UNREACHABLE: "unreachable", EXIT_REACHABLE: "reachable", EXIT_BUDGET: "unknown"}[code]
        done = {"event": "done", "verdict": verdict, "processed": pops[0]}
        print(json.dumps(done), file=sys.stderr, flush=True)
    return code


def _print_result(args, program, targets, result) -> int:
    """Print the verdict of ``check`` and its notes; returns the exit code."""
    if isinstance(result, Unreachable):
        print("verdict unreachable")
        print(f"processed {result.processed} constraints")
        # without targets, check ran only to refuse what it cannot decide
        if not targets and args.property != "custom":
            _report(args, "note", "no target constraints for this property")
        elif args.property == "cyclic-wait":
            _report(
                args,
                "note",
                f"cyclic-wait verdict holds for --slack {args.slack} "
                f"and --max-cycle {args.max_cycle}; a larger value may find a cycle"
            )
        return EXIT_UNREACHABLE
    if isinstance(result, BudgetExhausted):
        print("verdict unknown (budget exhausted)")
        print(f"processed {result.processed} constraints")
        return EXIT_BUDGET
    assert isinstance(result, Reachable)
    print("verdict reachable")
    print("trace {")
    for i, phi in enumerate(result.constraints):
        print(f"  # step {i}")
        for line in constraint_to_text(phi, program).splitlines():
            print("  " + line)
        if i < len(result.stmts):
            print(f"  stmt {result.stmts[i]}")
    print("}")
    if args.validate:
        report = validate_trace(program, result)
        print(f"trace replay: {'ok' if report.ok else 'FAILED: ' + report.message}")
    return EXIT_REACHABLE


def positive(text: str) -> int:
    n = natural(text)
    if n == 0:
        raise ValueError(f"expected a positive number, found {text!r}")
    return n


def _option(read):
    """An argparse type that reports ``read``'s own message."""

    def option(text: str):
        try:
            return read(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return option


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phasercheck",
        description="Reachability checker for phaser-synchronized programs",
    )
    # only check has --progress; the others report to stderr in plain text
    ap.set_defaults(progress=False)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse and validate a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    e = sub.add_parser("explore", help="bounded concrete exploration")
    e.add_argument("file")
    for name in Bounds.field_names:
        e.add_argument("--" + name.replace("_", "-"), type=_option(natural), default=getattr(Bounds, name))
    e.add_argument("--dump", action="store_true", help="print every configuration")
    e.add_argument("--graph", metavar="PATH", help="write the state graph (dot format)")
    e.set_defaults(func=cmd_explore)

    c = sub.add_parser("check", help="symbolic backward reachability")
    c.add_argument("file")
    c.add_argument(
        "--property",
        choices=("assert", "regerror", "cyclic-wait", "custom"),
        default="assert",
    )
    c.add_argument("--target", metavar="PATH", help="target file for --property custom")
    c.add_argument("--k", type=_option(natural_or_inf), help="max tracked phasers (default: inferred)")
    c.add_argument("--b", type=_option(natural_or_inf), default=1, help="max finite gap upper (default: 1)")
    c.add_argument("--budget", type=_option(natural), help="give up after N pops (default: none)")
    c.add_argument("--slack", type=_option(natural), default=1, help="cyclic-wait distance bound")
    c.add_argument("--max-cycle", type=_option(positive), default=2, help="max wait-cycle length")
    c.add_argument("--validate", action="store_true", help="replay the trace concretely")
    c.add_argument("--progress", action="store_true", help="ndjson progress on stderr")
    c.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as e:
        _report(args, "error", *e.args)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
