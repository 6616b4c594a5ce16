"""Command-line driver: check, run, trace, dump-core, dump-graph.

Exit codes: 0 success, 1 parse/type errors, unreadable files and check-time
limits, 2 runtime violations and run-time limits, 64 usage.

With --json every diagnostic is one JSON line (kind, line, col, message).
Those without a source position are at line 0, col 0: io-error,
limit-exceeded, unknown-binding (dump-graph), and the run-time failures
fuel-exhausted, stuck, oracle-violation (one line each) and leaked-resources.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import context as cx
from .checker import TypeCheckError, check_program
from .core import pretty as pretty_core
from .interp import run, show_heap
from .opm import get_opm, known_opms
from .regex import StateBudgetExceeded
from .surface import ParseError, parse

USAGE_EXIT = 64
LIMITS = (RecursionError, StateBudgetExceeded)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _diag(path: str, kind: str, line: int, col: int, message: str, as_json: bool) -> str:
    if as_json:
        return json.dumps(
            {"kind": kind, "line": line, "col": col, "message": message}
        )
    return f"{path}:{line}:{col}: {kind}: {message}"


def _report(path: str, kind: str, message: str, as_json: bool) -> None:
    """A diagnostic with no source position: as text, `path: message`."""
    text = _diag(path, kind, 0, 0, message, True) if as_json else f"{path}: {message}"
    print(text, file=sys.stderr)


def _load_and_check(path: str, opm_name: str, as_json: bool):
    """Returns (checked, opm) or None after printing diagnostics."""
    opm = get_opm(opm_name)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(_diag(path, "io-error", 0, 0, str(exc), as_json), file=sys.stderr)
        return None
    try:
        program = parse(source, opm)
        checked = check_program(program, opm)
    except ParseError as exc:
        print(
            _diag(path, "parse-error", exc.span.line, exc.span.col, exc.message, as_json),
            file=sys.stderr,
        )
        return None
    except TypeCheckError as exc:
        message = exc.message
        if exc.expected is not None:
            message += f" (expected {exc.expected}, got {exc.actual})"
        print(
            _diag(path, exc.kind, exc.span.line, exc.span.col, message, as_json),
            file=sys.stderr,
        )
        return None
    except LIMITS as exc:
        print(_diag(path, "limit-exceeded", 0, 0, str(exc), as_json), file=sys.stderr)
        return None
    return checked, opm


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(prog="ordlang", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="source file (.ord)")
        p.add_argument("--opm", default="regex", choices=known_opms())
        p.add_argument("--json", action="store_true", help="JSON-lines diagnostics")

    p_check = sub.add_parser("check", help="typecheck a program")
    common(p_check)

    p_run = sub.add_parser("run", help="typecheck and evaluate")
    common(p_run)
    p_run.add_argument("--fuel", type=int, default=100_000)
    p_run.add_argument(
        "--paranoid", action="store_true", help="run the heap oracle at every step"
    )

    p_trace = sub.add_parser("trace", help="run, printing one line per step")
    common(p_trace)
    p_trace.add_argument("--fuel", type=int, default=100_000)

    p_dump = sub.add_parser("dump-core", help="print the elaborated core term")
    common(p_dump)

    p_graph = sub.add_parser(
        "dump-graph", help="print the typing context DAG at a binding, as DOT"
    )
    common(p_graph)
    p_graph.add_argument(
        "--binding", required=True, help="name of the let binding to inspect"
    )

    args = parser.parse_args(argv)
    if getattr(args, "fuel", 0) < 0:
        sub.choices[args.command].error(f"argument --fuel: must be at least 0, got {args.fuel}")
    loaded = _load_and_check(args.file, args.opm, args.json)
    if loaded is None:
        return 1
    try:
        return _command(args, *loaded)
    except LIMITS as exc:  # met while printing or running
        print(_diag(args.file, "limit-exceeded", 0, 0, str(exc), args.json), file=sys.stderr)
        return 2 if args.command in ("run", "trace") else 1


def _command(args: argparse.Namespace, checked, opm) -> int:
    if args.command == "check":
        print("ok")
        return 0

    if args.command == "dump-core":
        print(pretty_core(checked.core, opm))
        return 0

    if args.command == "dump-graph":
        tree = checked.binding_trees.get(args.binding)
        if tree is None:
            known = ", ".join(sorted(checked.binding_trees)) or "(none)"
            message = f"no binding named {args.binding!r}; known: {known}"
            _report(args.file, "unknown-binding", message, args.json)
            return 1
        print(cx.to_dot(cx.interpret(tree), opm, title=args.binding))
        return 0

    # run / trace
    tracing = args.command == "trace"
    paranoid = getattr(args, "paranoid", False) or tracing
    result = run(checked.core, opm, fuel=args.fuel, paranoid=paranoid, trace=tracing)
    if tracing:
        for s in result.steps:
            print(f"[{s.index}] {s.rule} {s.redex} | {s.heap_delta}")
    if result.outcome == "fuel-exhausted":
        message = f"fuel exhausted after {args.fuel} steps"
        _report(args.file, "fuel-exhausted", message, args.json)
        return 2
    if result.outcome == "stuck":
        message = (
            f"stuck({result.stuck_reason}) at {pretty_core(result.stuck_redex, opm)} "
            f"with heap {show_heap(result.config.heap, opm)}"
        )
        _report(args.file, "stuck", message, args.json)
        return 2
    for index, violation in result.violations:
        message = f"oracle violation at step {index}: {violation}"
        _report(args.file, "oracle-violation", message, args.json)
    if result.violations:
        return 2
    if result.config.heap:
        message = f"leaked resources: {show_heap(result.config.heap, opm)}"
        _report(args.file, "leaked-resources", message, args.json)
        return 2
    print(pretty_core(result.config.term, opm))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
