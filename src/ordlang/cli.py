"""Command-line driver: check, run, trace, dump-core, dump-graph.

Exit codes: 0 success, 1 parse/type errors, unreadable files and check-time
limits, 2 runtime violations and run-time limits, 64 usage; a call whose
stdout is closed early (`| head -1`) stops printing and exits 1, quietly.

With --json every diagnostic is one JSON line (kind, line, col, message).
Those without a source position are at line 0, col 0: io-error,
limit-exceeded, unknown-binding (dump-graph), and the run-time failures
fuel-exhausted, stuck, oracle-violation (one line each) and leaked-resources.

Arguments are read from a table of the commands and their options, in any
order, as `--name VALUE`, `--name=VALUE` or a unique prefix of --name; `--`
may come before FILE, and -h or --help prints help.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
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
OPTIONS = {  # option: (kind, default, help); one whose default is None is required
    "--help": ("flag", False, "show this help message and exit"),
    "--opm": ("opm", "regex", "OPM that reads the resource literals (default regex)"),
    "--json": ("flag", False, "JSON-lines diagnostics"),
    "--fuel": ("int", 100_000, "allow at most FUEL evaluation steps (default 100000)"),
    "--paranoid": ("flag", False, "run the heap oracle at every step"),
    "--binding": ("name", None, "name of the let binding to inspect"),
}
COMMON = ("--help", "--opm", "--json")
COMMANDS = {  # command: (help, its options in usage order)
    "check": ("typecheck a program", COMMON),
    "run": ("typecheck and evaluate", (*COMMON, "--fuel", "--paranoid")),
    "trace": ("run, printing one line per step", (*COMMON, "--fuel")),
    "dump-core": ("print the elaborated core term", COMMON),
    "dump-graph": ("print the typing context DAG at a binding, as DOT", (*COMMON, "--binding")),
}
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")  # a negative number is a positional


class _UsageError(Exception):
    """args: the command whose usage applies (None: the top level), the message."""


def _spelled(name: str) -> str:
    metavar = "{" + ",".join(known_opms()) + "}" if name == "--opm" else name[2:].upper()
    return name if OPTIONS[name][0] == "flag" else f"{name} {metavar}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: ordlang [-h] {" + ",".join(COMMANDS) + "} ..."
    names = COMMANDS[command][1][1:]
    words = [_spelled(n) if OPTIONS[n][1] is None else f"[{_spelled(n)}]" for n in names]
    return f"usage: ordlang {command} [-h] {' '.join(words)} file"


def _help(command: Optional[str]) -> str:
    about, names = COMMANDS[command] if command else ((__doc__ or "").strip(), tuple(OPTIONS))
    rows = [("file", "source file (.ord)")] if command else [(c, v[0]) for c, v in COMMANDS.items()]
    rows += [("-h, --help" if n == "--help" else _spelled(n), OPTIONS[n][2]) for n in names]
    return "\n".join([_usage(command), "", about, "", *(f"  {a:<26}{b}" for a, b in rows)])


def _option(arg: str, names: tuple[str, ...]) -> Optional[tuple[Optional[str], Optional[str]]]:
    """None for a positional `arg`, else the option it names (None when
    unknown) and its value after `=` or glued to -h (None when absent)."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "h":
        return "--help", arg[2:].removeprefix("=") if arg[2:] else None
    prefix, eq, value = arg.partition("=")
    matches = [name for name in names if name.startswith(prefix)] if arg[1] == "-" else []
    if len(matches) == 1:
        return matches[0], value if eq else None
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _parse_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The command and its values, or None once help is printed. A usage error
    raises _UsageError: a bad option as met, then a missing argument, then
    extra arguments, then a negative --fuel."""
    command, names, values, extras = None, ("--help",), {"file": None}, []
    separated, rest = False, iter(argv)  # after `--`: FILE and extra arguments
    for arg in rest:
        if arg == "--" and command is not None and not separated:
            separated = True
            continue
        option = None if separated or arg == "--" else _option(arg, names)
        # a positional is the command, then FILE, then an extra argument
        name, text = option or ("command" if command is None else "file", arg)
        if name is None or name == "file" and values["file"] is not None:
            extras.append(arg)
            continue
        kind = OPTIONS[name][0] if name in OPTIONS else name
        if kind == "flag":
            if text is not None:
                label = "-h/--help" if name == "--help" else name
                raise _UsageError(command, f"argument {label}: ignored explicit argument {text!r}")
            if name == "--help":
                print(_help(command))
                return None
            values[name[2:]] = True
            continue
        if text is None:
            text = next(rest, "--")  # an option, `--` or the end is no value
            if text == "--" or _option(text, names) is not None:
                raise _UsageError(command, f"argument {name}: expected one argument")
        try:
            value = int(text) if kind == "int" else text
        except ValueError:
            raise _UsageError(command, f"argument {name}: invalid int value: {text!r}") from None
        choices = {"command": tuple(COMMANDS), "opm": tuple(known_opms())}.get(kind, ())
        if choices and value not in choices:
            message = f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"
            raise _UsageError(command, f"argument {name}: {message}")
        values[name.lstrip("-")] = value
        if name == "command":
            command, names = value, COMMANDS[value][1]
            values.update((n[2:], OPTIONS[n][1]) for n in names[1:])
    if command is None:
        raise _UsageError(None, "the following arguments are required: command")
    missing = [name for name in ("file", *names[1:]) if values[name.lstrip("-")] is None]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(extras)}")
    if values.get("fuel", 0) < 0:
        raise _UsageError(command, f"argument --fuel: must be at least 0, got {values['fuel']}")
    return SimpleNamespace(**values)


def _diag(path: str, kind: str, line: int, col: int, message: str, as_json: bool) -> str:
    if as_json:
        return json.dumps({"kind": kind, "line": line, "col": col, "message": message})
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
        return check_program(parse(source, opm), opm), opm
    except (ParseError, TypeCheckError) as exc:
        kind, span, message = exc.kind, exc.span, exc.message
    except LIMITS as exc:
        kind, span, message = "limit-exceeded", None, str(exc)
    line, col = (0, 0) if span is None else (span.line, span.col)
    print(_diag(path, kind, line, col, message, as_json), file=sys.stderr)
    return None


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()  # a closed stdout fails here rather than at exit
        return code
    except BrokenPipeError:  # stdout was closed: print nothing more, even at exit
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        command, message = exc.args
        prog = "ordlang" if command is None else f"ordlang {command}"
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return USAGE_EXIT
    if args is None:  # help was printed
        return 0
    loaded = _load_and_check(args.file, args.opm, args.json)
    if loaded is None:
        return 1
    try:
        return _command(args, *loaded)
    except LIMITS as exc:  # met while printing or running
        print(_diag(args.file, "limit-exceeded", 0, 0, str(exc), args.json), file=sys.stderr)
        return 2 if args.command in ("run", "trace") else 1


def _command(args: SimpleNamespace, checked, opm) -> int:
    if args.command in ("check", "dump-core"):
        print("ok" if args.command == "check" else pretty_core(checked.core, opm))
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
        redex, heap = pretty_core(result.stuck_redex, opm), show_heap(result.config.heap, opm)
        message = f"stuck({result.stuck_reason}) at {redex} with heap {heap}"
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
