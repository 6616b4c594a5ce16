#!/usr/bin/env python3
"""Print what the CLI prints on the example programs and generated rounds.

    python3 scripts/cli_outputs.py [TREE] > outputs.txt

TREE is a checkout of this repository (default: the one holding this
script); it chooses only the code, `TREE/src`. The inputs always come from
the checkout holding this script, so two trees' code runs on the same
programs. Its `ordlang.cli.main` runs in this process for each of `check`,
`check --json`, `run`, `run --paranoid`, `trace` and `dump-core`, under the
`regex` and the `ownership` OPM, on `programs/**/*.ord` and on the programs
of seed-1 rounds 0-2 of the benchmark's `borrow`, `wide` and `deep`
workloads, which `perfbench/workloads.py` generates into a temporary
directory; then for `dump-graph --binding NAME` under both OPMs, on each
`programs/**/*.ord` file with NAME each let binder written in it, each other
binder whose context TREE's checker records for it under either OPM (lambda
and pattern parameters, the names of `;`), and one name that none binds;
then for `check` and `check --json` under both OPMs on
`tests/diagnostics/*.ord`, each of which raises one checker diagnostic;
then for `check`, `run` and `dump-core` under both OPMs on
`tests/letpairs/*.ord`, accepted let-pairs that split their context across
both sides of a `,` or a `∥`; last for `run --fuel 3` and
`run --json --fuel 3` under both OPMs on `programs/copy.ord`, which runs out
of fuel. That makes 6672 calls. Each call prints its arguments, exit code,
stdout and stderr, with that directory's path replaced by `<tmp>`, so the outputs of
two trees can be compared with diff. A call that raises prints its
exception instead of an exit code, and the script then exits 1. Last, the
script prints `N calls` on its own stderr, outside the compared output.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path

COMMANDS = (
    ("check",), ("check", "--json"), ("run",), ("run", "--paranoid"), ("trace",), ("dump-core",),
)
DIAGNOSTIC_COMMANDS = (("check",), ("check", "--json"))
LETPAIR_COMMANDS = (("check",), ("run",), ("dump-core",))
FUEL_COMMANDS = (("run", "--fuel", "3"), ("run", "--json", "--fuel", "3"))
FUEL_PROGRAM = "programs/copy.ord"  # 22 steps to its value
OPMS = ("regex", "ownership")
WORKLOADS = ("borrow", "wide", "deep")
ROUNDS = range(3)
SEED = 1
LET_BINDERS = re.compile(r"\blet\s+(\w+)(?:\s*,\s*(\w+))?")  # `let x` and `let x, y`
UNBOUND = "no_such_binding"


def _write_rounds(inputs: Path, out: Path) -> list[str]:
    """Write the generated rounds' programs under `out`; their paths."""
    spec = importlib.util.spec_from_file_location(
        "workloads", inputs / "perfbench" / "workloads.py")
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # registered first: its dataclasses look it up
    paths = []
    for name in WORKLOADS:
        for round_index in ROUNDS:
            for job in workloads.WORKLOADS[name](SEED, round_index):
                path = out / (job.ident.replace("/", "_") + ".ord")
                path.write_text(job.source, encoding="utf-8")
                paths.append(str(path))
    return paths


def _binders(path: str) -> list[str]:
    """The let binders written in the program at `path`, then the other
    binders that the checker records when the program checks."""
    import ordlang
    from ordlang.regex import StateBudgetExceeded

    source = Path(path).read_text(encoding="utf-8")
    names = [n for m in LET_BINDERS.finditer(source) for n in m.groups() if n]
    for name in OPMS:
        opm = ordlang.get_opm(name)
        try:
            names += ordlang.check_program(ordlang.parse(source, opm), opm).binding_trees
        except (ordlang.ParseError, ordlang.TypeCheckError, RecursionError, StateBudgetExceeded):
            pass  # it records nothing; its dump-graph calls print why
    return list(dict.fromkeys(names))


def _paths(inputs: Path, pattern: str) -> list[str]:
    """The files under `inputs` that match `pattern`, relative to it."""
    return [str(p.relative_to(inputs)) for p in sorted(inputs.glob(pattern))]


def _commands(paths: list[str], commands):
    """Each of `commands` on each of `paths`, under each OPM."""
    for path in paths:
        for command in commands:
            for opm in OPMS:
                yield [command[0], path, "--opm", opm, *command[1:]]


def _calls(programs: list[str], rounds: list[str], diagnostics: list[str], letpairs: list[str]):
    """The argument lists of every call, in the order they are printed."""
    yield from _commands(programs + rounds, COMMANDS)
    for path in programs:
        for name in [*_binders(path), UNBOUND]:
            for opm in OPMS:
                yield ["dump-graph", path, "--opm", opm, "--binding", name]
    yield from _commands(diagnostics, DIAGNOSTIC_COMMANDS)
    yield from _commands(letpairs, LETPAIR_COMMANDS)
    yield from _commands([FUEL_PROGRAM], FUEL_COMMANDS)


def main() -> int:
    inputs = Path(__file__).resolve().parent.parent
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else inputs
    sys.path.insert(0, str(tree / "src"))
    from ordlang.cli import main as cli_main

    os.chdir(inputs)  # the example programs by their paths relative to the checkout
    raised = calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        programs = _paths(inputs, "programs/**/*.ord")
        diagnostics = _paths(inputs, "tests/diagnostics/*.ord")
        letpairs = _paths(inputs, "tests/letpairs/*.ord")
        rounds = _write_rounds(inputs, Path(tmp))
        for argv in _calls(programs, rounds, diagnostics, letpairs):
            calls += 1
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    status = f"exit {cli_main(argv)}"
                except Exception as exc:  # a traceback the CLI let through
                    status = f"raised {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=stderr)
                    raised += 1
            text = "\n".join([
                "$ ordlang " + " ".join(argv), status,
                "--- stdout", stdout.getvalue(), "--- stderr", stderr.getvalue(),
            ])
            print(text.replace(tmp, "<tmp>"))
    print(f"{calls} calls", file=sys.stderr)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
