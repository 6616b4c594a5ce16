import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlang import cli
from ordlang.cli import main
from ordlang.record import replace
from ordlang.regex import READBACK_BUDGET, StateBudgetExceeded

from conftest import PROGRAMS, scaling_families, smoke_programs


def invoke(*argv):
    return main(list(argv))  # every exit code, usage errors and help included


def test_check_accepts_copy(capsys):
    assert invoke("check", str(PROGRAMS / "copy.ord")) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_rejects_misuse(capsys):
    assert invoke("check", str(PROGRAMS / "misuse.ord")) == 1
    err = capsys.readouterr().err
    assert "context-misuse" in err
    assert ":6:" in err  # line of the offending expression


def test_misuse_diagnostic_names_the_violated_edge(capsys):
    path = str(PROGRAMS / "misuse.ord")
    assert invoke("check", path) == 1
    assert capsys.readouterr().err == (
        f"{path}:6:1: context-misuse: no binding mode fits: `x2` must be used after `f`\n"
    )


def test_json_diagnostics_one_object_per_line(capsys):
    assert invoke("check", str(PROGRAMS / "misuse.ord"), "--json") == 1
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert lines
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"kind", "line", "col", "message"}
        assert obj["kind"] == "context-misuse"


def test_lines_after_a_literal_across_lines_are_counted(tmp_path, capsys):
    prog = tmp_path / "literal.ord"
    prog.write_text("let x = new {(r|w)*\n c} in\ndrop (!{c} x);\nundefined_var")
    assert invoke("check", str(prog)) == 1
    assert capsys.readouterr().err == (
        f"{prog}:4:1: unbound-variable: unbound variable 'undefined_var'\n"
    )


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.ord"
    empty.write_text("-- nothing here\n")
    assert invoke("check", str(empty)) == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ord"
    bad.write_text("(x : Unit\n")
    assert invoke("check", str(bad)) == 1
    assert "parse-error" in capsys.readouterr().err


# One program in tests/diagnostics/ per checker diagnostic that no other test
# pins from source, with the kind, position and message `check` prints for it.
# They stay out of programs/, which the benchmark's corpus workload reads.
DIAGNOSTICS = pathlib.Path(__file__).resolve().parent / "diagnostics"
DIAGNOSED = {
    "effect_right_argument": (
        "effect-violation", 1, 42, "argument of a right-ordered application must be effect-free",
    ),
    "effect_left_function": (
        "effect-violation", 1, 40,
        "function part of a left-ordered application must be effect-free",
    ),
    "effect_ordered_pair": (
        "effect-violation", 1, 53,
        "second component of an ordered pair must be effect-free when the first carries resources",
    ),
    "effect_letpair_header": (
        "effect-violation", 1, 12, "let-pair header must be effect-free; bind it first",
    ),
    "effect_lambda_body": (
        "effect-violation", 1, 30,
        "function body performs operations but the arrow declares latent effect 0",
    ),
    "mode_mismatch": (
        "mode-mismatch", 1, 49, "a non-capturing function cannot close over resources in x:[r]",
    ),
    "decomposition_failure": (
        "decomposition-failure", 1, 92,
        "cannot isolate ['b1', 'h2'] in context b1:[r*], (b2:[r*], h2:[r*c])",
    ),
    "never_used": ("context-misuse", 1, 1, "binding 'x' holds resources but is never used"),
    "pair_binders_distinct": ("context-misuse", 1, 1, "pair binders must be distinct"),
    "split_refused": ("opm-violation", 1, 31, "cannot split {w} off remaining usage {r}"),
    "op_refused": ("opm-violation", 1, 26, "operation {w} is not admitted by remaining usage {r}"),
    "drop_refused": ("opm-violation", 1, 20, "resource with remaining usage {r} is not droppable"),
    "new_discards": (
        "context-misuse", 1, 32, "new consumes no resources: `x` would be discarded",
    ),
    "variable_discards": (
        "context-misuse", 1, 49, "variable 'y' would discard resources: `x` would be discarded",
    ),
    "shared_binding": ("context-misuse", 1, 64, "no binding mode fits: `x` is used by both sides"),
    "application_split": (
        "context-misuse", 1, 108,
        "application splits the context badly: `h` must be used after `f`",
    ),
    "split_expects_resource": (
        "type-mismatch", 1, 11,
        "split expects a resource (expected a resource type [m], got Unit)",
    ),
    "drop_expects_resource": (
        "type-mismatch", 1, 6, "drop expects a resource (expected a resource type [m], got Unit)",
    ),
    "seq_discards": (
        "context-misuse", 1, 1, "binding 's0' holds resources but is never used",
    ),
    "op_expects_resource": (
        "type-mismatch", 1, 12,
        "operation expects a resource (expected a resource type [m], got Unit)",
    ),
    "apply_non_function": (
        "type-mismatch", 1, 1,
        "only functions can be applied (expected a function type, got Unit)",
    ),
    "argument_mismatch": (
        "type-mismatch", 1, 47,
        "argument type does not match the function parameter (expected [r*], got [w])",
    ),
    "letpair_header_not_pair": (
        "type-mismatch", 1, 12, "let-pair header must be a pair (expected a pair type, got [r])",
    ),
    "lambda_not_function": (
        "type-mismatch", 1, 16,
        "lambda checked against a non-function type (expected a function type, got Unit)",
    ),
    "annotation_mismatch": (
        "type-mismatch", 1, 2,
        "expression type does not match the annotation (expected [r*], got [w])",
    ),
    "program_not_unrestricted": (
        "type-mismatch", 1, 1,
        "a whole program must have an unrestricted type (expected an unrestricted type, got [r*])",
    ),
    "unbound_variable": ("unbound-variable", 2, 1, "unbound variable 'undefined_var'"),
}


def test_every_diagnostic_program_is_pinned():
    assert sorted(p.stem for p in DIAGNOSTICS.glob("*.ord")) == sorted(DIAGNOSED)


def _assert_check_prints(prog, kind, line, col, message, capsys):
    assert invoke("check", "--json", prog) == 1
    assert _one_diagnostic(capsys) == {"kind": kind, "line": line, "col": col, "message": message}
    assert invoke("check", prog) == 1
    assert capsys.readouterr().err == f"{prog}:{line}:{col}: {kind}: {message}\n"


@pytest.mark.parametrize("name", sorted(DIAGNOSED))
def test_checker_diagnostics(name, capsys):
    _assert_check_prints(str(DIAGNOSTICS / f"{name}.ord"), *DIAGNOSED[name], capsys)


# One program in tests/parse_errors/ per `ParseError` message of the surface
# parser and per `OpmError` message of the regex literal parser, with the
# position and message `check` prints for it under the regex OPM.
PARSE_ERRORS = pathlib.Path(__file__).resolve().parent / "parse_errors"
PARSE_FAILURES = {
    "unsupported_character": (1, 25, "unsupported character '@'"),
    "unterminated_literal": (1, 13, "unterminated `{` resource literal"),
    "expected_token": (2, 1, "expected ')', found 'end of input'"),
    "unexpected_token": (1, 20, "unexpected ')'"),
    "definition_mismatch": (1, 28, "definition of 'g' does not match declaration of 'f'"),
    "let_binder": (1, 7, "expected ',', ':' or '=' after let binder, found 'unit'"),
    "bare_let_argument": (
        1, 22, "prefix operator argument cannot be a bare let; parenthesize it",
    ),
    "expected_expression": (2, 1, "expected an expression, found 'end of input'"),
    "arrow_mode": (1, 16, "arrow mode must be one of u, o, r, l; found 'q'"),
    "latent_effect": (1, 18, "latent effect must be 0 or 1"),
    "expected_type": (1, 9, "expected a type, found '-['"),
    "regex_empty_fragment": (1, 13, "empty regex fragment in 'r||w'"),
    "regex_trailing_characters": (1, 13, "trailing characters in regex 'r)w'"),
    "regex_unbalanced_parenthesis": (1, 13, "unbalanced parenthesis in regex '(r|w'"),
    "regex_unexpected_character": (1, 13, "unexpected character '+' in regex 'r*w+'"),
}


def test_every_parse_error_program_is_pinned():
    assert sorted(p.stem for p in PARSE_ERRORS.glob("*.ord")) == sorted(PARSE_FAILURES)


@pytest.mark.parametrize("name", sorted(PARSE_FAILURES))
def test_parse_errors(name, capsys):
    prog = str(PARSE_ERRORS / f"{name}.ord")
    _assert_check_prints(prog, "parse-error", *PARSE_FAILURES[name], capsys)


def test_run_prints_value_and_checks_heap(capsys):
    assert invoke("run", str(PROGRAMS / "copy.ord"), "--paranoid") == 0
    assert capsys.readouterr().out.strip() == "unit"


def test_run_rejects_ill_typed(capsys):
    assert invoke("run", str(PROGRAMS / "alias_bad.ord")) == 1


def test_run_reports_stuck_with_exit_2(tmp_path, capsys):
    # bypass the checker by feeding an unchecked program is impossible via
    # the CLI, so exercise exit 2 through fuel exhaustion instead
    slow = tmp_path / "slow.ord"
    slow.write_text(PROGRAMS.joinpath("copy.ord").read_text())
    assert invoke("run", str(slow), "--fuel", "3") == 2
    assert "fuel exhausted" in capsys.readouterr().err


def test_trace_prints_step_lines(capsys):
    assert invoke("trace", str(PROGRAMS / "alias_ok.ord")) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines[0].startswith("[0] RC-Ne")
    assert any("RC-Sp" in l for l in lines)
    assert all("|" in l for l in lines)


def test_dump_core_matches_checker_output(capsys):
    assert invoke("dump-core", str(PROGRAMS / "copy.ord")) == 0
    out = capsys.readouterr().out
    assert "let° if0 = new_{(r|w)*c} @ unit in" in out


def test_dump_graph_emits_dot(capsys):
    assert invoke("dump-graph", str(PROGRAMS / "copy.ord"), "--binding", "if1") == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "b1:[r*]" in out and "if1:[(r|w)*c]" in out


def test_dump_graph_unknown_binding(capsys):
    assert invoke("dump-graph", str(PROGRAMS / "copy.ord"), "--binding", "zz") == 1


def test_dump_graph_interprets_only_the_binding_it_prints(tmp_path, monkeypatch, capsys):
    # resources(60) notes 120 binding contexts: the 60 lets and the 60 `;`s
    prog = tmp_path / "resources.ord"
    prog.write_text(scaling_families()["resources"](60))
    real, depth, top_level = cli.cx.interpret, [0], [0]

    def counted(ctx):  # interpret recurses through the patched name
        top_level[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(ctx)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cli.cx, "interpret", counted)
    assert invoke("dump-graph", str(prog), "--binding", "x0") == 0
    assert capsys.readouterr().out.startswith('digraph "x0"')
    assert top_level[0] == 1
    assert invoke("dump-graph", str(prog), "--binding", "zz") == 1
    assert "x59" in capsys.readouterr().err and top_level[0] == 1


def test_usage_errors_exit_64(capsys):
    assert invoke() == 64
    assert invoke("nonsense") == 64
    assert invoke("dump-graph", str(PROGRAMS / "copy.ord")) == 64  # missing --binding


COPY = str(PROGRAMS / "copy.ord")
MISUSE = str(PROGRAMS / "misuse.ord")
TOP_USAGE = "usage: ordlang [-h] {check,run,trace,dump-core,dump-graph} ..."
CHOOSE = "(choose from 'check', 'run', 'trace', 'dump-core', 'dump-graph')"


# argv, exit code, first line of stdout, last line of stderr. The error lines
# are the ones argparse prints under Python 3.11, so that scripts reading them
# see the same text.
USAGE_MATRIX = [
    ([], 64, "", "ordlang: error: the following arguments are required: command"),
    (["nonsense", COPY], 64, "",
     f"ordlang: error: argument command: invalid choice: 'nonsense' {CHOOSE}"),
    (["check"], 64, "", "ordlang check: error: the following arguments are required: file"),
    (["dump-graph"], 64, "",
     "ordlang dump-graph: error: the following arguments are required: file, --binding"),
    (["check", COPY, "extra"], 64, "", "ordlang: error: unrecognized arguments: extra"),
    (["check", COPY, "--fuel", "3"], 64, "", "ordlang: error: unrecognized arguments: --fuel 3"),
    (["check", COPY, "--opm", "foo"], 64, "", "ordlang check: error: argument --opm: "
     "invalid choice: 'foo' (choose from 'ownership', 'regex')"),
    (["run", COPY, "--fuel", "x"], 64, "",
     "ordlang run: error: argument --fuel: invalid int value: 'x'"),
    (["trace", "--fuel=-5", COPY], 64, "",
     "ordlang trace: error: argument --fuel: must be at least 0, got -5"),
    (["dump-graph", COPY], 64, "",
     "ordlang dump-graph: error: the following arguments are required: --binding"),
    (["check", COPY, "--opm"], 64, "",
     "ordlang check: error: argument --opm: expected one argument"),
    (["run", "--fuel", "--json", COPY], 64, "",
     "ordlang run: error: argument --fuel: expected one argument"),
    (["check", COPY, "--json=1"], 64, "",
     "ordlang check: error: argument --json: ignored explicit argument '1'"),
    (["check", "--opm=ownership", COPY], 1, "",
     f"{COPY}:1:12: parse-error: not an element of the ownership OPM: 'r*'"),
    (["run", "--fuel", "22", "--paranoid", COPY], 0, "unit", ""),
    (["run", "--par", COPY], 0, "unit", ""),
    (["check", "--jso", MISUSE], 1, "", '{"kind": "context-misuse", "line": 6, "col": 1, '
     '"message": "no binding mode fits: `x2` must be used after `f`"}'),
    (["check", "--", COPY], 0, "ok", ""),
    (["dump-graph", "--b=if1", COPY], 0, 'digraph "if1" {', ""),
    (["-h"], 0, TOP_USAGE, ""),
    (["run", "-h"], 0, "usage: ordlang run [-h] [--opm {ownership,regex}] [--json] [--fuel FUEL] "
     "[--paranoid] file", ""),
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    USAGE_MATRIX,
    ids=[" ".join(argv).replace(str(PROGRAMS), "programs") or "-" for argv, *_ in USAGE_MATRIX],
)
def test_usage_matrix(argv, code, out, err, capsys):
    assert invoke(*argv) == code
    stdout, stderr = capsys.readouterr()
    assert (stdout.partition("\n")[0], stderr.splitlines()[-1:]) == (out, [err] if err else [])
    if code == 64:  # the usage line of the command named in the error line
        command = err.partition(":")[0].removeprefix("ordlang")
        expected = TOP_USAGE if not command else f"usage: ordlang{command} [-h] "
        assert len(stderr.splitlines()) == 2 and stderr.startswith(expected)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_help_lists_every_command_and_option(command, capsys):
    argv = ["--help"] if command is None else [command, COPY, "--he"]
    assert invoke(*argv) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    names = ["file", *cli.COMMANDS[command][1]] if command else [*cli.COMMANDS, *cli.OPTIONS]
    for name in names:  # each at the start of a row
        assert f"\n  {'-h, --help' if name == '--help' else name} " in stdout, name


def test_a_cli_call_imports_no_argparse_gettext_or_locale():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from ordlang.cli import main\n"
        "main(['check', sys.argv[1]])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code, COPY], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n[]\n", "")


def test_closed_stdout_stops_printing_quietly(tmp_path):
    # The trace of resources(40) is far longer than a pipe buffer, so the
    # writer meets the closed pipe while it still has steps to print.
    prog = tmp_path / "resources40.ord"
    prog.write_text(scaling_families()["resources"](40))
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "ordlang.cli", "trace", str(prog)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"[0] ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_fuel_allows_exactly_that_many_steps(capsys):
    copy = str(PROGRAMS / "copy.ord")  # `ordlang trace` lists its 22 steps
    assert invoke("run", "--fuel", "22", copy) == 0
    assert capsys.readouterr().out == "unit\n"
    assert invoke("run", "--fuel", "21", copy) == 2
    assert capsys.readouterr().err == f"{copy}: fuel exhausted after 21 steps\n"
    assert invoke("trace", "--fuel", "22", copy) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "unit"
    assert invoke("run", "--fuel", "0", str(PROGRAMS / "smoke" / "01_unit.ord")) == 0
    assert capsys.readouterr().out == "unit\n"


@pytest.mark.parametrize("command", ["run", "trace"])
def test_negative_fuel_is_a_usage_error(command, capsys):
    assert invoke(command, "--fuel", "-5", str(PROGRAMS / "copy.ord")) == 64
    out, err = capsys.readouterr()
    assert out == "" and "argument --fuel: must be at least 0, got -5" in err


def test_missing_file(capsys):
    assert invoke("check", "no/such/file.ord") == 1


def test_ownership_opm_flag(tmp_path, capsys):
    prog = tmp_path / "own.ord"
    prog.write_text("let x = new {*} in drop (!{*} x)\n")
    assert invoke("run", str(prog), "--opm", "ownership") == 0
    assert capsys.readouterr().out.strip() == "unit"


def test_checked_programs_never_get_stuck(capsys):
    # end-to-end progress: everything check accepts also runs
    for path in smoke_programs():
        assert invoke("check", str(path)) == 0
        assert invoke("run", str(path), "--paranoid") == 0
    capsys.readouterr()


def _one_diagnostic(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_unreadable_file_is_io_error(capsys):
    assert invoke("check", "/nonexistent.ord", "--json") == 1
    obj = _one_diagnostic(capsys)
    assert obj["kind"] == "io-error" and (obj["line"], obj["col"]) == (0, 0)


def test_state_budget_is_limit_exceeded(tmp_path, capsys):
    prog = tmp_path / "budget.ord"
    prog.write_text(
        "let x = new {(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)} in\n"
        "drop (!{a} x)\n"
    )
    assert invoke("check", str(prog), "--json") == 1
    assert _one_diagnostic(capsys)["kind"] == "limit-exceeded"


def test_recursion_depth_is_limit_exceeded(tmp_path, capsys):
    # A long let spine checks in a loop; lets nested 2000 deep in each
    # other's headers still recurse, one level per header.
    prog = tmp_path / "nested.ord"
    heads = "".join(f"let y{i} = " for i in range(2000))
    prog.write_text(heads + "unit" + "".join(f" in y{i}" for i in reversed(range(2000))) + "\n")
    assert invoke("check", str(prog), "--json") == 1
    assert _one_diagnostic(capsys)["kind"] == "limit-exceeded"


def test_a_long_word_literal_is_printed_in_its_diagnostic(tmp_path, capsys):
    # a word literal is a right-nested Cat, one level per symbol; printing it
    # walks that spine in a loop, so the drop is rejected for its usage
    prog = tmp_path / "word.ord"
    prog.write_text(f"let x = new {{{'a' * 5000}}} in drop x\n")
    assert invoke("check", str(prog), "--json") == 1
    obj = _one_diagnostic(capsys)
    assert obj["kind"] == "opm-violation" and "a" * 5000 in obj["message"]


# Rejected at `drop x2`, whose diagnostic prints the continuation; the
# regex it reads back to has millions of characters.
FOUND = (
    "let x0 = new {(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)} in let x1 = !{a} x0 in\n"
    "let x2 = !{b} x1 in drop x2\n"
)
# Accepted; only the split's printed continuation is that large.
BIG_SPLIT = (
    "let x0 = new {(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)} in\n"
    "let b, x1 = split {a} x0 in drop (!{a} b);\n"
    "drop (!{aaaaa} x1)\n"
)


@pytest.mark.parametrize(
    "source, argv, code",
    [
        pytest.param(FOUND, ["check"], 1, id="found-check"),
        pytest.param(FOUND, ["dump-core"], 1, id="found-dump-core"),
        pytest.param(BIG_SPLIT, ["dump-core"], 1, id="split-dump-core"),
        pytest.param(BIG_SPLIT, ["dump-graph", "--binding", "b"], 1, id="split-dump-graph"),
        pytest.param(BIG_SPLIT, ["trace"], 2, id="split-trace"),
    ],
)
def test_readback_budget_is_limit_exceeded(source, argv, code, tmp_path):
    path = tmp_path / "big.ord"
    path.write_text(source)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "ordlang.cli", *argv, "--json", str(path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr[-2000:]
    obj = json.loads(lines[0])
    assert obj["kind"] == "limit-exceeded" and "characters" in obj["message"]


TOO_BIG = f"continuation reads back to more than {READBACK_BUDGET} characters"


def _too_big(*args):
    raise StateBudgetExceeded(TOO_BIG)


@pytest.mark.parametrize(
    "command, printer, failure, code",
    [
        ("dump-core", "pretty_core", None, 1),  # the core term
        ("run", "pretty_core", None, 2),  # the final term
        ("run", "pretty_core", {"outcome": "stuck", "stuck_reason": "no-rule"}, 2),
        ("run", "show_heap", {"outcome": "value"}, 2),  # the leaked heap
    ],
)
def test_limits_met_while_printing_are_limit_exceeded(
    command, printer, failure, code, monkeypatch, capsys
):
    real_run = cli.run

    def failing_run(term, opm, **kwargs):
        result = real_run(term, opm, **{**kwargs, "fuel": 3})
        return replace(result, stuck_redex=result.config.term, **failure)

    if failure is not None:
        monkeypatch.setattr(cli, "run", failing_run)
    monkeypatch.setattr(cli, printer, _too_big)
    assert invoke(command, str(PROGRAMS / "copy.ord"), "--json") == code
    obj = _one_diagnostic(capsys)
    assert (obj["kind"], obj["message"]) == ("limit-exceeded", TOO_BIG)


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("limit", [RecursionError, StateBudgetExceeded])
def test_run_time_limit_is_limit_exceeded(command, limit, monkeypatch, capsys):
    def hit_limit(*args, **kwargs):
        raise limit("limit hit while running")

    monkeypatch.setattr(cli, "run", hit_limit)
    assert invoke(command, str(PROGRAMS / "copy.ord"), "--json") == 2
    obj = _one_diagnostic(capsys)
    assert obj["kind"] == "limit-exceeded" and (obj["line"], obj["col"]) == (0, 0)
    assert invoke(command, str(PROGRAMS / "copy.ord")) == 2
    err = capsys.readouterr().err
    assert "limit-exceeded" in err and "Traceback" not in err


def test_run_time_failures_are_json_lines_under_json(capsys):
    path = str(PROGRAMS / "copy.ord")
    assert invoke("run", "--json", "--fuel", "3", path) == 2
    assert _one_diagnostic(capsys) == {
        "kind": "fuel-exhausted",
        "line": 0,
        "col": 0,
        "message": "fuel exhausted after 3 steps",
    }
    assert invoke("run", "--fuel", "3", path) == 2
    assert capsys.readouterr().err == f"{path}: fuel exhausted after 3 steps\n"
    assert invoke("dump-graph", "--json", "--binding", "zz", path) == 1
    obj = _one_diagnostic(capsys)
    assert (obj["kind"], obj["line"], obj["col"]) == ("unknown-binding", 0, 0)
    assert obj["message"].startswith("no binding named 'zz'; known: _, b1, b2, copy,")
    assert invoke("dump-graph", "--binding", "zz", path) == 1
    assert capsys.readouterr().err == f"{path}: {obj['message']}\n"


@pytest.mark.parametrize(
    "failure, kinds",
    [
        ({"outcome": "stuck", "stuck_reason": "no-rule"}, ["stuck"]),
        (
            {"outcome": "value", "violations": [(0, "v0"), (2, "v2")]},
            ["oracle-violation", "oracle-violation"],
        ),
        ({"outcome": "value"}, ["leaked-resources"]),
    ],
)
def test_other_run_time_failures_are_json_lines(failure, kinds, monkeypatch, capsys):
    # A checked program never gets stuck, violates the oracle or leaks, so
    # make a fuel-starved run of copy.ord (three cells on its heap) look so.
    real_run = cli.run

    def failing_run(term, opm, **kwargs):
        result = real_run(term, opm, **{**kwargs, "fuel": 3})
        return replace(result, stuck_redex=result.config.term, **failure)

    monkeypatch.setattr(cli, "run", failing_run)
    path = str(PROGRAMS / "copy.ord")
    assert invoke("run", path, "--json") == 2
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [(obj["kind"], obj["line"], obj["col"]) for obj in lines] == [
        (kind, 0, 0) for kind in kinds
    ]
    assert invoke("run", path) == 2
    assert capsys.readouterr().err == "".join(f"{path}: {obj['message']}\n" for obj in lines)
    if failure["outcome"] == "stuck":
        assert lines[0]["message"].startswith("stuck(no-rule) at ")
    elif "violations" in failure:
        assert [obj["message"] for obj in lines] == [
            "oracle violation at step 0: v0", "oracle violation at step 2: v2"
        ]
    else:
        assert lines[0]["message"].startswith("leaked resources: {")


# Pieces of programs: keywords, binders, literals of both OPMs, types,
# punctuation, layout and a few characters the lexer rejects.
PROGRAM_PIECES = [
    "let ", "x", "y", "f", " = ", " in ", "\n", "; ", ", ", ": ", "(", ")", "unit", "Unit",
    "new {r*c}", "new {*}", "!{r} ", "!{c} ", "!{*} ", "split {r*} ", "drop ", "{r}", "{",
    "}", " -[o 1]-> ", " -[l 0]-> ", " ox ", " .o ", "x y", "-- note\n", "²", "@", "0",
]


CORPUS = [path.read_text() for path in sorted(PROGRAMS.glob("**/*.ord"))]


@st.composite
def corpus_edits(draw):
    # a programs/ file with a stretch of up to 40 characters cut out or doubled
    source = draw(st.sampled_from(CORPUS))
    start = draw(st.integers(0, len(source)))
    stop = draw(st.integers(start, min(len(source), start + 40)))
    middle = draw(st.sampled_from(["", source[start:stop] * 2]))
    return source[:start] + middle + source[stop:]


@given(
    st.one_of(
        st.text(max_size=60),
        st.lists(st.sampled_from(PROGRAM_PIECES), max_size=30).map("".join),
        corpus_edits(),
    )
)
@settings(max_examples=150, deadline=None)
def test_cli_is_total_on_arbitrary_text(source):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ord")
        with open(path, "wb") as handle:
            handle.write(source.encode("utf-8"))
        for argv in (
            ("check", path),
            ("run", path, "--json"),
            ("run", path, "--opm", "ownership"),
            ("run", path, "--json", "--fuel", "5"),
        ):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = invoke(*argv)
            assert code in (0, 1, 2, 64), (argv, code)
            assert "Traceback" not in err.getvalue()
            if "--json" in argv:
                for line in err.getvalue().splitlines():
                    json.loads(line)
