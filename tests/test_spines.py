"""Long let spines: the checker walks a spine of lets, `;`s and let-pairs in
one loop, and the core printer prints one in a loop, so neither takes a
stack frame per item; nor do a renamed binder's spine below it, nor the
locations that a paranoid run counts. These programs are longer than the
default recursion limit."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from ordlang import surface as sf
from ordlang.checker import check_program
from ordlang.core import UNIT, pretty
from ordlang.interp import run
from ordlang.opm import get_opm

OPM = get_opm("regex")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def ops(n: int) -> str:
    """One resource through n `!{r}` lets."""
    lets = "".join(f"let x{i + 1} = !{{r}} x{i} in\n" for i in range(n))
    return f"let x0 = new {{r*c}} in\n{lets}drop (!{{c}} x{n})\n"


def splits(n: int) -> str:
    """n let-pairs, each splitting a borrow off the resource, then using and
    dropping the borrow before a `;`."""
    rounds = "".join(
        f"let b{i}, x{i + 1} = split {{r*}} x{i} in drop (!{{r}} b{i});\n" for i in range(n)
    )
    return f"let x0 = new {{r*c}} in\n{rounds}drop (!{{c}} x{n})\n"


def seqs(n: int) -> str:
    """n items after a unit value, alternately `v;` and a value let that
    copies the last value."""
    lines, last = ["let v0 = unit in"], "v0"
    for i in range(n):
        if i % 2:
            lines.append(f"let v{i} = {last} in")
            last = f"v{i}"
        else:
            lines.append(f"{last};")
    return "\n".join(lines + [last]) + "\n"


@pytest.mark.parametrize("family", [ops, splits, seqs])
def test_a_5000_item_spine_checks_runs_and_prints(family):
    checked = check_program(sf.parse(family(5000), OPM), OPM)
    result = run(checked.core, OPM)
    assert result.outcome == "value" and result.config.term == UNIT
    assert result.config.heap == {} and result.violations == []
    assert pretty(checked.core, OPM).count(" in\n") >= 5000


@pytest.mark.parametrize("family", [ops, splits])
def test_a_3000_let_spine_runs_paranoid(family):
    # the runtime oracle counts the locations of the whole term at each step
    checked = check_program(sf.parse(family(3000), OPM), OPM)
    result = run(checked.core, OPM, paranoid=True)
    assert result.outcome == "value" and result.config.term == UNIT
    assert result.violations == []


def test_a_renamed_binder_used_3000_lets_below_checks():
    # the shadowing `let v` renames `v` through every let down to the last line
    lets = "".join(f"let u{i} = unit in\n" for i in range(3000))
    source = f"let v = unit in let w = v in let v = v in\n{lets}v\n"
    printed = pretty(check_program(sf.parse(source, OPM), OPM).core, OPM)
    assert printed.startswith("let v = unit in\nlet w = v in\nlet v0 = v in\n")
    assert printed.endswith("\nlet u2999 = unit in\nv0")


# Run with a recursion limit a little above the depth it starts at: each
# spine takes a few frames, not a few per item.
HEADROOM = textwrap.dedent("""
    import sys
    from ordlang import surface as sf
    from ordlang.checker import check_program
    from ordlang.interp import run
    from ordlang.opm import get_opm

    opm = get_opm("regex")
    sources = sys.stdin.read().split("\\f")
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(depth + 120)
    for source in sources:
        result = run(check_program(sf.parse(source, opm), opm).core, opm)
        print(result.outcome)
""")


def test_3000_item_spines_check_and_run_in_a_bounded_stack():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", HEADROOM], input=f"{ops(3000)}\f{splits(3000)}",
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split() == ["value", "value"]
