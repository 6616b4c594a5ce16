"""The benchmark's traced pass rebinds ordlang functions by name; keep it working."""

import json
import os
import subprocess
import sys

from conftest import PROGRAMS, ROOT

# Loads perfbench/tracing.py read-only, instruments ordlang, then checks and
# runs one program per OPM and prints each OPM's counter deltas as JSON.
# Neither checking nor running decides a residual by `residual_exists`, so
# each OPM also makes one direct call, which the wrapper must count.
TRACED_CALLS = """
import contextlib, importlib.util, io, json, sys
from ordlang import cli
from ordlang.opm import get_opm

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.instrument(tracer)
deltas = {}
for opm, path in (("regex", sys.argv[2]), ("ownership", sys.argv[3])):
    before = dict(tracer.counts)
    instance = get_opm(opm)
    instance.residual_exists(instance.unit(), instance.unit())
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("check", "run"):
            assert cli.main([command, path, "--opm", opm]) == 0, (command, opm)
    deltas[opm] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
print(json.dumps(deltas))
"""


def test_traced_pass_counts_the_opm_and_regex_layers(tmp_path):
    owned = tmp_path / "owned.ord"
    owned.write_text(
        "let x = new {*} in\nlet b, y = split {b} x in\ndrop (!{b} b); drop (!{*} y)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [str(ROOT / "perfbench" / "tracing.py"), str(PROGRAMS / "copy.ord"), str(owned)]
    out = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS, *argv], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    deltas = json.loads(out.stdout)
    # dfa_states reads to_dfa.cache_info(), so it also guards the cache.
    for name in ("regex.to_dfa", "regex.dfa_states", "regex.product_derivative"):
        assert deltas["regex"].get(name, 0) > 0, name
    for opm in ("regex", "ownership"):
        for name in ("opm.residual_exists", "opm.best_continuation"):
            assert deltas[opm].get(name, 0) > 0, (opm, name)


# A shadowing let makes the checker rename the rest of the spine below it.
SHADOWING = "let x = new {r*c} in\nlet x = !{r} x in\ndrop (!{c} x)\n"

# Instruments ordlang as above, checks and runs SHADOWING through the CLI, then
# calls each rebound name directly on a fresh tree and prints, per name, the
# calls counted in the CLI pass and in the direct call.
TRACED_RECURSION = """
import contextlib, importlib.util, io, json, sys
from ordlang import checker, cli, core, surface
from ordlang.opm import get_opm

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.instrument(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("check", "run"):
        assert cli.main([command, sys.argv[2]]) == 0, command
names = ("surface.surface_fv", "surface.rename_var", "core.fv")
out = {name: [tracer.counts[name]] for name in names}

def direct(name, call):
    before = tracer.counts[name]
    call()
    out[name].append(tracer.counts[name] - before)

tree = surface.parse(sys.argv[3], get_opm("regex"))
direct("surface.surface_fv", lambda: checker.surface_fv(tree))
direct("surface.rename_var", lambda: surface.rename_var(tree.body, "x", "y"))
term = core.App(core.PLAIN, core.Lam(core.PLAIN, "x", core.Var("x")), core.UNIT)
direct("core.fv", lambda: core.fv(term))
print(json.dumps(out))
"""


def test_traced_pass_counts_every_level_of_the_rewired_recursions(tmp_path):
    program = tmp_path / "shadowing.ord"
    program.write_text(SHADOWING)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [str(ROOT / "perfbench" / "tracing.py"), str(program), SHADOWING]
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RECURSION, *argv], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout)
    for name, (in_cli, _direct) in counts.items():
        assert in_cli > 0, name
    # free variables are stored when a node is built, so reading them is one
    # call (through the checker's own binding of surface_fv); rename_var is
    # one call per node: 3 for the inner let's header `!{r} x` (its body is
    # shadowed)
    assert {name: direct for name, (_in_cli, direct) in counts.items()} == {
        "surface.surface_fv": 1,
        "surface.rename_var": 3,
        "core.fv": 1,
    }
