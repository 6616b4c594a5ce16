"""The benchmark's traced pass rebinds ordlang functions by name; keep it working."""

import json
import os
import subprocess
import sys

from conftest import PROGRAMS, ROOT

# Loads perfbench/tracing.py read-only, instruments ordlang, then checks and
# runs one program per OPM and prints each OPM's counter deltas as JSON.
TRACED_CALLS = """
import contextlib, importlib.util, io, json, sys
from ordlang import cli

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.instrument(tracer)
deltas = {}
for opm, path in (("regex", sys.argv[2]), ("ownership", sys.argv[3])):
    before = dict(tracer.counts)
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
