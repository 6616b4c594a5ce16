import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordlang import core as co
from ordlang import interp
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.checker import TypeCheckError, check_program
from ordlang.interp import Config, _heap_delta, run, runtime_oracle, step
from ordlang.opm import get_opm

from conftest import PROGRAMS, program_source, scaling_families, smoke_programs, workload_round
import oracles
from oracles import ReferenceConfig, _find_redex, reference_find_redex, reference_step

OPM = get_opm("regex")
R = rx.sym("r")
RC = rx.parse_regex("rc")
C = rx.sym("c")


def app(fn, arg, mode=co.PLAIN):
    return co.App(mode, fn, arg)


def new(index):
    return app(co.NewConst(index), co.UNIT)


def op(index, arg):
    return app(co.OpConst(index), arg)


def drop(arg):
    return app(co.DROP, arg)


# -- single steps

def with_left(term, heap):
    """`Config(term, heap)`, each `(refcount, envelope, trace)` cell extended
    with the index it has left, read from its trace as `step` finds it after
    the cell's allocation and operations."""
    return Config(term, {
        loc: (n, env, trace, OPM.best_continuation(trace, env))
        for loc, (n, env, trace) in heap.items()
    })


def cells(heap):
    """Each cell's refcount, envelope and trace: what the reference evaluator
    keeps, without the index left."""
    return {loc: cell[:3] for loc, cell in heap.items()}


def test_beta_step():
    cfg = Config(app(co.Lam(co.PLAIN, "x", co.Var("x")), co.UNIT), {})
    out = step(cfg, OPM)
    assert out.status == "stepped" and out.rule == "RE-Beta"
    assert out.config.term == co.UNIT
    assert out.config.heap == {}


def test_beta_requires_matching_mode():
    cfg = Config(app(co.Lam(co.UNORD, "x", co.Var("x")), co.UNIT), {})
    out = step(cfg, OPM)
    assert out.status == "stuck" and out.reason == "no-rule"


def test_alloc_step():
    out = step(Config(new(R), {}), OPM)
    assert out.rule == "RC-Ne"
    assert out.config.term == co.Loc(0)
    assert out.config.heap == {0: (0, R, rx.EPS, R)}  # the envelope is left
    assert out.config.next_loc == 1


def test_split_step_increments_refcount_only():
    heap = {0: (0, RC, rx.EPS)}
    cfg = with_left(app(co.SplitConst(R, rx.sym("c")), co.Loc(0)), heap)
    out = step(cfg, OPM)
    assert out.rule == "RC-Sp"
    assert out.config.term == co.Pair(True, co.Loc(0), co.Loc(0))
    assert out.config.heap[0] == (1, *cfg.heap[0][1:])  # trace and index left untouched


def test_op_extends_trace():
    heap = {0: (0, RC, rx.EPS)}
    out = step(with_left(op(R, co.Loc(0)), heap), OPM)
    assert out.rule == "RC-Op"
    n, env, trace = cells(out.config.heap)[0]
    assert n == 0 and rx.equivalent(trace, R)


def test_op_stuck_when_inadmissible():
    heap = {0: (0, rx.sym("c"), rx.EPS)}
    out = step(with_left(op(R, co.Loc(0)), heap), OPM)
    assert out.status == "stuck" and out.reason == "op-inadmissible"


def test_drop_decrements_then_removes():
    heap = {0: (1, RC, RC)}
    out = step(with_left(drop(co.Loc(0)), heap), OPM)
    assert out.rule == "RC-Cl1" and cells(out.config.heap)[0] == (0, RC, RC)
    out2 = step(Config(drop(co.Loc(0)), out.config.heap), OPM)
    assert out2.rule == "RC-Cl2" and out2.config.heap == {}


def test_final_drop_requires_complete_trace():
    heap = {0: (0, RC, R)}  # only r performed; rc expected
    out = step(with_left(drop(co.Loc(0)), heap), OPM)
    assert out.status == "stuck" and out.reason == "close-incomplete"


def test_a_step_leaves_the_index_left_of_its_config_as_it_was():
    # the envelope r admits one r: stepped twice from the same state, the op
    # is admitted twice, and the state still has the envelope left
    allocated = step(Config(op(R, new(R)), {}), OPM).config
    assert allocated.heap[0][3] == R
    for _ in range(2):
        out = step(allocated, OPM)
        assert out.rule == "RC-Op" and cells(out.config.heap) == {0: (0, R, R)}
    assert allocated.heap[0][3] == R


def test_no_rule_for_nonsense_application():
    out = step(Config(app(co.UNIT, co.UNIT), {}), OPM)
    assert out.status == "stuck" and out.reason == "no-rule"


def test_letpair_requires_matching_pair_kind():
    term = co.LetPair(True, "x", "y", co.Pair(False, co.UNIT, co.UNIT), co.Var("x"))
    out = step(Config(term, {}), OPM)
    assert out.status == "stuck" and out.reason == "no-rule"


def test_left_application_evaluates_argument_first():
    fn_redex = app(co.Lam(co.PLAIN, "a", co.Lam(co.LEFT, "x", co.Var("x"))), co.UNIT)
    arg_redex = app(co.Lam(co.PLAIN, "b", co.UNIT), co.UNIT)
    cfg = Config(co.App(co.LEFT, fn_redex, arg_redex), {})
    out = step(cfg, OPM)
    assert out.status == "stepped"
    assert out.config.term.arg == co.UNIT  # argument reduced
    assert out.config.term.fn == fn_redex  # function untouched


def test_plain_application_evaluates_function_first():
    fn_redex = app(co.Lam(co.PLAIN, "a", co.Lam(co.PLAIN, "x", co.Var("x"))), co.UNIT)
    arg_redex = app(co.Lam(co.PLAIN, "b", co.UNIT), co.UNIT)
    cfg = Config(co.App(co.PLAIN, fn_redex, arg_redex), {})
    out = step(cfg, OPM)
    assert out.config.term.arg == arg_redex
    assert out.config.term.fn == co.Lam(co.PLAIN, "x", co.Var("x"))


# -- whole runs

def test_run_new_then_drop():
    result = run(drop(app(co.NewConst(rx.EPS), co.UNIT)), OPM)
    assert result.outcome == "value"
    assert result.config.term == co.UNIT
    assert result.config.heap == {}
    assert result.gamma_rules == ["RC-Ne", "RC-Cl2"]


def test_run_divergence_exhausts_fuel():
    omega = co.Lam(co.PLAIN, "x", app(co.Var("x"), co.Var("x")))
    result = run(app(omega, omega), OPM, fuel=100)
    assert result.outcome == "fuel-exhausted"
    assert len(result.steps) == 100


def test_fuel_allows_exactly_that_many_steps(monkeypatch):
    checked = check_program(sf.parse(program_source("copy.ord"), OPM), OPM)
    steps = len(run(checked.core, OPM).steps)
    calls = [0]
    uncounted = interp.step

    def counted(cfg, opm):
        calls[0] += 1
        return uncounted(cfg, opm)

    monkeypatch.setattr(interp, "step", counted)
    for fuel in (steps, steps + 1, 100_000):
        calls[0] = 0
        result = run(checked.core, OPM, fuel=fuel)
        assert result.outcome == "value" and len(result.steps) == steps, fuel
        assert calls[0] == steps + 1, fuel  # the last call finds the value
    calls[0] = 0
    result = run(checked.core, OPM, fuel=steps - 1)
    assert result.outcome == "fuel-exhausted" and len(result.steps) == steps - 1
    assert calls[0] == steps - 1
    for fuel in (0, 1):
        result = run(co.UNIT, OPM, fuel=fuel)
        assert result.outcome == "value" and result.steps == [], fuel


def test_paranoid_run_checks_a_final_value_once():
    for paranoid in (False, True):
        result = run(co.Loc(5), OPM, paranoid=paranoid)
        assert result.outcome == "value"
        assert result.violations == [(0, "l5 occurs in the term but not in the heap")]


def test_run_locations_never_reused():
    # allocate, free, allocate again: the second location is fresh
    term = app(
        co.Lam(co.UNORD, "u", drop(new(rx.EPS))),
        drop(new(rx.EPS)),
        mode=co.UNORD,
    )
    result = run(term, OPM, trace=True)
    assert result.outcome == "value"
    allocs = [s for s in result.steps if s.rule == "RC-Ne"]
    assert len(allocs) == 2
    assert "alloc l0" in allocs[0].heap_delta
    assert "alloc l1" in allocs[1].heap_delta


def test_runtime_oracle_clean_configs():
    assert runtime_oracle(Config(co.UNIT, {})) == []
    assert runtime_oracle(Config(co.Loc(0), {0: (0, R, rx.EPS)})) == []


def test_runtime_oracle_detects_refcount_mismatch():
    # one syntactic occurrence of l0, but the heap claims two references
    violations = runtime_oracle(Config(co.Loc(0), {0: (1, R, rx.EPS)}))
    assert violations and "refcount" in violations[0]


def test_runtime_oracle_detects_dangling_location():
    violations = runtime_oracle(Config(co.Loc(7), {}))
    assert violations and "not in the heap" in violations[0]


def test_double_use_guard_stuck_at_second_op():
    # typechecker-bypassing core term: two reads against a single-read envelope
    term = drop(op(R, op(R, new(R))))
    result = run(term, OPM)
    assert result.outcome == "stuck"
    assert result.stuck_reason == "op-inadmissible"
    assert result.gamma_rules == ["RC-Ne", "RC-Op"]  # exactly one op succeeded


def test_smoke_corpus_runs_clean():
    for path in smoke_programs():
        checked = check_program(sf.parse(path.read_text(), OPM), OPM)
        result = run(checked.core, OPM, paranoid=True)
        assert result.outcome == "value", path.name
        assert result.config.term == co.UNIT, path.name
        assert result.config.heap == {}, path.name
        assert result.violations == [], path.name


def test_trace_records_heap_deltas():
    checked = check_program(sf.parse("drop (!{r} (new {r*}))", OPM), OPM)
    result = run(checked.core, OPM, trace=True)
    deltas = [s.heap_delta for s in result.steps if s.rule.startswith("RC-")]
    assert any("alloc l0" in d for d in deltas)
    assert any("free l0" in d for d in deltas)


def _r_chain(length):
    trace = R
    for _ in range(length - 1):
        trace = rx.Cat(R, trace)  # built directly; `cat` would recurse
    return trace


def test_heap_delta_skips_unchanged_cell_with_deep_trace():
    before = {0: (0, R, _r_chain(sys.getrecursionlimit() + 100)), 1: (0, R, rx.EPS)}
    assert _heap_delta(before, dict(before), OPM) == "-"
    after = dict(before)
    after[1] = (0, R, R)
    assert _heap_delta(before, after, OPM) == "l1: (0, r, eps) -> (0, r, r)"


def test_heap_delta_of_op_on_long_trace():
    # `==` on the two traces would recurse about twice per symbol, rendering once
    n = sys.getrecursionlimit() // 2
    before = {0: (0, R, _r_chain(n))}
    delta = _heap_delta(before, {0: (0, R, _r_chain(n + 1))}, OPM)
    assert delta == f"l0: (0, r, {'r' * n}) -> (0, r, {'r' * (n + 1)})"


def _checked_programs():
    for path in sorted(PROGRAMS.glob("**/*.ord")):
        for name in ("regex", "ownership"):
            opm = get_opm(name)
            try:
                checked = check_program(sf.parse(path.read_text(), opm), opm)
            except (sf.ParseError, TypeCheckError):
                continue
            yield path, opm, checked


def test_trace_flag_changes_only_the_rendered_strings():
    seen = 0
    for path, opm, checked in _checked_programs():
        plain = run(checked.core, opm)
        traced = run(checked.core, opm, trace=True)
        label = f"{path.name} ({opm.name})"
        assert plain.outcome == traced.outcome, label
        assert [s.rule for s in plain.steps] == [s.rule for s in traced.steps], label
        assert plain.gamma_rules == traced.gamma_rules, label
        assert plain.config.term == traced.config.term, label
        assert plain.config.heap == traced.config.heap, label
        assert plain.violations == traced.violations, label
        assert all(s.redex is None and s.heap_delta is None for s in plain.steps), label
        assert all(s.redex and s.heap_delta for s in traced.steps), label
        seen += 1
    assert seen >= 20


def core_terms(resources=False):
    """Small core terms over one variable, x; with `resources`, also
    allocations and plain applications of the resource operations."""
    modes, flags = st.sampled_from(co.MODES), st.booleans()
    leaves = [co.UNIT, co.DROP, co.Loc(0), co.Var("x"), co.Lam(co.PLAIN, "x", co.Var("x"))]
    leaves = st.sampled_from(leaves + ([new(RC), new(C)] if resources else []))
    operations = st.sampled_from([co.DROP, co.OpConst(R), co.SplitConst(R, C)])

    def extend(inner):
        return st.one_of(
            st.builds(co.App, modes, inner, inner),
            st.builds(co.Pair, flags, inner, inner),
            st.builds(lambda o, h, b: co.LetPair(o, "x", "y", h, b), flags, inner, inner),
            st.builds(lambda m, b: co.Lam(m, "x", b), modes, inner),
            *([st.builds(app, operations, inner)] if resources else []),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@given(core_terms())
@settings(max_examples=500)
def test_redex_search_matches_the_reference_on_any_term(term):
    found, expected = _find_redex(term), reference_find_redex(term)
    assert (found is None) == (expected is None)
    if found is not None:
        hole = co.Var("[]")
        assert found[0] is expected[0]
        assert found[1](hole) == expected[1](hole)
        assert found[1](found[0]) == term


def test_redex_search_does_not_recurse_down_the_context():
    inner = app(co.Lam(co.PLAIN, "x", co.Var("x")), co.UNIT)
    term = inner
    for _ in range(sys.getrecursionlimit() + 100):
        term = app(term, co.UNIT)
    redex, rebuild = _find_redex(term)
    assert redex is inner
    out, depth = rebuild(co.UNIT), 0
    while isinstance(out, co.App):
        assert out.arg is co.UNIT
        out, depth = out.fn, depth + 1
    assert out is co.UNIT and depth == sys.getrecursionlimit() + 100


def _workload_programs():
    # the accepted programs of one seed-1 round of the generated workloads
    for name in ("wide", "borrow", "deep"):
        for job in workload_round(name):
            if job.expect_kind is None:
                opm = get_opm(job.opm)
                yield job.ident, opm, check_program(sf.parse(job.source, opm), opm)


def test_redex_search_matches_the_reference_at_every_step():
    hole = co.Var("[]")
    programs = [(path.name, opm, checked) for path, opm, checked in _checked_programs()]
    steps = 0
    for label, opm, checked in programs + list(_workload_programs()):
        cfg, label = ReferenceConfig(checked.core, {}), f"{label} ({opm.name})"
        while (found := _find_redex(cfg.term)) is not None:
            redex, rebuild = found
            expected_redex, expected_rebuild = reference_find_redex(cfg.term)
            assert redex is expected_redex, label
            assert rebuild(hole) == expected_rebuild(hole), label
            out = reference_step(cfg, opm)
            assert out.status == "stepped", label
            cfg, steps = out.config, steps + 1
        assert reference_find_redex(cfg.term) is None and cfg.heap == {}, label
    assert len(programs) >= 20 and steps > 5000, (len(programs), steps)


def _reference_run(term, opm):
    cfg = ReferenceConfig(term, {})
    while (out := reference_step(cfg, opm)).status == "stepped":
        cfg = out.config
    return out


def test_evaluation_substitutes_only_closed_values(monkeypatch):
    # so `subst` never renames a binder to avoid capture, and a read-back of
    # a value never has to choose a fresh name
    calls = [0]
    uncounted = oracles.reference_subst

    def closed_only(m, v, x):
        assert co.fv(v) == frozenset(), v
        calls[0] += 1
        return uncounted(m, v, x)

    monkeypatch.setattr(oracles, "reference_subst", closed_only)
    programs = [(path.name, opm, checked) for path, opm, checked in _checked_programs()]
    for label, opm, checked in programs + list(_workload_programs()):
        assert _reference_run(checked.core, opm).status == "value", label
    assert len(programs) >= 20 and calls[0] > 5000, (len(programs), calls[0])


# -- the machine against the substitution evaluator, step by step

def _lockstep(term, opm, label, fuel=100_000):
    """Step the machine and the reference evaluator side by side from `term`,
    comparing every outcome; returns the last outcome and the step count."""
    cfg, ref, closed = Config(term, {}), ReferenceConfig(term, {}), not co.fv(term)
    for steps in range(fuel):
        out, expected = step(cfg, opm), reference_step(ref, opm)
        assert (out.status, out.rule, out.reason) == (
            expected.status, expected.rule, expected.reason
        ), (label, steps)
        assert cells(out.config.heap) == expected.config.heap, (label, steps)
        assert out.config.next_loc == expected.config.next_loc, (label, steps)
        term, redex = out.config.term, out.redex
        assert term == expected.config.term and redex == expected.redex, (label, steps)
        if closed:  # every read-back value is closed
            assert not co.fv(term) and (redex is None or not co.fv(redex)), (label, steps)
        if out.status != "stepped":
            return out, steps
        cfg, ref = out.config, expected.config
    return out, fuel


def _scaling_programs(n):
    opm = get_opm("regex")
    for family, make in scaling_families().items():
        yield f"{family}({n})", opm, check_program(sf.parse(make(n), opm), opm)


def test_machine_steps_in_lockstep_with_substitution():
    programs = [(path.name, opm, checked) for path, opm, checked in _checked_programs()]
    programs += list(_workload_programs()) + list(_scaling_programs(16))
    outcomes, total = Counter(), 0
    for label, opm, checked in programs:
        out, steps = _lockstep(checked.core, opm, f"{label} ({opm.name})")
        outcomes[out.status] += 1
        total += steps
    assert outcomes == {"value": len(programs)} and total > 5000, (outcomes, total)


# A value that is a pair holding abstractions, one of them a closure (g unit
# captures f). Binding it to p puts it in an environment, from which the last
# redex and the final term read it back.
PAIR_OF_FUNCTIONS = """
let f : Unit -[u 0]-> Unit
    f z = z
in
let g : Unit -[u 0]-> Unit -[u 0]-> Unit
    g a b = f b
in
let p = (g unit, f) in
p
"""


def test_a_pair_of_abstractions_reads_back_as_the_reference_value():
    checked = check_program(sf.parse(PAIR_OF_FUNCTIONS, OPM), OPM)
    out, _steps = _lockstep(checked.core, OPM, "pair of functions")
    identity = co.Lam(co.PLAIN, "z", co.Var("z"))
    expected = co.Pair(
        False, co.Lam(co.PLAIN, "b", co.App(co.PLAIN, identity, co.Var("b"))), identity
    )
    assert out.status == "value" and run(checked.core, OPM).config.term == expected


STUCK_EXAMPLES = [
    app(co.Lam(co.UNORD, "x", co.Var("x")), co.UNIT),  # mode mismatch
    drop(co.Loc(0)),  # an operation on a freed location
    co.LetPair(True, "x", "y", co.Pair(False, co.UNIT, co.UNIT), co.Var("x")),  # wrong kind
    app(co.UNIT, co.UNIT),  # a non-function applied
    op(R, new(C)),  # op-inadmissible
    drop(new(RC)),  # close-incomplete
]


def _closed(term, value):
    # core_terms() has one variable, x: bind it when it occurs free
    return term if not co.fv(term) else app(co.Lam(co.PLAIN, "x", term), value)


X_VALUES = [co.UNIT, co.Pair(True, co.UNIT, co.UNIT), co.Pair(False, co.DROP, co.UNIT)]


@given(st.builds(_closed, core_terms(resources=True), st.sampled_from(X_VALUES)))
@settings(max_examples=500, deadline=None)
@example(STUCK_EXAMPLES[0])
@example(STUCK_EXAMPLES[1])
@example(STUCK_EXAMPLES[2])
@example(STUCK_EXAMPLES[3])
@example(STUCK_EXAMPLES[4])
@example(STUCK_EXAMPLES[5])
def test_machine_steps_in_lockstep_on_any_closed_term(term):
    _lockstep(term, OPM, term, fuel=200)


def test_the_stuck_examples_cover_every_reason():
    reasons = [_lockstep(term, OPM, term)[0].reason for term in STUCK_EXAMPLES]
    assert reasons == ["no-rule"] * 4 + ["op-inadmissible", "close-incomplete"]


# -- cost gate: free-variable computations per step must not grow with n

def _ops(n):
    lets = "".join(f"let x{i + 1} = !{{r}} x{i} in\n" for i in range(n))
    return f"let x0 = new {{r*c}} in\n{lets}drop (!{{c}} x{n})"


def _splits(n):
    rounds = "".join(
        f"let b{i}, x{i + 1} = split {{r*}} x{i} in drop (!{{r}} b{i});\n" for i in range(n)
    )
    return f"let x0 = new {{r*c}} in\n{rounds}drop (!{{c}} x{n})"


def _resources(n):
    lets = "".join(f"let x{i} = new {{r*c}} in\n" for i in range(n))
    uses = "; ".join(f"drop (!{{c}} (!{{r}} x{i}))" for i in reversed(range(n)))
    return f"{lets}{uses}; unit"


@pytest.mark.parametrize("family", [_ops, _splits, _resources])
def test_fv_calls_per_step_do_not_grow_with_n(family, monkeypatch):
    calls = [0]
    uncounted = co.fv

    def counted(m):
        calls[0] += 1
        return uncounted(m)

    monkeypatch.setattr(co, "fv", counted)
    per_step = {}
    for n in (16, 32, 64):
        checked = check_program(sf.parse(family(n), OPM), OPM)
        calls[0] = 0
        result = run(checked.core, OPM)
        assert result.outcome == "value"
        per_step[n] = calls[0] / len(result.steps)
    assert per_step[16] > 0, per_step  # the machine's calls are counted
    assert per_step[64] <= 1.2 * per_step[16], per_step


def test_a_plain_run_substitutes_nothing_and_builds_no_term(monkeypatch):
    # Only a read-back builds an abstraction, application or let-pair; the
    # machine itself builds pairs of values and locations.
    programs = [(path.name, opm, checked) for path, opm, checked in _checked_programs()]
    programs += list(_workload_programs())
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(co, "subst", counted("subst", co.subst))
    for former in (co.Lam, co.App, co.LetPair):
        monkeypatch.setattr(former, "__init__", counted(former.__name__, former.__init__))
    ran = 0
    for label, opm, checked in programs:
        if run(checked.core, opm).config.term != co.UNIT:  # before counting
            continue
        calls.clear()
        result = run(checked.core, opm)
        assert result.outcome == "value" and result.config.term == co.UNIT, label
        assert calls == {}, (label, calls)
        ran += 1
    assert ran >= 100, ran


# -- cost gate: an operation is admitted from the index its location has
# left, so the regex work per operation does not grow with the trace


@pytest.mark.parametrize("family", ["ops", "splits"])
def test_derivative_calls_per_op_do_not_grow_with_n(family, monkeypatch):
    calls = [0]
    uncounted = rx._row  # one call derives a regex's row over the whole alphabet

    def counted(r, alphabet, memo):
        calls[0] += 1
        return uncounted(r, alphabet, memo)

    monkeypatch.setattr(rx, "_row", counted)
    per_op = {}
    for n in (16, 32, 64):
        [checked] = [c for label, _opm, c in _scaling_programs(n) if label == f"{family}({n})"]
        rx.to_dfa.cache_clear()  # the run derives its own automata
        calls[0] = 0
        result = run(checked.core, OPM)
        assert result.outcome == "value"
        per_op[n] = calls[0] / result.gamma_rules.count("RC-Op")
    assert 0 < max(per_op.values()) < 2, per_op
    assert per_op[64] <= per_op[16], per_op


@pytest.mark.parametrize("family", ["ops", "splits"])
def test_cat_calls_per_op_do_not_grow_with_n(family, monkeypatch):
    # An operation extends the display trace at its end, not by walking it.
    calls = [0]
    uncounted = rx.cat

    def counted(a, b):
        calls[0] += 1
        return uncounted(a, b)

    monkeypatch.setattr(rx, "cat", counted)
    per_op = {}
    for n in (16, 32, 64):
        [checked] = [c for label, _opm, c in _scaling_programs(n) if label == f"{family}({n})"]
        calls[0] = 0
        result = run(checked.core, OPM)
        assert result.outcome == "value"
        per_op[n] = calls[0] / result.gamma_rules.count("RC-Op")
    assert max(per_op.values()) < 1, per_op
    assert per_op[64] <= per_op[16], per_op
