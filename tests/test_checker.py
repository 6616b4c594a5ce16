import pytest

from ordlang import cli
from ordlang import context as cx
from ordlang import core as co
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.checker import Checker, TypeCheckError, check_program
from ordlang.interp import run
from ordlang.opm import get_opm

from conftest import PROGRAMS, program_source, smoke_programs
from oracles import bindings, in_unit_normal_form

OPM = get_opm("regex")
SPAN = sf.Span(1, 1, 1, 1)
ENVELOPE = rx.parse_regex("(r|w)*c")


def parse(src):
    return sf.parse(src, OPM)


def parse_expr(src):
    return parse(src)


def infer(ctx, src_or_expr):
    e = parse_expr(src_or_expr) if isinstance(src_or_expr, str) else src_or_expr
    return Checker(OPM).infer(ctx, e)


def ctx_of(*bindings):
    out = cx.EMPTY
    for b in bindings:
        out = b if out == cx.EMPTY else cx.Seq(out, b)
    return out


X_R = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
Y_W = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))


def err_kind(fn):
    with pytest.raises(TypeCheckError) as exc:
        fn()
    return exc.value.kind


# -- inference of resource forms

def test_infer_new():
    got = infer(cx.EMPTY, "new {(r|w)*c}")
    assert co.types_equal(got.type, co.TraceType(ENVELOPE), OPM)
    assert got.effect == 0
    # elaborates to an application of the allocation constant to unit
    assert got.core == co.App(co.PLAIN, co.NewConst(ENVELOPE), co.UNIT)


def test_infer_split_uses_product_derivative():
    x = cx.Bind(cx.var_bind("x", co.TraceType(ENVELOPE)))
    got = infer(x, "split {r*} x")
    assert isinstance(got.type, co.ProdType) and got.type.ordered
    assert co.types_equal(got.type.left, co.TraceType(rx.parse_regex("r*")), OPM)
    # the computed continuation is the envelope again
    assert co.types_equal(got.type.right, co.TraceType(ENVELOPE), OPM)
    assert got.effect == 0


def test_infer_op_effect_and_continuation():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.parse_regex("rc"))))
    got = infer(x, "!{r} x")
    assert got.effect == 1
    assert co.types_equal(got.type, co.TraceType(rx.sym("c")), OPM)


def test_infer_op_rejected_when_inadmissible():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("c"))))
    assert err_kind(lambda: infer(x, "!{r} x")) == "opm-violation"


def test_drop_requires_droppable():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("c"))))
    assert err_kind(lambda: infer(x, "drop x")) == "opm-violation"
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.star(rx.sym("r")))))
    assert infer(y, "drop y").type == co.UNIT_T


def test_sequential_context_makes_ordered_pair():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))
    got = infer(cx.Seq(x, y), "(x, y)")
    assert isinstance(got.type, co.ProdType) and got.type.ordered
    assert isinstance(got.core, co.Pair) and got.core.ordered


def test_parallel_context_makes_unordered_pair():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))
    got = infer(cx.Par(x, y), "(x, y)")
    assert isinstance(got.type, co.ProdType) and not got.type.ordered
    assert isinstance(got.core, co.Pair) and not got.core.ordered


def test_pair_mode_priority_unordered_first():
    # whenever the parallel split is admissible the pair is unordered,
    # even though the sequential split would also be
    u = cx.Bind(cx.var_bind("u", co.UNIT_T))
    v = cx.Bind(cx.var_bind("v", co.UNIT_T))
    for ctx in (cx.Par(u, v), cx.Seq(u, v)):
        got = infer(ctx, "(u, v)")
        assert not got.core.ordered


def test_leaf_frugality():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))
    u = cx.Bind(cx.var_bind("u", co.UNIT_T))
    assert err_kind(lambda: infer(cx.Seq(x, y), "x")) == "context-misuse"
    assert err_kind(lambda: infer(cx.Seq(x, y), "unit")) == "context-misuse"
    # unrestricted bindings weaken away at leaves
    assert infer(cx.Par(x, u), "x").type == x.binding.type
    assert infer(u, "unit").type == co.UNIT_T


def test_unbound_variable():
    assert err_kind(lambda: infer(cx.EMPTY, "nope")) == "unbound-variable"


def test_a_bare_lambda_is_not_inferred():
    # the parser puts every lambda under its binding's annotation, so no
    # program reaches this diagnostic; it is pinned on the lambda alone
    lam = parse("let f : Unit -[u 0]-> Unit f z = z in f").header.expr
    assert isinstance(lam, sf.SLam)
    with pytest.raises(TypeCheckError) as exc:
        infer(cx.EMPTY, lam)
    assert (exc.value.kind, exc.value.span) == ("type-mismatch", lam.span)
    assert exc.value.message == "cannot infer a type for a lambda; annotate its binding"


# -- checking lambdas against arrows

def lam(var, body):
    return sf.SLam(SPAN, var, body)


def test_check_identity_at_plain_arrow():
    arrow = co.ArrowType(co.PLAIN, co.UNIT_T, co.UNIT_T, 0)
    eff, core = Checker(OPM).check(cx.EMPTY, lam("x", parse_expr("x")), arrow)
    assert eff == 0
    assert core == co.Lam(co.PLAIN, "x", co.Var("x"))


def test_check_capturing_thunk_at_unordered_arrow():
    x1 = cx.Bind(cx.var_bind("x1", co.TraceType(rx.sym("r"))))
    arrow = co.ArrowType(co.UNORD, co.UNIT_T, co.UNIT_T, 1)
    eff, core = Checker(OPM).check(x1, lam("z", parse_expr("drop (!{r} x1)")), arrow)
    assert eff == 0 and core.mode == co.UNORD


def test_check_plain_arrow_rejects_resource_capture():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    arrow = co.ArrowType(co.PLAIN, co.UNIT_T, co.UNIT_T, 0)
    kind = err_kind(lambda: Checker(OPM).check(x, lam("y", parse_expr("y")), arrow))
    assert kind == "mode-mismatch"


def test_check_latent_effect_bound():
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    arrow = co.ArrowType(co.UNORD, co.UNIT_T, co.UNIT_T, 0)
    kind = err_kind(
        lambda: Checker(OPM).check(x, lam("z", parse_expr("drop (!{r} x)")), arrow)
    )
    assert kind == "effect-violation"


def test_check_against_non_arrow():
    kind = err_kind(lambda: Checker(OPM).check(cx.EMPTY, lam("x", parse_expr("x")), co.UNIT_T))
    assert kind == "type-mismatch"


def test_checkinf_semantic_type_equality():
    got = Checker(OPM).check(cx.EMPTY, parse_expr("(new {r|w} : {w|r})"), co.TraceType(rx.alt(rx.sym("r"), rx.sym("w"))))
    assert got[0] == 0


# -- applications

def test_right_application_requires_pure_argument():
    src = """
let h = new {r*} in
let g : Unit -[r 1]-> Unit
    g z = drop (!{r} h)
in
g (drop (!{w} (new {w*})))
"""
    assert _reject_kind(src) == "effect-violation"


def test_drop_itself_is_not_an_operation():
    # dropping performs no trace operation, so it stays effect-free
    got = infer(cx.EMPTY, "drop (new {eps})")
    assert got.effect == 0


def test_left_application_requires_pure_function():
    # the function position of a left-ordered application is evaluated
    # second, so it must not perform operations
    src = """
let a = new {r*} in
let pick : Unit -[u 1]-> Unit -[l 0]-> Unit
    pick u v = v
in
(pick (drop (!{r} a))) unit
"""
    assert _reject_kind(src) == "effect-violation"


def test_ordered_pair_with_a_resource_first_requires_a_pure_second():
    # the pair runs `!{c} y` before its first component's borrow is used, so
    # without the check it would run `!{r}` after `!{c}` and get stuck
    src = (
        "let x = new {(r|w)*c} in let b, y = split {r*} x in "
        "let p = (b, !{c} y) in let q, z = p in drop (!{r} q); drop z"
    )
    with pytest.raises(TypeCheckError) as exc:
        check_program(parse(src), OPM)
    err = exc.value
    assert (err.kind, err.span.line, err.span.col) == ("effect-violation", 1, 65)


def _reject_kind(src):
    with pytest.raises(TypeCheckError) as exc:
        check_program(parse(src), OPM)
    return exc.value.kind


def _accept(src):
    return check_program(parse(src), OPM)


# -- whole programs

def test_copy_program_accepted():
    checked = _accept(program_source("copy.ord"))
    assert checked.type == co.UNIT_T and checked.effect == 1


def test_misuse_rejected_with_context_misuse():
    assert _reject_kind(program_source("misuse.ord")) == "context-misuse"


def test_correct_thunk_order_accepted():
    _accept(program_source("thunk_ok.ord"))


def test_empty_program_elaborates_to_unit():
    checked = _accept("")
    assert checked.core == co.UNIT


def test_program_must_be_unrestricted():
    assert _reject_kind("new {r}") == "type-mismatch"


def test_unused_resource_binding_rejected():
    assert _reject_kind("let h = new {r} in unit") == "context-misuse"


def test_underscore_requires_unrestricted():
    assert _reject_kind("let _ = new {r} in unit") == "context-misuse"
    _accept("let _ = unit in unit")


def test_aliasing_order_enforced():
    _accept(program_source("alias_ok.ord"))
    assert _reject_kind(program_source("alias_bad.ord")) == "context-misuse"


def test_decomposition_failure_kind():
    # x and z cannot be separated from y, which sits between them
    src = """
let a = new {rc} in
let x, y = split {r} a in
let b = new {w} in
let p = (x, y) in
unit
"""
    # building (x, y) after interleaving another resource binding between
    # them decomposes fine; force a failure through a pair header instead
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))
    z = cx.Bind(cx.var_bind("z", co.TraceType(rx.sym("c"))))
    checker = Checker(OPM)
    expr = parse_expr("let p, q = (x, z) in drop p; drop q; drop y")
    with pytest.raises(TypeCheckError) as exc:
        checker.infer(cx.Seq(x, cx.Seq(y, z)), expr)
    assert exc.value.kind == "decomposition-failure"


def test_determinism_same_core_twice():
    src = program_source("copy.ord")
    a = check_program(parse(src), OPM)
    b = check_program(parse(src), OPM)
    assert a.core == b.core
    assert a.type == b.type and a.effect == b.effect


def test_elaborated_core_is_closed_and_mode_consistent():
    for path in smoke_programs():
        checked = check_program(parse(path.read_text()), OPM)
        assert co.fv(checked.core) == frozenset(), path.name

        def walk(t):
            if isinstance(t, co.App):
                if isinstance(t.fn, co.Lam):
                    assert t.fn.mode == t.mode, path.name
                walk(t.fn)
                walk(t.arg)
            elif isinstance(t, co.Lam):
                walk(t.body)
            elif isinstance(t, co.Pair):
                walk(t.left)
                walk(t.right)
            elif isinstance(t, co.LetPair):
                walk(t.header)
                walk(t.body)

        walk(checked.core)


def test_let_mode_ladder_on_copy():
    checked = _accept(program_source("copy.ord"))
    text = co.pretty(checked.core, OPM)
    lines = text.splitlines()
    assert lines[0].startswith("let copy = (λp0.")
    assert "let° if0 = new_{(r|w)*c} @ unit in" in lines
    assert "let° of0 = new_{(r|w)*c} @ unit in" in lines
    assert "let b1 .o if1 = split_{r*,(r|w)*c} @ if0 in" in lines
    assert "let b2 .o of1 = split_{w*,(r|w)*c} @ of0 in" in lines
    assert "let< _ = copy @ (b1 ox b2) in" in lines


def test_binder_shadowing_is_renamed():
    src = """
let u = unit in
let u = unit in
unit
"""
    checked = _accept(src)
    # the inner binder is renamed apart; the program still runs
    res = run(checked.core, OPM)
    assert res.outcome == "value"


def test_binding_context_snapshots_for_dump_graph():
    checked = _accept(program_source("copy.ord"))
    assert "if1" in checked.binding_contexts
    snap = checked.binding_contexts["if1"]
    names = [b.name for b in snap.graph.labels]
    assert "if1" in names and "b1" in names


def test_decompose_postconditions_hold_on_every_checker_call(monkeypatch):
    # every decomposition the checker performs satisfies the contract
    real = cx.decompose
    calls = []

    def checked_decompose(ctx, names):
        got = real(ctx, names)
        if got is not None:
            pattern, inner = got
            assert cx.subcontext(ctx, cx.fill(pattern, inner))
            assert cx.dom_vars(inner) <= names
            for b in bindings(pattern):
                if b.kind == "var" and not co.unr(b.type):
                    assert b.name not in names
            calls.append(ctx)
        return got

    monkeypatch.setattr("ordlang.checker.cx.decompose", checked_decompose)
    for path in smoke_programs():
        check_program(sf.parse(path.read_text(), OPM), OPM)
    assert calls  # the corpus does exercise decomposition


def test_checker_contexts_stay_in_unit_normal_form(monkeypatch):
    # every context the checker builds holds only live bindings, and its
    # ordered labels are unique, as the tree decision of splits requires
    real = cx.split_violation
    calls = []

    def checked_split_violation(ctx, first, second, former):
        for c in (ctx, first, second):
            assert in_unit_normal_form(c), (ctx, first, second)
        ords = [b for b in bindings(ctx) if not co.unr(b.type)]
        assert len(ords) == len(set(ords)), ctx
        calls.append(ctx)
        return real(ctx, first, second, former)

    monkeypatch.setattr("ordlang.checker.cx.split_violation", checked_split_violation)
    sources = [path.read_text() for path in sorted(PROGRAMS.glob("**/*.ord"))]
    for src in sources + LETPAIR_CLASHES + [_resources(8), _wide(4), _wide(4, misuse=2)]:
        try:
            check_program(sf.parse(src, OPM), OPM)
        except TypeCheckError:
            pass
    assert calls


# pair binders that clash with the context, with a sibling binder that names
# the clashing binder's first fresh name and is unused in the body
LETPAIR_CLASHES = [
    "let a = unit in let a, a0 = (new {c}, new {c}) in drop (!{c} a)",
    "let b = unit in let b0, b = (new {c}, new {c}) in drop (!{c} b)",
]


@pytest.mark.parametrize("src", LETPAIR_CLASHES)
def test_renamed_pair_binder_avoids_its_sibling(src):
    # the unused [c] binding must not merge with its renamed sibling
    with pytest.raises(TypeCheckError) as exc:
        check_program(sf.parse(src, OPM), OPM)
    assert exc.value.kind == "context-misuse"
    assert exc.value.message.endswith("would be discarded")


def test_renamed_pair_binder_avoids_an_unrestricted_sibling():
    src = "let a = unit in let a, a0 = (new {c}, unit) in drop (!{c} a)"
    core = check_program(sf.parse(src, OPM), OPM).core.fn.body
    assert isinstance(core, co.LetPair) and (core.x, core.y) == ("a1", "a0")


def _resources(n):
    # n `new {r*c}` lets, then each resource used up in reverse order
    lets = [f"let x{i} = new {{r*c}} in" for i in range(n)]
    uses = [f"drop (!{{c}} (!{{r}} x{i}))" for i in reversed(range(n))]
    return "\n".join(lets + ["; ".join(uses + ["unit"])])


def _wide(n, misuse=None):
    # n live resources, each split into a borrow captured by a mode-o thunk;
    # thunks and remainders are then used in reverse order, except that
    # resource `misuse` has its remainder used before its thunk
    lines, uses = [], []
    for i in range(n):
        lines += [
            f"let x{i} = new {{(r|w)*c}} in",
            f"let b{i}, h{i} = split {{r*}} x{i} in",
            f"let f{i} : Unit -[o 1]-> Unit",
            f"    f{i} z = drop (!{{r}} b{i})",
            "in",
        ]
        thunk, rest = f"f{i} unit", f"drop (!{{c}} h{i})"
        uses.append((rest, thunk) if i == misuse else (thunk, rest))
    return "\n".join(lines + ["; ".join(u for pair in reversed(uses) for u in pair)])


def test_checker_builds_no_context_graphs(monkeypatch):
    # the checker decides its splits on the tree: no graph is interpreted
    # and no embedding searched, and dump-graph snapshots wait for use
    calls = {"interpret": 0, "spanning_embed": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(cx, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cx, name, counted)
    sources = [path.read_text() for path in sorted(PROGRAMS.glob("**/*.ord"))]
    for src in sources + [_resources(64), _wide(8)]:
        try:
            check_program(sf.parse(src, OPM), OPM)
        except TypeCheckError as exc:
            assert exc.kind == "context-misuse", exc.message
    assert check_program(sf.parse(_wide(8), OPM), OPM).type == co.UNIT_T
    assert calls == {"interpret": 0, "spanning_embed": 0}


@pytest.mark.parametrize(
    "ctx, src, message",
    [
        (X_R, "unit", "unit consumes no resources: `x` would be discarded"),
        (X_R, "(x, x)", "pair components interleave resources: `x` is used by both sides"),
        (
            cx.Seq(X_R, Y_W),
            "(y, x)",
            "pair components interleave resources: `y` must be used after `x`",
        ),
    ],
)
def test_context_misuse_names_the_binding_or_edge(ctx, src, message):
    with pytest.raises(TypeCheckError) as exc:
        infer(ctx, src)
    assert exc.value.kind == "context-misuse"
    assert exc.value.message == message


def test_context_misuse_in_a_wide_program_names_the_edge():
    with pytest.raises(TypeCheckError) as exc:
        check_program(sf.parse(_wide(8, misuse=4), OPM), OPM)
    assert exc.value.kind == "context-misuse"
    assert exc.value.message == "no binding mode fits: `h4` must be used after `f4`"


def _ops_spine(n):
    lets = "".join(f"let x{i + 1} = !{{r}} x{i} in\n" for i in range(n))
    return f"let x0 = new {{r*c}} in\n{lets}drop (!{{c}} x{n})\n"


def _let_seq_spine(n):
    # n items, lets and semicolons in turn, threading one resource
    items, k = ["let x0 = new {r*c} in"], 0
    while len(items) < n - 1:
        if len(items) % 2:
            items.append(f"let x{k + 1} = !{{r}} x{k} in")
            k += 1
        else:
            items.append("unit;")
    return "\n".join(items + [f"drop (!{{c}} x{k})"]) + "\n"


def test_long_spines_check_without_recursion_error():
    # contexts keep only live bindings, so their depth does not grow with
    # the spine; the checker's own recursion is the remaining bound
    checked = check_program(sf.parse(_ops_spine(200), OPM), OPM)
    assert checked.type == co.UNIT_T
    checked = check_program(sf.parse(_let_seq_spine(300), OPM), OPM)
    assert checked.type == co.UNIT_T


def test_deepest_checked_ops_spine_stays_checked():
    # the deepest `ops` spine known to check; the checker's recursion down
    # the spine sets this bound (the parser loops along it), so it must not shrink
    checked = check_program(sf.parse(_ops_spine(450), OPM), OPM)
    assert checked.type == co.UNIT_T


def test_context_calls_per_let_do_not_grow(monkeypatch):
    # the context work of one let (its splits, restrictions and stored facts)
    # must not depend on how long the spine around it is
    calls = {"_facts": 0, "restrict": 0, "split_violation": 0}
    for name in calls:
        uncounted = getattr(cx, name)

        def counted(*args, _name=name, _uncounted=uncounted):
            calls[_name] += 1
            return _uncounted(*args)

        monkeypatch.setattr(cx, name, counted)
    for family, lets in ((_ops_spine, lambda n: n + 1), (_resources, lambda n: n)):
        per_let = {}
        for n in (50, 200):
            program = sf.parse(family(n), OPM)
            calls.update(dict.fromkeys(calls, 0))
            assert check_program(program, OPM).type == co.UNIT_T
            per_let[n] = {name: count / lets(n) for name, count in calls.items()}
        for name in calls:
            assert per_let[50][name] > 0, (family.__name__, name)
            assert per_let[200][name] <= 1.2 * per_let[50][name], (family.__name__, per_let)


def _shadowing_spine(n):
    # n items: value lets, semicolons and shadowing lets in turn; every
    # shadowing let makes the checker rename the rest of the spine
    items, k = ["let v0 = unit in"], 0
    while len(items) < n:
        kind = len(items) % 3
        if kind == 0:
            items.append(f"let v{k + 1} = v{k} in")
            k += 1
        elif kind == 1:
            items.append(f"v{k};")
        else:
            items.append(f"let v{k} = v{k} in")
    return "\n".join(items + [f"v{k}"])


def test_surface_calls_per_spine_item_do_not_grow(monkeypatch):
    calls = {"surface_fv": 0, "rename_var": 0}
    for name in calls:
        uncounted = getattr(sf, name)

        def counted(*args, _name=name, _uncounted=uncounted):
            calls[_name] += 1
            return _uncounted(*args)

        monkeypatch.setattr(sf, name, counted)
    monkeypatch.setattr("ordlang.checker.surface_fv", sf.surface_fv)  # imported by name
    per_item = {}
    for n in (50, 200):
        program = sf.parse(_shadowing_spine(n), OPM)
        calls.update(surface_fv=0, rename_var=0)
        assert check_program(program, OPM).type == co.UNIT_T
        assert calls["rename_var"] > 0
        per_item[n] = (calls["surface_fv"] + calls["rename_var"]) / n
    assert per_item[200] <= 1.2 * per_item[50], per_item


@pytest.mark.parametrize(
    "src",
    [
        # `u` is dropped from f's body context; the fresh pair must not be
        # ordered after `b` merely because `u` once followed it
        """
let x = new {rr} in
let h, b = split {r} x in
let f : Unit -[r 1]-> Unit
    f u = drop (!{r} h); let pp, qq = split {r} (new {rr}) in
          drop (!{r} pp); drop (!{r} qq); drop (!{r} b)
in f unit
""",
        # the pair is used before `a`, which comes first in the context
        """
let x = new {rr} in
let a, b = split {r} x in
let u = new {r} in
let z = (let pp, qq = split {r} (new {rr}) in
         drop (!{r} pp); drop (!{r} qq); drop (!{r} a); drop (!{r} b)) in
drop (!{r} u)
""",
        # the pair is used before `h`, ahead of the parallel `b`
        """
let x = new {rr} in
let h, b = split {r} x in
let pp, qq = split {r} (new {rr}) in
drop (!{r} pp); drop (!{r} qq); drop (!{r} h); drop (!{r} b)
""",
    ],
)
def test_closed_pair_header_parallel_to_whole_context(src):
    # a pair header with no free variables is unordered against every
    # binding in scope, wherever that binding sits in the tree
    checked = check_program(sf.parse(src, OPM), OPM)
    res = run(checked.core, OPM, paranoid=True)
    assert res.outcome == "value" and not res.config.heap and not res.violations


def test_pair_mode_priority_over_generated_contexts():
    # whenever the parallel recombination is admissible, the pair must come
    # out unordered, whatever the surrounding tree shape
    x = cx.Bind(cx.var_bind("x", co.TraceType(rx.sym("r"))))
    y = cx.Bind(cx.var_bind("y", co.TraceType(rx.sym("w"))))
    u = cx.Bind(cx.var_bind("u", co.UNIT_T))
    shapes = [
        cx.Par(x, y),
        cx.Seq(x, y),
        cx.Par(cx.Seq(cx.EMPTY, x), y),
        cx.Seq(cx.Par(x, u), y),
        cx.Par(cx.Par(x, y), u),
        cx.Seq(u, cx.Seq(x, y)),
        cx.Seq(cx.Seq(u, x), y),
    ]
    expr = parse_expr("(x, y)")
    for ctx in shapes:
        got = Checker(OPM).infer(ctx, expr)
        ctx_x = cx.restrict(ctx, frozenset({"x"}))
        ctx_y = cx.restrict(ctx, frozenset({"y"}))
        parallel_ok = cx.subcontext(ctx, cx.Par(ctx_x, ctx_y))
        assert got.core.ordered == (not parallel_ok), ctx


def test_ownership_opm_programs():
    own = get_opm("ownership")
    accept = "let x = new {*} in drop (!{*} x)"
    checked = check_program(sf.parse(accept, own), own)
    res = run(checked.core, own, paranoid=True)
    assert res.outcome == "value" and not res.config.heap and not res.violations

    borrow = """
let x = new {*} in
let b1, x2 = split {b} x in
drop (!{b} b1); drop (!{*} x2)
"""
    checked = check_program(sf.parse(borrow, own), own)
    res = run(checked.core, own, paranoid=True)
    assert res.outcome == "value" and not res.config.heap and not res.violations

    # an owned reference cannot be discarded without exercising ownership
    with pytest.raises(TypeCheckError) as exc:
        check_program(sf.parse("let x = new {*} in drop x", own), own)
    assert exc.value.kind == "opm-violation"


# Accepted let-pairs whose header names bindings on both sides of a `,` or a
# `∥` of the context, one for each clause of `context._decompose` that joins
# the two sides' decompositions. A key names the former, then the pattern
# each side's decomposition fits: the hole parallel to the rest (`pat_par`),
# first (`pat_left`), last (`pat_right`) or between the rest (`pat_closed`).
# Each is pinned by what `dump-core` prints and by `dump-graph --binding p`.
LETPAIRS_ACROSS_BOTH_SIDES = {
    "seq-right-left": (
        "let u = unit in let v = unit in let p, q = (u, v) in p; q",
        """
let u = unit in
let v = unit in
let p ox q = u ox v in
let s0 = p in
q
""",
        """
digraph "p" {
  unrestricted [shape=box, label="unrestricted\\np:Unit\\nq:Unit\\nu:Unit\\nv:Unit"];
}
""",
    ),
    "par-par-par": (
        "let a = new {r} in let b = new {r} in let p, q = (a, b) in drop (!{r} p); drop (!{r} q)",
        """
let° a = new_{r} @ unit in
let° b = new_{r} @ unit in
let p ox q = a ox b in
let° s0 = drop @ (op_{r} @ p) in
drop @ (op_{r} @ q)
""",
        """
digraph "p" {
  n0 [label="p:[r]"];
  n1 [label="q:[r]"];
}
""",
    ),
    "par-left-left": (
        "let x0 = new {r*} in let u1 = unit in let b2, y2 = split {r*} x0 in "
        "let p, q = (b2, u1) in drop p; drop y2; q",
        """
let° x0 = new_{r*} @ unit in
let° u1 = unit in
let b2 .o y2 = split_{r*,r*} @ x0 in
let p ox q = b2 ox u1 in
let< s0 = drop @ p in
let s1 = drop @ y2 in
q
""",
        """
digraph "p" {
  n0 [label="p:[r*]"];
  n1 [label="y2:[r*]"];
  n0 -> n1;
  unrestricted [shape=box, label="unrestricted\\nq:Unit\\nu1:Unit"];
}
""",
    ),
    "par-right-right": (
        "let x0 = new {r*} in let u1 = unit in let b2, y2 = split {r*} x0 in "
        "let p, q = (y2, u1) in drop b2; drop p; q",
        """
let° x0 = new_{r*} @ unit in
let° u1 = unit in
let b2 .o y2 = split_{r*,r*} @ x0 in
let p ox q = y2 ox u1 in
let< s0 = drop @ b2 in
let s1 = drop @ p in
q
""",
        """
digraph "p" {
  n0 [label="b2:[r*]"];
  n1 [label="p:[r*]"];
  n0 -> n1;
  unrestricted [shape=box, label="unrestricted\\nq:Unit\\nu1:Unit"];
}
""",
    ),
    "par-right-left": (
        "let x0 = new {r*} in let x1 = new {r*} in let b2, y2 = split {r*} x0 in "
        "let b3, y3 = split {r*} x1 in let p, q = (b3, y2) in drop b2; drop p; drop q; drop y3",
        """
let° x0 = new_{r*} @ unit in
let° x1 = new_{r*} @ unit in
let b2 .o y2 = split_{r*,r*} @ x0 in
let b3 .o y3 = split_{r*,r*} @ x1 in
let p .o q = b3 .o y2 in
let< s0 = drop @ b2 in
let< s1 = drop @ p in
let< s2 = drop @ q in
drop @ y3
""",
        """
digraph "p" {
  n0 [label="b2:[r*]"];
  n1 [label="p:[r*]"];
  n2 [label="q:[r*]"];
  n3 [label="y3:[r*]"];
  n0 -> n1;
  n0 -> n2;
  n0 -> n3;
  n1 -> n2;
  n1 -> n3;
  n2 -> n3;
}
""",
    ),
    "par-left-right": (
        "let x0 = new {r*} in let x1 = new {r*} in let b2, y2 = split {r*} x0 in "
        "let b3, y3 = split {r*} x1 in let p, q = (b2, y3) in drop b3; drop p; drop q; drop y2",
        """
let° x0 = new_{r*} @ unit in
let° x1 = new_{r*} @ unit in
let b2 .o y2 = split_{r*,r*} @ x0 in
let b3 .o y3 = split_{r*,r*} @ x1 in
let p .o q = b2 .o y3 in
let< s0 = drop @ b3 in
let< s1 = drop @ p in
let< s2 = drop @ q in
drop @ y2
""",
        """
digraph "p" {
  n0 [label="b3:[r*]"];
  n1 [label="p:[r*]"];
  n2 [label="q:[r*]"];
  n3 [label="y2:[r*]"];
  n0 -> n1;
  n0 -> n2;
  n0 -> n3;
  n1 -> n2;
  n1 -> n3;
  n2 -> n3;
}
""",
    ),
    "par-closed-closed": (
        "let x0 = new {r*} in let u1 = unit in let b2, y2 = split {r*} x0 in "
        "let b3, y3 = split {r*} b2 in let p, q = (y3, u1) in drop b3; drop p; drop y2; q",
        """
let° x0 = new_{r*} @ unit in
let° u1 = unit in
let b2 .o y2 = split_{r*,r*} @ x0 in
let b3 .o y3 = split_{r*,r*} @ b2 in
let p ox q = y3 ox u1 in
let< s0 = drop @ b3 in
let< s1 = drop @ p in
let s2 = drop @ y2 in
q
""",
        """
digraph "p" {
  n0 [label="b3:[r*]"];
  n1 [label="p:[r*]"];
  n2 [label="y2:[r*]"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n2;
  unrestricted [shape=box, label="unrestricted\\nq:Unit\\nu1:Unit"];
}
""",
    ),
}


@pytest.mark.parametrize("clause", LETPAIRS_ACROSS_BOTH_SIDES)
def test_a_let_pair_across_both_sides_of_the_context(clause, tmp_path, capsys):
    src, core, graph = LETPAIRS_ACROSS_BOTH_SIDES[clause]
    path = tmp_path / "letpair.ord"
    path.write_text(src + "\n", encoding="utf-8")
    assert cli.main(["dump-core", str(path)]) == 0
    assert capsys.readouterr().out == core.lstrip("\n")
    assert cli.main(["dump-graph", str(path), "--binding", "p"]) == 0
    assert capsys.readouterr().out == graph.lstrip("\n")


def test_a_seq_names_its_binder_before_checking_its_first_part(tmp_path, capsys):
    # The names of `;` and of renamed binders share one counter: the outer `;`
    # draws s0 before its first part renames z to z1, and the inner `;` s2 after.
    path = tmp_path / "seq.ord"
    path.write_text(
        "let z = new {r*} in (let z, w = split {r} z in drop (!{r} z); drop w); unit\n",
        encoding="utf-8",
    )
    assert cli.main(["dump-core", str(path)]) == 0
    assert capsys.readouterr().out == (
        "let° z = new_{r*} @ unit in\n"
        "let s0 = (let z1 .o w = split_{r,r*} @ z in\n"
        "let< s2 = drop @ (op_{r} @ z1) in\n"
        "drop @ w) in\n"
        "unit\n"
    )
