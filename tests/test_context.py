import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlang import context as cx
from ordlang import core as co
from ordlang import regex as rx
from ordlang.opm import get_opm

from oracles import (
    bindings,
    brute_equiv,
    brute_subcontext,
    focus,
    in_unit_normal_form,
    is_pattern,
    naive_restrict,
    rebuild_ctx,
    reference_pat_left,
    reference_pat_right,
    restrict_keeping_units,
    unique_topological_ordering,
    usage_projection,
    well_formed,
)

OPM = get_opm("regex")
M1 = co.TraceType(rx.sym("r"))
M2 = co.TraceType(rx.sym("w"))
UA = co.UNIT_T  # unrestricted

X = cx.Bind(cx.var_bind("x", M1))
Y = cx.Bind(cx.var_bind("y", M2))
U = cx.Bind(cx.var_bind("u", UA))
L0 = cx.Bind(cx.loc_bind(0, rx.sym("r")))
L0C = cx.Bind(cx.loc_bind(0, rx.sym("c")))
L1 = cx.Bind(cx.loc_bind(1, rx.sym("w")))


def leaf_bindings():
    return st.sampled_from([X, Y, U, cx.EMPTY])


def contexts(max_leaves=4):
    return st.recursive(
        leaf_bindings(),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: cx.Seq(*t)),
            st.tuples(inner, inner).map(lambda t: cx.Par(*t)),
        ),
        max_leaves=max_leaves,
    ).filter(well_formed)


# -- interpretation

def test_interpret_empty():
    i = cx.interpret(cx.EMPTY)
    assert i.graph == cx.EMPTY_GRAPH
    assert i.unrs == frozenset()


def test_interpret_seq_adds_edge():
    i = cx.interpret(cx.Seq(X, Y))
    assert i.graph.n == 2
    assert i.graph.edges == {(0, 1)}


def test_interpret_par_no_edge():
    i = cx.interpret(cx.Par(X, Y))
    assert i.graph.n == 2
    assert i.graph.edges == frozenset()


def test_interpret_unr_goes_to_set():
    i = cx.interpret(cx.Seq(U, X))
    assert i.graph.n == 1
    assert i.graph.edges == frozenset()
    assert i.unrs == {U.binding}


def test_graph_join_units():
    # the empty context is a unit of `,` and `∥`, on either side
    g = cx.interpret(cx.Seq(X, Y)).graph
    for former in (cx.Seq, cx.Par):
        assert cx.interpret(former(cx.Seq(X, Y), cx.EMPTY)).graph == g
        assert cx.interpret(former(cx.EMPTY, cx.Seq(X, Y))).graph == g


def test_graph_join_cross_edges():
    # `,` adds an edge from each vertex on its left to each on its right; `∥` none
    assert cx.interpret(cx.Seq(cx.Par(X, Y), L0)).graph.edges == {(0, 2), (1, 2)}
    assert cx.interpret(cx.Seq(X, cx.Par(Y, L0))).graph.edges == {(0, 1), (0, 2)}
    assert cx.interpret(cx.Par(cx.Seq(X, Y), L0)).graph.edges == {(0, 1)}
    assert cx.interpret(cx.Par(X, cx.Seq(Y, L0))).graph.edges == {(1, 2)}


# -- iso / equiv / subcontext

def iso(g1, g2):
    """A label- and edge-set-preserving bijection, as `cx.equiv` decides it."""
    return cx.spanning_embed(g1, g2) and cx.spanning_embed(g2, g1)


def test_iso_reflexive():
    g = cx.interpret(cx.Seq(X, cx.Par(Y, U))).graph
    assert iso(g, g)


def test_union_commutes_up_to_iso():
    a = cx.Seq(X, Y)
    assert iso(cx.interpret(cx.Par(a, L0)).graph, cx.interpret(cx.Par(L0, a)).graph)
    assert iso(cx.interpret(cx.Par(a, U)).graph, cx.interpret(a).graph)  # U: no vertex


def test_iso_distinguishes_edges():
    with_edge = cx.interpret(cx.Seq(X, Y)).graph
    without = cx.interpret(cx.Par(X, Y)).graph
    assert not iso(with_edge, without)


def test_equiv_unit_laws():
    g = cx.Seq(X, Y)
    assert cx.equiv(cx.Seq(g, cx.EMPTY), g)
    assert cx.equiv(cx.Seq(cx.EMPTY, g), g)
    assert cx.equiv(cx.Par(g, cx.EMPTY), g)


def test_equiv_par_commutative():
    assert cx.equiv(cx.Par(X, Y), cx.Par(Y, X))


def test_equiv_rejects_seq_vs_par():
    assert not cx.equiv(cx.Seq(X, Y), cx.Par(X, Y))


def test_equiv_demotion():
    # an unrestricted binding's position is irrelevant
    assert cx.equiv(cx.Seq(U, X), cx.Par(X, U))
    assert cx.equiv(cx.Par(U, U), U)  # contraction via the set semantics


def test_subcontext_span():
    assert cx.subcontext(cx.Par(X, Y), cx.Seq(X, Y))
    assert not cx.subcontext(cx.Seq(X, Y), cx.Par(X, Y))


def test_subcontext_dist_laws():
    g1, g2, g3 = X, Y, L0
    assert cx.subcontext(cx.Par(g1, cx.Seq(g2, g3)), cx.Seq(cx.Par(g1, g2), g3))
    assert cx.subcontext(cx.Par(cx.Seq(g1, g2), g3), cx.Seq(g1, cx.Par(g2, g3)))


def test_subcontext_unr_superset():
    # the smaller side may carry extra unrestricted bindings
    assert cx.subcontext(cx.Par(X, U), X)
    assert not cx.subcontext(X, cx.Par(X, U))


@given(contexts(), contexts())
@settings(max_examples=250)
def test_equiv_matches_brute_force(c1, c2):
    assert cx.equiv(c1, c2) == brute_equiv(c1, c2)


@given(contexts(), contexts())
@settings(max_examples=250)
def test_subcontext_matches_brute_force(c1, c2):
    assert cx.subcontext(c1, c2) == brute_subcontext(c1, c2)


@given(contexts())
@settings(max_examples=100)
def test_equiv_implies_subcontext_both_ways(c):
    variants = [cx.Seq(c, cx.EMPTY), cx.Par(cx.EMPTY, c)]
    for v in variants:
        assert cx.equiv(c, v)
        assert cx.subcontext(c, v) and cx.subcontext(v, c)


# -- congruence

def patterns():
    return st.sampled_from(
        [
            cx.HOLE,
            cx.Seq(cx.HOLE, Y),
            cx.Seq(Y, cx.HOLE),
            cx.Par(cx.HOLE, Y),
            cx.Par(cx.Seq(Y, cx.HOLE), U),
        ]
    )


@given(patterns(), contexts(max_leaves=3), contexts(max_leaves=3))
@settings(max_examples=150)
def test_equiv_and_subcontext_are_congruences(g, c1, c2):
    f1, f2 = cx.fill(g, c1), cx.fill(g, c2)
    if not (well_formed(f1) and well_formed(f2)):
        return
    if cx.equiv(c1, c2):
        assert cx.equiv(f1, f2)
    if cx.subcontext(c1, c2):
        assert cx.subcontext(f1, f2)


# -- restriction

def test_restrict_examples():
    # dropped bindings leave no · behind (unit laws)
    ctx = cx.Par(X, Y)
    assert cx.restrict(ctx, frozenset({"x"})) == X
    assert cx.restrict(ctx, frozenset({"x", "y"})) == ctx
    assert cx.restrict(X, frozenset()) == cx.EMPTY
    # locations survive restriction
    assert cx.restrict(cx.Seq(L0, X), frozenset()) == L0


def test_smart_constructors_apply_unit_laws():
    assert cx.seq(X, cx.EMPTY) == X and cx.seq(cx.EMPTY, X) == X
    assert cx.par(X, cx.EMPTY) == X and cx.par(cx.EMPTY, X) == X
    assert cx.seq(cx.EMPTY, cx.EMPTY) == cx.EMPTY
    assert cx.seq(X, Y) == cx.Seq(X, Y) and cx.par(X, Y) == cx.Par(X, Y)
    assert cx.seq(cx.HOLE, cx.EMPTY) == cx.HOLE


names_sets = st.sets(st.sampled_from(["x", "y", "u"]), max_size=3).map(frozenset)


@given(contexts(), names_sets, names_sets)
@settings(max_examples=300)
def test_restrict_fill_decompose_keep_unit_normal_form(ctx, keep, names):
    live = cx.restrict(ctx, keep)
    assert in_unit_normal_form(live)
    assert cx.equiv(live, restrict_keeping_units(ctx, keep))
    got = cx.decompose(live, names)
    if got is not None:
        pattern, inner = got
        assert in_unit_normal_form(pattern) and in_unit_normal_form(inner)
        assert in_unit_normal_form(cx.fill(pattern, inner))


def test_restrict_still_rejects_patterns():
    with pytest.raises(ValueError):
        cx.restrict(cx.Seq(X, cx.HOLE), frozenset({"x"}))


# -- deciding the checker's splits on the tree

ORDERED = [cx.Bind(cx.var_bind(f"o{i}", (M1, M2)[i % 2])) for i in range(5)]
UNRESTRICTED = [cx.Bind(cx.var_bind(f"u{i}", UA)) for i in range(2)]
SPLIT_NAMES = [f"o{i}" for i in range(5)] + ["u0", "u1"]


@st.composite
def unique_label_contexts(draw):
    """Seq/Par trees over a random selection of five ordered variables, two
    unrestricted ones and a location, each ordered binding at most once.
    An unrestricted binding may repeat, and a `·` may sit below a former."""
    pool = ORDERED + UNRESTRICTED + [UNRESTRICTED[0], L0, cx.EMPTY]
    leaves = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]

    def build(items):
        if len(items) == 1:
            return items[0]
        cut = draw(st.integers(1, len(items) - 1))
        former = draw(st.sampled_from([cx.Seq, cx.Par]))
        return former(build(items[:cut]), build(items[cut:]))

    return build(leaves)


split_names = st.sets(st.sampled_from(SPLIT_NAMES)).map(frozenset)


@given(unique_label_contexts(), split_names, split_names)
@settings(max_examples=300)
def test_split_violation_matches_brute_force(ctx, a, b):
    # A and B may overlap and may miss bindings of ctx
    first, second = cx.restrict(ctx, a), cx.restrict(ctx, b)
    ords = {x for x in bindings(ctx) if not co.unr(x.type)}
    side_a, side_b = set(bindings(first)), set(bindings(second))
    g = cx.interpret(ctx).graph
    edges = {(g.labels[i], g.labels[j]) for i, j in g.edges}
    for former in (cx.seq, cx.par):
        got = cx.split_violation(ctx, first, second, former)
        assert (got is None) == brute_subcontext(ctx, former(first, second)), former
        if got is None:
            continue
        kind, x, y = got
        if kind == "shared":
            assert x in side_a and x in side_b
        elif kind == "discarded":
            assert x in ords and x not in side_a | side_b
        else:
            # ctx orders x before y, and the split reverses or drops that
            assert kind == "ordered" and (x, y) in edges
            if former is cx.seq:
                assert x in side_b and y in side_a
            else:
                assert (x in side_a) != (y in side_a)


def test_split_violation_witnesses():
    ctx = cx.Seq(X, Y)
    fx, fy = cx.restrict(ctx, frozenset({"x"})), cx.restrict(ctx, frozenset({"y"}))
    assert cx.split_violation(ctx, fx, fy, cx.seq) is None
    assert cx.split_violation(ctx, fy, fx, cx.seq) == ("ordered", X.binding, Y.binding)
    assert cx.split_violation(ctx, fx, fy, cx.par) == ("ordered", X.binding, Y.binding)
    assert cx.split_violation(ctx, fx, cx.EMPTY, cx.seq) == ("discarded", Y.binding, None)
    assert cx.split_violation(ctx, ctx, fy, cx.par) == ("shared", Y.binding, None)
    assert cx.split_violation(cx.Par(X, U), cx.EMPTY, U, cx.seq) == ("discarded", X.binding, None)
    assert cx.split_violation(U, cx.EMPTY, cx.EMPTY, cx.seq) is None


FIELDS = {cx.Empty: [], cx.Hole: [], cx.Bind: ["binding"], cx.Seq: ["left", "right"],
          cx.Par: ["left", "right"]}


def test_ctx_repr_and_fields_ignore_stored_facts():
    ctx = cx.Seq(X, cx.Par(cx.EMPTY, U))
    cx.restrict(ctx, frozenset({"x"}))
    assert repr(ctx).startswith("Seq(left=Bind(binding=Binding(kind='var', name='x'")
    assert "_facts" not in repr(ctx)
    for cls, names in FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names


@given(unique_label_contexts(), split_names)
@settings(max_examples=200)
def test_stored_facts_leave_equality_hash_and_repr_alone(ctx, names):
    before, fresh = repr(ctx), rebuild_ctx(ctx)
    assert ctx == fresh and fresh == ctx and hash(ctx) == hash(fresh)
    assert repr(ctx) == repr(fresh) == before
    # the hash the generated dataclass hash gives: that of the field tuple
    assert hash(ctx) == hash(tuple(getattr(ctx, f.name) for f in dataclasses.fields(ctx)))
    # the stored facts agree with a walk over the leaves
    leaves = bindings(ctx)
    assert cx.dom_vars(ctx) == {b.name for b in leaves if b.kind == "var"}
    assert cx.all_unr(ctx) == all(co.unr(b.type) for b in leaves)
    for name in SPLIT_NAMES:
        want = next((b for b in leaves if b.kind == "var" and b.name == name), None)
        assert cx.lookup_var(ctx, name) == want
    assert cx.restrict(ctx, names) == naive_restrict(ctx, names)


def test_facts_of_a_5000_deep_seq_chain():
    # built bottom-up around the hole, so each node's facts are stored from
    # its sides' and reading them needs no walk
    n = 5000
    ctx = cx.HOLE
    for i in range(n):
        ctx = cx.Seq(cx.Bind(cx.var_bind(f"u{i}", UA)), ctx)
    assert cx.dom_vars(ctx) == {f"u{i}" for i in range(n)}
    assert cx.all_unr(ctx) and cx.hole_count(ctx) == 1
    ordered = cx.Seq(ctx, X)
    assert cx.dom_vars(ordered) == cx.dom_vars(ctx) | {"x"}
    assert not cx.all_unr(ordered) and cx.hole_count(ordered) == 1
    assert cx.hole_count(cx.Par(ordered, ctx)) == 2


# -- decomposition

def test_decompose_single_ordered_binding():
    got = cx.decompose(X, frozenset({"x"}))
    assert got == (cx.HOLE, X)


def test_decompose_without_names_orders_hole_against_nothing():
    ctx = cx.Par(cx.Seq(X, Y), L0)
    assert cx.decompose(ctx, frozenset()) == (cx.Par(cx.HOLE, ctx), cx.EMPTY)
    assert cx.decompose(ctx, frozenset({"z"})) == (cx.Par(cx.HOLE, ctx), cx.EMPTY)
    assert cx.decompose(cx.EMPTY, frozenset()) == (cx.HOLE, cx.EMPTY)


def test_decompose_interleaved_pairs():
    x2 = cx.Bind(cx.var_bind("x2", M2))
    y1 = cx.Bind(cx.var_bind("y1", M1))
    y2 = cx.Bind(cx.var_bind("y2", M2))
    ctx = cx.Par(cx.Seq(X, x2), cx.Seq(y1, y2))
    got = cx.decompose(ctx, frozenset({"x"}))
    assert got is not None
    pattern, inner = got
    assert inner == X
    assert pattern == cx.Par(cx.Seq(cx.HOLE, x2), cx.Seq(y1, y2))


def test_decompose_unrestricted_lands_in_both_parts():
    ctx = cx.Par(U, Y)
    got = cx.decompose(ctx, frozenset({"u"}))
    assert got is not None
    pattern, inner = got
    assert inner == U
    assert pattern == cx.Par(cx.Par(cx.HOLE, U), Y)


def test_decompose_failure_on_inseparable_orders():
    # pulling x and z (but not y) out of x, y, z interleaves orders
    z = cx.Bind(cx.var_bind("z", M1))
    ctx = cx.Seq(X, cx.Seq(Y, z))
    assert cx.decompose(ctx, frozenset({"x", "z"})) is None


def _check_postconditions(ctx, names):
    got = cx.decompose(ctx, names)
    if got is None:
        return
    pattern, inner = got
    assert is_pattern(pattern)
    # (a) the context weakens to the filled pattern
    assert cx.subcontext(ctx, cx.fill(pattern, inner))
    # (b) the result binds only requested names
    assert cx.dom_vars(inner) <= names
    # (c) no ordered binding of a requested name remains in the pattern
    for b in bindings(pattern):
        if b.kind == "var" and not co.unr(b.type):
            assert b.name not in names
    # (d) unrestricted requested bindings occur on both sides
    for b in bindings(ctx):
        if b.kind == "var" and co.unr(b.type) and b.name in names:
            assert b in bindings(pattern)
            assert b in bindings(inner)


@given(contexts(), st.sets(st.sampled_from(["x", "y", "u"]), max_size=3))
@settings(max_examples=400)
def test_decompose_postconditions(ctx, names):
    _check_postconditions(ctx, frozenset(names))


def _trees(leaves):
    """Every tree with `leaves` in this order, with both formers at each node."""
    if len(leaves) == 1:
        return [leaves[0]]
    return [
        former(left, right)
        for i in range(1, len(leaves))
        for left in _trees(leaves[:i])
        for right in _trees(leaves[i:])
        for former in (cx.seq, cx.par)
    ]


def test_decompose_matches_the_recursive_extractors_exhaustively(monkeypatch):
    # pat_right and pat_left read pat_closed; the references recurse on
    # their own.  Every tree of 1-4 distinct leaves from three ordered and
    # two unrestricted bindings, under each name set: the same Γ' (or None),
    # the same filled interpretation, and the postconditions.  The filled
    # pattern binds the names ctx binds, so the checker freshens pair
    # binders against ctx.
    a, b, c = (cx.Bind(cx.var_bind(n, M1)) for n in "abc")
    u, v = (cx.Bind(cx.var_bind(n, UA)) for n in "uv")
    z = cx.Bind(cx.var_bind("z", M2))
    pool = (a, b, c, u, v)
    ctxs = [
        t for k in range(1, 5) for leaves in itertools.permutations(pool, k) for t in _trees(leaves)
    ]
    name_sets = [frozenset(s) for s in ("a", "ab", "au", "abu", "bc", "acv")]
    cases = [(ctx, names) for ctx in ctxs for names in name_sets]

    monkeypatch.setattr(cx, "pat_right", reference_pat_right)
    monkeypatch.setattr(cx, "pat_left", reference_pat_left)
    expected = [cx.decompose(ctx, names) for ctx, names in cases]
    monkeypatch.undo()
    # the postcondition pass decomposes each case once; keep its answer
    real, last = cx.decompose, []
    monkeypatch.setattr(cx, "decompose", lambda ctx, names: last.append(real(ctx, names)) or last[-1])
    for (ctx, names), want in zip(cases, expected):
        _check_postconditions(ctx, names)
        got = last.pop()
        assert (got is None) == (want is None), (ctx, names)
        if got is not None:
            # equal patterns fill alike; unequal ones may only group
            # unrestricted bindings differently
            assert got[1] == want[1], (ctx, names)
            if got[0] != want[0]:
                fills = (cx.fill(got[0], z), cx.fill(want[0], z))
                assert cx.interpret(fills[0]) == cx.interpret(fills[1]), (ctx, names)
            assert cx.dom_vars(cx.fill(*got)) == cx.dom_vars(ctx)
    assert len(cases) == 6 * (5 + 40 + 480 + 4800)
    assert sum(want is not None for want in expected) == 27786


# -- pattern extractors

def test_pattern_extractors():
    # results are read up to context equivalence
    assert cx.equiv(cx.pat_right(cx.Seq(X, cx.HOLE)), X)
    assert cx.equiv(cx.pat_right(cx.HOLE), cx.EMPTY)
    assert cx.pat_right(cx.Par(X, cx.HOLE)) is None
    assert cx.equiv(cx.pat_right(cx.Par(U, cx.HOLE)), U)
    assert cx.equiv(cx.pat_left(cx.Seq(cx.HOLE, Y)), Y)
    assert cx.pat_left(cx.Seq(Y, cx.HOLE)) is None
    assert cx.equiv(cx.pat_par(cx.Par(X, cx.HOLE)), X)
    assert cx.pat_par(cx.Seq(X, cx.HOLE)) is None
    a, b = cx.pat_closed(cx.Seq(X, cx.Seq(cx.HOLE, Y)))
    assert cx.equiv(a, X) and cx.equiv(b, Y)
    assert cx.pat_closed(cx.Par(X, cx.HOLE)) is None


# -- runtime-context utilities

def test_focus():
    assert focus(L0, 0) == L0
    assert focus(cx.Par(L0, L1), 0) == L0
    assert focus(cx.Par(L1, cx.Seq(L0, L1)), 0) == L0
    assert focus(cx.EMPTY, 0) == cx.EMPTY
    with pytest.raises(ValueError):
        focus(X, 0)


def test_unique_topological_ordering():
    single = cx.interpret(L0).graph
    assert unique_topological_ordering(single) == (0,)
    chain = cx.interpret(cx.Seq(L0, L1)).graph
    assert unique_topological_ordering(chain) == (0, 1)
    split = cx.interpret(cx.Par(L0, L1)).graph
    assert unique_topological_ordering(split) is None
    assert unique_topological_ordering(cx.EMPTY_GRAPH) == ()


def test_usage_projection():
    # fold over the forced order: r then c gives the word rc
    got = usage_projection(cx.Seq(L0, L0C), OPM)
    assert got is not None and rx.equivalent(got, rx.cat(rx.sym("r"), rx.sym("c")))
    assert OPM.eq(usage_projection(cx.EMPTY, OPM), rx.EPS)
    assert usage_projection(cx.Par(L0, cx.Bind(cx.loc_bind(0, rx.sym("w")))), OPM) is None


def test_usage_projection_undefined_product():
    own = get_opm("ownership")
    a = cx.Bind(cx.loc_bind(0, "*"))
    b = cx.Bind(cx.loc_bind(0, "b"))
    # * ⊙ b is undefined in the ownership algebra
    assert usage_projection(cx.Seq(a, b), own) is None
    assert usage_projection(cx.Seq(b, a), own) == "*"


def test_well_formedness():
    assert well_formed(cx.Seq(X, Y))
    assert well_formed(cx.Par(U, U))  # unrestricted may repeat
    assert not well_formed(cx.Seq(X, X))  # ordered binding repeated
    other_type = cx.Bind(cx.var_bind("x", M2))
    assert not well_formed(cx.Seq(X, other_type))  # two types for x
    assert well_formed(cx.Seq(L0, L0))  # locations may repeat


def test_to_dot_mentions_labels():
    interp = cx.interpret(cx.Par(cx.Seq(X, Y), U))
    dot = cx.to_dot(interp, OPM)
    assert "x:[r]" in dot and "y:[w]" in dot
    assert "unrestricted" in dot
    assert "n0 -> n1" in dot
