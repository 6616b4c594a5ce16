import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlang import core as co
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.checker import TypeCheckError, check_program
from ordlang.opm import get_opm

from conftest import PROGRAMS
from oracles import (
    is_value, naive_surface_fv, reference_locations, reference_subst, reference_types_equal,
)

OPM = get_opm("regex")
R = rx.sym("r")
M = co.TraceType(R)
UNIT = co.UNIT_T


def types(max_depth=5, indices=(rx.sym("r"), rx.sym("w"))):
    base = st.one_of(st.just(UNIT), st.sampled_from([co.TraceType(i) for i in indices]))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(co.MODES), inner, inner, st.sampled_from([0, 1])).map(
                lambda t: co.ArrowType(t[0], t[1], t[2], t[3])
            ),
            st.tuples(st.booleans(), inner, inner).map(
                lambda t: co.ProdType(t[0], t[1], t[2])
            ),
        ),
        max_leaves=2 ** max_depth,
    )


def terms():
    base = st.one_of(
        st.just(co.UNIT),
        st.just(co.DROP),
        st.sampled_from([co.Var(n) for n in "xyz"]),
        st.sampled_from([co.Loc(i) for i in range(2)]),
        st.just(co.NewConst(R)),
        st.just(co.OpConst(R)),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(co.MODES), st.sampled_from("xyz"), inner).map(
                lambda t: co.Lam(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(co.MODES), inner, inner).map(
                lambda t: co.App(t[0], t[1], t[2])
            ),
            st.tuples(st.booleans(), inner, inner).map(
                lambda t: co.Pair(t[0], t[1], t[2])
            ),
            st.tuples(st.booleans(), inner, inner).map(
                lambda t: co.LetPair(t[0], "x", "y", t[1], t[2])
            ),
        ),
        max_leaves=16,
    )


def values():
    return st.one_of(
        st.just(co.UNIT),
        st.sampled_from([co.Loc(i) for i in range(2)]),
        st.tuples(st.sampled_from(co.MODES), st.sampled_from("xyzw"), terms()).map(
            lambda t: co.Lam(t[0], t[1], t[2])
        ),
    )


# -- unr / ord classification

def test_unr_examples():
    assert co.unr(UNIT)
    assert co.unr(co.ArrowType(co.PLAIN, M, M, 1))  # any plain arrow
    assert co.unr(co.ProdType(False, UNIT, UNIT))


def test_ord_examples():
    assert not co.unr(M)
    assert not co.unr(co.ProdType(False, UNIT, M))  # via the right component
    assert not co.unr(co.ProdType(True, M, UNIT))
    for mode in (co.UNORD, co.RIGHT, co.LEFT):
        assert not co.unr(co.ArrowType(mode, UNIT, UNIT, 0))


# -- free variables and substitution

def test_fv_examples():
    assert co.fv(co.Lam(co.UNORD, "x", co.Var("x"))) == frozenset()
    assert co.fv(co.Pair(False, co.Var("x"), co.Var("y"))) == {"x", "y"}
    assert (
        co.fv(co.LetPair(True, "x", "y", co.Var("z"), co.Var("x"))) == {"z"}
    )
    assert co.fv(co.Loc(3)) == frozenset()


def test_subst_examples():
    assert co.subst(co.Var("x"), co.UNIT, "x") == co.UNIT
    lam = co.Lam(co.UNORD, "y", co.Pair(False, co.Var("x"), co.Var("y")))
    out = co.subst(lam, co.Loc(0), "x")
    assert out == co.Lam(co.UNORD, "y", co.Pair(False, co.Loc(0), co.Var("y")))


def test_subst_avoids_capture():
    # the substituted value has a free y, so the binder must be renamed
    lam = co.Lam(co.PLAIN, "y", co.Pair(False, co.Var("x"), co.Var("y")))
    val = co.Lam(co.PLAIN, "z", co.Var("y"))
    out = reference_subst(lam, val, "x")
    assert isinstance(out, co.Lam)
    assert out.var != "y"
    assert co.fv(out) == {"y"}


def _fv_from_scratch(m):
    if isinstance(m, co.Var):
        return {m.name}
    if isinstance(m, co.Lam):
        return _fv_from_scratch(m.body) - {m.var}
    if isinstance(m, co.LetPair):
        return _fv_from_scratch(m.header) | (_fv_from_scratch(m.body) - {m.x, m.y})
    subterms = [getattr(m, f) for f in ("fn", "arg", "left", "right") if hasattr(m, f)]
    return set().union(*map(_fv_from_scratch, subterms))


def test_stored_fv_leaves_equality_hash_and_repr_alone():
    m = co.App(co.PLAIN, co.Var("x"), co.Lam(co.UNORD, "y", co.Var("y")))
    fresh = co.App(co.PLAIN, co.Var("x"), co.Lam(co.UNORD, "y", co.Var("y")))
    assert co.fv(m) is co.fv(m) == {"x"}
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


def _nodes(root, shapes):
    """Every node of a tree, listed without recursion."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, field) for field, _binders in shapes.get(type(node), ()))
    return out


def test_fv_is_stored_on_every_node_as_it_is_built_over_the_corpus():
    # `_fv` is read with no accessor called first, on the surface tree and on
    # the core term the checker elaborates from it
    elaborated = 0
    for path in sorted(PROGRAMS.glob("**/*.ord")):
        program = sf.parse(path.read_text(), OPM)
        for node in _nodes(program, sf.SHAPES):
            assert node._fv == naive_surface_fv(node), (path.name, node)
        try:
            core = check_program(program, OPM).core
        except TypeCheckError:  # the intended rejections
            continue
        elaborated += 1
        for node in _nodes(core, co.SHAPES):
            assert node._fv == _fv_from_scratch(node), (path.name, node)
    assert elaborated >= 20


def test_fv_and_capture_of_a_5000_deep_term():
    # built bottom-up, so each node's set is stored from its subterms' and
    # reading it needs no walk
    n = 5000
    m = co.Pair(False, co.Var("x0"), co.Var("x1"))  # x1 is bound by the innermost λ
    for i in range(n):
        m = co.App(co.PLAIN, co.Lam(co.PLAIN, f"x{i + 1}", m), co.Var(f"y{i}"))
    assert co.fv(m) == {"x0"} | {f"y{i}" for i in range(n)}
    env = {"x0": co.UNIT, "x1": co.UNIT, "y7": co.Loc(7), "z": co.UNIT}
    assert co.capture(m, env) == {"x0": co.UNIT, "y7": co.Loc(7)}


@given(terms(), values(), st.sampled_from("xyz"))
@settings(max_examples=200)
def test_stored_fv_matches_recomputation_after_subst(m, v, x):
    out = co.subst(m, v, x)
    assert co.fv(out) == _fv_from_scratch(out)


@given(terms(), values(), st.sampled_from("xyz"))
@settings(max_examples=200)
def test_subst_void(m, v, x):
    if x not in co.fv(m):
        assert co.subst(m, v, x) == m


@given(terms(), values(), st.sampled_from("xyz"))
@settings(max_examples=200)
def test_subst_respects_fv(m, v, x):
    out = co.subst(m, v, x)
    assert co.fv(out) <= (co.fv(m) - {x}) | co.fv(v)


def test_letpair_binders_must_differ():
    with pytest.raises(ValueError):
        co.LetPair(False, "x", "x", co.UNIT, co.UNIT)


# -- values

def test_is_value():
    assert is_value(co.Pair(True, co.Loc(0), co.Loc(0)))  # l .o l
    assert not is_value(co.App(co.PLAIN, co.Lam(co.PLAIN, "x", co.Var("x")), co.UNIT))
    assert is_value(co.OpConst(R))
    assert is_value(co.Lam(co.LEFT, "x", co.Var("x")))
    assert not is_value(co.Pair(False, co.UNIT, co.Var("x") ))
    assert not is_value(co.Var("x"))


def test_locations_with_multiplicity():
    term = co.Pair(True, co.Loc(0), co.Pair(False, co.Loc(0), co.Loc(1)))
    assert sorted(co.locations(term)) == [0, 0, 1]


@given(terms())
@settings(max_examples=200)
def test_locations_match_the_reference(m):
    assert co.locations(m) == reference_locations(m)


# -- binding structure

@pytest.mark.parametrize("base, shapes", [(co.CoreTerm, co.SHAPES), (sf.SurfaceExpr, sf.SHAPES)])
def test_every_former_is_a_leaf_or_in_its_shape_table(base, shapes):
    # annotations are strings under `from __future__ import annotations`
    formers = base.__subclasses__()
    assert len(formers) >= 10 and set(shapes) <= set(formers)
    for former in formers:
        declared = {k: v for c in former.__mro__[-2::-1] for k, v in c.__annotations__.items()}
        fields = {f: declared[f] for f in former.__match_args__}
        subterms = [name for name, ann in fields.items() if ann == base.__name__]
        if not subterms:
            assert former not in shapes, former
            continue
        shape = shapes[former]
        assert [name for name, _binders in shape] == subterms, former
        # `e1; e2` is the value let whose binder is None
        optional = {(sf.SLet, "x")}
        for _name, binders in shape:
            assert all(
                fields[b] == "str" or (former, b) in optional and fields[b] == "Optional[str]"
                for b in binders
            ), former


# -- stable pretty format

def test_pretty_constants_and_modes():
    assert co.pretty(co.UNIT, OPM) == "unit"
    assert co.pretty(co.NewConst(R), OPM) == "new_{r}"
    assert co.pretty(co.Loc(2), OPM) == "l2"
    assert (
        co.pretty(co.App(co.UNORD, co.Var("f"), co.UNIT), OPM) == "f @° unit"
    )
    assert (
        co.pretty(co.Pair(True, co.Var("a"), co.Var("b")), OPM) == "a .o b"
    )
    assert (
        co.pretty(co.Pair(False, co.Var("a"), co.Var("b")), OPM) == "a ox b"
    )


def test_pretty_let_sugar():
    redex = co.App(co.LEFT, co.Lam(co.LEFT, "x", co.Var("x")), co.UNIT)
    assert co.pretty(redex, OPM) == "let< x = unit in\nx"
    letpair = co.LetPair(True, "a", "b", co.Var("p"), co.Var("a"))
    assert co.pretty(letpair, OPM) == "let a .o b = p in\na"


def test_pretty_mode_marks_on_lambdas():
    assert co.pretty(co.Lam(co.PLAIN, "x", co.Var("x")), OPM) == "λx. x"
    assert co.pretty(co.Lam(co.UNORD, "x", co.Var("x")), OPM) == "λ°x. x"
    assert co.pretty(co.Lam(co.RIGHT, "x", co.Var("x")), OPM) == "λ>x. x"
    assert co.pretty(co.Lam(co.LEFT, "x", co.Var("x")), OPM) == "λ<x. x"


def test_types_equal_semantic_indices():
    a = co.TraceType(rx.alt(rx.sym("r"), rx.sym("w")))
    b = co.TraceType(rx.alt(rx.sym("w"), rx.sym("r")))
    assert co.types_equal(a, b, OPM)
    # distinct languages differ
    assert not co.types_equal(a, co.TraceType(rx.sym("r")), OPM)
    # mode and effect are part of arrow identity
    ar1 = co.ArrowType(co.PLAIN, UNIT, UNIT, 0)
    ar2 = co.ArrowType(co.PLAIN, UNIT, UNIT, 1)
    assert not co.types_equal(ar1, ar2, OPM)
    assert not co.types_equal(
        co.ArrowType(co.RIGHT, UNIT, UNIT, 0),
        co.ArrowType(co.LEFT, UNIT, UNIT, 0),
        OPM,
    )


# Indices each OPM reads, with equivalent but distinct ones under the regex OPM:
# r|w and w|r as unsorted `Alt`s, and a continuation leaf equivalent to w.
EQ_INDICES = {
    "regex": (
        rx.sym("r"), rx.sym("w"),
        rx.Alt((rx.sym("r"), rx.sym("w"))), rx.Alt((rx.sym("w"), rx.sym("r"))),
        rx.product_derivative(rx.cat(rx.sym("r"), rx.sym("w")), rx.sym("r")),
    ),
    "ownership": ("eps", "b", "*"),
}


class RecordingOpm:
    """An OPM whose `eq` calls are recorded, in order."""

    def __init__(self, opm):
        self.opm, self.calls = opm, []

    def eq(self, x, y):
        self.calls.append((x, y))
        return self.opm.eq(x, y)


def _respelled(t, indices):
    """`t` with each index redrawn and each mode, effect and order kept or redrawn."""
    if isinstance(t, co.TraceType):
        return st.sampled_from([co.TraceType(i) for i in indices])
    if isinstance(t, co.ArrowType):
        return st.builds(
            co.ArrowType, st.sampled_from((t.mode, *co.MODES)),
            _respelled(t.param, indices), _respelled(t.result, indices),
            st.sampled_from((t.effect, 0, 1)),
        )
    if isinstance(t, co.ProdType):
        return st.builds(
            co.ProdType, st.sampled_from((t.ordered, not t.ordered)),
            _respelled(t.left, indices), _respelled(t.right, indices),
        )
    return st.just(t)


@pytest.mark.parametrize("name", sorted(EQ_INDICES))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_types_equal_matches_the_reference_and_asks_the_same_eqs(name, data):
    indices = EQ_INDICES[name]
    a = data.draw(types(3, indices))
    b = data.draw(st.one_of(types(3, indices), _respelled(a, indices)))
    ours, theirs = RecordingOpm(get_opm(name)), RecordingOpm(get_opm(name))
    assert co.types_equal(a, b, ours) == reference_types_equal(a, b, theirs)
    assert ours.calls == theirs.calls
