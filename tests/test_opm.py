import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlang import regex as rx
from ordlang.opm import FiniteOpm, OpmError, get_opm, known_opms, ownership_opm

from test_regex import regexes

OWN = ownership_opm()
E, B, S = "eps", "b", "*"

# Multiplication table: rows are the left operand, None marks undefined.
MUL_TABLE = {
    (E, E): E, (E, B): B, (E, S): S,
    (B, E): B, (B, B): B, (B, S): S,
    (S, E): S, (S, B): None, (S, S): None,
}

# Order table: (x, y) -> whether x ≤ y.
LEQ_TABLE = {
    (E, E): True, (E, B): True, (E, S): False,
    (B, E): False, (B, B): True, (B, S): False,
    (S, E): False, (S, B): False, (S, S): True,
}


def test_ownership_multiplication_all_nine_cells():
    for (x, y), expected in MUL_TABLE.items():
        assert OWN.mul(x, y) == expected, (x, y)


def test_ownership_order_all_nine_cells():
    for (x, y), expected in LEQ_TABLE.items():
        assert OWN.leq(x, y) is expected, (x, y)


def test_neutral_element_two_sided():
    for m in OWN.carrier:
        assert OWN.mul(E, m) == m
        assert OWN.mul(m, E) == m


def test_associativity_definedness_symmetry_exhaustive():
    for x, y, z in itertools.product(OWN.carrier, repeat=3):
        xy = OWN.mul(x, y)
        yz = OWN.mul(y, z)
        left = OWN.mul(xy, z) if xy is not None else None
        right = OWN.mul(x, yz) if yz is not None else None
        assert (left is None) == (right is None), (x, y, z)
        if left is not None:
            assert left == right, (x, y, z)


def test_downward_closure_exhaustive():
    for m, m2, n, n2 in itertools.product(OWN.carrier, repeat=4):
        if OWN.leq(m, m2) and OWN.leq(n, n2) and OWN.mul(m2, n2) is not None:
            small = OWN.mul(m, n)
            assert small is not None, (m, m2, n, n2)
            assert OWN.leq(small, OWN.mul(m2, n2)), (m, m2, n, n2)


def test_preorder_reflexive_transitive():
    for m in OWN.carrier:
        assert OWN.leq(m, m)
    for x, y, z in itertools.product(OWN.carrier, repeat=3):
        if OWN.leq(x, y) and OWN.leq(y, z):
            assert OWN.leq(x, z)


def test_droppable():
    assert OWN.droppable(E)
    # eps ≤ b holds, so a plain borrow may be discarded
    assert OWN.droppable(B)
    assert not OWN.droppable(S)


def test_droppable_unit_in_every_instance():
    for name in known_opms():
        inst = get_opm(name)
        assert inst.droppable(inst.unit()), name


def test_residual_exists():
    # z = * witnesses b ⊙ * = * ≤ *
    assert OWN.residual_exists(B, S)
    assert not OWN.residual_exists(S, B)
    for m in OWN.carrier:
        assert OWN.residual_exists(E, m)  # z = m


def test_residual_matches_exhaustive_search():
    for x, y in itertools.product(OWN.carrier, repeat=2):
        expected = any(
            OWN.mul(x, z) is not None and OWN.leq(OWN.mul(x, z), y)
            for z in OWN.carrier
        )
        assert OWN.residual_exists(x, y) is expected


def test_best_continuation_is_a_maximal_witness():
    for x, y in itertools.product(OWN.carrier, repeat=2):
        z = OWN.best_continuation(x, y)
        if z is None:
            assert not OWN.residual_exists(x, y)
            continue
        assert OWN.leq(OWN.mul(x, z), y)
        for w in OWN.carrier:
            if OWN.mul(x, w) is not None and OWN.leq(OWN.mul(x, w), y):
                assert not (OWN.leq(z, w) and not OWN.leq(w, z)), (x, y, z, w)


def test_best_continuation_examples():
    assert OWN.best_continuation(B, S) == S  # borrow off an owned reference
    assert OWN.best_continuation(B, B) == B
    assert OWN.best_continuation(S, S) == E  # nothing may follow ownership
    assert OWN.best_continuation(S, B) is None


def test_parse_element():
    assert OWN.parse_element(" b ") == B
    assert OWN.parse_element("*") == S
    with pytest.raises(OpmError):
        OWN.parse_element("q")


def test_registry():
    assert "ownership" in known_opms()
    assert "regex" in known_opms()
    assert get_opm("ownership").name == "ownership"
    with pytest.raises(OpmError):
        get_opm("nonesuch")


# -- the evaluator's admission: the index a location has left, by the
# quotient law (u·v)⁻¹L = v⁻¹(u⁻¹L), against the trace-based decision


def _walk_verdicts(opm, envelope, walk):
    """Per op of `walk` from a fresh location, whether it is admitted, then
    whether the location may be dropped: by the index left and by the trace.
    The walk stops at the first op that either refuses."""
    left, trace = envelope, opm.unit()
    by_left, by_trace = [], []
    for op in walk:
        left = opm.best_continuation(op, left)
        extended = opm.mul(trace, op)
        by_left.append(left is not None)
        by_trace.append(extended is not None and opm.residual_exists(extended, envelope))
        if left is None or not by_trace[-1]:
            return by_left, by_trace
        trace = extended
    return by_left + [opm.droppable(left)], by_trace + [opm.leq(trace, envelope)]


def test_index_left_gives_the_trace_verdicts_on_every_finite_opm():
    finite = [get_opm(name) for name in known_opms()]
    finite = [opm for opm in finite if isinstance(opm, FiniteOpm)]
    assert [opm.name for opm in finite] == ["ownership"]  # regex: the property below
    walks = 0
    for opm in finite:
        for envelope in opm.carrier:
            for k in range(5):
                for walk in itertools.product(opm.carrier, repeat=k):
                    by_left, by_trace = _walk_verdicts(opm, envelope, walk)
                    assert by_left == by_trace, (opm.name, envelope, walk)
                    walks += 1
    assert walks == 363, walks


@st.composite
def envelope_walks(draw):
    envelope = draw(regexes())
    symbols = sorted(rx.symbols(envelope)) + ["z"]  # z: foreign to every envelope
    walk = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=6))
    return envelope, [rx.sym(a) for a in walk]


@given(envelope_walks())
@settings(max_examples=300, deadline=None)
def test_index_left_gives_the_trace_verdicts_on_the_regex_opm(case):
    envelope, walk = case
    by_left, by_trace = _walk_verdicts(get_opm("regex"), envelope, walk)
    assert by_left == by_trace, (rx.show(envelope), [rx.show(op) for op in walk])
