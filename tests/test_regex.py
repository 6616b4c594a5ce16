import os
import pathlib
import pickle
import random
import re
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.checker import TypeCheckError, check_program
from ordlang.cli import main
from ordlang.interp import run
from ordlang.opm import OpmError

from conftest import GOLDEN, scaling_families, workload_round
from oracles import (
    dfa_accepts,
    language_sample,
    naive_match,
    naive_show,
    naive_symbols,
    random_regex,
    rebuild_regex,
    reference_best_continuation,
    reference_continuation_dfa,
    reference_includes,
    reference_parse_regex,
    reference_regex_from_dfa,
    reference_to_dfa,
    words_upto,
)
from test_interp import _ops

R, W, C = rx.sym("r"), rx.sym("w"), rx.sym("c")
RW_STAR = rx.star(rx.alt(R, W))
ENVELOPE = rx.cat(RW_STAR, C)  # (r|w)*c


def regexes(alphabet="rwc", max_depth=4):
    base = st.sampled_from([rx.EPS] + [rx.sym(ch) for ch in alphabet])
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: rx.cat(*p)),
            st.tuples(inner, inner).map(lambda p: rx.alt(*p)),
            inner.map(rx.star),
        ),
        max_leaves=2 ** max_depth,
    )


def test_nullable():
    assert rx.nullable(RW_STAR)
    assert not rx.nullable(C)
    # independent check at length 0: the empty word is not in (r|w)*c
    assert not naive_match(ENVELOPE, "")
    assert not rx.nullable(ENVELOPE)


def test_derivative_examples():
    assert rx.derivative(C, "c") == rx.EPS
    assert rx.derivative(C, "r") == rx.EMPTY
    # derivative of the envelope by r is the envelope again, checked
    # against the brute-force matcher on all short words
    d = rx.derivative(ENVELOPE, "r")
    for word in words_upto("rwc", 5):
        assert naive_match(d, word) == naive_match(ENVELOPE, "r" + word)


@given(regexes(), st.sampled_from("rwc"))
@settings(max_examples=120)
def test_derivative_is_left_quotient(r, a):
    d = rx.derivative(r, a)
    for word in words_upto("rwc", 3):
        assert naive_match(d, word) == naive_match(r, a + word)


def test_to_dfa_single_symbol():
    dfa = rx.to_dfa(C, ("c", "r", "w"))
    assert dfa.n_states == 3  # start, accept, sink
    for word in words_upto("rwc", 4):
        assert dfa_accepts(dfa, word) == naive_match(C, word)


def test_to_dfa_empty_language():
    dfa = rx.to_dfa(rx.EMPTY, ("r",))
    assert dfa.n_states == 1
    assert not dfa.accepting


def test_to_dfa_rw_star():
    dfa = rx.to_dfa(RW_STAR, ("c", "r", "w"))
    assert dfa.n_states == 2  # accepting loop plus sink for c
    assert len(dfa.accepting) == 1
    for word in words_upto("rwc", 4):
        assert dfa_accepts(dfa, word) == naive_match(RW_STAR, word)


def _to_dfa_under(budget, r, alphabet):
    """`to_dfa` with the state budget patched to `budget`, its cache cleared
    before and after so that no DFA built under another budget answers."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rx, "DEFAULT_STATE_BUDGET", budget)
        rx.to_dfa.cache_clear()
        try:
            return rx.to_dfa(r, alphabet)
        finally:
            rx.to_dfa.cache_clear()


def test_to_dfa_state_budget():
    with pytest.raises(rx.StateBudgetExceeded):
        _to_dfa_under(1, ENVELOPE, ("r", "w", "c"))


def test_includes_examples():
    assert rx.includes(RW_STAR, rx.star(R))
    # splitting the classic borrow: (r|w)* · (r|w)*c is inside (r|w)*c
    assert rx.includes(ENVELOPE, rx.cat(RW_STAR, ENVELOPE))
    assert not rx.includes(R, W)


@given(regexes(max_depth=3), regexes(max_depth=3))
@settings(max_examples=150)
def test_includes_matches_brute_force(a, b):
    expected = language_sample(b, "rwc", 5) <= language_sample(a, "rwc", 5)
    got = rx.includes(a, b)
    if got:
        assert expected
    elif expected:
        # disagreement beyond the sampled horizon must be a real word
        assert any(
            naive_match(b, word) and not naive_match(a, word)
            for word in words_upto("rwc", 8)
        )


def test_product_derivative_envelope_by_borrows():
    # borrowing r* (or w*) from the file envelope leaves the envelope
    for borrow in (rx.star(R), rx.star(W)):
        pd = rx.product_derivative(ENVELOPE, borrow)
        assert rx.equivalent(pd, ENVELOPE)


def test_product_derivative_neutral_divisor():
    for r in (ENVELOPE, RW_STAR, rx.cat(R, C)):
        assert rx.equivalent(rx.product_derivative(r, rx.EPS), r)


def test_product_derivative_empty_divisor_rejected():
    with pytest.raises(ValueError):
        rx.product_derivative(ENVELOPE, rx.EMPTY)


def _pd_sound_and_maximal(num, den, alphabet="rwc"):
    pd = rx.product_derivative(num, den)
    # soundness: den · pd ⊆ num
    assert rx.includes(num, rx.cat(den, pd))
    # sampled maximality: any short word outside pd has a short den-word
    # whose concatenation escapes num
    den_words = [u for u in words_upto(alphabet, 5) if naive_match(den, u)]
    for w in words_upto(alphabet, 4):
        if naive_match(pd, w):
            continue
        assert any(not naive_match(num, u + w) for u in den_words), (num, den, w)


def test_product_derivative_sound_and_maximal_examples():
    _pd_sound_and_maximal(ENVELOPE, rx.star(R))
    _pd_sound_and_maximal(rx.cat(R, C), R)
    _pd_sound_and_maximal(RW_STAR, rx.alt(R, W))


@given(regexes(max_depth=3), regexes(max_depth=3))
@settings(max_examples=60)
def test_product_derivative_sound_and_maximal_random(num, den):
    if rx.is_empty_language(den):
        return
    _pd_sound_and_maximal(num, den)


@given(st.lists(regexes(max_depth=2), max_size=8))
@settings(max_examples=200)
def test_a_trace_grown_by_mul_shows_as_the_one_grown_by_cat(regex_opm, ops):
    by_mul = by_cat = regex_opm.unit()
    for op in ops:
        by_mul, by_cat = regex_opm.mul(by_mul, op), rx.cat(by_cat, op)
    assert rx.show(by_mul) == rx.show(by_cat)
    assert regex_opm.eq(by_mul, by_cat)


def test_a_long_trace_builds_under_the_recursion_limit(regex_opm):
    trace = regex_opm.unit()
    for _ in range(3000):
        trace = regex_opm.mul(trace, R)  # `cat` would recurse once per op
    length = 1
    while isinstance(trace, rx.Cat):
        assert trace.right == R
        trace, length = trace.left, length + 1
    assert (trace, length) == (R, 3000)


@pytest.mark.parametrize("op", [R, rx.star(R)])
def test_a_long_trace_shows_hashes_and_derives_facts_under_the_recursion_limit(regex_opm, op):
    # the trace of one location through 3000 ops, as `RC-Op` grows it
    assert sys.getrecursionlimit() < 3000
    trace = regex_opm.unit()
    for _ in range(3000):
        trace = regex_opm.mul(trace, op)
    assert isinstance(trace.left, rx.Cat)  # nested to the left
    assert rx.show(trace) == rx.show(op, 1) * 3000
    assert hash(trace) == hash((trace.left, op))
    assert rx.symbols(trace) == {"r"}
    assert rx.nullable(trace) == rx.nullable(op)


def test_opm_operations(regex_opm):
    assert regex_opm.mul(rx.star(R), C) == rx.cat(rx.star(R), C)
    assert regex_opm.leq(rx.star(R), RW_STAR)
    assert not regex_opm.leq(RW_STAR, rx.star(R))
    assert regex_opm.eq(rx.alt(R, W), rx.alt(W, R))
    assert regex_opm.droppable(rx.star(R))
    assert not regex_opm.droppable(C)
    # residual of r* against the envelope: the witness is the envelope
    assert regex_opm.residual_exists(rx.star(R), ENVELOPE)
    assert regex_opm.best_continuation(rx.star(R), ENVELOPE) is not None


@given(regexes(max_depth=3), regexes(max_depth=3))
@settings(max_examples=80)
def test_residual_iff_product_derivative_nonempty(x, y):
    if rx.is_empty_language(x):
        return
    opm = rx.RegexOpm()
    assert opm.residual_exists(x, y) == (
        not rx.is_empty_language(rx.product_derivative(y, x))
    )


def words(alphabet="rwcd", max_size=4):
    """eps, a symbol or a right-nested Cat of symbols, as `parse_regex` gives them."""
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(
        lambda chars: rx.seq(*map(rx.sym, chars))
    )


@given(
    st.one_of(words(), regexes(max_depth=3)), regexes(), regexes(), words(),
    st.sampled_from(["literal", "leaf", "moved"]),
)
@example(x=rx.cat(R, rx.star(W)), num=rx.star(W), den=R, prefix=R, kind="literal")  # no word
@example(x=rx.parse_regex("rw"), num=rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), den=W, prefix=W,
         kind="moved")
@example(x=rx.EPS, num=ENVELOPE, den=ENVELOPE, prefix=rx.EPS, kind="leaf")
@example(x=rx.EPS, num=rx.parse_regex("((eps|r|w)(rc)*(c|r))*"), den=rx.EPS, prefix=rx.EPS,
         kind="literal")  # both read back past the budget
@settings(max_examples=150, deadline=None)
def test_the_continuation_after_a_word_is_the_product_derivative(x, num, den, prefix, kind):
    # y is an envelope, the automaton of a continuation, or one whose start a
    # word moved (so that states before it are unreachable)
    opm = rx.RegexOpm()
    y = {
        "literal": lambda: num,
        "leaf": lambda: rx.product_derivative(num, den),
        "moved": lambda: opm.best_continuation(prefix, num),
    }[kind]()
    if y is None or rx.is_empty_language(y):
        return
    got, want = opm.best_continuation(x, y), rx.product_derivative(y, x)
    assert (got is None) == rx.is_empty_language(want)
    if got is not None:
        assert reference_includes(got, want) and reference_includes(want, got)
        assert _budget_outcome(rx.show, got) == _budget_outcome(rx.show, want)


def _budget_outcome(search, *args):
    try:
        return search(*args)
    except rx.StateBudgetExceeded as exc:
        return ("budget", str(exc))


@given(regexes(), regexes(), st.sets(st.sampled_from("rwcd")))
@example(rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w(rw)*"), set())
@example(ENVELOPE, rx.star(R), set())
@settings(max_examples=150, deadline=None)
def test_state_searches_match_the_references(a, b, extra):
    # The numbering and the product search serve to_dfa, includes and the
    # continuation DFA; each must give the hand-written search's Dfa, verdict
    # and budget message, state for state.
    alphabet = tuple(sorted(rx.symbols(a) | extra))
    for budget in (1, 2, 3, 4, rx.DEFAULT_STATE_BUDGET):
        assert _budget_outcome(_to_dfa_under, budget, a, alphabet) == _budget_outcome(
            reference_to_dfa, a, alphabet, budget
        )
    assert rx.includes(a, b) == reference_includes(a, b)
    assert rx.includes(b, a) == reference_includes(b, a)
    assert rx._continuation_dfa(a, b) == reference_continuation_dfa(a, b)
    with pytest.MonkeyPatch.context() as patch:
        for budget in (1, 2, 3, 4):
            patch.setattr(rx, "DEFAULT_STATE_BUDGET", budget)
            assert _budget_outcome(rx._continuation_dfa, a, b) == _budget_outcome(
                reference_continuation_dfa, a, b
            )


@given(regexes(), regexes(), regexes(alphabet="rwcd"), st.sets(st.sampled_from("rwcdab")))
@example(W, rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("rw"), set())
@example(rx.EPS, rx.parse_regex("(r|wr|rw)*c(ba|aa)*d"), rx.star(R), set())
@example(rx.parse_regex("(a|b)*"), rx.parse_regex("(r|w|rw)*c(ab|bb)*d"), rx.parse_regex("w*c"),
         {"d"})
@example(rx.EPS, rx.parse_regex("(r|w|wr)*c(aa|bb)*d"), rx.parse_regex("wr"), set())
@settings(max_examples=100, deadline=None)
def test_rows_through_a_continuation_leaf_match_the_reference(x, num, den, extra):
    # `includes(num, cat(den, leaf))` derives past den into a leaf, whose row
    # moves its start; the per-symbol reference derives the leaf on its own
    if rx.is_empty_language(den):
        return
    pd = _budget_outcome(rx.product_derivative, num, den)
    if not isinstance(pd, rx.Auto):  # the empty language, or past the budget
        return
    r = rx.cat(x, pd)
    alphabet = tuple(sorted(rx.symbols(r) | extra))
    for budget in (1, 2, 3, 4, rx.DEFAULT_STATE_BUDGET):
        assert _budget_outcome(_to_dfa_under, budget, r, alphabet) == _budget_outcome(
            reference_to_dfa, r, alphabet, budget
        )


def _budget_rule(num, den):
    """The continuation search's outcome for each of the budgets 1-4, as the
    budget rule fixes it: the default-budget DFA, or the budget message once
    that DFA has more states than the budget."""
    dfa = rx._continuation_dfa(num, den)
    return {
        budget: ("budget", "product derivative state budget")
        if dfa is not None and dfa.n_states > budget
        else dfa
        for budget in (1, 2, 3, 4)
    }


@given(regexes(), regexes(), regexes(alphabet="rwcd"))
@example(
    rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w"), rx.parse_regex("rw(w|rw)*")
)
@example(ENVELOPE, rx.star(R), C)
@settings(max_examples=120, deadline=None)
def test_carried_continuations_match_the_references(num, den, other):
    # A continuation is its DFA; the regex it reads back to is derived anew.
    # Both, and the references on the read-back copy, must give the same
    # verdicts; continuations agree up to language.
    if rx.is_empty_language(den):
        return
    opm = rx.RegexOpm()
    walk = [rx.product_derivative(num, den)]
    if not rx.is_empty_language(other):
        walk.append(rx.product_derivative(walk[0], other))  # a continuation's continuation
    for k in walk:
        if not isinstance(k, rx.Auto):  # the empty language
            continue
        assert k.start == 0  # so its automaton reads back as the continuation
        copy = rx.regex_from_dfa(k.dfa)
        assert rx.show(copy) == rx.show(k) and not isinstance(copy, rx.Auto)
        alphabet = rx._joint_alphabet(k, other)
        renumbered = rx._dfa_over(k, alphabet)
        assert renumbered.n_states <= k.dfa.n_states + 1  # at most the one dead state
        assert rx.includes(k, other) == rx.includes(copy, other) == reference_includes(copy, other)
        assert rx.includes(other, k) == rx.includes(other, copy) == reference_includes(other, copy)
        # (op, index) pairs, the continuation on either side
        pairs = [(op, idx, copy if op is k else op, copy if idx is k else idx)
                 for op, idx in ((other, k), (k, other)) if not rx.is_empty_language(op)]
        for op, idx, plain_op, plain_idx in pairs:
            ref = reference_continuation_dfa(plain_idx, plain_op)
            assert opm.residual_exists(op, idx) == (ref is not None and bool(ref.accepting))
            got = opm.best_continuation(op, idx)
            want = None if ref is None or not ref.accepting else rx.regex_from_dfa(ref)
            assert (got is None) == (want is None)
            if got is not None:
                assert reference_includes(got, want) and reference_includes(want, got)
        # The budget applies to the continuation path's own automaton, with the
        # reference's message; renumbering never meets it.
        expected = [_budget_rule(idx, op) for op, idx, _, _ in pairs]
        with pytest.MonkeyPatch.context() as patch:
            for budget in (1, 2, 3, 4):
                patch.setattr(rx, "DEFAULT_STATE_BUDGET", budget)
                assert rx._dfa_over(k, alphabet) == renumbered
                for (op, idx, _, _), outcomes in zip(pairs, expected):
                    got = _budget_outcome(rx._continuation_dfa, idx, op)
                    assert got == outcomes[budget]


@given(regexes(), regexes())
@example(rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w"))
@example(ENVELOPE, rx.star(R))
@example(ENVELOPE, ENVELOPE)  # the continuation eps
@example(rx.parse_regex("((r|w*)(rr|ww))*"), rx.EPS)  # reads back past the budget
@settings(max_examples=150, deadline=None)
def test_continuation_leaf_matches_its_readback(num, den):
    if rx.is_empty_language(den):
        return
    leaf = rx.product_derivative(num, den)
    if not isinstance(leaf, rx.Auto):  # the empty language
        assert leaf is rx.EMPTY
        return
    assert leaf.start == 0  # so its automaton reads back as the leaf
    back = _budget_outcome(rx.regex_from_dfa, leaf.dfa)
    if not isinstance(back, rx.Regex):  # the leaf prints by the same readback
        assert _budget_outcome(rx.show, leaf) == back
        return
    assert rx.symbols(leaf) == rx.symbols(back)
    assert rx.nullable(leaf) == rx.nullable(back)
    for p in (0, 1, 2):
        assert rx.show(leaf, p) == rx.show(back, p)
    for a in "rwcdab":
        d, e = rx.derivative(leaf, a), rx.derivative(back, a)
        assert rx.is_empty_language(d) == rx.is_empty_language(e)
        assert reference_includes(d, e) and reference_includes(e, d)


@given(regexes(), regexes())
@example(rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w"))
@example(ENVELOPE, rx.star(R))
@example(rx.parse_regex("((r|w*)(rr|ww))*"), rx.EPS)  # both read back past the budget
@settings(max_examples=150, deadline=None)
def test_readback_over_live_states_matches_the_all_states_reference(num, den):
    # A continuation's DFA reaches every state; its derivatives start further
    # in, so the states before their start are unreachable. Each is read back
    # from the automaton renumbered from its start, dead state included.
    if rx.is_empty_language(den):
        return
    walk = [rx.product_derivative(num, den)]
    walk += [rx.derivative(walk[0], a) for a in "rwcdab"]
    for k in walk:
        if isinstance(k, rx.Auto):
            renumbered = rx._dfa_over(k, k.dfa.alphabet)
            for word in words_upto(k.dfa.alphabet, 4):
                assert dfa_accepts(renumbered, word) == dfa_accepts(k.dfa, word, k.start)
            got = _budget_outcome(rx.regex_from_dfa, renumbered)
            want = _budget_outcome(reference_regex_from_dfa, renumbered)
            assert got == want
            if isinstance(got, rx.Regex):
                assert rx.show(got) == rx.show(want) == rx.show(k)


def test_readback_of_a_derivative_leaves_out_unreachable_states():
    leaf = rx.product_derivative(rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w"))
    d = rx.derivative(rx.derivative(leaf, "c"), "a")
    assert isinstance(d, rx.Auto) and d.dfa is leaf.dfa and d.start != 0
    assert 0 not in d.live  # the leaf's start, now unreachable
    assert rx.show(d) == rx.show(reference_regex_from_dfa(rx._dfa_over(d, d.dfa.alphabet)))
    # d's language is that from its start, not from the automaton's state 0
    want = reference_regex_from_dfa(d.dfa, d.start)
    assert reference_includes(d, want) and reference_includes(want, d)


@given(regexes(), regexes())
@example(rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), rx.parse_regex("w"))
@settings(max_examples=100, deadline=None)
def test_every_automaton_reaches_all_its_states_from_state_0(num, den):
    # `regex_from_dfa` keeps the states that can reach acceptance, and counts
    # on state 0 reaching every state; derivatives and renumbering included
    alphabet = rx._joint_alphabet(num, den)
    dfas = [_budget_outcome(rx.to_dfa, r, alphabet) for r in (num, den)]
    if not rx.is_empty_language(den):
        dfas.append(_budget_outcome(rx._continuation_dfa, num, den))
        leaf = _budget_outcome(rx.product_derivative, num, den)
        if isinstance(leaf, rx.Auto):
            leaves = [leaf, *[rx.derivative(leaf, a) for a in alphabet]]
            dfas += [rx._dfa_over(k, (*alphabet, "x")) for k in leaves if isinstance(k, rx.Auto)]
    for dfa in dfas:
        if not isinstance(dfa, rx.Dfa):  # none, or past the budget
            continue
        reached, stack = {0}, [0]
        while stack:
            for t in dfa.trans[stack.pop()]:
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        assert reached == set(range(dfa.n_states))


def test_a_moved_leaf_shares_its_operands_automaton(regex_opm, monkeypatch):
    # A word walk and a derivative move the start along their operand's own
    # automaton, and no leaf copies it: over a round, each automaton whose
    # co-reachable states are computed is one that the package built, once.
    y = rx.parse_regex("(w|rw|wr)*c(ab|ba)*d")
    walked = regex_opm.best_continuation(rx.parse_regex("wrw"), y)
    assert walked.dfa is rx.to_dfa(y, rx._joint_alphabet(y)) and walked.start != 0
    leaf = rx.product_derivative(y, rx.star(W))
    for moved in (rx.derivative(leaf, "c"), regex_opm.best_continuation(rx.parse_regex("rw"), leaf)):
        assert isinstance(moved, rx.Auto) and moved.dfa is leaf.dfa and moved.start != 0
    built, computed = {}, Counter()
    for name in ("to_dfa", "_dfa_over", "_continuation_dfa"):
        def recorded(*args, _unrecorded=getattr(rx, name)):
            dfa = _unrecorded(*args)
            built[id(dfa)] = dfa  # held, so that no id is reused
            return dfa

        monkeypatch.setattr(rx, name, recorded)
    coreach = rx.Dfa.__dict__["coreach"]  # a cached property

    def counted(dfa, _uncounted=coreach.func):
        computed[id(dfa)] += 1
        return _uncounted(dfa)

    monkeypatch.setattr(coreach, "func", counted)
    for job in workload_round("borrow"):
        try:
            checked = check_program(sf.parse(job.source, regex_opm), regex_opm)
        except TypeCheckError:  # the round's defects: checked up to the bad op
            continue
        assert run(checked.core, regex_opm).outcome == "value"
    assert computed and set(computed.values()) == {1} and computed.keys() <= built.keys()


def test_seeded_oracle_agreement_200_pairs(regex_opm):
    disagreements = 0
    rng = random.Random(20240817)
    for _ in range(200):
        a = random_regex(rng, "rwc", 4)
        b = random_regex(rng, "rwc", 4)
        expected = language_sample(b, "rwc", 6) <= language_sample(a, "rwc", 6)
        if rx.includes(a, b) != expected:
            disagreements += 1
    assert disagreements == 0


def test_parse_regex():
    assert rx.parse_regex("(r|w)*c") == ENVELOPE
    assert rx.parse_regex("rw*") == rx.cat(R, rx.star(W))  # star binds tightest
    assert rx.parse_regex("r|wc") == rx.alt(R, rx.cat(W, C))  # concat over alt
    assert rx.parse_regex("eps") == rx.EPS
    assert rx.parse_regex("r eps") == R
    with pytest.raises(OpmError):
        rx.parse_regex("(r|w")
    with pytest.raises(OpmError):
        rx.parse_regex("")
    with pytest.raises(OpmError):
        rx.parse_regex("r)")


def _parsed_regex(parser, text):
    try:
        r = parser(text)
    except OpmError as exc:
        return str(exc)
    return r, rx.show(r)


# Pieces of payloads, with letters and digits that are not ASCII (`é`, `²`),
# `_`, which `\w` matches but `str.isalnum` does not, spaces that are not
# ASCII, and words that start with `eps`.
PAYLOAD_PIECES = [
    "eps", "e", "p", "s", "r", "w", "c", "é", "²", "_", "1", "(", ")", "|", "*",
    " ", "\t", "\n", "\x85", "\u3000", "epsé", "eps²", "eps_", "epsr", "eps1", "@",
]


@given(
    st.one_of(
        st.text(max_size=20),
        st.lists(st.sampled_from(PAYLOAD_PIECES), max_size=12).map("".join),
    )
)
@example("eps_")
@example("épsé²")
@example("(r|eps)* eps2")
@example("r )")
@settings(max_examples=500)
def test_parse_regex_matches_the_reference(text):
    assert _parsed_regex(rx.parse_regex, text) == _parsed_regex(reference_parse_regex, text)


def test_parse_regex_reads_a_literal_nested_3000_deep():
    deep = "(" * 3000 + "r|w" + ")" * 3000 + "c"
    assert rx.parse_regex(deep) == rx.parse_regex("(r|w)c")
    with pytest.raises(OpmError, match="unbalanced parenthesis"):
        rx.parse_regex("(" + deep)


def test_regex_token_classes_are_the_str_predicates():
    # the token pattern's classes, over every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]


def test_parse_element_rejects_empty_language(regex_opm):
    with pytest.raises(OpmError):
        regex_opm.parse_element("r|")  # parse error, not empty, still rejected


def test_normalization():
    assert rx.cat(rx.EMPTY, R) == rx.EMPTY
    assert rx.cat(R, rx.EMPTY) == rx.EMPTY
    assert rx.cat(rx.EPS, R) == R
    assert rx.alt(R, R) == R
    assert rx.alt(R, rx.EMPTY) == R
    assert rx.star(rx.star(R)) == rx.star(R)
    assert rx.star(rx.EMPTY) == rx.EPS
    assert rx.alt(rx.alt(R, W), C) == rx.alt(R, rx.alt(W, C))


def test_is_empty_language_on_normalized_forms():
    assert rx.is_empty_language(rx.cat(R, rx.EMPTY))
    assert not rx.is_empty_language(rx.star(rx.EMPTY))


# ---------------------------------------------------------------------------
# Stored hash and rendering

FIELDS = {
    rx.Empty: [], rx.Eps: [], rx.Sym: ["ch"], rx.Cat: ["left", "right"],
    rx.Alt: ["items"], rx.Star: ["inner"],
}


def test_repr_and_fields_ignore_stored_attributes():
    r = rx.cat(R, rx.star(rx.alt(W, C)))
    hash(r), rx.show(r), rx.symbols(r)
    assert repr(r) == (
        "Cat(left=Sym(ch='r'), right=Star(inner=Alt(items=(Sym(ch='c'), Sym(ch='w')))))"
    )
    for cls, names in FIELDS.items():
        assert list(cls.__match_args__) == names


@given(regexes(), regexes(), st.sampled_from(["none", "show"]), st.booleans())
@settings(max_examples=150)
def test_stored_hash_and_show_match_a_fresh_copy(r, other, warm, warm_original):
    before = repr(r)
    copy = rebuild_regex(r)
    if warm == "show":
        rx.show(r if warm_original else copy, 2)
    assert copy is not r
    assert copy == r and r == copy and not copy != r
    assert hash(copy) == hash(r)
    # the hash the generated record hash gives: that of the field tuple
    assert hash(r) == hash(tuple(getattr(r, f) for f in r.__match_args__))
    assert (r == other) == (repr(r) == repr(other)) == (copy == other)
    for p in (0, 1, 2):
        assert rx.show(r, p) == naive_show(r, p) == rx.show(copy, p)
    assert rx.symbols(r) == naive_symbols(r) == rx.symbols(copy)
    assert repr(r) == repr(copy) == before


def _chain(n, last):
    """A right-nested Cat chain of n symbols and then `last`, built with the raw
    constructor, so that no smart constructor normalizes it."""
    out = rx.Sym(last)
    for i in range(n):
        out = rx.Cat(rx.Sym("rw"[i % 2]), out)
    return out


def test_equality_of_deep_chains_needs_no_deep_recursion():
    # the state of a 5000-op trace is a chain this deep; comparing two equal
    # ones (as a cache lookup does) must not recurse per level
    depth = 5000
    assert sys.getrecursionlimit() < depth
    a, b = _chain(depth, "c"), _chain(depth, "c")
    assert a is not b and a == b and not a != b
    assert a != _chain(depth, "d") and a != _chain(depth - 1, "c")
    assert rx.Alt((R, rx.Star(W))) != rx.Alt((R, rx.Star(W), C))  # nor a prefix of items
    assert rx.Alt((rx.Star(W), rx.Star(C))) != rx.Alt((rx.Star(W), rx.Star(W)))
    assert a._hash == hash(a._key()) and b._hash == hash(b._key())


def _nodes(r):
    """Every node of r, r first, with no accessor called on any."""
    out, stack = [], [r]
    while stack:
        out.append(n := stack.pop())
        for f in n.__match_args__:
            x = getattr(n, f)
            stack.extend(x if x.__class__ is tuple else [x] if isinstance(x, rx.Regex) else [])
    return out


def _stored_facts(nodes):
    """Each node's hash, alphabet and nullability as stored when it was built."""
    return [(vars(n)["_hash"], vars(n)["_symbols"], vars(n)["_nullable"]) for n in nodes]


@given(regexes())
@settings(max_examples=300)
def test_every_node_stores_its_hash_alphabet_and_nullability_when_built(r):
    nodes = _nodes(r)
    stored = _stored_facts(nodes)  # read before anything could compute a fact
    assert stored == [(hash(n._key()), naive_symbols(n), naive_match(n, "")) for n in nodes]


@pytest.mark.parametrize("nest", ["left", "right"])
def test_facts_of_a_5000_deep_raw_chain(nest):
    # built with the raw constructor, each node from its sides' stored facts;
    # the one non-nullable leaf, and the only `c`, sits in the middle
    depth = 5000
    assert sys.getrecursionlimit() < depth
    leaves = [rx.Star(rx.Sym("rw"[i % 2])) for i in range(depth + 1)]
    leaves[depth // 2] = rx.Sym("c")
    if nest == "right":
        leaves.reverse()
    chain, want = leaves[0], []
    symbols, null = naive_symbols(chain), naive_match(chain, "")
    for leaf in leaves[1:]:
        chain = rx.Cat(chain, leaf) if nest == "left" else rx.Cat(leaf, chain)
        symbols, null = symbols | naive_symbols(leaf), null and naive_match(leaf, "")
        want.append((chain, symbols, null))
    stored = _stored_facts([n for n, _, _ in want])
    assert stored == [(hash(n._key()), s, b) for n, s, b in want]
    assert (rx.symbols(chain), rx.nullable(chain)) == ({"r", "w", "c"}, False)


def test_pickled_regex_rehashes_in_a_process_with_another_hash_seed():
    r = rx.parse_regex("(w|rw|wr)*c(ab|ba)*d")
    code = (
        "import pickle, sys; from ordlang import regex as rx; "
        "r = rx.parse_regex('(w|rw|wr)*c(ab|ba)*d'); hash(r); rx.show(r); "
        "sys.stdout.buffer.write(pickle.dumps(r))"
    )
    src = pathlib.Path(rx.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    loaded = pickle.loads(out.stdout)
    assert loaded == r and hash(loaded) == hash(r) and loaded in {r}
    assert repr(loaded) == repr(r) and rx.show(loaded) == rx.show(r)


# ---------------------------------------------------------------------------
# Cost gates on deterministic counters

def _borrow(k, split_at=0):
    """A (W1)*c(W2)*d walk with k ops per phase, the one at `split_at` a split borrow."""
    steps = [*("w", "rw", "wr")[:k], "c", *("ab", "ba", "ab")[:k], "d"]
    lines = ["let x0 = new {(w|rw|wr)*c(ab|ba)*d} in"]
    for i, w in enumerate(steps):
        if i == split_at:
            lines.append(f"let b, x{i + 1} = split {{{w}}} x{i} in drop (!{{{w}}} b);")
        else:
            lines.append(f"let x{i + 1} = !{{{w}}} x{i} in")
    return "\n".join([*lines, f"drop x{len(steps)}"])


def _counting(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        uncounted = getattr(rx, name)

        def counted(*args, _name=name, _uncounted=uncounted):
            calls[_name] += 1
            return _uncounted(*args)

        monkeypatch.setattr(rx, name, counted)
    return calls


def test_show_calls_per_alt_do_not_grow_with_ops(regex_opm, monkeypatch):
    calls = _counting(monkeypatch, "show", "alt")
    per_alt = {}
    for k in (1, 2, 3):
        rx.to_dfa.cache_clear()
        calls.update(show=0, alt=0)
        check_program(sf.parse(_borrow(k), regex_opm), regex_opm)
        per_alt[k] = calls["show"] / calls["alt"]
    assert per_alt[3] <= 2 * per_alt[1], per_alt


@pytest.mark.parametrize("family, n", [(_borrow, 1), (_borrow, 2), (_borrow, 3), (_ops, 32)])
def test_run_reads_no_regex_back(family, n, regex_opm, monkeypatch):
    checked = check_program(sf.parse(family(n), regex_opm), regex_opm)
    calls = _counting(monkeypatch, "regex_from_dfa")
    result = run(checked.core, regex_opm)
    assert result.outcome == "value"
    assert calls["regex_from_dfa"] == 0


def test_checking_reads_back_only_the_printed_continuation(regex_opm, monkeypatch):
    # an accepted program prints no continuation; a rejected one at most the
    # one its diagnostic names
    calls = _counting(monkeypatch, "regex_from_dfa")
    sources = [_borrow(k, split_at) for k in (1, 2, 3) for split_at in range(2 * k + 2)]
    sources += [job.source for job in workload_round("borrow")]
    rejected_reads = 0
    for source in sources:
        calls["regex_from_dfa"] = 0
        try:
            check_program(sf.parse(source, regex_opm), regex_opm)
            assert calls["regex_from_dfa"] == 0, source
        except TypeCheckError:
            assert calls["regex_from_dfa"] <= 1, source
            rejected_reads += calls["regex_from_dfa"]
    assert rejected_reads > 0  # the round's defects print their continuation


def _is_word(x):
    while isinstance(x, rx.Cat) and isinstance(x.left, rx.Sym):
        x = x.right
    return isinstance(x, (rx.Sym, rx.Eps))


def _product_calls(monkeypatch):
    """Count word ops, and the product searches made inside and outside them."""
    calls = Counter()
    inside = []
    live = rx.Auto.__dict__["live"]  # a cached property: its function runs once per leaf
    for owner, attr, name in ((rx, "_reached", "_reached"),
                              (rx, "_continuation_dfa", "_continuation_dfa"),
                              (live, "func", "Auto.live")):
        uncounted = getattr(owner, attr)

        def counted(*args, _name=name, _uncounted=uncounted):
            calls[_name + (" in a word op" if inside else "")] += 1
            return _uncounted(*args)

        monkeypatch.setattr(owner, attr, counted)
    uncounted_op = rx.RegexOpm.best_continuation

    def best_continuation(self, x, y):
        if not _is_word(x):
            return uncounted_op(self, x, y)
        calls["word ops"] += 1
        inside.append(x)
        try:
            return uncounted_op(self, x, y)
        finally:
            inside.pop()

    monkeypatch.setattr(rx.RegexOpm, "best_continuation", best_continuation)
    return calls


def test_a_word_op_builds_no_product(regex_opm, monkeypatch):
    # `!{m}` and `split` in the checker, and `RC-Op` in the evaluator, move the
    # start of the index's automaton along a word; only other ops build products
    calls = _product_calls(monkeypatch)
    sources = [job.source for job in workload_round("borrow")] + [scaling_families()["ops"](64)]
    word_ops = {"check": 0, "run": 0}
    for source in sources:
        before = calls["word ops"]
        try:
            checked = check_program(sf.parse(source, regex_opm), regex_opm)
        except TypeCheckError:  # the round's defects: checked up to the bad op
            continue
        word_ops["check"] += calls["word ops"] - before
        before = calls["word ops"]
        assert run(checked.core, regex_opm).outcome == "value"
        word_ops["run"] += calls["word ops"] - before
    assert word_ops["check"] > 0 and word_ops["run"] > 0, word_ops
    assert not [k for k in calls if k.endswith("in a word op")], calls
    # the counters do see the product an op that is no word builds
    regex_opm.best_continuation(rx.cat(R, rx.star(W)), rx.star(W))
    assert calls["_reached"] > 0 and calls["_continuation_dfa"] > 0


def test_derivative_calls_do_not_grow_with_the_walk(regex_opm, monkeypatch):
    # each op's continuation is its DFA, so the next op moves its start along
    # the transition table and derives no regex of it: the rows derived follow
    # the envelope, not the walk
    calls = _counting(monkeypatch, "_row")
    per_walk = {}
    for k in (1, 3):
        rx.to_dfa.cache_clear()
        calls["_row"] = 0
        check_program(sf.parse(_borrow(k), regex_opm), regex_opm)
        per_walk[k] = calls["_row"]
    assert 0 < per_walk[3] <= 1.2 * per_walk[1], per_walk


def _leaf_builds(monkeypatch):
    """Record each `best_continuation` call with the leaves built inside it."""
    built, calls = [0], []
    store = rx.Regex.__post_init__

    def counted(self):
        built[0] += 1
        store(self)

    monkeypatch.setattr(rx.Auto, "__post_init__", counted)
    walk = rx.RegexOpm.best_continuation

    def best_continuation(self, x, y):
        before = built[0]
        got = walk(self, x, y)
        calls.append((x, y, got, built[0] - before))
        return got

    monkeypatch.setattr(rx.RegexOpm, "best_continuation", best_continuation)
    return calls


def _assert_one_leaf_and_the_per_letter_result(calls):
    for x, y, got, leaves in calls:
        assert leaves <= 1, (rx.show(x), rx.show(y), leaves)
        assert got == reference_best_continuation(x, y), (rx.show(x), rx.show(y))


def test_a_word_walk_builds_one_leaf_on_the_benchmark_rounds(regex_opm, monkeypatch):
    # the walk moves the start along the transition table and builds one leaf
    # where it ends; the per-letter walk built one per letter
    calls = _leaf_builds(monkeypatch)
    for name in ("borrow", "deep"):
        for job in workload_round(name):
            if job.opm != "regex":
                continue
            try:
                checked = check_program(sf.parse(job.source, regex_opm), regex_opm)
            except TypeCheckError:  # the round's defects: checked up to the bad op
                continue
            run(checked.core, regex_opm)
    monkeypatch.undo()  # the reference's leaves are not counted
    assert sum(bool(rx._word(x)) for x, *_ in calls) > 100, len(calls)
    _assert_one_leaf_and_the_per_letter_result(calls)


@given(
    st.one_of(words(), regexes(max_depth=3)), regexes(), regexes(), words(),
    st.sampled_from(["literal", "leaf", "moved"]),
)
@example(x=rx.parse_regex("rwc"), num=rx.parse_regex("(w|rw|wr)*c(ab|ba)*d"), den=W, prefix=W,
         kind="moved")
@example(x=rx.EPS, num=ENVELOPE, den=ENVELOPE, prefix=R, kind="moved")
@example(x=rx.parse_regex("dr"), num=ENVELOPE, den=R, prefix=R, kind="literal")
@settings(max_examples=150, deadline=None)
def test_a_word_walk_builds_one_leaf_on_generated_regexes(x, num, den, prefix, kind):
    opm = rx.RegexOpm()
    y = {
        "literal": lambda: num,
        "leaf": lambda: rx.product_derivative(num, den),
        "moved": lambda: opm.best_continuation(prefix, num),
    }[kind]()
    if y is None or rx.is_empty_language(y):
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _leaf_builds(monkeypatch)
        opm.best_continuation(x, y)
    _assert_one_leaf_and_the_per_letter_result(calls)


def test_no_read_back_node_is_derived(regex_opm, monkeypatch):
    built = {}  # id -> node, every node of every read-back result, kept alive

    def note(r):
        stack = [r]
        while stack:
            node = stack.pop()
            if node is not rx.EPS and node is not rx.EMPTY and id(node) not in built:
                built[id(node)] = node
                stack.extend(p for p in node._key() if isinstance(p, rx.Regex))
                stack.extend(p for f in node._key() if isinstance(f, tuple) for p in f)

    derived = []
    for name in ("_row", "to_dfa", "regex_from_dfa"):
        uncounted = getattr(rx, name)

        def wrapped(*args, _name=name, _uncounted=uncounted):
            if _name != "regex_from_dfa" and id(args[0]) in built:
                derived.append((_name, args[0]))
            out = _uncounted(*args)
            if _name == "regex_from_dfa":
                note(out)
            return out

        monkeypatch.setattr(rx, name, wrapped)
    sources = [_borrow(k, split_at) for k in (1, 2, 3) for split_at in range(2 * k + 2)]
    sources += [job.source for job in workload_round("borrow")]
    for source in sources:
        try:
            checked = check_program(sf.parse(source, regex_opm), regex_opm)
        except TypeCheckError:  # the round's defects: checked up to the bad op
            continue
        run(checked.core, regex_opm)
    assert built and not derived, derived[:3]


def _dump_core_in_a_fresh_interpreter(path):
    src = pathlib.Path(rx.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "ordlang.cli", "dump-core", str(path)]
    return subprocess.run(cmd, env=env, capture_output=True, check=True, text=True).stdout


def test_borrow_core_golden(tmp_path):
    # the split takes the third op's continuation, built from the second op's
    # continuation DFA
    path = tmp_path / "borrow.ord"
    path.write_text(_borrow(3, split_at=2))
    assert _dump_core_in_a_fresh_interpreter(path) == (GOLDEN / "borrow_core.txt").read_text()


def test_borrow_trace_golden(tmp_path, capsys):
    # each heap delta prints the trace as `mul` builds it, one op at a time,
    # the borrow's op included
    path = tmp_path / "borrow.ord"
    path.write_text(_borrow(3, split_at=2))
    assert main(["trace", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "borrow_trace.txt").read_text()


def test_borrow_core_does_not_depend_on_what_was_checked_before(tmp_path, regex_opm, capsys):
    path = tmp_path / "borrow.ord"
    path.write_text(_borrow(3, split_at=2))
    for job in workload_round("borrow"):
        try:
            check_program(sf.parse(job.source, regex_opm), regex_opm)
        except TypeCheckError:
            pass
    capsys.readouterr()
    assert main(["dump-core", str(path)]) == 0
    assert capsys.readouterr().out == _dump_core_in_a_fresh_interpreter(path)
