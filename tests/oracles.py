"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the implementation's machinery: regex
membership is decided by structural matching (no derivatives, no automata),
graph comparisons enumerate permutations, and context equivalence is the
reflexive-transitive closure of the syntactic context laws.  The
runtime-context utilities (`focus`, `usage_projection`) read a heap context
one location at a time.  The character-at-a-time lexer, regex parser and
all-states readback, the spine-recursive `ReferenceParser` and the
hand-unrolled redex search are the references for `surface.lex`,
`regex.parse_regex`, `regex.regex_from_dfa`, `surface.Parser` and the
table-driven `_find_redex` below; the hand-written state searches `reference_to_dfa`,
`reference_includes` and `reference_continuation_dfa` are the references for
`regex.to_dfa`, `regex.includes` and `regex._continuation_dfa`, and derive
one symbol at a time with `reference_derivative`, the per-symbol recursion
that `regex.to_dfa`'s rows replace; `reference_best_continuation`, which
takes the quotient by a word one `reference_derivative` per letter, is the
reference for the regex OPM's walk along a word; and the one-branch-per-former
`reference_locations` and `reference_types_equal` are the references for
`core.locations` and `core.types_equal`.
`reference_lex_counting`, the one-pattern lexer that counted lines and
columns as it went, is the reference for the positions `surface.lex`
computes from offsets.  The substitution evaluator
(`reference_step` over `ReferenceConfig`, with the capture-avoiding
`reference_subst`, the value test `is_value` and the redex search
`_find_redex`) is the reference for the environment machine `interp.step`.
The one-sided pattern extractors `reference_pat_right` and
`reference_pat_left`, each recursing on its own, are the references for
`context.pat_right` and `context.pat_left`, which read `pat_closed`.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from ordlang import context as cx
from ordlang import core as co
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.core import (
    App,
    CoreTerm,
    CoreType,
    DropConst,
    LEFT,
    LetPair,
    Lam,
    Loc,
    NewConst,
    OpConst,
    Pair,
    PLAIN,
    SplitConst,
    TraceType,
    UnitConst,
    Var,
    fv,
)
from ordlang.interp import Heap
from ordlang.opm import Opm, OpmError


# ---------------------------------------------------------------------------
# Regex side

@lru_cache(maxsize=1_000_000)
def naive_match(r: rx.Regex, word: str) -> bool:
    """Structural matcher: no derivatives, no automata (a continuation is
    matched as the regex it reads back to)."""
    if isinstance(r, rx.Auto):
        return naive_match(r.readback, word)
    if isinstance(r, rx.Empty):
        return False
    if isinstance(r, rx.Eps):
        return word == ""
    if isinstance(r, rx.Sym):
        return word == r.ch
    if isinstance(r, rx.Alt):
        return any(naive_match(p, word) for p in r.items)
    if isinstance(r, rx.Cat):
        return any(
            naive_match(r.left, word[:i]) and naive_match(r.right, word[i:])
            for i in range(len(word) + 1)
        )
    if isinstance(r, rx.Star):
        if word == "":
            return True
        return any(
            naive_match(r.inner, word[:i]) and naive_match(r, word[i:])
            for i in range(1, len(word) + 1)
        )
    raise AssertionError(r)


def words_upto(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)


@lru_cache(maxsize=100_000)
def language_sample(r: rx.Regex, alphabet: str, max_len: int) -> frozenset[str]:
    """All words of length ≤ max_len in L(r), by bounded set semantics (of
    the read-back regex, for a continuation)."""
    if isinstance(r, rx.Auto):
        return language_sample(r.readback, alphabet, max_len)
    if isinstance(r, rx.Empty):
        return frozenset()
    if isinstance(r, rx.Eps):
        return frozenset({""})
    if isinstance(r, rx.Sym):
        return frozenset({r.ch} if max_len >= 1 else ())
    if isinstance(r, rx.Alt):
        out: frozenset[str] = frozenset()
        for p in r.items:
            out |= language_sample(p, alphabet, max_len)
        return out
    if isinstance(r, rx.Cat):
        left = language_sample(r.left, alphabet, max_len)
        right = language_sample(r.right, alphabet, max_len)
        return frozenset(
            u + v for u in left for v in right if len(u) + len(v) <= max_len
        )
    if isinstance(r, rx.Star):
        inner = language_sample(r.inner, alphabet, max_len)
        acc = {""}
        while True:
            step = {
                u + v for u in acc for v in inner if len(u) + len(v) <= max_len
            }
            if step <= acc:
                return frozenset(acc)
            acc |= step
    raise AssertionError(r)


def random_regex(rng, alphabet: str, depth: int) -> rx.Regex:
    """Seeded random regex; shapes biased toward small, useful expressions."""
    if depth == 0:
        choice = rng.randrange(6)
        if choice == 0:
            return rx.EPS
        return rx.sym(rng.choice(alphabet))
    choice = rng.randrange(7)
    if choice <= 1:
        return rx.cat(
            random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1)
        )
    if choice <= 3:
        return rx.alt(
            random_regex(rng, alphabet, depth - 1), random_regex(rng, alphabet, depth - 1)
        )
    if choice == 4:
        return rx.star(random_regex(rng, alphabet, depth - 1))
    return random_regex(rng, alphabet, depth - 1)


def dfa_accepts(dfa: rx.Dfa, word) -> bool:
    """Run a total DFA on `word`; a symbol outside its alphabet rejects."""
    s = dfa.start
    for ch in word:
        if ch not in dfa.alphabet:
            return False
        s = dfa.trans[s][dfa.alphabet.index(ch)]
    return s in dfa.accepting


def naive_show(r: rx.Regex, prec: int = 0) -> str:
    """`rx.show` rendered from scratch, reading no stored attribute."""
    if isinstance(r, rx.Empty):
        return "∅"
    if isinstance(r, rx.Eps):
        return "eps"
    if isinstance(r, rx.Sym):
        return r.ch
    if isinstance(r, rx.Star):
        return naive_show(r.inner, 2) + "*"
    if isinstance(r, rx.Cat):
        s = naive_show(r.left, 1) + naive_show(r.right, 1)
        return f"({s})" if prec > 1 else s
    if isinstance(r, rx.Alt):
        s = "|".join(naive_show(p, 1) for p in r.items)
        return f"({s})" if prec > 0 else s
    raise AssertionError(r)


def naive_symbols(r: rx.Regex) -> frozenset[str]:
    """`rx.symbols` from scratch, reading no stored attribute."""
    if isinstance(r, rx.Sym):
        return frozenset(r.ch)
    if isinstance(r, rx.Cat):
        return naive_symbols(r.left) | naive_symbols(r.right)
    if isinstance(r, rx.Alt):
        return frozenset().union(*map(naive_symbols, r.items))
    if isinstance(r, rx.Star):
        return naive_symbols(r.inner)
    return frozenset()


def rebuild_regex(r: rx.Regex) -> rx.Regex:
    """A fresh copy of `r`, built node by node with the raw constructors."""
    if isinstance(r, rx.Sym):
        return rx.Sym(r.ch)
    if isinstance(r, rx.Cat):
        return rx.Cat(rebuild_regex(r.left), rebuild_regex(r.right))
    if isinstance(r, rx.Alt):
        return rx.Alt(tuple(rebuild_regex(p) for p in r.items))
    if isinstance(r, rx.Star):
        return rx.Star(rebuild_regex(r.inner))
    return type(r)()


def reference_derivative(r: rx.Regex, a: str) -> rx.Regex:
    """The derivative of `r` by one symbol, recursing per node and per symbol."""
    if isinstance(r, (rx.Empty, rx.Eps)):
        return rx.EMPTY
    if isinstance(r, rx.Sym):
        return rx.EPS if r.ch == a else rx.EMPTY
    if isinstance(r, rx.Cat):
        d = rx.cat(reference_derivative(r.left, a), r.right)
        if rx.nullable(r.left):
            return rx.alt(d, reference_derivative(r.right, a))
        return d
    if isinstance(r, rx.Alt):
        return rx.alt(*(reference_derivative(p, a) for p in r.items))
    if isinstance(r, rx.Star):
        return rx.cat(reference_derivative(r.inner, a), r)
    if isinstance(r, rx.Auto):  # the start moved; the table and its co-reachable states shared
        d = r.dfa
        q = d.trans[d.start][d.alphabet.index(a)] if a in d.alphabet else None
        co = rx._coreachable(d)
        if q not in co:
            return rx.EMPTY
        return rx.Auto(rx.Dfa(d.alphabet, d.n_states, q, d.accepting, d.trans, co))
    raise AssertionError(r)


def reference_to_dfa(
    r: rx.Regex, alphabet: tuple[str, ...], budget: int = rx.DEFAULT_STATE_BUDGET
) -> rx.Dfa:
    """Total DFA over `alphabet` whose language is L(r), by derivative classes."""
    states: dict[rx.Regex, int] = {r: 0}
    order: list[rx.Regex] = [r]
    trans: list[list[int]] = []
    i = 0
    while i < len(order):
        cur = order[i]
        row: list[int] = []
        for a in alphabet:
            d = reference_derivative(cur, a)
            if d not in states:
                if len(states) >= budget:
                    raise rx.StateBudgetExceeded(
                        f"more than {budget} derivative classes for {rx.show(r)}"
                    )
                states[d] = len(order)
                order.append(d)
            row.append(states[d])
        trans.append(row)
        i += 1
    accepting = frozenset(ix for r_, ix in states.items() if rx.nullable(r_))
    return rx.Dfa(alphabet, len(order), 0, accepting, tuple(tuple(row) for row in trans))


def reference_includes(big: rx.Regex, small: rx.Regex) -> bool:
    """Decide L(small) ⊆ L(big) via product-automaton emptiness."""
    alphabet = rx._joint_alphabet(big, small)
    db, ds = reference_to_dfa(big, alphabet), reference_to_dfa(small, alphabet)
    seen = {(ds.start, db.start)}
    work = [(ds.start, db.start)]
    while work:
        qs, qb = work.pop()
        if qs in ds.accepting and qb not in db.accepting:
            return False
        for k in range(len(alphabet)):
            nxt = (ds.trans[qs][k], db.trans[qb][k])
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return True


def reference_continuation_dfa(num: rx.Regex, den: rx.Regex) -> Optional[rx.Dfa]:
    """A DFA for `product_derivative(num, den)`, every state reachable.

    Construction: collect the set S of num-automaton states reachable from
    its start by some word of den, then accept exactly the words that reach
    acceptance from every state in S.  None when S is empty.
    """
    if rx.is_empty_language(den):
        raise ValueError("product derivative by the empty language")
    alphabet = rx._joint_alphabet(num, den)
    dn, dd = reference_to_dfa(num, alphabet), reference_to_dfa(den, alphabet)

    # S: num-states reached by words of L(den).
    seen = {(dd.start, dn.start)}
    work = [(dd.start, dn.start)]
    s_set: set[int] = set()
    while work:
        qd, qn = work.pop()
        if qd in dd.accepting:
            s_set.add(qn)
        for k in range(len(alphabet)):
            nxt = (dd.trans[qd][k], dn.trans[qn][k])
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    if not s_set:  # unreachable given a nonempty den
        return None

    # Determinized universal acceptance from S.
    start = tuple(sorted(s_set))
    states: dict[tuple[int, ...], int] = {start: 0}
    order = [start]
    trans: list[list[int]] = []
    i = 0
    while i < len(order):
        cur = order[i]
        row = []
        for k in range(len(alphabet)):
            nxt = tuple(sorted({dn.trans[q][k] for q in cur}))
            if nxt not in states:
                if len(states) >= rx.DEFAULT_STATE_BUDGET:
                    raise rx.StateBudgetExceeded("product derivative state budget")
                states[nxt] = len(order)
                order.append(nxt)
            row.append(states[nxt])
        trans.append(row)
        i += 1
    accepting = frozenset(
        ix for st, ix in states.items() if all(q in dn.accepting for q in st)
    )
    return rx.Dfa(tuple(alphabet), len(order), 0, accepting, tuple(tuple(r) for r in trans))


def reference_best_continuation(x: rx.Regex, y: rx.Regex) -> Optional[rx.Regex]:
    """`RegexOpm.best_continuation` with the quotient by a word taken one
    `reference_derivative` of a leaf per letter, each building its own leaf."""
    word = rx._word(x)
    if word is None:
        pd = rx.product_derivative(y, x)
        return None if rx.is_empty_language(pd) else pd
    z = y if isinstance(y, rx.Auto) else rx.Auto(reference_to_dfa(y, rx._joint_alphabet(y)))
    for a in word:
        z = reference_derivative(z, a)
    return z if isinstance(z, rx.Auto) and z.dfa.start in rx._coreachable(z.dfa) else None


def reference_regex_from_dfa(dfa: rx.Dfa) -> rx.Regex:
    """Read a regex back from a DFA by state elimination over all its states,
    dead and unreachable ones included."""
    n = dfa.n_states
    # Arc labels between virtual start (n) and accept (n+1) nodes.
    arcs: dict[tuple[int, int], rx.Regex] = {}

    def add(i: int, j: int, r: rx.Regex) -> None:
        if rx.is_empty_language(r):
            return
        arc = arcs[(i, j)] = rx.alt(arcs.get((i, j), rx.EMPTY), r)
        if len(rx.show(arc)) > rx.READBACK_BUDGET:
            raise rx.StateBudgetExceeded(
                f"continuation reads back to more than {rx.READBACK_BUDGET} characters"
            )

    for s in range(n):
        for k, a in enumerate(dfa.alphabet):
            add(s, dfa.trans[s][k], rx.sym(a))
    add(n, dfa.start, rx.EPS)
    for s in dfa.accepting:
        add(s, n + 1, rx.EPS)

    for s in range(n):  # eliminate state s
        loop = arcs.pop((s, s), rx.EMPTY)
        ins = [(i, r) for (i, j), r in arcs.items() if j == s and i != s]
        outs = [(j, r) for (i, j), r in arcs.items() if i == s and j != s]
        for i, rin in ins:
            del arcs[(i, s)]
        for j, rout in outs:
            del arcs[(s, j)]
        for i, rin in ins:
            for j, rout in outs:
                add(i, j, rx.seq(rin, rx.star(loop), rout))

    return arcs.get((n, n + 1), rx.EMPTY)


def reference_parse_regex(text: str) -> rx.Regex:
    """The `{...}` payload parser that scans one character at a time."""
    pos = 0

    def peek() -> Optional[str]:
        return text[pos] if pos < len(text) else None

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_alt() -> rx.Regex:
        nonlocal pos
        parts = [parse_cat()]
        skip_ws()
        while peek() == "|":
            pos += 1
            parts.append(parse_cat())
            skip_ws()
        return rx.alt(*parts)

    def parse_cat() -> rx.Regex:
        nonlocal pos
        parts = []
        while True:
            skip_ws()
            c = peek()
            if c is None or c in "|)":
                break
            parts.append(parse_post())
        if not parts:
            raise OpmError(f"empty regex fragment in {text!r}")
        return rx.seq(*parts)

    def parse_post() -> rx.Regex:
        nonlocal pos
        r = parse_atom()
        skip_ws()
        while peek() == "*":
            pos += 1
            r = rx.star(r)
            skip_ws()
        return r

    def parse_atom() -> rx.Regex:
        nonlocal pos
        skip_ws()
        c = peek()
        if c == "(":
            pos += 1
            r = parse_alt()
            skip_ws()
            if peek() != ")":
                raise OpmError(f"unbalanced parenthesis in regex {text!r}")
            pos += 1
            return r
        if c is not None and c.isalpha():
            if text[pos : pos + 3] == "eps" and not (
                pos + 3 < len(text) and text[pos + 3].isalnum()
            ):
                pos += 3
                return rx.EPS
            pos += 1
            return rx.sym(c)
        raise OpmError(f"unexpected character {c!r} in regex {text!r}")

    r = parse_alt()
    skip_ws()
    if pos != len(text):
        raise OpmError(f"trailing characters in regex {text!r}")
    return r


# ---------------------------------------------------------------------------
# Graph and context side

def brute_iso(g1: cx.GraphRep, g2: cx.GraphRep) -> bool:
    """Isomorphism by enumerating all label-preserving bijections."""
    if g1.n != g2.n or sorted(g1.labels, key=repr) != sorted(g2.labels, key=repr):
        return False
    for perm in itertools.permutations(range(g1.n)):
        if any(g1.labels[i] != g2.labels[perm[i]] for i in range(g1.n)):
            continue
        mapped = frozenset((perm[a], perm[b]) for a, b in g1.edges)
        if mapped == g2.edges:
            return True
    return False


def brute_spanning(g1: cx.GraphRep, g2: cx.GraphRep) -> bool:
    """Edge-superset relabelings by full permutation enumeration."""
    if g1.n != g2.n or sorted(g1.labels, key=repr) != sorted(g2.labels, key=repr):
        return False
    for perm in itertools.permutations(range(g1.n)):
        if any(g1.labels[i] != g2.labels[perm[i]] for i in range(g1.n)):
            continue
        mapped = frozenset((perm[a], perm[b]) for a, b in g1.edges)
        if mapped <= g2.edges:
            return True
    return False


def brute_equiv(c1: cx.Ctx, c2: cx.Ctx) -> bool:
    i1, i2 = cx.interpret(c1), cx.interpret(c2)
    return i1.unrs == i2.unrs and brute_iso(i1.graph, i2.graph)


def brute_subcontext(c1: cx.Ctx, c2: cx.Ctx) -> bool:
    i1, i2 = cx.interpret(c1), cx.interpret(c2)
    return i1.unrs >= i2.unrs and brute_spanning(i1.graph, i2.graph)


def restrict_keeping_units(ctx: cx.Ctx, names: frozenset[str]) -> cx.Ctx:
    """Restriction that leaves a · placeholder for every dropped variable
    binding, so the result keeps the shape of `ctx`."""
    if isinstance(ctx, cx.Bind):
        b = ctx.binding
        return cx.EMPTY if b.kind == "var" and b.name not in names else ctx
    if isinstance(ctx, (cx.Seq, cx.Par)):
        builder = cx.Seq if isinstance(ctx, cx.Seq) else cx.Par
        return builder(
            restrict_keeping_units(ctx.left, names),
            restrict_keeping_units(ctx.right, names),
        )
    return ctx


def naive_restrict(ctx: cx.Ctx, names: frozenset[str]) -> cx.Ctx:
    """Restriction that rebuilds every node through the smart constructors:
    the reference for `restrict`, which returns subtrees it need not
    change."""
    if isinstance(ctx, cx.Bind):
        b = ctx.binding
        return cx.EMPTY if b.kind == "var" and b.name not in names else ctx
    if isinstance(ctx, (cx.Seq, cx.Par)):
        former = cx.seq if isinstance(ctx, cx.Seq) else cx.par
        return former(naive_restrict(ctx.left, names), naive_restrict(ctx.right, names))
    return ctx


def rebuild_ctx(ctx: cx.Ctx) -> cx.Ctx:
    """A fresh copy of `ctx`, built node by node with the raw constructors,
    so no node of it carries stored facts."""
    if isinstance(ctx, cx.Bind):
        return cx.Bind(ctx.binding)
    if isinstance(ctx, (cx.Seq, cx.Par)):
        return type(ctx)(rebuild_ctx(ctx.left), rebuild_ctx(ctx.right))
    return type(ctx)()


def in_unit_normal_form(ctx: cx.Ctx) -> bool:
    """No · is stored below `,` or `∥`."""
    if isinstance(ctx, (cx.Seq, cx.Par)):
        return all(
            not isinstance(side, cx.Empty) and in_unit_normal_form(side)
            for side in (ctx.left, ctx.right)
        )
    return True


def bindings(ctx: cx.Ctx) -> tuple[cx.Binding, ...]:
    """Leaf bindings left to right (with multiplicity)."""
    if isinstance(ctx, cx.Bind):
        return (ctx.binding,)
    if isinstance(ctx, (cx.Seq, cx.Par)):
        return bindings(ctx.left) + bindings(ctx.right)
    return ()


def is_pattern(ctx: cx.Ctx) -> bool:
    return cx.hole_count(ctx) == 1


def well_formed(ctx: cx.Ctx) -> bool:
    """Each variable has one type; ordered variable bindings occur at most once."""
    seen: dict[str, CoreType] = {}
    counts: dict[cx.Binding, int] = {}
    for b in bindings(ctx):
        if b.kind != "var":
            continue
        if b.name in seen and seen[b.name] != b.type:
            return False
        seen[b.name] = b.type
        counts[b] = counts.get(b, 0) + 1
        if not co.unr(b.type) and counts[b] > 1:
            return False
    return True


def reference_pat_right(g: cx.Ctx) -> Optional[cx.Ctx]:
    """Δ with g ≃ (Δ, []): everything in g precedes the hole."""
    if isinstance(g, cx.Hole):
        return cx.EMPTY
    if isinstance(g, cx.Seq):
        if cx.hole_count(g.right):
            d = reference_pat_right(g.right)
            return None if d is None else cx.seq(g.left, d)
        if cx.all_unr(g.right):
            d = reference_pat_right(g.left)
            return None if d is None else cx.par(d, g.right)
        return None
    if isinstance(g, cx.Par):
        side, other = (g.left, g.right) if cx.hole_count(g.left) else (g.right, g.left)
        if not cx.all_unr(other):
            return None
        d = reference_pat_right(side)
        return None if d is None else cx.par(d, other)
    return None


def reference_pat_left(g: cx.Ctx) -> Optional[cx.Ctx]:
    """Δ with g ≃ ([], Δ): everything in g follows the hole."""
    if isinstance(g, cx.Hole):
        return cx.EMPTY
    if isinstance(g, cx.Seq):
        if cx.hole_count(g.left):
            d = reference_pat_left(g.left)
            return None if d is None else cx.seq(d, g.right)
        if cx.all_unr(g.left):
            d = reference_pat_left(g.right)
            return None if d is None else cx.par(g.left, d)
        return None
    if isinstance(g, cx.Par):
        side, other = (g.left, g.right) if cx.hole_count(g.left) else (g.right, g.left)
        if not cx.all_unr(other):
            return None
        d = reference_pat_left(side)
        return None if d is None else cx.par(d, other)
    return None


def focus(ctx: cx.Ctx, ident: int) -> cx.Ctx:
    """Erase every location binding except those for `ident`."""
    if isinstance(ctx, cx.Bind):
        b = ctx.binding
        if b.kind != "loc":
            raise ValueError("focus applies to runtime contexts only")
        return ctx if b.name == ident else cx.EMPTY
    if isinstance(ctx, cx.Seq):
        return cx.seq(focus(ctx.left, ident), focus(ctx.right, ident))
    if isinstance(ctx, cx.Par):
        return cx.par(focus(ctx.left, ident), focus(ctx.right, ident))
    if isinstance(ctx, cx.Empty):
        return ctx
    raise ValueError("cannot focus a context pattern")


def unique_topological_ordering(g: cx.GraphRep) -> Optional[tuple[int, ...]]:
    """The topological ordering when exactly one exists, else None."""
    indeg = {i: 0 for i in range(g.n)}
    out: dict[int, list[int]] = {i: [] for i in range(g.n)}
    for a, b in g.edges:
        out[a].append(b)
        indeg[b] += 1
    ready = [i for i in range(g.n) if indeg[i] == 0]
    order: list[int] = []
    while ready:
        if len(ready) > 1:
            return None
        cur = ready.pop()
        order.append(cur)
        for nxt in out[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(order) != g.n:
        raise ValueError("graph representation has a cycle")
    return tuple(order)


def usage_projection(ctx: cx.Ctx, opm: Opm) -> Optional[Any]:
    """Fold OPM multiplication over the bindings in the unique topological
    order of the interpretation; None if the order is ambiguous or some
    product is undefined."""
    g = cx.interpret(ctx).graph
    order = unique_topological_ordering(g)
    if order is None:
        return None
    acc = opm.unit()
    for i in order:
        t = g.labels[i].type
        assert isinstance(t, TraceType)
        acc = opm.mul(acc, t.index)
        if acc is None:
            return None
    return acc


def canonical_key(c: cx.Ctx):
    """Canonical form of the interpretation: label-sorted vertex order, then
    the lexicographically least edge set over label-preserving permutations."""
    i = cx.interpret(c)
    g = i.graph
    base = sorted(range(g.n), key=lambda v: repr(g.labels[v]))
    labels = tuple(g.labels[v] for v in base)
    best = None
    # permutations of positions within equal-label runs
    runs: list[list[int]] = []
    start = 0
    for k in range(1, g.n + 1):
        if k == g.n or labels[k] != labels[start]:
            runs.append(list(range(start, k)))
            start = k
    for parts in itertools.product(*(itertools.permutations(r) for r in runs)):
        pos = [p for run in parts for p in run]
        # vertex v (original) -> canonical slot
        slot = {}
        for canon_slot, base_index in zip(pos, range(g.n)):
            slot[base[base_index]] = canon_slot
        edges = tuple(sorted((slot[a], slot[b]) for a, b in g.edges))
        if best is None or edges < best:
            best = edges
    return (labels, best if best is not None else (), frozenset(i.unrs))


def enumerate_shapes(k: int) -> list:
    """All context-tree shapes with k leaves; leaves are None placeholders."""
    if k == 1:
        return [None]
    out = []
    for i in range(1, k):
        for left in enumerate_shapes(i):
            for right in enumerate_shapes(k - i):
                out.append(("seq", left, right))
                out.append(("par", left, right))
    return out


def fill_shape(shape, leaves: list[cx.Ctx]) -> cx.Ctx:
    """Build a context from a shape, consuming `leaves` left to right."""

    def go(s):
        if s is None:
            return leaves.pop(0)
        kind, l, r = s
        builder = cx.Seq if kind == "seq" else cx.Par
        return builder(go(l), go(r))

    return go(shape)


def enumerate_contexts(leaf_pool: list[cx.Ctx], max_leaves: int) -> list[cx.Ctx]:
    """Every context tree with 1..max_leaves leaves from leaf_pool, plus ·."""
    out: list[cx.Ctx] = [cx.EMPTY]
    for k in range(1, max_leaves + 1):
        for shape in enumerate_shapes(k):
            for combo in itertools.product(leaf_pool, repeat=k):
                out.append(fill_shape(shape, list(combo)))
    return out


# Syntactic-law rewriting: monoid laws for both formers, commutativity of the
# parallel former, and the unrestricted laws (position irrelevance and
# contraction).  Used as the closure oracle for context equivalence.

def _unr_extractions(c: cx.Ctx):
    """(c', b) for each unrestricted leaf b of c, with that leaf blanked:
    instances of the law  G[x:T] ≡ G[·] ∥ x:T  for unr T."""
    if isinstance(c, cx.Bind):
        if co.unr(c.binding.type):
            yield cx.EMPTY, c.binding
    elif isinstance(c, (cx.Seq, cx.Par)):
        builder = cx.Seq if isinstance(c, cx.Seq) else cx.Par
        for sub, b in _unr_extractions(c.left):
            yield builder(sub, c.right), b
        for sub, b in _unr_extractions(c.right):
            yield builder(c.left, sub), b


def _one_step(c: cx.Ctx) -> set[cx.Ctx]:
    out: set[cx.Ctx] = set()
    for sub, b in _unr_extractions(c):
        out.add(cx.Par(sub, cx.Bind(b)))
    if isinstance(c, cx.Seq):
        l, r = c.left, c.right
        if isinstance(l, cx.Empty):
            out.add(r)
        if isinstance(r, cx.Empty):
            out.add(l)
        if isinstance(r, cx.Seq):  # a,(b,c) -> (a,b),c
            out.add(cx.Seq(cx.Seq(l, r.left), r.right))
        if isinstance(l, cx.Seq):  # (a,b),c -> a,(b,c)
            out.add(cx.Seq(l.left, cx.Seq(l.right, r)))
        for sub in _one_step(l):
            out.add(cx.Seq(sub, r))
        for sub in _one_step(r):
            out.add(cx.Seq(l, sub))
    elif isinstance(c, cx.Par):
        l, r = c.left, c.right
        if isinstance(l, cx.Empty):
            out.add(r)
        if isinstance(r, cx.Empty):
            out.add(l)
        out.add(cx.Par(r, l))
        if isinstance(r, cx.Par):
            out.add(cx.Par(cx.Par(l, r.left), r.right))
        if isinstance(l, cx.Par):
            out.add(cx.Par(l.left, cx.Par(l.right, r)))
        if l == r and isinstance(l, cx.Bind) and co.unr(l.binding.type):
            out.add(l)  # contraction
        for sub in _one_step(l):
            out.add(cx.Par(sub, r))
        for sub in _one_step(r):
            out.add(cx.Par(l, sub))
    # The growing directions of the unit and contraction laws are omitted:
    # closures are intersected, and the shrinking directions already reach a
    # shared normal-form set for any pair related by the full law set.
    return out


def closure(c: cx.Ctx, cap: int = 4000) -> frozenset[cx.Ctx]:
    seen = {c}
    work = [c]
    while work and len(seen) < cap:
        cur = work.pop()
        for nxt in _one_step(cur):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return frozenset(seen)


def closure_equiv(c1: cx.Ctx, c2: cx.Ctx) -> bool:
    cl1 = closure(c1)
    if c2 in cl1:
        return True
    return bool(cl1 & closure(c2))


# ---------------------------------------------------------------------------
# Surface side

def span_contains(outer: sf.Span, inner: sf.Span) -> bool:
    return (outer.line, outer.col) <= (inner.line, inner.col) and (
        (inner.end_line, inner.end_col) <= (outer.end_line, outer.end_col)
    )


class ReferenceToken(NamedTuple):
    kind: str
    text: str
    span: sf.Span


def reference_lex(source: str) -> list[ReferenceToken]:
    """Character-at-a-time lexer with several tests per character.

    A `{...}` literal advances the column by its length and never the line,
    so it differs from `surface.lex` after a literal that spans a newline.
    """
    toks: list[ReferenceToken] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def span_here(length: int) -> sf.Span:
        return sf.Span(line, col, line, col + length)

    def error(msg: str) -> sf.ParseError:
        return sf.ParseError(msg, span_here(1))

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c == "{":
            j = source.find("}", i)
            if j < 0:
                raise error("unterminated `{` resource literal")
            raw = source[i + 1 : j]
            toks.append(ReferenceToken("ELEM", raw, span_here(j - i + 1)))
            col += j - i + 1
            i = j + 1
            continue
        if source.startswith("-[", i):
            toks.append(ReferenceToken("-[", "-[", span_here(2)))
            i += 2
            col += 2
            continue
        if source.startswith("]->", i):
            toks.append(ReferenceToken("]->", "]->", span_here(3)))
            i += 3
            col += 3
            continue
        if source.startswith(".o", i):
            toks.append(ReferenceToken(".o", ".o", span_here(2)))
            i += 2
            col += 2
            continue
        if c in "(),;:=!":
            toks.append(ReferenceToken(c, c, span_here(1)))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            toks.append(ReferenceToken("NUM", source[i:j], span_here(j - i)))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            text = source[i:j]
            kind = text if text in sf.KEYWORDS else "IDENT"
            toks.append(ReferenceToken(kind, text, span_here(j - i)))
            col += j - i
            i = j
            continue
        raise error(f"unsupported character {c!r}")

    toks.append(ReferenceToken("EOF", "", sf.Span(line, col, line, col)))
    return toks


# The lexer's pattern when it counted lines and columns as it went.
_COUNTING_LEXEME = re.compile(
    r"[^\S\n]*(?:(?P<newline>\n)|(?P<comment>--[^\n]*)|(?P<elem>\{[^}]*\})|(?P<open>\{)"
    r"|(?P<punct>-\[|\]->|\.o|[(),;:=!])|(?P<word>\w[\w']*)|(?P<other>.)|\Z)"
)


def reference_lex_counting(source: str) -> list[ReferenceToken]:
    """One compiled pattern, with a running line count and line start.

    A newline is a lexeme of its own, and a `{...}` literal advances the line
    by the newlines it holds; `surface.lex` records offsets instead.
    """
    toks: list[ReferenceToken] = []
    line, line_start, pos, eof = 1, 0, 0, len(source)
    while group := (m := _COUNTING_LEXEME.match(source, pos)).lastgroup:
        start, pos = m.span(group)
        text, col = m.group(group), start - line_start + 1
        if group == "newline":
            line, line_start = line + 1, pos
            continue
        if group == "comment":  # EOF after a comment goes where the comment starts
            eof = start if pos == len(source) else eof
            continue
        kind = "ELEM" if group == "elem" else text
        if group == "word":
            if text[0].isdigit():
                kind, text = "NUM", "".join(itertools.takewhile(str.isdigit, text))
                pos = start + len(text)
            elif text[0].isalpha() or text[0] == "_":
                kind = text if text in sf.KEYWORDS else "IDENT"
            else:
                group = "other"
        if group == "other" or group == "open":
            message = f"unsupported character {text[0]!r}"
            if group == "open":
                message = "unterminated `{` resource literal"
            raise sf.ParseError(message, sf.Span(line, col, line, col + 1))
        newlines = text.count("\n")  # only a `{...}` literal can hold any
        if newlines:
            end_col = len(text) - text.rfind("\n")
            span = sf.Span(line, col, line + newlines, end_col)
            line, line_start = line + newlines, pos - end_col + 1
        else:
            span = sf.Span(line, col, line, col + len(text))
        toks.append(ReferenceToken(kind, text[1:-1] if kind == "ELEM" else text, span))
    col = eof - line_start + 1
    toks.append(ReferenceToken("EOF", "", sf.Span(line, col, line, col)))
    return toks


def naive_surface_fv(e: sf.SurfaceExpr) -> frozenset[str]:
    """Free variables by a fresh walk that never reads a stored set."""
    if isinstance(e, sf.SVar):
        return frozenset({e.name})
    if isinstance(e, sf.SLam):
        return naive_surface_fv(e.body) - {e.var}
    if isinstance(e, sf.SLet):
        return naive_surface_fv(e.header) | (naive_surface_fv(e.body) - {e.x})
    if isinstance(e, sf.SLetPair):
        return naive_surface_fv(e.header) | (naive_surface_fv(e.body) - {e.x, e.y})
    out: frozenset[str] = frozenset()
    for name in e.__match_args__:
        child = getattr(e, name)
        if isinstance(child, sf.SurfaceExpr):
            out |= naive_surface_fv(child)
    return out


def naive_rename_var(e: sf.SurfaceExpr, old: str, new: str) -> sf.SurfaceExpr:
    """Renaming of free occurrences that rebuilds every node, so the result
    shares no node with `e` and stores no free-variable set."""
    if isinstance(e, sf.SVar):
        return sf.SVar(e.span, new if e.name == old else e.name)
    bound = {sf.SLam: ("var",), sf.SLet: ("x",), sf.SLetPair: ("x", "y")}
    shadowed = any(getattr(e, b) == old for b in bound.get(type(e), ()))
    fields = {}
    for name in e.__match_args__:
        child = getattr(e, name)
        if isinstance(child, sf.SurfaceExpr):
            scoped_old = "" if shadowed and name == "body" else old
            child = naive_rename_var(child, scoped_old, new)
        fields[name] = child
    return type(e)(**fields)


class ReferenceParser(sf.Parser):
    """The parser with one recursive call per let and per `;` of a spine and
    one branch per prefix operator."""

    def parse_expr(self) -> sf.SurfaceExpr:
        if self.peek().kind == "let":
            return self.parse_let()
        first = self.parse_operand()
        if self.peek().kind == ";":
            self.next()
            rest = self.parse_expr()
            return sf.SLet(first.span.cover(rest.span), None, first, rest)
        return first

    def parse_let(self) -> sf.SurfaceExpr:
        start = self.expect("let")
        name = self.expect("IDENT")
        t = self.peek()
        if t.kind == ",":
            self.next()
            second = self.expect("IDENT")
            self.expect("=")
            header = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return sf.SLetPair(
                start.span.cover(body.span), name.text, second.text, header, body
            )
        if t.kind == ":":
            self.next()
            ann = self.parse_type()
            if self.peek().kind == "=":
                self.next()
                header = self.parse_expr()
                self.expect("in")
                body = self.parse_expr()
                hdr = sf.SAnn(header.span, header, ann)
                return sf.SLet(start.span.cover(body.span), name.text, hdr, body)
            again = self.expect("IDENT")
            if again.text != name.text:
                raise sf.ParseError(
                    f"definition of {again.text!r} does not match "
                    f"declaration of {name.text!r}",
                    again.span,
                )
            params = [self.parse_param()]
            while self.peek().kind in ("IDENT", "("):
                params.append(self.parse_param())
            self.expect("=")
            rhs = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            lam = rhs
            for p in reversed(params):
                lam = self.lambda_for(p, lam)
            hdr = sf.SAnn(lam.span, lam, ann)
            return sf.SLet(start.span.cover(body.span), name.text, hdr, body)
        if t.kind == "=":
            self.next()
            header = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return sf.SLet(start.span.cover(body.span), name.text, header, body)
        raise sf.ParseError(
            f"expected ',', ':' or '=' after let binder, found {t.text!r}",
            t.span,
        )

    def parse_operand(self) -> sf.SurfaceExpr:
        t = self.peek()
        if t.kind == "drop":
            self.next()
            arg = self.parse_operand_no_let(t)
            return sf.SDrop(t.span.cover(arg.span), arg)
        if t.kind == "!":
            self.next()
            elem = self.expect("ELEM")
            arg = self.parse_operand_no_let(t)
            return sf.SOp(t.span.cover(arg.span), self.element(elem), arg)
        if t.kind == "split":
            self.next()
            elem = self.expect("ELEM")
            arg = self.parse_operand_no_let(t)
            return sf.SSplit(t.span.cover(arg.span), self.element(elem), arg)
        if t.kind == "new":
            self.next()
            elem = self.expect("ELEM")
            return sf.SNew(t.span.cover(elem.span), self.element(elem))
        return self.parse_app()

    def parse_operand_no_let(self, opener: sf.Token) -> sf.SurfaceExpr:
        if self.peek().kind == "let":
            raise sf.ParseError(
                "prefix operator argument cannot be a bare let; parenthesize it",
                self.peek().span,
            )
        return self.parse_operand()


# ---------------------------------------------------------------------------
# Evaluator side

def is_constant(m: CoreTerm) -> bool:
    return isinstance(m, (UnitConst, NewConst, OpConst, SplitConst, DropConst))


def is_value(m: CoreTerm) -> bool:
    if is_constant(m) or isinstance(m, (Loc, Lam)):
        return True
    if isinstance(m, Pair):
        return is_value(m.left) and is_value(m.right)
    return False


def reference_types_equal(a: CoreType, b: CoreType, opm: Opm) -> bool:
    """Structural type equality with indices compared by OPM equality."""
    if isinstance(a, co.UnitType) and isinstance(b, co.UnitType):
        return True
    if isinstance(a, TraceType) and isinstance(b, TraceType):
        return opm.eq(a.index, b.index)
    if isinstance(a, co.ArrowType) and isinstance(b, co.ArrowType):
        return (
            a.mode == b.mode
            and a.effect == b.effect
            and reference_types_equal(a.param, b.param, opm)
            and reference_types_equal(a.result, b.result, opm)
        )
    if isinstance(a, co.ProdType) and isinstance(b, co.ProdType):
        return (
            a.ordered == b.ordered
            and reference_types_equal(a.left, b.left, opm)
            and reference_types_equal(a.right, b.right, opm)
        )
    return False


def reference_locations(m: co.CoreTerm) -> tuple[int, ...]:
    """All location occurrences, with multiplicity."""
    if isinstance(m, co.Loc):
        return (m.ident,)
    if isinstance(m, co.Lam):
        return reference_locations(m.body)
    if isinstance(m, co.App):
        return reference_locations(m.fn) + reference_locations(m.arg)
    if isinstance(m, co.Pair):
        return reference_locations(m.left) + reference_locations(m.right)
    if isinstance(m, co.LetPair):
        return reference_locations(m.header) + reference_locations(m.body)
    return ()


def reference_find_redex(m: co.CoreTerm):
    """Redex search with one hand-written descent per evaluation position.

    Left-to-right everywhere except left application, whose argument is
    evaluated before its function part.  Returns None for values.
    """
    if is_value(m):
        return None
    if isinstance(m, co.App):
        if m.mode == "l":
            if not is_value(m.arg):
                sub = reference_find_redex(m.arg)
                assert sub is not None
                inner, rebuild = sub
                return inner, lambda t, m=m, rb=rebuild: co.App(m.mode, m.fn, rb(t))
            if not is_value(m.fn):
                sub = reference_find_redex(m.fn)
                assert sub is not None
                inner, rebuild = sub
                return inner, lambda t, m=m, rb=rebuild: co.App(m.mode, rb(t), m.arg)
            return m, lambda t: t
        if not is_value(m.fn):
            sub = reference_find_redex(m.fn)
            assert sub is not None
            inner, rebuild = sub
            return inner, lambda t, m=m, rb=rebuild: co.App(m.mode, rb(t), m.arg)
        if not is_value(m.arg):
            sub = reference_find_redex(m.arg)
            assert sub is not None
            inner, rebuild = sub
            return inner, lambda t, m=m, rb=rebuild: co.App(m.mode, m.fn, rb(t))
        return m, lambda t: t
    if isinstance(m, co.Pair):
        if not is_value(m.left):
            sub = reference_find_redex(m.left)
            assert sub is not None
            inner, rebuild = sub
            return inner, lambda t, m=m, rb=rebuild: co.Pair(m.ordered, rb(t), m.right)
        sub = reference_find_redex(m.right)
        assert sub is not None
        inner, rebuild = sub
        return inner, lambda t, m=m, rb=rebuild: co.Pair(m.ordered, m.left, rb(t))
    if isinstance(m, co.LetPair):
        if not is_value(m.header):
            sub = reference_find_redex(m.header)
            assert sub is not None
            inner, rebuild = sub
            return inner, lambda t, m=m, rb=rebuild: co.LetPair(
                m.ordered, m.x, m.y, rb(t), m.body
            )
        return m, lambda t: t
    # Free variables (and anything else non-value) sit at redex position
    # so the step function can report them as stuck.
    return m, lambda t: t


# The substitution evaluator: each step finds the redex from the root and
# substitutes into the whole continuation. It is the reference for
# `interp.step`, which takes the same steps on an environment machine.


def _fresh(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def reference_subst(m: CoreTerm, v: CoreTerm, x: str) -> CoreTerm:
    """Capture-avoiding substitution m[v/x]; v must be a value."""
    assert is_value(v), "substitution is only defined for values"
    return _subst(m, v, x, fv(v))


def _subst(m: CoreTerm, v: CoreTerm, x: str, fv_v: frozenset[str]) -> CoreTerm:
    if x not in fv(m):  # void substitution changes nothing, binders included
        return m
    if isinstance(m, Var):
        return v
    if isinstance(m, Lam):
        if m.var in fv_v:
            new = _fresh(m.var, fv_v | fv(m.body) | {x})
            body = _subst(m.body, Var(new), m.var, frozenset({new}))
            return Lam(m.mode, new, _subst(body, v, x, fv_v))
        return Lam(m.mode, m.var, _subst(m.body, v, x, fv_v))
    if isinstance(m, App):
        return App(m.mode, _subst(m.fn, v, x, fv_v), _subst(m.arg, v, x, fv_v))
    if isinstance(m, Pair):
        return Pair(m.ordered, _subst(m.left, v, x, fv_v), _subst(m.right, v, x, fv_v))
    if isinstance(m, LetPair):
        header = _subst(m.header, v, x, fv_v)
        if x in (m.x, m.y):
            return LetPair(m.ordered, m.x, m.y, header, m.body)
        bx, by, body = m.x, m.y, m.body
        if bx in fv_v:
            new = _fresh(bx, fv_v | fv(body) | {x, by})
            body = _subst(body, Var(new), bx, frozenset({new}))
            bx = new
        if by in fv_v:
            new = _fresh(by, fv_v | fv(body) | {x, bx})
            body = _subst(body, Var(new), by, frozenset({new}))
            by = new
        return LetPair(m.ordered, bx, by, header, _subst(body, v, x, fv_v))
    return m


@dataclass
class ReferenceConfig:
    term: CoreTerm
    heap: Heap
    next_loc: int = 0


@dataclass
class ReferenceOutcome:
    status: str  # "value" | "stepped" | "stuck"
    config: ReferenceConfig
    rule: Optional[str] = None
    reason: Optional[str] = None  # stuck: op-inadmissible | close-incomplete | no-rule
    redex: Optional[CoreTerm] = None


# The evaluation positions of each former, in the order they are evaluated:
# the field holding the position, and a constructor that puts a term there.
# Left application evaluates its argument before its function part.
_FN = ("fn", lambda m, t: App(m.mode, t, m.arg))
_ARG = ("arg", lambda m, t: App(m.mode, m.fn, t))
_POSITIONS = {
    App: (_FN, _ARG),
    Pair: (
        ("left", lambda m, t: Pair(m.ordered, t, m.right)),
        ("right", lambda m, t: Pair(m.ordered, m.left, t)),
    ),
    LetPair: (("header", lambda m, t: LetPair(m.ordered, m.x, m.y, t, m.body)),),
}


def _find_redex(m: CoreTerm) -> Optional[tuple[CoreTerm, Callable[[CoreTerm], CoreTerm]]]:
    """Locate the unique redex position per the evaluation-context grammar.

    Descends into the first non-value position until a term has none: that
    term is the redex, so free variables (and anything else non-value) sit
    at redex position for the step function to report as stuck.  Returns
    None for values.
    """
    if is_value(m):
        return None
    context = []  # (constructor, former) pairs, outermost first
    while True:
        positions = _POSITIONS.get(type(m), ())
        if isinstance(m, App) and m.mode == LEFT:
            positions = (_ARG, _FN)
        for name, put in positions:
            if not is_value(sub := getattr(m, name)):
                context.append((put, m))
                m = sub
                break
        else:
            break
    if not context:
        return m, lambda t: t

    def rebuild(t: CoreTerm) -> CoreTerm:
        for put, former in reversed(context):
            t = put(former, t)
        return t

    return m, rebuild


_BETA_RULE = {"u": "RE-Beta", "o": "RE-UBeta", "r": "RE-RBeta", "l": "RE-LBeta"}


def reference_step(cfg: ReferenceConfig, opm: Opm) -> ReferenceOutcome:
    if is_value(cfg.term):
        return ReferenceOutcome("value", cfg)
    found = _find_redex(cfg.term)
    assert found is not None
    redex, rebuild = found

    def stuck(reason: str) -> ReferenceOutcome:
        return ReferenceOutcome("stuck", cfg, reason=reason, redex=redex)

    def stepped(rule: str, new_term: CoreTerm, heap: Heap, next_loc: int) -> ReferenceOutcome:
        return ReferenceOutcome(
            "stepped", ReferenceConfig(rebuild(new_term), heap, next_loc), rule=rule, redex=redex
        )

    heap = cfg.heap
    if isinstance(redex, App):
        fn, arg = redex.fn, redex.arg
        if isinstance(fn, Lam):
            if fn.mode != redex.mode:
                return stuck("no-rule")
            return stepped(
                _BETA_RULE[redex.mode], reference_subst(fn.body, arg, fn.var), heap, cfg.next_loc
            )
        if redex.mode != PLAIN:
            return stuck("no-rule")
        if isinstance(fn, NewConst) and isinstance(arg, UnitConst):
            loc = cfg.next_loc
            new_heap = dict(heap)
            new_heap[loc] = (0, fn.index, opm.unit())
            return stepped("RC-Ne", Loc(loc), new_heap, loc + 1)
        if isinstance(fn, OpConst) and isinstance(arg, Loc) and arg.ident in heap:
            n, env, trace = heap[arg.ident]
            extended = opm.mul(trace, fn.index)
            if extended is None or not opm.residual_exists(extended, env):
                return stuck("op-inadmissible")
            new_heap = dict(heap)
            new_heap[arg.ident] = (n, env, extended)
            return stepped("RC-Op", arg, new_heap, cfg.next_loc)
        if isinstance(fn, SplitConst) and isinstance(arg, Loc) and arg.ident in heap:
            n, env, trace = heap[arg.ident]
            new_heap = dict(heap)
            new_heap[arg.ident] = (n + 1, env, trace)
            return stepped("RC-Sp", Pair(True, arg, arg), new_heap, cfg.next_loc)
        if isinstance(fn, DropConst) and isinstance(arg, Loc) and arg.ident in heap:
            n, env, trace = heap[arg.ident]
            if n > 0:
                new_heap = dict(heap)
                new_heap[arg.ident] = (n - 1, env, trace)
                return stepped("RC-Cl1", UnitConst(), new_heap, cfg.next_loc)
            if not opm.leq(trace, env):
                return stuck("close-incomplete")
            new_heap = dict(heap)
            del new_heap[arg.ident]
            return stepped("RC-Cl2", UnitConst(), new_heap, cfg.next_loc)
        return stuck("no-rule")
    if isinstance(redex, LetPair):
        header = redex.header
        if isinstance(header, Pair) and header.ordered == redex.ordered:
            body = reference_subst(redex.body, header.left, redex.x)
            body = reference_subst(body, header.right, redex.y)
            rule = "RE-OLet" if redex.ordered else "RE-ULet"
            return stepped(rule, body, heap, cfg.next_loc)
        return stuck("no-rule")
    return stuck("no-rule")
