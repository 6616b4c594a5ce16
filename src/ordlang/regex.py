"""Regular expressions over small symbol alphabets, with derivative-based automata.

Provides the regex index algebra (concatenation, inclusion order) plus the
canonical continuation of a borrow.  The continuation after a word is the
Brzozowski quotient: the index's automaton with its start moved along the
word.  After any other operand it is the product derivative, a product and
subset construction.  Regexes are normalized on construction (ACI
alternation, unit/zero laws, star collapse) so that iterated derivatives
fall into finitely many classes.  An automaton is built from derivative
rows: a regex's derivatives over the whole alphabet at once, each
sub-regex's row derived once per automaton; the per-symbol recursion is
the reference in `tests/oracles.py`.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Optional

from .opm import Opm, OpmError, register_opm
from .record import Record


class StateBudgetExceeded(Exception):
    """Automaton construction blew the state budget (pathological regex)."""


# ---------------------------------------------------------------------------
# Syntax and smart constructors

class Regex(Record, frozen=True, eq=False):
    # Hash (that of the field tuple, as a generated record hash), alphabet and
    # nullability, stored when the node is built from those of its fields
    # (a continuation's hash and alphabet on first use); prec-0 `show` string,
    # stored on first use. Not fields, so repr ignores them.
    _shown = None

    def __post_init__(self) -> None:
        cls, stored = self.__class__, self.__dict__
        if cls is Cat:
            left, right = self.left, self.right
            a, b = left._symbols, right._symbols
            facts = (hash((left, right)), a if b <= a else b if a <= b else a | b,
                     left._nullable and right._nullable)
        elif cls is Sym:
            facts = hash((self.ch,)), frozenset({self.ch}), False
        elif cls is Alt:
            items = self.items
            facts = (hash((items,)), frozenset().union(*[p._symbols for p in items]),
                     any([p._nullable for p in items]))
        elif cls is Star:
            facts = hash((self.inner,)), self.inner._symbols, True
        elif cls is Auto:  # its hash and alphabet on first use
            stored["_nullable"] = self.start in self.dfa.accepting
            return
        else:  # Empty, Eps
            facts = hash(()), frozenset(), cls is Eps
        stored["_hash"], stored["_symbols"], stored["_nullable"] = facts

    def _key(self) -> tuple:  # the field values, in field order
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Pairs of nodes on an explicit stack, so that no chain is too deep.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            for f in a.__match_args__:
                x, y = getattr(a, f), getattr(b, f)
                if x is y:
                    continue
                if x.__class__ is tuple:  # Alt items
                    if len(x) != len(y):
                        return False
                    stack.extend([p for p in zip(x, y) if p[0] is not p[1]])
                elif isinstance(x, Regex):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self) -> tuple:  # rebuild from the fields: a str hash is per process
        return (self.__class__, self._key())

    def __str__(self) -> str:
        return show(self)


class Empty(Regex):
    """The empty language."""


class Eps(Regex):
    """The language of the empty word."""


class Sym(Regex):
    ch: str


class Cat(Regex):
    left: Regex
    right: Regex


class Alt(Regex):
    # Canonically sorted, deduplicated, flattened; never empty or singleton.
    items: tuple[Regex, ...]


class Star(Regex):
    inner: Regex


class Auto(Regex):
    """A continuation: the language of an automaton from its state `start`,
    which reaches some accepting state, read back to a regex (state
    elimination) only when it is printed. Moving the start shares the
    automaton, and with it the states that can reach acceptance."""

    dfa: Dfa
    start: int

    @cached_property
    def live(self) -> frozenset[int]:
        """The states reachable from the start that can reach acceptance."""
        reach, _ = _explore(self.start, self.dfa.trans.__getitem__, self.dfa.n_states + 1, None)
        return self.dfa.coreach.intersection(reach)

    @cached_property
    def _hash(self) -> int:
        return hash((self.dfa, self.start))

    @cached_property
    def _symbols(self) -> frozenset[str]:  # the labels between live states
        d, live = self.dfa, self.live
        return frozenset(a for q in live for a, t in zip(d.alphabet, d.trans[q]) if t in live)

    @cached_property
    def readback(self) -> Regex:
        """Read back on first use, by the module-global name a tracer can wrap,
        renumbered from the start as a product numbers its states, so that a
        moved start prints as the product construction's continuation does."""
        return regex_from_dfa(_dfa_over(self, self.dfa.alphabet))


EMPTY = Empty()
EPS = Eps()


def sym(ch: str) -> Regex:
    return Sym(ch)


def cat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return EMPTY
    if isinstance(a, Eps):
        return b
    if isinstance(b, Eps):
        return a
    if isinstance(a, Cat):  # reassociate to the right
        return cat(a.left, cat(a.right, b))
    return Cat(a, b)


def alt(*parts: Regex) -> Regex:
    live = [p for p in parts if not isinstance(p, Empty)]
    if len(live) < 2:  # nothing to merge or sort
        return live[0] if live else EMPTY
    items: list[Regex] = []
    for p in live:
        if isinstance(p, Alt):
            items.extend(p.items)
        else:
            items.append(p)
    uniq = sorted(set(items), key=show)
    if len(uniq) == 1:
        return uniq[0]
    return Alt(tuple(uniq))


def star(r: Regex) -> Regex:
    if isinstance(r, (Empty, Eps)):
        return EPS
    if isinstance(r, Star):
        return r
    return Star(r)


def seq(*parts: Regex) -> Regex:
    out: Regex = EPS
    for p in reversed(parts):
        out = cat(p, out)
    return out


def _unstored_spine(r: Regex, side: str) -> list[Regex]:
    """The Cats below r down its left spine (a trace's) or its right spine (a
    word's) that lack a `show` string, deepest first; showing each in turn
    recurses one level at a time."""
    spine = []
    while isinstance(r, Cat) and isinstance(nxt := getattr(r, side), Cat) and nxt._shown is None:
        spine.append(r := nxt)
    return spine[::-1]


def symbols(r: Regex) -> frozenset[str]:
    """The symbols occurring in `r`, stored on it."""
    return r._symbols


def show(r: Regex, prec: int = 0) -> str:
    # precedence: alternation 0 < concatenation 1 < star 2
    if isinstance(r, Auto):
        return show(r.readback, prec)
    s = r._shown
    if s is None:
        if isinstance(r, Empty):
            s = "∅"
        elif isinstance(r, Eps):
            s = "eps"
        elif isinstance(r, Sym):
            s = r.ch
        elif isinstance(r, Star):
            s = show(r.inner, 2) + "*"
        elif isinstance(r, Cat):
            for c in _unstored_spine(r, "left") + _unstored_spine(r, "right"):
                show(c)
            s = show(r.left, 1) + show(r.right, 1)
        elif isinstance(r, Alt):
            s = "|".join(show(p, 1) for p in r.items)
        else:
            raise AssertionError(r)
        object.__setattr__(r, "_shown", s)
    if (prec > 1 and isinstance(r, Cat)) or (prec > 0 and isinstance(r, Alt)):
        return f"({s})"
    return s


def is_empty_language(r: Regex) -> bool:
    # Normalization propagates the empty language to the top for this syntax
    # (no complement/intersection), so the check is just structural.
    return isinstance(r, Empty)


# ---------------------------------------------------------------------------
# Derivatives and automata

def nullable(r: Regex) -> bool:
    return r._nullable


def derivative(r: Regex, a: str) -> Regex:
    return _row(r, (a,), {})[0]


def _row(r: Regex, alphabet: tuple[str, ...], memo: dict) -> tuple[Regex, ...]:
    """r's derivatives by each symbol of `alphabet`, in order; `memo` holds the
    row of each sub-regex already derived, so that each is derived once."""
    row = memo.get(r)
    if row is not None:
        return row
    if isinstance(r, Sym):
        row = tuple([EPS if a == r.ch else EMPTY for a in alphabet])
    elif isinstance(r, Cat):
        right = r.right
        row = tuple([cat(d, right) for d in _row(r.left, alphabet, memo)])
        if r.left._nullable:
            row = tuple(map(alt, row, _row(right, alphabet, memo)))
    elif isinstance(r, Alt):
        row = tuple(map(alt, *[_row(p, alphabet, memo) for p in r.items]))
    elif isinstance(r, Star):
        row = tuple([cat(d, r) for d in _row(r.inner, alphabet, memo)])
    elif isinstance(r, Auto):  # the start moved along the shared automaton
        d, step = r.dfa, dict(zip(r.dfa.alphabet, r.dfa.trans[r.start]))
        row = tuple([Auto(d, q) if (q := step.get(a)) in d.coreach else EMPTY for a in alphabet])
    else:  # Empty, Eps
        row = (EMPTY,) * len(alphabet)
    memo[r] = row
    return row


class Dfa(Record, frozen=True):
    """A total automaton whose start is state 0, from which `_explore`, which
    numbers every automaton built here, reaches every state."""

    alphabet: tuple[str, ...]
    accepting: frozenset[int]
    # trans[state][symbol index] -> state; total over the alphabet
    trans: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.trans)

    @cached_property
    def coreach(self) -> frozenset[int]:
        """The states that can reach acceptance, whatever the start."""
        co, trans = set(self.accepting), self.trans
        while grown := {q for q, t in enumerate(trans) if q not in co and not co.isdisjoint(t)}:
            co |= grown
        return frozenset(co)


DEFAULT_STATE_BUDGET = 512


def _explore(start, successors, budget: int, message):
    """Number the states reachable from `start` breadth-first, from 0.

    Returns the states in number order and, per state, the row of the numbers
    of its `successors`.  Numbering state `budget` raises
    StateBudgetExceeded(message())."""
    number = {start: 0}
    order = [start]
    trans: list[tuple[int, ...]] = []
    for cur in order:  # grows as new states are numbered
        row: list[int] = []
        for nxt in successors(cur):
            ix = number.get(nxt)
            if ix is None:
                if len(order) >= budget:
                    raise StateBudgetExceeded(message())
                ix = number[nxt] = len(order)
                order.append(nxt)
            row.append(ix)
        trans.append(tuple(row))
    return order, tuple(trans)


@lru_cache(maxsize=4096)
def to_dfa(r: Regex, alphabet: tuple[str, ...]) -> Dfa:
    """Total DFA over `alphabet` whose language is L(r), by derivative classes,
    each state's derivatives over the whole alphabet taken as one row."""
    memo: dict = {}  # each sub-regex's row, derived once per call
    order, trans = _explore(
        r, lambda cur: _row(cur, alphabet, memo), DEFAULT_STATE_BUDGET,
        lambda: f"more than {DEFAULT_STATE_BUDGET} derivative classes for {show(r)}",
    )
    return Dfa(alphabet, frozenset(ix for ix, cls in enumerate(order) if nullable(cls)), trans)


def _joint_alphabet(*rs: Regex) -> tuple[str, ...]:
    return tuple(sorted(frozenset().union(*[symbols(r) for r in rs])))


def _dfa_over(r: Regex, alphabet: tuple[str, ...]) -> Dfa:
    """A DFA over `alphabet` whose language is L(r).

    A continuation's own DFA is renumbered: its live states keep their
    transitions, and every other transition (among them those on symbols
    the DFA lacks) goes to one dead state.  Any other regex is derived by
    `to_dfa`."""
    if not isinstance(r, Auto):
        return to_dfa(r, alphabet)
    d, live, dead = r.dfa, r.live, -1
    cols = [d.alphabet.index(a) if a in d.alphabet else None for a in alphabet]
    order, trans = _explore(
        r.start,
        lambda q: (dead if q == dead or k is None or d.trans[q][k] not in live
                   else d.trans[q][k] for k in cols),
        d.n_states + 1, None,  # never met: at most every state and the dead one
    )
    return Dfa(alphabet, frozenset(ix for ix, q in enumerate(order) if q in d.accepting), trans)


def _reached(num: Regex, den: Regex) -> tuple[Dfa, set[int]]:
    """num's DFA over the joint alphabet, and the set S of its states that
    words of L(den) reach from its start (a search of the product automaton)."""
    alphabet = _joint_alphabet(num, den)
    dn, dd = _dfa_over(num, alphabet), _dfa_over(den, alphabet)
    seen, work, reached = {(0, 0)}, [(0, 0)], set()
    while work:
        qd, qn = work.pop()
        if qd in dd.accepting:
            reached.add(qn)
        for nxt in zip(dd.trans[qd], dn.trans[qn]):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return dn, reached


def includes(big: Regex, small: Regex) -> bool:
    """Decide L(small) ⊆ L(big): every big-state reached by a word of small accepts."""
    db, reached = _reached(big, small)
    return reached <= db.accepting


def equivalent(a: Regex, b: Regex) -> bool:
    return includes(a, b) and includes(b, a)


READBACK_BUDGET = 100_000  # characters per arc; printed continuations have some hundreds


def regex_from_dfa(dfa: Dfa) -> Regex:
    """Read a regex back from a DFA by state elimination over its live states:
    those that can reach acceptance, as the start reaches every state.

    A path from the start to acceptance passes through live states only, so
    leaving the others out changes no arc between live ones.  An arc that
    prints longer than READBACK_BUDGET raises StateBudgetExceeded."""
    n, live = dfa.n_states, dfa.coreach
    # Arc labels between virtual start (n) and accept (n+1) nodes.
    arcs: dict[tuple[int, int], Regex] = {}

    def add(i: int, j: int, r: Regex) -> None:
        arc = arcs[(i, j)] = alt(arcs.get((i, j), EMPTY), r)
        if len(show(arc)) > READBACK_BUDGET:
            raise StateBudgetExceeded(
                f"continuation reads back to more than {READBACK_BUDGET} characters"
            )

    for s in sorted(live):
        for a, t in zip(dfa.alphabet, dfa.trans[s]):
            if t in live:
                add(s, t, sym(a))
    if live:  # then the start is live
        add(n, 0, EPS)
    for s in dfa.accepting & live:
        add(s, n + 1, EPS)

    for s in sorted(live):  # eliminate state s
        loop = arcs.pop((s, s), EMPTY)
        ins = [(i, r) for (i, j), r in arcs.items() if j == s and i != s]
        outs = [(j, r) for (i, j), r in arcs.items() if i == s and j != s]
        for i, rin in ins:
            del arcs[(i, s)]
        for j, rout in outs:
            del arcs[(s, j)]
        for i, rin in ins:
            for j, rout in outs:
                add(i, j, seq(rin, star(loop), rout))

    return arcs.get((n, n + 1), EMPTY)


def product_derivative(num: Regex, den: Regex) -> Regex:
    """The largest z with L(den)·z ⊆ L(num), as its DFA; the empty language if none."""
    dfa = _continuation_dfa(num, den)
    return Auto(dfa, 0) if dfa is not None and dfa.accepting else EMPTY


def _continuation_dfa(num: Regex, den: Regex) -> Optional[Dfa]:
    """A DFA for `product_derivative(num, den)`, every state reachable.

    Construction: collect the set S of num-automaton states reachable from
    its start by some word of den, then accept exactly the words that reach
    acceptance from every state in S.  None when S is empty.
    """
    if is_empty_language(den):
        raise ValueError("product derivative by the empty language")
    # S: num-states reached by words of L(den).
    dn, reached = _reached(num, den)
    if not reached:  # unreachable given a nonempty den
        return None

    # Determinized universal acceptance from S.
    order, trans = _explore(
        tuple(sorted(reached)),
        lambda cur: (tuple(sorted(set(col))) for col in zip(*[dn.trans[q] for q in cur])),
        DEFAULT_STATE_BUDGET, lambda: "product derivative state budget",
    )
    accepting = frozenset(ix for ix, st in enumerate(order) if dn.accepting.issuperset(st))
    return Dfa(dn.alphabet, accepting, trans)


# ---------------------------------------------------------------------------
# Concrete syntax inside `{...}` literals

# One token after optional spaces: `eps` unless a letter or digit follows, or
# any other single character. `\s` is `str.isspace` and `[^\W_]` is
# `str.isalnum`, over every code point.
_REGEX_TOKEN = re.compile(r"\s*(eps(?![^\W_])|\S)")


def parse_regex(text: str) -> Regex:
    """Parse the `{...}` payload: symbols are single letters, `|` alternation,
    juxtaposition concatenation, postfix `*`, parentheses, `eps` empty word.
    Precedence: star > concatenation > alternation.

    One loop over the tokens and an end marker (""): `alts` holds the closed
    alternatives of the innermost open group, `factors` the current one's
    factors, and `groups` both of each enclosing group, saved at its `(`."""
    alts: list[Regex] = []
    factors: list[Regex] = []
    groups: list[tuple[list[Regex], list[Regex]]] = []
    for tok in _REGEX_TOKEN.findall(text) + [""]:
        if tok == "*" and factors:
            factors[-1] = star(factors[-1])
        elif tok == "(":
            groups.append((alts, factors))
            alts, factors = [], []
        elif tok in ("|", ")", ""):
            if not factors:
                raise OpmError(f"empty regex fragment in {text!r}")
            alts.append(seq(*factors))
            factors = []
            if tok == ")":
                if not groups:
                    raise OpmError(f"trailing characters in regex {text!r}")
                group = alt(*alts)
                alts, factors = groups.pop()
                factors.append(group)
            elif not tok:
                if groups:
                    raise OpmError(f"unbalanced parenthesis in regex {text!r}")
                return alt(*alts)
        elif tok == "eps":
            factors.append(EPS)
        elif tok.isalpha():
            factors.append(sym(tok))
        else:
            raise OpmError(f"unexpected character {tok!r} in regex {text!r}")


def _word(x: Regex) -> Optional[list[str]]:
    """The symbols of x when all of x is a word: `eps`, a symbol, or a
    right-nested Cat whose every left is a symbol and whose last right is one."""
    word = []
    while isinstance(x, Cat) and isinstance(x.left, Sym):
        word.append(x.left.ch)
        x = x.right
    if isinstance(x, Sym):
        return word + [x.ch]
    return word if isinstance(x, Eps) else None


# ---------------------------------------------------------------------------
# The regex OPM: free monoid of nonempty regular languages, ordered by inclusion

class RegexOpm(Opm):
    """Nonempty regular languages under concatenation and inclusion.

    Multiplication is total here; conformance of traces with a resource's
    envelope is enforced by the operational side conditions, not by the
    algebra.  The alphabet is implicit: the symbols occurring in the
    operands.
    """

    name = "regex"

    def unit(self) -> Regex:
        return EPS

    def mul(self, x: Regex, y: Regex) -> Optional[Regex]:
        # O(1) where `cat` walks x to nest right; `show` prints both alike.
        if isinstance(x, Cat) and not isinstance(y, (Eps, Empty)):
            return Cat(x, y)
        return cat(x, y)

    def leq(self, x: Regex, y: Regex) -> bool:
        return includes(y, x)

    def best_continuation(self, x: Regex, y: Regex) -> Optional[Regex]:
        word = _word(x)
        if word is None:
            pd = product_derivative(y, x)
            return None if is_empty_language(pd) else pd
        # The quotient by a word: y's automaton with its start moved along it,
        # stopping where no word leads to acceptance; one leaf where it ends.
        d, q = (y.dfa, y.start) if isinstance(y, Auto) else (to_dfa(y, _joint_alphabet(y)), 0)
        co = d.coreach
        for a in word:
            if q not in co or a not in d.alphabet:
                return None
            q = d.trans[q][d.alphabet.index(a)]
        if q not in co or not word and isinstance(y, Auto):
            return y if q in co else None
        return Auto(d, q)

    def droppable(self, x: Regex) -> bool:
        return nullable(x)

    def parse_element(self, text: str) -> Regex:
        return parse_regex(text)

    def show_element(self, x: Regex) -> str:
        return show(x)


register_opm("regex", RegexOpm)
