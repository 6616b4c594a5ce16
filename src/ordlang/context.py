"""Bunched typing contexts and their DAG semantics.

Contexts are trees over bindings with two formers: `,` (sequential, no
exchange) and `∥` (parallel, exchange).  Contexts built here are kept up to
the unit laws `Γ, · ≡ Γ ≡ Γ ∥ ·`: the smart constructors `seq` and `par`
never store `·` below a former, so a tree holds only its live bindings and
holes.  A context denotes a DAG over its ordered bindings (edges are
must-use-before constraints) plus a set of unrestricted bindings.  That
interpretation defines equivalence and the subcontext relation; `equiv` and
`subcontext` decide them on it for any context, duplicate labels included.
The checker's contexts have unique ordered labels (binders are freshened),
so `split_violation` decides the splits it needs on the tree instead.
Context patterns are contexts with exactly one hole; restriction and
decomposition rearrange contexts up to the subcontext relation to isolate
the bindings a subterm needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from .core import CoreType, TraceType, show_type, unr
from .opm import Opm


# ---------------------------------------------------------------------------
# Bindings and context trees

@dataclass(frozen=True)
class Binding:
    kind: str  # "var" | "loc"
    name: Union[str, int]
    type: CoreType

    def is_unr(self) -> bool:
        return unr(self.type)

    def is_ord(self) -> bool:
        return not self.is_unr()


def var_bind(name: str, t: CoreType) -> Binding:
    return Binding("var", name, t)


def loc_bind(ident: int, index: Any) -> Binding:
    return Binding("loc", ident, TraceType(index))


@dataclass(frozen=True)
class Ctx:
    # (ordered bindings, variable names, tidy, holes), stored when the node
    # is built, from its binding or its sides'; not a dataclass field, so
    # equality, hashing and repr ignore it.  A tidy context binds only
    # variables, has no hole and is in unit normal form.

    def __post_init__(self) -> None:
        if isinstance(self, Bind):
            b = self.binding
            names = frozenset({b.name}) if b.kind == "var" else frozenset()
            facts = (frozenset({b}) if b.is_ord() else frozenset(), names, bool(names), 0)
        elif isinstance(self, (Seq, Par)):
            (o1, v1, t1, h1), (o2, v2, t2, h2) = self.left._facts, self.right._facts
            units = isinstance(self.left, Empty) or isinstance(self.right, Empty)
            # share a side's set when the other side adds nothing
            facts = (o1 | o2 if o1 and o2 else o1 or o2, v1 | v2 if v1 and v2 else v1 or v2,
                     t1 and t2 and not units, h1 + h2)
        else:  # `·` and `[]` keep theirs on the class
            return
        object.__setattr__(self, "_facts", facts)


class Empty(Ctx):
    _facts = (frozenset(), frozenset(), True, 0)


@dataclass(frozen=True)
class Bind(Ctx):
    binding: Binding


@dataclass(frozen=True)
class Seq(Ctx):
    left: Ctx
    right: Ctx


@dataclass(frozen=True)
class Par(Ctx):
    left: Ctx
    right: Ctx


class Hole(Ctx):
    _facts = (frozenset(), frozenset(), False, 1)


EMPTY = Empty()
HOLE = Hole()


def seq(left: Ctx, right: Ctx) -> Ctx:
    """`left, right` with the unit law `Γ, · ≡ Γ ≡ ·, Γ` applied."""
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    return Seq(left, right)


def par(left: Ctx, right: Ctx) -> Ctx:
    """`left ∥ right` with the unit law `Γ ∥ · ≡ Γ ≡ · ∥ Γ` applied."""
    if isinstance(left, Empty):
        return right
    if isinstance(right, Empty):
        return left
    return Par(left, right)


def hole_count(ctx: Ctx) -> int:
    return _facts(ctx)[3]


def fill(pattern: Ctx, ctx: Ctx) -> Ctx:
    """Plug `ctx` into the unique hole of `pattern`."""
    if isinstance(pattern, Hole):
        return ctx
    if isinstance(pattern, (Seq, Par)):
        join = seq if isinstance(pattern, Seq) else par
        if hole_count(pattern.left):
            return join(fill(pattern.left, ctx), pattern.right)
        return join(pattern.left, fill(pattern.right, ctx))
    raise ValueError("pattern has no hole")


def _facts(ctx: Ctx) -> tuple[frozenset[Binding], frozenset[str], bool, int]:
    """(ordered bindings, variable names, tidy, holes), stored on the node."""
    return ctx._facts


def dom_vars(ctx: Ctx) -> frozenset[str]:
    return _facts(ctx)[1]


def all_unr(ctx: Ctx) -> bool:
    return not _facts(ctx)[0]  # a type is unrestricted iff it is not ordered


def lookup_var(ctx: Ctx, name: str) -> Optional[Binding]:
    """The leftmost binding of `name`, found by descending through the
    subtrees that bind it."""
    if name not in dom_vars(ctx):
        return None
    while not isinstance(ctx, Bind):
        ctx = ctx.left if name in dom_vars(ctx.left) else ctx.right
    return ctx.binding


def label(b: Binding) -> str:
    return b.name if b.kind == "var" else f"l{b.name}"


def show_ctx(ctx: Ctx, opm: Opm, prec: int = 0) -> str:
    if isinstance(ctx, Empty):
        return "·"
    if isinstance(ctx, Hole):
        return "[]"
    if isinstance(ctx, Bind):
        return f"{label(ctx.binding)}:{show_type(ctx.binding.type, opm, 3)}"
    if isinstance(ctx, Seq):
        s = f"{show_ctx(ctx.left, opm, 1)}, {show_ctx(ctx.right, opm, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(ctx, Par):
        s = f"{show_ctx(ctx.left, opm, 2)} ∥ {show_ctx(ctx.right, opm, 2)}"
        return f"({s})" if prec > 1 else s
    raise AssertionError(ctx)


# ---------------------------------------------------------------------------
# Graph representations and interpretation

@dataclass(frozen=True)
class GraphRep:
    n: int
    labels: tuple[Binding, ...]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Interp:
    graph: GraphRep
    unrs: frozenset[Binding]


EMPTY_GRAPH = GraphRep(0, (), frozenset())


def interpret(ctx: Ctx) -> Interp:
    """The ordered bindings as vertices in tree order, with an edge from each
    vertex left of a `,` to each vertex right of it; the unrestricted aside."""
    labels: list[Binding] = []
    edges: set[tuple[int, int]] = set()
    unrs: set[Binding] = set()

    def walk(c: Ctx) -> None:
        if isinstance(c, Bind):
            (unrs.add if c.binding.is_unr() else labels.append)(c.binding)
        elif isinstance(c, (Seq, Par)):
            first = len(labels)
            walk(c.left)
            mid = len(labels)
            walk(c.right)
            if isinstance(c, Seq):  # a subtree's vertices are consecutive
                edges.update((a, b) for a in range(first, mid) for b in range(mid, len(labels)))
        elif not isinstance(c, Empty):
            raise ValueError("cannot interpret a context pattern")

    walk(ctx)
    return Interp(GraphRep(len(labels), tuple(labels), frozenset(edges)), frozenset(unrs))


def _label_classes(g: GraphRep) -> dict[Binding, list[int]]:
    classes: dict[Binding, list[int]] = {}
    for i, b in enumerate(g.labels):
        classes.setdefault(b, []).append(i)
    return classes


def spanning_embed(g1: GraphRep, g2: GraphRep) -> bool:
    """Label-preserving bijection carrying E1 into a subset of E2."""
    if g1.n != g2.n:
        return False
    c1, c2 = _label_classes(g1), _label_classes(g2)
    if set(c1) != set(c2) or any(len(c1[k]) != len(c2[k]) for k in c1):
        return False

    order = sorted(range(g1.n), key=lambda i: len(c1[g1.labels[i]]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(i: int, j: int) -> bool:
        for a, fa in mapping.items():
            if ((a, i) in g1.edges) and ((fa, j) not in g2.edges):
                return False
            if ((i, a) in g1.edges) and ((j, fa) not in g2.edges):
                return False
        return True

    def go(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in c2[g1.labels[i]]:
            if j in used or not consistent(i, j):
                continue
            mapping[i] = j
            used.add(j)
            if go(k + 1):
                return True
            del mapping[i]
            used.discard(j)
        return False

    return go(0)


def iso(g1: GraphRep, g2: GraphRep) -> bool:
    """Label- and edge-set-preserving bijection exists.  Embeddings both ways
    force |E1| = |E2|, so each of them is an isomorphism."""
    return spanning_embed(g1, g2) and spanning_embed(g2, g1)


def equiv(c1: Ctx, c2: Ctx) -> bool:
    i1, i2 = interpret(c1), interpret(c2)
    return i1.unrs == i2.unrs and iso(i1.graph, i2.graph)


def subcontext(c1: Ctx, c2: Ctx) -> bool:
    """c1 ≲ c2: c2 carries at least c1's ordering edges (up to relabeling)
    and at most its unrestricted bindings."""
    i1, i2 = interpret(c1), interpret(c2)
    return i1.unrs >= i2.unrs and spanning_embed(i1.graph, i2.graph)


# ---------------------------------------------------------------------------
# Deciding the checker's splits on the tree

Violation = tuple[str, Binding, Optional[Binding]]


def split_violation(ctx: Ctx, first: Ctx, second: Ctx, former) -> Optional[Violation]:
    """Decide `ctx ≲ former(first, second)` for `former` in {seq, par}.

    `ctx`'s ordered bindings must be unique and include those of `first` and
    `second` (restrictions of `ctx`, or `·`).  None when the relation holds;
    else ("shared", x, None) for an ordered binding x of both sides,
    ("discarded", x, None) for one of neither, or ("ordered", x, y) for a
    `,` of `ctx` that puts x before y where the split reverses that order
    or, under `∥`, drops it.  The pass skips every subtree whose ordered
    bindings all lie on one side.
    """
    ords, a, b = _facts(ctx)[0], _facts(first)[0], _facts(second)[0]
    if not a.isdisjoint(b):
        return ("shared", _leftmost(ctx, a & b), None)
    if len(a) + len(b) != len(ords):
        return ("discarded", _leftmost(ctx, ords - a - b), None)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if not small:
        return None
    # (before, after) sides that no `,` of ctx may order that way
    bad = [(b, a)] if former is seq else [(a, b), (b, a)]

    def has(o: frozenset[Binding], side: frozenset[Binding]) -> bool:
        # every binding is on exactly one side, so test against the smaller
        return not o.isdisjoint(small) if side is small else not o <= small

    def go(node: Ctx) -> Optional[Violation]:
        o = _facts(node)[0]
        if not has(o, small) or not has(o, large):
            return None
        if isinstance(node, Seq):
            left, right = _facts(node.left)[0], _facts(node.right)[0]
            for before, after in bad:
                if has(left, before) and has(right, after):
                    x, y = _leftmost(node.left, before), _leftmost(node.right, after)
                    return ("ordered", x, y)
        return go(node.left) or go(node.right)

    return go(ctx)


def _leftmost(ctx: Ctx, among: frozenset[Binding]) -> Binding:
    """The leftmost ordered binding of `ctx` in `among`."""
    while not isinstance(ctx, Bind):
        ctx = ctx.right if _facts(ctx.left)[0].isdisjoint(among) else ctx.left
    return ctx.binding


# ---------------------------------------------------------------------------
# Restriction and decomposition

def restrict(ctx: Ctx, names: frozenset[str]) -> Ctx:
    """Drop the variable bindings outside `names`.  A tidy subtree comes
    back unchanged when it binds only names in `names`, and as `·` when it
    binds none of them."""
    _, dom, tidy, _ = _facts(ctx)
    if tidy and dom <= names:
        return ctx
    if tidy and dom.isdisjoint(names):
        return EMPTY
    if isinstance(ctx, Bind):  # a location: variable bindings are tidy
        return ctx
    if isinstance(ctx, (Seq, Par)):
        join = seq if isinstance(ctx, Seq) else par
        return join(restrict(ctx.left, names), restrict(ctx.right, names))
    raise ValueError("cannot restrict a context pattern")


# Pattern extractors: partial normalizers up to context equivalence.  The
# hole may be freed from a former only by floating unrestricted neighbours
# (their position in a context is irrelevant).  The one-sided extractors are
# `pat_closed` with an all-unrestricted far side, floated beside the near one.

def pat_right(g: Ctx) -> Optional[Ctx]:
    """Δ with g ≃ (Δ, []): everything in g precedes the hole."""
    k = pat_closed(g)
    return par(*k) if k is not None and all_unr(k[1]) else None


def pat_left(g: Ctx) -> Optional[Ctx]:
    """Δ with g ≃ ([], Δ): everything in g follows the hole."""
    k = pat_closed(g)
    return par(*k) if k is not None and all_unr(k[0]) else None


def pat_par(g: Ctx) -> Optional[Ctx]:
    """Δ with g ≃ ([] ∥ Δ): nothing in g is ordered against the hole."""
    if isinstance(g, Hole):
        return EMPTY
    if isinstance(g, Par):
        if hole_count(g.left):
            d = pat_par(g.left)
            return None if d is None else par(d, g.right)
        d = pat_par(g.right)
        return None if d is None else par(g.left, d)
    if isinstance(g, Seq):
        side, other = (g.left, g.right) if hole_count(g.left) else (g.right, g.left)
        if not all_unr(other):
            return None
        d = pat_par(side)
        return None if d is None else par(d, other)
    return None


def pat_closed(g: Ctx) -> Optional[tuple[Ctx, Ctx]]:
    """(Δ1, Δ2) with g ≃ (Δ1, [], Δ2)."""
    if isinstance(g, Hole):
        return (EMPTY, EMPTY)
    if isinstance(g, Seq):
        if hole_count(g.left):
            r = pat_closed(g.left)
            return None if r is None else (r[0], seq(r[1], g.right))
        r = pat_closed(g.right)
        return None if r is None else (seq(g.left, r[0]), r[1])
    if isinstance(g, Par):
        side, other = (g.left, g.right) if hole_count(g.left) else (g.right, g.left)
        if not all_unr(other):
            return None
        r = pat_closed(side)
        return None if r is None else (par(r[0], other), r[1])
    return None


def decompose(ctx: Ctx, names: frozenset[str]) -> Optional[tuple[Ctx, Ctx]]:
    """Split `ctx` into a pattern G and a context Γ' with ctx ≲ G[Γ'],
    dom(Γ') ⊆ names, and names disjoint from G's ordered variables.

    Fails (None) when the named bindings are inseparably interleaved with
    others.  Clauses are tried in a fixed order, so the result is
    deterministic; unrestricted named bindings appear in both parts.  When
    `ctx` binds none of `names`, Γ' is empty and the hole is placed parallel
    to all of `ctx`, the placement that orders it against nothing.
    """
    if not (dom_vars(ctx) & names):
        return (par(HOLE, ctx), EMPTY)
    return _decompose(ctx, names)


def _decompose(ctx: Ctx, names: frozenset[str]) -> Optional[tuple[Ctx, Ctx]]:
    """`decompose` for a `ctx` that binds some of `names`."""
    if isinstance(ctx, Bind):
        if ctx.binding.is_ord():
            return (HOLE, ctx)
        return (par(HOLE, ctx), ctx)
    if not isinstance(ctx, (Seq, Par)):
        raise ValueError("cannot decompose a context pattern")
    g1, g2 = ctx.left, ctx.right
    join = seq if isinstance(ctx, Seq) else par
    if not (dom_vars(g1) & names):
        r = _decompose(g2, names)
        return None if r is None else (join(g1, r[0]), r[1])
    if not (dom_vars(g2) & names):
        r = _decompose(g1, names)
        return None if r is None else (join(r[0], g2), r[1])
    r1, r2 = _decompose(g1, names), _decompose(g2, names)
    if r1 is None or r2 is None:
        return None
    (p1, c1), (p2, c2) = r1, r2
    if isinstance(ctx, Seq):
        gr, gl = pat_right(p1), pat_left(p2)
        if gr is not None and gl is not None:
            return (seq(gr, seq(HOLE, gl)), seq(c1, c2))
        return None
    a1, a2 = pat_par(p1), pat_par(p2)
    if a1 is not None and a2 is not None:
        return (par(par(a1, a2), HOLE), par(c1, c2))
    l1, l2 = pat_left(p1), pat_left(p2)
    if l1 is not None and l2 is not None:
        return (seq(HOLE, par(l1, l2)), par(c1, c2))
    q1, q2 = pat_right(p1), pat_right(p2)
    if q1 is not None and q2 is not None:
        return (seq(par(q1, q2), HOLE), par(c1, c2))
    if q1 is not None and l2 is not None:
        return (seq(q1, seq(HOLE, l2)), seq(c2, c1))
    if l1 is not None and q2 is not None:
        return (seq(q2, seq(HOLE, l1)), seq(c1, c2))
    k1, k2 = pat_closed(p1), pat_closed(p2)
    if k1 is not None and k2 is not None:
        return (
            seq(par(k1[0], k2[0]), seq(HOLE, par(k1[1], k2[1]))),
            par(c1, c2),
        )
    return None


# ---------------------------------------------------------------------------
# Rendering

def to_dot(interp: Interp, opm: Opm, title: str = "context") -> str:
    """DOT rendering: ordered bindings as vertices, unrestricted set as a legend."""
    lines = [f'digraph "{title}" {{']
    g = interp.graph
    for i, b in enumerate(g.labels):
        lines.append(f'  n{i} [label="{label(b)}:{show_type(b.type, opm, 3)}"];')
    for a, b in sorted(g.edges):
        lines.append(f"  n{a} -> n{b};")
    if interp.unrs:
        legend = "\\n".join(
            sorted(f"{label(b)}:{show_type(b.type, opm, 3)}" for b in interp.unrs)
        )
        lines.append(f'  unrestricted [shape=box, label="unrestricted\\n{legend}"];')
    lines.append("}")
    return "\n".join(lines)
