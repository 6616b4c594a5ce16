"""Core calculus: constants, terms, types, effects, and term utilities.

Four abstraction/application modes (plain, unordered capture, right, left),
two pair modes (unordered ⊗, ordered ⊙), trace types indexed by OPM
elements, and a 0/1 effect lattice.  Core terms are produced by elaboration
or by test builders; there is no core parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .opm import Opm

# Abstraction/application/arrow modes.
PLAIN = "u"
UNORD = "o"
RIGHT = "r"
LEFT = "l"
MODES = (PLAIN, UNORD, RIGHT, LEFT)

Effect = int  # 0 or 1; join is max


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class CoreType:
    pass


class UnitType(CoreType):
    pass


@dataclass(frozen=True)
class TraceType(CoreType):
    index: Any  # OPM element


@dataclass(frozen=True)
class ArrowType(CoreType):
    mode: str
    param: CoreType
    result: CoreType
    effect: Effect


@dataclass(frozen=True)
class ProdType(CoreType):
    ordered: bool
    left: CoreType
    right: CoreType


UNIT_T = UnitType()


def unr(t: CoreType) -> bool:
    """Unrestricted types contain no resource and no capturing function."""
    if isinstance(t, UnitType):
        return True
    if isinstance(t, ArrowType):
        return t.mode == PLAIN
    if isinstance(t, ProdType):
        return unr(t.left) and unr(t.right)
    return False


def types_equal(a: CoreType, b: CoreType, opm: Opm) -> bool:
    """Structural type equality, indices by OPM equality: the fields that are
    not types (mode, effect, order) first, then the component types in order,
    so an arrow's effect is compared before its parameter."""
    if type(a) is not type(b):
        return False
    if isinstance(a, TraceType):
        return opm.eq(a.index, b.index)
    pairs = [(getattr(a, f), getattr(b, f)) for f in a.__match_args__]
    return all(x == y for x, y in pairs if not isinstance(x, CoreType)) and all(
        types_equal(x, y, opm) for x, y in pairs if isinstance(x, CoreType))


ARROW_MARK = {PLAIN: "", UNORD: "°", RIGHT: ">", LEFT: "<"}


def show_type(t: CoreType, opm: Opm, prec: int = 0) -> str:
    """Concrete type syntax as diagnostics and dumps print it: an index in `[...]`."""
    if isinstance(t, UnitType):
        return "Unit"
    if isinstance(t, TraceType):
        return "[" + opm.show_element(t.index) + "]"
    if isinstance(t, ProdType):
        op = ".o" if t.ordered else "ox"
        s = f"{show_type(t.left, opm, 2)} {op} {show_type(t.right, opm, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, ArrowType):
        s = f"{show_type(t.param, opm, 1)} -[{t.mode} {t.effect}]-> {show_type(t.result, opm)}"
        return f"({s})" if prec > 0 else s
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class CoreTerm:
    # Free variables, stored when the node is built, and locations, stored by
    # `locations` on first use; not dataclass fields, so equality, hashing
    # and repr ignore them.
    _locs = None

    def __post_init__(self) -> None:
        store_fv(self, SHAPES)


class UnitConst(CoreTerm):
    pass


@dataclass(frozen=True)
class NewConst(CoreTerm):
    index: Any


@dataclass(frozen=True)
class OpConst(CoreTerm):
    index: Any


@dataclass(frozen=True)
class SplitConst(CoreTerm):
    head: Any
    rest: Any


class DropConst(CoreTerm):
    pass


@dataclass(frozen=True)
class Loc(CoreTerm):
    ident: int


@dataclass(frozen=True)
class Var(CoreTerm):
    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_fv", frozenset({self.name}))


@dataclass(frozen=True)
class Lam(CoreTerm):
    mode: str
    var: str
    body: CoreTerm


@dataclass(frozen=True)
class App(CoreTerm):
    mode: str
    fn: CoreTerm
    arg: CoreTerm


@dataclass(frozen=True)
class Pair(CoreTerm):
    ordered: bool
    left: CoreTerm
    right: CoreTerm


@dataclass(frozen=True)
class LetPair(CoreTerm):
    ordered: bool
    x: str
    y: str
    header: CoreTerm
    body: CoreTerm

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise ValueError("let-pair binders must be distinct")
        super().__post_init__()


# The binding structure of each former with subterms: its subterm fields in
# order, each with the binder fields it binds there. Other formers are leaves.
Shape = tuple[tuple[str, tuple[str, ...]], ...]
SHAPES: dict[type, Shape] = {
    Lam: (("body", ("var",)),),
    App: (("fn", ()), ("arg", ())),
    Pair: (("left", ()), ("right", ())),
    LetPair: (("header", ()), ("body", ("x", "y"))),
}


def store_fv(node: Any, shapes: dict[type, Shape]) -> None:
    """Store on a new node its free variables, from its subterms' stored sets
    and the binders of its former's entry in `shapes` (none for a leaf)."""
    out = frozenset()
    for field, binders in shapes.get(type(node), ()):
        sub = getattr(node, field)._fv
        for b in binders:
            sub = sub - {getattr(node, b)}
        out = out | sub if out else sub  # no copy into an empty set
    object.__setattr__(node, "_fv", out)


# built once `SHAPES` and `store_fv`, which their hook reads, exist
UNIT = UnitConst()
DROP = DropConst()


def fv(m: CoreTerm) -> frozenset[str]:
    """Free variables, stored on the node when it was built."""
    return m._fv


def locations(m: CoreTerm) -> tuple[int, ...]:
    """All location occurrences, with multiplicity, stored on the node."""
    if m._locs is None:
        out = (m.ident,) if isinstance(m, Loc) else ()
        for field, _binders in SHAPES.get(type(m), ()):
            out += locations(getattr(m, field))
        object.__setattr__(m, "_locs", out)
    return m._locs


class Closure(NamedTuple):
    """A flat closure: an abstraction and the values of its free variables."""
    lam: Lam
    env: dict
    _fv = frozenset()  # closed, as a subterm of a value `Pair`


def capture(m: CoreTerm, env: dict) -> dict:
    """The bindings of `env` for the free variables of `m`."""
    return {x: env[x] for x in fv(m) if x in env}


def close(m: CoreTerm, env: dict, locs: Optional[list[int]] = None) -> CoreTerm:
    """`m` with each free variable that `env` binds replaced, in one walk, by
    its value read back. The values must be closed, so no binder is renamed.
    With `locs`, builds nothing and appends the result's locations instead."""
    if not env or env.keys().isdisjoint(fv(m)):
        if locs is not None:
            locs.extend(locations(m))
        return m
    if isinstance(m, Var):
        return readback(env[m.name], locs)
    fields = {}
    for field, binders in SHAPES[type(m)]:
        inner = env
        for b in binders:
            if getattr(m, b) in inner:
                inner = {x: v for x, v in inner.items() if x != getattr(m, b)}
        fields[field] = close(getattr(m, field), inner, locs)
    if locs is not None:
        return m
    return type(m)(*[fields[f] if f in fields else getattr(m, f) for f in m.__match_args__])


def readback(v: Any, locs: Optional[list[int]] = None) -> CoreTerm:
    """The closed term of an evaluator value: a closed term, a Pair of values
    or a Closure. With `locs`, as in `close`."""
    if isinstance(v, Closure):
        return close(v.lam, v.env, locs)
    if not isinstance(v, Pair):
        return close(v, {}, locs)
    left, right = readback(v.left, locs), readback(v.right, locs)
    return v if locs is not None else Pair(v.ordered, left, right)


def subst(m: CoreTerm, v: CoreTerm, x: str) -> CoreTerm:
    """m[v/x] for a closed value v."""
    return close(m, {x: v})


# ---------------------------------------------------------------------------
# Stable pretty-printer (consumed by dump-core golden tests)

APP_OP = {PLAIN: "@", UNORD: "@°", RIGHT: "@>", LEFT: "@<"}
LET_KW = {PLAIN: "let", UNORD: "let°", RIGHT: "let>", LEFT: "let<"}


def pretty(m: CoreTerm, opm: Opm) -> str:
    return _pp(m, opm, 0)


def _pp(m: CoreTerm, opm: Opm, prec: int) -> str:
    # precedence: let/letpair 0 < pair 1 < application 2 < atom 3
    if isinstance(m, UnitConst):
        return "unit"
    if isinstance(m, NewConst):
        return "new_{" + opm.show_element(m.index) + "}"
    if isinstance(m, OpConst):
        return "op_{" + opm.show_element(m.index) + "}"
    if isinstance(m, SplitConst):
        return "split_{" + opm.show_element(m.head) + "," + opm.show_element(m.rest) + "}"
    if isinstance(m, DropConst):
        return "drop"
    if isinstance(m, Loc):
        return f"l{m.ident}"
    if isinstance(m, Var):
        return m.name
    if isinstance(m, Lam):
        s = f"λ{ARROW_MARK[m.mode]}{m.var}. {_pp(m.body, opm, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(m, App):
        # A β-redex shaped like a derived value-let prints as one.
        if isinstance(m.fn, Lam) and m.fn.mode == m.mode:
            s = (
                f"{LET_KW[m.mode]} {m.fn.var} = {_pp(m.arg, opm, 1)} in\n"
                f"{_pp(m.fn.body, opm, 0)}"
            )
            return f"({s})" if prec > 0 else s
        s = f"{_pp(m.fn, opm, 2)} {APP_OP[m.mode]} {_pp(m.arg, opm, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(m, Pair):
        op = ".o" if m.ordered else "ox"
        s = f"{_pp(m.left, opm, 2)} {op} {_pp(m.right, opm, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(m, LetPair):
        kw = ".o" if m.ordered else "ox"
        s = (
            f"let {m.x} {kw} {m.y} = {_pp(m.header, opm, 1)} in\n"
            f"{_pp(m.body, opm, 0)}"
        )
        return f"({s})" if prec > 0 else s
    raise AssertionError(m)
