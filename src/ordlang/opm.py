"""Ordered partial monoids (OPMs): the state-transition algebra behind resource indices.

An OPM is a carrier with a partial associative multiplication, a two-sided
neutral element, and a preorder under which multiplication is monotone and
downward closed.  Elements abstract admissible operation traces on a
resource; the typechecker and the interpreter only talk to resources through
this interface, so swapping the index algebra swaps the typestate discipline.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

Element = Any  # each OPM instance fixes its own element representation


class OpmError(Exception):
    """Raised for malformed OPM element literals."""


class Opm:
    """Interface every resource-index algebra implements.

    Elements are opaque to callers; mixing elements from different
    instances is a caller bug.
    """

    name: str = "abstract"

    def unit(self) -> Element:
        raise NotImplementedError

    def mul(self, x: Element, y: Element) -> Optional[Element]:
        """x ⊙ y, or None where the product is undefined."""
        raise NotImplementedError

    def leq(self, x: Element, y: Element) -> bool:
        raise NotImplementedError

    def eq(self, x: Element, y: Element) -> bool:
        return self.leq(x, y) and self.leq(y, x)

    def residual_exists(self, x: Element, y: Element) -> bool:
        """Decide whether some z in the carrier has x ⊙ z ≤ y."""
        return self.best_continuation(x, y) is not None

    def best_continuation(self, x: Element, y: Element) -> Optional[Element]:
        """A canonical maximal z with x ⊙ z ≤ y, or None if no z exists.

        This is the residual witness the checker plugs in for the
        existentially quantified index of split and op.
        """
        raise NotImplementedError

    def droppable(self, x: Element) -> bool:
        return self.leq(self.unit(), x)

    def parse_element(self, text: str) -> Element:
        """Parse the payload of a `{...}` literal."""
        raise NotImplementedError

    def show_element(self, x: Element) -> str:
        raise NotImplementedError


class FiniteOpm(Opm):
    """OPM with an explicitly tabulated finite carrier.

    Best continuations are tabulated once, by exhaustive search over the
    carrier: correct by construction for these instances' handful of elements.
    """

    def __init__(
        self,
        name: str,
        carrier: Sequence[str],
        unit: str,
        mul_table: dict[tuple[str, str], str],
        leq_pairs: set[tuple[str, str]],
    ):
        self.name = name
        self.carrier = tuple(carrier)
        self._unit = unit
        self._mul = dict(mul_table)
        self._leq = set(leq_pairs)
        self._best = {(x, y): self._search(x, y) for x in self.carrier for y in self.carrier}

    def unit(self) -> str:
        return self._unit

    def mul(self, x: str, y: str) -> Optional[str]:
        return self._mul.get((x, y))

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self._leq

    def eq(self, x: str, y: str) -> bool:
        return x == y

    def best_continuation(self, x: str, y: str) -> Optional[str]:
        return self._best.get((x, y))

    def _search(self, x: str, y: str) -> Optional[str]:
        """A maximal z with x ⊙ z ≤ y, ties broken by carrier declaration order."""
        products = [(z, self.mul(x, z)) for z in self.carrier]
        witnesses = [z for z, p in products if p is not None and self.leq(p, y)]
        for z in witnesses:
            above = [w for w in witnesses if w != z and self.leq(z, w) and not self.leq(w, z)]
            if not above:
                return z
        return witnesses[0] if witnesses else None

    def parse_element(self, text: str) -> str:
        t = text.strip()
        if t not in self.carrier:
            raise OpmError(f"not an element of the {self.name} OPM: {text!r}")
        return t

    def show_element(self, x: str) -> str:
        return x


def ownership_opm() -> FiniteOpm:
    """The three-element algebra for ownership and mutable borrows.

    eps: discardable, b: borrowed, *: owned.  Splitting a borrow off an
    owning or borrowed reference is allowed (b ⊙ * = *, b ⊙ b = b); nothing
    may follow full ownership except nothing at all (* ⊙ b and * ⊙ * are
    undefined).
    """
    mul = {
        ("eps", "eps"): "eps",
        ("eps", "b"): "b",
        ("eps", "*"): "*",
        ("b", "eps"): "b",
        ("b", "b"): "b",
        ("b", "*"): "*",
        ("*", "eps"): "*",
        # ("*", "b") and ("*", "*") undefined
    }
    leq = {("eps", "eps"), ("eps", "b"), ("b", "b"), ("*", "*")}
    return FiniteOpm("ownership", ("eps", "b", "*"), "eps", mul, leq)


_REGISTRY: dict[str, Callable[[], Opm]] = {}


def register_opm(name: str, factory: Callable[[], Opm]) -> None:
    _REGISTRY[name] = factory


def get_opm(name: str) -> Opm:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise OpmError(
            f"unknown OPM {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def known_opms() -> list[str]:
    return sorted(_REGISTRY)


register_opm("ownership", ownership_opm)
