"""Small-step evaluator for closed core terms over a resource-instrumented heap.

Resource operations perform no real effects; the heap records, per
location, a reference count (0 meaning one live reference), the envelope
fixed at creation, and the trace of operations so far.  An operation is
admitted only if the extended trace can still be completed to a word of
the envelope; the final drop of a location insists the trace lies within
the envelope.  The runtime oracle cross-checks heap reference counts
against syntactic location occurrences, the executable projection of heap
typing used by the soundness tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    App,
    CoreTerm,
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
    UnitConst,
    is_value,
    locations,
    pretty,
    subst,
)
from .opm import Opm

HeapCell = tuple[int, object, object]  # refcount, envelope, trace
Heap = dict[int, HeapCell]


@dataclass
class Config:
    term: CoreTerm
    heap: Heap
    next_loc: int = 0


@dataclass
class StepOutcome:
    status: str  # "value" | "stepped" | "stuck"
    config: Config
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


def step(cfg: Config, opm: Opm) -> StepOutcome:
    if is_value(cfg.term):
        return StepOutcome("value", cfg)
    found = _find_redex(cfg.term)
    assert found is not None
    redex, rebuild = found

    def stuck(reason: str) -> StepOutcome:
        return StepOutcome("stuck", cfg, reason=reason, redex=redex)

    def stepped(rule: str, new_term: CoreTerm, heap: Heap, next_loc: int) -> StepOutcome:
        return StepOutcome(
            "stepped", Config(rebuild(new_term), heap, next_loc), rule=rule, redex=redex
        )

    heap = cfg.heap
    if isinstance(redex, App):
        fn, arg = redex.fn, redex.arg
        if isinstance(fn, Lam):
            if fn.mode != redex.mode:
                return stuck("no-rule")
            return stepped(
                _BETA_RULE[redex.mode], subst(fn.body, arg, fn.var), heap, cfg.next_loc
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
            body = subst(redex.body, header.left, redex.x)
            body = subst(body, header.right, redex.y)
            rule = "RE-OLet" if redex.ordered else "RE-ULet"
            return stepped(rule, body, heap, cfg.next_loc)
        return stuck("no-rule")
    return stuck("no-rule")


def runtime_oracle(cfg: Config) -> list[str]:
    """Executable projections of heap typing.

    1. Each location's reference count n means n+1 syntactic occurrences.
    2. The heap domain is exactly the set of locations in the term.
    Violations come back as strings; a sound run yields none, ever.
    """
    violations: list[str] = []
    occurrences = Counter(locations(cfg.term))
    for ident, (n, _env, _trace) in sorted(cfg.heap.items()):
        if occurrences.get(ident, 0) != n + 1:
            violations.append(
                f"l{ident}: refcount {n} expects {n + 1} occurrences, "
                f"found {occurrences.get(ident, 0)}"
            )
    for ident in sorted(set(occurrences) - set(cfg.heap)):
        violations.append(f"l{ident} occurs in the term but not in the heap")
    return violations


@dataclass
class TraceStep:
    index: int
    rule: str
    redex: Optional[str] = None  # rendered only by run(..., trace=True)
    heap_delta: Optional[str] = None


@dataclass
class RunResult:
    outcome: str  # "value" | "stuck" | "fuel-exhausted"
    config: Config
    steps: list[TraceStep] = field(default_factory=list)
    stuck_reason: Optional[str] = None
    stuck_redex: Optional[CoreTerm] = None
    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def gamma_rules(self) -> list[str]:
        return [s.rule for s in self.steps if s.rule.startswith("RC-")]


def show_heap(heap: Heap, opm: Opm) -> str:
    if not heap:
        return "{}"
    cells = ", ".join(
        f"l{i} -> ({n}, {opm.show_element(env)}, {opm.show_element(tr)})"
        for i, (n, env, tr) in sorted(heap.items())
    )
    return "{" + cells + "}"


def _heap_delta(before: Heap, after: Heap, opm: Opm) -> str:
    def show(cell: HeapCell) -> str:
        return f"({cell[0]}, {opm.show_element(cell[1])}, {opm.show_element(cell[2])})"

    out = []
    for ident in sorted(set(before) | set(after)):
        b, a = before.get(ident), after.get(ident)
        # A step copies the heap and replaces only the cell it rewrites, so
        # unchanged cells are the same object. The rewritten cell is compared
        # as rendered: `==` would recurse through a deep trace.
        if b is a:
            continue
        if b is None:
            out.append(f"alloc l{ident} -> {show(a)}")
        elif a is None:
            out.append(f"free l{ident}")
        elif (was := show(b)) != (now := show(a)):
            out.append(f"l{ident}: {was} -> {now}")
    return "; ".join(out) if out else "-"


def run(
    term: CoreTerm,
    opm: Opm,
    fuel: int = 100_000,
    paranoid: bool = False,
    trace: bool = False,
) -> RunResult:
    """Take at most `fuel` steps from the empty heap, recording rule names.

    With `trace`, each step also records its redex and heap delta as text.
    """
    cfg = Config(term, {}, 0)
    steps: list[TraceStep] = []
    violations: list[tuple[int, str]] = []
    for i in range(fuel + 1):
        if i == fuel and not is_value(cfg.term):  # out of fuel short of a value
            break
        out = step(cfg, opm)  # leaves `cfg` as it was, for the oracle to read
        if paranoid or out.status == "value":
            violations.extend((i, v) for v in runtime_oracle(cfg))
        if out.status == "value":
            return RunResult("value", cfg, steps, violations=violations)
        if out.status == "stuck":
            return RunResult(
                "stuck",
                cfg,
                steps,
                stuck_reason=out.reason,
                stuck_redex=out.redex,
                violations=violations,
            )
        assert out.rule is not None
        record = TraceStep(len(steps), out.rule)
        if trace:
            record.redex = pretty(out.redex, opm).replace("\n", " ")
            record.heap_delta = _heap_delta(cfg.heap, out.config.heap, opm)
        steps.append(record)
        cfg = out.config
    return RunResult("fuel-exhausted", cfg, steps, violations=violations)
