"""Small-step evaluator for closed core terms over a resource-instrumented heap.

Resource operations perform no real effects; the heap records, per
location, a reference count (0 meaning one live reference), the envelope
fixed at creation, the trace so far (kept for display) and the index left
(at first the envelope).  Admission reads the index left: an operation
needs a best continuation there, which becomes the index left, and the
final drop needs a droppable one.  The runtime oracle cross-checks heap
reference counts against syntactic location occurrences, the executable
projection of heap typing used by the soundness tests.

The evaluator is an environment machine over closed terms, Pairs of values
and flat closures: it takes the steps of substitution into the whole term
(the tests' reference) without substituting.  A term is read back only for
`Config.term` and a step's redex; the oracle counts locations in the state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .core import (
    LEFT, PLAIN, UNIT, App, Closure, CoreTerm, DropConst, Lam, LetPair, Loc, NewConst, OpConst,
    Pair, SplitConst, UnitConst, Var, capture, close, pretty, readback,
)
from .opm import Opm

HeapCell = tuple[int, object, object, object]  # refcount, envelope, trace, index left
Heap = dict[int, HeapCell]


@dataclass
class Config:
    """A machine state; `Config(term, {})` starts evaluating `term`."""

    focus: Any  # code under `env`, or a value when `env` is None
    heap: Heap
    next_loc: int = 0
    env: Optional[dict] = field(default_factory=dict)
    stack: Optional[tuple] = None  # (frame, rest): former, its env, values so far

    def read(self, locs: Optional[list] = None) -> CoreTerm:
        """The state's term; given `locs`, returns it with the term's locations
        appended instead, reading nothing back (see `core.close`)."""
        t = readback(self.focus, locs) if self.env is None else close(self.focus, self.env, locs)
        stack = self.stack
        while stack is not None:
            (former, env, done), stack = stack
            t = _rebuild(former, env, [readback(v, locs) for v in done] + [t], locs)
        return t if locs is None else locs

    term = property(read)


@dataclass
class StepOutcome:
    status: str  # "value" | "stepped" | "stuck"
    config: Config
    rule: Optional[str] = None
    reason: Optional[str] = None  # stuck: op-inadmissible | close-incomplete | no-rule
    read_redex: Callable[[], Optional[CoreTerm]] = lambda: None

    @property
    def redex(self) -> Optional[CoreTerm]:
        """Read back on demand: a β redex is the whole continuation."""
        return self.read_redex()


def _positions(m: CoreTerm) -> tuple[str, ...]:
    """A former's evaluation positions in order. Left application evaluates
    its argument before its function part."""
    if isinstance(m, App):
        return ("arg", "fn") if m.mode == LEFT else ("fn", "arg")
    return ("left", "right") if isinstance(m, Pair) else ("header",)


def _rebuild(former: CoreTerm, env: dict, terms: list, locs: Optional[list] = None):
    """`former` closed under `env`, its first positions filled with `terms`."""
    names = _positions(former)[: len(terms)]
    closed = close(replace(former, **dict.fromkeys(names, UNIT)), env, locs)
    return closed if locs is not None else replace(closed, **dict(zip(names, terms)))


def _refocus(m: Any, env: Optional[dict], stack: Optional[tuple]) -> tuple:
    """Administrative moves to (focus, env, values, stack): the final value (env
    None), a free variable (no values) or a former with all positions values."""
    while True:
        if env is not None:
            if isinstance(m, Var):
                if m.name not in env:
                    return m, env, (), stack
                m, env = env[m.name], None
            elif isinstance(m, Lam):
                captured = capture(m, env)
                m, env = (Closure(m, captured) if captured else m), None
            elif isinstance(m, (App, Pair, LetPair)):
                stack = ((m, env, ()), stack)
                m = getattr(m, _positions(m)[0])
            else:
                env = None
        elif stack is None:
            return m, None, (), None
        else:
            (former, env, done), stack = stack
            done += (m,)
            names = _positions(former)
            if len(done) < len(names):
                stack = ((former, env, done), stack)
                m = getattr(former, names[len(done)])
            elif isinstance(former, Pair):
                m, env = Pair(former.ordered, *done), None
            else:
                return former, env, done, stack


_BETA_RULE = {"u": "RE-Beta", "o": "RE-UBeta", "r": "RE-RBeta", "l": "RE-LBeta"}


def step(cfg: Config, opm: Opm) -> StepOutcome:
    """One rule, after the administrative moves before it; `cfg` is unchanged."""
    former, env, done, stack = _refocus(cfg.focus, cfg.env, cfg.stack)
    if env is None:
        return StepOutcome("value", cfg)

    def redex() -> CoreTerm:
        return _rebuild(former, env, [readback(v) for v in done])

    def stuck(reason: str) -> StepOutcome:
        return StepOutcome("stuck", cfg, reason=reason, read_redex=redex)

    def stepped(rule: str, m: Any, m_env: Optional[dict], heap=cfg.heap, next_loc=cfg.next_loc):
        config = Config(m, heap, next_loc, m_env, stack)
        return StepOutcome("stepped", config, rule, read_redex=redex)

    if not isinstance(former, App):  # a let-pair, or a free variable
        header = done[0] if done else None
        if not (isinstance(header, Pair) and header.ordered == former.ordered):
            return stuck("no-rule")
        inner = capture(former.body, env)
        inner[former.x], inner[former.y] = header.left, header.right
        return stepped("RE-OLet" if former.ordered else "RE-ULet", former.body, inner)
    fn, arg = done[::-1] if former.mode == LEFT else done
    lam, captured = fn if isinstance(fn, Closure) else (fn, {})
    if isinstance(lam, Lam):
        if lam.mode != former.mode:
            return stuck("no-rule")
        return stepped(_BETA_RULE[former.mode], lam.body, {**captured, lam.var: arg})
    heap, loc = cfg.heap, cfg.next_loc
    if former.mode != PLAIN:
        return stuck("no-rule")
    if isinstance(fn, NewConst) and isinstance(arg, UnitConst):
        cell = (0, fn.index, opm.unit(), fn.index)
        return stepped("RC-Ne", Loc(loc), None, {**heap, loc: cell}, loc + 1)
    resource_op = isinstance(fn, (OpConst, SplitConst, DropConst))
    if not (resource_op and isinstance(arg, Loc) and arg.ident in heap):
        return stuck("no-rule")
    n, envelope, trace, left = heap[arg.ident]
    if isinstance(fn, OpConst):
        if (left := opm.best_continuation(fn.index, left)) is None:
            return stuck("op-inadmissible")
        new_heap = {**heap, arg.ident: (n, envelope, opm.mul(trace, fn.index), left)}
        return stepped("RC-Op", arg, None, new_heap)
    if isinstance(fn, SplitConst):
        new_heap = {**heap, arg.ident: (n + 1, envelope, trace, left)}
        return stepped("RC-Sp", Pair(True, arg, arg), None, new_heap)
    if n > 0:
        return stepped("RC-Cl1", UNIT, None, {**heap, arg.ident: (n - 1, envelope, trace, left)})
    if not opm.droppable(left):
        return stuck("close-incomplete")
    new_heap = dict(heap)
    del new_heap[arg.ident]
    return stepped("RC-Cl2", UNIT, None, new_heap)


def runtime_oracle(cfg: Config) -> list[str]:
    """Executable projections of heap typing.

    1. Each location's reference count n means n+1 syntactic occurrences.
    2. The heap domain is exactly the set of locations in the term.
    Violations come back as strings; a sound run yields none, ever.
    """
    violations: list[str] = []
    occurrences = Counter(cfg.read([]))
    for ident, (n, *_rest) in sorted(cfg.heap.items()):
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


def _show_cell(cell: HeapCell, opm: Opm) -> str:
    return f"({cell[0]}, {opm.show_element(cell[1])}, {opm.show_element(cell[2])})"


def show_heap(heap: Heap, opm: Opm) -> str:
    if not heap:
        return "{}"
    cells = ", ".join(f"l{i} -> {_show_cell(c, opm)}" for i, c in sorted(heap.items()))
    return "{" + cells + "}"


def _heap_delta(before: Heap, after: Heap, opm: Opm) -> str:
    out = []
    for ident in sorted(set(before) | set(after)):
        b, a = before.get(ident), after.get(ident)
        # A step copies the heap and replaces only the cell it rewrites, so
        # unchanged cells are the same object. The rewritten cell is compared
        # as rendered: `==` would recurse through a deep trace.
        if b is a:
            continue
        if b is None:
            out.append(f"alloc l{ident} -> {_show_cell(a, opm)}")
        elif a is None:
            out.append(f"free l{ident}")
        elif (was := _show_cell(b, opm)) != (now := _show_cell(a, opm)):
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
        if i == fuel and _refocus(cfg.focus, cfg.env, cfg.stack)[1] is not None:
            break  # out of fuel short of a value
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
