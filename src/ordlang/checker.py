"""Deterministic bidirectional typechecking with elaboration into core terms.

Inference covers every elimination and resource form; only lambdas are
checked, against the arrow annotation on their let binding.  Context
splitting is computed (restriction to free variables, decomposition for
pair eliminations), never guessed.  Each split `Γ ≲ former(Γ|A, Γ|B)` is
decided on the context tree by `context.split_violation`, whose witness
names the binding or the ordering edge a rejection breaks.  Value lets
and semicolons have no dedicated typing rule: they elaborate to an
application of an abstraction whose mode is found by trying unrestricted,
unordered-linear, then left-ordered, committing to the first mode whose
context side conditions hold.
"""

from __future__ import annotations

from functools import cached_property

from . import context as cx
from . import surface as sf
from .core import (
    App,
    ArrowType,
    CoreTerm,
    CoreType,
    DROP,
    Effect,
    LEFT,
    Lam,
    LetPair,
    NewConst,
    OpConst,
    PLAIN,
    Pair,
    ProdType,
    RIGHT,
    SplitConst,
    TraceType,
    UNIT,
    UNIT_T,
    UNORD,
    Var,
    show_type,
    types_equal,
    unr,
)
from .opm import Opm
from .record import Record
from .surface import Span, SurfaceExpr, surface_fv


KINDS = (
    "unbound-variable",
    "context-misuse",
    "mode-mismatch",
    "type-mismatch",
    "effect-violation",
    "opm-violation",
    "decomposition-failure",
)


class TypeCheckError(Exception):
    def __init__(self, kind: str, span: Span, message: str):
        assert kind in KINDS
        super().__init__(message)
        self.kind = kind
        self.span = span
        self.message = message


def _mismatch(span: Span, message: str, expected: str, actual: CoreType, opm: Opm):
    """The type-mismatch error, its message ending in what was expected and got."""
    got = show_type(actual, opm)
    return TypeCheckError("type-mismatch", span, f"{message} (expected {expected}, got {got})")


def _effect_free(effect: Effect, span: Span, message: str) -> None:
    """Raise effect-violation `message` unless `effect` is 0: no operations."""
    if effect != 0:
        raise TypeCheckError("effect-violation", span, message)


def _placed(mode: str, ctx: cx.Ctx, new: cx.Ctx):
    """(former, first, second) placing `new` beside `ctx` as `mode` does: `,`
    after `ctx` for u and r, `∥` for o, `,` before `ctx` for l."""
    former = cx.par if mode == UNORD else cx.seq
    return (former, new, ctx) if mode == LEFT else (former, ctx, new)


class InferResult(Record):
    type: CoreType
    effect: Effect
    core: CoreTerm


class Checker:
    def __init__(self, opm: Opm):
        self.opm = opm
        self._fresh = 0
        # Context tree at each binding's body, for dump-graph.
        self.binding_trees: dict[str, cx.Ctx] = {}

    # -- helpers

    def fresh(self, base: str, avoid: frozenset[str]) -> str:
        while True:
            name = f"{base}{self._fresh}"
            self._fresh += 1
            if name not in avoid:
                return name

    def _bind(self, name: str, ty: CoreType, ctx: cx.Ctx, mode: str) -> cx.Ctx:
        """`ctx` extended by a binder placed by `mode`, recorded as its tree."""
        former, first, second = _placed(mode, ctx, cx.Bind(cx.var_bind(name, ty)))
        inner = former(first, second)
        self.binding_trees.setdefault(name, inner)
        return inner

    def _split(
        self, span: Span, what: str, ctx: cx.Ctx, first: cx.Ctx, second: cx.Ctx, former
    ) -> None:
        """Raise context-misuse unless ctx ≲ former(first, second), naming the
        binding or the ordering edge that the split would break."""
        bad = cx.split_violation(ctx, first, second, former)
        if bad is None:
            return
        kind, x, y = bad
        if kind == "ordered":
            why = f"`{cx.label(y)}` must be used after `{cx.label(x)}`"
        elif kind == "shared":
            why = f"`{cx.label(x)}` is used by both sides"
        else:
            why = f"`{cx.label(x)}` would be discarded"
        raise TypeCheckError("context-misuse", span, f"{what}: {why}")

    def _ordered(self, span: Span, what: str, ctx: cx.Ctx, first: cx.Ctx, second: cx.Ctx) -> bool:
        """The weakest former that splits ctx into first and second: False
        for `∥`, True for `,`; context-misuse `what` when neither does."""
        if cx.split_violation(ctx, first, second, cx.par) is None:
            return False
        self._split(span, what, ctx, first, second, cx.seq)
        return True

    def _continuation(self, ctx: cx.Ctx, e: sf.SOp | sf.SSplit, what: str, refused: str):
        """(e.arg's result, the best continuation of its index after e.index);
        opm-violation `refused`, formatted with both indices, when there is none."""
        sub = self.infer(ctx, e.arg)
        m = self._trace_index(sub.type, e.arg.span, what)
        rest = self.opm.best_continuation(e.index, m)
        if rest is None:
            shown = (f"{{{self.opm.show_element(i)}}}" for i in (e.index, m))
            raise TypeCheckError("opm-violation", e.span, refused.format(*shown))
        return sub, rest

    def _freshen_binder(
        self, name: str, body: SurfaceExpr, ctx: cx.Ctx, sibling: str = ""
    ) -> tuple[str, SurfaceExpr]:
        """Binders must be distinct from the ambient domain; rename on clash,
        also avoiding the name of a sibling binder of the same pattern."""
        if name not in cx.dom_vars(ctx):
            return name, body
        new = self.fresh(name, cx.dom_vars(ctx) | surface_fv(body) | {sibling})
        return new, sf.rename_var(body, name, new)

    # -- inference

    def infer(self, ctx: cx.Ctx, e: SurfaceExpr) -> InferResult:
        if isinstance(e, sf.SUnit):
            self._split(e.span, "unit consumes no resources", ctx, cx.EMPTY, cx.EMPTY, cx.seq)
            return InferResult(UNIT_T, 0, UNIT)

        if isinstance(e, sf.SNew):
            self._split(e.span, "new consumes no resources", ctx, cx.EMPTY, cx.EMPTY, cx.seq)
            return InferResult(
                TraceType(e.index), 0, App(PLAIN, NewConst(e.index), UNIT)
            )

        if isinstance(e, sf.SOp):
            refused = "operation {} is not admitted by remaining usage {}"
            sub, rest = self._continuation(ctx, e, "operation", refused)
            core = App(PLAIN, OpConst(e.index), sub.core)
            return InferResult(TraceType(rest), max(sub.effect, 1), core)

        if isinstance(e, sf.SSplit):
            refused = "cannot split {} off remaining usage {}"
            sub, rest = self._continuation(ctx, e, "split", refused)
            core = App(PLAIN, SplitConst(e.index, rest), sub.core)
            ty = ProdType(True, TraceType(e.index), TraceType(rest))
            return InferResult(ty, sub.effect, core)

        if isinstance(e, sf.SDrop):
            sub = self.infer(ctx, e.arg)
            m = self._trace_index(sub.type, e.arg.span, "drop")
            if not self.opm.droppable(m):
                raise TypeCheckError(
                    "opm-violation",
                    e.span,
                    f"resource with remaining usage {{{self.opm.show_element(m)}}} "
                    "is not droppable",
                )
            return InferResult(UNIT_T, sub.effect, App(PLAIN, DROP, sub.core))

        if isinstance(e, sf.SVar):
            binding = cx.lookup_var(ctx, e.name)
            if binding is None:
                raise TypeCheckError(
                    "unbound-variable", e.span, f"unbound variable {e.name!r}"
                )
            what = f"variable {e.name!r} would discard resources"
            self._split(e.span, what, ctx, cx.Bind(binding), cx.EMPTY, cx.seq)
            return InferResult(binding.type, 0, Var(e.name))

        if isinstance(e, sf.SApp):
            return self._infer_app(ctx, e)

        if isinstance(e, sf.SPair):
            return self._infer_pair(ctx, e)

        if isinstance(e, sf.SAnn):
            eff, core = self.check(ctx, e.expr, e.type)
            return InferResult(e.type, eff, core)

        if isinstance(e, (sf.SLet, sf.SLetPair)):
            return self._infer_spine(ctx, e)

        if isinstance(e, sf.SLam):
            raise TypeCheckError(
                "type-mismatch",
                e.span,
                "cannot infer a type for a lambda; annotate its binding",
            )

        raise AssertionError(e)

    def _trace_index(self, t: CoreType, span: Span, what: str):
        if not isinstance(t, TraceType):
            raise _mismatch(span, f"{what} expects a resource", "a resource type [m]", t, self.opm)
        return t.index

    def _infer_app(self, ctx: cx.Ctx, e: sf.SApp) -> InferResult:
        ctx_f = cx.restrict(ctx, surface_fv(e.fn))
        ctx_a = cx.restrict(ctx, surface_fv(e.arg))
        rf = self.infer(ctx_f, e.fn)
        if not isinstance(rf.type, ArrowType):
            what = "only functions can be applied"
            raise _mismatch(e.fn.span, what, "a function type", rf.type, self.opm)
        arrow = rf.type
        former, first, second = _placed(arrow.mode, ctx_f, ctx_a)
        self._split(e.span, "application splits the context badly", ctx, first, second, former)
        ra = self.infer(ctx_a, e.arg)
        if not types_equal(ra.type, arrow.param, self.opm):
            what = "argument type does not match the function parameter"
            raise _mismatch(e.arg.span, what, show_type(arrow.param, self.opm), ra.type, self.opm)
        if arrow.mode == RIGHT:
            what = "argument of a right-ordered application must be effect-free"
            _effect_free(ra.effect, e.arg.span, what)
        elif arrow.mode == LEFT:
            what = "function part of a left-ordered application must be effect-free"
            _effect_free(rf.effect, e.fn.span, what)
        # The checks above leave the argument effect-free under a right
        # application and the function under a left one, so one rule fits all.
        eff = max(arrow.effect, rf.effect, ra.effect)
        return InferResult(arrow.result, eff, App(arrow.mode, rf.core, ra.core))

    def _infer_pair(self, ctx: cx.Ctx, e: sf.SPair) -> InferResult:
        ctx_l = cx.restrict(ctx, surface_fv(e.left))
        ctx_r = cx.restrict(ctx, surface_fv(e.right))
        rl = self.infer(ctx_l, e.left)
        rr = self.infer(ctx_r, e.right)
        what = "pair components interleave resources"
        ordered = self._ordered(e.span, what, ctx, ctx_l, ctx_r)
        if ordered and not unr(rl.type):
            what = "second component of an ordered pair must be effect-free"
            _effect_free(rr.effect, e.right.span, f"{what} when the first carries resources")
        ty = ProdType(ordered, rl.type, rr.type)
        return InferResult(ty, max(rl.effect, rr.effect), Pair(ordered, rl.core, rr.core))

    def _infer_spine(self, ctx: cx.Ctx, e: sf.SLet | sf.SLetPair) -> InferResult:
        """A spine of lets, `;`s and let-pairs in one loop rather than frames
        nested per item: each item's header and body context top-down, then
        the tail, then each item's core around the one below it, bottom-up."""
        frames = []
        while isinstance(e, (sf.SLet, sf.SLetPair)):
            head = self._let_head if isinstance(e, sf.SLet) else self._letpair_head
            frame, ctx, e = head(ctx, e)
            frames.append(frame)
        result = self.infer(ctx, e)
        for build, *args in reversed(frames):
            result = build(*args, result)
        return result

    def _letpair_head(self, ctx: cx.Ctx, e: sf.SLetPair):
        """(frame, body context, body) of a let-pair: its pattern filled with
        the header's components."""
        if e.x == e.y:
            raise TypeCheckError(
                "context-misuse", e.span, "pair binders must be distinct"
            )
        split = cx.decompose(ctx, surface_fv(e.header))
        if split is None:
            raise TypeCheckError(
                "decomposition-failure",
                e.header.span,
                f"cannot isolate {sorted(surface_fv(e.header))} in context "
                f"{cx.show_ctx(ctx, self.opm)}",
            )
        pattern, ctx_h = split
        rh = self.infer(ctx_h, e.header)
        if not isinstance(rh.type, ProdType):
            what = "let-pair header must be a pair"
            raise _mismatch(e.header.span, what, "a pair type", rh.type, self.opm)
        _effect_free(rh.effect, e.header.span, "let-pair header must be effect-free; bind it first")
        # the filled pattern binds the names `ctx` binds
        x, body = self._freshen_binder(e.x, e.body, ctx, e.y)
        y, body = self._freshen_binder(e.y, body, ctx, x)
        join = cx.seq if rh.type.ordered else cx.par
        plug = join(cx.Bind(cx.var_bind(x, rh.type.left)), cx.Bind(cx.var_bind(y, rh.type.right)))
        body_ctx = cx.fill(pattern, plug)
        self.binding_trees.setdefault(x, body_ctx)
        self.binding_trees.setdefault(y, body_ctx)
        return (self._letpair, x, y, rh), body_ctx, body

    def _letpair(self, x: str, y: str, rh: InferResult, rb: InferResult) -> InferResult:
        """A let-pair's result from its header's and its body's."""
        return InferResult(rb.type, rb.effect, LetPair(rh.type.ordered, x, y, rh.core, rb.core))

    def _let_head(self, ctx: cx.Ctx, e: sf.SLet):
        """(frame, body context, body) of a let or `;`: its binder placed by
        the first mode of the ladder whose side conditions hold."""
        # `e1; e2` (x None) is named before e1 renames its binders: they share the counter
        name = e.x or self.fresh("s", cx.dom_vars(ctx) | surface_fv(e.body))
        ctx_h = cx.restrict(ctx, surface_fv(e.header))
        rh = self.infer(ctx_h, e.header)
        name, body = self._freshen_binder(name, e.body, ctx)
        ctx_b = cx.restrict(ctx, surface_fv(body) - {name})
        if name not in surface_fv(body) and not unr(rh.type):
            raise TypeCheckError(
                "context-misuse",
                e.span,
                f"binding {name!r} holds resources but is never used",
            )
        # Least to most restrictive: unrestricted, unordered-linear, ordered.
        # `,` and `∥` split an all-unrestricted ctx_b alike: one test fits both.
        if self._ordered(e.span, "no binding mode fits", ctx, ctx_h, ctx_b):
            mode = LEFT
        else:
            mode = PLAIN if unr(rh.type) and cx.all_unr(ctx_b) else UNORD
        return (self._let_ladder, mode, name, rh), self._bind(name, rh.type, ctx_b, mode), body

    def _let_ladder(self, mode: str, name: str, rh: InferResult, rb: InferResult) -> InferResult:
        """A let's result, given the mode its ladder chose: the application of
        an abstraction of that mode to the header."""
        core = App(mode, Lam(mode, name, rb.core), rh.core)
        return InferResult(rb.type, max(rh.effect, rb.effect), core)

    # -- checking

    def check(
        self, ctx: cx.Ctx, e: SurfaceExpr, ty: CoreType
    ) -> tuple[Effect, CoreTerm]:
        if isinstance(e, sf.SLam):
            if not isinstance(ty, ArrowType):
                what = "lambda checked against a non-function type"
                raise _mismatch(e.span, what, "a function type", ty, self.opm)
            if ty.mode == PLAIN and not cx.all_unr(ctx):
                raise TypeCheckError(
                    "mode-mismatch",
                    e.span,
                    f"a non-capturing function cannot close over resources in "
                    f"{cx.show_ctx(ctx, self.opm)}",
                )
            var, body = self._freshen_binder(e.var, e.body, ctx)
            eff, core = self.check(self._bind(var, ty.param, ctx, ty.mode), body, ty.result)
            if ty.effect == 0:  # effects are 0 or 1
                what = "function body performs operations but the arrow declares latent effect 0"
                _effect_free(eff, e.span, what)
            return 0, Lam(ty.mode, var, core)

        result = self.infer(ctx, e)
        if not types_equal(result.type, ty, self.opm):
            what = "expression type does not match the annotation"
            raise _mismatch(e.span, what, show_type(ty, self.opm), result.type, self.opm)
        return result.effect, result.core


class CheckedProgram(InferResult):
    binding_trees: dict[str, cx.Ctx]

    @cached_property
    def binding_contexts(self) -> dict[str, cx.Interp]:
        """The context DAG at each binding's body, interpreted on first use."""
        return {name: cx.interpret(ctx) for name, ctx in self.binding_trees.items()}


def check_program(program: SurfaceExpr, opm: Opm) -> CheckedProgram:
    """Typecheck a whole program: closed, and of unrestricted type."""
    checker = Checker(opm)
    result = checker.infer(cx.EMPTY, program)
    if not unr(result.type):
        what = "a whole program must have an unrestricted type"
        raise _mismatch(program.span, what, "an unrestricted type", result.type, opm)
    return CheckedProgram(
        result.type, result.effect, result.core, checker.binding_trees
    )
