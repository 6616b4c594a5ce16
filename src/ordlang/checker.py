"""Deterministic bidirectional typechecking with elaboration into core terms.

Inference covers every elimination and resource form; only lambdas are
checked, against the arrow annotation on their let binding.  Context
splitting is computed (restriction to free variables, decomposition for
pair eliminations) and validated with the subcontext relation, never
guessed.  Value lets and semicolons have no dedicated typing rule: they
elaborate to an application of an abstraction whose mode is found by
trying unrestricted, unordered-linear, then left-ordered, committing to
the first mode whose context side conditions hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    ord_,
    show_type,
    types_equal,
    unr,
)
from .opm import Opm
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
    def __init__(
        self,
        kind: str,
        span: Span,
        message: str,
        expected: Optional[str] = None,
        actual: Optional[str] = None,
    ):
        assert kind in KINDS
        super().__init__(message)
        self.kind = kind
        self.span = span
        self.message = message
        self.expected = expected
        self.actual = actual

    def render(self, path: str = "<input>") -> str:
        extra = ""
        if self.expected is not None:
            extra = f" (expected {self.expected}, got {self.actual})"
        return f"{path}:{self.span.line}:{self.span.col}: {self.kind}: {self.message}{extra}"


@dataclass
class InferResult:
    type: CoreType
    effect: Effect
    core: CoreTerm


class Checker:
    def __init__(self, opm: Opm):
        self.opm = opm
        self._fresh = 0
        # Context snapshot at each binding's body, for dump-graph.
        self.binding_contexts: dict[str, cx.Interp] = {}

    # -- helpers

    def fresh(self, base: str, avoid: frozenset[str]) -> str:
        while True:
            name = f"{base}{self._fresh}"
            self._fresh += 1
            if name not in avoid:
                return name

    def note_binding(self, name: str, ctx: cx.Ctx) -> None:
        self.binding_contexts.setdefault(name, cx.interpret(ctx))

    def _show(self, ctx: cx.Ctx) -> str:
        return cx.show_ctx(ctx, self.opm)

    def _misuse(self, span: Span, msg: str, have: cx.Ctx, want: cx.Ctx) -> TypeCheckError:
        return TypeCheckError(
            "context-misuse",
            span,
            f"{msg}: context {self._show(have)} does not weaken to {self._show(want)}",
        )

    def _freshen_binder(
        self, name: str, body: SurfaceExpr, ctx: cx.Ctx
    ) -> tuple[str, SurfaceExpr]:
        """Binders must be distinct from the ambient domain; rename on clash."""
        if cx.lookup_var(ctx, name) is None:
            return name, body
        new = self.fresh(name, cx.dom_vars(ctx) | surface_fv(body))
        return new, sf.rename_var(body, name, new)

    # -- inference

    def infer(self, ctx: cx.Ctx, e: SurfaceExpr) -> InferResult:
        if isinstance(e, sf.SUnit):
            if not cx.subcontext(ctx, cx.EMPTY):
                raise self._misuse(e.span, "unit consumes no resources", ctx, cx.EMPTY)
            return InferResult(UNIT_T, 0, UNIT)

        if isinstance(e, sf.SNew):
            if not cx.subcontext(ctx, cx.EMPTY):
                raise self._misuse(e.span, "new consumes no resources", ctx, cx.EMPTY)
            return InferResult(
                TraceType(e.index), 0, App(PLAIN, NewConst(e.index), UNIT)
            )

        if isinstance(e, sf.SOp):
            sub = self.infer(ctx, e.arg)
            m = self._trace_index(sub.type, e.arg.span, "operation")
            rest = self.opm.best_continuation(e.index, m)
            if rest is None:
                raise TypeCheckError(
                    "opm-violation",
                    e.span,
                    f"operation {{{self.opm.show_element(e.index)}}} is not "
                    f"admitted by remaining usage "
                    f"{{{self.opm.show_element(m)}}}",
                )
            core = App(PLAIN, OpConst(e.index), sub.core)
            return InferResult(TraceType(rest), max(sub.effect, 1), core)

        if isinstance(e, sf.SSplit):
            sub = self.infer(ctx, e.arg)
            m = self._trace_index(sub.type, e.arg.span, "split")
            rest = self.opm.best_continuation(e.index, m)
            if rest is None:
                raise TypeCheckError(
                    "opm-violation",
                    e.span,
                    f"cannot split {{{self.opm.show_element(e.index)}}} off "
                    f"remaining usage {{{self.opm.show_element(m)}}}",
                )
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
            want = cx.Bind(binding)
            if not cx.subcontext(ctx, want):
                raise self._misuse(
                    e.span, f"variable {e.name!r} would discard resources", ctx, want
                )
            return InferResult(binding.type, 0, Var(e.name))

        if isinstance(e, sf.SApp):
            return self._infer_app(ctx, e)

        if isinstance(e, sf.SPair):
            return self._infer_pair(ctx, e)

        if isinstance(e, sf.SLetPair):
            return self._infer_letpair(ctx, e)

        if isinstance(e, sf.SAnn):
            eff, core = self.check(ctx, e.expr, e.type)
            return InferResult(e.type, eff, core)

        if isinstance(e, sf.SLet):
            return self._let_ladder(ctx, e.span, e.x, e.header, e.body)

        if isinstance(e, sf.SSeq):
            name = self.fresh("s", cx.dom_vars(ctx) | surface_fv(e.rest))
            return self._let_ladder(ctx, e.span, name, e.first, e.rest)

        if isinstance(e, sf.SLam):
            raise TypeCheckError(
                "type-mismatch",
                e.span,
                "cannot infer a type for a lambda; annotate its binding",
            )

        raise AssertionError(e)

    def _trace_index(self, t: CoreType, span: Span, what: str):
        if not isinstance(t, TraceType):
            raise TypeCheckError(
                "type-mismatch",
                span,
                f"{what} expects a resource",
                expected="a resource type [m]",
                actual=show_type(t, self.opm),
            )
        return t.index

    def _infer_app(self, ctx: cx.Ctx, e: sf.SApp) -> InferResult:
        ctx_f = cx.restrict(ctx, surface_fv(e.fn))
        ctx_a = cx.restrict(ctx, surface_fv(e.arg))
        rf = self.infer(ctx_f, e.fn)
        if not isinstance(rf.type, ArrowType):
            raise TypeCheckError(
                "type-mismatch",
                e.fn.span,
                "only functions can be applied",
                expected="a function type",
                actual=show_type(rf.type, self.opm),
            )
        arrow = rf.type
        recomb = {
            PLAIN: cx.seq(ctx_f, ctx_a),
            UNORD: cx.par(ctx_f, ctx_a),
            RIGHT: cx.seq(ctx_f, ctx_a),
            LEFT: cx.seq(ctx_a, ctx_f),
        }[arrow.mode]
        if not cx.subcontext(ctx, recomb):
            raise self._misuse(
                e.span, "application splits the context badly", ctx, recomb
            )
        ra = self.infer(ctx_a, e.arg)
        if not types_equal(ra.type, arrow.param, self.opm):
            raise TypeCheckError(
                "type-mismatch",
                e.arg.span,
                "argument type does not match the function parameter",
                expected=show_type(arrow.param, self.opm),
                actual=show_type(ra.type, self.opm),
            )
        if arrow.mode == RIGHT and ra.effect != 0:
            raise TypeCheckError(
                "effect-violation",
                e.arg.span,
                "argument of a right-ordered application must be effect-free",
            )
        if arrow.mode == LEFT and rf.effect != 0:
            raise TypeCheckError(
                "effect-violation",
                e.fn.span,
                "function part of a left-ordered application must be effect-free",
            )
        if arrow.mode == PLAIN or arrow.mode == UNORD:
            eff = max(arrow.effect, rf.effect, ra.effect)
        elif arrow.mode == RIGHT:
            eff = max(arrow.effect, rf.effect)
        else:
            eff = max(arrow.effect, ra.effect)
        return InferResult(arrow.result, eff, App(arrow.mode, rf.core, ra.core))

    def _infer_pair(self, ctx: cx.Ctx, e: sf.SPair) -> InferResult:
        ctx_l = cx.restrict(ctx, surface_fv(e.left))
        ctx_r = cx.restrict(ctx, surface_fv(e.right))
        rl = self.infer(ctx_l, e.left)
        rr = self.infer(ctx_r, e.right)
        if cx.subcontext(ctx, cx.par(ctx_l, ctx_r)):
            ty = ProdType(False, rl.type, rr.type)
            return InferResult(ty, max(rl.effect, rr.effect), Pair(False, rl.core, rr.core))
        if cx.subcontext(ctx, cx.seq(ctx_l, ctx_r)):
            if ord_(rl.type) and rr.effect != 0:
                raise TypeCheckError(
                    "effect-violation",
                    e.right.span,
                    "second component of an ordered pair must be effect-free "
                    "when the first carries resources",
                )
            ty = ProdType(True, rl.type, rr.type)
            return InferResult(ty, max(rl.effect, rr.effect), Pair(True, rl.core, rr.core))
        raise self._misuse(
            e.span, "pair components interleave resources", ctx, cx.seq(ctx_l, ctx_r)
        )

    def _infer_letpair(self, ctx: cx.Ctx, e: sf.SLetPair) -> InferResult:
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
                f"{self._show(ctx)}",
            )
        pattern, ctx_h = split
        rh = self.infer(ctx_h, e.header)
        if not isinstance(rh.type, ProdType):
            raise TypeCheckError(
                "type-mismatch",
                e.header.span,
                "let-pair header must be a pair",
                expected="a pair type",
                actual=show_type(rh.type, self.opm),
            )
        if rh.effect != 0:
            raise TypeCheckError(
                "effect-violation",
                e.header.span,
                "let-pair header must be effect-free; bind it first",
            )
        x, body = self._freshen_binder(e.x, e.body, cx.fill(pattern, ctx_h))
        y, body = self._freshen_binder(e.y, body, cx.fill(pattern, ctx_h))
        bx = cx.var_bind(x, rh.type.left)
        by = cx.var_bind(y, rh.type.right)
        if rh.type.ordered:
            plug: cx.Ctx = cx.seq(cx.Bind(bx), cx.Bind(by))
        else:
            plug = cx.par(cx.Bind(bx), cx.Bind(by))
        body_ctx = cx.fill(pattern, plug)
        self.note_binding(x, body_ctx)
        self.note_binding(y, body_ctx)
        rb = self.infer(body_ctx, body)
        core = LetPair(rh.type.ordered, x, y, rh.core, rb.core)
        return InferResult(rb.type, rb.effect, core)

    def _let_ladder(
        self, ctx: cx.Ctx, span: Span, name: str, header: SurfaceExpr, body: SurfaceExpr
    ) -> InferResult:
        ctx_h = cx.restrict(ctx, surface_fv(header))
        rh = self.infer(ctx_h, header)
        name, body = self._freshen_binder(name, body, ctx)
        ctx_b = cx.restrict(ctx, surface_fv(body) - {name})
        if name not in surface_fv(body) and not unr(rh.type):
            raise TypeCheckError(
                "context-misuse",
                span,
                f"binding {name!r} holds resources but is never used",
            )
        binding = cx.Bind(cx.var_bind(name, rh.type))

        # Least to most restrictive: unrestricted, unordered-linear, ordered.
        if (
            unr(rh.type)
            and cx.all_unr(ctx_b)
            and cx.subcontext(ctx, cx.seq(ctx_b, ctx_h))
        ):
            mode = PLAIN
            body_ctx: cx.Ctx = cx.seq(ctx_b, binding)
        elif cx.subcontext(ctx, cx.par(ctx_b, ctx_h)):
            mode = UNORD
            body_ctx = cx.par(ctx_b, binding)
        elif cx.subcontext(ctx, cx.seq(ctx_h, ctx_b)):
            mode = LEFT
            body_ctx = cx.seq(binding, ctx_b)
        else:
            raise TypeCheckError(
                "context-misuse",
                span,
                f"no binding mode fits: header uses {self._show(ctx_h)}, "
                f"body uses {self._show(ctx_b)}, context is {self._show(ctx)}",
            )
        self.note_binding(name, body_ctx)
        rb = self.infer(body_ctx, body)
        core = App(mode, Lam(mode, name, rb.core), rh.core)
        return InferResult(rb.type, max(rh.effect, rb.effect), core)

    # -- checking

    def check(
        self, ctx: cx.Ctx, e: SurfaceExpr, ty: CoreType
    ) -> tuple[Effect, CoreTerm]:
        if isinstance(e, sf.SLam):
            if not isinstance(ty, ArrowType):
                raise TypeCheckError(
                    "type-mismatch",
                    e.span,
                    "lambda checked against a non-function type",
                    expected="a function type",
                    actual=show_type(ty, self.opm),
                )
            if ty.mode == PLAIN and not cx.all_unr(ctx):
                raise TypeCheckError(
                    "mode-mismatch",
                    e.span,
                    f"a non-capturing function cannot close over resources in "
                    f"{self._show(ctx)}",
                )
            var, body = self._freshen_binder(e.var, e.body, ctx)
            binding = cx.Bind(cx.var_bind(var, ty.param))
            if ty.mode == LEFT:
                inner: cx.Ctx = cx.seq(binding, ctx)
            elif ty.mode == UNORD:
                inner = cx.par(ctx, binding)
            else:  # PLAIN and RIGHT both extend on the right
                inner = cx.seq(ctx, binding)
            self.note_binding(var, inner)
            eff, core = self.check(inner, body, ty.result)
            if eff > ty.effect:
                raise TypeCheckError(
                    "effect-violation",
                    e.span,
                    f"function body performs operations but the arrow "
                    f"declares latent effect {ty.effect}",
                )
            return 0, Lam(ty.mode, var, core)

        result = self.infer(ctx, e)
        if not types_equal(result.type, ty, self.opm):
            raise TypeCheckError(
                "type-mismatch",
                e.span,
                "expression type does not match the annotation",
                expected=show_type(ty, self.opm),
                actual=show_type(result.type, self.opm),
            )
        return result.effect, result.core


@dataclass
class CheckedProgram:
    type: CoreType
    effect: Effect
    core: CoreTerm
    binding_contexts: dict[str, cx.Interp] = field(default_factory=dict)


def check_program(program: SurfaceExpr, opm: Opm) -> CheckedProgram:
    """Typecheck a whole program: closed, and of unrestricted type."""
    checker = Checker(opm)
    result = checker.infer(cx.EMPTY, program)
    if not unr(result.type):
        raise TypeCheckError(
            "type-mismatch",
            program.span,
            "a whole program must have an unrestricted type",
            expected="an unrestricted type",
            actual=show_type(result.type, opm),
        )
    return CheckedProgram(
        result.type, result.effect, result.core, checker.binding_contexts
    )
