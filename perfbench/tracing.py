"""Per-layer tracing by rebinding ordlang's public functions.

Used only inside traced workers. `instrument` replaces each traced function
on its module and on every module that imported it by name, so that every
call goes through one wrapper. A wrapper counts every call; only the
outermost call of a recursive function opens a span (name, start, end,
parent). Spans stay in memory and are folded into counts, self times and a
parent/child call tree when the job ends. A span's self time is its
duration minus the time its child spans cover. Work done by the tracer
itself (result hooks) is recorded as `trace.hook` spans, so it is charged
to neither the traced function nor its caller.

Each wrapper adds one frame to the stack. So that a traced program runs out
of stack where an untraced one does (the `deep` workload's RecursionError),
the recursion limit is raised by one for every wrapper frame on the stack.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("surface", "context", "opm", "regex", "checker", "core", "interp", "cli")
RULES = (
    "RE-Beta", "RE-UBeta", "RE-RBeta", "RE-LBeta", "RE-OLet", "RE-ULet",
    "RC-Ne", "RC-Op", "RC-Sp", "RC-Cl1", "RC-Cl2",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.counts: Counter = Counter()
        self.maxes: dict[str, float] = defaultdict(float)
        # A few frames of slack for the tracer's own transient calls.
        self.base_limit = sys.getrecursionlimit() + 8
        self.wrapper_frames = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxes[name]:
            self.maxes[name] = value

    def wrap(
        self,
        name: str,
        fn: Callable,
        span: bool = True,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        counts, active = self.counts, self.active

        def run_hook(args: tuple, result: Any) -> None:
            index = self._open("trace.hook")
            try:
                after(args, result)
            finally:
                self._close(index)

        def traced(*args, **kwargs):
            counts[name] += 1
            opened = span and name not in active
            if opened:
                active.add(name)
                index = self._open(name)
            self.wrapper_frames += 1
            sys.setrecursionlimit(self.base_limit + self.wrapper_frames)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.wrapper_frames -= 1
                try:
                    sys.setrecursionlimit(self.base_limit + self.wrapper_frames)
                except RecursionError:  # already at the limit; leave it one higher
                    pass
                if opened:
                    self._close(index)
                    active.discard(name)
            if after is not None:
                run_hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, owners: list[tuple[Any, str]], **options) -> None:
        """Rebind the function at owners[0] on every (owner, attribute)."""
        owner, attr = owners[0]
        wrapper = self.wrap(name, getattr(owner, attr), **options)
        for owner, attr in owners:
            setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        """Fold the spans into per-name and per-layer totals (seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        root: list[str] = []
        inclusive: dict[str, float] = defaultdict(float)
        own_by_name: dict[str, float] = defaultdict(float)
        layer_self: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        tree: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent) in enumerate(spans):
            root.append(name if parent < 0 else root[parent])
            duration = end - start
            own = duration - child[i]
            inclusive[name] += duration
            own_by_name[name] += own
            layer_self[root[i]][name.split(".", 1)[0]] += own
            entry = tree[f"{spans[parent][0] if parent >= 0 else ''} > {name}"]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        return {
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "inclusive": dict(inclusive),
            "self": dict(own_by_name),
            "layer_self": {k: dict(v) for k, v in layer_self.items()},
            "tree": dict(tree),
        }


def count_core_nodes(term: Any) -> int:
    from ordlang.core import CoreTerm

    count, stack = 0, [term]
    while stack:
        node = stack.pop()
        count += 1
        for field in ("fn", "arg", "body", "left", "right", "header"):
            sub = getattr(node, field, None)
            if isinstance(sub, CoreTerm):
                stack.append(sub)
    return count


def instrument(tracer: Tracer) -> None:
    """Rebind ordlang's layer-boundary functions to counting wrappers."""
    import ordlang
    from ordlang import checker, cli, context, core, interp, opm, regex, surface

    counts = tracer.counts

    def tokens(args, result):
        counts["surface.tokens"] += len(result)

    def subcontext_holds(args, result):
        if result:
            counts["context.subcontext_true"] += 1

    def ordered_bindings(args, result):
        tracer.note_max("context.max_ordered_bindings", result.graph.n)

    def continuation_chars(args, result):
        if result is not None:
            tracer.note_max("regex.continuation_chars.max", len(args[0].show_element(result)))

    dfa_cache = regex.to_dfa
    misses = [dfa_cache.cache_info().misses]

    def dfa_states(args, result):
        now = dfa_cache.cache_info().misses
        if now > misses[0]:
            counts["regex.dfa_states"] += result.n_states
        misses[0] = now

    def core_nodes(args, result):
        counts["checker.core_nodes"] += count_core_nodes(result.core)

    def let_mode(args, result):
        counts[f"checker.lets_by_mode.{result.core.mode}"] += 1

    def step_outcome(args, result):
        if result.status == "stepped":
            counts["interp.steps"] += 1
            counts[f"interp.rules.{result.rule}"] += 1
            tracer.note_max("interp.peak_heap_cells", len(result.config.heap))

    def diag_chars(args, result):
        counts["cli.diag_chars"] += len(result)

    opms = [regex.RegexOpm, opm.FiniteOpm]
    patch = tracer.patch
    patch("surface.parse", [(surface, "parse"), (cli, "parse"), (ordlang, "parse")])
    patch("surface.lex", [(surface, "lex")], after=tokens)
    patch("surface.surface_fv", [(surface, "surface_fv"), (checker, "surface_fv")])
    patch("surface.rename_var", [(surface, "rename_var")], span=False)
    patch("context.subcontext", [(context, "subcontext")], after=subcontext_holds)
    patch("context.interpret", [(context, "interpret")], after=ordered_bindings)
    patch("context.spanning_embed", [(context, "spanning_embed")])
    patch("context.restrict", [(context, "restrict")])
    patch("context.decompose", [(context, "decompose")])
    for cls in opms:
        patch("opm.best_continuation", [(cls, "best_continuation")], after=continuation_chars)
        patch("opm.residual_exists", [(cls, "residual_exists")])
        patch("opm.leq", [(cls, "leq")])
        patch("opm.eq", [(cls, "eq")])
    patch("regex.to_dfa", [(regex, "to_dfa")], after=dfa_states)
    patch("regex.product_derivative", [(regex, "product_derivative")])
    patch("regex.regex_from_dfa", [(regex, "regex_from_dfa")])
    patch(
        "checker.check_program",
        [(checker, "check_program"), (cli, "check_program"), (ordlang, "check_program")],
        after=core_nodes,
    )
    patch("checker.infer", [(checker.Checker, "infer")])
    patch("checker.let", [(checker.Checker, "_let_ladder")], span=False, after=let_mode)
    patch("core.subst", [(core, "subst"), (interp, "subst")])
    patch("core.fv", [(core, "fv")], span=False)
    patch("core.pretty", [(core, "pretty"), (interp, "pretty"), (cli, "pretty_core")])
    patch("interp.run", [(interp, "run"), (cli, "run"), (ordlang, "run")])
    patch("interp.step", [(interp, "step"), (ordlang, "step")], after=step_outcome)
    patch("interp.runtime_oracle", [(interp, "runtime_oracle"), (ordlang, "runtime_oracle")])
    patch("cli.main", [(cli, "main")])
    patch("cli.diag", [(cli, "_diag")], after=diag_chars)
