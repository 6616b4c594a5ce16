"""The package's record builder against `dataclasses`, an independent reference.

Each record class gets a dataclass twin, built here from the class's own
annotations and plain defaults and from the options and special fields
written below. A twin instance holds the same field values as the record it
mirrors, so each generated method is compared one node at a time: the match
arguments, defaults, `repr`, `==` and `hash` agree on every node that
parsing, checking and running `programs/` builds, and on the trees of the
tests' hypothesis strategies.
"""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlang import checker, interp
from ordlang import context as cx
from ordlang import core as co
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.opm import get_opm
from ordlang.record import Record, replace

from conftest import PROGRAMS, ROOT
from test_context import unique_label_contexts
from test_core import terms, types
from test_interp import core_terms
from test_regex import regexes
from test_surface import SPAN, surface_terms

# What each class that subclasses `Record` passes to it; its subclasses
# inherit it, as a dataclass's subclass is decorated with its options.
OPTIONS = {
    co.CoreType: {"frozen": True},
    co.CoreTerm: {"frozen": True},
    cx.Binding: {"frozen": True},
    cx.Ctx: {"frozen": True},
    cx.GraphRep: {"frozen": True},
    cx.Interp: {"frozen": True},
    rx.Regex: {"frozen": True, "eq": False},
    rx.Dfa: {"frozen": True},
    sf.SurfaceExpr: {"frozen": True},
    checker.InferResult: {},
    interp.Config: {},
    interp.StepOutcome: {},
    interp.TraceStep: {},
    interp.RunResult: {},
}
# The fields whose default is not a plain value on the class.
SPECIAL_FIELDS = {
    (interp.Config, "env"): dataclasses.field(default_factory=dict),
    (interp.RunResult, "steps"): dataclasses.field(default_factory=list),
    (interp.RunResult, "violations"): dataclasses.field(default_factory=list),
    (checker.CheckedProgram, "binding_trees"): dataclasses.field(default_factory=dict),
    (rx.Dfa, "coreach"): dataclasses.field(default=None, compare=False, repr=False),
}


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


RECORDS = _subclasses(Record)


def _root(cls: type) -> type:
    return next(c for c in cls.__mro__ if Record in c.__bases__)


def _twin(cls: type, twins: dict) -> type:
    """A dataclass with `cls`'s name, own fields and options, over its bases' twins."""
    if cls not in twins:
        bases = tuple(_twin(b, twins) for b in cls.__bases__ if b is not Record)
        specs = []
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            if (cls, name) in SPECIAL_FIELDS:
                specs.append((name, annotation, SPECIAL_FIELDS[cls, name]))
            elif name in cls.__dict__:
                specs.append((name, annotation, cls.__dict__[name]))
            else:
                specs.append((name, annotation))
        twins[cls] = dataclasses.make_dataclass(
            cls.__name__, specs, bases=bases, **OPTIONS[_root(cls)])
    return twins[cls]


TWINS: dict = {}
for _cls in RECORDS:
    _twin(_cls, TWINS)


def twin_of(record):
    twin = TWINS[type(record)]
    return twin(**{f.name: getattr(record, f.name) for f in dataclasses.fields(twin)})


def _frozen(cls: type) -> bool:
    return OPTIONS[_root(cls)].get("frozen", False)


def _eq(cls: type) -> bool:
    return OPTIONS[_root(cls)].get("eq", True)


def _required(twin: type) -> list[str]:
    """The fields of a dataclass that have no default."""
    return [f.name for f in dataclasses.fields(twin)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]


def walk(*roots) -> list:
    """Every record reachable from `roots` through fields, tuples, lists,
    sets and dict values, each once."""
    seen, out, stack = set(), [], list(roots)
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Record):
            out.append(x)
            stack.extend(getattr(x, f) for f in x.__match_args__)
        elif isinstance(x, (tuple, list, frozenset)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return out


def _corpus() -> list:
    """The records of parsing, checking (and inferring) and stepping and
    running every program under `programs/`, under both OPMs, with the
    interpretation of each binding's context, the unit contexts and regex,
    and one instance of each class that subclasses `Record` directly."""
    roots: list = [cx.EMPTY, cx.HOLE, rx.EMPTY, co.CoreType(), co.CoreTerm(), cx.Ctx(),
                   rx.Regex(), sf.SurfaceExpr(SPAN)]
    for path in sorted(PROGRAMS.glob("**/*.ord")):
        for name in ("regex", "ownership"):
            opm = get_opm(name)
            try:
                roots.append(program := sf.parse(path.read_text(encoding="utf-8"), opm))
                roots.append(checker.Checker(opm).infer(cx.EMPTY, program))
                checked = checker.check_program(program, opm)
            except (sf.ParseError, checker.TypeCheckError):
                continue
            roots += [checked, *map(cx.interpret, checked.binding_trees.values())]
            roots.append(interp.run(checked.core, opm, trace=True))
            config = interp.Config(checked.core, {})
            while (outcome := interp.step(config, opm)).status == "stepped":
                roots.append(outcome)
                config = outcome.config
    return walk(*roots)


CORPUS = _corpus()


def check_node(x) -> None:
    cls, twin = type(x), twin_of(x)
    assert cls.__match_args__ == type(twin).__match_args__
    assert repr(x) == repr(twin)
    copy = replace(x)
    assert copy is not x and repr(copy) == repr(x)
    if not _eq(cls):  # the class's own methods, not generated ones
        assert (cls.__eq__, cls.__hash__) == (rx.Regex.__eq__, rx.Regex.__hash__)
        return
    assert (x == copy) is (twin == twin_of(copy)) is True
    assert (x != copy) is (twin != twin_of(copy)) is False
    if _frozen(cls):
        assert hash(x) == hash(twin) == hash(copy)
    else:
        for value in (x, twin):
            with pytest.raises(TypeError):
                hash(value)


def check_pair(a, b) -> None:
    if _eq(type(a)) and _eq(type(b)):
        assert (a == b) is (twin_of(a) == twin_of(b))
        assert (a != b) is (twin_of(a) != twin_of(b))
    if type(a) is type(b) and a.__match_args__:
        name = a.__match_args__[-1]
        changed = replace(a, **{name: getattr(b, name)})
        assert repr(changed) == repr(dataclasses.replace(twin_of(a), **{name: getattr(b, name)}))


def test_every_record_class_is_reached_and_mirrored():
    assert {type(x) for x in CORPUS} == set(RECORDS) == set(TWINS)
    assert {_root(cls) for cls in RECORDS} == set(OPTIONS)
    for cls in RECORDS:
        assert cls.__match_args__ == TWINS[cls].__match_args__, cls


def test_generated_methods_match_dataclasses_over_the_corpus():
    by_class: dict = {}
    for x in CORPUS:
        check_node(x)
        by_class.setdefault(type(x), []).append(x)
    for nodes in by_class.values():
        sample = nodes[:12]
        for a in sample:
            for b in sample:
                check_pair(a, b)
    for a, b in zip(CORPUS, CORPUS[1:]):  # mostly of two classes
        check_pair(a, b)


STRATEGIES = [terms(), types(), unique_label_contexts(), regexes(), surface_terms(),
              core_terms(resources=True)]


@given(st.sampled_from(STRATEGIES).flatmap(lambda s: st.tuples(s, s)))
@settings(max_examples=200, deadline=None)
def test_generated_methods_match_dataclasses_on_generated_trees(pair):
    a, b = pair
    for x in walk(a, b):
        check_node(x)
    check_pair(a, b)
    check_pair(a, replace(a))


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if _required(TWINS[c]) != list(c.__match_args__)],
    ids=lambda c: c.__qualname__)
def test_defaults_match_dataclasses(cls):
    twin = TWINS[cls]
    required = {name: object() for name in _required(twin)}
    ours, again, theirs = cls(**required), cls(**required), twin(**required)
    for f in dataclasses.fields(twin):
        if f.name in required:
            continue
        value = getattr(ours, f.name)
        assert type(value) is type(getattr(theirs, f.name)) and value == getattr(theirs, f.name)
        if f.default_factory is dataclasses.MISSING:
            assert value is f.default
        else:  # a new one for each instance
            assert value is not getattr(again, f.name)


def test_replace_refuses_a_name_that_is_not_a_field():
    for x in (co.UNIT, co.Var("x"), interp.TraceStep(0, "RE-Beta")):
        for fn, record in ((replace, x), (dataclasses.replace, twin_of(x))):
            with pytest.raises(TypeError):
                fn(record, no_such_field=1)


def _one_of_each_frozen_class() -> dict:
    out: dict = {}
    for x in CORPUS:
        if _frozen(type(x)):
            out.setdefault(type(x), x)
    return out


@pytest.mark.parametrize("record", list(_one_of_each_frozen_class().values()),
                         ids=lambda r: f"{type(r).__module__}.{type(r).__qualname__}")
def test_a_frozen_record_refuses_to_set_or_delete_any_attribute(record):
    before = repr(record)
    for name in (*record.__match_args__, "extra"):
        with pytest.raises(AttributeError) as refused:
            setattr(record, name, None)
        assert type(refused.value) is not AttributeError  # a subclass, as a dataclass raises
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before and "extra" not in vars(record)


@pytest.mark.parametrize("module", ["ordlang", "ordlang.cli"])
def test_import_leaves_dataclasses_and_inspect_out(module):
    # -S: no site-packages hook can load them first
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"
