import json
import re
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ordlang import core as co
from ordlang import regex as rx
from ordlang import surface as sf
from ordlang.cli import main
from ordlang.opm import get_opm
from ordlang.record import Record

from conftest import PROGRAMS, program_source, workload_round
from oracles import (
    ReferenceParser,
    naive_rename_var,
    naive_surface_fv,
    reference_lex,
    reference_lex_counting,
    span_contains,
)

OPM = get_opm("regex")


def parse(src):
    return sf.parse(src, OPM)


def test_parse_copy_program_shape():
    prog = parse(program_source("copy.ord"))
    assert isinstance(prog, sf.SLet) and prog.x == "copy"
    assert isinstance(prog.header, sf.SAnn)
    assert isinstance(prog.header.expr, sf.SLam)
    ann = prog.header.type
    assert isinstance(ann, co.ArrowType) and ann.mode == "u" and ann.effect == 1
    # line 5 is a pair-elimination over a split
    line4 = prog.body
    assert isinstance(line4, sf.SLet) and line4.x == "if0"
    line42 = line4.body
    assert isinstance(line42, sf.SLet) and line42.x == "of0"
    line5 = line42.body
    assert isinstance(line5, sf.SLetPair) and (line5.x, line5.y) == ("b1", "if1")
    assert isinstance(line5.header, sf.SSplit)


def test_param_pattern_desugars_to_letpair():
    prog = parse("let f : {r} ox {w} -[o 1]-> Unit\n    f (a, b) = drop a; drop b\nin unit")
    lam = prog.header.expr
    assert isinstance(lam, sf.SLam)
    assert isinstance(lam.body, sf.SLetPair)
    assert (lam.body.x, lam.body.y) == ("a", "b")
    assert isinstance(lam.body.header, sf.SVar) and lam.body.header.name == lam.var


def test_sequence_is_right_associative():
    prog = parse("unit; unit; unit")
    assert isinstance(prog, sf.SLet) and prog.x is None
    assert isinstance(prog.body, sf.SLet) and prog.body.x is None
    assert isinstance(prog.header, sf.SUnit)


def test_application_is_left_associative():
    prog = parse("f x y")
    assert isinstance(prog, sf.SApp)
    assert isinstance(prog.fn, sf.SApp)
    assert prog.fn.fn == sf.SVar(prog.fn.fn.span, "f")


def test_prefix_operator_spans_an_application():
    prog = parse("drop f x")
    assert isinstance(prog, sf.SDrop)
    assert isinstance(prog.arg, sf.SApp)


def test_annotation_only_in_parens():
    prog = parse("(unit : Unit)")
    assert isinstance(prog, sf.SAnn)
    assert prog.type == co.UNIT_T


def test_pair_versus_grouping():
    assert isinstance(parse("(unit, unit)"), sf.SPair)
    assert isinstance(parse("(unit)"), sf.SUnit)


def test_comments_and_whitespace():
    prog = parse("-- a comment\nunit -- trailing\n")
    assert isinstance(prog, sf.SUnit)


def test_empty_program_is_unit():
    assert isinstance(parse(""), sf.SUnit)
    assert isinstance(parse("  -- nothing\n"), sf.SUnit)


def test_underscore_is_a_binder():
    prog = parse("let _ = unit in unit")
    assert isinstance(prog, sf.SLet) and prog.x == "_"


def test_regex_literal_uses_opm_parser():
    prog = parse("new {(r|w)*c}")
    assert isinstance(prog, sf.SNew)
    assert rx.equivalent(prog.index, rx.parse_regex("(r|w)*c"))


def test_type_syntax():
    prog = parse("let f : ({r} .o {w}) -[l 0]-> Unit ox Unit = x in unit")
    ann = prog.header.type
    assert isinstance(ann, co.ArrowType) and ann.mode == "l" and ann.effect == 0
    assert isinstance(ann.param, co.ProdType) and ann.param.ordered
    assert isinstance(ann.result, co.ProdType) and not ann.result.ordered


def test_parse_errors():
    with pytest.raises(sf.ParseError):
        parse("(x : Unit")  # unbalanced parenthesis
    with pytest.raises(sf.ParseError):
        parse("let x unit")  # malformed let
    with pytest.raises(sf.ParseError):
        parse("let f : Unit g y = unit in unit")  # name mismatch
    with pytest.raises(sf.ParseError):
        parse("new {x|}")  # bad regex literal
    with pytest.raises(sf.ParseError):
        parse("unit unit)")  # trailing input
    err = None
    try:
        parse("\n\n   (x : Unit")
    except sf.ParseError as exc:
        err = exc
    assert err is not None and err.span.line == 3


def test_lexer_tokens():
    kinds = [t.kind for t in sf.lex("let x -[u 1]-> .o { r* } ! ;")]
    assert kinds == ["let", "IDENT", "-[", "IDENT", "NUM", "]->", ".o", "ELEM", "!", ";", "EOF"]


def test_a_literal_across_lines_advances_the_line_count():
    toks = sf.lex("let x = new {(r|w)*\n c} in\ndrop (!{c} x);\nundefined_var")
    elem = toks[4]
    assert (elem.kind, elem.text) == ("ELEM", "(r|w)*\n c")
    assert elem.span == sf.Span(1, 13, 2, 4)  # ends after the `}` on line 2
    assert (toks[5].text, toks[5].span) == ("in", sf.Span(2, 5, 2, 7))
    assert (toks[-2].text, toks[-2].span) == ("undefined_var", sf.Span(4, 1, 4, 14))


def _lexed(lexer, source):
    try:
        return [(t.kind, t.text, t.span) for t in lexer(source)]
    except sf.ParseError as exc:
        return exc.message, exc.span


# Pieces of every lexeme class, and characters on which a careless pattern
# would disagree with the `str` predicates: `²` is a digit but not decimal,
# `½` and `Ⅻ` are numeric but neither digits nor letters, and `\r`, `\x85`
# and `\x1c` are spaces that do not end a line.
LEXEME_PIECES = [
    "let", "in", "new", "ox", "Unit", "x", "_", "'", "é", "7", "42", "²", "½", "Ⅻ", "٣",
    " ", "\t", "\n", "\r", "\x85", "\x1c", "--", "-", "[", "]", "]->", "-[", ".", "o",
    ".o", "{", "}", "{r*}", "(", ")", ",", ";", ":", "=", "!", "@",
]
# A `{...}` literal across a newline moves the line count of `lex` only; this
# also skips a `{` in a comment with a `}` on a later line.
LITERAL_ACROSS_LINES = re.compile(r"\{[^}]*\n[^}]*\}")


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from("".join(LEXEME_PIECES))),
        st.lists(st.sampled_from(LEXEME_PIECES), max_size=40).map("".join),
    )
)
@example("x² ½ Ⅻ")
@example("12ab 3½ x'' _9")
@example("unit\r\x85unit")
@example("let x = unit -- a comment at the end")
@example("drop {r* c")
@example("{(r|w)*} }")
@settings(max_examples=500)
def test_lex_matches_the_reference_lexer(source):
    assume(not LITERAL_ACROSS_LINES.search(source))
    assert _lexed(sf.lex, source) == _lexed(reference_lex, source)


# Literals across lines, line ends that are not `\n` alone, and a comment at
# the end of the input: where offsets and a running line count could part.
LINE_PIECES = LEXEME_PIECES + [
    "{r\nw}", "{\n}", "{(r|w)*\n c}", "{r\r\nw\n\n}", "\r\n", "\n\x85", "-- note", "-- {\n}",
]


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from("".join(LEXEME_PIECES))),
        st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join),
    )
)
@example("let x = new {(r|w)*\n c} in\ndrop (!{c} x);\nundefined_var")
@example("let x = new {(r|w)*\n c} in -- note\ndrop (!{c} x); @")
@example("{a\r\nb}\r\n{\x85\n} x -- at the end")
@example("x\n-- a comment at the end")
@example("{r\n}\n{")
@settings(max_examples=500)
def test_lex_matches_the_counting_lexer(source):
    assert _lexed(sf.lex, source) == _lexed(reference_lex_counting, source)


def _benchmark_sources():
    """Every `programs/` file and every seed-1 source of rounds 0 to 2 of the
    generated workloads, each with the OPM it is written for."""
    sources = [(path.read_text(), "regex") for path in sorted(PROGRAMS.glob("**/*.ord"))]
    for name in ("wide", "borrow", "deep"):
        sources += [(job.source, job.opm) for r in range(3) for job in workload_round(name, r)]
    return sources


BENCHMARK_SOURCES = _benchmark_sources()


def test_lex_matches_the_counting_lexer_on_programs_and_workloads():
    # the sources the benchmark lexes, besides the generated text above
    for source, _opm in BENCHMARK_SOURCES:
        assert _lexed(sf.lex, source) == _lexed(reference_lex_counting, source)


def _children(e: sf.SurfaceExpr):
    return [getattr(e, name) for name, _binders in sf.SHAPES.get(type(e), ())]


def _spans_nested(e: sf.SurfaceExpr):
    for child in _children(e):
        assert span_contains(e.span, child.span), (e, child)
        _spans_nested(child)


def test_span_coverage_over_corpus():
    for path in sorted(PROGRAMS.glob("*.ord")):
        prog = parse(path.read_text())
        _spans_nested(prog)


# ---------------------------------------------------------------------------
# The spine loop and the prefix table against the recursive parser

# Each pair parameter draws a fresh name; the three must be drawn in
# the same order by both parsers.
NESTED_PAIR_PARAMETERS = """
let f : {r} ox {w} -[u 1]-> Unit
    f (a, b) =
      let g : {r} ox {w} -[u 1]-> Unit
          g (c, d) = drop (!{r} c); drop (!{w} d)
      in g (a, b)
in
let h : {r} ox {w} -[u 1]-> Unit
    h (p0, q) = drop (!{r} p0); drop (!{w} q)
in f (new {r}, new {w}); h (new {r}, new {w})
"""


def _parsed(parser_class, source, opm_name):
    try:
        return parser_class(source, get_opm(opm_name)).parse_program()
    except sf.ParseError as exc:
        return exc.message, exc.span


def _lockstep_sources():
    sources = [
        (path.read_text(), opm)
        for path in sorted(PROGRAMS.glob("**/*.ord"))
        for opm in ("regex", "ownership")
    ]
    for name in ("wide", "borrow", "deep"):
        sources += [(job.source, job.opm) for job in workload_round(name)]
    return sources + [(NESTED_PAIR_PARAMETERS, "regex")]


LOCKSTEP_SOURCES = _lockstep_sources()
EDIT_PIECES = [
    "", " ", "\n", "let", "in", "=", ",", ":", ";", "(", ")", "!", "split", "drop", "new",
    "unit", "x", "{r}", "{", "}", "{eps_}", "{é²}", "{(r|", "Unit", "ox", ".o", "-[u 1]->",
    "let f : Unit -[u 0]-> Unit\n f (a, b) =", "--",
]


def test_parser_matches_the_reference_parser_on_programs_and_workloads():
    for source, opm in LOCKSTEP_SOURCES:
        assert _parsed(sf.Parser, source, opm) == _parsed(ReferenceParser, source, opm)


@given(
    st.sampled_from(LOCKSTEP_SOURCES),
    st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 12), st.sampled_from(EDIT_PIECES)),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
def test_parser_matches_the_reference_parser_on_edited_sources(case, edits):
    # each edit replaces up to 12 characters at a relative position by a piece
    source, opm = case
    for where, width, piece in edits:
        i = int(where * len(source))
        source = source[:i] + piece + source[i + width:]
    assert _parsed(sf.Parser, source, opm) == _parsed(ReferenceParser, source, opm)


def _indices(e: sf.SurfaceExpr) -> list:
    """Every index in a tree: those of its nodes and of its annotations' types."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        for name in node.__match_args__:
            value = getattr(node, name)
            if name == "index":
                out.append(value)
            elif isinstance(value, Record):
                stack.append(value)
    return out


def test_each_distinct_literal_is_parsed_once_per_program(monkeypatch):
    # every occurrence of a literal text shares the index parsed at its first
    elements = []
    element = sf.Parser.element

    def recorded(self, tok):
        index = element(self, tok)
        elements.append((tok.text, index))
        return index

    monkeypatch.setattr(sf.Parser, "element", recorded)
    for source, opm_name in BENCHMARK_SOURCES:
        opm, parsed = get_opm(opm_name), Counter()
        parse_element = opm.parse_element

        def counted(text, _parsed=parsed, _parse=parse_element):
            _parsed[text] += 1
            return _parse(text)

        monkeypatch.setattr(opm, "parse_element", counted)
        elements.clear()
        tree = sf.parse(source, opm)
        texts = [t.text for t in sf.lex(source) if t.kind == "ELEM"]
        assert parsed == Counter(set(texts)), source
        first = {}
        for text, index in elements:
            assert first.setdefault(text, index) is index, (text, source)
        assert sorted(map(id, _indices(tree))) == sorted(id(index) for _text, index in elements)
        assert len(elements) == len(texts)


def test_a_bad_literal_is_reported_at_its_first_occurrence(tmp_path, capsys):
    path = tmp_path / "bad.ord"
    path.write_text(
        "let x = new {r*} in\nlet y = new {r|} in\ndrop x;\ndrop y;\nlet z = new {r|} in drop z\n"
    )
    assert main(["check", "--json", str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    diagnostic = json.loads(line)
    assert (diagnostic["kind"], diagnostic["line"], diagnostic["col"]) == ("parse-error", 2, 13)


def _nodes(e: sf.SurfaceExpr) -> int:
    count, stack = 0, [e]
    while stack:
        count += 1
        stack.extend(_children(stack.pop()))
    return count


def test_positions_are_computed_only_for_spans_the_tree_keeps(monkeypatch):
    calls = [0]
    uncounted = sf.Lines.span

    def counted(self, start, end):
        calls[0] += 1
        return uncounted(self, start, end)

    monkeypatch.setattr(sf.Lines, "span", counted)
    sources = [(path.read_text(), "regex") for path in sorted(PROGRAMS.glob("**/*.ord"))]
    sources += [(job.source, job.opm) for job in workload_round("deep")]
    sources += [(NESTED_PAIR_PARAMETERS, "regex"), ("((a, b), (c, (d : Unit)))", "regex")]
    for source, opm in sources:
        calls[0] = 0
        sf.lex(source)
        assert calls[0] == 0
        tree = sf.parse(source, get_opm(opm))
        assert calls[0] <= _nodes(tree) + 1, source


def test_parser_reads_5000_item_spines():
    # The generated `==`, `hash` and `repr` of the trees recurse, so the
    # checks walk them with loops.
    n = 5000
    lets = "".join(f"let x{i + 1} = !{{r}} x{i} in\n" for i in range(n))
    e = parse(f"let x0 = new {{r*c}} in\n{lets}drop (!{{c}} x{n})\n")
    for i in range(n + 1):
        assert isinstance(e, sf.SLet) and e.x == f"x{i}" and e.span.line == i + 1
        e = e.body
    assert isinstance(e, sf.SDrop) and e.span.line == e.span.end_line == n + 2
    e = parse(";\n".join(["unit"] * n))
    for i in range(n - 1):
        assert isinstance(e, sf.SLet) and e.x is None and e.span == sf.Span(i + 1, 1, n, 5)
        assert isinstance(e.header, sf.SUnit)
        e = e.body
    assert isinstance(e, sf.SUnit) and e.span == sf.Span(n, 1, n, 5)


def test_surface_fv_reads_a_5000_let_spine():
    n = 5000
    lets = "".join(f"let x{i + 1} = !{{r}} x{i} in\n" for i in range(n))
    e = parse(f"let x0 = new {{r*c}} in\n{lets}drop (!{{c}} x{n})\n")
    assert sf.surface_fv(e) == frozenset()
    for i in range(n + 1):
        assert sf.surface_fv(e.header) == (frozenset({f"x{i - 1}"}) if i else frozenset())
        assert sf.surface_fv(e.body) == {f"x{i}"}
        e = e.body


# ---------------------------------------------------------------------------
# Stored free variables and renaming

SPAN = sf.Span(1, 1, 1, 1)
NAMES = "xyz"


def surface_terms():
    names = st.sampled_from(NAMES)
    leaves = st.one_of(
        names.map(lambda n: sf.SVar(SPAN, n)),
        st.builds(sf.SUnit, st.just(SPAN)),
        st.builds(sf.SNew, st.just(SPAN), st.just(rx.sym("r"))),
    )

    def extend(inner):
        return st.one_of(
            inner.map(lambda a: sf.SOp(SPAN, rx.sym("r"), a)),
            inner.map(lambda a: sf.SSplit(SPAN, rx.sym("r"), a)),
            inner.map(lambda a: sf.SDrop(SPAN, a)),
            inner.map(lambda a: sf.SAnn(SPAN, a, co.UNIT_T)),
            st.builds(lambda a, b: sf.SApp(SPAN, a, b), inner, inner),
            st.builds(lambda a, b: sf.SPair(SPAN, a, b), inner, inner),
            st.builds(lambda a, b: sf.SLet(SPAN, None, a, b), inner, inner),
            st.builds(lambda x, a: sf.SLam(SPAN, x, a), names, inner),
            st.builds(lambda x, a, b: sf.SLet(SPAN, x, a, b), names, inner, inner),
            st.builds(
                lambda x, y, a, b: sf.SLetPair(SPAN, x, y, a, b), names, names, inner, inner
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _subterms(e):
    yield e
    for child in _children(e):
        yield from _subterms(child)


def _assert_stored_fv_is_exact(e):
    for sub in _subterms(e):
        assert sf.surface_fv(sub) == naive_surface_fv(sub), sub


def test_stored_fv_over_corpus():
    for path in sorted(PROGRAMS.glob("**/*.ord")):
        _assert_stored_fv_is_exact(parse(path.read_text()))


@given(surface_terms())
@settings(max_examples=200)
def test_stored_fv_leaves_equality_hash_and_repr_alone(e):
    fresh = naive_rename_var(e, "", "")  # renames nothing: an equal, unshared tree
    before = (repr(e), hash(e))
    assert e == fresh and fresh == e
    assert (repr(e), hash(e)) == (repr(fresh), hash(fresh)) == before
    _assert_stored_fv_is_exact(e)
    _assert_stored_fv_is_exact(fresh)


@given(surface_terms(), st.sampled_from(NAMES), st.sampled_from("xyw"))
@settings(max_examples=300)
def test_rename_matches_a_full_rebuild(e, old, new):
    out = sf.rename_var(e, old, new)
    _assert_stored_fv_is_exact(out)
    _assert_stored_fv_is_exact(e)
    assert out == naive_rename_var(e, old, new)
    if old not in naive_surface_fv(e):
        assert out is e


def test_rename_rebuilds_only_the_path_to_free_occurrences():
    prog = parse("let a = unit in let b = x in (a, b); x")
    out = sf.rename_var(prog, "x", "y")
    assert out == parse("let a = unit in let b = y in (a, b); y")
    assert out.header is prog.header  # `let a = unit`: no x below
    assert out.body.body.header is prog.body.body.header  # `(a, b)`
    assert sf.rename_var(prog, "a", "q") is prog  # bound, not free
    assert sf.rename_var(prog.body, "a", "q") is not prog.body  # free there
