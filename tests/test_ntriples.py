import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.graph import Graph, isomorphic
from rdfcheck.ntriples import (
    ParseError,
    _BlankScope,
    _cursor_triple,
    _fast_triple,
    parse_ntriples,
    serialize_ntriples,
)
from rdfcheck.terms import BlankNode, Iri, Literal, Triple
from rdfcheck.turtle import parse_turtle

from conftest import FIXTURES


def test_plain_literal_defaults_to_string():
    g = parse_ntriples('<http://a> <http://b> "x" .')
    [t] = list(g)
    assert isinstance(t.object, Literal)
    assert t.object.datatype == "http://www.w3.org/2001/XMLSchema#string"


def test_empty_input_gives_empty_graph():
    assert len(parse_ntriples("")) == 0
    assert len(parse_ntriples(b"# only a comment\n\n")) == 0


def test_typed_literal_roundtrips_identically():
    line = '<http://a> <http://b> "5"^^<http://www.w3.org/2001/XMLSchema#double> .\n'
    assert serialize_ntriples(parse_ntriples(line)) == line


def test_language_literal_roundtrip():
    line = '<http://a> <http://b> "hello"@en-GB .\n'
    assert serialize_ntriples(parse_ntriples(line)) == line


def test_blank_labels_renamed_in_first_seen_order():
    g = parse_ntriples("_:zeta <http://p> _:alpha .\n_:alpha <http://p> _:zeta .")
    labels = sorted({t.subject.label for t in g})
    assert labels == ["b0", "b1"]


def test_escapes_decoded():
    g = parse_ntriples('<http://a> <http://b> "tab\\there\\nnewline \\u0041" .')
    [t] = list(g)
    assert t.object.lexical == "tab\there\nnewline A"


def test_syntax_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_ntriples('<http://a> <http://b> "ok" .\nbroken line\n')
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_no_partial_graph_on_error():
    with pytest.raises(ParseError):
        parse_ntriples('<http://a> <http://b> <http://c> .\n<http://a> nope .')


def test_non_utf8_rejected():
    with pytest.raises(ParseError):
        parse_ntriples(b"<http://a> <http://b> \xff .")


def _random_corpus(rng, n):
    triples = []
    for i in range(n):
        kind = rng.choice(["iri", "blank"])
        s = Iri(f"http://s/{rng.randrange(200)}") if kind == "iri" else BlankNode(
            f"n{rng.randrange(50)}"
        )
        p = Iri(f"http://p/{rng.randrange(40)}")
        choice = rng.random()
        if choice < 0.4:
            o = Iri(f"http://o/{rng.randrange(200)}")
        elif choice < 0.55:
            o = BlankNode(f"n{rng.randrange(50)}")
        elif choice < 0.7:
            o = Literal(
                rng.choice(["plain", 'quo"te', "new\nline", "tab\t", "ünïcødé"])
            )
        elif choice < 0.85:
            o = Literal(str(rng.randrange(1000)),
                        datatype="http://www.w3.org/2001/XMLSchema#integer")
        else:
            o = Literal("text", lang=rng.choice(["en", "de", "en-GB"]))
        triples.append(Triple(s, p, o))
    return Graph(triples)


def test_roundtrip_on_random_corpus():
    # parse -> serialize -> parse is a fixpoint up to blank relabeling
    g = _random_corpus(random.Random(42), 1000)
    reparsed = parse_ntriples(serialize_ntriples(g))
    assert isomorphic(g, reparsed)
    assert isomorphic(reparsed, parse_ntriples(serialize_ntriples(reparsed)))


def test_roundtrip_blank_free_corpus_is_byte_identical():
    rng = random.Random(7)
    g = Graph(
        t for t in _random_corpus(rng, 600)
        if not isinstance(t.subject, BlankNode) and not isinstance(t.object, BlankNode)
    )
    once = serialize_ntriples(g)
    assert serialize_ntriples(parse_ntriples(once)) == once


def test_fixtures_roundtrip():
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl",
                 "thesaurus_cycle.ttl"):
        g = parse_turtle((FIXTURES / name).read_bytes())
        assert isomorphic(g, parse_ntriples(serialize_ntriples(g)))


@pytest.mark.parametrize("line", [
    '<http://a> <http://b> "\\UFFFFFFFF" .',
    '<http://a> <http://b> "\\U00110000" .',
    '<http://a> <http://b> "\\uD800" .',
    '<http://a> <http://b> "\\uDFFF" .',
    '<http://a/\\UFFFFFFFF> <http://b> "x" .',
    '<http://a/\\uDC00> <http://b> "x" .',
])
def test_escape_outside_unicode_scalar_values_rejected(line):
    with pytest.raises(ParseError) as err:
        parse_ntriples("<http://a> <http://b> <http://c> .\n" + line)
    assert str(err.value).startswith("line 2: escape U+")
    assert "not a Unicode scalar value" in str(err.value)


def test_escape_at_scalar_value_bounds_accepted():
    g = parse_ntriples('<http://a> <http://b> "\\U0010FFFF\\uD7FF\\uE000" .')
    [t] = list(g)
    assert t.object.lexical == "\U0010FFFF\uD7FF\uE000"


def _agree(line: str) -> bool:
    """The fast path declines ``line`` without side effects, or yields the
    cursor's triple (raw language tag included). Returns whether it took it."""
    fast_scope, cursor_scope = _BlankScope(), _BlankScope()
    fast = _fast_triple(line, fast_scope)
    if fast is None:
        assert fast_scope._map == {}, line
        return False
    reference = _cursor_triple(line, 1, cursor_scope)
    assert (fast, str(fast)) == (reference, str(reference)), line
    assert fast_scope._map == cursor_scope._map, line
    return True


_EDGE_LINES = [
    "_:a <http://p> _:a.",
    "_:a <http://p> _:a..",
    "_:a. <http://p> <http://o> .",
    "_:a.b <http://p> _:c-d.e- .",
    "_:a.b <http://p> _:a.b.",
    "_:x <http://p> _:y.#x",
    "<http://s>\t<http://p>\t<http://o>\t.",
    "<http://s> <http://p> <http://o> . # comment",
    "<http://s> <http://p> <http://o> .#x",
    "<http://s> <http://p> <http://o>.",
    "<http://s> <http://p> <http://o> . x",
    "<http://s> <http://p> <http://o>",
    "<rel> <http://p> <http://o> .",
    "<http://s> <rel> <http://o> .",
    "<http://s> <http://p> <rel> .",
    "<http://s> <http://p> <> .",
    '<http://s> <http://p> "x"@en-GB .',
    '<http://s> <http://p> "x"@en-GB-oed.',
    '<http://s> <http://p> "x"@en- .',
    '<http://s> <http://p> "x"@ .',
    '<http://s> <http://p> "x"@en.',
    '<http://s> <http://p> "x"^^<rel> .',
    '<http://s> <http://p> "x"^^<http://www.w3.org/2001/XMLSchema#int> .',
    '<http://s> <http://p> "x"^ <http://d> .',
    '<http://s> <http://p> "x"^^ <http://d> .',
    '<http://s> <http://p> "a <b> #c" .',
    '<http://s> <http://p> "" .',
    '<http://s> <http://p> "x .',
    "<a><b> <http://o> .",
    "<http://a><http://b> <http://o> .",
    "<http://s>\u00a0<http://p> <http://o> .",
    "<http://s> <http://p>\u2003<http://o> .",
    "<http://s/\u00a0> <http://p> <http://o> .",
    "<http://s/\t> <http://p> <http://o> .",
    "<http://s/ x> <http://p> <http://o> .",
    "<http://s/{x}> <http://p> <http://o> .",
    "<http://s/<x> <http://p> <http://o> .",
    "<http://s <http://p> <http://o> .",
    '"lit" <http://p> <http://o> .',
    "<http://s> _:p <http://o> .",
    "_:: <http://p> <http://o> .",
    "_:.a <http://p> <http://o> .",
    "_: <http://p> <http://o> .",
    "bare <http://p> <http://o> .",
    "<http://s> <http://p> bare .",
]


def test_fast_path_agrees_with_cursor_on_edge_lines():
    taken = [line for line in _EDGE_LINES if _agree(line)]
    # the edge list exercises both outcomes
    assert 0 < len(taken) < len(_EDGE_LINES)


def test_fast_path_takes_every_fixture_line_and_agrees():
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl",
                 "thesaurus_cycle.ttl"):
        text = serialize_ntriples(parse_turtle((FIXTURES / name).read_bytes()))
        for line in text.splitlines():
            assert _agree(line) or "\\" in line, line


def _pieces(good: list[str], bad: list[str]):
    # well-formed pieces come four times as often as broken ones, so that
    # a fifth to a third of the generated lines reach the fast path
    return st.sampled_from(good * 4 + bad)


_WS = _pieces([" ", "\t", "  ", " \t"], ["", "\u00a0", "\u2003", "\r"])
_IRIS = _pieces(
    ["<http://e/x>", "<urn:x>", "<http://e/é>", "<http://e/\t>"],
    ["<rel>", "<>", "<http://e/a b>", "<http://e/<>", "<http://e/{}>", "<http://e/x", "<:>"],
)
_BLANKS = st.one_of(
    _pieces(["_:a", "_:b9", "_:a.b", "_:a-", "_:a.", "_:_.-x"], ["_:", "_:.a", "_:-a"]),
    st.builds("_:{}".format, st.text(alphabet="ab9_-.", max_size=5)),
)
_LITERALS = st.builds(
    "{}{}".format,
    _pieces(['"x"', '""', '"a b"', '"#<>"', '"é"'], ['"x']),
    _pieces(
        ["", "@en", "@en-GB", "@en-GB-1", "^^<http://d/t>"],
        ["@en-", "@-en", "@", "@e1", "^^<d>", "^^ <http://d/t>", "^<http://d/t>"],
    ),
)
_ENDS = _pieces([".", ". # c", ".#x", ".\t#"], ["..", ". x", "", "#", ". ."])


@given(
    subject=st.one_of(_IRIS, _BLANKS),
    predicate=_IRIS,
    obj=st.one_of(_IRIS, _BLANKS, _LITERALS),
    ws=st.lists(_WS, min_size=3, max_size=3),
    end=_ENDS,
)
@settings(max_examples=400, deadline=None)
def test_fast_path_agrees_with_cursor_on_generated_lines(subject, predicate, obj, ws, end):
    line = f"{subject}{ws[0]}{predicate}{ws[1]}{obj}{ws[2]}{end}".strip()
    if line and not line.startswith("#"):
        _agree(line)


def _cursor_only_parse(text: str) -> Graph:
    scope = _BlankScope()
    triples = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            triples.append(_cursor_triple(line, lineno, scope))
    return Graph(triples)


@pytest.mark.parametrize(
    "path", sorted((FIXTURES / "malformed").glob("*.nt")), ids=lambda p: p.name
)
def test_malformed_ntriples_error_matches_cursor_only_parse(path):
    text = path.read_text(encoding="utf-8")
    with pytest.raises(ParseError) as reference:
        _cursor_only_parse(text)
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert str(err.value) == str(reference.value)


def test_equal_iris_share_one_object():
    g = parse_ntriples(
        "<http://a> <http://p> <http://b> .\n<http://b> <http://p> <http://a> .\n"
        '<http://a> <http://p> "\\u0041"^^<http://a> .\n'
    )
    objects = {id(term) for t in g for term in (t.subject, t.predicate, t.object)
               if isinstance(term, Iri)}
    assert len(objects) == 3
