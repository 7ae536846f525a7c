import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck import ntriples as ntriples_module
from rdfcheck.graph import Graph
from rdfcheck.ntriples import ParseError, parse_ntriples, serialize_ntriples
from rdfcheck.terms import BlankNode, Iri, Literal, Triple
from rdfcheck.turtle import parse_turtle

from conftest import FIXTURES
from isomorphism import isomorphic


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


@pytest.mark.parametrize("read", [bytes, io.BytesIO], ids=["bytes", "file"])
def test_invalid_utf8_names_its_line(read):
    data = b'<http://a> <http://b> "1" .\n<http://a> <http://b> "2" .\n<http://a> <http://b> "\xff" .\n'
    with pytest.raises(ParseError) as err:
        parse_ntriples(read(data))
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: input is not valid UTF-8: ")


def test_a_file_parses_as_its_bytes_and_its_text():
    text = serialize_ntriples(Graph(parse_turtle((FIXTURES / "eusilc.ttl").read_bytes())))
    for written in (text, text.replace("\n", "\r\n"), "# head\n\n" + text.rstrip("\n")):
        data = written.encode("utf-8")
        assert parse_ntriples(io.BytesIO(data)) == parse_ntriples(data) == parse_ntriples(written)


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
    reparsed = Graph(parse_ntriples(serialize_ntriples(g)))
    assert isomorphic(g, reparsed)
    assert isomorphic(reparsed, Graph(parse_ntriples(serialize_ntriples(reparsed))))


def test_roundtrip_blank_free_corpus_is_byte_identical():
    rng = random.Random(7)
    g = Graph(
        t for t in _random_corpus(rng, 600)
        if not isinstance(t.subject, BlankNode) and not isinstance(t.object, BlankNode)
    )
    once = serialize_ntriples(g)
    assert serialize_ntriples(Graph(parse_ntriples(once))) == once


def test_fixtures_roundtrip():
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl",
                 "thesaurus_cycle.ttl"):
        g = Graph(parse_turtle((FIXTURES / name).read_bytes()))
        assert isomorphic(g, Graph(parse_ntriples(serialize_ntriples(g))))


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


# Each edge line and its outcome, as the per-character cursor parser that
# the token regex replaced gave it: the triple's N-Triples form, or the exact
# diagnostic.
_EDGE_LINES = {
    "_:a <http://p> _:a.": "_:b0 <http://p> _:b0 .",
    "_:a <http://p> _:a..": "line 1: trailing content after '.': '.'",
    "_:a. <http://p> <http://o> .": "line 1: expected whitespace",
    "_:a.b <http://p> _:c-d.e- .": "_:b0 <http://p> _:b1 .",
    "_:a.b <http://p> _:a.b.": "_:b0 <http://p> _:b0 .",
    "_:x <http://p> _:y.#x": "_:b0 <http://p> _:b1 .",
    "<http://s>\t<http://p>\t<http://o>\t.": "<http://s> <http://p> <http://o> .",
    "<http://s> <http://p> <http://o> . # comment": "<http://s> <http://p> <http://o> .",
    "<http://s> <http://p> <http://o> .#x": "<http://s> <http://p> <http://o> .",
    "<http://s> <http://p> <http://o>.": "<http://s> <http://p> <http://o> .",
    "<http://s> <http://p> <http://o> . x": "line 1: trailing content after '.': 'x'",
    "<http://s> <http://p> <http://o>": "line 1: expected '.', found ''",
    "<rel> <http://p> <http://o> .": "line 1: relative IRI <rel> is not allowed",
    "<http://s> <rel> <http://o> .": "line 1: relative IRI <rel> is not allowed",
    "<http://s> <http://p> <rel> .": "line 1: relative IRI <rel> is not allowed",
    "<http://s> <http://p> <> .": "line 1: relative IRI <> is not allowed",
    '<http://s> <http://p> "x"@en-GB .': '<http://s> <http://p> "x"@en-GB .',
    '<http://s> <http://p> "x"@en-GB-oed.': '<http://s> <http://p> "x"@en-GB-oed .',
    '<http://s> <http://p> "x"@en- .': "line 1: expected '.', found '-'",
    '<http://s> <http://p> "x"@ .': "line 1: invalid language tag",
    '<http://s> <http://p> "x"@en.': '<http://s> <http://p> "x"@en .',
    '<http://s> <http://p> "x"^^<rel> .': "line 1: relative IRI <rel> is not allowed",
    '<http://s> <http://p> "x"^^<http://www.w3.org/2001/XMLSchema#int> .':
        '<http://s> <http://p> "x"^^<http://www.w3.org/2001/XMLSchema#int> .',
    '<http://s> <http://p> "x"^ <http://d> .': "line 1: expected '^', found ' '",
    '<http://s> <http://p> "x"^^ <http://d> .': "line 1: expected '<', found ' '",
    '<http://s> <http://p> "a <b> #c" .': '<http://s> <http://p> "a <b> #c" .',
    '<http://s> <http://p> "" .': '<http://s> <http://p> "" .',
    '<http://s> <http://p> "x .': "line 1: unterminated string literal",
    "<a><b> <http://o> .": "line 1: relative IRI <a> is not allowed",
    "<http://a><http://b> <http://o> .": "line 1: expected whitespace",
    "<http://s>\u00a0<http://p> <http://o> .": "line 1: expected whitespace",
    "<http://s> <http://p>\u2003<http://o> .": "line 1: expected whitespace",
    "<http://s/\u00a0> <http://p> <http://o> .": "<http://s/\u00a0> <http://p> <http://o> .",
    "<http://s/\t> <http://p> <http://o> .": "line 1: character '\\t' not allowed inside IRI",
    "<http://s/ x> <http://p> <http://o> .": "line 1: character ' ' not allowed inside IRI",
    "<http://s/{x}> <http://p> <http://o> .": "line 1: character '{' not allowed inside IRI",
    "<http://s/<x> <http://p> <http://o> .": "line 1: character '<' not allowed inside IRI",
    "<http://s <http://p> <http://o> .": "line 1: character ' ' not allowed inside IRI",
    '"lit" <http://p> <http://o> .': "line 1: expected IRI or blank node subject, found '\"'",
    "<http://s> _:p <http://o> .": "line 1: expected '<', found '_'",
    "_:: <http://p> <http://o> .": "line 1: invalid blank node label",
    "_:.a <http://p> <http://o> .": "line 1: invalid blank node label",
    "_: <http://p> <http://o> .": "line 1: invalid blank node label",
    "bare <http://p> <http://o> .": "line 1: expected IRI or blank node subject, found 'b'",
    "<http://s> <http://p> bare .":
        "line 1: expected IRI, blank node, or literal object, found 'b'",
}


def _outcome(text: str) -> str:
    try:
        [t] = list(parse_ntriples(text))
    except ParseError as err:
        return str(err)
    return str(t)


def test_edge_lines_keep_their_outcome():
    assert {line: _outcome(line) for line in _EDGE_LINES} == _EDGE_LINES


def test_every_fixture_line_round_trips():
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl",
                 "thesaurus_cycle.ttl"):
        text = serialize_ntriples(Graph(parse_turtle((FIXTURES / name).read_bytes())))
        for line in text.splitlines():
            if "_:" not in line:
                assert _outcome(line) == line


def _pieces(good: list[str], bad: list[str]):
    # well-formed pieces come four times as often as broken ones, so that
    # a fifth to a third of the generated lines are well formed
    return st.sampled_from(good * 4 + bad)


_WS = _pieces([" ", "\t", "  ", " \t"], ["", "\u00a0", "\u2003", "\r"])
_IRIS = _pieces(
    ["<http://e/x>", "<urn:x>", "<http://e/é>", "<http://e/\\u00E9>"],
    ["<rel>", "<>", "<http://e/a b>", "<http://e/<>", "<http://e/{}>", "<http://e/x", "<:>",
     "<http://e/\t>", "<http://e/\\u0020>", "<http://e/\\u003E>"],
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
def test_generated_lines_agree_with_turtle(subject, predicate, obj, ws, end):
    """An accepted line is the same triple in Turtle, up to blank labels; a
    rejected line gives one diagnostic on line 1."""
    line = f"{subject}{ws[0]}{predicate}{ws[1]}{obj}{ws[2]}{end}".strip()
    if not line or line.startswith("#"):
        return
    try:
        g = Graph(parse_ntriples(line))
    except ParseError as err:
        assert err.line == 1 and str(err).startswith("line 1: ")
        assert "\n" not in str(err)
        return
    assert len(g) == 1
    assert isomorphic(g, Graph(parse_turtle(line))), line


# Each malformed N-Triples fixture and its diagnostic, as the per-character
# cursor parser that the token regex replaced worded it.
MALFORMED_NT = {
    "nt_bad_escape.nt": "line 1: invalid escape sequence \\q",
    "nt_bad_lang.nt": "line 1: invalid language tag",
    "nt_bad_unicode_escape.nt": "line 1: invalid \\u escape",
    "nt_bare_word.nt": "line 1: expected IRI, blank node, or literal object, found 'b'",
    "nt_blank_predicate.nt": "line 1: expected '<', found '_'",
    "nt_escape_out_of_range.nt": "line 2: escape U+FFFFFFFF is not a Unicode scalar value",
    "nt_langstring_without_tag.nt": "line 1: rdf:langString literal requires a language tag",
    "nt_literal_subject.nt": "line 1: expected IRI or blank node subject, found '\"'",
    "nt_lone_surrogate.nt": "line 1: escape U+D800 is not a Unicode scalar value",
    "nt_missing_dot.nt": "line 1: expected '.', found ''",
    "nt_relative_iri.nt": "line 1: relative IRI <relative> is not allowed",
    "nt_second_line_bad.nt":
        "line 2: expected IRI, blank node, or literal object, found '.'",
    "nt_space_in_iri.nt": "line 1: character ' ' not allowed inside IRI",
    "nt_trailing_garbage.nt": "line 1: trailing content after '.': 'extra'",
    "nt_unterminated_iri.nt": "line 1: character ' ' not allowed inside IRI",
    "nt_unterminated_string.nt": "line 1: unterminated string literal",
}


def test_every_malformed_ntriples_fixture_is_pinned():
    names = {p.name for p in (FIXTURES / "malformed").glob("nt_*.nt")}
    assert names == set(MALFORMED_NT)


@pytest.mark.parametrize(
    "path", sorted((FIXTURES / "malformed").glob("nt_*.nt")), ids=lambda p: p.name
)
def test_malformed_ntriples_error_matches_cursor_only_parse(path):
    with pytest.raises(ParseError) as err:
        parse_ntriples(path.read_bytes())
    assert str(err.value) == MALFORMED_NT[path.name]
    with path.open("rb") as lines, pytest.raises(ParseError) as err:
        parse_ntriples(lines)
    assert str(err.value) == MALFORMED_NT[path.name]


@pytest.mark.parametrize("line, message", [
    ('<http://a> <http://b> "\\u12G4" .', "line 1: invalid \\u escape"),
    ('<http://a> <http://b> "\\U0001F6" .', "line 1: invalid \\U escape"),
    ('<http://a> <http://b> "abc\\', "line 1: invalid escape sequence \\"),
    ('<http://a> <http://b> "\\uD800\\q" .',
     "line 1: escape U+D800 is not a Unicode scalar value"),
    ('<http://a> <http://b> "\\q\\uD800" .', "line 1: invalid escape sequence \\q"),
    ("<http://a/\\x> <http://b> <http://c> .",
     "line 1: invalid escape sequence in IRI <http://a/\\x>"),
    ("<http://a/\\u005C> <http://b> <http://c> .",
     "line 1: invalid escape sequence in IRI <http://a/\\u005C>"),
    ("<rel\\u0041> <http://b> <http://c> .", "line 1: relative IRI <relA> is not allowed"),
    ("<http://a> <http://b> <http://c", "line 1: unterminated IRI (missing '>')"),
    ("_x <http://b> <http://c> .", "line 1: expected ':', found 'x'"),
    ("<http://a>", "line 1: expected whitespace"),
    ("<http://a> .", "line 1: expected '<', found '.'"),
    ('<http://a> <http://b> "x" @en .', "line 1: expected '.', found '@'"),
    ('<http://a> <http://b> "x"@en@fr .', "line 1: expected '.', found '@'"),
    ('<http://a> <http://b> "x"^^<http://d x> .', "line 1: character ' ' not allowed inside IRI"),
    ('<http://a> <http://b> "\\uD800"^^<http://d x> .',
     "line 1: escape U+D800 is not a Unicode scalar value"),
    ('<http://a> <http://b> "x"^^_:d .', "line 1: expected '<', found '_'"),
    ("<http://s/\\u0020> <http://p> <http://o> .",
     "line 1: escape \\u0020 encodes ' ', which is not allowed inside IRI"),
    ('<http://a> <http://b> "x"^^<http://d/\\U0000003C> .',
     "line 1: escape \\U0000003C encodes '<', which is not allowed inside IRI"),
    ("<http://a/\\x\\u0020> <http://b> <http://c> .",
     "line 1: invalid escape sequence in IRI <http://a/\\x\\u0020>"),
    ("<http://e/<> <http://p> <http://o> .", "line 1: character '<' not allowed inside IRI"),
])
def test_diagnostic_wording(line, message):
    with pytest.raises(ParseError) as err:
        parse_ntriples(line)
    assert str(err.value) == message


@pytest.mark.parametrize("char", list(' "{}|^`\t\x00\x1f<'))
@pytest.mark.parametrize("template", ["<http://a/{}x> <http://b> <http://c> .",
                                      "<http://a> <http://b> <http://c/x{}> ."])
def test_forbidden_iri_character(template, char):
    with pytest.raises(ParseError) as err:
        parse_ntriples(template.format(char))
    assert str(err.value) == f"line 1: character {char!r} not allowed inside IRI"


@pytest.mark.parametrize("char", list(' \t\x00\x1f<>"{}|^`'))
@pytest.mark.parametrize("parse", [parse_ntriples, parse_turtle])
def test_escape_of_forbidden_iri_character(parse, char):
    """An escape may not spell a character IRIREF excludes, in either parser."""
    escape = f"\\u{ord(char):04X}"
    with pytest.raises(ParseError) as err:
        parse(f"<http://a/> <http://b> <http://c/{escape}> .")
    assert str(err.value) == (
        f"line 1: escape {escape} encodes {char!r}, which is not allowed inside IRI"
    )


def test_escaped_and_relative_iris_are_decoded_then_checked():
    g = parse_ntriples('<http://a/\\u0041> <http://b> "x"^^<http://d/\\U00000042> .')
    assert str(next(iter(g))) == '<http://a/A> <http://b> "x"^^<http://d/B> .'


def test_equal_iris_share_one_object():
    g = parse_ntriples(
        "<http://a> <http://p> <http://b> .\n<http://b> <http://p> <http://a> .\n"
        '<http://a> <http://p> "\\u0041"^^<http://a> .\n'
    )
    objects = {id(term) for t in g for term in (t.subject, t.predicate, t.object)
               if isinstance(term, Iri)}
    assert len(objects) == 3


# The one-match line path against the token path: forcing every _LINE match
# to miss leaves the token path alone, which must read every text the same
# way, the same triples in order with the same spelling, or the same error
# on the same line.

def _read(text: str, fast: bool):
    with pytest.MonkeyPatch.context() as patch:
        if not fast:
            patch.setattr(ntriples_module, "_LINE", re.compile(r"(?!)"))
        try:
            return [(t, str(t)) for t in parse_ntriples(text)]
        except ParseError as exc:
            return exc.reason, exc.line


def _same_both_ways(text: str) -> None:
    assert _read(text, fast=True) == _read(text, fast=False), text


@given(
    subject=st.one_of(_IRIS, _BLANKS),
    predicate=_IRIS,
    obj=st.one_of(_IRIS, _BLANKS, _LITERALS),
    ws=st.lists(_WS, min_size=3, max_size=3),
    end=_ENDS,
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_line_path_reads_as_the_token_path(subject, predicate, obj, ws, end, data):
    line = f"{subject}{ws[0]}{predicate}{ws[1]}{obj}{ws[2]}{end}"
    # one character dropped makes most lines an error somewhere
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(line) - 1))
        line = line[:cut] + line[cut + 1:]
    # a second line, so that blank labels and line numbers carry over
    _same_both_ways(f"_:a <http://p> _:z .\n{line}\n")


def test_line_path_reads_every_fixture_line_as_the_token_path():
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl"):
        _same_both_ways(serialize_ntriples(Graph(parse_turtle((FIXTURES / name).read_bytes()))))


@pytest.mark.parametrize("line", [
    *_EDGE_LINES,
    "_:a. <http://p> <http://o> .",
    "_:a.b <http://p> <http://o> .",
    "<http://s> <http://p> _:a.",
    "<http://s> <http://p> _:a.b",
    "<http://s> <http://p> _:a.b .",
    '<http://s> <http://p> "x"@en.',
    '<http://s> <http://p> "x"@en-',
    '<http://s> <http://p> "x"@en- .',
    '<http://s> <http://p> "x"^^<rel> .',
    '<http://s> <http://p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .',
    '<http://s> <http://p> "x"@en^^<http://d> .',
    "<http://s> <http://p> <http://o>\t.",
    "<http://s> <http://p> <http://o> . # c",
    "<http://s> <http://p> <http://o> .#c",
    "<http://s> <http://p> <http://o> . #",
    "<a:bA> <a:bA> <a:bA> .",
    '<http://s> <http://p> "a\\"b" .',
    '<http://s> <http://p> "a\\tb\\u00E9" .',
    '<http://s> <http://p> "x"^^<http://d/\\u0041> .',
    "<http://s/\\u0041> <http://p> <http://o> .",
    '<http://s> <http://p> "a\rb" .',
    '<http://s> <http://p> "a\r" .',
    "<http://s><http://p><http://o>.",
    "<http://s> <http://p><http://o> .",
    '<http://s> <http://p>"x".',
    '<http://s> <http://p> "x"<http://o> .',
    "<http://s> <http://p> <http://o> <http://o> .",
    '<http://s> <http://p> "x" "y" .',
])
def test_line_path_edges_read_as_the_token_path(line):
    _same_both_ways(line)
