import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.graph import Graph
from rdfcheck.ntriples import ParseError, parse_ntriples
from rdfcheck.terms import Literal
from rdfcheck import turtle as turtle_module
from rdfcheck.turtle import parse_turtle

from conftest import FIXTURES, iri, lit, triple
from isomorphism import isomorphic


def test_prefix_expansion():
    g = parse_turtle("@prefix ex: <http://e/> . ex:s ex:p ex:o .")
    assert list(g) == [triple("http://e/s", "http://e/p", "http://e/o")]


def test_a_keyword():
    g = parse_turtle("@prefix ex: <http://e/> . ex:s a ex:T .")
    [t] = list(g)
    assert t.predicate.value.endswith("#type")


def test_collection_expands_to_five_triples():
    g = parse_turtle("@prefix ex: <http://e/> . ex:l ex:list ( ex:a ex:b ) .")
    assert len(g) == 5  # list link + 2x first + 2x rest


def test_empty_collection_is_nil():
    g = parse_turtle("@prefix ex: <http://e/> . ex:l ex:list ( ) .")
    [t] = list(g)
    assert t.object.value.endswith("#nil")


def test_semicolon_and_comma_separators():
    g = parse_turtle(
        "@prefix ex: <http://e/> . ex:s ex:p ex:a , ex:b ; ex:q ex:c ."
    )
    assert len(g) == 3


def test_anonymous_bnode_property_list():
    g = parse_turtle("@prefix ex: <http://e/> . ex:s ex:p [ ex:q 5 ] .")
    assert len(g) == 2
    numbers = [t for t in g if t.predicate == iri("http://e/q")]
    assert numbers[0].object == lit("5", "xsd:integer")


def test_numeric_and_boolean_shorthand():
    g = parse_turtle(
        "@prefix ex: <http://e/> . ex:s ex:i 42 ; ex:d 4.5 ; ex:e 1.0e3 ; "
        "ex:t true ; ex:f false ."
    )
    datatypes = {t.predicate.value[-1]: t.object.datatype for t in g}
    assert datatypes["i"].endswith("integer")
    assert datatypes["d"].endswith("decimal")
    assert datatypes["e"].endswith("double")
    assert datatypes["t"].endswith("boolean")


def test_language_and_datatype_literals():
    g = parse_turtle(
        '@prefix ex: <http://e/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
        'ex:s ex:p "x"@en ; ex:q "5"^^xsd:integer .'
    )
    objects = {t.object.lexical: t.object for t in g}
    assert objects["x"].lang == "en"
    assert objects["5"].datatype.endswith("integer")


def test_long_string_literal():
    g = parse_turtle('@prefix ex: <http://e/> . ex:s ex:p """two\nlines""" .')
    [t] = list(g)
    assert t.object.lexical == "two\nlines"


@pytest.mark.parametrize("written, lexical", [
    ('"""say \\"hi\\""""', 'say "hi"'),
    ('"""a""b"c"""', 'a""b"c'),
    ("'''it\\''''", "it'"),
    ('"""back\\\\"""', "back\\"),
])
def test_long_string_ends_at_the_first_unescaped_triple_quote(written, lexical):
    [t] = list(parse_turtle(f"<http://e/s> <http://e/p> {written} ."))
    assert t.object.lexical == lexical


def test_equivalent_to_hand_expanded_ntriples():
    ttl = """
    @prefix ex: <http://e/> .
    ex:s ex:p [ ex:q ( ex:a ex:b ) ] .
    """
    nt = """
    <http://e/s> <http://e/p> _:x .
    _:x <http://e/q> _:l1 .
    _:l1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://e/a> .
    _:l1 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> _:l2 .
    _:l2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#first> <http://e/b> .
    _:l2 <http://www.w3.org/1999/02/22-rdf-syntax-ns#rest> <http://www.w3.org/1999/02/22-rdf-syntax-ns#nil> .
    """
    assert isomorphic(Graph(parse_turtle(ttl)), Graph(parse_ntriples(nt.strip())))


def test_fixtures_match_their_ntriples_expansion():
    from rdfcheck.ntriples import serialize_ntriples

    for name in ("thesaurus_clean.ttl", "cube.ttl"):
        g = Graph(parse_turtle((FIXTURES / name).read_bytes()))
        assert isomorphic(g, Graph(parse_ntriples(serialize_ntriples(g))))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("@base <http://x/> .", "unsupported construct"),
        ("PREFIX ex: <http://e/>\nex:s ex:p ex:o .", "unsupported construct"),
        ("<s> <http://p> <http://o> .", "relative IRI"),
        ("ex:s ex:p ex:o .", "undeclared prefix"),
        ('@prefix ex: <http://e/> . ex:s ex:p "x .', "unterminated"),
    ],
)
def test_unsupported_constructs_are_hard_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_turtle("@prefix ex: <http://e/> .\nex:s ex:p ex:o .\nex:s ex:p @@ .")
    assert err.value.line == 3


def test_invalid_utf8_names_its_line():
    with pytest.raises(ParseError) as err:
        parse_turtle(b'@prefix ex: <http://e/> .\nex:s ex:p "a" .\nex:s ex:p "\xff" .\n')
    assert err.value.line == 3
    assert str(err.value).startswith("line 3: input is not valid UTF-8: ")


@pytest.mark.parametrize("text", [
    '@prefix ex: <http://e/> .\nex:s ex:p "\\UFFFFFFFF" .',
    '@prefix ex: <http://e/> .\nex:s ex:p "\\uD800" .',
    "@prefix ex: <http://e/> .\nex:s ex:p '\\U00110000' .",
    '@prefix ex: <http://e/> .\nex:s ex:p """\\uDBFF""" .',
    '@prefix ex: <http://e/> .\nex:s ex:p <http://e/\\UFFFFFFFF> .',
    '@prefix ex: <http://e/> .\nex:s ex:p <http://e/\\uD800> .',
])
def test_escape_outside_unicode_scalar_values_rejected(text):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value).startswith("line 2: escape U+")
    assert "not a Unicode scalar value" in str(err.value)


def test_equal_iris_share_one_object():
    g = parse_turtle(
        "@prefix ex: <http://e/> .\nex:a ex:p <http://e/b> .\n<http://e/b> ex:p ex:a ."
    )
    objects = {id(term) for t in g for term in (t.subject, t.predicate, t.object)}
    assert len(objects) == 3


@pytest.mark.parametrize("prefix", ["été", "èx", "aé", "Ωmega·1", "e\u0301t", "e.x", "é.x"])
def test_non_ascii_prefix_names(prefix):
    g = parse_turtle(f"@prefix {prefix}: <http://e/> . {prefix}:s {prefix}:p {prefix}:o .")
    assert [str(t) for t in g] == ["<http://e/s> <http://e/p> <http://e/o> ."]


@pytest.mark.parametrize("text, message", [
    ("@prefix e: <http://e/> .\n@prefix a×: <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    ("@prefix e: <http://e/> .\n@prefix ·a: <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    ("@prefix e: <http://e/> .\n@prefix \u0301a: <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    ("@prefix e: <http://e/> .\ne:s e:p a×:o .", "line 2: undeclared prefix 'a×':"),
    ("@prefix e: <http://e/> .\n@prefix ex.: <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    ("@prefix e: <http://e/> .\n@prefix é.: <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    ("@prefix e: <http://e/> .\ne:s e:p ex.:o .", "line 2: undeclared prefix 'ex.':"),
])
def test_prefix_names_outside_pn_prefix_rejected(text, message):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value) == message


def test_iri_escapes_decoded():
    g = parse_turtle("<http://e/\\u0041> <http://e/p> <http://e/\\U00000042> .")
    assert list(g) == [triple("http://e/A", "http://e/p", "http://e/B")]


# Every Turtle diagnostic, exactly as the parser words it. An escape error
# inside a long string names the line of the escape.
MALFORMED_TTL = {
    "ttl_bad_escape.ttl": "line 2: invalid escape sequence \\y",
    "ttl_base_directive.ttl":
        "line 1: unsupported construct: @base (relative IRIs are not supported)",
    "ttl_dangling_semicolon_pred.ttl": "line 2: expected predicate, found '4'",
    "ttl_deep_bnode_nesting.ttl":
        "line 131: '[' and '(' nested deeper than 128 levels",
    "ttl_deep_collection_nesting.ttl":
        "line 15: '[' and '(' nested deeper than 128 levels",
    "ttl_escape_out_of_range.ttl":
        "line 2: escape U+110000 is not a Unicode scalar value",
    "ttl_langstring_without_tag.ttl":
        "line 5: rdf:langString literal requires a language tag",
    "ttl_literal_subject.ttl": "line 2: expected subject, found '\"'",
    "ttl_long_string_bad_escape.ttl": "line 4: invalid escape sequence \\q",
    "ttl_missing_dot.ttl": "line 3: expected '.', found 'e'",
    "ttl_relative_iri.ttl":
        "line 1: unsupported construct: relative IRI <s> (no @base support)",
    "ttl_sparql_prefix.ttl":
        "line 1: unsupported construct: SPARQL-style PREFIX (use @prefix)",
    "ttl_unclosed_bnode.ttl": "line 2: expected ']', found '.'",
    "ttl_undeclared_prefix.ttl": "line 1: undeclared prefix 'ex':",
    "ttl_unterminated_collection.ttl": "line 2: expected object, found '.'",
    "ttl_unterminated_string.ttl": "line 2: unterminated string literal",
}


def test_every_malformed_turtle_fixture_is_pinned():
    names = {p.name for p in (FIXTURES / "malformed").glob("ttl_*.ttl")}
    assert names == set(MALFORMED_TTL)


@pytest.mark.parametrize("name", sorted(MALFORMED_TTL))
def test_malformed_turtle_fixture_diagnostic(name):
    with pytest.raises(ParseError) as err:
        parse_turtle((FIXTURES / "malformed" / name).read_bytes())
    assert str(err.value) == MALFORMED_TTL[name]


_P = "@prefix ex: <http://e/> .\n"


@pytest.mark.parametrize("text, message", [
    (_P + 'ex:s ex:p "abc\\', "line 2: invalid \\ escape"),
    (_P + 'ex:s ex:p "abc\\\nx" .', "line 2: invalid \\ escape"),
    # a long string's escape errors name the line of the escape
    (_P + 'ex:s ex:p """abc\\\r\nx""" .', "line 2: invalid \\ escape"),
    (_P + 'ex:s ex:p """abc\\\nx""" .', "line 2: invalid \\ escape"),
    (_P + "ex:s ex:p '''a\r\nb\\\r\nc''' .", "line 3: invalid \\ escape"),
    (_P + 'ex:s ex:p """a\\q\nb\nc""" .', "line 2: invalid escape sequence \\q"),
    (_P + 'ex:s ex:p """a\nb\\u12\nc""" .', "line 3: invalid \\u escape"),
    (_P + 'ex:s ex:p """a\n\n\\uDC00\nc""" .',
     "line 4: escape U+DC00 is not a Unicode scalar value"),
    (_P + 'ex:s ex:p "\\u12" .', "line 2: invalid \\u escape"),
    (_P + 'ex:s ex:p "\\uD800 \\q" .',
     "line 2: escape U+D800 is not a Unicode scalar value"),
    (_P + 'ex:s ex:p "\\u', "line 2: invalid \\u escape"),
    (_P + 'ex:s ex:p """abc', "line 2: unterminated long string literal"),
    (_P + 'ex:s ex:p ""' + '"', "line 2: unterminated long string literal"),
    (_P + 'ex:s ex:p """a\nb\\""" .', "line 2: unterminated long string literal"),
    (_P + "ex:s ex:p '''a\n\\U00110000''' .",
     "line 3: escape U+110000 is not a Unicode scalar value"),
    (_P + 'ex:s ex:p "x" , "y\n', "line 2: unterminated string literal"),
    (_P + 'ex:s ex:p "a\\q b\n', "line 2: invalid escape sequence \\q"),
    (_P + 'ex:s ex:p "\\U0011FFFF\\',
     "line 2: escape U+11FFFF is not a Unicode scalar value"),
    (_P + "ex:s ex:p 'a\\'b\n", "line 2: unterminated string literal"),
    (_P + 'ex:s ex:p "a" ; ex:q\n\n  "b\\z" .',
     "line 4: invalid escape sequence \\z"),
    (_P + "ex:s ex:p ex:o .5", "line 2: expected subject, found '5'"),
    (_P + "ex:s ex:p .5 , .", "line 2: expected object, found '.'"),
    (_P + 'ex:s ex:p "x"^^', "line 2: expected prefixed name"),
    (_P + 'ex:s ex:p "x"^^_:b .', "line 2: expected prefixed name"),
    (_P + 'ex:s ex:p "x"^ .', "line 2: expected '.', found '^'"),
    (_P + 'ex:s ex:p "x"@ .', "line 2: expected '.', found '@'"),
    (_P + 'ex:s ex:p "x"@en- .', "line 2: expected '.', found '-'"),
    (_P + "ex:s ex:p <http://e/a b> .", "line 2: unterminated or malformed IRI"),
    (_P + "ex:s ex:p <http://e/\\x> .", "line 2: unterminated or malformed IRI"),
    (_P + "ex:s ex:p ex:o <bad", "line 2: expected '.', found '<'"),
    (_P + "ex:s ex:p <http://e/\\u0020x> .",
     "line 2: escape \\u0020 encodes ' ', which is not allowed inside IRI"),
    (_P + "ex:s ex:p\n <http://e/\\u003E> .",
     "line 3: escape \\u003E encodes '>', which is not allowed inside IRI"),
    (_P + 'ex:s ex:p "x"^^<http://e/\\U0000007C> .',
     "line 2: escape \\U0000007C encodes '|', which is not allowed inside IRI"),
    (_P + "ex:s ex:p <http://e/\\u005C> .",
     "line 2: invalid escape sequence in IRI <http://e/\\u005C>"),
    (_P + "@prefix ex:foo <http://x/> .", "line 2: expected '<', found 'f'"),
    (_P + "@prefix _:x <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    (_P + "@prefix ex : <http://x/> .",
     "line 2: expected prefix name in @prefix directive"),
    (_P + "@prefix ex: <http://x/>", "line 2: expected '.', found 'end of input'"),
    (_P + "ex:s ex:p ex:o .\n@prefix",
     "line 3: expected prefix name in @prefix directive"),
    (_P + "@prefixx ex: <http://x/> .", "line 2: expected subject, found '@'"),
    (_P + "BASE <http://x/>",
     "line 2: unsupported construct: @base (relative IRIs are not supported)"),
    (_P + "ex:s ex:p _:-x .", "line 2: invalid blank node label"),
    (_P + "ex:s _:p ex:o .", "line 2: expected predicate, found '_'"),
    (_P + "ex:s true ex:o .", "line 2: expected predicate, found 't'"),
    (_P + "ex:s ex:p a .", "line 2: expected object, found 'a'"),
    (_P + "ex:s ex:p +", "line 2: expected object, found '+'"),
    (_P + "ex:s ex:p ex:o , .", "line 2: expected object, found '.'"),
    (_P + "ex:s ex:p ( ex:a", "line 2: unterminated collection"),
    (_P + "ex:s ex:p ex:o ;", "line 2: expected '.', found 'end of input'"),
    (_P + "ex:s ex:p", "line 2: unexpected end of input while reading object"),
    (_P + "ex:s", "line 2: unexpected end of input"),
    (_P + "ex:s ex:p ex:a× .", "line 2: expected '.', found '×'"),
    (_P + "ex:s ex:p ex:·a .", "line 2: expected '.', found '·'"),
    (_P + "ex:s .", "line 2: expected predicate, found '.'"),
    (_P + "<http://e/s> .", "line 2: expected predicate, found '.'"),
    (_P + "_:s .", "line 2: expected predicate, found '.'"),
    (_P + "() .", "line 2: expected predicate, found '.'"),
    (_P + "( ex:a ) .", "line 2: expected predicate, found '.'"),
    (_P + "[] .", "line 2: expected predicate, found '.'"),
    (_P + "[ ] .", "line 2: expected predicate, found '.'"),
    (_P + 'ex:s ex:p "x" @ en .', "line 2: expected '.', found '@'"),
    (_P + 'ex:s ex:p "x" ^ ^ex:t .', "line 2: expected '.', found '^'"),
    (_P + 'ex:s ex:p "x" ^^ .', "line 2: expected prefixed name"),
    (_P + 'ex:s ex:p """a\\q"""\n@en .', "line 2: invalid escape sequence \\q"),
    (_P + "ex:s ex:p 1e .", "line 2: expected '.', found 'e'"),
    (_P + 'ex:s ex:p "x"\x0b .', "line 2: expected '.', found '\\x0b'"),
    ("\ufeff" + _P, "line 1: expected subject, found '\\ufeff'"),
    (_P + "# a comment\r\nex:s ex:p ex:o . # another\n\nex:s ex:p ex:o ex:o .",
     "line 5: expected '.', found 'e'"),
])
def test_diagnostic_wording_and_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "@prefix ex: <http://e/> . ex:a ex:b ex:c ;; ex:d ex:e .",
    "@prefix ex: <http://e/> . ex:a ex:b ex:c ; ; ex:d ex:e ;;; .",
    "@prefix ex: <http://e/> . ex:a ex:b ex:c ;\n# between\n; ex:d ex:e .",
    "@prefix ex: <http://e/> . ex:a ex:b ex:c ; ex:d ex:e ;; .",
])
def test_repeated_semicolons_accepted(text):
    assert set(parse_turtle(text)) == {
        triple("http://e/a", "http://e/b", "http://e/c"),
        triple("http://e/a", "http://e/d", "http://e/e"),
    }


def test_repeated_semicolons_inside_blank_node_list():
    g = parse_turtle("@prefix ex: <http://e/> . ex:s ex:p [ ex:q ex:o ;; ex:r ex:o ;; ] .")
    assert sorted(t.predicate.value for t in g) == ["http://e/p", "http://e/q", "http://e/r"]


def test_keyword_prefixes_are_prefixed_names():
    g = parse_turtle(
        "@prefix a: <http://a/> . @prefix true: <http://t/> . @prefix false: <http://f/> .\n"
        "@prefix : <http://e/> .\n"
        ":s a:p true:x ; a :T ; :q false:y , true , false ."
    )
    assert set(g) == {
        triple("http://e/s", "http://a/p", "http://t/x"),
        triple("http://e/s", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "http://e/T"),
        triple("http://e/s", "http://e/q", "http://f/y"),
        triple("http://e/s", "http://e/q", lit("true", "xsd:boolean")),
        triple("http://e/s", "http://e/q", lit("false", "xsd:boolean")),
    }


@pytest.mark.parametrize("obj", [
    '"x" @en', '"x"\t@en', '"x"\n@en', '"x" # note\n @en', '"""x"""\n@en',
])
def test_space_and_comments_before_a_language_tag(obj):
    assert list(parse_turtle(f"@prefix ex: <http://e/> . ex:s ex:p {obj} .")) == [
        triple("http://e/s", "http://e/p", lit("x", lang="en"))
    ]


@pytest.mark.parametrize("obj", [
    '"5" ^^xsd:integer', '"5"^^ xsd:integer', '"5" ^^ xsd:integer',
    '"5"\n# note\n^^\n<http://www.w3.org/2001/XMLSchema#integer>',
])
def test_space_and_comments_around_a_datatype_marker(obj):
    text = f"@prefix ex: <http://e/> . @prefix xsd: <{_XSD}> . ex:s ex:p {obj} ."
    assert list(parse_turtle(text)) == [
        triple("http://e/s", "http://e/p", lit("5", "xsd:integer"))
    ]


def _raise_timeout(signum, frame):
    raise TimeoutError("parse did not finish in time")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("gap", [" " * 40 + " ", " #" + " " * 40 + "\n", "\n \t" * 40],
                         ids=["spaces", "comment", "lines"])
@pytest.mark.parametrize("rest", [".", "; ex:q ex:o .", ", ex:o .", "] ."],
                         ids=["dot", "semicolon", "comma", "bracket"])
def test_long_gap_after_a_string_parses_in_linear_time(gap, rest):
    # the gap must be read once, not re-split, when no '@' or '^^' follows
    subject = "ex:s ex:r [" if rest == "] ." else "ex:s"
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(5)
    try:
        g = parse_turtle(f'@prefix ex: <http://e/> . {subject} ex:p "x"{gap}{rest}')
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert lit("x") in {t.object for t in g}


def test_only_a_property_list_subject_may_stand_alone():
    g = parse_turtle("@prefix ex: <http://e/> . [ ex:p ex:o ] . [ ex:q [ ex:r ex:o ] ] .")
    assert sorted(t.predicate.value for t in g) == ["http://e/p", "http://e/q", "http://e/r"]


def test_undeclared_keyword_prefix_is_reported_as_a_prefix():
    with pytest.raises(ParseError) as err:
        parse_turtle("@prefix ex: <http://e/> .\nex:s a:p ex:o .")
    assert str(err.value) == "line 2: undeclared prefix 'a':"


@pytest.mark.parametrize("local, value", [
    ("%41", "%41"),
    ("a%2fb%C3%A9", "a%2fb%C3%A9"),
    ("a\\~b", "a~b"),
    ("\\_x\\-\\!\\$\\&\\'\\(\\)\\*\\+\\,\\;\\=\\/\\?\\#\\@\\%", "_x-!$&'()*+,;=/?#@%"),
    ("a\\.", "a."),
    ("a\\..b", "a..b"),
    # PN_LOCAL also holds ':' and non-ASCII PN_CHARS
    ("a:b", "a:b"), (":", ":"), (":a", ":a"), ("a:", "a:"), ("a::b", "a::b"),
    ("été", "été"), ("Ωmega", "Ωmega"), ("a·b", "a·b"), ("a\u0301", "a\u0301"),
    ("\U00010000x", "\U00010000x"), ("a.:b", "a.:b"), ("été.c", "été.c"), ("é%41", "é%41"),
])
def test_local_name_escapes(local, value):
    g = parse_turtle(f"@prefix ex: <http://e/> . ex:s ex:p ex:{local}.")
    assert list(g) == [triple("http://e/s", "http://e/p", "http://e/" + value)]


@pytest.mark.parametrize("text", [
    "@prefix ex: <http://e/> .\nex:s ex:p ex:a%4 .",
    "@prefix ex: <http://e/> .\nex:s ex:p ex:a\\x .",
])
def test_malformed_local_name_escapes_rejected(text):
    with pytest.raises(ParseError) as err:
        parse_turtle(text)
    assert str(err.value).startswith("line 2: expected '.', found ")


def _nested_bnodes(depth):
    return "@prefix ex: <http://e/> .\nex:s ex:p " + "[ ex:p " * depth + "ex:o" + " ]" * depth + " ."


def _nested_collections(depth):
    return "@prefix ex: <http://e/> .\nex:s ex:p " + "( " * depth + "ex:o" + " )" * depth + " ."


def _nested_mixed(depth):
    opening = "".join("[ ex:p " if i % 2 else "( " for i in range(depth))
    closing = "".join(" ]" if i % 2 else " )" for i in reversed(range(depth)))
    return "@prefix ex: <http://e/> .\nex:s ex:p " + opening + "ex:o" + closing + " ."


@pytest.mark.parametrize("build", [_nested_bnodes, _nested_collections, _nested_mixed])
def test_nesting_at_the_bound_parses(build):
    from rdfcheck.turtle import MAX_NESTING

    assert len(parse_turtle(build(MAX_NESTING))) > MAX_NESTING


def test_nesting_bound_counts_open_brackets_only():
    from rdfcheck.turtle import MAX_NESTING

    siblings = " , ".join(["[ ex:q ( ex:o ) ]", "( [] )"] * MAX_NESTING)
    g = parse_turtle(f"@prefix ex: <http://e/> .\nex:s ex:p {siblings} .")
    assert len(g) == 7 * MAX_NESTING


@pytest.mark.parametrize("build", [_nested_bnodes, _nested_collections, _nested_mixed])
def test_nesting_past_the_bound_is_a_parse_error(build):
    from rdfcheck.turtle import MAX_NESTING

    with pytest.raises(ParseError) as err:
        parse_turtle(build(MAX_NESTING + 1))
    assert str(err.value) == f"line 2: '[' and '(' nested deeper than {MAX_NESTING} levels"


# Round trip: random triples written as Turtle, in as many of its spellings
# as the parser accepts, against the same triples written as N-Triples.
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_NAMESPACES = {
    "ex": "http://e/", "a": "http://a.example/ns#", "true": "urn:t:", "": "http://empty/",
}
# Pieces of a local name: (Turtle spelling, characters in the IRI).
_NAME_START = [("a", "a"), ("Z9", "Z9"), ("_", "_"), ("7", "7"), ("%41", "%41"),
               ("%c3%A9", "%c3%A9"), ("\\~", "~"), ("\\.", "."), ("\\-", "-"),
               (":", ":"), ("été", "été"), ("Ω", "Ω")]
_NAME_REST = _NAME_START + [(".", "."), ("-", "-"), ("·", "·")] + [
    ("\\" + c, c) for c in "_!$&'()*+,;=/?#@%"
]
_SPACE = [" ", "  ", "\t", "\n", "\r\n", " # note\n", "\n# a comment line\r\n"]
_STRING_ESCAPES_OUT = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
_IRI = st.tuples(
    st.sampled_from([None, *_NAMESPACES]), st.sampled_from(_NAME_START),
    st.lists(st.sampled_from(_NAME_REST), max_size=4), st.booleans(),
)
_NUMBERS = [("42", "integer"), ("-7", "integer"), ("+0", "integer"), ("4.5", "decimal"),
            (".5", "decimal"), ("-0.25", "decimal"), ("1.0e3", "double"), ("2E-2", "double"),
            (".5e1", "double"), ("true", "boolean"), ("false", "boolean")]
_LITERAL = st.one_of(
    st.tuples(st.just("shorthand"), st.sampled_from(_NUMBERS)),
    st.tuples(
        st.sampled_from(["plain", "lang", "typed"]), st.text(max_size=8),
        st.sampled_from(['"', "'", '"""', "'''"]), st.booleans(),
        st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True),
    ),
)


class _TurtleWriter:
    def __init__(self, draw):
        self.draw = draw
        self.nt: list[str] = []
        self.anon = 0
        # Trivia comes round from one short drawn list: fewer draws, so more
        # examples in the same time.
        self.spaces = draw(st.lists(st.sampled_from(["", *_SPACE]), min_size=1, max_size=5))
        self.spaced = 0

    def space(self, optional=False) -> str:
        self.spaced += 1
        space = self.spaces[self.spaced % len(self.spaces)]
        return space if space or optional else " "

    def fresh(self) -> str:
        self.anon += 1
        return f"_:w{self.anon}"

    def iri(self) -> tuple[str, str]:
        prefix, first, rest, escape = self.draw(_IRI)
        pieces = [first, *rest]
        if pieces[-1][0] == ".":
            pieces.append(("x", "x"))
        namespace = _NAMESPACES["ex" if prefix is None else prefix]
        value = namespace + "".join(v for _, v in pieces)
        if prefix is not None:
            return f"{prefix}:" + "".join(t for t, _ in pieces), f"<{value}>"
        written = value
        if escape:
            written = written.replace("e", "\\u0065", 1).replace("t", "\\U00000074", 1)
        return f"<{written}>", f"<{value}>"

    @staticmethod
    def string(lexical: str, quote: str, escape_all: bool) -> str:
        out = []
        for ch in lexical:
            if ch == "\\" or ch == quote[0]:
                out.append("\\" + ch)
            elif len(quote) == 1 and ch in _STRING_ESCAPES_OUT:
                out.append(_STRING_ESCAPES_OUT[ch])
            elif ord(ch) > 0x7E and escape_all:
                out.append(f"\\u{ord(ch):04X}" if ord(ch) <= 0xFFFF else f"\\U{ord(ch):08X}")
            else:
                out.append(ch)
        return quote + "".join(out) + quote

    def literal(self) -> tuple[str, str]:
        kind, *drawn = self.draw(_LITERAL)
        if kind == "shorthand":
            lexical, datatype = drawn[0]
            return lexical, str(Literal(lexical, datatype=_XSD + datatype))
        lexical, quote, escape_all, tag = drawn
        written = self.string(lexical, quote, escape_all)
        if kind == "lang":
            return f"{written}{self.space(True)}@{tag}", str(Literal(lexical, lang=tag))
        if kind == "typed":
            datatype, nt_datatype = self.iri()
            marker = self.space(True) + "^^" + self.space(True)
            return written + marker + datatype, str(Literal(lexical, datatype=nt_datatype[1:-1]))
        return written, str(Literal(lexical))

    def node(self, depth: int, subject: bool = False, kind: str = "") -> tuple[str, str]:
        kinds = ["iri", "label", "anon"] + (["list", "bnode"] if depth < 3 else [])
        if not subject:
            kinds += ["literal", "literal"]
        kind = kind or self.draw(st.sampled_from(kinds))
        if kind == "iri":
            return self.iri()
        if kind == "literal":
            return self.literal()
        if kind == "label":
            label = f"_:b{self.draw(st.integers(0, 3))}"
            return label, label
        if kind == "anon":
            return "[" + self.space(True) + "]", self.fresh()
        if kind == "bnode":
            node = self.fresh()
            body = self.predicate_objects(node, depth + 1)
            return "[" + self.space(True) + body + self.space(True) + "]", node
        members = [self.node(depth + 1) for _ in range(self.draw(st.integers(0, 3)))]
        if not members:
            return "(" + self.space(True) + ")", f"<{_RDF}nil>"
        nodes = [self.fresh() for _ in members]
        for i, (_, member) in enumerate(members):
            rest = nodes[i + 1] if i + 1 < len(nodes) else f"<{_RDF}nil>"
            self.nt.append(f"{nodes[i]} <{_RDF}first> {member} .")
            self.nt.append(f"{nodes[i]} <{_RDF}rest> {rest} .")
        inner = self.space().join(text for text, _ in members)
        return "(" + self.space(True) + inner + self.space(True) + ")", nodes[0]

    def predicate_objects(self, subject: str, depth: int) -> str:
        parts = []
        for _ in range(self.draw(st.integers(1, 3))):
            if self.draw(st.integers(0, 4)) == 0:
                verb, predicate = "a", f"<{_RDF}type>"
            else:
                verb, predicate = self.iri()
            objects = []
            for _ in range(self.draw(st.integers(1, 3))):
                text, obj = self.node(depth)
                self.nt.append(f"{subject} {predicate} {obj} .")
                objects.append(text)
            comma = self.space(True) + "," + self.space(True)
            parts.append(verb + self.space() + comma.join(objects))
        separator = self.space(True) + self.draw(st.sampled_from([";", ";;", "; ;"])) + self.space(True)
        trailing = self.draw(st.sampled_from(["", ";", " ;; "]))
        return separator.join(parts) + trailing

    def document(self) -> str:
        out = [f"@prefix {p}: <{ns}> ." + self.space() for p, ns in _NAMESPACES.items()]
        for _ in range(self.draw(st.integers(1, 4))):
            if self.draw(st.integers(0, 4)) == 0:
                # a property list standing alone as the statement
                subject_text, _ = self.node(0, kind="bnode")
                out.append(subject_text + self.space(True) + "." + self.space())
                continue
            subject_text, subject = self.node(0, subject=True)
            body = self.predicate_objects(subject, 0)
            out.append(subject_text + self.space() + body + self.space(True) + "." + self.space())
        return "".join(out)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_turtle_round_trips_against_ntriples(data):
    writer = _TurtleWriter(data.draw)
    ttl = writer.document()
    nt = "\n".join(writer.nt)
    assert isomorphic(Graph(parse_turtle(ttl)), Graph(parse_ntriples(nt))), (ttl, nt)


# The fused path against the token path: forcing every fused match to miss
# leaves the token path alone, which must read every text the same way.

def _outcome(text: str, fused: bool):
    with pytest.MonkeyPatch.context() as patch:
        if not fused:
            patch.setattr(turtle_module, "_FUSED", re.compile(r"(?!)"))
        try:
            return parse_turtle(text)
        except ParseError as exc:
            return exc.reason, exc.line


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fused_path_reads_as_the_token_path(data):
    text = _TurtleWriter(data.draw).document()
    # one character dropped makes most documents an error somewhere
    if data.draw(st.booleans()):
        cut = data.draw(st.integers(0, len(text) - 1))
        text = text[:cut] + text[cut + 1:]
    assert _outcome(text, fused=True) == _outcome(text, fused=False), text


_DECLARED = (
    "@prefix ex: <http://e/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
)


@pytest.mark.parametrize("body", [
    "ex:s ex:p ex:a.",
    "ex:s ex:p ex:o .5",
    'ex:s ex:p "x" @en .',
    'ex:s ex:p "x"^^ xsd:int .',
    'ex:s ex:p "x"^^xsd:int.',
    'ex:s ex:p "x"^^rdf:langString .',
    'ex:s ex:p "x"@en-GB , "y"@de ; a ex:T .',
    "ex:s ex:p <rel> .",
    "ex:s ex:p <http://e/o>.",
    "ex:s ex:p un:x .",
    "ex:s un:p ex:x .",
    "un:s ex:p ex:x .",
    "ex:s ex:p é:x .",
    "ex:s ex:p ex:aé .",
    "ex:s ex:p ex:a.é .",
    "ex:s ex:p ex:a..é .",
    "ex:s ex:p ex:a.b\\! .",
    "ex:s ex:p ex:a.%41 .",
    "ex:s ex:p ex:o ;; ex:q ex:r .",
    "ex:s ex:p ex:o ; ; .",
    "ex:s ex:p [ ex:q ex:r ; ] .",
    "ex:s ex:p [ ex:q ex:r . ] .",
    "ex:s ex:p ex:o # a comment\n ; ex:q ex:r .",
    "ex:s ex:p ex:o , # a comment\n ex:r .",
    "ex:s a:p ex:o .",
    "@prefix a: <http://a/> . ex:s a:p ex:o . ex:s a a:T .",
    "ex:s ex:p ex:o , ex:a ex:b .",
    "ex:s ex:p ex:o ; ex:q .",
    "ex:s ex:o .",
    "ex:s ex:p ex:o",
    "ex:s ex:p ex:o ;",
    'ex:s ex:p "a\\"b" , """c""" , "" .',
])
def test_fused_path_edges_read_as_the_token_path(body):
    text = _DECLARED + body
    assert _outcome(text, fused=True) == _outcome(text, fused=False)
