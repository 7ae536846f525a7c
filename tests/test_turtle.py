import pytest

from rdfcheck.graph import isomorphic
from rdfcheck.ntriples import ParseError, parse_ntriples
from rdfcheck.turtle import parse_turtle

from conftest import FIXTURES, iri, lit, triple


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
    assert isomorphic(parse_turtle(ttl), parse_ntriples(nt.strip()))


def test_fixtures_match_their_ntriples_expansion():
    from rdfcheck.ntriples import serialize_ntriples

    for name in ("thesaurus_clean.ttl", "cube.ttl"):
        g = parse_turtle((FIXTURES / name).read_bytes())
        assert isomorphic(g, parse_ntriples(serialize_ntriples(g)))


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


def test_iri_escapes_decoded():
    g = parse_turtle("<http://e/\\u0041> <http://e/p> <http://e/\\U00000042> .")
    assert list(g) == [triple("http://e/A", "http://e/p", "http://e/B")]
