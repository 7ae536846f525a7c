"""Parsed terms are the public constructors' terms.

The parsers build each ``Triple`` and ``Literal`` without running the
dataclass ``__init__``, and share one ``Literal`` per spelling (lexical
form, datatype, raw language tag) within one parse. Generated N-Triples and
Turtle documents check that every parsed term equals its twin built with
``Triple(...)`` and ``Literal(...)``, and that it hashes, prints, pickles,
copies, replaces and refuses assignment the same way.
"""

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.namespaces import RDF_TYPE, XSD_BOOLEAN, XSD_INTEGER, XSD_STRING
from rdfcheck.ntriples import parse_ntriples
from rdfcheck.terms import BlankNode, Iri, Literal, Triple, escape_literal
from rdfcheck.turtle import parse_turtle

_NS = "http://e/"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_SUBJECTS = [("iri", _NS + "a"), ("iri", _NS + "b"), ("blank", "x"), ("blank", "y")]
_PREDICATES = [("iri", _NS + "p"), ("iri", _NS + "q"), ("iri", RDF_TYPE)]
# A lexical form may need escapes, which send a line or a pair down the
# parsers' token paths; without them it takes the one-match paths.
_LEXICALS = st.sampled_from(["x", "1", "true", "", "a b"]) | st.text(
    alphabet='ax1 "\\\n\té', max_size=4)
_TAGS = ["en", "EN", "en-GB", "en-gb", "de"]
_DATATYPES = [None, XSD_STRING, XSD_INTEGER, XSD_BOOLEAN, _NS + "dt"]


@st.composite
def _literals(draw):
    lexical = draw(_LEXICALS)
    if draw(st.booleans()):
        return ("literal", lexical, None, draw(st.sampled_from(_TAGS)))
    return ("literal", lexical, draw(st.sampled_from(_DATATYPES)), None)


_OBJECTS = st.sampled_from(_SUBJECTS) | _literals()


@st.composite
def _documents(draw):
    """Rows of term specs; equal literals are drawn often, from a small
    pool, so that spellings repeat."""
    pool = draw(st.lists(_literals(), min_size=1, max_size=6))
    objects = _OBJECTS | st.sampled_from(pool)
    return draw(st.lists(
        st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_PREDICATES), objects),
        min_size=1, max_size=14,
    ))


def _twins(rows):
    """The triples the rows state, built with the public constructors; blank
    labels are renamed in order of first appearance, as a parse renames
    them."""
    blanks = {}

    def term(spec):
        if spec[0] == "iri":
            return Iri(spec[1])
        if spec[0] == "blank":
            return blanks.setdefault(spec[1], BlankNode(f"b{len(blanks)}"))
        _, lexical, datatype, tag = spec
        if tag is not None:
            return Literal(lexical, lang=tag)
        return Literal(lexical) if datatype is None else Literal(lexical, datatype=datatype)

    return [Triple(term(s), term(p), term(o)) for s, p, o in rows]


def _nt_term(spec):
    if spec[0] == "iri":
        return f"<{spec[1]}>"
    if spec[0] == "blank":
        return f"_:{spec[1]}"
    _, lexical, datatype, tag = spec
    text = f'"{escape_literal(lexical)}"'
    if tag is not None:
        return f"{text}@{tag}"
    return text if datatype is None else f"{text}^^<{datatype}>"


def _ntriples(rows):
    return "".join(" ".join(map(_nt_term, row)) + " .\n" for row in rows)


def _ttl_term(spec, rnd, position):
    """``spec`` in one of the Turtle spellings it has, picked by ``rnd``."""
    if spec[0] == "iri":
        if position == 1 and spec[1] == RDF_TYPE and rnd.random() < 0.5:
            return "a"
        if spec[1].startswith(_NS) and rnd.random() < 0.7:
            return "e:" + spec[1][len(_NS):]
        if spec[1] == RDF_TYPE:
            return "rdf:type"
        return f"<{spec[1]}>"
    if spec[0] == "blank":
        return f"_:{spec[1]}"
    _, lexical, datatype, tag = spec
    if datatype == XSD_INTEGER and lexical.isascii() and lexical.isdigit() and rnd.random() < 0.5:
        return lexical
    if datatype == XSD_BOOLEAN and lexical in ("true", "false") and rnd.random() < 0.5:
        return lexical
    quote = rnd.choice(['"', "'", '"""'])
    text = quote + escape_literal(lexical) + quote
    if tag is not None:
        return f"{text}@{tag}"
    if datatype is None:
        return text
    if datatype.startswith(_XSD) and rnd.random() < 0.7:
        return f"{text}^^xsd:{datatype[len(_XSD):]}"
    return f"{text}^^<{datatype}>"


def _turtle(rows, rnd):
    """The rows as Turtle, in document order: a row that repeats the last
    subject follows a ';', and one that repeats its predicate too a ','."""
    out = ["@prefix e: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
           "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"]
    last = None
    for s, p, o in rows:
        obj = _ttl_term(o, rnd, 2)
        if last and last[0] == s and last[1] == p:
            out.append(f" ,\n    {obj}")
        elif last and last[0] == s:
            out.append(f" ;\n  {_ttl_term(p, rnd, 1)} {obj}")
        else:
            if last:
                out.append(" .\n")
            out.append(f"{_ttl_term(s, rnd, 0)} {_ttl_term(p, rnd, 1)} {obj}")
        last = (s, p)
    out.append(" .\n")
    return "".join(out)


def _assert_same_value(a, b):
    """``a`` and ``b`` are the same term or triple to every reader."""
    assert type(a) is type(b)
    assert a == b and b == a and hash(a) == hash(b)
    assert repr(a) == repr(b) and str(a) == str(b)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(a, protocol))
        assert type(clone) is type(b) and clone == b and repr(clone) == repr(b)
    for clone in (copy.copy(a), copy.deepcopy(a), dataclasses.replace(a)):
        assert type(clone) is type(b) and clone == b and repr(clone) == repr(b)
    for field in dataclasses.fields(a):
        with pytest.raises(FrozenInstanceError):
            setattr(a, field.name, getattr(b, field.name))
        with pytest.raises(FrozenInstanceError):
            delattr(a, field.name)


def _assert_twins(parsed, twins):
    assert len(parsed) == len(twins)
    for t, u in zip(parsed, twins):
        _assert_same_value(t, u)
        if isinstance(u.object, Literal):
            _assert_same_value(t.object, u.object)
            other = dataclasses.replace(u.object, lexical=u.object.lexical + "z")
            assert dataclasses.replace(t.object, lexical=u.object.lexical + "z") == other
        else:
            assert t.object is u.object


def _assert_one_object_per_spelling(parsed):
    """Within one parse, literals spelled alike are one object, and literals
    spelled apart are not."""
    by_spelling = {}
    for t in parsed:
        o = t.object
        if isinstance(o, Literal):
            by_spelling.setdefault((o.lexical, o.datatype, o.lang), set()).add(id(o))
    assert all(len(ids) == 1 for ids in by_spelling.values())
    assert len(set().union(*by_spelling.values())) == len(by_spelling)


@given(_documents())
@settings(max_examples=150, deadline=None)
def test_parsed_ntriples_terms_are_their_public_twins(rows):
    parsed = parse_ntriples(_ntriples(rows))
    _assert_twins(parsed, _twins(rows))
    _assert_one_object_per_spelling(parsed)
    # bytes and a binary file share in the same way
    encoded = _ntriples(rows).encode()
    _assert_one_object_per_spelling(parse_ntriples(encoded))
    _assert_one_object_per_spelling(parse_ntriples(encoded.splitlines(keepends=True)))


@given(_documents(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_parsed_turtle_terms_are_their_public_twins(rows, rnd):
    parsed = parse_turtle(_turtle(rows, rnd))
    _assert_twins(parsed, _twins(rows))
    _assert_one_object_per_spelling(parsed)


@pytest.mark.parametrize("parse, text", [
    (parse_ntriples, '<http://e/a> <http://e/p> "x"@EN .\n<http://e/a> <http://e/q> "x"@en .\n'
                     '<http://e/b> <http://e/p> "x"@EN .\n<http://e/b> <http://e/q> "x"@en .\n'),
    (parse_turtle, '@prefix e: <http://e/> .\ne:a e:p "x"@EN ; e:q "x"@en .\n'
                   'e:b e:p "x"@EN ; e:q "x"@en .\n'),
    # the token paths: an escape, and a comment, before each literal
    (parse_ntriples, '<http://e/a> <http://e/p> "\\u0078"@EN .\n<http://e/a> <http://e/q> "\\u0078"@en .\n'
                     '<http://e/b> <http://e/p> "x"@EN .\n<http://e/b> <http://e/q> "x"@en .\n'),
    (parse_turtle, '@prefix e: <http://e/> .\ne:a e:p # c\n "x"@EN ; e:q # c\n "x"@en .\n'
                   'e:b e:p "x"@EN ; e:q "x"@en .\n'),
], ids=["ntriples", "turtle", "ntriples-token-path", "turtle-token-path"])
def test_tags_spelled_apart_stay_two_objects(parse, text):
    parsed = parse(text)
    upper = [t.object for t in parsed if t.predicate == Iri(_NS + "p")]
    lower = [t.object for t in parsed if t.predicate == Iri(_NS + "q")]
    assert len(upper) == len(lower) == 2
    assert upper[0] is upper[1] and lower[0] is lower[1] and upper[0] is not lower[0]
    assert upper[0] == lower[0] and hash(upper[0]) == hash(lower[0])
    assert (upper[0].lang, lower[0].lang) == ("EN", "en")
    assert (str(upper[0]), str(lower[0])) == ('"x"@EN', '"x"@en')


def test_each_parse_keeps_its_own_literals():
    text = '<http://e/a> <http://e/p> "x" .\n'
    first, second = parse_ntriples(text)[0].object, parse_ntriples(text)[0].object
    assert first == second and first is not second
