import copy
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.namespaces import RDF_LANGSTRING, XSD_STRING
from rdfcheck.terms import BlankNode, Iri, Literal, Triple, escape_literal, term_sort_key


def test_plain_literal_gets_string_datatype():
    assert Literal("x").datatype == XSD_STRING


def test_language_literal_gets_langstring_datatype():
    lit = Literal("x", lang="en")
    assert lit.datatype == RDF_LANGSTRING


def test_langstring_without_tag_rejected():
    with pytest.raises(ValueError):
        Literal("x", datatype=RDF_LANGSTRING)


def test_empty_language_tag_rejected():
    with pytest.raises(ValueError):
        Literal("x", lang="")


def test_literal_equality_lowercases_language():
    assert Literal("x", lang="EN") == Literal("x", lang="en")
    assert hash(Literal("x", lang="EN")) == hash(Literal("x", lang="en"))


def test_literal_equality_is_lexical():
    # value-space comparison is the xsd layer's job, not term equality
    a = Literal("01", datatype="http://www.w3.org/2001/XMLSchema#integer")
    b = Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert a != b


def test_iri_equality_exact_string():
    assert Iri("http://a") == Iri("http://a")
    assert Iri("http://A") != Iri("http://a")


def test_triple_rejects_literal_subject():
    with pytest.raises(ValueError):
        Triple(Literal("x"), Iri("http://p"), Iri("http://o"))


def test_triple_rejects_non_iri_predicate():
    with pytest.raises(ValueError):
        Triple(Iri("http://s"), Literal("p"), Iri("http://o"))


def test_term_sort_key_orders_kinds():
    keys = [
        term_sort_key(Iri("http://a")),
        term_sort_key(Literal("a")),
    ]
    assert keys[0] < keys[1]


def test_literal_serialization_escapes():
    lit = Literal('say "hi"\n')
    assert str(lit) == '"say \\"hi\\"\\n"'


def test_iris_and_blank_nodes_are_interned():
    assert Iri("http://a") is Iri("http://a")
    assert BlankNode("b0") is BlankNode("b0")
    assert Iri("b0") != BlankNode("b0")
    assert Iri("http://a") != Literal("http://a")
    assert hash(Triple(Iri("http://s"), Iri("http://p"), BlankNode("b0"))) == hash(
        Triple(Iri("http://s"), Iri("http://p"), BlankNode("b0"))
    )


def test_threads_that_miss_the_table_at_once_share_one_term():
    values = [f"http://race.example/{i}" for i in range(20000)]
    seen: list[list[int]] = []

    def intern_all():
        seen.append([id(Iri(v)) for v in values] + [id(BlankNode(v)) for v in values])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=intern_all) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 4 and all(ids == seen[0] for ids in seen)


def _pickled(term, protocol):
    return pickle.loads(pickle.dumps(term, protocol))


@pytest.mark.parametrize("term", [Iri("http://a"), BlankNode("b0")], ids=repr)
def test_copies_and_pickles_give_back_the_interned_term(term):
    assert copy.copy(term) is term
    assert copy.deepcopy(term) is term
    assert copy.deepcopy([term])[0] is term
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert _pickled(term, protocol) is term


@pytest.mark.parametrize("term, name", [(Iri("http://a"), "value"), (BlankNode("b0"), "label")])
def test_interned_terms_are_immutable(term, name):
    with pytest.raises(FrozenInstanceError):
        setattr(term, name, "x")
    with pytest.raises(FrozenInstanceError):
        term.other = "x"
    with pytest.raises(FrozenInstanceError):
        delattr(term, name)
    assert getattr(term, name) in ("http://a", "b0")


def test_interned_terms_print_as_before():
    assert (str(Iri("http://a")), repr(Iri("http://a"))) == ("<http://a>", "Iri(value='http://a')")
    assert (str(BlankNode("b0")), repr(BlankNode("b0"))) == ("_:b0", "BlankNode(label='b0')")
    assert isinstance(Iri("http://a"), Iri) and not isinstance(Iri("http://a"), BlankNode)


def test_literals_stay_structural_and_keep_their_raw_tag():
    upper, lower = Literal("x", lang="EN"), Literal("x", lang="en")
    assert upper == lower and upper is not lower
    assert (str(upper), str(lower)) == ('"x"@EN', '"x"@en')


def _escape_per_character(text):
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


@given(st.text(alphabet=st.sampled_from('ab \\"\n\r\t\x00\x0b\x1f\x7f\u00e9\U0001f600')))
@settings(max_examples=300, deadline=None)
def test_escape_literal_matches_per_character_reference(text):
    assert escape_literal(text) == _escape_per_character(text)
