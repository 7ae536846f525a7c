"""Brute-force oracles for the set-based SKOS and language-tag checkers.

Each oracle states its constraint naively over the plain list of triples
and the catalog's class hierarchy, with no ``Graph`` index and no
``GraphContext``. Hypothesis draws small SKOS graphs, and every constraint
of a covered type must report exactly the ``(focus, detail)`` pairs its
oracle gives. Messages are not compared.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import builtin_catalog, merge_catalogs
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.namespaces import RDF_TYPE, SKOS
from rdfcheck.terms import BlankNode, Iri, Literal, Triple, term_sort_key

EX = "http://example.org/"
XSD = "http://www.w3.org/2001/XMLSchema#"
TERM = EX + "Term"  # a user class below skos:Concept

# A user vocabulary adds the subclass and language-tag constraints of the
# shapes the shipped catalogs lack: "*" with untagged literals counted, and
# a required language.
_USER = {
    "vocabularies": [{
        "name": "oracle", "namespace": EX, "classes": [TERM], "properties": [],
        "subclass_of": [[TERM, SKOS + "Concept"]],
    }],
    "constraints": [
        {"id": f"ORACLE-LANG-{i}", "type": "language-tag", "severity": "warning",
         "params": {"property": SKOS + "prefLabel", **params}}
        for i, params in enumerate([
            {"languages": ["*"], "max_per_lang": 1, "allow_untagged_as": "en"},
            {"languages": ["*"], "max_per_lang": 1, "min_per_lang": 2,
             "allow_untagged_as": "*", "scope": SKOS + "Concept"},
            {"languages": ["EN", "de"], "min_per_lang": 1, "max_per_lang": 1,
             "scope": TERM},
            {"languages": ["*"], "min_per_lang": 1, "max_per_lang": 2},
        ])
    ],
}
CATALOG = merge_catalogs(builtin_catalog({"skos"}), _USER)

UNIDIRECTIONAL = "SKOS-C-STRUCTURE-06"
OVERLAPPING = "SKOS-C-LABELING-AND-DOCUMENTATION-02"
NOTATION = "SKOS-C-LABELING-AND-DOCUMENTATION-06"

_NODES = [Iri(EX + f"c{i}") for i in range(4)] + [BlankNode("oracle0")]
_SCHEMES = [Iri(EX + "s0"), Iri(EX + "s1")]
_CLASSES = [Iri(SKOS + "Concept"), Iri(TERM), Iri(SKOS + "ConceptScheme")]
_TAGS = [None, "en", "EN-gb", "en-GB", "de"]
_LABELS = [Literal(text, lang=tag) for text in ("a", "b") for tag in _TAGS]
_NOTATIONS = [Literal("1"), Literal("2"), Literal("1", datatype=XSD + "integer"),
              Literal("1", lang="en")]
_RELATIONS = [Iri(SKOS + name)
              for name in ("broader", "narrower", "related", "hasTopConcept", "topConceptOf")]


@st.composite
def _skos_graphs(draw) -> list[Triple]:
    """Up to 57 triples: per node a few types, schemes, labels and
    notations from small pools, so that they often coincide, then a few
    relations between nodes and schemes."""
    triples = []
    for node in _NODES:
        for prop, pool, most in (
            (Iri(RDF_TYPE), _CLASSES, 2),
            (Iri(SKOS + "inScheme"), _SCHEMES + [Literal("s0")], 2),
            (Iri(SKOS + "prefLabel"), _LABELS, 3),
            (Iri(SKOS + "notation"), _NOTATIONS, 2),
        ):
            triples += [Triple(node, prop, o)
                        for o in draw(st.lists(st.sampled_from(pool), max_size=most))]
    ends = _NODES + _SCHEMES
    relations = st.tuples(st.sampled_from(ends), st.sampled_from(_RELATIONS),
                          st.sampled_from(ends + [Literal("c0")]))
    triples += [Triple(*spo) for spo in draw(st.lists(relations, max_size=12))]
    return triples


def _types(triples, catalog) -> dict:
    types: dict = {}
    for t in triples:
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri):
            types.setdefault(t.subject, set()).update(catalog.superclasses(t.object.value))
    return types


def _unidirectional(triples) -> set:
    # a skos:related self-loop is its own reciprocal, so it needs no exemption
    inverse = {"broader": "narrower", "narrower": "broader", "related": "related",
               "hasTopConcept": "topConceptOf", "topConceptOf": "hasTopConcept"}
    stated = {(t.subject, t.predicate.value, t.object) for t in triples}
    out = set()
    for s, p, o in stated:
        name = p.removeprefix(SKOS)
        if name not in inverse or isinstance(o, Literal):
            continue
        if (o, SKOS + inverse[name], s) not in stated:
            out.add((str(s), f"skos:{name}|{o}"))
    return out


def _shared(triples, types, prop: str, key, no_scheme: bool) -> set:
    """Concepts whose ``prop`` literals share a key within one scheme; a
    concept in no scheme counts under the scheme ``None`` if ``no_scheme``."""
    concepts = {node for node, classes in types.items() if SKOS + "Concept" in classes}
    groups: dict = {}
    for t in triples:
        if t.subject in concepts and t.predicate.value == prop and isinstance(t.object, Literal):
            schemes = [u.object for u in triples
                       if u.subject == t.subject and u.predicate.value == SKOS + "inScheme"]
            if not schemes and no_scheme:
                schemes = [None]
            for scheme in schemes:
                groups.setdefault(key(str(scheme), t.object), set()).add(t.subject)
    return {(str(min(members, key=term_sort_key)), detail)
            for (detail, _), members in groups.items() if len(members) > 1}


def _overlapping(triples, types) -> set:
    def key(scheme, label):
        lang = (label.lang or "").lower()
        return f"{label.lexical}@{lang}", (scheme, lang, label.lexical)
    return _shared(triples, types, SKOS + "prefLabel", key, no_scheme=True)


def _notation(triples, types) -> set:
    def key(scheme, notation):
        return f"{notation.lexical}|{scheme}", (scheme, notation.lexical, notation.datatype)
    return _shared(triples, types, SKOS + "notation", key, no_scheme=False)


def _primary(tag: str) -> str:
    return tag.split("-")[0].lower()


def _language_tag(triples, types, params) -> set:
    prop, scope = params["property"], params.get("scope")
    low, high = params.get("min_per_lang", 0), params.get("max_per_lang")
    untagged_as = params.get("allow_untagged_as")
    if scope is None:
        focuses = {t.subject for t in triples if t.predicate.value == prop}
    else:
        focuses = {node for node, classes in types.items() if scope in classes}
    out = set()
    for node in focuses:
        tags = [t.object.lang for t in triples if t.subject == node
                and t.predicate.value == prop and isinstance(t.object, Literal)]

        def count(lang: str) -> int:
            """Values tagged ``lang``, and untagged ones if they count as it."""
            n = sum(1 for tag in tags if tag is not None and _primary(tag) == lang)
            if untagged_as == "*" or untagged_as is not None and _primary(untagged_as) == lang:
                n += tags.count(None)
            return n

        for wanted in params["languages"]:
            if wanted == "*":
                if low > 0:
                    n = sum(1 for tag in tags if tag is not None or untagged_as is not None)
                    if n < low:
                        out.add((str(node), f"*|{n}"))
                if high is not None:
                    for seen in {_primary(tag) for tag in tags if tag is not None}:
                        if count(seen) > high:
                            out.add((str(node), f"{seen}|{count(seen)}"))
            else:
                n = count(_primary(wanted))
                if n < low or (high is not None and n > high):
                    out.add((str(node), f"{wanted}|{n}"))
    return out


def _reported(g: Graph, constraint_id: str) -> set:
    report = validate(g, CATALOG, [CATALOG.constraints[constraint_id]])
    return {(v.focus, v.detail) for v in report.violations}


def _plain(triples: list[Triple]) -> list[Triple]:
    """The triples the graph holds: equal ones once, the first kept."""
    return list(dict.fromkeys(triples))


@given(_skos_graphs())
@settings(max_examples=200, deadline=None)
def test_unidirectional_matches_its_oracle(triples):
    assert _reported(Graph(triples), UNIDIRECTIONAL) == _unidirectional(_plain(triples))


@given(_skos_graphs())
@settings(max_examples=200, deadline=None)
def test_overlapping_labels_match_their_oracle(triples):
    plain = _plain(triples)
    expected = _overlapping(plain, _types(plain, CATALOG))
    assert _reported(Graph(triples), OVERLAPPING) == expected


@given(_skos_graphs())
@settings(max_examples=200, deadline=None)
def test_ambiguous_notation_matches_its_oracle(triples):
    plain = _plain(triples)
    assert _reported(Graph(triples), NOTATION) == _notation(plain, _types(plain, CATALOG))


@given(_skos_graphs())
@settings(max_examples=200, deadline=None)
def test_language_tags_match_their_oracle(triples):
    g, plain = Graph(triples), _plain(triples)
    types = _types(plain, CATALOG)
    for constraint in CATALOG.constraints.values():
        if constraint.type == "language-tag":
            expected = _language_tag(plain, types, constraint.params)
            assert _reported(g, constraint.id) == expected, constraint.id
