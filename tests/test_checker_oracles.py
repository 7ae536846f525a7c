"""Brute-force oracles for set-based checkers.

Each oracle states its constraint naively over the plain list of triples
and the catalog's class hierarchy, with no ``Graph`` index and no
``GraphContext``. Hypothesis draws small graphs, and every constraint of a
covered type must report exactly the ``(focus, detail)`` pairs its oracle
gives. Messages are not compared. The first part covers the SKOS and
language-tag checkers over SKOS graphs, and ``skos-structure``
``valueless-associative`` and ``hierarchical-redundancy`` and
``skos-clashes`` ``relation`` over hierarchy
graphs with siblings, shared parents, cycles and ``skos:related`` in both
directions, and ``solely-transitive`` over transitive and direct links; the
second covers
``disjoint-properties``, ``disjoint-classes``, ``http-scheme``,
``undefined-terms``, ``html-balance``, ``value-datatype`` (``all-literals``)
and ``presence`` over DISCO-shaped graphs, against hierarchies closed here
from the catalog's stated edges. ``presence`` by path also runs over graphs
built for its steps: forward, inverse (``^p``) and into code lists
(``@members``), whose ``skos:memberList`` spines may be broken.
``subproperty``, ``inverse-pair``, ``asymmetric-property`` and
``equivalent-properties`` run over graphs of links whose counterpart
statements are often, but not always, there, and ``vocab-membership``, in
both modes, over graphs of values and code lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import builtin_catalog, merge_catalogs
from rdfcheck.checks.lexical import html_imbalance
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.namespaces import (
    DCTERMS, DDICV, DISCO, QB, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, SKOS, compact,
)
from rdfcheck.terms import BlankNode, Iri, Literal, Triple, term_sort_key
from rdfcheck.xsd import InvalidLexicalError, UnknownDatatypeError, parse_xsd_value

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


# Hierarchy graphs for the two checkers that read the broader/narrower
# hierarchy against skos:related.
VALUELESS = "SKOS-C-STRUCTURE-04"
REDUNDANCY = "SKOS-C-STRUCTURE-09"
RELATION_CLASH = "SKOS-C-DATA-MODEL-CONSISTENCY-01"
_BROADER, _NARROWER, _RELATED = (Iri(SKOS + name) for name in ("broader", "narrower", "related"))
_H_NODES = [Iri(EX + f"h{i}") for i in range(5)] + [BlankNode("oracle2")]


@st.composite
def _hierarchy_graphs(draw) -> list[Triple]:
    """Up to 35 triples: a few concept types; broader or narrower links
    whose parent is most often one of two nodes, so that siblings and
    shared parents are common, and whose random ends close cycles and
    self-loops; a few of them to a literal; then related links, often
    stated in both directions, some to a literal."""
    nodes = st.sampled_from(_H_NODES)
    triples = [Triple(node, Iri(RDF_TYPE), Iri(SKOS + "Concept"))
               for node in draw(st.lists(nodes, max_size=3))]
    links = st.tuples(nodes, st.sampled_from(_H_NODES[:2] * 3 + _H_NODES), st.booleans())
    for child, parent, narrower in draw(st.lists(links, max_size=14)):
        triples.append(Triple(parent, _NARROWER, child) if narrower
                       else Triple(child, _BROADER, parent))
    hierarchical = st.tuples(nodes, st.sampled_from([_BROADER, _NARROWER]))
    triples += [Triple(node, prop, Literal("h0"))
                for node, prop in draw(st.lists(hierarchical, max_size=2))]
    related = st.tuples(nodes, st.sampled_from(_H_NODES + [Literal("h1")]), st.booleans())
    for a, b, both in draw(st.lists(related, max_size=8)):
        triples.append(Triple(a, _RELATED, b))
        if both and not isinstance(b, Literal):
            triples.append(Triple(b, _RELATED, a))
    return triples


def _hierarchy_edges(triples) -> set:
    """(narrower, broader) of each broader statement and of each narrower
    statement turned round; none to or from a literal."""
    edges = set()
    for t in triples:
        if isinstance(t.object, Literal):
            continue
        if t.predicate == _BROADER:
            edges.add((t.subject, t.object))
        elif t.predicate == _NARROWER:
            edges.add((t.object, t.subject))
    return edges


def _related_pairs(triples) -> set:
    """Each pair of distinct resources a skos:related statement joins,
    smaller first in term order."""
    return {tuple(sorted((t.subject, t.object), key=term_sort_key)) for t in triples
            if t.predicate == _RELATED and not isinstance(t.object, Literal)
            and t.subject != t.object}


def _valueless(triples) -> set:
    """Related pairs that are siblings: some node is a parent of both."""
    edges = _hierarchy_edges(triples)

    def parents(node):
        return {parent for child, parent in edges if child == node}

    return {(str(a), str(b)) for a, b in _related_pairs(triples) if parents(a) & parents(b)}


def _relation_clash(triples) -> set:
    """Related pairs one of which lies above the other: a path of one or
    more hierarchy edges leads from one to the other."""
    above = _hierarchy_edges(triples)
    while True:  # the transitive closure, one step at a time
        more = {(a, d) for a, b in above for c, d in above if b == c} - above
        if not more:
            break
        above |= more
    return {(str(a), str(b)) for a, b in _related_pairs(triples)
            if (a, b) in above or (b, a) in above}


def _redundant(triples) -> set:
    """Hierarchy edges a -> b that a longer path also takes from a to b
    (qSKOS "Hierarchical Redundancy", Mader et al., TPDL 2012): a first
    hop to a node other than a and b, then more edges through nodes other
    than a and b, the last one into b. The graphs are far smaller than the
    default depth limit, so no search is indeterminate."""
    edges = _hierarchy_edges(triples)
    out = set()
    for a, b in edges:
        inner = {c for x, c in edges if x == a} - {a, b}
        while True:  # the nodes such a path may pass through, one step at a time
            more = {d for c, d in edges if c in inner} - {a, b} - inner
            if not more:
                break
            inner |= more
        if any((c, b) in edges for c in inner):
            out.add((str(a), str(b)))
    return out


@given(_hierarchy_graphs())
@settings(max_examples=200, deadline=None)
def test_hierarchical_redundancy_matches_its_oracle(triples):
    assert _reported(Graph(triples), REDUNDANCY) == _redundant(_plain(triples))


@given(_hierarchy_graphs())
@settings(max_examples=200, deadline=None)
def test_valueless_associative_matches_its_oracle(triples):
    assert _reported(Graph(triples), VALUELESS) == _valueless(_plain(triples))


@given(_hierarchy_graphs())
@settings(max_examples=200, deadline=None)
def test_relation_clash_matches_its_oracle(triples):
    assert _reported(Graph(triples), RELATION_CLASH) == _relation_clash(_plain(triples))


# Graphs of the transitive hierarchy properties beside their direct ones.
SOLELY_TRANSITIVE = "SKOS-C-STRUCTURE-05"
_TRANSITIVE = {"broaderTransitive": "broader", "narrowerTransitive": "narrower"}
_T_PROPERTIES = [Iri(SKOS + name) for pair in _TRANSITIVE.items() for name in pair]


@st.composite
def _transitive_graphs(draw) -> list[Triple]:
    """Up to 30 triples: links between hierarchy nodes, self-loops among
    them, or to a literal, each stated by one to three of the transitive
    and direct properties, so that a transitive link often has its direct
    one and sometimes only the direct one the other way round."""
    links = st.tuples(st.sampled_from(_H_NODES), st.sampled_from(_H_NODES + [Literal("h0")]),
                      st.lists(st.sampled_from(_T_PROPERTIES), min_size=1, max_size=3))
    return [Triple(s, p, o) for s, o, props in draw(st.lists(links, max_size=10)) for p in props]


def _solely_transitive(triples) -> set:
    """Transitive statements between resources with no direct statement
    of the same two ends in the same direction."""
    stated = {(t.subject, t.predicate.value, t.object) for t in triples}
    return {(str(s), f"skos:{name}|{o}")
            for s, p, o in stated for name, direct in _TRANSITIVE.items()
            if p == SKOS + name and not isinstance(o, Literal)
            and (s, SKOS + direct, o) not in stated}


@given(_transitive_graphs())
@settings(max_examples=200, deadline=None)
def test_solely_transitive_matches_its_oracle(triples):
    assert _reported(Graph(triples), SOLELY_TRANSITIVE) == _solely_transitive(_plain(triples))


# The second part: DISCO-shaped graphs. A user vocabulary adds a class below
# disco:Variable and one below that, a subproperty pair, and user
# constraints of the shapes the shipped catalogs lack: a property listed
# twice, exempt pairs, html-balance with ``property`` and ``scope`` in each
# mode, all-literals datatype checks, presence with a qualifier class and
# by paths of inverse and code-list steps, an inverse pair scoped to a user
# class, equivalent pairs given as parameters, and vocab-membership of a user
# scheme and in qb-codelist mode. A second user vocabulary lists the members
# of two code lists, as the DISCO one lists those of its summary statistic
# types.
SUB, SUBSUB = EX + "Sub", EX + "SubSub"
P, Q = EX + "p", EX + "q"  # q is a subproperty of p
CODES = [EX + "codes0", EX + "codes1"]
_LISTED = [P, Q, DISCO + "variable", DISCO + "containsVariable", DCTERMS + "description", P]
_DISCO_USER = {
    "vocabularies": [{
        "name": "oracle2", "namespace": EX, "classes": [SUB, SUBSUB], "properties": [P, Q],
        "subclass_of": [[SUB, DISCO + "Variable"], [SUBSUB, SUB]],
        "subproperty_of": [[Q, P]],
    }, {
        "name": "oracle3",
        "controlled_vocabularies": {CODES[0]: [EX + "v0"], CODES[1]: [EX + "v1", EX + "n0"]},
    }],
    "constraints": [
        {"id": "ORACLE-DP-0", "type": "disjoint-properties", "severity": "warning",
         "params": {"properties": _LISTED,
                    "exempt_pairs": [[DISCO + "variable", DISCO + "containsVariable"]]}},
        {"id": "ORACLE-DP-1", "type": "disjoint-properties", "severity": "warning",
         "params": {"vocabulary": "oracle2"}},
        {"id": "ORACLE-DC-0", "type": "disjoint-classes", "severity": "warning",
         "params": {"classes": [DISCO + "Variable", SUB, DISCO + "Study",
                                DISCO + "Instrument", DISCO + "Questionnaire", DISCO + "Study"],
                    "exempt_pairs": [[DISCO + "Study", DISCO + "Instrument"]]}},
        {"id": "ORACLE-DC-1", "type": "disjoint-classes", "severity": "warning",
         "params": {"vocabulary": "oracle2"}},
        *({"id": f"ORACLE-HTML-{i}", "type": "html-balance", "severity": "warning",
           "params": params}
          for i, params in enumerate([
              {},
              {"property": DCTERMS + "description"},
              {"property": DCTERMS + "description", "scope": DISCO + "Variable"},
              {"vocabulary": "disco", "mode": "vocab-properties", "scope": SUB},
              {"vocabulary": "disco", "mode": "vocab-properties",
               "property": DISCO + "universe"},
              {"vocabulary": "disco", "mode": "vocab-properties",
               "property": DCTERMS + "description"},
              {"vocabulary": "oracle2", "mode": "class-subjects"},
              {"vocabulary": "oracle2", "mode": "class-subjects",
               "property": DCTERMS + "description", "scope": DISCO + "Study"},
          ])),
        {"id": "ORACLE-VD-0", "type": "value-datatype", "severity": "error",
         "params": {"mode": "all-literals"}},
        {"id": "ORACLE-PRES-0", "type": "presence", "severity": "warning",
         "params": {"scope": DISCO + "Variable", "properties": [DISCO + "concept", P],
                    "qualifier_class": DISCO + "Study"}},
        {"id": "ORACLE-PRES-1", "type": "presence", "severity": "warning",
         "params": {"scope": SUB, "properties": [Q]}},
        {"id": "ORACLE-PRES-2", "type": "presence", "severity": "warning",
         "params": {"scope": SUB, "path": ["^" + P, "@members"]}},
        {"id": "ORACLE-PRES-3", "type": "presence", "severity": "warning",
         "params": {"scope": DISCO + "Variable", "path": [P, "^" + Q, "@members", "^" + P],
                    "qualifier_class": DISCO + "Study"}},
        {"id": "ORACLE-PRES-4", "type": "presence", "severity": "warning",
         "params": {"scope": DISCO + "Study", "path": ["@members", "@members"]}},
        {"id": "ORACLE-INV-0", "type": "inverse-pair", "severity": "warning",
         "params": {"property": P, "inverse": Q, "scope": SUB}},
        {"id": "ORACLE-EQ-0", "type": "equivalent-properties", "severity": "warning",
         "params": {"pairs": [[P, Q], [DISCO + "fundedBy", DCTERMS + "contributor"]]}},
        {"id": "ORACLE-VM-0", "type": "vocab-membership", "severity": "warning",
         "params": {"property": P, "scheme": CODES[0]}},
        {"id": "ORACLE-VM-1", "type": "vocab-membership", "severity": "warning",
         "params": {"mode": "qb-codelist"}},
    ],
}
DISCO_CATALOG = merge_catalogs(builtin_catalog({"disco"}), _DISCO_USER)


def _covered(type_id: str) -> list[str]:
    """The ids of the evaluable constraints of ``type_id`` the oracles cover:
    value-datatype only over all literals."""
    return sorted(
        cid for cid, c in DISCO_CATALOG.constraints.items()
        if c.type == type_id and c.evaluable
        and (type_id != "value-datatype" or c.params.get("mode") == "all-literals")
    )


_D_NODES = [Iri(EX + f"n{i}") for i in range(4)] + [BlankNode("oracle1")]
_D_CLASSES = [Iri(c) for c in (DISCO + "Variable", DISCO + "RepresentedVariable", SUB, SUBSUB,
                               DISCO + "Study", DISCO + "Instrument", DISCO + "Questionnaire")]
_D_PROPERTIES = [Iri(p) for p in (
    P, Q, DISCO + "variable", DISCO + "containsVariable", DISCO + "universe", DISCO + "concept",
    DISCO + "fundedBy", DISCO + "bogus", DCTERMS + "contributor", DCTERMS + "description",
    SKOS + "prefLabel",
)]
# IRIs with and without an http(s) scheme, and ones inside the DISCO
# namespace that it does or does not declare
_D_IRIS = [Iri(v) for v in (
    "urn:x", "HTTP://e/x", "https://e/y", "ftp://e/z", "mailto:a@e", "x+y.z-1:w", "1a:b",
    "a_b:c", ":x", DISCO + "Variable", DISCO + "Nothing", DISCO,
)]
_XSD_TYPED = [("1", "integer"), ("x", "integer"), ("2020-13-01", "date"), ("2020-12-01", "date"),
              ("maybe", "boolean"), ("true", "boolean"), ("-1", "nonNegativeInteger")]
_UNBALANCED = [Literal("<b>x"), Literal("<p><i>x</p></i>"), Literal("<i>x", lang="en")]
_D_LITERALS = (
    [Literal(text) for text in ("<b>x</b>", "a < b", "<br/>", "x")]
    + [Literal("y", datatype=EX + "unknown")]
    + [Literal(text, datatype=XSD + name) for text, name in _XSD_TYPED]
)


@st.composite
def _disco_graphs(draw) -> list[Triple]:
    """Up to 63 triples: per node up to three types from a small pool, then
    links from a few subjects to nodes, IRIs and literals (two thirds of
    them literals, half of those with unbalanced tags), each stated by one
    to three pooled properties, so that two properties often join one
    pair."""
    triples = []
    for node in _D_NODES:
        triples += [Triple(node, Iri(RDF_TYPE), cls)
                    for cls in draw(st.lists(st.sampled_from(_D_CLASSES), max_size=3))]
    objects = st.one_of(st.sampled_from(_D_NODES[:2] + _D_IRIS), st.sampled_from(_D_LITERALS),
                        st.sampled_from(_UNBALANCED))
    links = st.tuples(st.sampled_from(_D_NODES[:3] + _D_IRIS[:2]), objects,
                      st.lists(st.sampled_from(_D_PROPERTIES), min_size=1, max_size=3))
    for s, o, props in draw(st.lists(links, max_size=16)):
        triples += [Triple(s, p, o) for p in props]
    return triples


_P_CLASSES = [Iri(c) for c in (DISCO + "Variable", SUB, DISCO + "Study",
                               DISCO + "SummaryStatistics", DISCO + "CategoryStatistics")]
_P_PROPERTIES = [Iri(p) for p in (
    P, Q, SKOS + "member", SKOS + "memberList", SKOS + "inScheme",
    DISCO + "dataSet", DISCO + "variable", DISCO + "representation",
    DISCO + "statisticsVariable", DISCO + "statisticsCategory",
)]
_P_NODES = _D_NODES[:2] + _D_NODES[4:]
_CELLS = [BlankNode(f"cell{i}") for i in range(3)]


@st.composite
def _path_graphs(draw) -> list[Triple]:
    """Up to 48 triples: per node one or two types, then links between
    nodes, a literal and list cells by the properties that the path
    constraints step along, the first five of them twice as often, then
    per list cell its ``rdf:first`` and ``rdf:rest``: usually one of each
    and a sound spine, sometimes none or two, a cycle or a literal rest."""
    triples = []
    types = st.lists(st.sampled_from(_P_CLASSES), min_size=1, max_size=2)
    for node in _P_NODES:
        triples += [Triple(node, Iri(RDF_TYPE), cls) for cls in draw(types)]
    ends = _P_NODES + [Literal("x")]
    links = st.tuples(st.sampled_from(_P_NODES),
                      st.sampled_from(_P_PROPERTIES[:5] * 2 + _P_PROPERTIES[5:]),
                      st.sampled_from(ends + _CELLS[:2]))
    triples += [Triple(*link) for link in draw(st.lists(links, min_size=15, max_size=30))]
    for i, cell in enumerate(_CELLS):
        triples += [Triple(cell, Iri(RDF_FIRST), draw(st.sampled_from(ends)))
                    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
        rests = draw(st.sampled_from(
            [[], [Iri(RDF_NIL)], [Iri(RDF_NIL)], [_CELLS[(i + 1) % 3]], [_CELLS[(i + 1) % 3]],
             [_CELLS[0]], [Literal("x")], [Iri(RDF_NIL), _CELLS[(i + 1) % 3]]]))
        triples += [Triple(cell, Iri(RDF_REST), o) for o in rests]
    return triples


# pairs of properties, each statement of one of which may need a statement of
# the other: the shipped inverse, sub-, equivalent and asymmetric properties,
# and the user pair; basedOn with itself states a link back
_COUNTERPARTS = [(Iri(a), Iri(b)) for a, b in (
    (DISCO + "statisticsCategory", DISCO + "categoryStatistics"),
    (DISCO + "statisticsVariable", DISCO + "summaryStatistics"),
    (DISCO + "question", DISCO + "questionVariable"),
    (DISCO + "containsVariable", DISCO + "variable"),
    (DISCO + "fundedBy", DCTERMS + "contributor"),
    (DISCO + "basedOn", DISCO + "basedOn"),
    (P, Q),
)]
_C_CLASSES = [Iri(c) for c in (DISCO + "Variable", SUB, SUBSUB, DISCO + "Study")]


@st.composite
def _counterpart_graphs(draw) -> list[Triple]:
    """Up to 50 triples: per node up to two types, then links from a node
    to a node, itself or a literal, each under one property of a pooled
    pair, often with the other property in the same direction, the other
    way round, or both."""
    triples = []
    for node in _D_NODES:
        triples += [Triple(node, Iri(RDF_TYPE), cls)
                    for cls in draw(st.lists(st.sampled_from(_C_CLASSES), max_size=2))]
    links = st.tuples(st.sampled_from(_D_NODES[:3]),
                      st.sampled_from(_D_NODES[:3] + [Literal("n0")]),
                      st.sampled_from(_COUNTERPARTS + [(q, p) for p, q in _COUNTERPARTS]),
                      st.lists(st.booleans(), min_size=3, max_size=3))
    for s, o, (p, q), (same, back, both) in draw(st.lists(links, max_size=10)):
        triples.append(Triple(s, p, o))
        if same:
            triples.append(Triple(s, q, o))
        if back and not isinstance(o, Literal):
            triples.append(Triple(o, q, s))
        if both and not isinstance(o, Literal):
            triples.append(Triple(o, p, s))
    return triples


# the DISCO scheme of summary statistic types; the catalog lists DDICV + "Mode"
_STATISTIC_TYPES = DDICV.removesuffix("#")
_M_SCHEMES = [Iri(c) for c in (*CODES, _STATISTIC_TYPES)] + [BlankNode("codes2")]
_M_VALUES = [Iri(v) for v in (EX + "v0", EX + "v1", EX + "v2", DDICV + "Mode")] + [
    _D_NODES[0], _D_NODES[4], Literal("v0")]
_M_DIMENSIONS = [Iri(EX + "d0"), Iri(EX + "d1")]
_M_PROPERTIES = [Iri(p) for p in (P, DISCO + "summaryStatisticsType")] + _M_DIMENSIONS
_M_CLASSES = [Iri(c) for c in (DISCO + "SummaryStatistics", QB + "Observation",
                               QB + "DimensionProperty", QB + "HierarchicalCodeList")]
_M_LINKS = [Iri(SKOS + name) for name in ("inScheme", "member", "hasTopConcept")]


@st.composite
def _membership_graphs(draw) -> list[Triple]:
    """Up to 60 triples: per node and code list one or two types from a
    pool of the statistics, observation, dimension and hierarchical code
    list classes, and for each of two dimensions most often its class;
    values of the constrained properties and of the dimensions, drawn from
    a pool that holds listed members, members by links, nodes and a
    literal; links between values and code lists by skos:inScheme (value
    to list) or skos:member or skos:hasTopConcept (list to value); and the
    dimensions' code lists, a literal among them."""
    triples = []
    for node in _D_NODES[:3] + _M_SCHEMES:
        triples += [Triple(node, Iri(RDF_TYPE), cls) for cls in draw(
            st.lists(st.sampled_from(_M_CLASSES), min_size=1, max_size=2))]
    for d in _M_DIMENSIONS:
        if draw(st.sampled_from([True, True, True, False])):
            triples.append(Triple(d, Iri(RDF_TYPE), Iri(QB + "DimensionProperty")))
    values = st.tuples(st.sampled_from(_D_NODES[:3]), st.sampled_from(_M_PROPERTIES),
                       st.sampled_from(_M_VALUES))
    triples += [Triple(*spo) for spo in draw(st.lists(values, max_size=14))]
    links = st.tuples(st.sampled_from(_M_VALUES), st.sampled_from(_M_LINKS),
                      st.sampled_from(_M_SCHEMES))
    for value, link, scheme in draw(st.lists(links, max_size=10)):
        if link.value == SKOS + "inScheme":
            if not isinstance(value, Literal):
                triples.append(Triple(value, link, scheme))
        else:
            triples.append(Triple(scheme, link, value))
    lists = st.tuples(st.sampled_from(_M_DIMENSIONS),
                      st.sampled_from(_M_SCHEMES + [Literal("codes0")]))
    triples += [Triple(d, Iri(QB + "codeList"), cl)
                for d, cl in draw(st.lists(lists, min_size=1, max_size=4))]
    return triples


def _above(edges, start: str) -> set:
    """``start`` and everything the stated ``edges`` put above it."""
    found = {start}
    while True:
        more = {parent for child, parent in edges if child in found} - found
        if not more:
            return found
        found |= more


def _edges(kind: str) -> list:
    return [edge for inv in DISCO_CATALOG.inventories.values() for edge in getattr(inv, kind)]


_SUBCLASS, _SUBPROPERTY = _edges("subclass_of"), _edges("subproperty_of")


def _closed_types(triples) -> dict:
    types: dict = {}
    for t in triples:
        if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri):
            types.setdefault(t.subject, set()).update(_above(_SUBCLASS, t.object.value))
    return types


def _group_pairs(members, exempt, edges):
    """Each unordered pair of distinct sorted ``members`` that is neither
    exempt nor related by the stated ``edges``."""
    ordered = sorted(set(members))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if {a, b} in exempt or a in _above(edges, b) or b in _above(edges, a):
                continue
            yield a, b


def _disjoint_properties(triples, params) -> set:
    group = params.get("properties") or DISCO_CATALOG.inventory(params["vocabulary"]).properties
    exempt = [set(pair) for pair in params.get("exempt_pairs", [])]
    out = set()
    for x, y in {(t.subject, t.object) for t in triples}:
        props = [t.predicate.value for t in triples
                 if t.subject == x and t.object == y and t.predicate.value in group]
        for p, q in _group_pairs(props, exempt, _SUBPROPERTY):
            out.add((str(x), f"{compact(p)}|{compact(q)}|{y}"))
    return out


def _disjoint_classes(triples, params) -> set:
    group = params.get("classes") or DISCO_CATALOG.inventory(params["vocabulary"]).classes
    exempt = [set(pair) for pair in params.get("exempt_pairs", [])]
    out = set()
    for node, classes in _closed_types(triples).items():
        for a, b in _group_pairs(classes & set(group), exempt, _SUBCLASS):
            out.add((str(node), f"{compact(a)}|{compact(b)}"))
    return out


def _all_iris(triples) -> set:
    return {term for t in triples for term in (t.subject, t.predicate, t.object)
            if isinstance(term, Iri)}


def _http_scheme(triples, params) -> set:
    out = set()
    for iri in _all_iris(triples):
        head, colon, _ = iri.value.partition(":")
        valid = (colon and head[:1].isascii() and head[:1].isalpha()
                 and all(ch.isascii() and (ch.isalnum() or ch in "+-.") for ch in head))
        scheme = head.lower() if valid else ""
        if scheme not in ("http", "https"):
            out.add((str(iri), scheme or "(none)"))
    return out


def _undefined_terms(triples, params) -> set:
    inventory = DISCO_CATALOG.inventory(params["vocabulary"])
    declared = inventory.classes | inventory.properties | inventory.deprecated
    return {(str(iri), iri.value) for iri in _all_iris(triples)
            if iri.value.startswith(inventory.namespace) and iri.value not in declared}


def _html_balance(triples, params) -> set:
    types = _closed_types(triples)
    prop, scope = params.get("property"), params.get("scope")
    properties = classes = None
    if "vocabulary" in params:
        inventory = DISCO_CATALOG.inventory(params["vocabulary"])
        if params.get("mode", "vocab-properties") == "vocab-properties":
            properties = inventory.properties
        else:
            classes = inventory.classes
    out = set()
    for t in triples:
        pred, lit, subject_types = t.predicate.value, t.object, types.get(t.subject, set())
        if (
            isinstance(lit, Literal) and html_imbalance(lit.lexical) is not None
            and prop in (None, pred) and scope in (None, *subject_types)
            and (properties is None or pred in properties)
            and (classes is None or subject_types & classes)
        ):
            out.add((str(t.subject), f"{compact(pred)}|{lit}"))
    return out


def _value_datatype(triples, params) -> set:
    out = set()
    for t in triples:
        if isinstance(t.object, Literal):
            try:
                parse_xsd_value(t.object.lexical, t.object.datatype)
            except InvalidLexicalError:
                out.add((str(t.subject), str(t.object)))
            except UnknownDatatypeError:
                pass
    return out


def _values(triples, node, prop: str) -> list:
    return [t.object for t in triples if t.subject == node and t.predicate.value == prop]


def _list_members(triples, head) -> list:
    """The members of the ``rdf:first``/``rdf:rest`` list at ``head`` up to
    its first defect: a cell without exactly one first or one rest, a
    literal rest, or a cell seen before."""
    members, node, seen = [], head, set()
    while node != Iri(RDF_NIL) and node not in seen:
        seen.add(node)
        firsts, rests = _values(triples, node, RDF_FIRST), _values(triples, node, RDF_REST)
        if len(firsts) != 1:
            break
        members += firsts
        if len(rests) != 1 or isinstance(rests[0], Literal):
            break
        node = rests[0]
    return members


def _members(triples, node) -> list:
    """A code list's members: its ``skos:memberList`` lists, else its
    ``skos:member`` values, else what is ``skos:inScheme`` it."""
    heads = _values(triples, node, SKOS + "memberList")
    if heads:
        return [m for head in heads for m in _list_members(triples, head)]
    return _values(triples, node, SKOS + "member") or [
        t.subject for t in triples if t.predicate.value == SKOS + "inScheme" and t.object == node]


def _path_ends(triples, node, path) -> set:
    frontier = {node}
    for step in path:
        if step == "@members":
            frontier = {m for current in frontier for m in _members(triples, current)}
        elif step.startswith("^"):
            frontier = {t.subject for t in triples
                        if t.predicate.value == step[1:] and t.object in frontier
                        and not isinstance(t.object, Literal)}
        else:
            frontier = {t.object for t in triples
                        if t.subject in frontier and t.predicate.value == step}
    return frontier


def _presence(triples, params) -> set:
    types = _closed_types(triples)
    scope, props, path = params["scope"], params.get("properties", []), params.get("path")
    qualifier = params.get("qualifier_class")
    names = " or ".join(compact(p) for p in props) if props else " / ".join(path)
    out = set()
    for node, classes in types.items():
        if scope not in classes:
            continue
        values = [t.object for t in triples if t.subject == node and t.predicate.value in props]
        if path:
            values += _path_ends(triples, node, path)
        if qualifier is not None:
            values = [v for v in values if qualifier in types.get(v, set())]
        if not values:
            out.add((str(node), names))
    return out


def _stated(triples) -> set:
    return {(t.subject, t.predicate.value, t.object) for t in triples}


def _subproperty(triples, params) -> set:
    prop, sup = params["property"], params["superproperty"]
    stated = _stated(triples)
    return {(str(s), str(o)) for s, p, o in stated if p == prop and (s, sup, o) not in stated}


def _inverse_pair(triples, params) -> set:
    """Each statement of either property between resources, whose node on
    the ``property`` side is in scope, without its mirror statement."""
    prop, inverse, scope = params["property"], params["inverse"], params.get("scope")
    types, stated = _closed_types(triples), _stated(triples)
    out = set()
    for s, p, o in stated:
        if isinstance(o, Literal) or p not in (prop, inverse):
            continue
        mirror = inverse if p == prop else prop
        holder = s if p == prop else o
        if scope is not None and scope not in types.get(holder, set()):
            continue
        if (o, mirror, s) not in stated:
            out.add((str(s), str(o)))
    return out


def _asymmetric(triples, params) -> set:
    prop, stated = params["property"], _stated(triples)
    return {(str(s), str(o)) for s, p, o in stated
            if p == prop and s != o and (o, prop, s) in stated
            and term_sort_key(s) < term_sort_key(o)}


def _equivalent(triples, params) -> set:
    pairs = params.get("pairs") or DISCO_CATALOG.inventory(
        params["vocabulary"]).equivalent_property_pairs
    stated, out = _stated(triples), set()
    for a, b in pairs:
        for present, missing in ((a, b), (b, a)):
            out |= {(str(s), f"{compact(p)}|{o}") for s, p, o in stated
                    if p == present and (s, missing, o) not in stated}
    return out


def _scheme_members(triples, scheme) -> set:
    """What ``skos:inScheme`` the scheme, what it lists by ``skos:member``
    or ``skos:hasTopConcept``, and the members the catalog lists for it."""
    listed = DISCO_CATALOG.controlled_vocabularies.get(scheme.value, ()) if isinstance(
        scheme, Iri) else ()
    return {Iri(v) for v in listed} | {
        t.subject for t in triples
        if t.predicate.value == SKOS + "inScheme" and t.object == scheme} | {
        t.object for t in triples if t.subject == scheme
        and t.predicate.value in (SKOS + "member", SKOS + "hasTopConcept")}


def _vocab_membership(triples, params) -> set:
    """Scheme mode: values of the property, on subjects in scope, outside
    the scheme. qb-codelist mode: resource values of a dimension on an
    observation outside one of the dimension's code lists that is neither
    a literal nor a hierarchical code list; these graphs hold no data
    structure definition, so the dimensions are the nodes typed so."""
    types = _closed_types(triples)

    def typed(node, cls: str) -> bool:
        return cls in types.get(node, set())

    if params.get("mode", "scheme") == "scheme":
        prop, scope = params["property"], params.get("scope")
        members = _scheme_members(triples, Iri(params["scheme"]))
        return {(str(t.subject), str(t.object)) for t in triples
                if t.predicate.value == prop and t.object not in members
                and (scope is None or typed(t.subject, scope))}
    out = set()
    for d in {node for node in types if typed(node, QB + "DimensionProperty")}:
        for code_list in {t.object for t in triples
                          if t.subject == d and t.predicate.value == QB + "codeList"}:
            if isinstance(code_list, Literal) or typed(code_list, QB + "HierarchicalCodeList"):
                continue
            members = _scheme_members(triples, code_list)
            out |= {(str(t.subject), str(t.object)) for t in triples
                    if t.predicate == d and typed(t.subject, QB + "Observation")
                    and not isinstance(t.object, Literal) and t.object not in members}
    return out


_DISCO_ORACLES = {
    "disjoint-properties": _disjoint_properties,
    "disjoint-classes": _disjoint_classes,
    "http-scheme": _http_scheme,
    "undefined-terms": _undefined_terms,
    "html-balance": _html_balance,
    "value-datatype": _value_datatype,
    "presence": _presence,
    "subproperty": _subproperty,
    "inverse-pair": _inverse_pair,
    "asymmetric-property": _asymmetric,
    "equivalent-properties": _equivalent,
    "vocab-membership": _vocab_membership,
}


def test_every_disco_oracle_covers_some_constraint():
    for type_id in _DISCO_ORACLES:
        assert _covered(type_id), type_id


def _agrees(type_id: str, triples) -> None:
    """Every covered constraint of ``type_id``, run together through
    ``validate``, reports what its oracle gives."""
    plain = _plain(triples)
    ids = _covered(type_id)
    report = validate(Graph(triples), DISCO_CATALOG, [DISCO_CATALOG.constraints[c] for c in ids])
    reported: dict = {cid: set() for cid in ids}
    for v in report.violations:
        reported[v.constraint_id].add((v.focus, v.detail))
    oracle = _DISCO_ORACLES[type_id]
    expected = {cid: oracle(plain, DISCO_CATALOG.constraints[cid].params) for cid in ids}
    assert reported == expected


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_disjoint_properties_match_their_oracle(triples):
    _agrees("disjoint-properties", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_disjoint_classes_match_their_oracle(triples):
    _agrees("disjoint-classes", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_http_scheme_matches_its_oracle(triples):
    _agrees("http-scheme", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_undefined_terms_match_their_oracle(triples):
    _agrees("undefined-terms", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_html_balance_matches_its_oracle(triples):
    _agrees("html-balance", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_all_literals_datatypes_match_their_oracle(triples):
    _agrees("value-datatype", triples)


@given(_disco_graphs())
@settings(max_examples=200, deadline=None)
def test_presence_matches_its_oracle(triples):
    _agrees("presence", triples)


@given(_path_graphs())
@settings(max_examples=200, deadline=None)
def test_presence_by_path_matches_its_oracle(triples):
    _agrees("presence", triples)


@given(_counterpart_graphs())
@settings(max_examples=200, deadline=None)
def test_subproperties_match_their_oracle(triples):
    _agrees("subproperty", triples)


@given(_counterpart_graphs())
@settings(max_examples=200, deadline=None)
def test_inverse_pairs_match_their_oracle(triples):
    _agrees("inverse-pair", triples)


@given(_counterpart_graphs())
@settings(max_examples=200, deadline=None)
def test_asymmetric_properties_match_their_oracle(triples):
    _agrees("asymmetric-property", triples)


@given(_counterpart_graphs())
@settings(max_examples=200, deadline=None)
def test_equivalent_properties_match_their_oracle(triples):
    _agrees("equivalent-properties", triples)


@given(_membership_graphs())
@settings(max_examples=200, deadline=None)
def test_vocab_membership_matches_its_oracle(triples):
    _agrees("vocab-membership", triples)
