"""Acceptance suite: one test per published acceptance criterion.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in captured output); a failure prints FAIL with the discrepancy before
the assertion fires.
"""

import csv
import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from rdfcheck.catalog import Severity, builtin_catalog
from rdfcheck.checks.graphalg import (
    strongly_connected_components,
    weakly_connected_components,
)
from rdfcheck.checks.models import extract_statistics
from rdfcheck.checks.schema import check_cardinality
from rdfcheck.checks.statistics import (
    check_cumulative_chain,
    check_frequency_totals,
    check_percentage_sum,
)
from rdfcheck.cli import run_cli
from rdfcheck.engine import validate
from rdfcheck.graph import Graph, isomorphic
from rdfcheck.ntriples import parse_ntriples, serialize_ntriples
from rdfcheck.report import write_json
from rdfcheck.terms import Iri, Literal, Triple

from conftest import FIXTURES, ctx_for, expand, iri, lit, load_fixture, triple


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ===========================================================================
# Criterion 1: constraint coverage and default severities


def test_criterion_1_constraint_coverage(full_catalog):
    table_path = Path(__file__).parent.parent / "docs" / "severity-defaults.csv"
    with open(table_path, newline="") as handle:
        table = {row["id"]: row["severity"] for row in csv.DictReader(handle)}
    missing = set(table) - set(full_catalog.constraints)
    extra = set(full_catalog.constraints) - set(table)
    mismatched = {
        cid
        for cid in set(table) & set(full_catalog.constraints)
        if table[cid] != str(full_catalog.constraints[cid].severity)
    }
    ok = not missing and not extra and not mismatched
    _verdict(
        "1 (constraint coverage)",
        ok,
        f"{len(table)} tabulated ids, {len(missing)} missing, {len(extra)} extra, "
        f"{len(mismatched)} severity mismatches",
    )


# ===========================================================================
# Criterion 2: fault-injection suite


# The fixtures use their own example namespaces; mutation rows write "ex:"
# names that resolve against whichever namespace the runner activates.
_ACTIVE_NS = "http://example.org/eusilc/"


def _r(name: str) -> str:
    if name.startswith("ex:"):
        return _ACTIVE_NS + name[3:]
    return expand(name)


def _term(x):
    from rdfcheck.terms import BlankNode

    if isinstance(x, (Iri, Literal, BlankNode)):
        return x
    return Iri(_r(x))


def _t(s, p, o) -> Triple:
    return Triple(_term(s), _term(p), _term(o))


def _drop(triples, s=None, p=None, o_lexical=None):
    out = []
    for t in triples:
        if s is not None and t.subject != _term(s):
            out.append(t)
            continue
        if p is not None and t.predicate != _term(p):
            out.append(t)
            continue
        if o_lexical is not None and not (
            isinstance(t.object, Literal) and t.object.lexical == o_lexical
        ):
            out.append(t)
            continue
        # matched every bound position: drop
    return out


def _swap_literal(triples, s, p, new_lexical):
    out = []
    for t in triples:
        if t.subject == _term(s) and t.predicate == _term(p) \
                and isinstance(t.object, Literal):
            out.append(Triple(t.subject, t.predicate,
                              Literal(new_lexical, datatype=t.object.datatype,
                                      lang=t.object.lang)))
        else:
            out.append(t)
    return out


def _plus(triples, *rows):
    return list(triples) + [_t(*row) for row in rows]


D = "DISCO-C-"
S = "SKOS-C-"

# (label, mutator, expected violation ids) over the conforming study fixture
DISCO_MUTATIONS = [
    ("subsumption", lambda t: [x for x in t if not (
        x.subject == _term("ex:universeEu") and x.predicate == _term("rdf:type")
        and x.object == _term("skos:Concept"))],
     {D + "SUBSUMPTION-01"}),
    ("class-equivalence", lambda t: [x for x in t if not (
        x.subject == _term("ex:v1") and str(x.object).endswith("SIO_000367>"))],
     {D + "CLASS-EQUIVALENCE-01"}),
    ("sub-properties", lambda t: _drop(t, "ex:study", "dcterms:contributor"),
     {D + "SUB-PROPERTIES-01"}),
    ("property-domain", lambda t: _plus(
        t, ("ex:datafile", "disco:responseDomain", "ex:eduRepresentation")),
     {D + "PROPERTY-DOMAIN-01"}),
    ("property-ranges", lambda t: _swap_literal(
        t, "ex:datafile", "disco:caseQuantity", "-2"),
     {D + "PROPERTY-RANGES-01"}),
    ("inverse-01", lambda t: _drop(t, "ex:codeYes", "disco:categoryStatistics"),
     {D + "INVERSE-OBJECT-PROPERTIES-01"}),
    ("inverse-02", lambda t: _drop(t, "ex:v1", "disco:summaryStatistics"),
     {D + "INVERSE-OBJECT-PROPERTIES-02"}),
    ("inverse-03", lambda t: _drop(t, "ex:q1", "disco:questionVariable"),
     {D + "INVERSE-OBJECT-PROPERTIES-03"}),
    ("asymmetric", lambda t: _plus(
        t,
        ("ex:rv", "rdf:type", "disco:RepresentedVariable"),
        ("ex:rv", "disco:universe", "ex:universeEu"),
        ("ex:v1", "disco:basedOn", "ex:rv"),
        ("ex:rv", "disco:basedOn", "ex:v1")),
     {D + "ASYMMETRIC-OBJECT-PROPERTIES-01", D + "PROPERTY-DOMAIN-01",
      D + "PROPERTY-RANGES-01"}),
    ("irreflexive", lambda t: _plus(
        t, ("ex:questionnaire", "disco:externalDocumentation", "ex:questionnaire")),
     {D + "IRREFLEXIVE-OBJECT-PROPERTIES-01"}),
    ("class-specific-irreflexive-broader", lambda t: _plus(
        t, ("ex:codeYes", "skos:broader", "ex:codeYes")),
     {D + "CLASS-SPECIFIC-IRREFLEXIVE-OBJECT-PROPERTIES-01"}),
    ("class-specific-irreflexive-narrower", lambda t: _plus(
        t, ("ex:codeYes", "skos:narrower", "ex:codeYes")),
     {D + "CLASS-SPECIFIC-IRREFLEXIVE-OBJECT-PROPERTIES-02"}),
    ("disjoint-properties", lambda t: _plus(
        t, ("ex:dataset", "disco:statisticsDataFile", "ex:datafile")),
     {D + "DISJOINT-PROPERTIES-01", D + "PROPERTY-DOMAIN-01"}),
    ("disjoint-classes", lambda t: _plus(
        t, ("ex:datafile", "rdf:type", "disco:LogicalDataSet")),
     {D + "DISJOINT-CLASSES-01", D + "DEFAULT-VALUES-01",
      D + "EXISTENTIAL-QUANTIFICATIONS-06", D + "EXISTENTIAL-QUANTIFICATIONS-28",
      D + "EXISTENTIAL-QUANTIFICATIONS-44"}),
    ("equivalent-properties", lambda t: [x for x in t if not (
        x.subject == _term("ex:dataset")
        and x.predicate == _term("disco:containsVariable")
        and x.object == _term("ex:v1"))],
     {D + "EQUIVALENT-PROPERTIES-01"}),
    ("data-property-facets", lambda t: _swap_literal(
        t, "ex:study", "dcterms:abstract", "Too short."),
     {D + "DATA-PROPERTY-FACETS-02"}),
    ("disjunction", lambda t: _plus(
        t, ("ex:datafile", "disco:concept", "ex:conceptChildCare")),
     {D + "DISJUNCTION-01", D + "PROPERTY-DOMAIN-01"}),
    ("existential-required", lambda t: _drop(t, "ex:study", "disco:universe"),
     {D + "EXISTENTIAL-QUANTIFICATIONS-02"}),
    ("existential-dataset", lambda t: _drop(t, "ex:study", "disco:dataSet"),
     {D + "EXISTENTIAL-QUANTIFICATIONS-27", D + "EXISTENTIAL-QUANTIFICATIONS-25",
      D + "EXISTENTIAL-QUANTIFICATIONS-26"}),
    ("existential-category-stat-values", lambda t: _drop(
        _drop(_drop(t, "ex:csYes", "disco:frequency"),
              "ex:csYes", "disco:percentage"),
        "ex:csYes", "disco:cumulativePercentage"),
     {D + "EXISTENTIAL-QUANTIFICATIONS-36"}),
    ("existential-question-text", lambda t: _drop(t, "ex:q1", "disco:questionText"),
     {D + "EXISTENTIAL-QUANTIFICATIONS-39", D + "LANGUAGE-TAG-CARDINALITY-01",
      D + "LANGUAGE-TAG-CARDINALITY-03"}),
    ("max-cardinality", lambda t: _plus(
        t, ("ex:v1", "disco:concept", "ex:conceptEducation")),
     {D + "MAXIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01"}),
    ("exact-cardinality", lambda t: _plus(
        t,
        ("ex:universe2", "rdf:type", "disco:Universe"),
        ("ex:universe2", "rdf:type", "skos:Concept"),
        ("ex:universe2", "skos:definition", lit("Another universe.", lang="en")),
        ("ex:q1", "disco:universe", "ex:universe2")),
     {D + "EXACT-QUALIFIED-CARDINALITY-RESTRICTIONS-01"}),
    ("exclusive-or-groups", lambda t: _plus(
        t, ("ex:conceptChildCare", "skos:notation", lit("CC"))),
     {D + "CONTEXT-SPECIFIC-EXCLUSIVE-OR-OF-PROPERTY-GROUPS-01",
      D + "CONDITIONAL-PROPERTIES-01"}),
    ("allowed-values", lambda t: _swap_literal(
        t, "ex:csYes", "disco:computationBase", "all"),
     {D + "ALLOWED-VALUES-01"}),
    ("literal-ranges", lambda t: _swap_literal(
        t, "ex:csYes", "disco:percentage", "101.0"),
     {D + "LITERAL-RANGES-01", D + "MATHEMATICAL-OPERATIONS-01",
      D + "AGGREGATION-06", D + "DATA-MODEL-CONSISTENCY-01"}),
    ("inverse-functional", lambda t: _plus(
        t,
        ("ex:v1", "adms:identifier", "ex:sharedId"),
        ("ex:v2", "adms:identifier", "ex:sharedId")),
     {D + "INVERSE-FUNCTIONAL-PROPERTIES-01"}),
    ("class-specific-range", lambda t: _plus(
        t, ("ex:v1", "disco:questionText", lit("stray", lang="en"))),
     {D + "CLASS-SPECIFIC-PROPERTY-RANGE-01", D + "PROPERTY-DOMAIN-01"}),
    ("membership", lambda t: _plus(
        t,
        ("ex:bogusType", "rdf:type", "skos:Concept"),
        ("ex:bogusType", "skos:definition", lit("Undeclared type.", lang="en")),
        ("ex:ssV1Cases", "disco:summaryStatisticsType", "ex:bogusType")),
     {D + "MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01"}),
    ("literal-comparison", lambda t: _swap_literal(
        t, "ex:study", "disco:endDate", "2004-12-31"),
     {D + "LITERAL-VALUE-COMPARISON-01"}),
    ("ordering", lambda t: [x for x in t if not (
        x.subject == _term("ex:dataset") and x.object == _term("ex:variableList"))],
     {D + "ORDERING-01"}),
    ("string-operations", lambda t: _swap_literal(
        t, "ex:study", "dcterms:title", "EUSILC-2005"),
     {D + "STRING-OPERATIONS-01"}),
    ("default-values", lambda t: _drop(t, "ex:dataset", "disco:isPublic"),
     {D + "DEFAULT-VALUES-01"}),
    ("frequency-totals", lambda t: _swap_literal(
        t, "ex:ssV1Cases", "rdf:value", "900"),
     {D + "MATHEMATICAL-OPERATIONS-02", D + "MATHEMATICAL-OPERATIONS-03",
      D + "DATA-MODEL-CONSISTENCY-05"}),
    ("min-max", lambda t: _swap_literal(t, "ex:ssV2Min", "rdf:value", "99.0"),
     {D + "MATHEMATICAL-OPERATIONS-05"}),
    ("language-tag-matching", lambda t: [x for x in t if not (
        x.subject == _term("ex:v1") and x.predicate == _term("skos:notation"))]
     + [_t("ex:v1", "skos:notation", lit("EU_EDUPRE", lang="de"))],
     {D + "LANGUAGE-TAG-MATCHING-01"}),
    ("whitespace", lambda t: _swap_literal(
        t, "ex:study", "dcterms:abstract",
        " The 2005 wave of the EU statistics on income and living conditions, "
        "measuring income poverty and childcare availability across states. "),
     {D + "WHITESPACE-HANDLING-01"}),
    ("html-handling", lambda t: _swap_literal(
        t, "ex:study", "disco:kindOfData", "<i>survey data"),
     {D + "HTML-HANDLING-01", D + "HTML-HANDLING-02"}),
    ("conditional-is-valid", lambda t: _drop(t, "ex:codeYes", "disco:isValid"),
     {D + "CONDITIONAL-PROPERTIES-01", D + "CONDITIONAL-PROPERTIES-06"}),
    ("conditional-titles", lambda t: _drop(
        _drop(_drop(t, "ex:study", "dcterms:abstract"),
              "ex:study", "disco:ddifile"),
        "ex:study", "dcterms:title"),
     # removing the external description also wakes the ddifile suggestion
     {D + "CONDITIONAL-PROPERTIES-03", D + "CONDITIONAL-PROPERTIES-05",
      D + "EXISTENTIAL-QUANTIFICATIONS-08"}),
    ("recommended", lambda t: _drop(t, "ex:v2", "skos:notation"),
     {D + "RECOMMENDED-PROPERTIES-01", D + "LANGUAGE-TAG-MATCHING-01"}),
    ("value-datatype-date", lambda t: _swap_literal(
        t, "ex:study", "disco:startDate", "2005-02-30"),
     {D + "VALUE-IS-VALID-FOR-DATATYPE-01", D + "PROPERTY-RANGES-01",
      D + "LITERAL-VALUE-COMPARISON-01"}),
    ("value-datatype-frequency", lambda t: _swap_literal(
        t, "ex:csYes", "disco:frequency", "six hundred"),
     {D + "VALUE-IS-VALID-FOR-DATATYPE-02", D + "PROPERTY-RANGES-01"}),
    ("collections-declared-count", lambda t: _swap_literal(
        t, "ex:dataset", "disco:variableQuantity", "3"),
     {D + "HANDLE-RDF-COLLECTIONS-02"}),
    ("cumulative-chain-last", lambda t: _swap_literal(
        t, "ex:csNoAnswer", "disco:cumulativePercentage", "99.0"),
     {D + "DATA-MODEL-CONSISTENCY-01", D + "DATA-MODEL-CONSISTENCY-02"}),
    ("statistic-applicability-string", lambda t: [x for x in t if not (
        x.subject == _term("ex:v2") and x.predicate == _term("disco:representation"))]
     + [_t("ex:v2", "disco:representation", "xsd:string"),
        _t("xsd:string", "rdf:type", "rdfs:Datatype")],
     {D + "DATA-MODEL-CONSISTENCY-06"}),
    ("statistic-applicability-mean", lambda t: _plus(
        t,
        ("ex:ssV1Mean", "rdf:type", "disco:SummaryStatistics"),
        ("ex:ssV1Mean", "disco:summaryStatisticsType",
         "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType#ArithmeticMean"),
        ("ex:ssV1Mean", "rdf:value", lit("1.5", "xsd:double")),
        ("ex:ssV1Mean", "disco:statisticsVariable", "ex:v1"),
        ("ex:v1", "disco:summaryStatistics", "ex:ssV1Mean")),
     {D + "DATA-MODEL-CONSISTENCY-07"}),
    ("single-root", lambda t: _plus(
        t, ("ex:conceptEducation", "skos:broader", "ex:conceptChildCare")),
     {D + "STRUCTURE-01"}),
    ("provenance", lambda t: _drop(t, "ex:study", "dcterms:provenance"),
     {D + "PROVENANCE-02"}),
    ("labeling-description", lambda t: _drop(t, "ex:study", "dcterms:description"),
     {D + "LABELING-AND-DOCUMENTATION-02"}),
    ("vocabulary", lambda t: _plus(
        t, ("ex:study", "disco:madeUpProperty", lit("x"))),
     {D + "VOCABULARY-01"}),
    ("http-scheme", lambda t: _plus(
        t, ("urn:isbn:0451450523", "dcterms:title", lit("A book"))),
     {D + "HTTP-URI-SCHEME-VIOLATION"}),
]

SKOS_MUTATIONS = [
    ("orphan", lambda t: _plus(
        t,
        ("ex:alone", "rdf:type", "skos:Concept"),
        ("ex:alone", "skos:inScheme", "ex:scheme"),
        ("ex:alone", "skos:prefLabel", lit("Alone", lang="en")),
        ("ex:alone", "skos:prefLabel", lit("Allein", lang="de")),
        ("ex:alone", "skos:definition", lit("Has no relations", lang="en"))),
     {S + "STRUCTURE-01"}),
    ("top-with-broader-and-cycle", lambda t: _plus(
        t,
        ("ex:energy", "skos:broader", "ex:solar"),
        ("ex:solar", "skos:narrower", "ex:energy")),
     {S + "STRUCTURE-08", S + "STRUCTURE-03"}),
    ("overlapping-labels", lambda t: _plus(
        t, ("ex:wind", "skos:prefLabel", lit("Solar energy", lang="en"))),
     {S + "LABELING-AND-DOCUMENTATION-02", S + "LANGUAGE-TAG-CARDINALITY-04"}),
    ("disjoint-labels", lambda t: _plus(
        t, ("ex:solar", "skos:altLabel", lit("Solar energy", lang="en"))),
     {S + "DISJOINT-PROPERTIES-02"}),
    ("relation-clash", lambda t: _plus(
        t,
        ("ex:solar", "skos:related", "ex:energy"),
        ("ex:energy", "skos:related", "ex:solar")),
     {S + "DATA-MODEL-CONSISTENCY-01"}),
    ("omitted-language-tag", lambda t: _plus(
        t, ("ex:solar", "skos:scopeNote", lit("untagged note"))),
     {S + "LANGUAGE-TAG-CARDINALITY-01"}),
    ("undefined-term", lambda t: _plus(
        t, ("ex:solar", "skos:relatedd", "ex:wind")),
     {S + "VOCABULARY-01"}),
]


def test_criterion_2_fault_injection(eusilc, disco_catalog, skos_catalog):
    global _ACTIVE_NS
    started = time.perf_counter()
    clean_disco = validate(eusilc, disco_catalog)
    thesaurus = load_fixture("thesaurus_clean.ttl")
    clean_skos = validate(thesaurus, skos_catalog)
    failures = []
    if clean_disco.violations:
        failures.append("study fixture is not clean")
    if clean_skos.violations:
        failures.append("thesaurus fixture is not clean")
    exercised = set()
    _ACTIVE_NS = "http://example.org/eusilc/"
    for label, mutate, expected in DISCO_MUTATIONS:
        mutated = Graph(mutate(list(eusilc)))
        got = {v.constraint_id for v in validate(mutated, disco_catalog).violations}
        if got != expected:
            failures.append(f"{label}: expected {sorted(expected)} got {sorted(got)}")
        exercised |= expected
    _ACTIVE_NS = "http://example.org/thesaurus/"
    for label, mutate, expected in SKOS_MUTATIONS:
        mutated = Graph(mutate(list(thesaurus)))
        got = {v.constraint_id for v in validate(mutated, skos_catalog).violations}
        if got != expected:
            failures.append(f"{label}: expected {sorted(expected)} got {sorted(got)}")
        exercised |= expected
    elapsed = time.perf_counter() - started
    ok = not failures and len(exercised) >= 40 and elapsed < 5.0
    detail = (
        f"{len(DISCO_MUTATIONS) + len(SKOS_MUTATIONS)} mutants over "
        f"{len(exercised)} distinct constraints in {elapsed:.2f}s"
    )
    if failures:
        detail += "; " + "; ".join(failures[:4])
    _verdict("2 (fault injection)", ok, detail)


# ===========================================================================
# Criterion 3: Data Cube integrity constraint suite

QB = "DATA-CUBE-C-"

CUBE_MUTATIONS = [
    ("IC-1 lower", lambda t: _drop(t, "ex:o1", "qb:dataSet"),
     QB + "MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-02", Severity.ERROR),
    ("IC-1 upper", lambda t: _plus(
        t,
        ("ex:ds2", "rdf:type", "qb:DataSet"),
        ("ex:ds2", "qb:structure", "ex:dsd"),
        ("ex:o1", "qb:dataSet", "ex:ds2")),
     QB + "MAXIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01", Severity.ERROR),
    ("IC-2", lambda t: _drop(t, "ex:ds", "qb:structure"),
     QB + "EXACT-QUALIFIED-CARDINALITY-RESTRICTIONS-02", Severity.ERROR),
    ("IC-3", lambda t: [x for x in t if not (
        x.subject == _term("ex:dsd") and x.object == _term("ex:compRate"))],
     QB + "EXISTENTIAL-QUANTIFICATIONS-03", Severity.ERROR),
    ("IC-4", lambda t: _drop(t, "ex:refYear", "rdfs:range"),
     QB + "EXISTENTIAL-QUANTIFICATIONS-01", Severity.ERROR),
    ("IC-5", lambda t: _drop(t, "ex:refArea", "qb:codeList"),
     QB + "EXISTENTIAL-QUANTIFICATIONS-02", Severity.ERROR),
    ("IC-6", lambda t: _plus(
        t, ("ex:compArea", "qb:componentRequired", lit("false", "xsd:boolean"))),
     QB + "DATA-MODEL-CONSISTENCY-01", Severity.WARNING),
    ("IC-7", lambda t: _plus(
        t,
        ("ex:key2", "rdf:type", "qb:SliceKey"),
        ("ex:key2", "qb:componentProperty", "ex:refYear")),
     QB + "EXISTENTIAL-QUANTIFICATIONS-04", Severity.ERROR),
    ("IC-8", lambda t: _plus(
        t,
        ("ex:bogusDim", "rdf:type", "qb:ComponentProperty"),
        ("ex:keyYear", "qb:componentProperty", "ex:bogusDim")),
     QB + "DATA-MODEL-CONSISTENCY-02", Severity.ERROR),
    ("IC-9", lambda t: _plus(
        t,
        ("ex:key2", "rdf:type", "qb:SliceKey"),
        ("ex:dsd", "qb:sliceKey", "ex:key2"),
        ("ex:key2", "qb:componentProperty", "ex:refYear"),
        ("ex:slice2021", "qb:sliceStructure", "ex:key2")),
     QB + "EXACT-UNQUALIFIED-CARDINALITY-RESTRICTIONS-01", Severity.ERROR),
    ("IC-10", lambda t: _drop(t, "ex:slice2021", "ex:refYear"),
     QB + "DATA-MODEL-CONSISTENCY-03", Severity.ERROR),
    ("IC-11", lambda t: _drop(t, "ex:o5", "ex:refYear"),
     QB + "DATA-MODEL-CONSISTENCY-04", Severity.ERROR),
    ("IC-12", lambda t: _plus(
        t,
        ("ex:o10", "rdf:type", "qb:Observation"),
        ("ex:o10", "qb:dataSet", "ex:ds"),
        ("ex:o10", "ex:refArea", "ex:areaAT"),
        ("ex:o10", "ex:refYear", lit("2020", "xsd:gYear")),
        ("ex:o10", "ex:careRate", lit("99.9", "xsd:double")),
        ("ex:o10", "ex:unitMeasure", lit("percent"))),
     QB + "DATA-MODEL-CONSISTENCY-05", Severity.WARNING),
    ("IC-13", lambda t: _drop(t, "ex:o3", "ex:unitMeasure"),
     QB + "DATA-MODEL-CONSISTENCY-06", Severity.ERROR),
    ("IC-14", lambda t: _drop(t, "ex:o7", "ex:careRate"),
     QB + "DATA-MODEL-CONSISTENCY-07", Severity.ERROR),
    ("IC-18", lambda t: _plus(
        _drop(t, "ex:o4", "qb:dataSet"),
        ("ex:ds2", "rdf:type", "qb:DataSet"),
        ("ex:ds2", "qb:structure", "ex:dsd"),
        ("ex:o4", "qb:dataSet", "ex:ds2")),
     QB + "DATA-MODEL-CONSISTENCY-11", Severity.WARNING),
    ("IC-19", lambda t: _plus(
        _drop(t, "ex:o6", "ex:refArea"),
        ("ex:areaXX", "rdf:type", "skos:Concept"),
        ("ex:o6", "ex:refArea", "ex:areaXX")),
     QB + "MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01", Severity.ERROR),
]


def test_criterion_3_cube_integrity(cube_fixture, qb_catalog):
    global _ACTIVE_NS
    _ACTIVE_NS = "http://example.org/cube/"
    failures = []
    clean = validate(cube_fixture, qb_catalog)
    if clean.violations:
        failures.append(f"base cube not clean: {clean.counts}")
    for label, mutate, expected_id, expected_severity in CUBE_MUTATIONS:
        mutated = Graph(mutate(list(cube_fixture)))
        report = validate(mutated, qb_catalog)
        got_ids = {v.constraint_id for v in report.violations}
        if got_ids != {expected_id}:
            failures.append(f"{label}: expected {expected_id} got {sorted(got_ids)}")
            continue
        severities = {v.severity for v in report.violations}
        if severities != {expected_severity}:
            failures.append(f"{label}: severity {severities} != {expected_severity}")
    ok = not failures and len(CUBE_MUTATIONS) >= 15
    detail = f"{len(CUBE_MUTATIONS)} targeted IC mutants over the 3x3 cube"
    if failures:
        detail += "; " + "; ".join(failures[:4])
    _verdict("3 (cube integrity)", ok, detail)


# ===========================================================================
# Criterion 4: graph-algorithm oracles


def _closure_self_reachable(nodes, edges):
    reach = {n: set() for n in nodes}
    for a, b in edges:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for n in nodes:
            extra = set()
            for m in reach[n]:
                extra |= reach[m]
            if not extra <= reach[n]:
                reach[n] |= extra
                changed = True
    return {n for n in nodes if n in reach[n]}


def _flood_fill_partition(nodes, edges):
    neighbours = {n: set() for n in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = set()
    parts = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            n = stack.pop()
            if n in comp:
                continue
            comp.add(n)
            stack.extend(neighbours[n] - comp)
        seen |= comp
        parts.append(frozenset(comp))
    return set(parts)


def test_criterion_4_graph_algorithm_oracles():
    rng = random.Random(40424)
    discrepancies = 0
    for _ in range(500):
        n = rng.randrange(1, 31)
        nodes = list(range(n))
        edges = sorted({
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randrange(0, 2 * n))
        })
        succ = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
        comps = strongly_connected_components(nodes, lambda x: succ.get(x, []))
        cyclic = set()
        for comp in comps:
            if len(comp) > 1 or (comp[0], comp[0]) in edges:
                cyclic.update(comp)
        if cyclic != _closure_self_reachable(nodes, edges):
            discrepancies += 1
        got_parts = {
            frozenset(c) for c in weakly_connected_components(nodes, edges)
        }
        if got_parts != _flood_fill_partition(nodes, edges):
            discrepancies += 1
    _verdict(
        "4 (graph-algorithm oracles)",
        discrepancies == 0,
        f"500 digraphs (<=30 nodes), {discrepancies} discrepancies",
    )


# ===========================================================================
# Criterion 5: arithmetic oracles

SUMSTAT = "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType#"
TOL = Fraction(1, 100)


def _random_stats_rows(rng):
    """Rows for one variable with an ordered code list and random numbers;
    returns (rows, per-code dicts, summary dict)."""
    from rdfcheck.terms import BlankNode

    n = rng.randrange(1, 6)
    rows = [("ex:v", "rdf:type", "disco:Variable"),
            ("ex:v", "disco:representation", "ex:repr"),
            ("ex:repr", "rdf:type", "skos:OrderedCollection")]
    spine = [BlankNode(f"s{i}") for i in range(n)]
    rows.append(("ex:repr", "skos:memberList", spine[0]))
    codes = []
    for i in range(n):
        rows.append((spine[i], "rdf:first", iri(f"ex:code{i}")))
        rest = spine[i + 1] if i + 1 < n else iri("rdf:nil")
        rows.append((spine[i], "rdf:rest", rest))
        rows.append((f"ex:code{i}", "rdf:type", "skos:Concept"))
        code = {"pct": None, "cum": None, "freq": None, "valid": None}
        code["valid"] = rng.random() < 0.8
        rows.append((f"ex:code{i}", "disco:isValid",
                     lit("true" if code["valid"] else "false", "xsd:boolean")))
        rows.append((f"ex:cs{i}", "disco:statisticsCategory", f"ex:code{i}"))
        if rng.random() < 0.9:
            code["pct"] = Fraction(rng.randrange(0, 1001), 10)
            rows.append((f"ex:cs{i}", "disco:percentage",
                         lit(f"{float(code['pct']):.1f}", "xsd:double")))
        if rng.random() < 0.9:
            code["cum"] = Fraction(rng.randrange(0, 1001), 10)
            rows.append((f"ex:cs{i}", "disco:cumulativePercentage",
                         lit(f"{float(code['cum']):.1f}", "xsd:double")))
        if rng.random() < 0.9:
            code["freq"] = rng.randrange(0, 200)
            rows.append((f"ex:cs{i}", "disco:frequency",
                         lit(str(code["freq"]), "xsd:nonNegativeInteger")))
        codes.append(code)
    summary = {}
    for idx, (local, key) in enumerate(
        (("NumberOfCases", "cases"), ("ValidCases", "valid"),
         ("InvalidCases", "invalid"))
    ):
        if rng.random() < 0.8:
            summary[key] = rng.randrange(0, 400)
            rows.append((f"ex:sum{idx}", "disco:statisticsVariable", "ex:v"))
            rows.append((f"ex:sum{idx}", "disco:summaryStatisticsType",
                         SUMSTAT + local))
            rows.append((f"ex:sum{idx}", "rdf:value",
                         lit(str(summary[key]), "xsd:nonNegativeInteger")))
    return rows, codes, summary


def _oracle_counts(codes, summary):
    """Violation counts per check, via exact Fraction arithmetic."""
    out = {"pct": 0, "sum": 0, "vpi": 0, "chain": 0, "last": 0}
    if codes and all(c["pct"] is not None for c in codes):
        total = sum(c["pct"] for c in codes)
        if abs(total - 100) > TOL:
            out["pct"] = 1
    if codes and all(c["freq"] is not None for c in codes) and "cases" in summary:
        if sum(c["freq"] for c in codes) != summary["cases"]:
            out["sum"] = 1
    if {"cases", "valid", "invalid"} <= set(summary):
        if summary["valid"] + summary["invalid"] != summary["cases"]:
            out["vpi"] = 1
    if codes and any(c["cum"] is not None for c in codes):
        if all(c["cum"] is not None for c in codes) and all(
            c["pct"] is not None for c in codes
        ):
            running = Fraction(0)
            for c in codes:
                if abs(c["cum"] - (running + c["pct"])) > TOL:
                    out["chain"] += 1
                running = c["cum"]
            if abs(codes[-1]["cum"] - 100) > TOL:
                out["last"] = 1
    return out


def test_criterion_5_arithmetic_oracles():
    rng = random.Random(50525)
    discrepancies = 0
    for _ in range(500):
        rows, codes, summary = _random_stats_rows(rng)
        stats = extract_statistics(ctx_for(Graph([triple(*r) for r in rows])))
        oracle = _oracle_counts(codes, summary)
        got = {
            "pct": len(check_percentage_sum(stats, tolerance=Decimal("0.01"))),
            "sum": len(check_frequency_totals(None, stats, "sum-vs-total")),
            "vpi": len(check_frequency_totals(None, stats, "valid-plus-invalid")),
            "chain": len([
                v for v in check_cumulative_chain(stats, "chain",
                                                  tolerance=Decimal("0.01"))
                if "ordered" not in v.message
            ]),
            "last": len(check_cumulative_chain(stats, "last-100",
                                               tolerance=Decimal("0.01"))),
        }
        if got != oracle:
            discrepancies += 1
    _verdict(
        "5 (arithmetic oracles)",
        discrepancies == 0,
        f"500 statistics fixtures at tolerance 0.01, {discrepancies} discrepancies",
    )


# ===========================================================================
# Criterion 6: counting oracle


def test_criterion_6_counting_oracle():
    rng = random.Random(60626)
    discrepancies = 0
    scope = expand("ex:Focus")
    prop = expand("ex:p")
    qualifier = expand("ex:Q")
    for _ in range(500):
        rows = []
        focus_count = rng.randrange(0, 6)
        per_focus_values = {}
        for f in range(focus_count):
            node = f"ex:f{f}"
            rows.append((node, "rdf:type", "ex:Focus"))
            values = set()
            for _ in range(rng.randrange(0, 6)):
                v = f"ex:val{rng.randrange(8)}"
                values.add(v)
                rows.append((node, prop, v))
            per_focus_values[expand(node)] = values
        # typing is a property of the value node, shared across foci
        all_values = set().union(*per_focus_values.values()) if per_focus_values else set()
        typed_values = {v for v in all_values if rng.random() < 0.5}
        for v in sorted(typed_values):
            rows.append((v, "rdf:type", "ex:Q"))
        expected_counts = {
            node: (len(values), len(values & typed_values))
            for node, values in per_focus_values.items()
        }
        # pad with unrelated noise triples up to <=100 total
        for _ in range(rng.randrange(0, 40)):
            rows.append((f"ex:n{rng.randrange(10)}", f"ex:q{rng.randrange(4)}",
                         f"ex:m{rng.randrange(10)}"))
        g = Graph([triple(*r) for r in rows])
        assert len(g) <= 100
        lo, hi = rng.randrange(0, 4), rng.randrange(0, 4)
        use_qualifier = rng.random() < 0.5
        out = check_cardinality(
            ctx_for(g), prop, scope, min=lo, max=hi,
            qualifier_class=qualifier if use_qualifier else None,
        )
        got = {(v.focus, int(v.detail)) for v in out}
        expected = set()
        for node, (all_count, qualified_count) in expected_counts.items():
            count = qualified_count if use_qualifier else all_count
            if count < lo or count > hi:
                expected.add((f"<{node}>", count))
        if got != expected:
            discrepancies += 1
    _verdict(
        "6 (counting oracle)",
        discrepancies == 0,
        f"500 random graphs (<=100 triples), {discrepancies} discrepancies",
    )


# ===========================================================================
# Criterion 7: determinism across repeated runs


def test_criterion_7_determinism(eusilc, disco_catalog):
    outputs = set()
    for _round in range(20):
        outputs.add(write_json(validate(eusilc, disco_catalog)))
    _verdict(
        "7 (determinism)",
        len(outputs) == 1,
        f"20 runs produced {len(outputs)} distinct JSON byte string(s)",
    )


# ===========================================================================
# Criterion 8: parser conformance


def test_criterion_8_parser_conformance(capsys):
    rng = random.Random(80828)
    triples = []
    for i in range(1000):
        s = Iri(f"http://node/{rng.randrange(300)}")
        p = Iri(f"http://prop/{rng.randrange(50)}")
        roll = rng.random()
        if roll < 0.5:
            o = Iri(f"http://node/{rng.randrange(300)}")
        elif roll < 0.75:
            o = Literal(rng.choice(["text", 'with "quotes"', "new\nline", "väl"]))
        else:
            o = Literal(str(rng.randrange(10**6)),
                        datatype="http://www.w3.org/2001/XMLSchema#integer")
        triples.append(Triple(s, p, o))
    corpus = Graph(triples)
    roundtrip_ok = isomorphic(corpus, parse_ntriples(serialize_ntriples(corpus)))

    fixtures_ok = True
    for name in ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl",
                 "thesaurus_cycle.ttl"):
        g = load_fixture(name)
        fixtures_ok &= isomorphic(g, parse_ntriples(serialize_ntriples(g)))

    corpus_dir = FIXTURES / "malformed"
    malformed = sorted(corpus_dir.iterdir())
    bad = []
    for path in malformed:
        code = run_cli([str(path)])
        err = capsys.readouterr().err
        if code != 2 or "line " not in err:
            bad.append(path.name)
    ok = roundtrip_ok and fixtures_ok and len(malformed) >= 20 and not bad
    _verdict(
        "8 (parser conformance)",
        ok,
        f"1000-triple corpus round-trip={roundtrip_ok}, fixtures={fixtures_ok}, "
        f"{len(malformed)} malformed cases, {len(bad)} without exit-2 diagnostics",
    )


# ===========================================================================
# Criterion 9: severity semantics


def test_criterion_9_severity_semantics(capsys):
    cycle = str(FIXTURES / "thesaurus_cycle.ttl")
    failures = []
    # warnings-only run: fail-on error passes, fail-on warning fails
    if run_cli(["--vocab", "skos", "--output", "/dev/null", cycle]) != 0:
        failures.append("fail-on error did not exit 0")
    if run_cli(["--vocab", "skos", "--fail-on", "warning", "--output", "/dev/null",
                cycle]) != 1:
        failures.append("fail-on warning did not exit 1")
    if run_cli(["--vocab", "skos", "--fail-on", "info", "--output", "/dev/null",
                cycle]) != 1:
        failures.append("fail-on info did not exit 1")

    levels = ("info", "warning", "error")
    counts = {}
    for threshold in levels:
        for fail_on in levels:
            code = run_cli([
                "--vocab", "skos", "--fail-on", fail_on,
                "--severity-threshold", threshold, "--report", "json", cycle,
            ])
            doc = json.loads(capsys.readouterr().out)
            total = sum(doc["summary"].values())
            counts[(threshold, fail_on)] = total
            # exit code never depends on the display threshold
            expected_exit = 1 if fail_on in ("info", "warning") else 0
            if code != expected_exit:
                failures.append(f"threshold={threshold} fail-on={fail_on}: "
                                f"exit {code}")
    # raising the threshold never adds violations, for any fail-on column
    for fail_on in levels:
        series = [counts[(t, fail_on)] for t in levels]
        if series != sorted(series, reverse=True):
            failures.append(f"threshold filtering not monotone for {fail_on}")
    _verdict(
        "9 (severity semantics)",
        not failures,
        "exhaustive 3x3 threshold/fail-on matrix" + (
            "; " + "; ".join(failures) if failures else ""
        ),
    )
