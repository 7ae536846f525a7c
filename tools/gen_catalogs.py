#!/usr/bin/env python3
"""Regenerate the built-in catalog data files under src/rdfcheck/data/.

The vocabulary inventories (class/property lists, domain and range tables)
are maintained here as Python tables; disjoint-property exemptions are
computed from the declared signatures (two properties sharing both domain
and range are not treated as disjoint).
"""

from __future__ import annotations

import json
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "src" / "rdfcheck" / "data"

DDICV_SCHEME = "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType"
DDICV = DDICV_SCHEME + "#"

SUMMARY_STATISTIC_TYPES = [
    DDICV + name
    for name in (
        "ArithmeticMean", "InvalidCases", "Maximum", "Median", "Minimum", "Mode",
        "NumberOfCases", "StandardDeviation", "ValidCases",
    )
]


def compute_exempt_pairs(domains: dict, ranges: dict, properties: list[str]) -> list:
    """Pairs with identical declared domain and range are not disjoint."""

    def signature(prop: str) -> tuple:
        dom = tuple(sorted(domains.get(prop, [])))
        rng = ranges.get(prop)
        if rng is None:
            rng_key = ("unconstrained",)
        else:
            rng_key = (
                tuple(sorted(rng.get("classes", []))),
                rng.get("datatype", ""),
            )
        return dom, rng_key

    exempt = []
    ordered = sorted(properties)
    for i, p in enumerate(ordered):
        for q in ordered[i + 1 :]:
            if signature(p) == signature(q):
                exempt.append([p, q])
    return exempt


def presence(cid, severity, scope, props=None, path=None, qualifier=None,
             reference="", description=""):
    params = {"scope": scope}
    if props:
        params["properties"] = props
    if path:
        params["path"] = path
    if qualifier:
        params["qualifier_class"] = qualifier
    entry = {"id": cid, "type": "presence", "severity": severity, "params": params}
    if reference:
        entry["reference"] = reference
    if description:
        entry["description"] = description
    return entry


def entry(cid, type_, severity, params=None, reference="", description=""):
    out = {"id": cid, "type": type_, "severity": severity, "params": params or {}}
    if reference:
        out["reference"] = reference
    if description:
        out["description"] = description
    return out


# ===========================================================================
# DISCO

DISCO_CLASSES = [
    "disco:AnalysisUnit", "disco:CategoryStatistics", "disco:CollectionMode",
    "disco:DataFile", "disco:DescriptiveStatistics", "disco:Instrument",
    "disco:LogicalDataSet", "disco:Question", "disco:Questionnaire",
    "disco:Representation", "disco:RepresentedVariable", "disco:Study",
    "disco:StudyGroup", "disco:SummaryStatistics", "disco:Universe",
    "disco:Variable",
]

DISCO_DOMAINS = {
    "disco:aggregation": ["disco:LogicalDataSet"],
    "disco:analysisUnit": ["disco:Study", "disco:StudyGroup"],
    "disco:basedOn": ["disco:Variable"],
    "disco:basisOf": ["disco:RepresentedVariable"],
    "disco:caseQuantity": ["disco:DataFile"],
    "disco:categoryStatistics": ["skos:Concept"],
    "disco:collectionMode": ["disco:Study"],
    "disco:computationBase": ["disco:CategoryStatistics"],
    "disco:concept": ["disco:Variable", "disco:Question", "disco:RepresentedVariable"],
    "disco:containsVariable": ["disco:LogicalDataSet"],
    "disco:cumulativePercentage": ["disco:CategoryStatistics"],
    "disco:dataFile": ["disco:LogicalDataSet"],
    "disco:dataSet": ["disco:Study"],
    "disco:ddifile": ["disco:Study", "disco:StudyGroup"],
    "disco:endDate": ["disco:Study"],
    "disco:externalDocumentation": ["disco:Instrument"],
    "disco:frequency": ["disco:CategoryStatistics"],
    "disco:fundedBy": ["disco:Study", "disco:StudyGroup"],
    "disco:inGroup": ["disco:Study"],
    "disco:inputVariable": ["disco:Variable"],
    "disco:instrument": ["disco:Study"],
    "disco:isPublic": ["disco:LogicalDataSet"],
    "disco:isValid": ["skos:Concept"],
    "disco:kindOfData": ["disco:Study", "disco:StudyGroup"],
    "disco:percentage": ["disco:CategoryStatistics"],
    "disco:purpose": ["disco:Study", "disco:StudyGroup"],
    "disco:question": ["disco:Questionnaire", "disco:Variable"],
    "disco:questionVariable": ["disco:Question"],
    "disco:questionText": ["disco:Question"],
    "disco:representation": ["disco:Variable", "disco:RepresentedVariable"],
    "disco:responseDomain": ["disco:Question"],
    "disco:startDate": ["disco:Study"],
    "disco:statisticsCategory": ["disco:CategoryStatistics"],
    "disco:statisticsDataFile": ["disco:DescriptiveStatistics"],
    "disco:statisticsVariable": ["disco:SummaryStatistics"],
    "disco:summaryStatistics": ["disco:Variable"],
    "disco:summaryStatisticsType": ["disco:SummaryStatistics"],
    "disco:universe": [
        "disco:Study", "disco:StudyGroup", "disco:LogicalDataSet", "disco:Variable",
        "disco:RepresentedVariable", "disco:Question",
    ],
    "disco:variable": ["disco:LogicalDataSet"],
    "disco:variableQuantity": ["disco:LogicalDataSet", "disco:DataFile"],
    "disco:weightedBy": ["disco:Variable"],
}

_REPRESENTATION_CLASSES = ["skos:OrderedCollection", "skos:ConceptScheme", "rdfs:Datatype"]

DISCO_RANGES = {
    "disco:aggregation": {"classes": ["qb:DataSet"]},
    "disco:analysisUnit": {"classes": ["disco:AnalysisUnit"]},
    "disco:basedOn": {"classes": ["disco:RepresentedVariable"]},
    "disco:basisOf": {"classes": ["disco:Variable"]},
    "disco:caseQuantity": {"datatype": "xsd:nonNegativeInteger"},
    "disco:categoryStatistics": {"classes": ["disco:CategoryStatistics"]},
    "disco:collectionMode": {"classes": ["disco:CollectionMode"]},
    "disco:computationBase": {"datatype": "rdf:langString"},
    "disco:concept": {"classes": ["skos:Concept"]},
    "disco:containsVariable": {"classes": ["disco:Variable"]},
    "disco:cumulativePercentage": {"datatype": "xsd:double"},
    "disco:dataFile": {"classes": ["disco:DataFile"]},
    "disco:dataSet": {"classes": ["disco:LogicalDataSet"]},
    "disco:endDate": {"datatype": "xsd:date"},
    "disco:frequency": {"datatype": "xsd:nonNegativeInteger"},
    "disco:inGroup": {"classes": ["disco:StudyGroup"]},
    "disco:inputVariable": {"classes": ["disco:Variable"]},
    "disco:instrument": {"classes": ["disco:Instrument"]},
    "disco:isPublic": {"datatype": "xsd:boolean"},
    "disco:isValid": {"datatype": "xsd:boolean"},
    "disco:kindOfData": {"datatype": "xsd:string"},
    "disco:percentage": {"datatype": "xsd:double"},
    "disco:purpose": {"datatype": "rdf:langString"},
    "disco:question": {"classes": ["disco:Question"]},
    "disco:questionVariable": {"classes": ["disco:Variable"]},
    "disco:questionText": {"datatype": "rdf:langString"},
    "disco:representation": {"classes": _REPRESENTATION_CLASSES},
    "disco:responseDomain": {"classes": _REPRESENTATION_CLASSES},
    "disco:startDate": {"datatype": "xsd:date"},
    "disco:statisticsCategory": {"classes": ["skos:Concept"]},
    "disco:statisticsDataFile": {"classes": ["disco:DataFile"]},
    "disco:statisticsVariable": {"classes": ["disco:Variable"]},
    "disco:summaryStatistics": {"classes": ["disco:SummaryStatistics"]},
    "disco:summaryStatisticsType": {"classes": ["skos:Concept"]},
    "disco:universe": {"classes": ["disco:Universe"]},
    "disco:variable": {"classes": ["disco:Variable"]},
    "disco:variableQuantity": {"datatype": "xsd:nonNegativeInteger"},
    "disco:weightedBy": {"classes": ["disco:Variable"]},
}

DISCO_PROPERTIES = sorted(DISCO_DOMAINS)


def disco_constraints() -> list[dict]:
    out = [
        entry("DISCO-C-SUBSUMPTION-01", "subsumption", "error",
              {"class": "disco:Universe", "superclass": "skos:Concept"},
              description="Every universe must also be a skos:Concept."),
        entry("DISCO-C-CLASS-EQUIVALENCE-01", "class-equivalence", "info",
              {"class1": "sio:SIO_000367", "class2": "disco:Variable"},
              description="SIO variables and disco variables are the same things."),
        entry("DISCO-C-SUB-PROPERTIES-01", "subproperty", "error",
              {"property": "disco:fundedBy", "superproperty": "dcterms:contributor"}),
        entry("DISCO-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": DISCO_DOMAINS}),
        entry("DISCO-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": DISCO_RANGES}),
        entry("DISCO-C-INVERSE-OBJECT-PROPERTIES-01", "inverse-pair", "error",
              {"property": "disco:statisticsCategory",
               "inverse": "disco:categoryStatistics"},
              description="Category statistics are reachable from their codes."),
        entry("DISCO-C-INVERSE-OBJECT-PROPERTIES-02", "inverse-pair", "error",
              {"property": "disco:statisticsVariable",
               "inverse": "disco:summaryStatistics"},
              description="Summary statistics are reachable from their variables."),
        entry("DISCO-C-INVERSE-OBJECT-PROPERTIES-03", "inverse-pair", "error",
              {"property": "disco:question", "inverse": "disco:questionVariable",
               "scope": "disco:Variable"},
              description="Variables are reachable from their questions."),
        entry("DISCO-C-ASYMMETRIC-OBJECT-PROPERTIES-01", "asymmetric-property",
              "error", {"property": "disco:basedOn"},
              description="A represented variable cannot be based on a variable "
                          "that is based on it."),
        entry("DISCO-C-IRREFLEXIVE-OBJECT-PROPERTIES-01", "irreflexive-table",
              "error", {"vocabulary": "disco"},
              description="No individual points at itself through any property "
                          "of this vocabulary."),
        entry("DISCO-C-CLASS-SPECIFIC-IRREFLEXIVE-OBJECT-PROPERTIES-01",
              "irreflexive-property", "error",
              {"property": "skos:broader", "scope": "skos:Concept"}),
        entry("DISCO-C-CLASS-SPECIFIC-IRREFLEXIVE-OBJECT-PROPERTIES-02",
              "irreflexive-property", "error",
              {"property": "skos:narrower", "scope": "skos:Concept"}),
        entry("DISCO-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "disco",
               "exempt_pairs": compute_exempt_pairs(DISCO_DOMAINS, DISCO_RANGES,
                                                    DISCO_PROPERTIES)}),
        entry("DISCO-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "disco"}),
        entry("DISCO-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties", "info",
              {"vocabulary": "disco"},
              description="disco:containsVariable and disco:variable carry the "
                          "same meaning and must mirror each other."),
        entry("DISCO-C-DATA-PROPERTY-FACETS-01", "data-property-facets", "warning",
              {"property": "dcterms:abstract", "scope": "disco:StudyGroup",
               "min_length": 80},
              description="Series abstracts need a useful minimum length "
                          "(default 80 characters, overridable)."),
        entry("DISCO-C-DATA-PROPERTY-FACETS-02", "data-property-facets", "warning",
              {"property": "dcterms:abstract", "scope": "disco:Study",
               "min_length": 80},
              description="Study abstracts need a useful minimum length "
                          "(default 80 characters, overridable)."),
        entry("DISCO-C-LITERAL-PATTERN-MATCHING-01", "literal-pattern", "info",
              {"property": "skos:notation", "scope": "disco:Variable"},
              description="Variable names may be required to carry a deployment-"
                          "specific prefix; configure the pattern to enable."),
        entry("DISCO-C-NEGATIVE-LITERAL-PATTERN-MATCHING-01", "literal-pattern",
              "info", {"negated": True},
              description="Published without a concrete body; configure "
                          "property and pattern to enable."),
        entry("DISCO-C-DISJUNCTION-01", "property-domain", "error",
              {"property": "disco:concept",
               "classes": ["disco:Variable", "disco:Question",
                            "disco:RepresentedVariable"]},
              description="Only variables, questions, or represented variables "
                          "may have theoretical concepts."),
    ]

    # Existential quantifications: required/suggested links per class.
    ex = "DISCO-C-EXISTENTIAL-QUANTIFICATIONS-"
    coverage = [("dcterms:temporal", "temporal"), ("dcterms:spatial", "spatial"),
                ("dcterms:subject", "topical")]
    out += [
        entry(ex + "01", "cardinality", "error",
              {"property": "disco:universe", "scope": "disco:StudyGroup", "min": 1,
               "qualifier_class": "disco:Universe"}),
        entry(ex + "02", "cardinality", "error",
              {"property": "disco:universe", "scope": "disco:Study", "min": 1,
               "qualifier_class": "disco:Universe"}),
        presence(ex + "03", "info", "disco:RepresentedVariable", ["disco:universe"]),
        presence(ex + "04", "info", "disco:Variable", ["disco:universe"]),
        presence(ex + "05", "info", "disco:Question", ["disco:universe"]),
        presence(ex + "06", "info", "disco:LogicalDataSet", ["disco:universe"]),
        presence(ex + "07", "info", "disco:StudyGroup", ["disco:ddifile"]),
        presence(ex + "08", "info", "disco:Study", ["disco:ddifile"]),
        presence(ex + "09", "info", "disco:StudyGroup", ["disco:kindOfData"]),
        presence(ex + "10", "info", "disco:Study", ["disco:kindOfData"]),
    ]
    n = 11
    for scope in ("disco:StudyGroup", "disco:Study", "disco:LogicalDataSet",
                  "disco:DataFile"):
        for prop, what in coverage:
            out.append(presence(
                ex + f"{n:02d}", "info", scope, [prop],
                description=f"Knowing the {what} coverage enables faceted search.",
            ))
            n += 1
    out += [
        presence(ex + "23", "info", "disco:StudyGroup", ["dcterms:creator"]),
        presence(ex + "24", "info", "disco:Study", ["dcterms:creator"]),
        presence(ex + "25", "info", "disco:Study",
                 path=["disco:dataSet", "disco:variable", "^disco:statisticsVariable"],
                 qualifier="disco:SummaryStatistics",
                 description="Studies with summary statistics support deeper "
                             "analyses."),
        presence(ex + "26", "info", "disco:Study",
                 path=["disco:dataSet", "disco:variable", "disco:representation",
                       "@members", "^disco:statisticsCategory"],
                 qualifier="disco:CategoryStatistics",
                 description="Studies with category statistics support deeper "
                             "analyses."),
        presence(ex + "27", "error", "disco:Study", ["disco:dataSet"],
                 description="A study without data sets has no description of "
                             "its data."),
        presence(ex + "28", "warning", "disco:LogicalDataSet", ["disco:dataFile"]),
        presence(ex + "29", "warning", "disco:DataFile", ["disco:caseQuantity"]),
        presence(ex + "30", "warning", "disco:DataFile", ["disco:variableQuantity"]),
        presence(ex + "31", "warning", "disco:LogicalDataSet",
                 ["disco:variableQuantity"]),
        presence(ex + "32", "error", "disco:SummaryStatistics",
                 ["disco:summaryStatisticsType"]),
        presence(ex + "33", "error", "disco:SummaryStatistics", ["rdf:value"]),
        presence(ex + "34", "error", "disco:SummaryStatistics",
                 ["disco:statisticsVariable"]),
        presence(ex + "35", "error", "disco:CategoryStatistics",
                 ["disco:statisticsCategory"]),
        presence(ex + "36", "error", "disco:CategoryStatistics",
                 ["disco:frequency", "disco:percentage",
                  "disco:cumulativePercentage"],
                 description="Category statistics must state at least one of "
                             "frequency, percentage, or cumulative percentage."),
        entry(ex + "37", "conditional-properties", "info",
              {"scope": "skos:Concept", "if_present": ["skos:notation"],
               "require_all": ["skos:prefLabel"]},
              description="Codes should carry human-readable category labels."),
        presence(ex + "38", "info", "disco:Instrument",
                 ["disco:externalDocumentation"]),
        presence(ex + "39", "error", "disco:Question", ["disco:questionText"]),
        presence(ex + "40", "info", "disco:Question", ["disco:responseDomain"]),
        presence(ex + "41", "info", "disco:Questionnaire", ["disco:question"]),
        presence(ex + "42", "info", "disco:Question", ["skos:prefLabel"],
                 description="Questions may carry question numbers."),
        presence(ex + "43", "info", "disco:Variable", ["disco:question"]),
        presence(ex + "44", "info", "disco:LogicalDataSet", ["disco:variable"]),
        presence(ex + "45", "info", "disco:Variable", ["disco:concept"]),
        presence(ex + "46", "warning", "disco:Variable", ["disco:representation"]),
    ]

    out += [
        entry("DISCO-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {"disco:aggregation": {"classes": ["qb:DataSet"],
                                                 "scope": "disco:LogicalDataSet"}}}),
        entry("DISCO-C-MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality-table", "error",
              {"rules": [{"property": "disco:question",
                          "scope": "disco:Questionnaire", "min": 1,
                          "qualifier_class": "disco:Question"}]}),
        entry("DISCO-C-MAXIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality", "error",
              {"property": "disco:concept", "scope": "disco:Variable", "max": 1,
               "qualifier_class": "skos:Concept"}),
        entry("DISCO-C-EXACT-QUALIFIED-CARDINALITY-RESTRICTIONS-01", "cardinality",
              "error",
              {"property": "disco:universe", "scope": "disco:Question", "min": 1,
               "max": 1, "qualifier_class": "disco:Universe"}),
        entry("DISCO-C-CONTEXT-SPECIFIC-EXCLUSIVE-OR-OF-PROPERTY-GROUPS-01",
              "exclusive-property-groups", "info",
              {"scope": "skos:Concept",
               "groups": [["skos:definition"],
                           ["skos:notation", "skos:prefLabel"]]},
              description="A concept is either a theoretical concept (with a "
                          "definition) or a code with notation and label, not "
                          "both."),
        entry("DISCO-C-ALLOWED-VALUES-01", "allowed-values", "error",
              {"property": "disco:computationBase",
               "scope": "disco:CategoryStatistics",
               "values": [{"lexical": "valid", "lang": "en"},
                           {"lexical": "invalid", "lang": "en"}]}),
        entry("DISCO-C-LITERAL-RANGES-01", "literal-range", "error",
              {"property": "disco:percentage", "scope": "disco:CategoryStatistics",
               "datatype": "xsd:double", "min": 0, "max": 100}),
        entry("DISCO-C-LITERAL-RANGES-02", "literal-range", "error",
              {"property": "disco:cumulativePercentage",
               "scope": "disco:CategoryStatistics",
               "datatype": "xsd:double", "min": 0, "max": 100}),
        entry("DISCO-C-INVERSE-FUNCTIONAL-PROPERTIES-01", "uniqueness-key", "error",
              {"property": "adms:identifier"},
              description="An identifier may belong to at most one resource."),
        entry("DISCO-C-INVERSE-FUNCTIONAL-PROPERTIES-02", "uniqueness-key", "error",
              {},
              description="General key constraints; configure the key property "
                          "to enable."),
        entry("DISCO-C-CLASS-SPECIFIC-PROPERTY-RANGE-01", "property-range", "error",
              {"property": "disco:questionText", "datatype": "rdf:langString",
               "scope": "disco:Question"},
              description="Only questions may have question texts, and those "
                          "are language-tagged literals."),
        entry("DISCO-C-MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01",
              "vocab-membership", "error",
              {"property": "disco:summaryStatisticsType",
               "scope": "disco:SummaryStatistics",
               "scheme": DDICV_SCHEME}),
        entry("DISCO-C-IRI-PATTERN-MATCHING-01", "iri-pattern", "info",
              {"position": "subject", "scope": "disco:Study"},
              description="Study IRIs may be required to match a deployment-"
                          "specific pattern; configure it to enable."),
        entry("DISCO-C-LITERAL-VALUE-COMPARISON-01", "literal-comparison", "error",
              {"property1": "disco:startDate", "property2": "disco:endDate",
               "op": "<", "scope": "disco:Study"}),
        entry("DISCO-C-ORDERING-01", "ordering", "info",
              {"container": "disco:LogicalDataSet", "link": "disco:variable",
               "member_type": "disco:Variable", "mode": "linked-collection"}),
        entry("DISCO-C-ORDERING-02", "ordering", "info",
              {"container": "disco:Questionnaire", "link": "disco:question",
               "member_type": "disco:Question", "mode": "linked-collection"}),
        entry("DISCO-C-ORDERING-03", "ordering", "info",
              {"container": "disco:Variable", "link": "disco:representation",
               "member_type": "skos:Concept", "mode": "representation"}),
        entry("DISCO-C-STRING-OPERATIONS-01", "string-composition", "info",
              {"scope": "disco:Study", "target": "dcterms:title",
               "parts": [{"path": ["disco:inGroup", "dcterms:title"]},
                          {"path": ["rdfs:label"]}],
               "separator": " "},
              description="A study title may be composed of the series title "
                          "and the study label."),
        entry("DISCO-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "disco", "kind": "classes"}),
        entry("DISCO-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01", "deprecated-terms",
              "info", {"vocabulary": "disco", "kind": "properties"}),
        entry("DISCO-C-DEFAULT-VALUES-01", "default-values", "info",
              {"defaults": [{"scope": "disco:LogicalDataSet",
                              "property": "disco:isPublic",
                              "value": {"lexical": "false",
                                         "datatype": "xsd:boolean"}}]},
              description="Access to data sets is restricted unless stated "
                          "otherwise."),
        entry("DISCO-C-MATHEMATICAL-OPERATIONS-01", "percentage-sum", "error", {},
              description="Category percentages over a code list must sum to "
                          "exactly 100."),
        entry("DISCO-C-MATHEMATICAL-OPERATIONS-02", "frequency-totals", "error",
              {"mode": "sum-vs-total"},
              description="Code frequencies must sum to the number of cases."),
        entry("DISCO-C-MATHEMATICAL-OPERATIONS-03", "frequency-totals", "error",
              {"mode": "valid-plus-invalid"},
              description="Valid plus invalid cases must equal the number of "
                          "cases."),
        entry("DISCO-C-MATHEMATICAL-OPERATIONS-04", "frequency-totals", "error",
              {"mode": "country-totals"},
              description="Per-country case counts must sum to the 'All' total; "
                          "configure the country annotation property to enable."),
        entry("DISCO-C-MATHEMATICAL-OPERATIONS-05", "min-max-consistency", "error",
              {}),
        entry("DISCO-C-LANGUAGE-TAG-MATCHING-01", "language-tag", "info",
              {"property": "skos:notation", "scope": "disco:Variable",
               "languages": ["en"], "min_per_lang": 1},
              description="Each variable needs an English variable name."),
        entry("DISCO-C-LANGUAGE-TAG-CARDINALITY-01", "language-tag", "info",
              {"property": "disco:questionText", "scope": "disco:Question",
               "languages": ["en"], "min_per_lang": 1}),
        entry("DISCO-C-LANGUAGE-TAG-CARDINALITY-02", "language-tag", "info",
              {"property": "skos:notation", "scope": "disco:Variable",
               "languages": ["en"], "max_per_lang": 1}),
        entry("DISCO-C-LANGUAGE-TAG-CARDINALITY-03", "language-tag", "info",
              {"property": "disco:questionText", "scope": "disco:Question",
               "languages": ["en"], "min_per_lang": 1,
               "allow_untagged_as": "en"},
              description="At least one question text tagged English, counting "
                          "untagged texts as English."),
        entry("DISCO-C-WHITESPACE-HANDLING-01", "whitespace", "info",
              {"property": "dcterms:abstract",
               "scopes": ["disco:StudyGroup", "disco:Study"]}),
        entry("DISCO-C-HTML-HANDLING-01", "html-balance", "info",
              {"vocabulary": "disco", "mode": "vocab-properties"}),
        entry("DISCO-C-HTML-HANDLING-02", "html-balance", "info",
              {"vocabulary": "disco", "mode": "class-subjects"}),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-01", "conditional-properties",
              "error",
              {"scope": "skos:Concept",
               "if_present": ["skos:notation", "skos:prefLabel"],
               "require_all": ["disco:isValid"]},
              description="A concept acting as code and category must state "
                          "whether the code is valid."),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-02", "conditional-properties",
              "warning",
              {"scope": "disco:StudyGroup",
               "if_absent": ["dcterms:abstract", "disco:ddifile"],
               "require_any": ["dcterms:title", "dcterms:alternative"]}),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-03", "conditional-properties",
              "warning",
              {"scope": "disco:Study",
               "if_absent": ["dcterms:abstract", "disco:ddifile"],
               "require_any": ["dcterms:title", "dcterms:alternative"]}),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-04", "conditional-properties",
              "error",
              {"scope": "disco:StudyGroup",
               "if_absent": ["dcterms:abstract", "disco:ddifile", "dcterms:title",
                              "dcterms:alternative"]}),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-05", "conditional-properties",
              "error",
              {"scope": "disco:Study",
               "if_absent": ["dcterms:abstract", "disco:ddifile", "dcterms:title",
                              "dcterms:alternative"]}),
        entry("DISCO-C-CONDITIONAL-PROPERTIES-06", "conditional-properties",
              "error",
              {"scope": "disco:CategoryStatistics",
               "if_present": ["disco:statisticsCategory"],
               "via": "disco:statisticsCategory",
               "require_all": ["disco:isValid", "skos:notation"]}),
        presence("DISCO-C-RECOMMENDED-PROPERTIES-01", "info", "disco:Variable",
                 ["skos:notation"],
                 description="Variable names via skos:notation are recommended."),
        entry("DISCO-C-HANDLE-RDF-COLLECTIONS-01", "variable-comparability",
              "info", {"mode": "sizes"},
              description="Comparable variables should have equally sized code "
                          "lists; configure the comparison group to enable."),
        entry("DISCO-C-HANDLE-RDF-COLLECTIONS-02", "aggregation", "info",
              {"scope": "disco:LogicalDataSet",
               "kind": "collection-size-vs-declared",
               "declared_property": "disco:variableQuantity"},
              description="An attached variable collection must match the "
                          "declared variable quantity."),
        entry("DISCO-C-VALUE-IS-VALID-FOR-DATATYPE-01", "value-datatype", "error",
              {"properties": ["disco:startDate", "disco:endDate", "dcterms:date"],
               "datatype": "xsd:date"},
              description="Date-valued properties must carry real xsd:date "
                          "values."),
        entry("DISCO-C-VALUE-IS-VALID-FOR-DATATYPE-02", "value-datatype", "error",
              {"properties": ["disco:frequency"],
               "datatype": "xsd:nonNegativeInteger"},
              description="Frequencies cannot be negative."),
        entry("DISCO-C-USE-SUB-SUPER-RELATIONS-IN-VALIDATION-01",
              "subsuper-redundancy", "info",
              {"general": "dcterms:coverage",
               "specifics": ["dcterms:spatial", "dcterms:temporal"]}),
        entry("DISCO-C-USE-SUB-SUPER-RELATIONS-IN-VALIDATION-02",
              "subsuper-redundancy", "info",
              {"general": "dcterms:contributor", "specifics": ["disco:fundedBy"]}),
        entry("DISCO-C-AGGREGATION-01", "aggregation", "info",
              {"scope": "disco:Study",
               "path": ["disco:dataSet", "disco:variable", "disco:concept"]},
              description="Number of theoretical concepts behind a study."),
        entry("DISCO-C-AGGREGATION-02", "aggregation", "info",
              {"scope": "disco:LogicalDataSet", "path": ["disco:variable"]},
              description="Number of variables of a data set."),
        entry("DISCO-C-AGGREGATION-03", "aggregation", "info",
              {"scope": "disco:Questionnaire", "path": ["disco:question"]},
              description="Number of questions in a questionnaire."),
        entry("DISCO-C-AGGREGATION-04", "aggregation", "info",
              {"scope": "disco:Variable",
               "path": ["disco:representation", "@members"]},
              description="Number of codes of a variable; configure a maximum "
                          "to turn the metric into a check."),
        entry("DISCO-C-AGGREGATION-05", "aggregation", "info",
              {"scope": "disco:Questionnaire", "path": ["disco:question"]},
              description="Question count per questionnaire; configure the "
                          "expected value to turn the metric into a check."),
        entry("DISCO-C-AGGREGATION-06", "percentage-sum", "info", {},
              description="Percentages of all codes of a variable sum to 100."),
        entry("DISCO-C-AGGREGATION-07", "aggregation", "info",
              {"scope": "disco:Variable", "kind": "valid-frequency-sum"},
              description="Frequency sum over valid codes; configure the "
                          "expected value to turn the metric into a check."),
        presence("DISCO-C-PROVENANCE-01", "info", "disco:StudyGroup",
                 ["dcterms:provenance"]),
        presence("DISCO-C-PROVENANCE-02", "info", "disco:Study",
                 ["dcterms:provenance"]),
        presence("DISCO-C-PROVENANCE-03", "info", "disco:LogicalDataSet",
                 ["dcterms:provenance"]),
        presence("DISCO-C-PROVENANCE-04", "info", "disco:DataFile",
                 ["dcterms:provenance"]),
        entry("DISCO-C-COMPARISON-VARIABLES-01", "variable-comparability",
              "warning", {"mode": "sizes"},
              description="Compared variables should have comparable code "
                          "lists; configure the comparison group to enable."),
        entry("DISCO-C-COMPARISON-VARIABLES-02", "variable-comparability",
              "error", {"mode": "descriptions"}),
        entry("DISCO-C-COMPARISON-VARIABLES-03", "variable-comparability",
              "error", {"mode": "structure"}),
        entry("DISCO-C-COMPARISON-VARIABLES-04", "variable-comparability",
              "info", {"mode": "labels"}),
        entry("DISCO-C-COMPARISON-VARIABLES-05", "variable-comparability",
              "error", {"mode": "presence"}),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-01", "cumulative-chain", "error",
              {"mode": "chain"},
              description="Each cumulative percentage is the previous one plus "
                          "the current percentage."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-02", "cumulative-chain", "error",
              {"mode": "last-100"},
              description="The cumulative percentage of the last code is 100."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-03", "frequency-totals", "error",
              {"mode": "valid-sum"},
              description="Valid cases equal the frequency sum over valid "
                          "codes."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-04", "frequency-totals", "error",
              {"mode": "invalid-sum"},
              description="Invalid cases equal the frequency sum over invalid "
                          "codes."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-05", "frequency-totals", "error",
              {"mode": "valid-plus-invalid"},
              description="The number of cases equals valid plus invalid "
                          "cases."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-06", "statistic-applicability",
              "error", {"mode": "string-stats"},
              description="Minimum, maximum, and mean are meaningless for "
                          "string variables."),
        entry("DISCO-C-DATA-MODEL-CONSISTENCY-07", "statistic-applicability",
              "error", {"mode": "categorical-mean"},
              description="Means are meaningless for categorical variables."),
        entry("DISCO-C-STRUCTURE-01", "single-root", "error",
              {"link_property": "disco:concept"},
              description="The theoretical concept hierarchy of a study has "
                          "exactly one root."),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-01", "info",
                 "disco:StudyGroup", ["dcterms:description"]),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-02", "info", "disco:Study",
                 ["dcterms:description"]),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-03", "info",
                 "disco:LogicalDataSet", ["dcterms:description"]),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-04", "info", "disco:DataFile",
                 ["dcterms:description"]),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-05", "info",
                 "disco:Instrument", ["dcterms:description"]),
        presence("DISCO-C-LABELING-AND-DOCUMENTATION-06", "info", "disco:Variable",
                 ["dcterms:description"]),
        entry("DISCO-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "disco"}),
        entry("DISCO-C-HTTP-URI-SCHEME-VIOLATION", "http-scheme", "error", {}),
    ]
    return out


DISCO_CATALOG = {
    "vocabularies": [
        {
            "name": "disco",
            "namespace": "http://rdf-vocabulary.ddialliance.org/discovery#",
            "classes": DISCO_CLASSES,
            "properties": DISCO_PROPERTIES,
            "deprecated": [],
            "subclass_of": [
                ["disco:CategoryStatistics", "disco:DescriptiveStatistics"],
                ["disco:SummaryStatistics", "disco:DescriptiveStatistics"],
                ["disco:Questionnaire", "disco:Instrument"],
            ],
            "subproperty_of": [["disco:fundedBy", "dcterms:contributor"]],
            "inverse_pairs": [
                ["disco:statisticsCategory", "disco:categoryStatistics"],
                ["disco:statisticsVariable", "disco:summaryStatistics"],
                ["disco:question", "disco:questionVariable"],
                ["disco:basedOn", "disco:basisOf"],
            ],
            "equivalent_property_pairs": [
                ["disco:containsVariable", "disco:variable"],
            ],
            "controlled_vocabularies": {DDICV_SCHEME: SUMMARY_STATISTIC_TYPES},
        }
    ],
    "constraints": disco_constraints(),
}


# ===========================================================================
# Data Cube (qb)

QB_CLASSES = [
    "qb:AttributeProperty", "qb:CodedProperty", "qb:ComponentProperty",
    "qb:ComponentSpecification", "qb:DataSet", "qb:DataStructureDefinition",
    "qb:DimensionProperty", "qb:HierarchicalCodeList", "qb:MeasureProperty",
    "qb:Observation", "qb:ObservationGroup", "qb:Slice", "qb:SliceKey",
]

QB_DOMAINS = {
    "qb:attribute": ["qb:ComponentSpecification"],
    "qb:codeList": ["qb:CodedProperty"],
    "qb:component": ["qb:DataStructureDefinition"],
    "qb:componentAttachment": ["qb:ComponentSpecification"],
    "qb:componentProperty": ["qb:ComponentSpecification", "qb:SliceKey"],
    "qb:componentRequired": ["qb:ComponentSpecification"],
    "qb:concept": ["qb:ComponentProperty"],
    "qb:dataSet": ["qb:Observation"],
    "qb:dimension": ["qb:ComponentSpecification"],
    "qb:hierarchyRoot": ["qb:HierarchicalCodeList"],
    "qb:measure": ["qb:ComponentSpecification"],
    "qb:measureType": ["qb:Observation"],
    "qb:observation": ["qb:ObservationGroup"],
    "qb:order": ["qb:ComponentSpecification"],
    "qb:parentChildProperty": ["qb:HierarchicalCodeList"],
    "qb:slice": ["qb:DataSet"],
    "qb:sliceKey": ["qb:DataStructureDefinition"],
    "qb:sliceStructure": ["qb:Slice"],
    "qb:structure": ["qb:DataSet"],
}

QB_RANGES = {
    "qb:attribute": {"classes": ["qb:AttributeProperty"]},
    "qb:codeList": {"classes": ["skos:ConceptScheme", "skos:Collection",
                                 "qb:HierarchicalCodeList"]},
    "qb:component": {"classes": ["qb:ComponentSpecification"]},
    "qb:componentProperty": {"classes": ["qb:ComponentProperty"]},
    "qb:componentRequired": {"datatype": "xsd:boolean"},
    "qb:concept": {"classes": ["skos:Concept"]},
    "qb:dataSet": {"classes": ["qb:DataSet"]},
    "qb:dimension": {"classes": ["qb:DimensionProperty"]},
    "qb:measure": {"classes": ["qb:MeasureProperty"]},
    "qb:measureType": {"classes": ["qb:MeasureProperty"]},
    "qb:observation": {"classes": ["qb:Observation"]},
    "qb:order": {"datatype": "xsd:string"},
    "qb:slice": {"classes": ["qb:Slice"]},
    "qb:sliceKey": {"classes": ["qb:SliceKey"]},
    "qb:sliceStructure": {"classes": ["qb:SliceKey"]},
    "qb:structure": {"classes": ["qb:DataStructureDefinition"]},
}

QB_PROPERTIES = sorted(QB_DOMAINS)

_QB_IC = {
    # id suffix -> (type params severity reference description)
    "EXISTENTIAL-QUANTIFICATIONS-01": (4, "error", "Dimensions have range"),
    "EXISTENTIAL-QUANTIFICATIONS-02": (5, "error", "Concept dimensions have code lists"),
    "EXISTENTIAL-QUANTIFICATIONS-03": (3, "error", "DSD includes measure"),
    "EXISTENTIAL-QUANTIFICATIONS-04": (7, "error", "Slice Keys must be declared"),
    "DATA-MODEL-CONSISTENCY-01": (6, "warning", "Only attributes may be optional"),
    "DATA-MODEL-CONSISTENCY-02": (8, "error", "Slice Keys consistent with DSD"),
    "DATA-MODEL-CONSISTENCY-03": (10, "error", "Slice dimensions complete"),
    "DATA-MODEL-CONSISTENCY-04": (11, "error", "All dimensions required"),
    "DATA-MODEL-CONSISTENCY-05": (12, "warning", "No duplicate observations"),
    "DATA-MODEL-CONSISTENCY-06": (13, "error", "Required attributes"),
    "DATA-MODEL-CONSISTENCY-07": (14, "error", "All measures present"),
    "DATA-MODEL-CONSISTENCY-08": (15, "error", "Measure dimension consistent"),
    "DATA-MODEL-CONSISTENCY-09": (16, "error",
                                  "Single measure on measure dimension observation"),
    "DATA-MODEL-CONSISTENCY-10": (17, "error",
                                  "All measures present in measures dimension cube"),
    "DATA-MODEL-CONSISTENCY-11": (18, "warning", "Consistent data set links"),
    "STRUCTURE-01": (20, "error", "Codes from hierarchy"),
    "STRUCTURE-02": (21, "error", "Codes from hierarchy (inverse)"),
}


def qb_constraints() -> list[dict]:
    out = [
        entry("DATA-CUBE-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": QB_DOMAINS}),
        entry("DATA-CUBE-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": QB_RANGES}),
        entry("DATA-CUBE-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "qb",
               "exempt_pairs": compute_exempt_pairs(QB_DOMAINS, QB_RANGES,
                                                    QB_PROPERTIES)}),
        entry("DATA-CUBE-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "qb",
               "exempt_pairs": [["qb:DimensionProperty", "qb:CodedProperty"],
                                 ["qb:AttributeProperty", "qb:CodedProperty"],
                                 ["qb:MeasureProperty", "qb:CodedProperty"]]}),
        entry("DATA-CUBE-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties",
              "info", {"vocabulary": "qb"}),
        entry("DATA-CUBE-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {}}),
        entry("DATA-CUBE-C-MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality-table", "error", {},
              description="Per-property cardinality rules; configure rules to "
                          "enable."),
        entry("DATA-CUBE-C-MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-02",
              "cardinality", "error",
              {"property": "qb:dataSet", "scope": "qb:Observation", "min": 1,
               "qualifier_class": "qb:DataSet"},
              reference="IC-1",
              description="Unique data set: every observation has exactly one "
                          "associated data set (IC-1, lower bound)."),
        entry("DATA-CUBE-C-MAXIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality", "error",
              {"property": "qb:dataSet", "scope": "qb:Observation", "max": 1,
               "qualifier_class": "qb:DataSet"},
              reference="IC-1",
              description="Unique data set: every observation has exactly one "
                          "associated data set (IC-1, upper bound)."),
        entry("DATA-CUBE-C-EXACT-UNQUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality", "error",
              {"property": "qb:sliceStructure", "scope": "qb:Slice", "min": 1,
               "max": 1},
              reference="IC-9",
              description="Unique slice structure: each slice has exactly one "
                          "slice key (IC-9)."),
        entry("DATA-CUBE-C-EXACT-QUALIFIED-CARDINALITY-RESTRICTIONS-02",
              "cardinality", "error",
              {"property": "qb:structure", "scope": "qb:DataSet", "min": 1,
               "max": 1, "qualifier_class": "qb:DataStructureDefinition"},
              reference="IC-2",
              description="Unique DSD: every data set has exactly one structure "
                          "(IC-2)."),
        entry("DATA-CUBE-C-MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01",
              "vocab-membership", "error", {"mode": "qb-codelist"},
              reference="IC-19",
              description="Codes from code list: dimension values must come "
                          "from the dimension's code list (IC-19)."),
        entry("DATA-CUBE-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "qb", "kind": "classes"}),
        entry("DATA-CUBE-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01",
              "deprecated-terms", "info", {"vocabulary": "qb",
                                            "kind": "properties"}),
        entry("DATA-CUBE-C-RECOMMENDED-PROPERTIES-01", "presence", "info", {},
              description="Published without a concrete body; configure "
                  "scope and properties to enable."),
        entry("DATA-CUBE-C-VALUE-IS-VALID-FOR-DATATYPE-01", "value-datatype",
              "error", {"mode": "all-literals"},
              reference="IC-0",
              description="Datatype consistency: every literal must have a "
                          "valid lexical form for its datatype (IC-0, "
                          "approximated as lexical validity)."),
        entry("DATA-CUBE-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "qb"}),
        entry("DATA-CUBE-C-HTTP-URI-SCHEME-VIOLATION", "http-scheme", "error", {}),
    ]
    for suffix, (ic, severity, name) in _QB_IC.items():
        out.append(
            entry(f"DATA-CUBE-C-{suffix}", "qb-integrity", severity, {"ic": ic},
                  reference=f"IC-{ic}", description=f"{name} (IC-{ic}).")
        )
    return out


QB_CATALOG = {
    "vocabularies": [
        {
            "name": "qb",
            "namespace": "http://purl.org/linked-data/cube#",
            "classes": QB_CLASSES,
            "properties": QB_PROPERTIES,
            "deprecated": [],
            "subclass_of": [
                ["qb:AttributeProperty", "qb:ComponentProperty"],
                ["qb:CodedProperty", "qb:ComponentProperty"],
                ["qb:DimensionProperty", "qb:ComponentProperty"],
                ["qb:MeasureProperty", "qb:ComponentProperty"],
                ["qb:Slice", "qb:ObservationGroup"],
            ],
            "subproperty_of": [
                ["qb:attribute", "qb:componentProperty"],
                ["qb:dimension", "qb:componentProperty"],
                ["qb:measure", "qb:componentProperty"],
            ],
            "inverse_pairs": [],
            "equivalent_property_pairs": [],
            "controlled_vocabularies": {},
        }
    ],
    "constraints": qb_constraints(),
}


# ===========================================================================
# SKOS

SKOS_CLASSES = ["skos:Collection", "skos:Concept", "skos:ConceptScheme",
                "skos:OrderedCollection"]

_CC = {"classes": ["skos:Concept"]}

SKOS_DOMAINS = {
    "skos:broadMatch": ["skos:Concept"],
    "skos:broader": ["skos:Concept"],
    "skos:broaderTransitive": ["skos:Concept"],
    "skos:closeMatch": ["skos:Concept"],
    "skos:exactMatch": ["skos:Concept"],
    "skos:hasTopConcept": ["skos:ConceptScheme"],
    "skos:mappingRelation": ["skos:Concept"],
    "skos:member": ["skos:Collection"],
    "skos:memberList": ["skos:OrderedCollection"],
    "skos:narrowMatch": ["skos:Concept"],
    "skos:narrower": ["skos:Concept"],
    "skos:narrowerTransitive": ["skos:Concept"],
    "skos:related": ["skos:Concept"],
    "skos:relatedMatch": ["skos:Concept"],
    "skos:semanticRelation": ["skos:Concept"],
    "skos:topConceptOf": ["skos:Concept"],
}

SKOS_RANGES = {
    "skos:broadMatch": _CC,
    "skos:broader": _CC,
    "skos:broaderTransitive": _CC,
    "skos:closeMatch": _CC,
    "skos:exactMatch": _CC,
    "skos:hasTopConcept": _CC,
    "skos:inScheme": {"classes": ["skos:ConceptScheme"]},
    "skos:mappingRelation": _CC,
    "skos:member": {"classes": ["skos:Concept", "skos:Collection"]},
    "skos:narrowMatch": _CC,
    "skos:narrower": _CC,
    "skos:narrowerTransitive": _CC,
    "skos:related": _CC,
    "skos:relatedMatch": _CC,
    "skos:semanticRelation": _CC,
    "skos:topConceptOf": {"classes": ["skos:ConceptScheme"]},
}

SKOS_PROPERTIES = sorted(
    set(SKOS_DOMAINS)
    | {
        "skos:altLabel", "skos:changeNote", "skos:definition", "skos:editorialNote",
        "skos:example", "skos:hiddenLabel", "skos:historyNote", "skos:inScheme",
        "skos:notation", "skos:note", "skos:prefLabel", "skos:scopeNote",
    }
)

_SKOS_STRUCTURE = [
    ("01", "orphan", "warning", "Orphan Concepts"),
    ("02", "disconnected", "info", "Disconnected Concept Clusters"),
    ("03", "cycles", "warning", "Cyclic Hierarchical Relations"),
    ("04", "valueless-associative", "info", "Valueless Associative Relations"),
    ("05", "solely-transitive", "info", "Solely Transitively Related Concepts"),
    ("06", "unidirectional", "info", "Unidirectionally Related Concepts"),
    ("07", "omitted-top-concepts", "warning", "Omitted Top Concepts"),
    ("08", "top-with-broader", "error", "Top Concepts Having Broader Concepts"),
    ("09", "hierarchical-redundancy", "info", "Hierarchical Redundancy"),
    ("10", "reflexive", "warning", "Reflexive Relations"),
]

_SKOS_LABELING = [
    ("01", "undocumented", "Undocumented Concepts"),
    ("02", "overlapping", "Overlapping Labels"),
    ("03", "missing", "Missing Labels"),
    ("04", "unprintable", "Unprintable Characters in Labels"),
    ("05", "empty", "Empty Labels"),
    ("06", "ambiguous-notation", "Ambiguous Notation References"),
]


def skos_constraints() -> list[dict]:
    out = [
        entry("SKOS-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": SKOS_DOMAINS}),
        entry("SKOS-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": SKOS_RANGES}),
        entry("SKOS-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "skos",
               "exempt_pairs": compute_exempt_pairs(SKOS_DOMAINS, SKOS_RANGES,
                                                    SKOS_PROPERTIES)}),
        entry("SKOS-C-DISJOINT-PROPERTIES-02", "disjoint-properties", "error",
              {"properties": ["skos:prefLabel", "skos:altLabel",
                               "skos:hiddenLabel"]},
              reference="SKOS S13 / qSKOS Disjoint Labels Violation",
              description="The three label properties are pairwise disjoint: no "
                          "resource may carry the same literal under two of "
                          "them."),
        entry("SKOS-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "skos"}),
        entry("SKOS-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties", "info",
              {"vocabulary": "skos"}),
        entry("SKOS-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {}}),
        entry("SKOS-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "skos", "kind": "classes"}),
        entry("SKOS-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01", "deprecated-terms",
              "info", {"vocabulary": "skos", "kind": "properties"}),
        entry("SKOS-C-RECOMMENDED-PROPERTIES-01", "presence", "info", {},
              description="Published without a concrete body; configure "
                  "scope and properties to enable."),
        entry("SKOS-C-LANGUAGE-TAG-CARDINALITY-01", "language-coverage", "warning",
              {"mode": "omitted-or-invalid"},
              reference="qSKOS: Omitted or Invalid Language Tags"),
        entry("SKOS-C-LANGUAGE-TAG-CARDINALITY-02", "language-coverage", "info",
              {"mode": "incomplete"},
              reference="qSKOS: Incomplete Language Coverage"),
        entry("SKOS-C-LANGUAGE-TAG-CARDINALITY-03", "language-coverage", "info",
              {"mode": "no-common"},
              reference="qSKOS: No Common Language"),
        entry("SKOS-C-LANGUAGE-TAG-CARDINALITY-04", "language-tag", "info",
              {"property": "skos:prefLabel", "scope": "skos:Concept",
               "languages": ["*"], "max_per_lang": 1},
              reference="qSKOS: Inconsistent Preferred Labels",
              description="A resource has no more than one preferred label per "
                          "language tag."),
        entry("SKOS-C-DATA-MODEL-CONSISTENCY-01", "skos-clashes", "info",
              {"mode": "relation"},
              reference="SKOS S27 / qSKOS Relation Clashes"),
        entry("SKOS-C-DATA-MODEL-CONSISTENCY-02", "skos-clashes", "info",
              {"mode": "mapping"},
              reference="SKOS S46 / qSKOS Mapping Clashes"),
        entry("SKOS-C-DATA-MODEL-CONSISTENCY-03", "skos-clashes", "info",
              {"mode": "misuse"},
              reference="qSKOS: Mapping Relations Misuse"),
        entry("SKOS-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "skos"},
              reference="qSKOS: Undefined SKOS Resources"),
        entry("SKOS-C-HTTP-URI-SCHEME-VIOLATION", "http-scheme", "error", {},
              reference="qSKOS: HTTP URI Scheme Violation"),
    ]
    for num, mode, severity, name in _SKOS_STRUCTURE:
        out.append(entry(f"SKOS-C-STRUCTURE-{num}", "skos-structure", severity,
                         {"mode": mode}, reference=f"qSKOS: {name}"))
    for num, mode, name in _SKOS_LABELING:
        out.append(entry(f"SKOS-C-LABELING-AND-DOCUMENTATION-{num}",
                         "skos-labeling", "info", {"mode": mode},
                         reference=f"qSKOS: {name}"))
    return out


SKOS_CATALOG = {
    "vocabularies": [
        {
            "name": "skos",
            "namespace": "http://www.w3.org/2004/02/skos/core#",
            "classes": SKOS_CLASSES,
            "properties": SKOS_PROPERTIES,
            "deprecated": [],
            "subclass_of": [["skos:OrderedCollection", "skos:Collection"]],
            "subproperty_of": [
                ["skos:altLabel", "rdfs:label"],
                ["skos:broadMatch", "skos:broader"],
                ["skos:broadMatch", "skos:mappingRelation"],
                ["skos:broader", "skos:broaderTransitive"],
                ["skos:broaderTransitive", "skos:semanticRelation"],
                ["skos:closeMatch", "skos:mappingRelation"],
                ["skos:exactMatch", "skos:closeMatch"],
                ["skos:hiddenLabel", "rdfs:label"],
                ["skos:mappingRelation", "skos:semanticRelation"],
                ["skos:narrowMatch", "skos:mappingRelation"],
                ["skos:narrowMatch", "skos:narrower"],
                ["skos:narrower", "skos:narrowerTransitive"],
                ["skos:narrowerTransitive", "skos:semanticRelation"],
                ["skos:prefLabel", "rdfs:label"],
                ["skos:related", "skos:semanticRelation"],
                ["skos:relatedMatch", "skos:mappingRelation"],
                ["skos:relatedMatch", "skos:related"],
                ["skos:topConceptOf", "skos:inScheme"],
            ],
            "inverse_pairs": [
                ["skos:broader", "skos:narrower"],
                ["skos:broaderTransitive", "skos:narrowerTransitive"],
                ["skos:hasTopConcept", "skos:topConceptOf"],
                ["skos:related", "skos:related"],
            ],
            "equivalent_property_pairs": [],
            "controlled_vocabularies": {},
        }
    ],
    "constraints": skos_constraints(),
}


# ===========================================================================
# XKOS

XKOS_CLASSES = ["xkos:ClassificationLevel", "xkos:ConceptAssociation",
                "xkos:Correspondence", "xkos:ExplanatoryNote"]

XKOS_DOMAINS = {
    "xkos:belongsTo": ["skos:Concept"],
    "xkos:classifiedUnder": ["skos:Concept"],
    "xkos:compares": ["xkos:Correspondence"],
    "xkos:covers": ["skos:ConceptScheme"],
    "xkos:coversExhaustively": ["skos:ConceptScheme"],
    "xkos:coversMutuallyExclusively": ["skos:ConceptScheme"],
    "xkos:depth": ["xkos:ClassificationLevel"],
    "xkos:disjoint": ["skos:Concept"],
    "xkos:follows": ["skos:ConceptScheme"],
    "xkos:generalizes": ["skos:Concept"],
    "xkos:hasPart": ["skos:Concept"],
    "xkos:isPartOf": ["skos:Concept"],
    "xkos:levels": ["skos:ConceptScheme"],
    "xkos:macro": ["skos:ConceptScheme"],
    "xkos:madeOf": ["xkos:Correspondence"],
    "xkos:maxLength": ["skos:ConceptScheme"],
    "xkos:micro": ["skos:ConceptScheme"],
    "xkos:numberOfLevels": ["skos:ConceptScheme"],
    "xkos:sourceConcept": ["xkos:ConceptAssociation"],
    "xkos:specializes": ["skos:Concept"],
    "xkos:supersedes": ["skos:ConceptScheme"],
    "xkos:targetConcept": ["xkos:ConceptAssociation"],
    "xkos:variant": ["skos:ConceptScheme"],
}

XKOS_RANGES = {
    "xkos:belongsTo": {"classes": ["skos:Concept"]},
    "xkos:classifiedUnder": {"classes": ["skos:Concept"]},
    "xkos:compares": {"classes": ["skos:ConceptScheme"]},
    "xkos:covers": {"classes": ["skos:Concept"]},
    "xkos:coversExhaustively": {"classes": ["skos:Concept"]},
    "xkos:coversMutuallyExclusively": {"classes": ["skos:Concept"]},
    "xkos:depth": {"datatype": "xsd:positiveInteger"},
    "xkos:disjoint": {"classes": ["skos:Concept"]},
    "xkos:follows": {"classes": ["skos:ConceptScheme"]},
    "xkos:generalizes": {"classes": ["skos:Concept"]},
    "xkos:hasPart": {"classes": ["skos:Concept"]},
    "xkos:isPartOf": {"classes": ["skos:Concept"]},
    "xkos:macro": {"classes": ["skos:ConceptScheme"]},
    "xkos:madeOf": {"classes": ["xkos:ConceptAssociation"]},
    "xkos:maxLength": {"datatype": "xsd:positiveInteger"},
    "xkos:micro": {"classes": ["skos:ConceptScheme"]},
    "xkos:numberOfLevels": {"datatype": "xsd:positiveInteger"},
    "xkos:sourceConcept": {"classes": ["skos:Concept"]},
    "xkos:specializes": {"classes": ["skos:Concept"]},
    "xkos:supersedes": {"classes": ["skos:ConceptScheme"]},
    "xkos:targetConcept": {"classes": ["skos:Concept"]},
    "xkos:variant": {"classes": ["skos:ConceptScheme"]},
}

XKOS_PROPERTIES = sorted(
    set(XKOS_DOMAINS) | {"xkos:additionalContentNote", "xkos:coreContentNote",
                          "xkos:exclusionNote", "xkos:inclusionNote"}
)


def xkos_constraints() -> list[dict]:
    return [
        entry("XKOS-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": XKOS_DOMAINS}),
        entry("XKOS-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": XKOS_RANGES}),
        entry("XKOS-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "xkos",
               "exempt_pairs": compute_exempt_pairs(XKOS_DOMAINS, XKOS_RANGES,
                                                    XKOS_PROPERTIES)}),
        entry("XKOS-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "xkos"}),
        entry("XKOS-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties", "info",
              {"vocabulary": "xkos"}),
        entry("XKOS-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {}}),
        entry("XKOS-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "xkos", "kind": "classes"}),
        entry("XKOS-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01", "deprecated-terms",
              "info", {"vocabulary": "xkos", "kind": "properties"}),
        entry("XKOS-C-RECOMMENDED-PROPERTIES-01", "presence", "info", {},
              description="Published without a concrete body; configure "
                  "scope and properties to enable."),
        entry("XKOS-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "xkos"}),
    ]


XKOS_CATALOG = {
    "vocabularies": [
        {
            "name": "xkos",
            "namespace": "http://rdf-vocabulary.ddialliance.org/xkos#",
            "classes": XKOS_CLASSES,
            "properties": XKOS_PROPERTIES,
            "deprecated": [],
            "subclass_of": [["xkos:ClassificationLevel", "skos:Collection"]],
            "subproperty_of": [
                ["xkos:coversExhaustively", "xkos:covers"],
                ["xkos:coversMutuallyExclusively", "xkos:covers"],
            ],
            "inverse_pairs": [["xkos:hasPart", "xkos:isPartOf"],
                               ["xkos:specializes", "xkos:generalizes"]],
            "equivalent_property_pairs": [],
            "controlled_vocabularies": {},
        }
    ],
    "constraints": xkos_constraints(),
}


# ===========================================================================
# PHDD

PHDD_CLASSES = ["phdd:Column", "phdd:Delimited", "phdd:FixedWidth", "phdd:Table",
                "phdd:TableStructure"]

PHDD_DOMAINS = {
    "phdd:caseQuantity": ["phdd:Table"],
    "phdd:column": ["phdd:TableStructure"],
    "phdd:columnQuantity": ["phdd:Table"],
    "phdd:delimiter": ["phdd:Delimited"],
    "phdd:firstDataLine": ["phdd:TableStructure"],
    "phdd:headerRowQuantity": ["phdd:TableStructure"],
    "phdd:isStructuredBy": ["phdd:Table"],
    "phdd:textQualifier": ["phdd:Delimited"],
}

PHDD_RANGES = {
    "phdd:caseQuantity": {"datatype": "xsd:nonNegativeInteger"},
    "phdd:column": {"classes": ["phdd:Column"]},
    "phdd:columnQuantity": {"datatype": "xsd:nonNegativeInteger"},
    "phdd:delimiter": {"datatype": "xsd:string"},
    "phdd:firstDataLine": {"datatype": "xsd:nonNegativeInteger"},
    "phdd:headerRowQuantity": {"datatype": "xsd:nonNegativeInteger"},
    "phdd:isStructuredBy": {"classes": ["phdd:TableStructure"]},
    "phdd:textQualifier": {"datatype": "xsd:string"},
}

PHDD_PROPERTIES = sorted(PHDD_DOMAINS)


def phdd_constraints() -> list[dict]:
    return [
        entry("PHDD-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": PHDD_DOMAINS}),
        entry("PHDD-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": PHDD_RANGES}),
        entry("PHDD-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "phdd",
               "exempt_pairs": compute_exempt_pairs(PHDD_DOMAINS, PHDD_RANGES,
                                                    PHDD_PROPERTIES)}),
        entry("PHDD-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "phdd"}),
        entry("PHDD-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties", "info",
              {"vocabulary": "phdd"}),
        entry("PHDD-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {}}),
        entry("PHDD-C-MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality-table", "error", {},
              description="Per-property cardinality rules; configure rules to "
                          "enable."),
        entry("PHDD-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "phdd", "kind": "classes"}),
        entry("PHDD-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01", "deprecated-terms",
              "info", {"vocabulary": "phdd", "kind": "properties"}),
        entry("PHDD-C-RECOMMENDED-PROPERTIES-01", "presence", "info", {},
              description="Published without a concrete body; configure "
                  "scope and properties to enable."),
        entry("PHDD-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "phdd"}),
        entry("PHDD-C-HTTP-URI-SCHEME-VIOLATION", "http-scheme", "error", {}),
    ]


PHDD_CATALOG = {
    "vocabularies": [
        {
            "name": "phdd",
            "namespace": "http://rdf-vocabulary.ddialliance.org/phdd#",
            "classes": PHDD_CLASSES,
            "properties": PHDD_PROPERTIES,
            "deprecated": [],
            "subclass_of": [["phdd:Delimited", "phdd:TableStructure"],
                             ["phdd:FixedWidth", "phdd:TableStructure"]],
            "subproperty_of": [],
            "inverse_pairs": [],
            "equivalent_property_pairs": [],
            "controlled_vocabularies": {},
        }
    ],
    "constraints": phdd_constraints(),
}


# ===========================================================================
# DCAT

DCAT_CLASSES = ["dcat:Catalog", "dcat:CatalogRecord", "dcat:Dataset",
                "dcat:Distribution"]

DCAT_DOMAINS = {
    "dcat:accessURL": ["dcat:Distribution"],
    "dcat:bytes": ["dcat:Distribution"],
    "dcat:contactPoint": ["dcat:Dataset"],
    "dcat:dataset": ["dcat:Catalog"],
    "dcat:distribution": ["dcat:Dataset"],
    "dcat:downloadURL": ["dcat:Distribution"],
    "dcat:keyword": ["dcat:Dataset"],
    "dcat:landingPage": ["dcat:Dataset"],
    "dcat:mediaType": ["dcat:Distribution"],
    "dcat:record": ["dcat:Catalog"],
    "dcat:theme": ["dcat:Dataset"],
    "dcat:themeTaxonomy": ["dcat:Catalog"],
}

DCAT_RANGES = {
    "dcat:bytes": {"datatype": "xsd:integer"},
    "dcat:dataset": {"classes": ["dcat:Dataset"]},
    "dcat:distribution": {"classes": ["dcat:Distribution"]},
    "dcat:keyword": {"datatype": "xsd:string"},
    "dcat:record": {"classes": ["dcat:CatalogRecord"]},
    "dcat:theme": {"classes": ["skos:Concept"]},
    "dcat:themeTaxonomy": {"classes": ["skos:ConceptScheme"]},
}

DCAT_PROPERTIES = sorted(DCAT_DOMAINS)


def dcat_constraints() -> list[dict]:
    return [
        entry("DCAT-C-PROPERTY-DOMAIN-01", "domain-table", "error",
              {"domains": DCAT_DOMAINS}),
        entry("DCAT-C-PROPERTY-RANGES-01", "range-table", "error",
              {"ranges": DCAT_RANGES}),
        entry("DCAT-C-DISJOINT-PROPERTIES-01", "disjoint-properties", "error",
              {"vocabulary": "dcat",
               "exempt_pairs": compute_exempt_pairs(DCAT_DOMAINS, DCAT_RANGES,
                                                    DCAT_PROPERTIES)}),
        entry("DCAT-C-DISJOINT-CLASSES-01", "disjoint-classes", "error",
              {"vocabulary": "dcat"}),
        entry("DCAT-C-EQUIVALENT-PROPERTIES-01", "equivalent-properties", "info",
              {"vocabulary": "dcat"}),
        entry("DCAT-C-UNIVERSAL-QUANTIFICATIONS-01", "range-table", "error",
              {"ranges": {"dcat:dataset": {"classes": ["dcat:Dataset"],
                                            "scope": "dcat:Catalog"}}},
              description="Only catalogs have dataset links, and those point at "
                          "datasets."),
        entry("DCAT-C-MINIMUM-QUALIFIED-CARDINALITY-RESTRICTIONS-01",
              "cardinality-table", "error", {},
              description="Per-property cardinality rules; configure rules to "
                          "enable."),
        entry("DCAT-C-CONTEXT-SPECIFIC-VALID-CLASSES-01", "deprecated-terms",
              "info", {"vocabulary": "dcat", "kind": "classes"}),
        entry("DCAT-C-CONTEXT-SPECIFIC-VALID-PROPERTIES-01", "deprecated-terms",
              "info", {"vocabulary": "dcat", "kind": "properties"}),
        entry("DCAT-C-RECOMMENDED-PROPERTIES-01", "presence", "info", {},
              description="Published without a concrete body; configure "
                  "scope and properties to enable."),
        entry("DCAT-C-VOCABULARY-01", "undefined-terms", "error",
              {"vocabulary": "dcat"}),
    ]


DCAT_CATALOG = {
    "vocabularies": [
        {
            "name": "dcat",
            "namespace": "http://www.w3.org/ns/dcat#",
            "classes": DCAT_CLASSES,
            "properties": DCAT_PROPERTIES,
            "deprecated": [],
            "subclass_of": [],
            "subproperty_of": [],
            "inverse_pairs": [],
            "equivalent_property_pairs": [],
            "controlled_vocabularies": {},
        }
    ],
    "constraints": dcat_constraints(),
}


CATALOGS = {
    "disco.json": DISCO_CATALOG,
    "qb.json": QB_CATALOG,
    "skos.json": SKOS_CATALOG,
    "xkos.json": XKOS_CATALOG,
    "phdd.json": PHDD_CATALOG,
    "dcat.json": DCAT_CATALOG,
}


def render(catalog: dict) -> str:
    """The text of one catalog data file."""
    return json.dumps(catalog, indent=2) + "\n"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for filename, catalog in CATALOGS.items():
        path = OUT / filename
        path.write_text(render(catalog), encoding="utf-8")
        print(f"wrote {path} ({len(catalog['constraints'])} constraints)")


if __name__ == "__main__":
    main()
