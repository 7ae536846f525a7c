"""Seeded, offline corpus generator for the rdfcheck benchmark.

Every input is built from three shapes taken from the test fixtures:
survey copies shaped like ``tests/fixtures/eusilc.ttl``, a grid data cube
shaped like ``tests/fixtures/cube.ttl`` and a SKOS tree shaped like
``tests/fixtures/thesaurus_clean.ttl``. The shapes are spelled out here, so
the corpus depends on neither the fixtures nor rdfcheck's own parsers: a
change to the program under test cannot change its benchmark inputs.

The seed picks IRIs, numbers and where the defects go; it never changes a
file's size or shape, so every seed costs the same amount of work. A few
known defects are planted and recorded in ``manifest.json`` together with
the exit code a correct validator returns. That manifest, not rdfcheck's
output, is the reference answer.

    python3 perfbench/corpus.py --workload deposit-full --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import re
from pathlib import Path

PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "dcterms": "http://purl.org/dc/terms/",
    "disco": "http://rdf-vocabulary.ddialliance.org/discovery#",
    "sio": "http://semanticscience.org/resource/",
    "sumstat": "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType#",
    "qb": "http://purl.org/linked-data/cube#",
}

# Constraint ids the planted defects must trigger, with the severity the
# shipped catalogs give them.
PERCENTAGE_SUM = "DISCO-C-MATHEMATICAL-OPERATIONS-01"  # error
BROADER_CYCLE = "SKOS-C-STRUCTURE-03"  # warning
DUPLICATE_OBSERVATION = "DATA-CUBE-C-DATA-MODEL-CONSISTENCY-05"  # warning, IC-12
CODE_NOT_IN_LIST = "DATA-CUBE-C-MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01"  # error, IC-19
ERROR_IDS = {PERCENTAGE_SUM, CODE_NOT_IN_LIST}

# One survey (study, data set, two variables, code list, statistics) in the
# shape of eusilc.ttl. A line without indent names a subject; the indented
# lines under it are "predicate object" pairs. ``ex:`` is the copy's own
# namespace and ``_:`` labels are scoped to the copy.
SURVEY_TEMPLATE = """\
ex:series
  a disco:StudyGroup
  dcterms:title "EU-SILC {tag}"
  dcterms:abstract "The EU statistics on income and living conditions collect comparable unit-record data on income, poverty and social exclusion."@en
  dcterms:description "Annual survey series covering all European Union member states."@en
  dcterms:creator ex:statisticalOffice
  dcterms:temporal "2004/2020"
  dcterms:spatial "European Union"
  dcterms:subject "income and living conditions"
  dcterms:provenance "Compiled from national microdata deliveries."@en
  disco:kindOfData "survey data"
  disco:ddifile <http://example.org/files/{tag}-series.xml>
  disco:universe ex:universeEu
ex:study
  a disco:Study
  dcterms:title "EU-SILC {year}"
  rdfs:label "{year}"
  dcterms:abstract "The {year} wave of the EU statistics on income and living conditions, measuring income poverty and formal childcare."@en
  dcterms:description "Cross-sectional wave of {year} covering childcare availability."@en
  dcterms:creator ex:statisticalOffice
  dcterms:contributor ex:fundingAgency
  disco:fundedBy ex:fundingAgency
  dcterms:temporal "{year}"
  dcterms:spatial "European Union"
  dcterms:subject "formal childcare"
  dcterms:provenance "Harmonised from national survey waves."@en
  disco:kindOfData "survey data"
  disco:ddifile <http://example.org/files/{tag}-{year}.xml>
  disco:inGroup ex:series
  disco:universe ex:universeEu
  disco:instrument ex:questionnaire
  disco:startDate "{year}-01-01"^^xsd:date
  disco:endDate "{year}-12-31"^^xsd:date
  disco:dataSet ex:dataset
ex:universeEu
  a disco:Universe
  a skos:Concept
  skos:definition "All private households and their current members residing in the territory of the member states."@en
ex:dataset
  a disco:LogicalDataSet
  dcterms:title "Childcare module {year}"
  dcterms:description "Variables of the {year} childcare module."@en
  dcterms:temporal "{year}"
  dcterms:spatial "European Union"
  dcterms:subject "formal childcare"
  dcterms:provenance "Derived from the harmonised household questionnaire."@en
  disco:isPublic false
  disco:universe ex:universeEu
  disco:variable ex:v1
  disco:variable ex:v2
  disco:containsVariable ex:v1
  disco:containsVariable ex:v2
  disco:variableQuantity "2"^^xsd:nonNegativeInteger
  disco:dataFile ex:datafile
  dcterms:hasPart ex:variableList
ex:variableList
  a skos:OrderedCollection
  skos:memberList _:vl1
_:vl1
  rdf:first ex:v1
  rdf:rest _:vl2
_:vl2
  rdf:first ex:v2
  rdf:rest rdf:nil
ex:datafile
  a disco:DataFile
  dcterms:description "Delivery file of the childcare module."@en
  dcterms:temporal "{year}"
  dcterms:spatial "European Union"
  dcterms:subject "formal childcare"
  dcterms:provenance "Produced by the dissemination pipeline."@en
  disco:caseQuantity "{cases}"^^xsd:nonNegativeInteger
  disco:variableQuantity "2"^^xsd:nonNegativeInteger
ex:questionnaire
  a disco:Questionnaire
  dcterms:description "Household questionnaire of the childcare module."@en
  disco:externalDocumentation <http://example.org/docs/{tag}-questionnaire.pdf>
  disco:question ex:q1
  disco:question ex:q2
  dcterms:hasPart ex:questionList
ex:questionList
  a skos:OrderedCollection
  skos:memberList _:ql1
_:ql1
  rdf:first ex:q1
  rdf:rest _:ql2
_:ql2
  rdf:first ex:q2
  rdf:rest rdf:nil
ex:q1
  a disco:Question
  skos:prefLabel "Q1"@en
  disco:questionText "Does your child attend formal pre-school care?"@en
  disco:responseDomain ex:eduRepresentation
  disco:universe ex:universeEu
  disco:questionVariable ex:v1
ex:q2
  a disco:Question
  skos:prefLabel "Q2"@en
  disco:questionText "How many hours per week does your child spend in formal childcare?"@en
  disco:responseDomain xsd:double
  disco:universe ex:universeEu
  disco:questionVariable ex:v2
ex:theoreticalScheme
  a skos:ConceptScheme
ex:conceptEducation
  a skos:Concept
  skos:inScheme ex:theoreticalScheme
  skos:prefLabel "Education"@en
  skos:definition "Organised instruction and training activities."@en
ex:conceptChildCare
  a skos:Concept
  skos:inScheme ex:theoreticalScheme
  skos:broader ex:conceptEducation
  skos:prefLabel "Child Care"@en
  skos:definition "Care and early education services for children."@en
ex:v1
  a disco:Variable
  a sio:SIO_000367
  skos:notation "EU_EDUPRE"@en
  dcterms:description "Attendance of formal pre-school care."@en
  disco:concept ex:conceptChildCare
  disco:question ex:q1
  disco:universe ex:universeEu
  disco:representation ex:eduRepresentation
  disco:summaryStatistics ex:ssV1Cases
  disco:summaryStatistics ex:ssV1Valid
  disco:summaryStatistics ex:ssV1Invalid
ex:v2
  a disco:Variable
  a sio:SIO_000367
  skos:notation "EU_CAREHRS"@en
  dcterms:description "Weekly hours spent in formal childcare."@en
  disco:concept ex:conceptChildCare
  disco:question ex:q2
  disco:universe ex:universeEu
  disco:representation xsd:double
  disco:summaryStatistics ex:ssV2Min
  disco:summaryStatistics ex:ssV2Max
  disco:summaryStatistics ex:ssV2Mean
  disco:summaryStatistics ex:ssV2Cases
ex:eduRepresentation
  a skos:OrderedCollection
  skos:memberList _:cl1
_:cl1
  rdf:first ex:codeYes
  rdf:rest _:cl2
_:cl2
  rdf:first ex:codeNo
  rdf:rest _:cl3
_:cl3
  rdf:first ex:codeNoAnswer
  rdf:rest rdf:nil
ex:codeYes
  a skos:Concept
  skos:notation "1"
  skos:prefLabel "Yes"@en
  disco:isValid true
  disco:categoryStatistics ex:csYes
ex:codeNo
  a skos:Concept
  skos:notation "2"
  skos:prefLabel "No"@en
  disco:isValid true
  disco:categoryStatistics ex:csNo
ex:codeNoAnswer
  a skos:Concept
  skos:notation "9"
  skos:prefLabel "No answer"@en
  disco:isValid false
  disco:categoryStatistics ex:csNoAnswer
ex:csYes
  a disco:CategoryStatistics
  disco:statisticsCategory ex:codeYes
  disco:computationBase "valid"@en
  disco:frequency "{f_yes}"^^xsd:nonNegativeInteger
  disco:percentage "{p_yes}"^^xsd:double
  disco:cumulativePercentage "{c_yes}"^^xsd:double
ex:csNo
  a disco:CategoryStatistics
  disco:statisticsCategory ex:codeNo
  disco:computationBase "valid"@en
  disco:frequency "{f_no}"^^xsd:nonNegativeInteger
  disco:percentage "{p_no}"^^xsd:double
  disco:cumulativePercentage "{c_no}"^^xsd:double
ex:csNoAnswer
  a disco:CategoryStatistics
  disco:statisticsCategory ex:codeNoAnswer
  disco:computationBase "invalid"@en
  disco:frequency "{f_na}"^^xsd:nonNegativeInteger
  disco:percentage "{p_na}"^^xsd:double
  disco:cumulativePercentage "{c_na}"^^xsd:double
ex:ssV1Cases
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:NumberOfCases
  rdf:value "{cases}"^^xsd:nonNegativeInteger
  disco:statisticsVariable ex:v1
ex:ssV1Valid
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:ValidCases
  rdf:value "{valid}"^^xsd:nonNegativeInteger
  disco:statisticsVariable ex:v1
ex:ssV1Invalid
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:InvalidCases
  rdf:value "{f_na}"^^xsd:nonNegativeInteger
  disco:statisticsVariable ex:v1
ex:ssV2Min
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:Minimum
  rdf:value "0.0"^^xsd:double
  disco:statisticsVariable ex:v2
ex:ssV2Max
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:Maximum
  rdf:value "{v2_max}"^^xsd:double
  disco:statisticsVariable ex:v2
ex:ssV2Mean
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:ArithmeticMean
  rdf:value "{v2_mean}"^^xsd:double
  disco:statisticsVariable ex:v2
ex:ssV2Cases
  a disco:SummaryStatistics
  disco:summaryStatisticsType sumstat:NumberOfCases
  rdf:value "{cases}"^^xsd:nonNegativeInteger
  disco:statisticsVariable ex:v2
"""

# Resources every survey shares; written once per corpus.
SURVEY_SHARED = """\
xsd:double
  a rdfs:Datatype
sumstat:NumberOfCases
  a skos:Concept
  skos:definition "The total number of cases of a variable."@en
sumstat:ValidCases
  a skos:Concept
  skos:definition "The number of valid cases of a variable."@en
sumstat:InvalidCases
  a skos:Concept
  skos:definition "The number of invalid cases of a variable."@en
sumstat:Minimum
  a skos:Concept
  skos:definition "The smallest observed value of a variable."@en
sumstat:Maximum
  a skos:Concept
  skos:definition "The largest observed value of a variable."@en
sumstat:ArithmeticMean
  a skos:Concept
  skos:definition "The arithmetic mean of the observed values."@en
"""

SURVEY_BASE = "http://example.org/survey/"
CUBE_BASE = "http://example.org/cube/"
THESAURUS_BASE = "http://example.org/thesaurus/"

# Workload shapes. Sizes are fixed per workload; only the seed-chosen
# content changes between seeds.
WORKLOADS = {
    "survey-nt": {
        "vocab": "disco,dcat,phdd",
        "report": "json",
        "explain": PERCENTAGE_SUM,
        "inputs": [("surveys.nt", "survey", {"copies": 300})],
    },
    "thesaurus-ttl": {
        "vocab": "skos,xkos",
        "report": "text",
        "explain": BROADER_CYCLE,
        "inputs": [("thesaurus.ttl", "thesaurus", {"concepts": 3200, "tops": 8, "fanout": 4})],
    },
    "deposit-full": {
        "vocab": None,
        "report": "json",
        "explain": CODE_NOT_IN_LIST,
        "inputs": [
            ("surveys.nt", "survey", {"copies": 160}),
            ("cube.ttl", "cube", {"areas": 60, "years": 55}),
            ("skos.nt", "thesaurus", {"concepts": 600, "tops": 3, "fanout": 5}),
        ],
    },
}

_TERM = re.compile(r'^"(?P<lex>[^"\\]*)"(?:@(?P<lang>[a-z]+)|\^\^(?P<dt>\S+))?$')


def _iri(text: str, base: str) -> str:
    """Expand a template IRI (``<...>``, ``ex:local`` or ``prefix:local``)."""
    if text.startswith("<"):
        return text
    if text == "a":
        return f"<{PREFIXES['rdf']}type>"
    prefix, local = text.split(":", 1)
    namespace = base if prefix == "ex" else PREFIXES[prefix]
    return f"<{namespace}{local}>"


def _term(text: str, base: str, blank: str) -> str:
    """N-Triples spelling of one template term."""
    if text.startswith("_:"):
        return f"_:{blank}{text[2:]}"
    if text in ("true", "false"):
        return f'"{text}"^^<{PREFIXES["xsd"]}boolean>'
    if text.startswith('"'):
        m = _TERM.match(text)
        if m is None:
            raise ValueError(f"bad template literal {text}")
        if m["lang"]:
            return f'"{m["lex"]}"@{m["lang"]}'
        if m["dt"]:
            return f'"{m["lex"]}"^^{_iri(m["dt"], base)}'
        return f'"{m["lex"]}"'
    return _iri(text, base)


def expand(template: str, base: str, blank: str = "") -> list[tuple[str, str, str]]:
    """Triples of a block template, each term in N-Triples syntax."""
    triples = []
    subject = None
    for line in template.splitlines():
        if not line.strip():
            continue
        if not line.startswith(" "):
            subject = _term(line.strip(), base, blank)
            continue
        predicate, obj = line.strip().split(" ", 1)
        triples.append((subject, _iri(predicate, base), _term(obj, base, blank)))
    return triples


def _tenths(value: int) -> str:
    return f"{value // 10}.{value % 10}"


def _tokens(rng: random.Random, count: int, prefix: str) -> list[str]:
    """``count`` distinct seeded names; their sort order is seeded too."""
    seen: set[str] = set()
    out = []
    while len(out) < count:
        token = f"{prefix}{rng.getrandbits(32):08x}"
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


def survey_triples(rng: random.Random, copies: int, planted: list[dict]):
    """``copies`` surveys; one of them gets code percentages that do not
    sum to 100."""
    triples = expand(SURVEY_SHARED, SURVEY_BASE)
    bad = rng.randrange(copies)
    for k, tag in enumerate(_tokens(rng, copies, "s")):
        cases = 1000
        f_yes = rng.randint(300, 700)
        f_no = rng.randint(100, cases - f_yes - 50)
        f_na = cases - f_yes - f_no
        p_na = f_na + 50 if k == bad else f_na
        v2_max = rng.randint(40, 90)
        values = {
            "tag": tag,
            "year": rng.randint(2004, 2020),
            "cases": cases,
            "valid": f_yes + f_no,
            "f_yes": f_yes,
            "f_no": f_no,
            "f_na": f_na,
            # percentages and cumulative percentages in tenths of a percent
            "p_yes": _tenths(f_yes),
            "p_no": _tenths(f_no),
            "p_na": _tenths(p_na),
            "c_yes": _tenths(f_yes),
            "c_no": _tenths(f_yes + f_no),
            "c_na": _tenths(cases),
            "v2_max": f"{v2_max}.0",
            "v2_mean": f"{rng.randint(5, v2_max - 5)}.{rng.randint(0, 9)}",
        }
        base = f"{SURVEY_BASE}{tag}/"
        triples.extend(expand(SURVEY_TEMPLATE.format(**values), base, blank=tag))
        if k == bad:
            planted.append({"id": PERCENTAGE_SUM, "focus": f"<{base}v1>"})
    return triples


def cube_triples(rng: random.Random, areas: int, years: int, planted: list[dict]):
    """An area x year grid of observations in the shape of cube.ttl, plus
    one observation duplicating another's dimension values (IC-12) and one
    whose area is missing from the code list (IC-19)."""
    ex = CUBE_BASE
    qb = PREFIXES["qb"]
    template = """\
ex:dsd
  a qb:DataStructureDefinition
  qb:component ex:compArea
  qb:component ex:compYear
  qb:component ex:compRate
  qb:component ex:compUnit
  qb:sliceKey ex:keyYear
ex:compArea
  a qb:ComponentSpecification
  qb:dimension ex:refArea
  qb:order "1"
ex:compYear
  a qb:ComponentSpecification
  qb:dimension ex:refYear
  qb:order "2"
ex:compRate
  a qb:ComponentSpecification
  qb:measure ex:careRate
ex:compUnit
  a qb:ComponentSpecification
  qb:attribute ex:unitMeasure
  qb:componentRequired true
ex:refArea
  a qb:DimensionProperty
  a qb:CodedProperty
  rdfs:range skos:Concept
  qb:codeList ex:areaScheme
ex:refYear
  a qb:DimensionProperty
  rdfs:range xsd:gYear
ex:careRate
  a qb:MeasureProperty
  rdfs:range xsd:double
ex:unitMeasure
  a qb:AttributeProperty
ex:areaScheme
  a skos:ConceptScheme
ex:ds
  a qb:DataSet
  qb:structure ex:dsd
  qb:slice ex:slice
ex:keyYear
  a qb:SliceKey
  qb:componentProperty ex:refYear
ex:slice
  a qb:Slice
  qb:sliceStructure ex:keyYear
"""
    triples = expand(template, ex)
    rdf_type = f"<{PREFIXES['rdf']}type>"
    gyear = f"<{PREFIXES['xsd']}gYear>"
    double = f"<{PREFIXES['xsd']}double>"
    area_names = _tokens(rng, areas + 1, "area")
    stray = area_names.pop()
    for name in area_names:
        triples.append((f"<{ex}{name}>", rdf_type, f"<{PREFIXES['skos']}Concept>"))
        triples.append((f"<{ex}{name}>", f"<{PREFIXES['skos']}inScheme>", f"<{ex}areaScheme>"))
    # the stray area is a concept, but not in the area scheme
    triples.append((f"<{ex}{stray}>", rdf_type, f"<{PREFIXES['skos']}Concept>"))
    first_year = 1960
    slice_year = first_year + rng.randrange(years)
    triples.append((f"<{ex}slice>", f"<{ex}refYear>", f'"{slice_year}"^^{gyear}'))
    obs_names = _tokens(rng, areas * years + 2, "o")

    def observation(name: str, area: str, year: int) -> None:
        obs = f"<{ex}{name}>"
        rate = f"{rng.randint(0, 999)}.{rng.randint(0, 9)}"
        triples.extend([
            (obs, rdf_type, f"<{qb}Observation>"),
            (obs, f"<{qb}dataSet>", f"<{ex}ds>"),
            (obs, f"<{ex}refArea>", f"<{ex}{area}>"),
            (obs, f"<{ex}refYear>", f'"{year}"^^{gyear}'),
            (obs, f"<{ex}careRate>", f'"{rate}"^^{double}'),
            (obs, f"<{ex}unitMeasure>", '"percent"'),
        ])
        if year == slice_year:
            triples.append((f"<{ex}slice>", f"<{qb}observation>", obs))

    cells = [(a, first_year + y) for a in area_names for y in range(years)]
    for name, (area, year) in zip(obs_names, cells):
        observation(name, area, year)
    dup_name, stray_name = obs_names[-2:]
    twin = rng.randrange(len(cells))
    while cells[twin][1] == slice_year:
        twin = rng.randrange(len(cells))
    observation(dup_name, *cells[twin])
    pair = sorted([obs_names[twin], dup_name])
    planted.append({"id": DUPLICATE_OBSERVATION, "focus": f"<{ex}{pair[0]}>"})
    observation(stray_name, stray, first_year + rng.randrange(years))
    planted.append({"id": CODE_NOT_IN_LIST, "focus": f"<{ex}{stray_name}>"})
    return triples


def thesaurus_triples(rng: random.Random, concepts: int, tops: int, fanout: int,
                      planted: list[dict]):
    """A SKOS tree in the shape of thesaurus_clean.ttl. Every concept states
    skos:broader, but each parent states skos:narrower only for its first
    child, as many real thesauri do. Three leaves are joined into a
    skos:broader cycle."""
    ex = THESAURUS_BASE
    skos = PREFIXES["skos"]
    rdf_type = f"<{PREFIXES['rdf']}type>"
    scheme = f"<{ex}scheme>"
    triples = [
        (scheme, rdf_type, f"<{skos}ConceptScheme>"),
        (scheme, f"<{PREFIXES['dcterms']}title>", '"Energy Thesaurus"@en'),
    ]
    names = [f"<{ex}{n}>" for n in _tokens(rng, concepts, "c")]
    parent = {i: (i - tops) // fanout for i in range(tops, concepts)}
    has_child: set[int] = set()
    for i, node in enumerate(names):
        label = node[len(ex) + 1:-1]
        triples.extend([
            (node, rdf_type, f"<{skos}Concept>"),
            (node, f"<{skos}inScheme>", scheme),
            (node, f"<{skos}prefLabel>", f'"Term {label}"@en'),
            (node, f"<{skos}prefLabel>", f'"Begriff {label}"@de'),
            (node, f"<{skos}definition>", f'"Definition of term {label}"@en'),
        ])
        if i < tops:
            triples.append((scheme, f"<{skos}hasTopConcept>", node))
            triples.append((node, f"<{skos}topConceptOf>", scheme))
            continue
        up = parent[i]
        triples.append((node, f"<{skos}broader>", names[up]))
        if up not in has_child:
            has_child.add(up)
            triples.append((names[up], f"<{skos}narrower>", node))
    # The three leaves share one top concept, so the number of disconnected
    # trees (and of findings about them) is the same for every seed.
    root = list(range(tops)) + [0] * (concepts - tops)
    for i in range(tops, concepts):
        root[i] = root[parent[i]]
    top = rng.randrange(tops)
    leaves = [i for i in range(tops, concepts) if i not in has_child and root[i] == top]
    ring = rng.sample(leaves, 3)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        triples.append((names[a], f"<{skos}broader>", names[b]))
    planted.append({"id": BROADER_CYCLE, "focus": min(names[i] for i in ring)})
    return triples


_SHAPES = {"survey": survey_triples, "cube": cube_triples, "thesaurus": thesaurus_triples}


def to_ntriples(triples) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


_PN_LOCAL = re.compile(r"^[A-Za-z0-9_](?:[A-Za-z0-9_-]*[A-Za-z0-9_])?$")


def _compact(term: str, prefixes: dict[str, str]) -> str:
    """Turtle spelling of an N-Triples term, using a prefixed name where the
    local part is plain."""
    if term.startswith("<"):
        iri = term[1:-1]
        for name, namespace in prefixes.items():
            if iri.startswith(namespace) and _PN_LOCAL.match(iri[len(namespace):]):
                return f"{name}:{iri[len(namespace):]}"
        return term
    if term.startswith('"') and "^^<" in term:
        lex, datatype = term.rsplit("^^", 1)
        return f"{lex}^^{_compact(datatype, prefixes)}"
    return term


def to_turtle(triples, base: str) -> str:
    """Subject blocks with ``;`` and ``,`` lists, as the fixtures are written."""
    prefixes = {"ex": base, **PREFIXES}
    rdf_type = f"<{PREFIXES['rdf']}type>"
    blocks: dict[str, dict[str, list[str]]] = {}
    for s, p, o in triples:
        blocks.setdefault(s, {}).setdefault(p, []).append(o)
    lines = [f"@prefix {name}: <{namespace}> ." for name, namespace in prefixes.items()]
    for s, predicates in blocks.items():
        lines.append("")
        parts = []
        for p, objects in predicates.items():
            verb = "a" if p == rdf_type else _compact(p, prefixes)
            parts.append(f"{verb} " + ", ".join(_compact(o, prefixes) for o in objects))
        lines.append(f"{_compact(s, prefixes)}\n    " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs and ``manifest.json`` under ``out``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    planted: list[dict] = []
    seen: set[tuple[str, str, str]] = set()
    inputs = []
    for filename, shape, params in spec["inputs"]:
        triples = _SHAPES[shape](rng, **params, planted=planted)
        if len(set(triples)) != len(triples) or seen.intersection(triples):
            raise AssertionError(f"{workload}: {filename} repeats a triple")
        seen.update(triples)
        if filename.endswith(".ttl"):
            base = {"cube": CUBE_BASE, "thesaurus": THESAURUS_BASE}[shape]
            text = to_turtle(triples, base)
        else:
            text = to_ntriples(triples)
        (out / filename).write_text(text, encoding="utf-8", newline="\n")
        inputs.append({"path": filename, "triples": len(triples)})
    manifest = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "triples": len(seen),
        "vocab": spec["vocab"],
        "report": spec["report"],
        "explain": spec["explain"],
        # The unplanted part of every shape is free of error-level findings,
        # so rdfcheck exits 1 exactly when an error-level defect is planted.
        "expected_exit": 1 if any(d["id"] in ERROR_IDS for d in planted) else 0,
        "planted": sorted(planted, key=lambda d: (d["id"], d["focus"])),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps({k: manifest[k] for k in ("triples", "expected_exit", "planted")}))


if __name__ == "__main__":
    main()
