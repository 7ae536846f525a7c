"""IRI constants for the vocabularies the built-in catalogs cover."""

from __future__ import annotations

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"
XSD = "http://www.w3.org/2001/XMLSchema#"
SKOS = "http://www.w3.org/2004/02/skos/core#"
XKOS = "http://rdf-vocabulary.ddialliance.org/xkos#"
DISCO = "http://rdf-vocabulary.ddialliance.org/discovery#"
QB = "http://purl.org/linked-data/cube#"
PHDD = "http://rdf-vocabulary.ddialliance.org/phdd#"
DCAT = "http://www.w3.org/ns/dcat#"
DCTERMS = "http://purl.org/dc/terms/"
DC11 = "http://purl.org/dc/elements/1.1/"
ADMS = "http://www.w3.org/ns/adms#"
SIO = "http://semanticscience.org/resource/"
DDICV = "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType#"

RDF_TYPE = RDF + "type"
RDF_FIRST = RDF + "first"
RDF_REST = RDF + "rest"
RDF_NIL = RDF + "nil"
RDF_VALUE = RDF + "value"
RDF_LANGSTRING = RDF + "langString"
RDF_PROPERTY = RDF + "Property"

RDFS_LABEL = RDFS + "label"
RDFS_RANGE = RDFS + "range"
RDFS_DATATYPE = RDFS + "Datatype"

OWL_INVERSE_OF = OWL + "inverseOf"

XSD_STRING = XSD + "string"
XSD_BOOLEAN = XSD + "boolean"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_DATE = XSD + "date"
XSD_DATETIME = XSD + "dateTime"
XSD_GYEAR = XSD + "gYear"
XSD_NON_NEGATIVE_INTEGER = XSD + "nonNegativeInteger"

#: Well-known prefixes used when rendering diagnostics and explain output.
WELL_KNOWN_PREFIXES: dict[str, str] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
    "skos": SKOS,
    "xkos": XKOS,
    "disco": DISCO,
    "qb": QB,
    "phdd": PHDD,
    "dcat": DCAT,
    "dcterms": DCTERMS,
    "dc": DC11,
    "adms": ADMS,
    "sio": SIO,
    "ddicv-sumstats": DDICV,
}


def compact(iri: str) -> str:
    """Render an IRI with a well-known prefix when one applies."""
    best = ""
    best_prefix = ""
    for prefix, ns in WELL_KNOWN_PREFIXES.items():
        if iri.startswith(ns) and len(ns) > len(best):
            best, best_prefix = ns, prefix
    if best:
        return f"{best_prefix}:{iri[len(best):]}"
    return iri
