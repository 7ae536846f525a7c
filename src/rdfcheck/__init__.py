"""Closed-world RDF constraint validation for SBE metadata vocabularies."""

from .graph import Graph, MalformedListError, walk_rdf_list
from .ntriples import ParseError, parse_ntriples, serialize_ntriples
from .terms import BlankNode, Iri, Literal, Term, Triple
from .turtle import parse_turtle
from .xsd import (
    InvalidLexicalError,
    UnknownDatatypeError,
    XsdValue,
    parse_xsd_value,
)

__all__ = [
    "BlankNode",
    "Graph",
    "InvalidLexicalError",
    "Iri",
    "Literal",
    "MalformedListError",
    "ParseError",
    "Term",
    "Triple",
    "UnknownDatatypeError",
    "XsdValue",
    "parse_ntriples",
    "parse_turtle",
    "parse_xsd_value",
    "serialize_ntriples",
    "walk_rdf_list",
]

__version__ = "0.1.0"
