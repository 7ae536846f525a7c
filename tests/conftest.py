from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from rdfcheck.catalog import CONSTRAINT_TYPES, Catalog, builtin_catalog, merge_catalogs
from rdfcheck.checks.context import GraphContext
from rdfcheck.graph import Graph
from rdfcheck.namespaces import WELL_KNOWN_PREFIXES
from rdfcheck.terms import BlankNode, Iri, Literal, Triple
from rdfcheck.turtle import parse_turtle

FIXTURES = Path(__file__).parent / "fixtures"


def expand(compact: str) -> str:
    """Expand ``ex:`` and well-known ``prefix:local`` names; absolute IRIs
    and other text pass through unchanged."""
    if compact.startswith("ex:"):
        return "http://example.org/" + compact[3:]
    if "://" in compact or compact.startswith("urn:"):
        return compact
    prefix, sep, local = compact.partition(":")
    if sep and prefix in WELL_KNOWN_PREFIXES:
        return WELL_KNOWN_PREFIXES[prefix] + local
    return compact


def iri(compact: str) -> Iri:
    return Iri(expand(compact))


def lit(lexical: str, datatype: str | None = None, lang: str | None = None) -> Literal:
    if lang is not None:
        return Literal(lexical, lang=lang)
    if datatype is not None:
        return Literal(lexical, datatype=expand(datatype))
    return Literal(lexical)


def triple(s, p, o) -> Triple:
    def term(x):
        if isinstance(x, (Iri, BlankNode, Literal)):
            return x
        return iri(x)

    return Triple(term(s), term(p), term(o))


def graph(*spo_rows) -> Graph:
    return Graph([triple(*row) for row in spo_rows])


def load_catalog(document) -> Catalog:
    """One catalog document on its own: merged over an empty catalog."""
    return merge_catalogs(Catalog({}, {}), document)


def checker(type_id: str, key=None):
    """The checker the registry names for a type; for a type with a table,
    the one its table gives ``key``."""
    name = CONSTRAINT_TYPES[type_id].check
    if key is not None:
        name = name[key][0]
    module, function = name.split(".")
    return getattr(importlib.import_module(f"rdfcheck.checks.{module}"), function)


def ctx_for(g: Graph, catalog: Catalog | None = None) -> GraphContext:
    return GraphContext(g, catalog)


def load_fixture(name: str) -> Graph:
    return Graph(parse_turtle((FIXTURES / name).read_bytes()))


@pytest.fixture(scope="session")
def full_catalog() -> Catalog:
    return builtin_catalog()


@pytest.fixture(scope="session")
def disco_catalog() -> Catalog:
    return builtin_catalog({"disco"})


@pytest.fixture(scope="session")
def qb_catalog() -> Catalog:
    return builtin_catalog({"qb"})


@pytest.fixture(scope="session")
def skos_catalog() -> Catalog:
    return builtin_catalog({"skos"})


@pytest.fixture(scope="session")
def eusilc() -> Graph:
    return load_fixture("eusilc.ttl")


@pytest.fixture(scope="session")
def cube_fixture() -> Graph:
    return load_fixture("cube.ttl")
