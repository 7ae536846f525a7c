"""Built-in constraints fire on small graphs built from their own parameters.

A constraint whose IRIs a catalog slip had changed would check nothing and
still pass every other test; here each covered id must report at least one
violation on a graph that states the defect it looks for. Where the type
allows it, the graph comes from the constraint's parameters (and its
vocabulary's inventory); the SKOS modes and the qb code list take
hand-written graphs. Covered so far: the subproperty, inverse-pair,
asymmetric-property, equivalent-properties and vocab-membership constraints,
and the SKOS unidirectional, solely-transitive, valueless-associative,
relation-clash and mapping-clash modes.
"""

from __future__ import annotations

import pytest

from rdfcheck.catalog import builtin_catalog
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.namespaces import QB, RDF_TYPE, SKOS
from rdfcheck.terms import Iri, Triple

CATALOG = builtin_catalog()
EX = "http://example.org/fire/"
A, B, C = (Iri(EX + name) for name in "abc")

# ids that cannot fire with the shipped inventories, and why
CANNOT_FIRE = {
    f"{prefix}-C-EQUIVALENT-PROPERTIES-01": f"the {vocabulary} inventory declares no "
    "equivalent_property_pairs, so the constraint has nothing to compare"
    for prefix, vocabulary in (("DATA-CUBE", "qb"), ("DCAT", "dcat"), ("PHDD", "phdd"),
                               ("SKOS", "skos"), ("XKOS", "xkos"))
}

# the hand-written graphs, by mode
_SKOS_DEFECTS = {
    # a skos:related link between two children of one parent
    "valueless-associative": [(A, "broader", C), (B, "broader", C), (A, "related", B)],
    # a transitive link with no direct one
    "solely-transitive": [(A, "broaderTransitive", B)],
    # a broader link with no narrower one back
    "unidirectional": [(A, "broader", B)],
    # a related link between a concept and its parent
    "relation": [(A, "broader", B), (A, "related", B)],
    # an exact match that is also a broad match
    "mapping": [(A, "exactMatch", B), (A, "broadMatch", B)],
}
_CODE_LIST_DEFECT = [
    Triple(A, Iri(RDF_TYPE), Iri(QB + "DimensionProperty")),
    Triple(A, Iri(QB + "codeList"), B),
    Triple(C, Iri(RDF_TYPE), Iri(QB + "Observation")),
    Triple(C, A, Iri(EX + "not-a-code")),
]


def _typed(node: Iri, cls: str | None) -> list[Triple]:
    return [] if cls is None else [Triple(node, Iri(RDF_TYPE), Iri(cls))]


def _defect(constraint) -> list[Triple]:
    """The triples of a graph on which ``constraint`` must fire."""
    params = constraint.params
    if constraint.type in ("skos-structure", "skos-clashes"):
        return [Triple(s, Iri(SKOS + p), o) for s, p, o in _SKOS_DEFECTS[params["mode"]]]
    if constraint.type == "vocab-membership" and params.get("mode") == "qb-codelist":
        return _CODE_LIST_DEFECT
    if constraint.type == "equivalent-properties":
        pairs = CATALOG.inventory(params["vocabulary"]).equivalent_property_pairs
        return [Triple(A, Iri(p), B) for p, _ in pairs]
    prop = Iri(params["property"])
    if constraint.type == "asymmetric-property":
        return [Triple(A, prop, B), Triple(B, prop, A)]
    # subproperty, inverse-pair and vocab-membership: one statement whose
    # subject is in scope, with no super-property, inverse or scheme member
    return [Triple(A, prop, B), *_typed(A, params.get("scope"))]


COVERED = sorted(
    cid for cid, c in CATALOG.constraints.items()
    if c.type in ("subproperty", "inverse-pair", "asymmetric-property",
                  "equivalent-properties", "vocab-membership")
    or c.params.get("mode") in _SKOS_DEFECTS
)


def test_covered_ids_are_the_expected_ones():
    assert len(COVERED) == 18
    assert all(CATALOG.constraints[cid].evaluable for cid in COVERED)


@pytest.mark.parametrize("cid", COVERED)
def test_constraint_fires_on_its_defect(cid):
    constraint = CATALOG.constraints[cid]
    report = validate(Graph(_defect(constraint)), CATALOG, [constraint])
    fired = any(v.constraint_id == cid for v in report.violations)
    assert fired == (cid not in CANNOT_FIRE), CANNOT_FIRE.get(cid, cid)
