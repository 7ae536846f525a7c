import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdfcheck.catalog import (
    Catalog,
    CatalogError,
    Severity,
    builtin_catalog,
    load_catalog,
    merge_catalogs,
)


def minimal_doc(**overrides):
    doc = {
        "vocabularies": [
            {
                "name": "toy",
                "namespace": "http://toy/",
                "classes": ["http://toy/Thing"],
                "properties": ["http://toy/prop"],
            }
        ],
        "constraints": [
            {
                "id": "TOY-1",
                "type": "property-domain",
                "severity": "error",
                "params": {"property": "http://toy/prop",
                            "classes": ["http://toy/Thing"]},
            }
        ],
    }
    doc.update(overrides)
    return doc


def test_severity_total_order():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert str(Severity.WARNING) == "warning"
    assert Severity.parse("ERROR") is Severity.ERROR


def test_empty_constraint_list_loads():
    catalog = load_catalog({"vocabularies": [], "constraints": []})
    assert catalog.constraints == {}


def test_unknown_type_rejected():
    doc = minimal_doc()
    doc["constraints"][0]["type"] = "no-such-type"
    with pytest.raises(CatalogError, match="unknown constraint type"):
        load_catalog(doc)


def test_missing_required_param_rejected():
    doc = minimal_doc()
    doc["constraints"][0]["params"] = {}
    with pytest.raises(CatalogError, match="missing required param 'property'"):
        load_catalog(doc)


def test_duplicate_id_rejected():
    doc = minimal_doc()
    doc["constraints"].append(dict(doc["constraints"][0]))
    with pytest.raises(CatalogError, match="duplicate constraint id"):
        load_catalog(doc)


def test_bad_pattern_rejected_at_load():
    doc = minimal_doc()
    doc["constraints"] = [{
        "id": "TOY-2", "type": "literal-pattern", "severity": "info",
        "params": {"property": "http://toy/prop", "pattern": "("},
    }]
    with pytest.raises(CatalogError, match="does not compile"):
        load_catalog(doc)


def test_unknown_param_rejected():
    doc = minimal_doc()
    doc["constraints"][0]["params"]["wild"] = 1
    with pytest.raises(CatalogError, match="unknown params"):
        load_catalog(doc)


def test_compact_iris_expand_with_document_prefixes():
    doc = minimal_doc(prefixes={"toy": "http://toy/"})
    doc["constraints"][0]["params"] = {"property": "toy:prop",
                                        "classes": ["toy:Thing"]}
    catalog = load_catalog(doc)
    assert catalog.constraints["TOY-1"].params["property"] == "http://toy/prop"


def test_cyclic_subclass_edges_rejected():
    doc = minimal_doc()
    doc["vocabularies"][0]["classes"] = ["http://toy/A", "http://toy/B"]
    doc["vocabularies"][0]["subclass_of"] = [
        ["http://toy/A", "http://toy/B"],
        ["http://toy/B", "http://toy/A"],
    ]
    with pytest.raises(CatalogError, match="cycle"):
        load_catalog(doc)


def test_undeclared_edge_endpoint_in_namespace_rejected():
    doc = minimal_doc()
    doc["vocabularies"][0]["subclass_of"] = [
        ["http://toy/Thing", "http://toy/Ghost"]
    ]
    with pytest.raises(CatalogError, match="not declared"):
        load_catalog(doc)


@pytest.mark.parametrize("document", [
    {"prefixes": []}, {"vocabularies": 5}, {"constraints": 7}, {"bogus": 1},
    b"\xff{}", {"constraints": [{"id": "X-1", "type": "http-scheme", "severity": 5}]},
])
def test_load_and_merge_reject_the_same_documents(document):
    with pytest.raises(CatalogError):
        load_catalog(document)
    with pytest.raises(CatalogError):
        merge_catalogs(Catalog({}, {}), document)


def test_severity_patch_merge():
    base = load_catalog(minimal_doc())
    merged = merge_catalogs(base, {"constraints": [
        {"id": "TOY-1", "severity": "warning"}
    ]})
    assert merged.constraints["TOY-1"].severity is Severity.WARNING
    # the base catalog object is untouched
    assert base.constraints["TOY-1"].severity is Severity.ERROR


def test_severity_patch_for_unknown_id_rejected():
    base = load_catalog(minimal_doc())
    with pytest.raises(CatalogError, match="unknown constraint id"):
        merge_catalogs(base, {"constraints": [{"id": "GHOST", "severity": "info"}]})


def test_merge_with_empty_override_is_identity():
    base = load_catalog(minimal_doc())
    merged = merge_catalogs(base, {})
    assert merged.constraints.keys() == base.constraints.keys()
    assert merged.to_json() == base.to_json()


def test_full_entry_override_replaces():
    base = load_catalog(minimal_doc())
    merged = merge_catalogs(base, {"constraints": [{
        "id": "TOY-1", "type": "http-scheme", "severity": "info", "params": {},
    }]})
    assert merged.constraints["TOY-1"].type == "http-scheme"


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_sequential_merge_equals_concatenated_merge(n_a, n_b):
    # disjoint override batches can be merged one by one or all at once
    base = load_catalog(minimal_doc())

    def entries(prefix, n):
        return [
            {"id": f"{prefix}-{i}", "type": "http-scheme", "severity": "info",
             "params": {}}
            for i in range(n)
        ]

    a, b = entries("A", n_a), entries("B", n_b)
    stepwise = merge_catalogs(merge_catalogs(base, {"constraints": a}),
                              {"constraints": b})
    oneshot = merge_catalogs(base, {"constraints": a + b})
    assert stepwise.to_json() == oneshot.to_json()


def test_select_intersection_semantics(full_catalog):
    skos_structural = full_catalog.select(vocabularies={"skos"},
                                          types={"skos-structure"})
    assert [c.id for c in skos_structural] == [
        f"SKOS-C-STRUCTURE-{n:02d}" for n in range(1, 11)
    ]


def test_select_unknown_vocabulary_lists_known(full_catalog):
    with pytest.raises(CatalogError, match="known"):
        full_catalog.select(vocabularies={"nope"})


def test_select_empty_filters_returns_everything(full_catalog):
    assert len(full_catalog.select()) == len(full_catalog.constraints)


def test_subset_filter_cardinality_property(full_catalog):
    a = {c.id for c in full_catalog.select(vocabularies={"skos"})}
    b = {c.id for c in full_catalog.select(vocabularies={"qb"})}
    both = {c.id for c in full_catalog.select(vocabularies={"skos", "qb"})}
    assert len(a) + len(b) >= len(both)
    assert a | b == both


def test_load_is_idempotent_via_serialization(full_catalog):
    reloaded = load_catalog(full_catalog.to_json())
    assert reloaded.to_json() == full_catalog.to_json()


def test_explain_unknown_id_errors(full_catalog):
    with pytest.raises(CatalogError):
        full_catalog.explain("NO-SUCH-CONSTRAINT")


def test_explain_returns_record(full_catalog):
    record = full_catalog.explain("DATA-CUBE-C-DATA-MODEL-CONSISTENCY-05")
    assert record["severity"] == "warning"
    assert "IC-12" in record["reference"] or "IC-12" in record["description"]


def test_every_builtin_id_explains(full_catalog):
    for cid in full_catalog.constraints:
        record = full_catalog.explain(cid)
        assert record["id"] == cid
        assert record["severity"] in ("info", "warning", "error")


def test_builtin_selection_subset():
    skos_only = builtin_catalog({"skos"})
    assert set(skos_only.inventories) == {"skos"}
    assert all(c.id.startswith("SKOS-C-") for c in skos_only.constraints.values())


def test_builtin_unknown_name_rejected():
    with pytest.raises(CatalogError, match="known"):
        builtin_catalog({"skoss"})


def test_disco_catalog_size_and_literal_ranges(disco_catalog):
    # the shipped catalog is substantial and carries the percentage bound
    assert len(disco_catalog.constraints) >= 100
    ranges = disco_catalog.constraints["DISCO-C-LITERAL-RANGES-01"]
    assert ranges.severity is Severity.ERROR
    assert ranges.params["min"] == 0 and ranges.params["max"] == 100
