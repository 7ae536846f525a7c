import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import (
    Catalog,
    CatalogError,
    Severity,
    builtin_catalog,
    merge_catalogs,
)

from conftest import load_catalog


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


@pytest.mark.parametrize("ic, accepted", [
    (3, True), (8, True), (10, True), (18, True), (20, True), (21, True),
    (0, False), (-1, False), (2, False), (9, False), (19, False), (22, False),
    (10**30, False),
])
def test_integrity_constraint_number_checked_at_load(ic, accepted):
    doc = {"vocabularies": [], "constraints": [{
        "id": "QB-1", "type": "qb-integrity", "severity": "error", "params": {"ic": ic},
    }]}
    if accepted:
        assert load_catalog(doc).constraints["QB-1"].params["ic"] == ic
    else:
        with pytest.raises(CatalogError, match="QB-1.*expected one of"):
            load_catalog(doc)


@pytest.mark.parametrize("ic, message", [
    (99, "expected one of [3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21], "
         "got 99"),
    (3.0, "expected an integer"), (True, "expected an integer"), ("3", "expected an integer"),
])
def test_integrity_constraint_diagnostic_text(ic, message):
    doc = {"constraints": [{
        "id": "QB-1", "type": "qb-integrity", "severity": "error", "params": {"ic": ic},
    }]}
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    assert str(caught.value) == f"constraint 'QB-1'.params.ic: {message}"


@pytest.mark.parametrize("name, accepted", [
    ("toy", True), ("disco", True), ("skos", True),
    ("x", False), ("", False), ("http://e/", False), ("Toy", False),
])
def test_vocabulary_param_checked_at_load(name, accepted):
    # the catalog's own inventories and the built-in vocabularies are known
    doc = minimal_doc()
    doc["constraints"][0] = {
        "id": "TOY-1", "type": "irreflexive-table", "severity": "error",
        "params": {"vocabulary": name},
    }
    if accepted:
        assert load_catalog(doc).constraints["TOY-1"].params["vocabulary"] == name
        assert merge_catalogs(Catalog({}, {}), doc).constraints["TOY-1"]
        return
    message = (
        f"constraint 'TOY-1': params.vocabulary: unknown vocabulary {name!r}; "
        "known vocabularies: dcat, disco, phdd, qb, skos, toy, xkos"
    )
    for load in (load_catalog, lambda d: merge_catalogs(Catalog({}, {}), d)):
        with pytest.raises(CatalogError) as caught:
            load(doc)
        assert str(caught.value) == message


def test_unknown_param_rejected():
    doc = minimal_doc()
    doc["constraints"][0]["params"]["wild"] = 1
    with pytest.raises(CatalogError, match="unknown params"):
        load_catalog(doc)


def _toy(ctype, params):
    return {"constraints": [{"id": "TOY-2", "type": ctype, "severity": "error",
                             "params": params}]}


_RULE = {"property": "skos:prefLabel", "scope": "skos:Concept"}


@pytest.mark.parametrize("ctype, params, message", [
    ("cardinality-table", {"rules": [_RULE]},
     "rules[0]: missing required key 'min' or 'max'"),
    ("cardinality-table", {"rules": [{"scope": "skos:Concept", "min": 1}]},
     "rules[0]: missing required key 'property'"),
    ("cardinality-table", {"rules": [dict(_RULE, min=1, x=1)]}, "rules[0]: unknown keys ['x']"),
    ("cardinality-table", {"rules": [dict(_RULE, min="1")]}, "rules[0].min: expected an integer"),
    ("cardinality-table", {"rules": [5]}, "rules[0]: expected an object"),
    ("cardinality-table", {"rules": {}}, "rules: expected a list of objects"),
    ("default-values", {"defaults": [{"scope": "skos:Concept", "property": "skos:notation"}]},
     "defaults[0]: missing required key 'value'"),
    ("range-table", {"ranges": {"skos:broader": {}}},
     "ranges['skos:broader']: missing required key 'classes' or 'datatype'"),
    ("range-table", {"ranges": {"skos:broader": 5}}, "ranges['skos:broader']: expected an object"),
    ("range-table", {"ranges": {"skos:broader": {"datatype": "xsd:string", "x": 1}}},
     "ranges['skos:broader']: unknown keys ['x']"),
    ("range-table", {"ranges": {"skos:broader": {"classes": 1}}},
     "ranges['skos:broader'].classes: expected a list of IRIs"),
    ("range-table", {"ranges": {"a b": {"classes": []}}},
     "ranges: 'a b' is not an IRI or known compact name"),
])
def test_rows_and_range_specs_are_checked_at_load(ctype, params, message):
    with pytest.raises(CatalogError) as caught:
        load_catalog(_toy(ctype, params))
    assert str(caught.value) == f"constraint 'TOY-2'.params.{message}"


def test_rows_and_range_specs_load_as_their_row_types_params():
    # a rule loads as a cardinality constraint's params, a range spec as a
    # property-range constraint's without its property
    rule = dict(_RULE, min=1, qualifier_datatype="xsd:string")
    spec = {"scope": "skos:Concept", "datatype": "xsd:string", "classes": ["skos:Concept"]}
    table = load_catalog(_toy("cardinality-table", {"rules": [rule]}))
    single = load_catalog(_toy("cardinality", rule))
    assert table.constraints["TOY-2"].params["rules"] == [single.constraints["TOY-2"].params]
    table = load_catalog(_toy("range-table", {"ranges": {"skos:broader": spec}}))
    single = load_catalog(_toy("property-range", {"property": "skos:broader", **spec}))
    params = dict(single.constraints["TOY-2"].params)
    assert table.constraints["TOY-2"].params["ranges"] == {params.pop("property"): params}
    assert list(params) == ["classes", "datatype", "scope"]


@pytest.mark.parametrize("fields, message", [
    ({"bogus": 1}, ": unknown keys ['bogus']"),
    ({"namespace": None}, ".namespace: expected a string"),
    ({"classes": "x"}, ".classes: expected a list of IRIs"),
    ({"inverse_pairs": [["http://a"]]}, ".inverse_pairs: ['http://a'] is not a 2-element pair"),
    ({"controlled_vocabularies": 5},
     ".controlled_vocabularies: expected a map of IRI to IRI list"),
    ({"controlled_vocabularies": {"a b": []}},
     ".controlled_vocabularies: 'a b' is not an IRI or known compact name"),
    ({"controlled_vocabularies": {"http://s": 5}}, ".controlled_vocabularies: expected a list of IRIs"),
])
def test_inventory_fields_are_checked_at_load(fields, message):
    doc = minimal_doc()
    doc["vocabularies"][0].update(fields)
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    assert str(caught.value) == f"vocabulary 'toy'{message}"


@pytest.mark.parametrize("field", ["vocabulary", "reference", "description"])
@pytest.mark.parametrize("value", [["skos"], 5, None])
def test_constraint_text_fields_must_be_strings(field, value):
    doc = {"constraints": [{"id": "U-1", "type": "http-scheme", "severity": "error",
                            field: value}]}
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    assert str(caught.value) == f"constraint 'U-1'.{field}: expected a string"


def test_constraint_text_fields_load_as_given():
    doc = {"constraints": [{"id": "U-1", "type": "http-scheme", "severity": "error",
                            "vocabulary": "skos", "reference": "r", "description": "d"}]}
    record = load_catalog(doc).explain("U-1")
    assert (record["vocabulary"], record["reference"], record["description"]) == (
        "skos", "r", "d")


def test_inventory_fields_load_as_sets_pairs_and_maps():
    doc = minimal_doc(prefixes={"toy": "http://toy/"})
    doc["vocabularies"][0].update(
        deprecated=["toy:Old"], inverse_pairs=[["toy:p", "toy:q"]],
        controlled_vocabularies={"toy:scheme": ["toy:a", "toy:b"]},
    )
    inventory = load_catalog(doc).inventories["toy"]
    assert inventory.deprecated == {"http://toy/Old"}
    assert inventory.inverse_pairs == [("http://toy/p", "http://toy/q")]
    assert inventory.subclass_of == []
    assert inventory.controlled_vocabularies == {
        "http://toy/scheme": ["http://toy/a", "http://toy/b"]}


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


def test_cycle_diagnostic_names_the_path():
    doc = minimal_doc()
    doc["vocabularies"][0]["classes"] = ["http://toy/A", "http://toy/B", "http://toy/C"]
    doc["vocabularies"][0]["subclass_of"] = [
        ["http://toy/A", "http://toy/B"],
        ["http://toy/B", "http://toy/C"],
        ["http://toy/C", "http://toy/A"],
    ]
    with pytest.raises(CatalogError) as caught:
        load_catalog(doc)
    assert str(caught.value) == (
        "cycle in hierarchy edges through "
        "http://toy/A -> http://toy/B -> http://toy/C -> http://toy/A"
    )


def test_subclass_chain_deeper_than_the_recursion_limit():
    # the closure is quadratic in the chain's length, so only just deeper
    n = sys.getrecursionlimit() + 100
    classes = [f"http://toy/C{i}" for i in range(n + 1)]
    doc = minimal_doc()
    doc["vocabularies"][0]["classes"] = classes
    doc["vocabularies"][0]["subclass_of"] = [list(edge) for edge in zip(classes, classes[1:])]
    catalog = load_catalog(doc)
    assert catalog.superclasses(classes[0]) == set(classes)
    assert catalog.superclasses(classes[-1]) == {classes[-1]}


def test_nesting_past_the_recursion_limit_is_not_valid_json():
    depth = 100_000
    document = '{"constraints": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(CatalogError, match="^catalog is not valid JSON: "):
        load_catalog(document)


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
    assert merged.constraints == base.constraints
    assert merged.inventories == base.inventories


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
    assert stepwise.constraints == oneshot.constraints
    assert stepwise.inventories == oneshot.inventories


def test_select_intersection_semantics(full_catalog):
    skos_structural = [c for c in full_catalog.select(vocabularies={"skos"})
                       if c.type == "skos-structure"]
    assert [c.id for c in skos_structural] == [
        f"SKOS-C-STRUCTURE-{n:02d}" for n in range(1, 11)
    ]


def test_select_unknown_vocabulary_lists_known(full_catalog):
    with pytest.raises(CatalogError, match="known"):
        full_catalog.select(vocabularies={"nope"})


def test_select_refuses_a_constraint_whose_vocabulary_is_not_loaded():
    # a built-in name passes the load, but only a loaded inventory can be read
    doc = minimal_doc()
    doc["vocabularies"].append({"name": "other"})
    doc["constraints"][0] = {"id": "TOY-2", "type": "irreflexive-table", "severity": "error",
                             "vocabulary": "toy", "params": {"vocabulary": "disco"}}
    catalog = load_catalog(doc)
    assert catalog.select({"other"}) == []
    for vocabularies in (None, {"toy"}, {"toy", "other"}):
        with pytest.raises(CatalogError) as caught:
            catalog.select(vocabularies)
        assert str(caught.value) == (
            "constraint 'TOY-2': params.vocabulary: vocabulary 'disco' is not loaded; "
            "loaded vocabularies: other, toy"
        )


def test_select_empty_filters_returns_everything(full_catalog):
    assert len(full_catalog.select()) == len(full_catalog.constraints)


def test_subset_filter_cardinality_property(full_catalog):
    a = {c.id for c in full_catalog.select(vocabularies={"skos"})}
    b = {c.id for c in full_catalog.select(vocabularies={"qb"})}
    both = {c.id for c in full_catalog.select(vocabularies={"skos", "qb"})}
    assert len(a) + len(b) >= len(both)
    assert a | b == both


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


def _eager_closure(edges):
    """The hierarchy as the catalog once kept it, every class's full set of
    ancestors computed at load: the reference the on-demand one must match."""
    direct: dict = {}
    for child, parent in edges:
        direct.setdefault(child, {})[parent] = None
    closure: dict = {}
    for root in direct:
        if root in closure:
            continue
        stack = [(root, iter(direct[root]), set())]
        on_path = {root}
        while stack:
            node, parents, result = stack[-1]
            for parent in parents:
                result.add(parent)
                if parent in closure:
                    result |= closure[parent]
                    continue
                if parent in on_path:
                    trail = " -> ".join([entry[0] for entry in stack] + [parent])
                    raise CatalogError(f"cycle in hierarchy edges through {trail}")
                stack.append((parent, iter(direct.get(parent, ())), set()))
                on_path.add(parent)
                break
            else:
                stack.pop()
                on_path.discard(node)
                closure[node] = result
                if stack:
                    stack[-1][2].update(result)
    return closure


def _verdict(edges):
    try:
        return _eager_closure(edges)
    except CatalogError as exc:
        return str(exc)


_NAMES = list("ABCDEFGH")
# any edges, which often close a cycle or a self-loop, or only edges from an
# earlier name to a later one, which never do
_EDGE_LISTS = st.one_of(
    st.lists(st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)), max_size=12),
    st.lists(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=2, unique=True).map(sorted)
             .map(tuple), max_size=16),
)


@given(classes=_EDGE_LISTS, properties=_EDGE_LISTS)
@settings(max_examples=300, deadline=None)
def test_hierarchy_answers_as_the_eager_closure(classes, properties):
    from rdfcheck.catalog import VocabularyInventory

    inventory = VocabularyInventory("toy", subclass_of=classes, subproperty_of=properties)
    expected = [_verdict(classes), _verdict(properties)]
    errors = [e for e in expected if isinstance(e, str)]
    if errors:
        # the class edges are checked first, as the eager closure was built
        with pytest.raises(CatalogError) as caught:
            Catalog({}, {"toy": inventory})
        assert str(caught.value) == errors[0]
        return
    catalog = Catalog({}, {"toy": inventory})
    above_class, above_property = expected
    for a in _NAMES:
        assert catalog.superclasses(a) == {a} | above_class.get(a, set())
        assert catalog.superproperties(a) == {a} | above_property.get(a, set())
        for b in _NAMES:
            assert catalog.subclass_related(a, b) == (
                b in above_class.get(a, ()) or a in above_class.get(b, ()) or a == b)
            assert catalog.subproperty_related(a, b) == (
                b in above_property.get(a, ()) or a in above_property.get(b, ()) or a == b)
