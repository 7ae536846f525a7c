import pytest

from rdfcheck.catalog import CONSTRAINT_TYPES, Catalog, VocabularyInventory
from rdfcheck.checks.cube import check_qb_codelist_membership
from rdfcheck.checks.models import extract_cube
from rdfcheck.violations import ResourceLimit

from conftest import checker, ctx_for, expand, graph, lit


def _cube(ctxgraph):
    ctx = ctx_for(ctxgraph)
    return ctx, extract_cube(ctx)


def _ic(g, n):
    ctx, cube = _cube(g)
    return checker("qb-integrity", n)(ctx, cube)


BASE = [
    ("ex:dsd", "rdf:type", "qb:DataStructureDefinition"),
    ("ex:dsd", "qb:component", "ex:compDim"),
    ("ex:dsd", "qb:component", "ex:compMeasure"),
    ("ex:compDim", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compDim", "qb:dimension", "ex:dim"),
    ("ex:compMeasure", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compMeasure", "qb:measure", "ex:m"),
    ("ex:dim", "rdf:type", "qb:DimensionProperty"),
    ("ex:dim", "rdfs:range", "xsd:gYear"),
    ("ex:m", "rdf:type", "qb:MeasureProperty"),
    ("ex:ds", "rdf:type", "qb:DataSet"),
    ("ex:ds", "qb:structure", "ex:dsd"),
    ("ex:obs1", "rdf:type", "qb:Observation"),
    ("ex:obs1", "qb:dataSet", "ex:ds"),
    ("ex:obs1", "ex:dim", lit("2020", "xsd:gYear")),
    ("ex:obs1", "ex:m", lit("1.5", "xsd:double")),
]


def test_base_mini_cube_clean():
    g = graph(*BASE)
    for n in (3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21):
        assert _ic(g, n) == [], f"IC-{n}"


def test_ic3_missing_measure():
    rows = [r for r in BASE if r[0] != "ex:compMeasure" and r[2] != "ex:compMeasure"]
    assert len(_ic(graph(*rows), 3)) == 1


def test_ic4_missing_range():
    rows = [r for r in BASE if r[1] != "rdfs:range"]
    out = _ic(graph(*rows), 4)
    assert len(out) == 1


def test_ic4_exempts_measure_type():
    rows = BASE + [("ex:obs1", "qb:measureType", "ex:m")]
    # qb:measureType itself never needs an asserted range
    assert _ic(graph(*rows), 4) == []


def test_ic5_concept_dimension_needs_codelist():
    rows = [r for r in BASE if r[1] != "rdfs:range"]
    rows.append(("ex:dim", "rdfs:range", "skos:Concept"))
    out = _ic(graph(*rows), 5)
    assert len(out) == 1
    rows.append(("ex:dim", "qb:codeList", "ex:scheme"))
    assert _ic(graph(*rows), 5) == []


def test_ic6_optional_non_attribute():
    rows = BASE + [("ex:compDim", "qb:componentRequired", lit("false", "xsd:boolean"))]
    out = _ic(graph(*rows), 6)
    assert len(out) == 1


def test_ic6_optional_attribute_fine():
    rows = BASE + [
        ("ex:dsd", "qb:component", "ex:compAttr"),
        ("ex:compAttr", "rdf:type", "qb:ComponentSpecification"),
        ("ex:compAttr", "qb:attribute", "ex:attr"),
        ("ex:attr", "rdf:type", "qb:AttributeProperty"),
        ("ex:compAttr", "qb:componentRequired", lit("false", "xsd:boolean")),
    ]
    assert _ic(graph(*rows), 6) == []


def test_ic7_unattached_slice_key():
    rows = BASE + [("ex:key", "rdf:type", "qb:SliceKey")]
    assert len(_ic(graph(*rows), 7)) == 1
    rows.append(("ex:dsd", "qb:sliceKey", "ex:key"))
    assert _ic(graph(*rows), 7) == []


def test_ic8_slice_key_prop_not_component():
    rows = BASE + [
        ("ex:key", "rdf:type", "qb:SliceKey"),
        ("ex:dsd", "qb:sliceKey", "ex:key"),
        ("ex:key", "qb:componentProperty", "ex:bogus"),
    ]
    assert len(_ic(graph(*rows), 8)) == 1


def test_ic10_slice_missing_dimension_value():
    rows = BASE + [
        ("ex:key", "rdf:type", "qb:SliceKey"),
        ("ex:dsd", "qb:sliceKey", "ex:key"),
        ("ex:key", "qb:componentProperty", "ex:dim"),
        ("ex:slice", "rdf:type", "qb:Slice"),
        ("ex:slice", "qb:sliceStructure", "ex:key"),
    ]
    assert len(_ic(graph(*rows), 10)) == 1
    rows.append(("ex:slice", "ex:dim", lit("2020", "xsd:gYear")))
    assert _ic(graph(*rows), 10) == []


def test_ic11_observation_missing_dimension():
    rows = [r for r in BASE if not (r[0] == "ex:obs1" and r[1] == "ex:dim")]
    out = _ic(graph(*rows), 11)
    assert len(out) == 1


def test_ic12_duplicate_observations():
    rows = BASE + [
        ("ex:obs2", "rdf:type", "qb:Observation"),
        ("ex:obs2", "qb:dataSet", "ex:ds"),
        ("ex:obs2", "ex:dim", lit("2020", "xsd:gYear")),
        ("ex:obs2", "ex:m", lit("9.9", "xsd:double")),
    ]
    out = _ic(graph(*rows), 12)
    assert len(out) == 1
    assert "duplicates:2" in out[0].detail


def test_ic13_required_attribute_missing():
    rows = BASE + [
        ("ex:dsd", "qb:component", "ex:compAttr"),
        ("ex:compAttr", "rdf:type", "qb:ComponentSpecification"),
        ("ex:compAttr", "qb:attribute", "ex:attr"),
        ("ex:attr", "rdf:type", "qb:AttributeProperty"),
        ("ex:compAttr", "qb:componentRequired", lit("true", "xsd:boolean")),
    ]
    assert len(_ic(graph(*rows), 13)) == 1
    rows.append(("ex:obs1", "ex:attr", lit("percent")))
    assert _ic(graph(*rows), 13) == []


def test_ic14_measure_value_missing():
    rows = [r for r in BASE if not (r[0] == "ex:obs1" and r[1] == "ex:m")]
    assert len(_ic(graph(*rows), 14)) == 1


MEASURE_DIM = [
    ("ex:dsd", "rdf:type", "qb:DataStructureDefinition"),
    ("ex:dsd", "qb:component", "ex:compDim"),
    ("ex:dsd", "qb:component", "ex:compMt"),
    ("ex:dsd", "qb:component", "ex:compM1"),
    ("ex:dsd", "qb:component", "ex:compM2"),
    ("ex:compDim", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compDim", "qb:dimension", "ex:dim"),
    ("ex:compMt", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compMt", "qb:dimension", "qb:measureType"),
    ("ex:compM1", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compM1", "qb:measure", "ex:m1"),
    ("ex:compM2", "rdf:type", "qb:ComponentSpecification"),
    ("ex:compM2", "qb:measure", "ex:m2"),
    ("ex:dim", "rdf:type", "qb:DimensionProperty"),
    ("ex:dim", "rdfs:range", "xsd:gYear"),
    ("ex:m1", "rdf:type", "qb:MeasureProperty"),
    ("ex:m2", "rdf:type", "qb:MeasureProperty"),
    ("ex:ds", "rdf:type", "qb:DataSet"),
    ("ex:ds", "qb:structure", "ex:dsd"),
    # one complete measure pair for dim=2020
    ("ex:obsA", "rdf:type", "qb:Observation"),
    ("ex:obsA", "qb:dataSet", "ex:ds"),
    ("ex:obsA", "ex:dim", lit("2020", "xsd:gYear")),
    ("ex:obsA", "qb:measureType", "ex:m1"),
    ("ex:obsA", "ex:m1", lit("1.0", "xsd:double")),
    ("ex:obsB", "rdf:type", "qb:Observation"),
    ("ex:obsB", "qb:dataSet", "ex:ds"),
    ("ex:obsB", "ex:dim", lit("2020", "xsd:gYear")),
    ("ex:obsB", "qb:measureType", "ex:m2"),
    ("ex:obsB", "ex:m2", lit("2.0", "xsd:double")),
]


def test_measure_dimension_cube_clean():
    g = graph(*MEASURE_DIM)
    for n in (15, 16, 17):
        assert _ic(g, n) == [], f"IC-{n}"


def test_ic15_missing_named_measure_value():
    rows = [r for r in MEASURE_DIM if not (r[0] == "ex:obsA" and r[1] == "ex:m1")]
    out = _ic(graph(*rows), 15)
    assert len(out) == 1


def test_ic16_second_measure_value():
    rows = MEASURE_DIM + [("ex:obsA", "ex:m2", lit("5.0", "xsd:double"))]
    out = _ic(graph(*rows), 16)
    assert len(out) == 1


def test_ic17_missing_measure_for_combination():
    rows = [r for r in MEASURE_DIM if r[0] != "ex:obsB"]
    out = _ic(graph(*rows), 17)
    assert len(out) == 1
    assert "ex:m2" in out[0].detail.replace("http://example.org/", "ex:")


def test_ic17_group_limit_raises(monkeypatch):
    import rdfcheck.checks.cube as cube_mod

    monkeypatch.setattr(cube_mod, "GROUP_LIMIT", 1)
    g = graph(*MEASURE_DIM)
    ctx, cube = _cube(g)
    with pytest.raises(ResourceLimit):
        checker("qb-integrity", 17)(ctx, cube)


def test_ic18_slice_observation_foreign_dataset():
    rows = BASE + [
        ("ex:slice", "rdf:type", "qb:Slice"),
        ("ex:ds", "qb:slice", "ex:slice"),
        ("ex:slice", "qb:observation", "ex:obsX"),
        ("ex:obsX", "rdf:type", "qb:Observation"),
        ("ex:obsX", "qb:dataSet", "ex:otherDs"),
        ("ex:otherDs", "rdf:type", "qb:DataSet"),
    ]
    out = _ic(graph(*rows), 18)
    assert len(out) == 1


HIERARCHY = [
    ("ex:dim", "rdf:type", "qb:DimensionProperty"),
    ("ex:dim", "qb:codeList", "ex:hcl"),
    ("ex:hcl", "rdf:type", "qb:HierarchicalCodeList"),
    ("ex:hcl", "qb:hierarchyRoot", "ex:root"),
    ("ex:root", "ex:narrower", "ex:mid"),
    ("ex:mid", "ex:narrower", "ex:leaf"),
    ("ex:obs", "rdf:type", "qb:Observation"),
]


def test_ic20_forward_hierarchy_reachability():
    rows = HIERARCHY + [
        ("ex:hcl", "qb:parentChildProperty", "ex:narrower"),
        ("ex:obs", "ex:dim", "ex:leaf"),
    ]
    assert _ic(graph(*rows), 20) == []
    bad = HIERARCHY + [
        ("ex:hcl", "qb:parentChildProperty", "ex:narrower"),
        ("ex:obs", "ex:dim", "ex:island"),
    ]
    out = _ic(graph(*bad), 20)
    assert len(out) == 1


def test_ic21_inverse_hierarchy_reachability():
    from rdfcheck.terms import BlankNode

    inverse_decl = [
        ("ex:hcl", "qb:parentChildProperty", BlankNode("pcp")),
        (BlankNode("pcp"), "owl:inverseOf", "ex:broader"),
        ("ex:leaf", "ex:broader", "ex:mid2"),
        ("ex:mid2", "ex:broader", "ex:root"),
    ]
    rows = [r for r in HIERARCHY if r[1] != "ex:narrower"] + inverse_decl
    rows.append(("ex:obs", "ex:dim", "ex:leaf"))
    assert _ic(graph(*rows), 21) == []
    bad = [r for r in rows if r[0] != "ex:obs" or r[1] != "ex:dim"]
    bad.append(("ex:obs", "ex:dim", "ex:stranded"))
    assert len(_ic(graph(*bad), 21)) == 1


def test_ic19_codelist_membership():
    rows = [
        ("ex:dim", "rdf:type", "qb:DimensionProperty"),
        ("ex:dim", "qb:codeList", "ex:scheme"),
        ("ex:scheme", "rdf:type", "skos:ConceptScheme"),
        ("ex:code", "skos:inScheme", "ex:scheme"),
        ("ex:obs", "rdf:type", "qb:Observation"),
        ("ex:obs", "ex:dim", "ex:code"),
    ]
    ctx, cube = _cube(graph(*rows))
    assert check_qb_codelist_membership(ctx, cube) == []
    bad_rows = rows[:-1] + [("ex:obs", "ex:dim", "ex:rogue")]
    ctx, cube = _cube(graph(*bad_rows))
    out = check_qb_codelist_membership(ctx, cube)
    assert len(out) == 1


def test_ic19_membership_via_inventory_list():
    rows = [
        ("ex:dim", "rdf:type", "qb:DimensionProperty"),
        ("ex:dim", "qb:codeList", "ex:scheme"),
        ("ex:obs", "rdf:type", "qb:Observation"),
        ("ex:obs", "ex:dim", "ex:code"),
    ]
    inventory = VocabularyInventory(
        name="codes", controlled_vocabularies={expand("ex:scheme"): [expand("ex:code")]}
    )
    listed = ctx_for(graph(*rows), Catalog({}, {"codes": inventory}))
    assert check_qb_codelist_membership(listed, extract_cube(listed)) == []
    ctx, cube = _cube(graph(*rows))
    assert len(check_qb_codelist_membership(ctx, cube)) == 1


def test_observation_without_dataset_does_not_crash_ic11():
    rows = BASE + [("ex:floating", "rdf:type", "qb:Observation")]
    # the dangling observation surfaces through the IC-1 cardinality
    # constraint, not through an extraction failure here
    assert _ic(graph(*rows), 11) == []


def test_fixture_cube_extraction(cube_fixture):
    ctx = ctx_for(cube_fixture)
    cube = extract_cube(ctx)
    assert len(cube.observations) == 9
    assert len(cube.datasets) == 1
    [dsd] = cube.dsds.values()
    assert len(dsd.dimensions) == 2
    assert len(dsd.measures) == 1
    assert sum(c.kind == "attribute" for c in dsd.components) == 1


def test_catalog_domain_of_ic_is_exactly_the_implemented_handlers():
    # IC-1/2/9 are cardinality constraints, IC-19 is vocab-membership and
    # IC-0 is datatype validity; the table's keys are the loader's domain
    assert list(CONSTRAINT_TYPES["qb-integrity"].check) == [
        3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21
    ]
