from rdfcheck.checks import misc
from rdfcheck.checks.models import extract_statistics
from rdfcheck.graph import Graph
from rdfcheck.terms import Triple

from conftest import ctx_for, expand, graph, iri, lit


def _typed(node, cls):
    return (node, "rdf:type", cls)


# --- presence ---------------------------------------------------------------

def test_presence_missing_property():
    g = graph(_typed("ex:study", "disco:Study"))
    out = misc.check_presence(ctx_for(g), expand("disco:Study"),
                              properties=[expand("disco:dataSet")])
    assert len(out) == 1


def test_presence_any_of_properties():
    g = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:percentage", lit("50.0", "xsd:double")),
    )
    out = misc.check_presence(
        ctx_for(g), expand("disco:CategoryStatistics"),
        properties=[expand("disco:frequency"), expand("disco:percentage")],
    )
    assert out == []


def test_presence_via_path_and_qualifier():
    g = graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "disco:dataSet", "ex:lds"),
        ("ex:lds", "disco:variable", "ex:v"),
        ("ex:ss", "disco:statisticsVariable", "ex:v"),
        _typed("ex:ss", "disco:SummaryStatistics"),
    )
    out = misc.check_presence(
        ctx_for(g), expand("disco:Study"),
        path=[expand("disco:dataSet"), expand("disco:variable"),
              "^" + expand("disco:statisticsVariable")],
        qualifier_class=expand("disco:SummaryStatistics"),
    )
    assert out == []


def test_presence_empty_scope_extension_is_clean():
    out = misc.check_presence(ctx_for(Graph()), expand("disco:Study"),
                              properties=[expand("disco:dataSet")])
    assert out == []


# --- conditional properties ----------------------------------------------------

CONCEPT = expand("skos:Concept")


def test_conditional_code_requires_is_valid():
    g = graph(
        _typed("ex:c", "skos:Concept"),
        ("ex:c", "skos:notation", lit("1")),
        ("ex:c", "skos:prefLabel", lit("One", lang="en")),
    )
    out = misc.check_conditional_properties(
        ctx_for(g), CONCEPT,
        if_present=[expand("skos:notation"), expand("skos:prefLabel")],
        require_all=[expand("disco:isValid")],
    )
    assert len(out) == 1


def test_conditional_antecedent_unmet():
    g = graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "dcterms:abstract", lit("has an abstract")),
    )
    out = misc.check_conditional_properties(
        ctx_for(g), expand("disco:Study"),
        if_absent=[expand("dcterms:abstract"), expand("disco:ddifile")],
        require_any=[expand("dcterms:title"), expand("dcterms:alternative")],
    )
    assert out == []


def test_conditional_require_any():
    g = graph(_typed("ex:study", "disco:Study"))
    out = misc.check_conditional_properties(
        ctx_for(g), expand("disco:Study"),
        if_absent=[expand("dcterms:abstract"), expand("disco:ddifile")],
        require_any=[expand("dcterms:title"), expand("dcterms:alternative")],
    )
    assert len(out) == 1
    g2 = graph(_typed("ex:study", "disco:Study"),
               ("ex:study", "dcterms:title", lit("T")))
    assert misc.check_conditional_properties(
        ctx_for(g2), expand("disco:Study"),
        if_absent=[expand("dcterms:abstract"), expand("disco:ddifile")],
        require_any=[expand("dcterms:title"), expand("dcterms:alternative")],
    ) == []


def test_conditional_empty_requirements_flags_condition_itself():
    g = graph(_typed("ex:study", "disco:Study"))
    out = misc.check_conditional_properties(
        ctx_for(g), expand("disco:Study"),
        if_absent=[expand("dcterms:abstract"), expand("dcterms:title")],
    )
    assert len(out) == 1 and out[0].detail == "condition-met"


def test_conditional_vacuous_antecedent_checks_requirements():
    g = graph(_typed("ex:q", "disco:Question"))
    out = misc.check_conditional_properties(
        ctx_for(g), expand("disco:Question"),
        require_all=[expand("disco:questionText")],
    )
    assert len(out) == 1


def test_conditional_via_checks_linked_node():
    g = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:statisticsCategory", "ex:code"),
        ("ex:code", "skos:notation", lit("1")),
    )
    out = misc.check_conditional_properties(
        ctx_for(g), expand("disco:CategoryStatistics"),
        if_present=[expand("disco:statisticsCategory")],
        via=expand("disco:statisticsCategory"),
        require_all=[expand("disco:isValid"), expand("skos:notation")],
    )
    assert len(out) == 1
    assert out[0].focus == str(iri("ex:code"))


# --- ordering -------------------------------------------------------------------

def _list_rows(head_subject, link, members):
    from rdfcheck.terms import BlankNode

    rows = [(head_subject, link, "ex:coll"),
            ("ex:coll", "rdf:type", "skos:OrderedCollection")]
    nodes = [BlankNode(f"o{i}") for i in range(len(members))]
    rows.append(("ex:coll", "skos:memberList",
                 nodes[0] if nodes else iri("rdf:nil")))
    for i, member in enumerate(members):
        rows.append((nodes[i], "rdf:first", member))
        rest = nodes[i + 1] if i + 1 < len(members) else iri("rdf:nil")
        rows.append((nodes[i], "rdf:rest", rest))
    return rows


def test_ordering_missing_collection():
    g = graph(
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:variable", "ex:v"),
        _typed("ex:v", "disco:Variable"),
    )
    out = misc.check_ordering(
        ctx_for(g), expand("disco:LogicalDataSet"), expand("disco:variable"),
        expand("disco:Variable"), "linked-collection",
    )
    assert len(out) == 1


def test_ordering_with_well_formed_collection():
    rows = [
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:variable", "ex:v"),
        _typed("ex:v", "disco:Variable"),
    ]
    rows += _list_rows("ex:lds", "dcterms:hasPart", [iri("ex:v")])
    out = misc.check_ordering(
        ctx_for(graph(*rows)), expand("disco:LogicalDataSet"),
        expand("disco:variable"), expand("disco:Variable"), "linked-collection",
    )
    assert out == []


def test_ordering_broken_spine_surfaces_structural_violation():
    from rdfcheck.terms import BlankNode

    rows = [
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:variable", "ex:v"),
        _typed("ex:v", "disco:Variable"),
        ("ex:lds", "dcterms:hasPart", "ex:coll"),
        ("ex:coll", "rdf:type", "skos:OrderedCollection"),
        ("ex:coll", "skos:memberList", BlankNode("o0")),
        (BlankNode("o0"), "rdf:first", iri("ex:v")),
        # rdf:rest missing -> malformed spine
    ]
    out = misc.check_ordering(
        ctx_for(graph(*rows)), expand("disco:LogicalDataSet"),
        expand("disco:variable"), expand("disco:Variable"), "linked-collection",
    )
    assert len(out) == 1 and "malformed" in out[0].message


def test_ordering_representation_mode():
    rows = [
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "disco:representation", "ex:scheme"),
        ("ex:scheme", "rdf:type", "skos:ConceptScheme"),
        ("ex:code", "skos:inScheme", "ex:scheme"),
        _typed("ex:code", "skos:Concept"),
    ]
    out = misc.check_ordering(
        ctx_for(graph(*rows)), expand("disco:Variable"),
        expand("disco:representation"), expand("skos:Concept"), "representation",
    )
    # an unordered scheme with codes should be an ordered collection
    assert len(out) == 1


def test_ordering_representation_datatype_skipped():
    rows = [
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "disco:representation", "xsd:double"),
        ("xsd:double", "rdf:type", "rdfs:Datatype"),
    ]
    out = misc.check_ordering(
        ctx_for(graph(*rows)), expand("disco:Variable"),
        expand("disco:representation"), expand("skos:Concept"), "representation",
    )
    assert out == []


# --- aggregation ------------------------------------------------------------------

def test_aggregation_metric_without_expectation():
    g = graph(
        _typed("ex:qn", "disco:Questionnaire"),
        ("ex:qn", "disco:question", "ex:q1"),
        ("ex:qn", "disco:question", "ex:q2"),
    )
    violations, metrics = misc.check_aggregation(
        ctx_for(g), None, expand("disco:Questionnaire"), path=[expand("disco:question")]
    )
    assert violations == []
    assert len(metrics) == 1 and metrics[0].value == 2


def test_aggregation_expectation_mismatch():
    g = graph(
        _typed("ex:qn", "disco:Questionnaire"),
        *[("ex:qn", "disco:question", f"ex:q{i}") for i in range(9)],
    )
    violations, metrics = misc.check_aggregation(
        ctx_for(g), None, expand("disco:Questionnaire"), path=[expand("disco:question")],
        expect=10,
    )
    assert len(violations) == 1 and metrics == []


def test_aggregation_max_satisfied():
    g = graph(
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "disco:representation", "ex:coll"),
        ("ex:coll", "skos:member", "ex:c1"),
        ("ex:coll", "skos:member", "ex:c2"),
    )
    violations, _ = misc.check_aggregation(
        ctx_for(g), None, expand("disco:Variable"),
        path=[expand("disco:representation"), "@members"], max=5,
    )
    assert violations == []


def test_aggregation_counts_equal_match_based_brute_force():
    import random

    rng = random.Random(55)
    for _ in range(40):
        rows = [_typed("ex:qn", "disco:Questionnaire")]
        n = rng.randrange(0, 8)
        rows += [("ex:qn", "disco:question", f"ex:q{i}") for i in range(n)]
        g = graph(*rows)
        _violations, metrics = misc.check_aggregation(
            ctx_for(g), None, expand("disco:Questionnaire"),
            path=[expand("disco:question")],
        )
        brute = len(g.match(iri("ex:qn"), iri("disco:question"), None))
        assert metrics[0].value == brute


def test_collection_size_vs_declared():
    rows = [
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:variableQuantity", lit("3", "xsd:nonNegativeInteger")),
    ]
    rows += _list_rows("ex:lds", "dcterms:hasPart", [iri("ex:v1"), iri("ex:v2")])
    violations, _ = misc.check_aggregation(
        ctx_for(graph(*rows)), None, expand("disco:LogicalDataSet"),
        kind="collection-size-vs-declared",
        declared_property=expand("disco:variableQuantity"),
    )
    assert len(violations) == 1 and "3" in violations[0].message


# --- variable comparability ----------------------------------------------------------

def _two_variables(sizes=(2, 2), described=True, labeled=True):
    rows = []
    for vi, size in enumerate(sizes):
        var = f"ex:v{vi}"
        rows.append(_typed(var, "disco:Variable"))
        if described:
            rows.append((var, "dcterms:description", lit("desc", lang="en")))
        rows.append((var, "disco:representation", f"ex:scheme{vi}"))
        rows.append((f"ex:scheme{vi}", "rdf:type", "skos:ConceptScheme"))
        for ci in range(size):
            code = f"ex:v{vi}c{ci}"
            rows.append((code, "skos:inScheme", f"ex:scheme{vi}"))
            rows.append(_typed(code, "skos:Concept"))
            if labeled:
                rows.append((code, "skos:prefLabel", lit(f"c{ci}", lang="en")))
    return graph(*rows)


def _comparability(g, mode, variables=("ex:v0", "ex:v1")):
    ctx = ctx_for(g)
    return misc.check_variable_comparability(
        ctx, extract_statistics(ctx), [expand(v) for v in variables], mode
    )


def test_comparability_sizes_differ():
    out = _comparability(_two_variables(sizes=(5, 7)), "sizes")
    assert len(out) == 1


def test_comparability_identical_singleton_group():
    out = _comparability(_two_variables(sizes=(3,)), "sizes", variables=("ex:v0",))
    assert out == []


def test_comparability_absent_variable():
    out = _comparability(_two_variables(), "presence",
                         variables=("ex:v0", "ex:v1", "ex:ghost"))
    assert len(out) == 1 and "absent" in out[0].detail


def test_comparability_missing_description():
    out = _comparability(_two_variables(described=False), "descriptions")
    assert len(out) == 2


def test_comparability_unlabeled_codes():
    out = _comparability(_two_variables(labeled=False), "labels")
    assert len(out) == 4


def test_comparability_structure_requires_code_list():
    rows = [_typed("ex:v0", "disco:Variable")]
    ctx = ctx_for(graph(*rows))
    out = misc.check_variable_comparability(
        ctx, extract_statistics(ctx), [expand("ex:v0")], "structure"
    )
    assert len(out) == 1


# --- single root -----------------------------------------------------------------------

def _scheme_rows(roots):
    rows = [
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "disco:concept", "ex:c0"),
    ]
    for i in range(3):
        rows.append((f"ex:c{i}", "skos:inScheme", "ex:scheme"))
        rows.append(_typed(f"ex:c{i}", "skos:Concept"))
    # chain everything under c2 unless extra roots requested
    rows.append(("ex:c0", "skos:broader", "ex:c2"))
    if roots == 1:
        rows.append(("ex:c1", "skos:broader", "ex:c2"))
    return rows


def test_single_root_ok():
    out = misc.check_single_root(ctx_for(graph(*_scheme_rows(1))),
                                 expand("disco:concept"))
    assert out == []


def test_two_roots_flagged():
    out = misc.check_single_root(ctx_for(graph(*_scheme_rows(2))),
                                 expand("disco:concept"))
    assert len(out) == 1 and "roots:2" in out[0].detail


def test_untargeted_scheme_ignored():
    # a scheme never reached through the link property is not checked
    rows = [
        ("ex:c0", "skos:inScheme", "ex:scheme"),
        ("ex:c1", "skos:inScheme", "ex:scheme"),
    ]
    assert misc.check_single_root(ctx_for(graph(*rows)), expand("disco:concept")) == []


# --- sub/super redundancy -----------------------------------------------------------------

def test_general_only_suggests_specific():
    g = graph(("ex:s", "dcterms:coverage", lit("Austria")))
    out = misc.check_subsuper_redundancy(
        ctx_for(g), expand("dcterms:coverage"),
        [expand("dcterms:spatial"), expand("dcterms:temporal")],
    )
    assert len(out) == 1 and "dcterms:spatial" in out[0].message


def test_general_with_specific_no_suggestion():
    g = graph(
        ("ex:s", "dcterms:contributor", "ex:agency"),
        ("ex:s", "disco:fundedBy", "ex:agency"),
    )
    out = misc.check_subsuper_redundancy(
        ctx_for(g), expand("dcterms:contributor"), [expand("disco:fundedBy")]
    )
    assert out == []


def test_equal_values_flagged_when_enabled():
    g = graph(
        ("ex:s", "dcterms:coverage", lit("Austria")),
        ("ex:s", "dcterms:spatial", lit("Austria")),
    )
    out = misc.check_subsuper_redundancy(
        ctx_for(g), expand("dcterms:coverage"),
        [expand("dcterms:spatial"), expand("dcterms:temporal")],
        flag_redundant=True,
    )
    assert len(out) == 1 and "redundantly" in out[0].message


# --- default values ----------------------------------------------------------------------

DEFAULTS = [{
    "scope": expand("disco:LogicalDataSet"),
    "property": expand("disco:isPublic"),
    "value": {"lexical": "false", "datatype": expand("xsd:boolean")},
}]


def test_default_applied_to_missing_property():
    g = graph(_typed("ex:lds", "disco:LogicalDataSet"))
    additions, violations = misc.apply_default_values(ctx_for(g), DEFAULTS)
    assert len(additions) == 1 and len(violations) == 1
    assert additions[0].object == lit("false", "xsd:boolean")


def test_default_not_applied_when_present():
    g = graph(
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:isPublic", lit("true", "xsd:boolean")),
    )
    additions, violations = misc.apply_default_values(ctx_for(g), DEFAULTS)
    assert additions == [] and violations == []


def test_default_application_is_idempotent_fixpoint():
    g = graph(_typed("ex:lds", "disco:LogicalDataSet"))
    additions, _ = misc.apply_default_values(ctx_for(g), DEFAULTS)
    augmented = Graph(list(g) + additions)
    again, _ = misc.apply_default_values(ctx_for(augmented), DEFAULTS)
    assert again == []


def test_default_never_mutates_input():
    g = graph(_typed("ex:lds", "disco:LogicalDataSet"))
    before = len(g)
    misc.apply_default_values(ctx_for(g), DEFAULTS)
    assert len(g) == before


# --- value datatype ------------------------------------------------------------------------

def test_listed_datatype_validation():
    g = graph(
        ("ex:s", "disco:startDate", lit("2005-13-40", "xsd:date")),
        ("ex:s", "disco:endDate", lit("2005-12-31", "xsd:date")),
    )
    out = misc.check_value_datatype(
        ctx_for(g), properties=[expand("disco:startDate"), expand("disco:endDate")],
        datatype=expand("xsd:date"),
    )
    assert len(out) == 1


def test_listed_datatype_mismatch():
    g = graph(("ex:s", "disco:startDate", lit("2005")))
    out = misc.check_value_datatype(
        ctx_for(g), properties=[expand("disco:startDate")],
        datatype=expand("xsd:date"),
    )
    assert len(out) == 1 and "datatype" in out[0].message


def test_all_literals_mode_flags_invalid_forms():
    g = graph(
        ("ex:s", "ex:p", lit("not a number", "xsd:integer")),
        ("ex:s", "ex:q", lit("fine")),
        ("ex:s", "ex:r", lit("anything", "ex:mysteryType")),
    )
    out = misc.check_value_datatype(ctx_for(g), mode="all-literals")
    # unknown datatypes are left alone; only the integer fails
    assert len(out) == 1
