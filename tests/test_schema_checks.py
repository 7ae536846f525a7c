import random
from urllib.parse import urlsplit

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import Catalog, VocabularyInventory, builtin_catalog
from rdfcheck.checks import schema
from rdfcheck.graph import Graph
from rdfcheck.terms import Iri

from conftest import ctx_for, expand, graph, iri, lit, load_fixture

DISCO = "http://rdf-vocabulary.ddialliance.org/discovery#"
RDF_TYPE = "rdf:type"


def _typed(node, cls):
    return (node, RDF_TYPE, cls)


# --- subsumption -----------------------------------------------------------

def test_subsumption_flags_missing_supertype():
    g = graph(_typed("ex:u1", "disco:Universe"))
    out = schema.check_subsumption(ctx_for(g), expand("disco:Universe"),
                                   expand("skos:Concept"))
    assert len(out) == 1
    assert out[0].focus == str(iri("ex:u1"))


def test_subsumption_passes_when_both_types_present():
    g = graph(_typed("ex:u1", "disco:Universe"), _typed("ex:u1", "skos:Concept"))
    assert schema.check_subsumption(ctx_for(g), expand("disco:Universe"),
                                    expand("skos:Concept")) == []


def test_subsumption_respects_inventory_closure():
    catalog = builtin_catalog({"disco"})
    # CategoryStatistics is declared a subclass of DescriptiveStatistics, so
    # the closure supplies the supertype
    g = graph(_typed("ex:cs", "disco:CategoryStatistics"))
    out = schema.check_subsumption(
        ctx_for(g, catalog),
        expand("disco:CategoryStatistics"),
        expand("disco:DescriptiveStatistics"),
    )
    assert out == []


def test_subsumption_matches_extension_difference_oracle():
    rng = random.Random(99)
    c1, c2 = expand("ex:C1"), expand("ex:C2")
    for _ in range(100):
        rows = []
        membership = {}
        for i in range(rng.randrange(0, 12)):
            node = f"ex:n{i}"
            in1, in2 = rng.random() < 0.6, rng.random() < 0.5
            membership[expand(node)] = (in1, in2)
            if in1:
                rows.append(_typed(node, "ex:C1"))
            if in2:
                rows.append(_typed(node, "ex:C2"))
        g = graph(*rows)
        expected = sorted(
            n for n, (in1, in2) in membership.items() if in1 and not in2
        )
        got = sorted(v.focus[1:-1] for v in schema.check_subsumption(ctx_for(g), c1, c2))
        assert got == expected


# --- class equivalence -------------------------------------------------------

def test_equivalence_flags_one_sided_instance():
    g = graph(_typed("ex:v", "sio:SIO_000367"))
    out = schema.check_class_equivalence(
        ctx_for(g), expand("sio:SIO_000367"), expand("disco:Variable"),
    )
    assert len(out) == 1 and out[0].focus == str(iri("ex:v"))


def test_equivalence_is_union_of_both_subsumptions():
    g = graph(
        _typed("ex:a", "ex:C1"),
        _typed("ex:b", "ex:C2"),
        _typed("ex:c", "ex:C1"), _typed("ex:c", "ex:C2"),
    )
    ctx = ctx_for(g)
    c1, c2 = expand("ex:C1"), expand("ex:C2")
    combined = schema.check_subsumption(ctx, c1, c2) + schema.check_subsumption(ctx, c2, c1)
    got = schema.check_class_equivalence(ctx, c1, c2)
    assert {(v.focus, v.detail) for v in got} == {
        (v.focus, v.detail) for v in combined
    }
    assert len(got) == 2  # ex:a and ex:b


# --- sub properties ----------------------------------------------------------

def test_subproperty_flags_missing_super_statement():
    g = graph(("ex:s", "disco:fundedBy", "ex:agency"))
    out = schema.check_subproperty(ctx_for(g), expand("disco:fundedBy"),
                                   expand("dcterms:contributor"))
    assert len(out) == 1


def test_subproperty_passes_with_both():
    g = graph(
        ("ex:s", "disco:fundedBy", "ex:agency"),
        ("ex:s", "dcterms:contributor", "ex:agency"),
    )
    assert schema.check_subproperty(ctx_for(g), expand("disco:fundedBy"),
                                    expand("dcterms:contributor")) == []


def test_subproperty_matches_pair_difference_oracle():
    rng = random.Random(5)
    p1, p2 = expand("ex:p1"), expand("ex:p2")
    for _ in range(60):
        pairs1 = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(8))}
        pairs2 = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(8))}
        rows = [(f"ex:s{a}", "ex:p1", f"ex:o{b}") for a, b in pairs1]
        rows += [(f"ex:s{a}", "ex:p2", f"ex:o{b}") for a, b in pairs2]
        out = schema.check_subproperty(ctx_for(graph(*rows)), p1, p2)
        assert len(out) == len(pairs1 - pairs2)


# --- domains and ranges -------------------------------------------------------

def test_domain_violation_for_untyped_subject():
    g = graph(("ex:x", "disco:responseDomain", "ex:r"))
    out = schema.check_domain(ctx_for(g), expand("disco:responseDomain"),
                              [expand("disco:Question")])
    assert len(out) == 1


def test_union_domain_accepts_any_member():
    g = graph(
        _typed("ex:q", "disco:Question"),
        ("ex:q", "disco:concept", "ex:c"),
    )
    out = schema.check_domain(
        ctx_for(g), expand("disco:concept"),
        [expand("disco:Variable"), expand("disco:Question"),
         expand("disco:RepresentedVariable")],
    )
    assert out == []


def test_domain_empty_graph_no_violations():
    assert schema.check_domain(ctx_for(Graph()), expand("ex:p"), [expand("ex:C")]) == []


def test_range_rejects_bad_datatype_value():
    g = graph(("ex:v", "disco:caseQuantity", lit("-2", "xsd:nonNegativeInteger")))
    out = schema.check_range(ctx_for(g), expand("disco:caseQuantity"),
                             datatype=expand("xsd:nonNegativeInteger"))
    assert len(out) == 1
    assert "invalid lexical form" in out[0].message


def test_range_accepts_typed_object():
    g = graph(
        ("ex:a", "xkos:belongsTo", "ex:c"),
        _typed("ex:c", "skos:Concept"),
    )
    assert schema.check_range(ctx_for(g), expand("xkos:belongsTo"),
                              classes=[expand("skos:Concept")]) == []


def test_range_absent_property_no_violations():
    assert schema.check_range(ctx_for(Graph()), expand("ex:p"),
                              classes=[expand("ex:C")]) == []


def test_scoped_range_checks_scope_instances_only():
    g = graph(
        _typed("ex:lds", "disco:LogicalDataSet"),
        ("ex:lds", "disco:aggregation", "ex:cube"),
        _typed("ex:cube", "qb:DataSet"),
    )
    out = schema.check_range(ctx_for(g), expand("disco:aggregation"),
                             classes=[expand("qb:DataSet")],
                             scope=expand("disco:LogicalDataSet"))
    assert out == []


def test_scoped_range_flags_non_scope_user():
    g = graph(
        _typed("ex:other", "disco:Study"),
        ("ex:other", "disco:questionText", lit("text", lang="en")),
    )
    out = schema.check_range(ctx_for(g), expand("disco:questionText"),
                             datatype=expand("rdf:langString"),
                             scope=expand("disco:Question"))
    assert len(out) == 1
    assert "only instances of" in out[0].message


# --- inverse / asymmetric / irreflexive --------------------------------------

def test_inverse_pair_flags_missing_direction():
    g = graph(("ex:ss", "disco:statisticsVariable", "ex:v"))
    out = schema.check_inverse_pair(ctx_for(g), expand("disco:statisticsVariable"),
                                    expand("disco:summaryStatistics"))
    assert len(out) == 1


def test_inverse_pair_passes_with_both_directions():
    g = graph(
        ("ex:ss", "disco:statisticsVariable", "ex:v"),
        ("ex:v", "disco:summaryStatistics", "ex:ss"),
    )
    assert schema.check_inverse_pair(ctx_for(g), expand("disco:statisticsVariable"),
                                     expand("disco:summaryStatistics")) == []


def test_inverse_pair_matches_swap_oracle():
    rng = random.Random(11)
    p, q = expand("ex:p"), expand("ex:q")
    for _ in range(60):
        fwd = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(6))}
        bwd = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(6))}
        rows = [(f"ex:n{a}", "ex:p", f"ex:n{b}") for a, b in fwd]
        rows += [(f"ex:n{a}", "ex:q", f"ex:n{b}") for a, b in bwd]
        out = schema.check_inverse_pair(ctx_for(graph(*rows)), p, q)
        swapped = {(b, a) for a, b in bwd}
        expected = len(fwd - swapped) + len(swapped - fwd)
        assert len(out) == expected


def test_inverse_pair_scope_restricts_check():
    g = graph(
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "disco:question", "ex:q"),
        ("ex:questionnaire", "disco:question", "ex:q"),
        ("ex:q", "disco:questionVariable", "ex:v"),
    )
    out = schema.check_inverse_pair(
        ctx_for(g), expand("disco:question"), expand("disco:questionVariable"),
        scope=expand("disco:Variable"),
    )
    # the questionnaire leg is out of scope; the variable leg is satisfied
    assert out == []


def test_asymmetric_flags_mutual_pair_once():
    g = graph(
        ("ex:a", "disco:basedOn", "ex:b"),
        ("ex:b", "disco:basedOn", "ex:a"),
    )
    out = schema.check_asymmetric(ctx_for(g), expand("disco:basedOn"))
    assert len(out) == 1


def test_asymmetric_one_direction_fine():
    g = graph(("ex:a", "disco:basedOn", "ex:b"))
    assert schema.check_asymmetric(ctx_for(g), expand("disco:basedOn")) == []


def test_asymmetric_count_equals_pair_intersection_oracle():
    rng = random.Random(3)
    p = expand("ex:p")
    for _ in range(60):
        edges = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(10))}
        rows = [(f"ex:n{a}", "ex:p", f"ex:n{b}") for a, b in edges]
        out = schema.check_asymmetric(ctx_for(graph(*rows)), p)
        mutual = {(a, b) for a, b in edges if a != b and (b, a) in edges}
        assert len(out) == len(mutual) // 2


def test_irreflexive_flags_self_loop():
    g = graph(("ex:x", "disco:instrument", "ex:x"))
    assert len(schema.check_irreflexive(ctx_for(g), expand("disco:instrument"))) == 1


def test_irreflexive_scope_filters():
    g = graph(("ex:c", "skos:broader", "ex:c"))
    out = schema.check_irreflexive(ctx_for(g), expand("skos:broader"),
                                   scope=expand("skos:Concept"))
    assert out == []  # ex:c is not typed skos:Concept, scope misses it
    g2 = graph(_typed("ex:c", "skos:Concept"), ("ex:c", "skos:broader", "ex:c"))
    out2 = schema.check_irreflexive(ctx_for(g2), expand("skos:broader"),
                                    scope=expand("skos:Concept"))
    assert len(out2) == 1


# --- disjointness -------------------------------------------------------------

def test_disjoint_properties_flag_shared_pair():
    g = graph(
        ("ex:o", "qb:dataSet", "ex:ds"),
        ("ex:o", "qb:structure", "ex:ds"),
    )
    out = schema.check_disjoint_properties(
        ctx_for(g), [expand("qb:dataSet"), expand("qb:structure")]
    )
    assert len(out) == 1


def test_disjoint_labels_share_literal():
    g = graph(
        ("ex:c", "skos:prefLabel", lit("Bank", lang="en")),
        ("ex:c", "skos:altLabel", lit("Bank", lang="en")),
    )
    out = schema.check_disjoint_properties(
        ctx_for(g),
        [expand("skos:prefLabel"), expand("skos:altLabel"),
         expand("skos:hiddenLabel")],
    )
    assert len(out) == 1


def test_disjoint_properties_distinct_objects_fine():
    g = graph(
        ("ex:c", "skos:prefLabel", lit("Bank", lang="en")),
        ("ex:c", "skos:altLabel", lit("Credit institution", lang="en")),
    )
    assert schema.check_disjoint_properties(
        ctx_for(g), [expand("skos:prefLabel"), expand("skos:altLabel")]
    ) == []


def test_disjoint_properties_exempt_pair_skipped():
    g = graph(
        ("ex:cs", "disco:percentage", lit("60.0", "xsd:double")),
        ("ex:cs", "disco:cumulativePercentage", lit("60.0", "xsd:double")),
    )
    out = schema.check_disjoint_properties(
        ctx_for(g),
        [expand("disco:percentage"), expand("disco:cumulativePercentage")],
        exempt_pairs=[(expand("disco:percentage"),
                       expand("disco:cumulativePercentage"))],
    )
    assert out == []


def test_disjoint_properties_subproperty_pairs_never_disjoint(skos_catalog):
    g = graph(
        ("ex:c", "skos:broader", "ex:d"),
        ("ex:c", "skos:broaderTransitive", "ex:d"),
    )
    out = schema.check_disjoint_properties(
        ctx_for(g, skos_catalog),
        [expand("skos:broader"), expand("skos:broaderTransitive")],
    )
    assert out == []


def test_disjoint_classes_flag_double_typing():
    g = graph(_typed("ex:x", "disco:Study"), _typed("ex:x", "disco:Variable"))
    out = schema.check_disjoint_classes(
        ctx_for(g), [expand("disco:Study"), expand("disco:Variable")]
    )
    assert len(out) == 1
    assert "disco:Study" in out[0].message and "disco:Variable" in out[0].message


def test_disjoint_classes_single_type_fine():
    g = graph(_typed("ex:x", "disco:Study"))
    assert schema.check_disjoint_classes(
        ctx_for(g), [expand("disco:Study"), expand("disco:Variable")]
    ) == []


def test_disjoint_classes_subclass_pairs_exempt(disco_catalog):
    g = graph(_typed("ex:x", "disco:CategoryStatistics"))
    out = schema.check_disjoint_classes(
        ctx_for(g, disco_catalog),
        [expand("disco:CategoryStatistics"), expand("disco:DescriptiveStatistics")],
    )
    assert out == []


def test_disjoint_classes_matches_pairwise_oracle():
    rng = random.Random(17)
    classes = [expand(f"ex:C{i}") for i in range(4)]
    for _ in range(60):
        rows = []
        typing = {}
        for i in range(rng.randrange(0, 8)):
            node = expand(f"ex:n{i}")
            mine = {c for c in classes if rng.random() < 0.4}
            typing[node] = mine
            rows += [(node, "rdf:type", c) for c in mine]
        g = graph(*rows)
        out = schema.check_disjoint_classes(ctx_for(g), classes)
        expected = sum(
            len(mine) * (len(mine) - 1) // 2 for mine in typing.values()
        )
        assert len(out) == expected


# --- cardinality ---------------------------------------------------------------

def test_cardinality_exact_example():
    g = graph(
        _typed("ex:obs", "qb:Observation"),
        _typed("ex:ds1", "qb:DataSet"), _typed("ex:ds2", "qb:DataSet"),
        ("ex:obs", "qb:dataSet", "ex:ds1"),
        ("ex:obs", "qb:dataSet", "ex:ds2"),
    )
    out = schema.check_cardinality(
        ctx_for(g), expand("qb:dataSet"), expand("qb:Observation"),
        max=1, qualifier_class=expand("qb:DataSet"),
    )
    assert len(out) == 1 and out[0].detail == "2"


def test_cardinality_satisfied():
    g = graph(
        _typed("ex:q", "disco:Question"),
        _typed("ex:u", "disco:Universe"),
        ("ex:q", "disco:universe", "ex:u"),
    )
    out = schema.check_cardinality(
        ctx_for(g), expand("disco:universe"), expand("disco:Question"),
        min=1, max=1, qualifier_class=expand("disco:Universe"),
    )
    assert out == []


def test_cardinality_exact_equals_min_plus_max_runs():
    g = graph(
        _typed("ex:a", "ex:C"),
        ("ex:a", "ex:p", "ex:v1"), ("ex:a", "ex:p", "ex:v2"),
        _typed("ex:b", "ex:C"),
    )
    ctx = ctx_for(g)
    p, c = expand("ex:p"), expand("ex:C")
    exact = schema.check_cardinality(ctx, p, c, min=1, max=1)
    min_only = schema.check_cardinality(ctx, p, c, min=1)
    max_only = schema.check_cardinality(ctx, p, c, max=1)
    assert {(v.focus, v.detail) for v in exact} == {
        (v.focus, v.detail) for v in min_only + max_only
    }


def test_cardinality_counts_match_brute_force():
    rng = random.Random(23)
    for _ in range(100):
        rows = [_typed("ex:f", "ex:C")]
        values = {f"ex:v{rng.randrange(6)}" for _ in range(rng.randrange(7))}
        rows += [("ex:f", "ex:p", v) for v in values]
        lo, hi = rng.randrange(0, 4), rng.randrange(0, 4)
        out = schema.check_cardinality(
            ctx_for(graph(*rows)), expand("ex:p"), expand("ex:C"),
            min=lo, max=hi,
        )
        expected = (1 if len(values) < lo else 0) + (1 if len(values) > hi else 0)
        assert len(out) == expected


# --- exclusive groups, keys, values --------------------------------------------

def test_exclusive_groups_truth_table():
    definition = expand("skos:definition")
    notation, pref = expand("skos:notation"), expand("skos:prefLabel")
    groups = [[definition], [notation, pref]]
    cases = {
        (): 1,  # nothing matches -> violation
        ("d",): 0,
        ("n", "p"): 0,
        ("d", "n", "p"): 1,  # both groups -> violation
        ("n",): 1,  # incomplete second group, nothing matches
        ("d", "n"): 0,  # second group incomplete, first matches
    }
    for present, expect in cases.items():
        rows = [_typed("ex:c", "skos:Concept")]
        if "d" in present:
            rows.append(("ex:c", "skos:definition", lit("def", lang="en")))
        if "n" in present:
            rows.append(("ex:c", "skos:notation", lit("1")))
        if "p" in present:
            rows.append(("ex:c", "skos:prefLabel", lit("One", lang="en")))
        out = schema.check_exclusive_property_groups(
            ctx_for(graph(*rows)), expand("skos:Concept"), groups
        )
        assert len(out) == expect, present


def test_uniqueness_key_flags_shared_value():
    g = graph(
        ("ex:a", "adms:identifier", "ex:id1"),
        ("ex:b", "adms:identifier", "ex:id1"),
    )
    out = schema.check_uniqueness_key(ctx_for(g), expand("adms:identifier"))
    assert len(out) == 2  # both holders named


def test_uniqueness_key_unique_values_fine():
    g = graph(
        ("ex:a", "adms:identifier", "ex:id1"),
        ("ex:b", "adms:identifier", "ex:id2"),
    )
    assert schema.check_uniqueness_key(ctx_for(g), expand("adms:identifier")) == []


def test_uniqueness_key_scope_requires_totality():
    g = graph(_typed("ex:a", "ex:C"))
    out = schema.check_uniqueness_key(ctx_for(g), expand("ex:key"),
                                      scope=expand("ex:C"))
    assert len(out) == 1 and "lacks its key" in out[0].message


def test_uniqueness_matches_grouping_oracle():
    rng = random.Random(31)
    for _ in range(60):
        assignments = {
            f"ex:s{i}": f"ex:val{rng.randrange(4)}" for i in range(rng.randrange(8))
        }
        rows = [(s, "ex:key", v) for s, v in assignments.items()]
        out = schema.check_uniqueness_key(ctx_for(graph(*rows)), expand("ex:key"))
        buckets = {}
        for s, v in assignments.items():
            buckets.setdefault(v, []).append(s)
        expected = sum(len(b) for b in buckets.values() if len(b) > 1)
        assert len(out) == expected


def test_allowed_values_example():
    ok = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:computationBase", lit("valid", lang="en")),
    )
    bad = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:computationBase", lit("all", lang="en")),
    )
    values = [{"lexical": "valid", "lang": "en"}, {"lexical": "invalid", "lang": "en"}]
    prop, scope = expand("disco:computationBase"), expand("disco:CategoryStatistics")
    assert schema.check_allowed_values(ctx_for(ok), prop, values, scope=scope) == []
    assert len(schema.check_allowed_values(ctx_for(bad), prop, values, scope=scope)) == 1


def test_allowed_values_language_tag_matters():
    g = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:computationBase", lit("valid", lang="de")),
    )
    values = [{"lexical": "valid", "lang": "en"}]
    out = schema.check_allowed_values(
        ctx_for(g), expand("disco:computationBase"), values,
        scope=expand("disco:CategoryStatistics"),
    )
    assert len(out) == 1


def test_negated_empty_list_never_violates():
    g = graph(("ex:s", "ex:p", lit("anything")))
    assert schema.check_allowed_values(ctx_for(g), expand("ex:p"), [],
                                        negated=True) == []


def test_negated_is_complement():
    rng = random.Random(41)
    values = [{"lexical": "a"}, {"lexical": "b"}]
    for _ in range(40):
        rows = [
            ("ex:s", "ex:p", lit(rng.choice(["a", "b", "c", "d"])))
            for _ in range(rng.randrange(1, 6))
        ]
        g = graph(*rows)
        plain = schema.check_allowed_values(ctx_for(g), expand("ex:p"), values)
        negated = schema.check_allowed_values(ctx_for(g), expand("ex:p"), values,
                                              negated=True)
        total = {(t.subject, t.object) for t in g}
        assert len(plain) + len(negated) == len(total)


# --- membership, terms, scheme --------------------------------------------------

def test_vocab_membership_via_in_scheme():
    g = graph(
        _typed("ex:ss", "disco:SummaryStatistics"),
        ("ex:ss", "disco:summaryStatisticsType", "ex:mean"),
        ("ex:mean", "skos:inScheme", "ex:scheme"),
    )
    out = schema.check_vocab_membership(
        ctx_for(g), expand("disco:summaryStatisticsType"), expand("ex:scheme"),
    )
    assert out == []


def test_vocab_membership_flags_outsider():
    g = graph(
        ("ex:ss", "disco:summaryStatisticsType", "ex:rogue"),
    )
    out = schema.check_vocab_membership(
        ctx_for(g), expand("disco:summaryStatisticsType"), expand("ex:scheme"),
    )
    assert len(out) == 1


def test_vocab_membership_empty_scheme_every_use_violates():
    g = graph(
        ("ex:a", "ex:p", "ex:v1"),
        ("ex:b", "ex:p", "ex:v2"),
    )
    out = schema.check_vocab_membership(ctx_for(g), expand("ex:p"),
                                        expand("ex:scheme"))
    assert len(out) == 2


def test_vocab_membership_inventory_list():
    g = graph(("ex:ss", "ex:p", "ex:member"))
    inv = VocabularyInventory(
        name="toy", controlled_vocabularies={expand("ex:scheme"): [expand("ex:member")]}
    )
    out = schema.check_vocab_membership(
        ctx_for(g, Catalog({}, {"toy": inv})), expand("ex:p"), expand("ex:scheme")
    )
    assert out == []


def test_deprecated_terms_flag_uses():
    inv = VocabularyInventory(name="toy", namespace="http://toy/",
                              deprecated={"http://toy/old"})
    g = graph(("ex:s", "http://toy/old", "ex:o"))
    out = schema.check_deprecated_terms(ctx_for(g, Catalog({}, {"toy": inv})), "toy",
                                       kind="properties")
    assert len(out) == 1
    assert schema.check_deprecated_terms(
        ctx_for(g, Catalog({}, {"toy": inv})), "toy", kind="classes"
    ) == []


def test_deprecated_class_via_rdf_type():
    inv = VocabularyInventory(name="toy", namespace="http://toy/",
                              deprecated={"http://toy/OldClass"})
    g = graph(_typed("ex:x", "http://toy/OldClass"))
    assert len(schema.check_deprecated_terms(
        ctx_for(g, Catalog({}, {"toy": inv})), "toy", kind="classes"
    )) == 1


def test_undefined_terms_typo_flagged(skos_catalog):
    inv = skos_catalog.inventories["skos"]
    g = graph(_typed("ex:c", "skos:Concpet"))
    out = schema.check_undefined_terms(ctx_for(g, skos_catalog), inv.name)
    assert len(out) == 1
    assert "Concpet" in out[0].detail


def test_undefined_terms_outside_namespace_never_flagged(skos_catalog):
    inv = skos_catalog.inventories["skos"]
    g = graph(("ex:s", "ex:madeUp", "ex:o"))
    assert schema.check_undefined_terms(ctx_for(g, skos_catalog), inv.name) == []


def test_undefined_terms_all_declared_fine(skos_catalog):
    inv = skos_catalog.inventories["skos"]
    g = graph(_typed("ex:c", "skos:Concept"), ("ex:c", "skos:prefLabel", lit("x")))
    assert schema.check_undefined_terms(ctx_for(g, skos_catalog), inv.name) == []


def test_http_scheme_flags_urn():
    g = graph(("urn:isbn:0451450523", "ex:p", "ex:o"))
    out = schema.check_http_scheme(ctx_for(g))
    assert len(out) == 1 and "urn" in out[0].detail


def test_http_scheme_accepts_https():
    g = graph(("https://secure/s", "http://p/", "https://secure/o"))
    assert schema.check_http_scheme(ctx_for(g)) == []


# An IRI-like string: a head that is often a well-formed scheme, a separator,
# and a tail. Every character is one an IRIREF may hold; "[" and "]" after
# "//" are what urlsplit's authority check rejects.
_IRI_CHARS = st.characters(
    min_codepoint=0x21, exclude_characters='<>"{}|^`\\', exclude_categories=("Cs",)
)
_SCHEME_LIKE = st.text(st.sampled_from("aZhxQ09+-."), min_size=1, max_size=6)
_IRI_LIKE = st.builds(
    lambda head, sep, tail: head + sep + tail,
    st.one_of(_SCHEME_LIKE, _SCHEME_LIKE, _SCHEME_LIKE, st.text(_IRI_CHARS, max_size=6)),
    st.sampled_from([":", "://", "://[", ""]),
    st.text(st.sampled_from(":/[]@") | _IRI_CHARS, max_size=10),
)


@given(_IRI_LIKE)
@settings(max_examples=500, deadline=None)
def test_scheme_agrees_with_urlsplit(value):
    try:
        expected = urlsplit(value).scheme.lower()
    except ValueError:  # an authority urlsplit rejects, such as "//[x"
        assume(False)
    assert ctx_for(Graph()).scheme(Iri(value)) == expected


def test_scheme_reads_only_the_rfc3986_scheme():
    ctx = ctx_for(Graph())
    assert ctx.scheme(Iri("http://[x/a")) == "http"
    assert ctx.scheme(Iri("HTTPS://]")) == "https"
    assert ctx.scheme(Iri("1http://a")) == ""
    assert ctx.scheme(Iri("no-colon")) == ""


def test_equal_type_sets_share_one_frozenset(full_catalog):
    g = load_fixture("eusilc.ttl")
    types = ctx_for(g, full_catalog)._type_map()
    expected: dict = {}
    for t in g.match(None, iri(RDF_TYPE), None):
        if isinstance(t.object, Iri):
            expected.setdefault(t.subject, set()).update(full_catalog.superclasses(t.object.value))
    assert types == expected
    shared: dict = {}
    for classes in types.values():
        assert shared.setdefault(classes, classes) is classes
    assert len(shared) < len(types)


def test_equivalent_properties_one_sided_use():
    g = graph(("ex:d", "disco:containsVariable", "ex:v"))
    out = schema.check_equivalent_properties(
        ctx_for(g), [(expand("disco:containsVariable"), expand("disco:variable"))]
    )
    assert len(out) == 1


def test_equivalent_properties_symmetric_in_pair_order():
    g = graph(("ex:d", "disco:variable", "ex:v"))
    pair_a = [(expand("disco:containsVariable"), expand("disco:variable"))]
    pair_b = [(expand("disco:variable"), expand("disco:containsVariable"))]
    out_a = schema.check_equivalent_properties(ctx_for(g), pair_a)
    out_b = schema.check_equivalent_properties(ctx_for(g), pair_b)
    assert {(v.focus, v.detail) for v in out_a} == {(v.focus, v.detail) for v in out_b}


def test_equivalent_properties_both_present_fine():
    g = graph(
        ("ex:d", "disco:containsVariable", "ex:v"),
        ("ex:d", "disco:variable", "ex:v"),
    )
    assert schema.check_equivalent_properties(
        ctx_for(g), [(expand("disco:containsVariable"), expand("disco:variable"))]
    ) == []
