import itertools
import random
import sys
import time

import pytest

from rdfcheck.catalog import CONSTRAINT_TYPES
from rdfcheck.checks.graphalg import (
    strongly_connected_components,
    weakly_connected_components,
)
from rdfcheck.checks.models import extract_hierarchy
from rdfcheck.checks.skos import DOCUMENTATION_PROPERTIES, LABEL_PROPERTIES

from conftest import checker, ctx_for, expand, graph, iri, lit


def _typed(node, cls="skos:Concept"):
    return (node, "rdf:type", cls)


def _run_mode(type_id, mode, g, **kw):
    """The mode's checker called with the run objects its table entry needs."""
    ctx = ctx_for(g)
    shared = {"ctx": ctx, "hierarchy": extract_hierarchy(ctx)}
    needs = CONSTRAINT_TYPES[type_id].check[mode][1]
    return checker(type_id, mode)(*(shared[need] for need in needs), **kw)


def _structure(g, mode, **kw):
    return _run_mode("skos-structure", mode, g, **kw)


def _clashes(g, mode):
    return _run_mode("skos-clashes", mode, g)


# --- graph algorithm units ------------------------------------------------------

def test_scc_on_simple_cycle():
    succ = {1: [2], 2: [3], 3: [1], 4: []}
    comps = strongly_connected_components([1, 2, 3, 4], lambda n: succ[n])
    assert sorted(map(sorted, comps)) == [[1, 2, 3], [4]]


def test_scc_handles_deep_chain_iteratively():
    n = 5000
    succ = {i: [i + 1] for i in range(n)}
    succ[n] = []
    comps = strongly_connected_components(list(range(n + 1)),
                                          lambda i: succ.get(i, []))
    assert len(comps) == n + 1


def test_wcc_union_find():
    nodes = [1, 2, 3, 4, 5]
    comps = weakly_connected_components(nodes, [(1, 2), (4, 3)])
    assert sorted(map(sorted, comps)) == [[1, 2], [3, 4], [5]]


def test_cycles_match_transitive_closure_oracle():
    rng = random.Random(12321)
    for _ in range(120):
        n = rng.randrange(1, 16)
        nodes = list(range(n))
        edges = {
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))
        }
        succ = {a: [b for (x, b) in edges if x == a] for a in nodes}
        comps = strongly_connected_components(nodes, lambda a: succ.get(a, []))
        in_cycle = set()
        for comp in comps:
            if len(comp) > 1 or (comp[0], comp[0]) in edges:
                in_cycle.update(comp)
        # oracle: transitive closure self-reachability over >=1 hops
        closure = {a: set(succ.get(a, [])) for a in nodes}
        changed = True
        while changed:
            changed = False
            for a in nodes:
                extra = set()
                for b in closure[a]:
                    extra |= closure.get(b, set())
                if not extra <= closure[a]:
                    closure[a] |= extra
                    changed = True
        oracle = {a for a in nodes if a in closure[a]}
        assert in_cycle == oracle


# --- structural modes --------------------------------------------------------------

def test_orphan_concept():
    g = graph(_typed("ex:alone"), ("ex:alone", "skos:prefLabel", lit("A", lang="en")))
    out = _structure(g, "orphan")
    assert len(out) == 1


def test_connected_concept_not_orphan():
    g = graph(_typed("ex:a"), _typed("ex:b"), ("ex:a", "skos:broader", "ex:b"))
    assert _structure(g, "orphan") == []


def test_literal_and_self_relations_leave_a_concept_orphan():
    g = graph(
        _typed("ex:a"),
        ("ex:a", "skos:related", lit("ex:b")),
        ("ex:a", "skos:broader", "ex:a"),
    )
    assert len(_structure(g, "orphan")) == 1


def test_disconnected_clusters_report_all_but_largest():
    g = graph(
        _typed("ex:a"), _typed("ex:b"), _typed("ex:c"),
        _typed("ex:x"), _typed("ex:y"),
        ("ex:a", "skos:broader", "ex:b"), ("ex:b", "skos:broader", "ex:c"),
        ("ex:x", "skos:related", "ex:y"),
    )
    out = _structure(g, "disconnected")
    assert len(out) == 1
    assert "2" in out[0].detail


def test_single_component_no_islands():
    g = graph(_typed("ex:a"), _typed("ex:b"), ("ex:a", "skos:broader", "ex:b"))
    assert _structure(g, "disconnected") == []


def test_cycle_reported_with_members():
    g = graph(
        _typed("ex:decision"), _typed("ex:resolution"), _typed("ex:problem"),
        ("ex:decision", "skos:broader", "ex:resolution"),
        ("ex:resolution", "skos:broader", "ex:problem"),
        ("ex:problem", "skos:broader", "ex:decision"),
    )
    out = _structure(g, "cycles")
    assert len(out) == 1
    assert out[0].detail == "cycle:3"


def test_hierarchy_assembles_inverted_narrower():
    from conftest import iri

    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:b", "skos:narrower", "ex:a"),
        ("ex:a", "skos:broader", "ex:b"),
    )
    hierarchy = extract_hierarchy(ctx_for(g))
    # both assertions describe the same logical edge a -> b
    assert hierarchy.edges == {(iri("ex:a"), iri("ex:b"))}


def test_valueless_associative_siblings():
    g = graph(
        _typed("ex:a"), _typed("ex:b"), _typed("ex:parent"),
        ("ex:a", "skos:broader", "ex:parent"),
        ("ex:b", "skos:broader", "ex:parent"),
        ("ex:a", "skos:related", "ex:b"),
    )
    out = _structure(g, "valueless-associative")
    assert len(out) == 1


def test_valueless_associative_on_a_flat_star_takes_linear_time():
    # 8,000 siblings under one root and no skos:related: the check walks
    # the related pairs, not the 32 million pairs of siblings
    rows = [_typed("ex:root")]
    for i in range(8000):
        rows += [_typed(f"ex:c{i}"), (f"ex:c{i}", "skos:broader", "ex:root")]
    g = graph(*rows)
    started = time.perf_counter()
    assert _structure(g, "valueless-associative") == []
    assert time.perf_counter() - started < 1.0


def test_non_siblings_related_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:related", "ex:b"),
    )
    assert _structure(g, "valueless-associative") == []


def test_solely_transitive_assertion():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:broaderTransitive", "ex:b"),
    )
    assert len(_structure(g, "solely-transitive")) == 1
    g_ok = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:broaderTransitive", "ex:b"),
        ("ex:a", "skos:broader", "ex:b"),
    )
    assert _structure(g_ok, "solely-transitive") == []


def test_unidirectional_broader_without_narrower():
    g = graph(_typed("ex:a"), _typed("ex:b"), ("ex:a", "skos:broader", "ex:b"))
    out = _structure(g, "unidirectional")
    assert len(out) == 1


def test_reciprocal_relations_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:broader", "ex:b"),
        ("ex:b", "skos:narrower", "ex:a"),
        ("ex:a", "skos:related", "ex:b"),
        ("ex:b", "skos:related", "ex:a"),
    )
    assert _structure(g, "unidirectional") == []


def test_omitted_top_concepts():
    g = graph(("ex:scheme", "rdf:type", "skos:ConceptScheme"))
    assert len(_structure(g, "omitted-top-concepts")) == 1
    g_ok = graph(
        ("ex:scheme", "rdf:type", "skos:ConceptScheme"),
        ("ex:scheme", "skos:hasTopConcept", "ex:top"),
    )
    assert _structure(g_ok, "omitted-top-concepts") == []


def test_top_concept_with_broader():
    g = graph(
        ("ex:scheme", "rdf:type", "skos:ConceptScheme"),
        ("ex:scheme", "skos:hasTopConcept", "ex:top"),
        _typed("ex:top"), _typed("ex:up"),
        ("ex:top", "skos:broader", "ex:up"),
    )
    out = _structure(g, "top-with-broader")
    assert len(out) == 1


def test_hierarchical_redundancy():
    g = graph(
        _typed("ex:a"), _typed("ex:b"), _typed("ex:c"),
        ("ex:a", "skos:broader", "ex:b"),
        ("ex:b", "skos:broader", "ex:c"),
        ("ex:a", "skos:broader", "ex:c"),
    )
    out = _structure(g, "hierarchical-redundancy")
    assert len(out) == 1
    assert "redundant" in out[0].message


def test_redundancy_depth_limit_indeterminate():
    rows = [_typed(f"ex:n{i}") for i in range(6)]
    rows += [(f"ex:n{i}", "skos:broader", f"ex:n{i+1}") for i in range(5)]
    rows.append(("ex:n0", "skos:broader", "ex:n5"))
    out = _structure(graph(*rows), "hierarchical-redundancy", depth_limit=2)
    indeterminate = [v for v in out if "indeterminate" in v.message]
    assert indeterminate


def test_redundancy_within_the_depth_limit_is_found():
    # a -> m2 -> b has 2 edges; a depth-first search that went a -> m1 -> m2
    # first met m2 past the limit, never expanded it, and gave up on a -> b.
    # a -> m1 -> m2 makes a -> m2 redundant too
    rows = [_typed(f"ex:{n}") for n in ("a", "b", "m1", "m2")]
    rows += [("ex:a", "skos:broader", f"ex:{n}") for n in ("b", "m1", "m2")]
    rows += [("ex:m1", "skos:broader", "ex:m2"), ("ex:m2", "skos:broader", "ex:b")]
    out = _structure(graph(*rows), "hierarchical-redundancy", depth_limit=2)
    assert sorted((v.focus, v.detail) for v in out) == [
        (str(iri("ex:a")), str(iri("ex:b"))), (str(iri("ex:a")), str(iri("ex:m2")))]
    assert all("redundant" in v.message for v in out)


def test_redundancy_search_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    rows = [_typed(f"ex:c{i}") for i in range(n + 1)]
    rows += [(f"ex:c{i}", "skos:broader", f"ex:c{i + 1}") for i in range(n)]
    rows.append(("ex:c0", "skos:broader", f"ex:c{n}"))
    out = _structure(graph(*rows), "hierarchical-redundancy", depth_limit=2 * n)
    assert [(v.focus, v.detail) for v in out] == [(str(iri("ex:c0")), str(iri(f"ex:c{n}")))]
    assert "redundant" in out[0].message


def test_reflexive_relation():
    g = graph(_typed("ex:a"), ("ex:a", "skos:related", "ex:a"))
    assert len(_structure(g, "reflexive")) == 1


# --- clashes --------------------------------------------------------------------------

def test_relation_clash_with_path():
    g = graph(
        _typed("ex:a"), _typed("ex:x"), _typed("ex:b"),
        ("ex:a", "skos:broader", "ex:x"),
        ("ex:x", "skos:broader", "ex:b"),
        ("ex:a", "skos:related", "ex:b"),
    )
    out = _clashes(g, "relation")
    assert len(out) == 1


def test_related_without_path_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:related", "ex:b"),
    )
    assert _clashes(g, "relation") == []


def test_mapping_clash_exact_and_broad():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:exactMatch", "ex:b"),
        ("ex:a", "skos:broadMatch", "ex:b"),
    )
    out = _clashes(g, "mapping")
    assert len(out) == 1


def test_exact_match_alone_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:exactMatch", "ex:b"),
    )
    assert _clashes(g, "mapping") == []


def test_mapping_misuse_same_scheme():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:scheme"),
        ("ex:b", "skos:inScheme", "ex:scheme"),
        ("ex:a", "skos:exactMatch", "ex:b"),
    )
    assert len(_clashes(g, "misuse")) == 1


def test_mapping_between_schemes_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:s1"),
        ("ex:b", "skos:inScheme", "ex:s2"),
        ("ex:a", "skos:exactMatch", "ex:b"),
    )
    assert _clashes(g, "misuse") == []


def test_mapping_misuse_no_scheme_at_all():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:closeMatch", "ex:b"),
    )
    assert len(_clashes(g, "misuse")) == 1


# --- labeling ---------------------------------------------------------------------------

def _labeling(g, mode):
    return checker("skos-labeling", mode)(ctx_for(g))


def test_undocumented_concept():
    g = graph(_typed("ex:c"), ("ex:c", "skos:prefLabel", lit("X", lang="en")))
    assert len(_labeling(g, "undocumented")) == 1
    g_doc = graph(
        _typed("ex:c"),
        ("ex:c", "skos:definition", lit("meaning", lang="en")),
    )
    assert _labeling(g_doc, "undocumented") == []


@pytest.mark.parametrize("prop", DOCUMENTATION_PROPERTIES)
def test_each_documentation_property_documents(prop):
    g = graph(_typed("ex:c"), ("ex:c", prop, lit("text", lang="en")))
    assert _labeling(g, "undocumented") == []


def test_overlapping_pref_labels_same_scheme():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:s"), ("ex:b", "skos:inScheme", "ex:s"),
        ("ex:a", "skos:prefLabel", lit("Bank", lang="en")),
        ("ex:b", "skos:prefLabel", lit("Bank", lang="en")),
    )
    assert len(_labeling(g, "overlapping")) == 1


def test_same_label_different_language_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:s"), ("ex:b", "skos:inScheme", "ex:s"),
        ("ex:a", "skos:prefLabel", lit("Bank", lang="en")),
        ("ex:b", "skos:prefLabel", lit("Bank", lang="de")),
    )
    assert _labeling(g, "overlapping") == []


def test_missing_labels_on_scheme():
    g = graph(("ex:scheme", "rdf:type", "skos:ConceptScheme"))
    assert len(_labeling(g, "missing")) == 1
    g_ok = graph(
        ("ex:scheme", "rdf:type", "skos:ConceptScheme"),
        ("ex:scheme", "dcterms:title", lit("Scheme", lang="en")),
    )
    assert _labeling(g_ok, "missing") == []


@pytest.mark.parametrize("prop", LABEL_PROPERTIES)
def test_each_label_property_labels(prop):
    g = graph(_typed("ex:c"), ("ex:c", prop, lit("Label", lang="en")))
    assert _labeling(g, "missing") == []


def test_unlabeled_node_of_several_classes_reported_once():
    g = graph(
        _typed("ex:c"), _typed("ex:c", "skos:Collection"),
        _typed("ex:s", "skos:ConceptScheme"),
    )
    assert sorted(v.focus for v in _labeling(g, "missing")) == [
        "<http://example.org/c>", "<http://example.org/s>",
    ]


def test_unprintable_characters():
    g = graph(_typed("ex:c"), ("ex:c", "skos:prefLabel", lit("tab\there", lang="en")))
    out = _labeling(g, "unprintable")
    assert len(out) == 1


def test_alphanumeric_with_blanks_fine():
    g = graph(_typed("ex:c"), ("ex:c", "skos:prefLabel", lit("Solar energy 2", lang="en")))
    assert _labeling(g, "unprintable") == []


def test_empty_label_after_whitespace_removal():
    g = graph(_typed("ex:c"), ("ex:c", "skos:prefLabel", lit("  ", lang="en")))
    out = _labeling(g, "empty")
    assert len(out) == 1


def test_ambiguous_notation_in_scheme():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:s"), ("ex:b", "skos:inScheme", "ex:s"),
        ("ex:a", "skos:notation", lit("001")),
        ("ex:b", "skos:notation", lit("001")),
    )
    assert len(_labeling(g, "ambiguous-notation")) == 1


def test_notation_across_schemes_fine():
    g = graph(
        _typed("ex:a"), _typed("ex:b"),
        ("ex:a", "skos:inScheme", "ex:s1"), ("ex:b", "skos:inScheme", "ex:s2"),
        ("ex:a", "skos:notation", lit("001")),
        ("ex:b", "skos:notation", lit("001")),
    )
    assert _labeling(g, "ambiguous-notation") == []
