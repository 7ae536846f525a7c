import random
from itertools import groupby, permutations
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.graph import Graph, MalformedListError, walk_rdf_list
from rdfcheck.namespaces import RDF_FIRST, RDF_NIL, RDF_REST
from rdfcheck.terms import BlankNode, Iri, Literal, Triple, term_sort_key

from conftest import graph, iri, lit, triple
from isomorphism import isomorphic


def _triple_key(t):
    return (term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object))


def _random_term(rng, kind):
    if kind == "iri":
        return Iri(f"http://t/{rng.randrange(8)}")
    if kind == "blank":
        return BlankNode(f"b{rng.randrange(4)}")
    return Literal(str(rng.randrange(6)))


def _random_graph(rng, size):
    triples = []
    for _ in range(size):
        s = _random_term(rng, rng.choice(["iri", "blank"]))
        p = _random_term(rng, "iri")
        o = _random_term(rng, rng.choice(["iri", "blank", "literal"]))
        triples.append(Triple(s, p, o))
    return Graph(triples)


def test_match_fully_bound():
    g = graph(("ex:s", "ex:p", "ex:o"))
    t = triple("ex:s", "ex:p", "ex:o")
    assert g.match(t.subject, t.predicate, t.object) == [t]


def test_match_empty_graph_is_empty():
    assert Graph().match() == []


def test_match_equals_linear_scan_on_random_graphs():
    # index-backed lookup must agree with a brute-force filter for every
    # pattern shape
    rng = random.Random(20250809)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(0, 40))
        universe = list(g) or [triple("ex:s", "ex:p", "ex:o")]
        probe = rng.choice(universe)
        for mask in range(8):
            s = probe.subject if mask & 1 else None
            p = probe.predicate if mask & 2 else None
            o = probe.object if mask & 4 else None
            expected = sorted(
                (
                    t
                    for t in g
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)
                ),
                key=_triple_key,
            )
            assert g.match(s, p, o) == expected


_NODES = [Iri(f"http://t/{i}") for i in range(3)] + [BlankNode(f"b{i}") for i in range(2)]
_OBJECTS = _NODES + [
    Literal("1"),
    Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer"),
    Literal("x", lang="en"),
    Literal("x", lang="EN"),
]
_PATTERN_TERMS = st.none() | st.sampled_from(_OBJECTS + [Iri("http://t/absent")])


@given(
    st.lists(
        st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES[:3]), st.sampled_from(_OBJECTS)),
        max_size=30,
    ),
    _PATTERN_TERMS,
    _PATTERN_TERMS,
    _PATTERN_TERMS,
)
@settings(max_examples=300, deadline=None)
def test_match_equals_brute_force_filter_in_graph_order(rows, s, p, o):
    g = Graph([Triple(*row) for row in rows])
    expected = [
        t
        for t in list(g)
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
    found = g.match(s, p, o)
    assert found == expected
    found.append(None)
    assert g.match(s, p, o) == expected


@given(st.integers(min_value=0, max_value=60), st.integers())
@settings(max_examples=40, deadline=None)
def test_graph_deduplicates_and_sorts(size, seed):
    rng = random.Random(seed)
    triples = [
        Triple(_random_term(rng, "iri"), _random_term(rng, "iri"),
               _random_term(rng, "literal"))
        for _ in range(size)
    ]
    g = Graph(triples)
    assert len(g) == len(set(triples))
    listed = list(g)
    assert listed == sorted(listed, key=_triple_key)


def _sorted_build(triples):
    """The graph's contents built the plain way, as the reference: one sort
    of every distinct triple, then one pass per index. Each triple is keyed
    by its own terms, so an equal literal spelled otherwise elsewhere in the
    input cannot move it."""
    ordered = tuple(sorted(set(triples), key=_triple_key))
    by_sp = {}
    for s, run in groupby(ordered, attrgetter("subject")):
        by_sp[s] = runs = {}
        for p, pairs in groupby(run, attrgetter("predicate")):
            pairs = tuple(pairs)
            # a pair holding one triple keeps it bare
            runs[p] = pairs if len(pairs) > 1 else pairs[0]
    by_p, by_po = {}, {}
    for t in ordered:
        by_p.setdefault(t.predicate, []).append(t)
        by_po.setdefault(t.predicate, {}).setdefault(t.object, []).append(t)
    return ordered, by_sp, by_p, by_po


def _in_order(index):
    """A nested index as nested lists of items, so that equal also means in
    the same order."""
    if isinstance(index, dict):
        return [(key, _in_order(value)) for key, value in index.items()]
    return index


def _by_sp(g):
    """``g._by_s`` read as subject → predicate → run, in slot order. Each
    layout numbers its predicates 1 to k in order, and subjects share a
    layout exactly when they have the same set of predicates."""
    by_sp, layouts = {}, {}
    for s, (layout, *runs) in g._by_s.items():
        assert list(layout.values()) == list(range(1, len(runs) + 1))
        assert layouts.setdefault(frozenset(layout), layout) is layout
        by_sp[s] = dict(zip(layout, runs))
    return by_sp


def _run(g, s, p):
    """The run ``g._by_s`` keeps for the pair (s, p)."""
    entry = g._by_s[s]
    return entry[entry[0][p]]


def _assert_built_as_sorted(g, triples):
    ordered, by_sp, by_p, by_po = _sorted_build(triples)
    assert len(g._triples) == len(ordered)
    assert all(a is b for a, b in zip(g._triples, ordered))
    assert _in_order(_by_sp(g)) == _in_order(by_sp)
    assert _in_order(g._by_p) == _in_order(by_p)
    # the (predicate, object) index starts empty and fills one predicate at
    # a time, in whatever order the predicates are first asked for
    assert g._by_po == {}
    predicates = list(by_po)
    random.Random(len(ordered)).shuffle(predicates)
    for p in predicates:
        assert _in_order(g._po(p)) == _in_order(by_po[p])
        assert g._po(p) is g._by_po[p]
        filled = dict(g._by_po)
        assert g._po(Iri("http://t/absent")) == {} and g._by_po == filled
    assert g._by_po == by_po


_BUILD_SUBJECTS = [Iri(f"http://t/s{i}") for i in range(4)] + [
    BlankNode(f"b{i}") for i in range(3)
]
_BUILD_PREDICATES = [Iri(f"http://t/p{i}") for i in range(12)]
_BUILD_OBJECTS = st.sampled_from(_BUILD_SUBJECTS + [
    Literal("x", lang="en"),
    Literal("x", lang="EN"),
    Literal("x", lang="de"),
    Literal("x"),
    Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer"),
]) | st.integers(0, 50).map(lambda n: Literal(str(n)))


@st.composite
def _build_inputs(draw):
    rows = draw(st.lists(
        st.tuples(st.sampled_from(_BUILD_SUBJECTS), st.sampled_from(_BUILD_PREDICATES),
                  _BUILD_OBJECTS),
        max_size=40,
    ))
    # one subject with many predicates, and one pair with a run of many objects
    wide = _BUILD_SUBJECTS[draw(st.integers(0, len(_BUILD_SUBJECTS) - 1))]
    rows += [(wide, p, draw(_BUILD_OBJECTS))
             for p in draw(st.lists(st.sampled_from(_BUILD_PREDICATES), max_size=12))]
    s, p = draw(st.sampled_from(_BUILD_SUBJECTS)), draw(st.sampled_from(_BUILD_PREDICATES))
    rows += [(s, p, o) for o in draw(st.lists(_BUILD_OBJECTS, max_size=30))]
    # exact duplicates: equal triples made as distinct objects
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    triples = [Triple(*row) for row in rows]
    draw(st.randoms(use_true_random=False)).shuffle(triples)
    return triples


@given(_build_inputs())
@settings(max_examples=300, deadline=None)
def test_grouped_build_equals_one_sort_of_every_triple(triples):
    _assert_built_as_sorted(Graph(triples), triples)
    _assert_built_as_sorted(Graph(iter(triples)), triples)


def test_build_of_nothing_is_empty():
    for g in (Graph(), Graph(iter(()))):
        assert (g._triples, g._by_s, g._by_p, g._by_po) == ((), {}, {}, {})
        assert g.match() == [] and len(g) == 0


def test_build_reads_a_generator_once():
    triples = [triple("ex:b", "ex:p", "ex:o"), triple("ex:a", "ex:p", lit("x")),
               triple("ex:a", "ex:p", lit("w")), triple("ex:b", "ex:p", "ex:o")]
    reads = []

    def read():
        for t in triples:
            reads.append(t)
            yield t

    g = Graph(read())
    assert reads == triples
    _assert_built_as_sorted(g, triples)


@pytest.mark.parametrize("others", [[], [lit("a"), lit("z")]])
def test_build_keeps_the_first_spelling_of_equal_triples(others):
    # the pair holds the two spellings alone, or among other objects
    en, upper = (triple("ex:s", "ex:p", lit("x", lang=tag)) for tag in ("en", "EN"))
    rest = [triple("ex:s", "ex:p", o) for o in others]
    for first, second in ((en, upper), (upper, en)):
        g = Graph([first, *rest, second])
        kept = [t for t in g if t.object == en.object]
        assert len(kept) == 1 and kept[0] is first
        assert len(g) == 1 + len(others)


def test_run_order_ignores_an_equal_literal_spelled_otherwise_elsewhere():
    # "x"@EN sorts before "x"@de by its own spelling, though "x"@en, equal
    # to it, would sort after
    elsewhere = triple("ex:a", "ex:p", lit("x", lang="en"))
    run = [triple("ex:b", "ex:p", lit("x", lang=tag)) for tag in ("EN", "de")]
    for order in permutations([elsewhere, *run]):
        assert Graph(order).match(s=iri("ex:b")) == run


# One (subject, predicate) pair holding one triple and one holding three:
# ``_by_s`` keeps the first as the bare triple and the second as a tuple.
_ONE = triple("ex:s", "ex:p", "ex:o")
_MANY = [triple("ex:s", "ex:q", lit(x)) for x in "abc"]


def _runs_graph(make=Triple):
    one, *many = (make(t.subject, t.predicate, t.object) for t in (_ONE, *_MANY))
    return Graph([many[2], one, many[0], many[1]]), one, many


def test_a_pair_of_one_triple_holds_it_bare():
    g, one, many = _runs_graph()
    assert _run(g, iri("ex:s"), iri("ex:p")) is one
    assert _run(g, iri("ex:s"), iri("ex:q")) == tuple(many)
    # exact duplicates are one triple, so their pair holds it bare too
    twin = triple("ex:s", "ex:p", "ex:o")
    assert _run(Graph([_ONE, twin]), iri("ex:s"), iri("ex:p")) is _ONE


def test_subjects_with_equal_predicate_sets_share_one_layout():
    g = graph(
        ("ex:a", "ex:p", "ex:o"), ("ex:a", "ex:q", lit("1")), ("ex:a", "ex:q", lit("2")),
        ("ex:b", "ex:q", "ex:o"), ("ex:b", "ex:p", "ex:o"),
        (BlankNode("c"), "ex:p", lit("x")), (BlankNode("c"), "ex:q", "ex:a"),
        ("ex:d", "ex:p", "ex:o"),
        ("ex:e", "ex:q", "ex:o"), ("ex:e", "ex:r", "ex:o"),
    )
    a, b, c, d, e = (g._by_s[n][0] for n in (iri("ex:a"), iri("ex:b"), BlankNode("c"),
                                              iri("ex:d"), iri("ex:e")))
    assert a is b is c and a == {iri("ex:p"): 1, iri("ex:q"): 2}
    assert d == {iri("ex:p"): 1} and e == {iri("ex:q"): 1, iri("ex:r"): 2}
    # each subject's entry is one tuple: its layout, then its runs
    assert all(type(entry) is tuple for entry in g._by_s.values())
    assert g._by_s[iri("ex:a")][1:] == (triple("ex:a", "ex:p", "ex:o"),
                                        (triple("ex:a", "ex:q", lit("1")),
                                         triple("ex:a", "ex:q", lit("2"))))
    assert g.objects(iri("ex:d"), iri("ex:q")) == [] and g.objects(iri("ex:a"), iri("ex:r")) == []


def _assert_runs_answer_every_lookup(g, one, many):
    s, p, q = iri("ex:s"), iri("ex:p"), iri("ex:q")
    assert list(g) == [one, *many] and len(g) == 4
    assert g.match(s) == [one, *many]
    assert g.match(s, p) == [one] and g.match(s, q) == many
    assert g.match(s, p, iri("ex:o")) == [one] and g.match(s, p, lit("a")) == []
    assert g.match(s, q, lit("b")) == [many[1]] and g.match(s, q, iri("ex:o")) == []
    assert g.match(s, None, lit("c")) == [many[2]]
    assert g.objects(s, p) == [iri("ex:o")] and g.objects(s, q) == [lit(x) for x in "abc"]
    assert g.subjects(p, iri("ex:o")) == [s] and g.subjects(q, lit("c")) == [s]
    assert one in g and all(t in g for t in many)
    for absent in (("ex:s", "ex:p", "ex:a"), ("ex:s", "ex:q", lit("d")),
                   ("ex:s", "ex:q", "ex:o"), ("ex:t", "ex:p", "ex:o")):
        assert triple(*absent) not in g
    # every answer is a fresh list, a bare triple's too
    for found in (g.match(s, p), g.match(s), g.objects(s, p), g.objects(s, q)):
        found.clear()
    assert g.match(s, p) == [one] and g.objects(s, p) == [iri("ex:o")]
    assert g.match(s) == [one, *many] and len(g.objects(s, q)) == 3


def test_single_and_multi_triple_runs_answer_every_lookup():
    _assert_runs_answer_every_lookup(*_runs_graph())


class _NotedTriple(Triple):
    """A ``Triple`` subclass, which the graph must read as a bare triple."""

    __slots__ = ()


def test_a_graph_of_triple_subclass_instances_answers_every_lookup():
    g, one, many = _runs_graph(_NotedTriple)
    assert all(type(t) is _NotedTriple for t in g)
    assert _run(g, iri("ex:s"), iri("ex:p")) is one
    _assert_runs_answer_every_lookup(g, one, many)


def _list_graph(members):
    triples = []
    nodes = [BlankNode(f"l{i}") for i in range(len(members))]
    for i, member in enumerate(members):
        triples.append(Triple(nodes[i], Iri(RDF_FIRST), member))
        rest = nodes[i + 1] if i + 1 < len(members) else Iri(RDF_NIL)
        triples.append(Triple(nodes[i], Iri(RDF_REST), rest))
    return Graph(triples), (nodes[0] if nodes else Iri(RDF_NIL))


def test_walk_list_in_order():
    members = [iri("ex:a"), iri("ex:b"), iri("ex:c")]
    g, head = _list_graph(members)
    assert walk_rdf_list(g, head) == members


def test_walk_nil_is_empty():
    assert walk_rdf_list(Graph(), Iri(RDF_NIL)) == []


def test_walk_list_cycle_reports_prefix():
    members = [iri("ex:a"), iri("ex:b")]
    g, head = _list_graph(members)
    # bend the last rest back to the head
    bent = [t for t in g if t.object != Iri(RDF_NIL)]
    bent.append(Triple(BlankNode("l1"), Iri(RDF_REST), head))
    with pytest.raises(MalformedListError) as err:
        walk_rdf_list(Graph(bent), head)
    assert err.value.prefix == members


def test_walk_list_double_first_is_malformed():
    g, head = _list_graph([iri("ex:a")])
    extra = list(g) + [Triple(BlankNode("l0"), Iri(RDF_FIRST), iri("ex:z"))]
    with pytest.raises(MalformedListError):
        walk_rdf_list(Graph(extra), head)


def test_isomorphic_blank_relabeling():
    g1 = Graph([
        Triple(BlankNode("x"), iri("ex:p"), BlankNode("y")),
        Triple(BlankNode("y"), iri("ex:p"), iri("ex:end")),
    ])
    g2 = Graph([
        Triple(BlankNode("b7"), iri("ex:p"), BlankNode("b3")),
        Triple(BlankNode("b3"), iri("ex:p"), iri("ex:end")),
    ])
    assert isomorphic(g1, g2)


def test_isomorphic_detects_difference():
    g1 = Graph([Triple(BlankNode("x"), iri("ex:p"), lit("1"))])
    g2 = Graph([Triple(BlankNode("x"), iri("ex:p"), lit("2"))])
    assert not isomorphic(g1, g2)


def test_isomorphic_respects_structure_not_labels():
    # two blanks with distinct roles cannot be swapped
    g1 = Graph([
        Triple(BlankNode("a"), iri("ex:p"), lit("1")),
        Triple(BlankNode("b"), iri("ex:q"), lit("2")),
    ])
    g2 = Graph([
        Triple(BlankNode("a"), iri("ex:q"), lit("1")),
        Triple(BlankNode("b"), iri("ex:p"), lit("2")),
    ])
    assert not isomorphic(g1, g2)


def test_iris_returns_a_fresh_copy_each_call():
    g = graph(("ex:s", "ex:p", "ex:o"), ("ex:o", "ex:p", lit("x")))
    first = g.iris()
    assert first == [iri("ex:o"), iri("ex:p"), iri("ex:s")]
    first.clear()
    assert g.iris() == [iri("ex:o"), iri("ex:p"), iri("ex:s")]


def test_membership_before_any_match():
    g = graph(("ex:s", "ex:p", "ex:o"))
    assert triple("ex:s", "ex:p", "ex:o") in g
    assert triple("ex:s", "ex:p", "ex:s") not in g


def test_membership_misses_at_every_index_level():
    g = graph(("ex:s", "ex:p", "ex:o"), ("ex:s", "ex:q", "ex:o"))
    assert triple("ex:absent", "ex:p", "ex:o") not in g
    assert triple("ex:s", "ex:absent", "ex:o") not in g
    assert triple("ex:s", "ex:p", "ex:absent") not in g
    assert triple("ex:s", "ex:q", "ex:o") in g
    # a miss leaves nothing behind for a later lookup to find
    assert g.match(iri("ex:absent"), iri("ex:p")) == []
    assert g.match(iri("ex:s"), iri("ex:absent")) == []
    assert g.objects(iri("ex:absent"), iri("ex:p")) == []
    assert g.subjects(iri("ex:absent"), iri("ex:o")) == []
    assert g.subjects(iri("ex:p"), iri("ex:absent")) == []
    assert triple("ex:absent", "ex:p", "ex:o") not in g
    assert list(g._by_po) == [iri("ex:p")]


def test_only_object_lookups_fill_the_po_index():
    g, one, many = _runs_graph()
    s, p, q = iri("ex:s"), iri("ex:p"), iri("ex:q")
    # every lookup that binds no (predicate, object) pair
    g.match(s), g.match(s, p), g.match(s, q, lit("b")), g.match(None, p), g.match(o=lit("b"))
    g.objects(s, q), one in g, g.iris(), g.literals()
    assert g._by_po == {}
    assert g.subjects(iri("ex:absent"), lit("b")) == [] and g._by_po == {}
    assert g.subjects(q, lit("b")) == [s]
    assert list(g._by_po) == [q] and g._by_po[q] == {lit(x): [t] for x, t in zip("abc", many)}
    assert g.match(None, p, iri("ex:o")) == [one] and list(g._by_po) == [q, p]


def test_match_on_object_alone_equals_brute_force_filter():
    en, upper = lit("x", lang="en"), lit("x", lang="EN")
    g = graph(
        ("ex:b", "ex:p", en), ("ex:a", "ex:q", upper), ("ex:a", "ex:p", "ex:o"),
        ("ex:c", "ex:p", lit("x")), (BlankNode("n"), "ex:p", en),
    )
    for o in (en, upper, lit("x"), iri("ex:o"), iri("ex:absent")):
        expected = [t for t in list(g) if t.object == o]
        assert g.match(o=o) == expected
    assert [t.subject for t in g.match(o=upper)] == [iri("ex:a"), iri("ex:b"), BlankNode("n")]


def test_objects_and_subjects_return_fresh_lists():
    g = graph(("ex:s", "ex:p", "ex:o"))
    g.objects(iri("ex:s"), iri("ex:p")).append(None)
    g.subjects(iri("ex:p"), iri("ex:o")).clear()
    assert g.objects(iri("ex:s"), iri("ex:p")) == [iri("ex:o")]
    assert g.subjects(iri("ex:p"), iri("ex:o")) == [iri("ex:s")]


def _blank_chain(labels):
    # each blank holds its position as a literal and points at the next
    triples = []
    for i, label in enumerate(labels):
        triples.append(Triple(BlankNode(label), iri("ex:value"), lit(str(i))))
        if i + 1 < len(labels):
            triples.append(Triple(BlankNode(label), iri("ex:next"), BlankNode(labels[i + 1])))
    return triples


def test_isomorphic_relabelled_graph_with_hundreds_of_blanks(monkeypatch):
    labels = [f"c{i}" for i in range(400)]
    relabelled = [f"r{i}" for i in range(400)]
    random.Random(5).shuffle(relabelled)
    a = Graph(_blank_chain(labels))
    b = Graph(_blank_chain(relabelled))
    changed = _blank_chain(relabelled)
    changed[-1] = Triple(changed[-1].subject, iri("ex:value"), lit("last"))
    # refinement reads each blank's edges from one pass over the graph, not
    # through one lookup per blank per round
    monkeypatch.setattr(Graph, "match", lambda *args, **kwargs: pytest.fail("match called"))
    assert isomorphic(a, b)
    assert not isomorphic(a, Graph(changed))
