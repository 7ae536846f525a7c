"""Graph equality up to blank-node relabeling, for comparing parsed graphs in tests."""

from __future__ import annotations

from collections import defaultdict

from rdfcheck.graph import Graph
from rdfcheck.terms import BlankNode, Term, Triple


def isomorphic(a: Graph, b: Graph) -> bool:
    """Graph equality up to blank-node relabeling.

    Iterative color refinement narrows candidate pairings, then a
    backtracking search settles any remaining ambiguous blanks. Intended for
    test-sized graphs (refinement is cheap; the search only touches
    symmetric blanks).
    """
    if len(a) != len(b):
        return False
    a_ground = {t for t in a if _grounded(t)}
    b_ground = {t for t in b if _grounded(t)}
    if a_ground != b_ground:
        return False
    a_blanks = _blank_nodes(a)
    b_blanks = _blank_nodes(b)
    if len(a_blanks) != len(b_blanks):
        return False
    if not a_blanks:
        return True
    a_colors = _refine(a)
    b_colors = _refine(b)
    if sorted(a_colors.values()) != sorted(b_colors.values()):
        return False
    candidates = {
        n: sorted(
            (m for m in b_blanks if b_colors[m] == a_colors[n]), key=lambda bn: bn.label
        )
        for n in a_blanks
    }
    order = sorted(a_blanks, key=lambda n: (len(candidates[n]), n.label))
    b_triples = set(b)

    def assign(i: int, mapping: dict[BlankNode, BlankNode], used: set[BlankNode]) -> bool:
        if i == len(order):
            return _apply_mapping(a, mapping) == b_triples
        node = order[i]
        for target in candidates[node]:
            if target in used:
                continue
            mapping[node] = target
            used.add(target)
            if assign(i + 1, mapping, used):
                return True
            del mapping[node]
            used.discard(target)
        return False

    return assign(0, {}, set())


def _grounded(t: Triple) -> bool:
    return not isinstance(t.subject, BlankNode) and not isinstance(t.object, BlankNode)


def _blank_nodes(g: Graph) -> set[BlankNode]:
    out: set[BlankNode] = set()
    for t in g:
        if isinstance(t.subject, BlankNode):
            out.add(t.subject)
        if isinstance(t.object, BlankNode):
            out.add(t.object)
    return out


def _refine(g: Graph, rounds: int = 4) -> dict[BlankNode, tuple]:
    # each blank's edges, read in one pass, so that a round costs the
    # blanks' degrees and not a scan of the graph per blank
    out_edges: defaultdict[BlankNode, list[tuple[str, Term]]] = defaultdict(list)
    in_edges: defaultdict[BlankNode, list[tuple[str, Term]]] = defaultdict(list)
    for t in g:
        if isinstance(t.subject, BlankNode):
            out_edges[t.subject].append((str(t.predicate), t.object))
        if isinstance(t.object, BlankNode):
            in_edges[t.object].append((str(t.predicate), t.subject))
    colors: dict[BlankNode, tuple] = {n: () for n in out_edges.keys() | in_edges.keys()}
    for _ in range(rounds):
        nxt: dict[BlankNode, tuple] = {}
        for n in colors:
            out_sig = sorted((p, _term_color(o, colors)) for p, o in out_edges[n])
            in_sig = sorted((p, _term_color(s, colors)) for p, s in in_edges[n])
            nxt[n] = (tuple(out_sig), tuple(in_sig))
        if nxt == colors:
            break
        colors = nxt
    return colors


def _term_color(term: Term, colors: dict[BlankNode, tuple]) -> str:
    if isinstance(term, BlankNode):
        return f"blank:{hash(colors[term]) & 0xFFFF:04x}"
    return str(term)


def _apply_mapping(g: Graph, mapping: dict[BlankNode, BlankNode]) -> set[Triple]:
    def sub(term: Term) -> Term:
        if isinstance(term, BlankNode):
            return mapping[term]
        return term

    return {Triple(sub(t.subject), t.predicate, sub(t.object)) for t in g}
