"""Immutable, index-backed triple store.

The store keeps five lookup indexes (S, P, O, SP, PO). ``match`` answers any
(s?, p?, o?) pattern through the narrowest applicable index and always
returns triples in sorted order, so results are reproducible regardless of
insertion order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .namespaces import RDF_FIRST, RDF_NIL, RDF_REST
from .terms import BlankNode, Iri, Literal, Term, Triple


class MalformedListError(Exception):
    """An rdf:first/rdf:rest spine is broken or cyclic.

    Carries the members collected before the defect was hit.
    """

    def __init__(self, message: str, prefix: list[Term]):
        super().__init__(message)
        self.prefix = prefix


class Graph:
    """A set of triples, immutable after construction."""

    __slots__ = ("_triples", "_by_s", "_by_p", "_by_o", "_by_sp", "_by_po", "prefixes")

    def __init__(self, triples: Iterable[Triple] = (), prefixes: dict[str, str] | None = None):
        ordered = sorted(set(triples), key=Triple.sort_key)
        self._triples: tuple[Triple, ...] = tuple(ordered)
        self.prefixes: dict[str, str] = dict(prefixes or {})
        by_s: dict[Term, list[Triple]] = {}
        by_p: dict[Term, list[Triple]] = {}
        by_o: dict[Term, list[Triple]] = {}
        by_sp: dict[tuple[Term, Term], list[Triple]] = {}
        by_po: dict[tuple[Term, Term], list[Triple]] = {}
        for t in ordered:
            by_s.setdefault(t.subject, []).append(t)
            by_p.setdefault(t.predicate, []).append(t)
            by_o.setdefault(t.object, []).append(t)
            by_sp.setdefault((t.subject, t.predicate), []).append(t)
            by_po.setdefault((t.predicate, t.object), []).append(t)
        self._by_s = by_s
        self._by_p = by_p
        self._by_o = by_o
        self._by_sp = by_sp
        self._by_po = by_po

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._by_sp.get((triple.subject, triple.predicate), ())

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> list[Triple]:
        """Triples matching every bound position, in sorted order."""
        if s is not None and p is not None:
            candidates = self._by_sp.get((s, p), [])
        elif p is not None and o is not None:
            candidates = self._by_po.get((p, o), [])
        elif s is not None:
            candidates = self._by_s.get(s, [])
        elif p is not None:
            candidates = self._by_p.get(p, [])
        elif o is not None:
            candidates = self._by_o.get(o, [])
        else:
            return list(self._triples)
        return [
            t
            for t in candidates
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        ]

    def objects(self, s: Term, p: Term) -> list[Term]:
        return [t.object for t in self.match(s, p)]

    def subjects(self, p: Term, o: Term) -> list[Term]:
        return [t.subject for t in self.match(None, p, o)]

    def value(self, s: Term, p: Term) -> Term | None:
        """First object of (s, p, ?) in sorted order, or None."""
        found = self.match(s, p)
        return found[0].object if found else None

    def iris(self) -> list[Iri]:
        """Every distinct IRI appearing in subject, predicate, or object position."""
        seen: set[Iri] = set()
        for t in self._triples:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, Iri):
                    seen.add(term)
        return sorted(seen, key=lambda i: i.value)

    def literals(self) -> list[tuple[Triple, Literal]]:
        return [(t, t.object) for t in self._triples if isinstance(t.object, Literal)]

    def serialize_ntriples(self) -> str:
        """Canonical N-Triples: sorted, one triple per line, LF terminators."""
        return "".join(f"{t}\n" for t in self._triples)


def walk_rdf_list(graph: Graph, head: Term) -> list[Term]:
    """Members of the rdf:first/rdf:rest list starting at ``head``, in order.

    Raises MalformedListError on a node with zero or multiple rdf:first, a
    missing or ambiguous rdf:rest, or a cycle in the spine; the members
    collected up to the defect are attached to the exception.
    """
    members: list[Term] = []
    nil = Iri(RDF_NIL)
    first = Iri(RDF_FIRST)
    rest = Iri(RDF_REST)
    node = head
    visited: set[Term] = set()
    while node != nil:
        if node in visited:
            raise MalformedListError(f"list spine cycles back to {node}", members)
        visited.add(node)
        firsts = graph.objects(node, first)
        if len(firsts) != 1:
            raise MalformedListError(
                f"list node {node} has {len(firsts)} rdf:first values (expected 1)", members
            )
        members.append(firsts[0])
        rests = graph.objects(node, rest)
        if len(rests) != 1:
            raise MalformedListError(
                f"list node {node} has {len(rests)} rdf:rest values (expected 1)", members
            )
        node = rests[0]
        if isinstance(node, Literal):
            raise MalformedListError(f"rdf:rest points at literal {node}", members)
    return members


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
    colors: dict[BlankNode, tuple] = {n: () for n in _blank_nodes(g)}
    for _ in range(rounds):
        nxt: dict[BlankNode, tuple] = {}
        for n in colors:
            out_sig = sorted(
                (str(t.predicate), _term_color(t.object, colors)) for t in g.match(s=n)
            )
            in_sig = sorted(
                (str(t.predicate), _term_color(t.subject, colors)) for t in g.match(o=n)
            )
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
