"""Shared evaluation context: graph plus catalog-declared hierarchy closure.

Type membership is closed-world: a node is an instance of a class iff an
rdf:type triple says so, directly or through the inventory's subclass
edges. No domain/range inference happens here, since inferring types would mask
the very modeling errors the checkers look for.

Beside the plain lookups, three serve the shapes that many constraints
share. ``lacking`` gives the statements with no counterpart statement: the
sub-, equivalent and inverse property checkers and the SKOS
solely-transitive and unidirectional modes use it. ``unordered_pairs``
gives each pair of resources a property relates, once: the asymmetric
property checker, the valueless-associative mode and the relation and
mapping clashes use it. ``scheme_members`` gives the members of a concept
scheme or code list, for both modes of ``vocab-membership``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import chain, groupby
from operator import attrgetter

from ..catalog import Catalog
from ..graph import Graph
from ..namespaces import RDF_TYPE, SKOS
from ..terms import _IRIS, Iri, Literal, Term, Triple, term_sort_key

_EMPTY_CATALOG = Catalog({}, {})

# RFC 3986 section 3.1: scheme = ALPHA *( ALPHA / DIGIT / "+" / "-" / "." ),
# ended by the first ":".
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*(?=:)")


# the type set of every untyped node
_NO_TYPES: frozenset[str] = frozenset()


class GraphContext:
    def __init__(self, graph: Graph, catalog: Catalog | None = None):
        self.graph = graph
        self.catalog = catalog if catalog is not None else _EMPTY_CATALOG
        self._types: dict[Term, frozenset[str]] | None = None
        self._groups: dict[frozenset[str], list[Term]] = {}
        self._extensions: dict[str, list[Term]] = {}

    def _type_map(self) -> dict[Term, frozenset[str]]:
        """Each typed node's closed class set. The rdf:type triples are
        sorted, so a node's types are one run; nodes with equal sets share
        one frozenset, since a graph holds far fewer distinct sets than
        typed nodes. ``_groups`` lists the nodes of each set in the order
        read, which is sorted."""
        if self._types is None:
            types: dict[Term, frozenset[str]] = {}
            typing = self.graph.match(None, Iri(RDF_TYPE), None)
            for node, run in groupby(typing, attrgetter("subject")):
                classes = [t.object.value for t in run if isinstance(t.object, Iri)]
                if classes:
                    closed = frozenset().union(*map(self.catalog.superclasses, classes))
                    group = self._groups.setdefault(closed, [])
                    if group:
                        closed = types[group[0]]
                    types[node] = closed
                    group.append(node)
            self._types = types
        return self._types

    def types_of(self, node: Term) -> frozenset[str]:
        types = self._types if self._types is not None else self._type_map()
        return types.get(node, _NO_TYPES)

    def has_type(self, node: Term, cls: str) -> bool:
        types = self._types if self._types is not None else self._type_map()
        return cls in types.get(node, _NO_TYPES)

    def extension(self, cls: str) -> list[Term]:
        """Instances of ``cls`` under closed-world typing, in sorted order:
        the nodes of each type set that holds ``cls``, sorted again only
        when more than one set does."""
        cached = self._extensions.get(cls)
        if cached is None:
            self._type_map()
            joined = [group for closed, group in self._groups.items() if cls in closed]
            if len(joined) == 1:
                cached = list(joined[0])
            else:
                cached = sorted(chain.from_iterable(joined), key=term_sort_key)
            self._extensions[cls] = cached
        return cached

    def scheme(self, iri: Iri) -> str:
        """The lowercased URI scheme of ``iri``, or ``""`` if it has none.

        Only the scheme is read, so an IRI whose authority is not a valid
        URL authority (such as ``http://[x/a``) still has one."""
        m = _SCHEME.match(iri.value)
        return m.group().lower() if m else ""

    # The lookups below read the predicate from the intern table ``Iri()``
    # reads, which skips one Python call per probe.
    def statements(self, prop: str) -> list:
        return self.graph.match(None, _IRIS[prop], None)

    def objects(self, node: Term, prop: str) -> list[Term]:
        return self.graph.objects(node, _IRIS[prop])

    def subjects(self, prop: str, obj: Term) -> list[Term]:
        return self.graph.subjects(_IRIS[prop], obj)

    def literal_objects(self, node: Term, prop: str) -> list[Literal]:
        return [o for o in self.graph.objects(node, _IRIS[prop]) if isinstance(o, Literal)]

    def lacking(self, prop: str, counterpart: str, inverse: bool = False) -> list[Triple]:
        """The ``prop`` statements (s, prop, o) with no (s, counterpart, o)
        or, with ``inverse``, no (o, counterpart, s). An inverse leaves out
        the statements whose object is a literal, as no statement has a
        literal subject."""
        objects, other = self.graph.objects, _IRIS[counterpart]
        if inverse:
            return [
                t for t in self.statements(prop)
                if not isinstance(t.object, Literal) and t.subject not in objects(t.object, other)
            ]
        return [t for t in self.statements(prop) if t.object not in objects(t.subject, other)]

    def unordered_pairs(self, prop: str) -> list[tuple[Term, Term]]:
        """Each pair of distinct resources that ``prop`` relates, once, the
        smaller term first, in the order of their first statements."""
        pairs: dict[tuple[Term, Term], None] = {}
        for t in self.statements(prop):
            a, b = t.subject, t.object
            if isinstance(b, Literal) or a == b:
                continue
            if term_sort_key(b) < term_sort_key(a):
                a, b = b, a
            pairs[a, b] = None
        return list(pairs)

    def scheme_members(self, node: Term) -> set[Term]:
        """The members of a concept scheme or code list: what is
        skos:inScheme it, what it names by skos:member or
        skos:hasTopConcept, and, for an IRI, what the catalog's controlled
        vocabularies list under it."""
        members = set(self.subjects(SKOS + "inScheme", node))
        members.update(self.objects(node, SKOS + "member"))
        members.update(self.objects(node, SKOS + "hasTopConcept"))
        if isinstance(node, Iri):
            members.update(map(Iri, self.catalog.controlled_vocabularies.get(node.value, ())))
        return members

    def follow_path(self, node: Term, path: list[str]) -> list[Term]:
        """Walk a property path; ``^p`` steps go backward, ``@members``
        expands a code-list node (scheme members, collection members, or a
        memberList collection) into its member terms."""
        frontier: list[Term] = [node]
        for step in path:
            nxt: list[Term] = []
            for current in frontier:
                if step == "@members":
                    nxt.extend(collection_members(self, current))
                elif step.startswith("^"):
                    if not isinstance(current, Literal):
                        nxt.extend(self.subjects(step[1:], current))
                else:
                    nxt.extend(self.objects(current, step))
            seen: set[Term] = set()
            deduped: list[Term] = []
            for term in nxt:
                if term not in seen:
                    seen.add(term)
                    deduped.append(term)
            frontier = deduped
        return sorted(frontier, key=term_sort_key)


def scoped_literals(
    ctx: GraphContext, prop: str, scope: str | None
) -> Iterator[tuple[Term, Literal]]:
    """(subject, literal) of each ``prop`` statement with a literal object,
    from one scan; with a ``scope``, only those whose subject has that type.
    Yielded one at a time, so read them once."""
    for triple in ctx.statements(prop):
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        if isinstance(triple.object, Literal):
            yield triple.subject, triple.object


def collection_members(ctx: GraphContext, node: Term) -> list[Term]:
    """Members of a code-list-ish node, however it is organized.

    Tries, in order: skos:memberList (list walk, broken spines yield the
    sound prefix), skos:member, and inverse skos:inScheme.
    """
    from ..graph import MalformedListError, walk_rdf_list

    heads = ctx.objects(node, SKOS + "memberList")
    if heads:
        members: list[Term] = []
        for head in heads:
            try:
                members.extend(walk_rdf_list(ctx.graph, head))
            except MalformedListError as exc:
                members.extend(exc.prefix)
        return members
    members = ctx.objects(node, SKOS + "member")
    if members:
        return members
    return ctx.subjects(SKOS + "inScheme", node)
