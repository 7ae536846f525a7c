"""Immutable, index-backed triple store.

The triples are kept as one tuple sorted by (subject, predicate, object),
each term ordered by ``term_sort_key``, and the indexes are nested, with no
tuple keys (see ``Graph``); the (predicate, object) index is filled one
predicate at a time, on first use, and the others with the graph.
``match`` answers any (s?, p?, o?) pattern through the narrowest applicable
index and always returns triples in sorted order, so results are
reproducible regardless of insertion order. A pattern that binds only the
object has no index and scans the triples.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter
from types import MappingProxyType

from .namespaces import RDF_FIRST, RDF_NIL, RDF_REST
from .terms import Iri, Literal, Term, Triple, term_sort_key


class MalformedListError(Exception):
    """An rdf:first/rdf:rest spine is broken or cyclic.

    Carries the members collected before the defect was hit.
    """

    def __init__(self, message: str, prefix: list[Term]):
        super().__init__(message)
        self.prefix = prefix


_iri_text = attrgetter("value")


def _object_key(t: Triple) -> tuple[int, str]:
    return term_sort_key(t.object)


# The inner mapping of a nested index on a miss; immutable, so no caller
# can fill it for every later miss.
_NO_RUNS: Mapping[Term, list[Triple]] = MappingProxyType({})

# The ``_by_s`` entry of a subject the graph does not hold: a layout of no
# predicates and no runs.
_NO_ENTRY: tuple = (MappingProxyType({}),)


class Graph:
    """A set of triples, immutable after construction.

    The constructor dedups and sorts the triples and builds the indexes, so
    a run builds one graph once, from all of its inputs, and each lookup
    only reads, but for ``_po``, which fills ``_by_po`` (below).

    The build reads its input once and groups it by subject, then by
    predicate, so it never sorts the triples as a whole. It sorts the
    subjects, then each subject's predicates, and only a (subject,
    predicate) pair holding more than one triple sorts its triples, by
    object. Nearly every pair holds one. Of equal triples the first one read
    is kept, as ``set()`` keeps it: equal literals may be spelled apart,
    such as ``"x"@en`` and ``"x"@EN``, and the spelling kept is the one a
    report shows. Each triple sorts by its own object's spelling. The
    indexes:

    - ``_by_s``: subject → ``(layout, run_1, …, run_k)``. A layout maps
      each of a subject's predicates to its run's slot, 1 to k in sorted
      order, and every subject with the same set of predicates shares one
      layout, as CPython's split-table dicts share their keys: a graph
      holds far fewer predicate sets than subjects, so a subject's entry
      is one tuple, not a dict of its own. A run is the bare triple when
      the pair holds one, else the pair's run of the sorted triples kept
      as a tuple. Readers tell the two apart by ``type(run) is tuple``, so
      a ``Triple`` subclass is read as a bare triple too. Subjects are in
      sorted order. ``match(s=x)`` reads ``x``'s runs one after another,
      so no index per subject alone is kept.
    - ``_by_p``: predicate → its triples, as a list in sorted order.
    - ``_by_po``: predicate → object → its triples, as lists in sorted
      order, filled by ``_po(p)`` from ``_by_p[p]`` when ``p`` is first
      looked up by object. Few predicates ever are.

    There is no object index: only ``match(o=...)`` with subject and
    predicate unbound would read it, no checker calls that, and it scans
    the triples instead.
    """

    __slots__ = ("_triples", "_by_s", "_by_p", "_by_po", "_iris")

    def __init__(self, triples: Iterable[Triple] = ()):
        # subject → predicate → its triples; a pair's entry stays the bare
        # triple until a second one arrives, so no list is made per pair
        grouped: dict[Term, dict[Term, Triple | list[Triple]]] = {}
        for t in triples:
            runs = grouped.get(t.subject)
            if runs is None:
                grouped[t.subject] = {t.predicate: t}
                continue
            run = runs.get(t.predicate)
            if run is None:
                runs[t.predicate] = t
            elif type(run) is list:
                run.append(t)
            else:
                runs[t.predicate] = [run, t]
        ordered: list[Triple] = []
        by_s: dict[Term, tuple] = {}
        by_p: dict[Term, list[Triple]] = {}
        # the one layout of each set of predicates, by its sorted tuple
        layouts: dict[tuple[Term, ...], dict[Term, int]] = {}
        for s in sorted(grouped, key=term_sort_key):
            runs = grouped.pop(s)
            # every predicate is an IRI, so its text alone orders them
            predicates = tuple(sorted(runs, key=_iri_text))
            layout = layouts.get(predicates)
            if layout is None:
                layout = layouts[predicates] = {p: i for i, p in enumerate(predicates, 1)}
            entry: list = [layout]
            for p in predicates:
                run = runs[p]
                if type(run) is list:
                    run = tuple(sorted(dict.fromkeys(run), key=_object_key))
                else:
                    run = (run,)
                # a pair holding one triple keeps it bare, not in a 1-tuple
                entry.append(run if len(run) > 1 else run[0])
                ordered += run
                by_p.setdefault(p, []).extend(run)
            by_s[s] = tuple(entry)
        self._triples: tuple[Triple, ...] = tuple(ordered)
        self._iris: list[Iri] | None = None
        self._by_s, self._by_p = by_s, by_p
        self._by_po: dict[Term, dict[Term, list[Triple]]] = {}

    def _po(self, p: Term) -> Mapping[Term, list[Triple]]:
        """``p``'s object → triples index, grouped from ``_by_p[p]`` on
        first use; an absent predicate gets ``_NO_RUNS`` and is not stored."""
        same_po = self._by_po.get(p)
        if same_po is None:
            run = self._by_p.get(p)
            if run is None:
                return _NO_RUNS
            self._by_po[p] = same_po = {}
            for t in run:
                same_po.setdefault(t.object, []).append(t)
        return same_po

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        entry = self._by_s.get(triple.subject, _NO_ENTRY)
        slot = entry[0].get(triple.predicate)
        if slot is None:
            return False
        run = entry[slot]
        return triple in run if type(run) is tuple else run == triple

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> list[Triple]:
        """Triples matching every bound position, in sorted order.

        Each index run is in sorted order and holds exactly the triples
        that share its key, so only a bound position outside the key is
        filtered. A pattern binding the subject but not the predicate reads
        the subject's runs in predicate order; one binding the object alone
        scans every triple."""
        if s is not None:
            entry = self._by_s.get(s, _NO_ENTRY)
            if p is not None:
                slot = entry[0].get(p)
                if slot is None:
                    return []
                run = entry[slot]
                if type(run) is not tuple:
                    return [run] if o is None or run.object == o else []
                found = list(run)
            else:
                found = []
                for run in entry[1:]:
                    if type(run) is tuple:
                        found += run
                    else:
                        found.append(run)
            return found if o is None else [t for t in found if t.object == o]
        if p is not None:
            if o is not None:
                return list(self._po(p).get(o, ()))
            return list(self._by_p.get(p, ()))
        if o is not None:
            return [t for t in self._triples if t.object == o]
        return list(self._triples)

    def objects(self, s: Term, p: Term) -> list[Term]:
        entry = self._by_s.get(s, _NO_ENTRY)
        slot = entry[0].get(p)
        if slot is None:
            return []
        run = entry[slot]
        if type(run) is tuple:
            return [t.object for t in run]
        return [run.object]

    def subjects(self, p: Term, o: Term) -> list[Term]:
        return [t.subject for t in self._po(p).get(o, ())]

    def iris(self) -> list[Iri]:
        """Every distinct IRI appearing in subject, predicate, or object
        position, sorted by text. Computed once: the subjects of ``_by_s``
        and the predicates of ``_by_p`` come from the index keys, the
        objects from one scan of the triples. Each call returns a new list."""
        if self._iris is None:
            seen: set[Iri] = {s for s in self._by_s if type(s) is Iri}
            seen.update(self._by_p)
            seen.update(t.object for t in self._triples if type(t.object) is Iri)
            self._iris = sorted(seen, key=_iri_text)
        return list(self._iris)

    def literals(self) -> list[tuple[Triple, Literal]]:
        return [(t, t.object) for t in self._triples if isinstance(t.object, Literal)]


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
