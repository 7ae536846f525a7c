"""SKOS graph-structural, consistency-clash, and labeling checks.

These mirror the qSKOS quality issue catalog: structural issues over the
broader/narrower hierarchy, the S13/S27/S46 consistency conditions, and
labeling/documentation coverage. Each mode of the three constraint types
is its own ``check_*`` function, which the registry's tables pick by the
``mode`` parameter. As in qSKOS, the orphan, disconnected, unidirectional,
undocumented, missing-label, overlapping and ambiguous-notation modes read
the statements of their relations once instead of probing the graph
concept by concept. The solely-transitive and unidirectional modes read
the context's ``lacking`` statements; the valueless-associative mode and
the relation and mapping clashes read its ``unordered_pairs``.
"""

from __future__ import annotations

from ..catalog import Severity
from ..namespaces import DC11, DCTERMS, RDFS_LABEL, SKOS, compact
from ..terms import Literal, Term, term_sort_key
from ..violations import Finding, finding
from .context import GraphContext, scoped_literals
from .graphalg import strongly_connected_components, weakly_connected_components
from .models import HierarchyGraph

SEMANTIC_RELATIONS = tuple(
    SKOS + local
    for local in (
        "semanticRelation",
        "broader",
        "narrower",
        "related",
        "broaderTransitive",
        "narrowerTransitive",
        "mappingRelation",
        "broadMatch",
        "narrowMatch",
        "relatedMatch",
        "exactMatch",
        "closeMatch",
    )
)

MAPPING_RELATIONS = tuple(
    SKOS + local
    for local in ("broadMatch", "narrowMatch", "relatedMatch", "exactMatch", "closeMatch")
)

#: Reciprocal assertions expected in the data (no owl:inverseOf reasoning).
INVERSE_TABLE = {
    SKOS + "broader": SKOS + "narrower",
    SKOS + "narrower": SKOS + "broader",
    SKOS + "hasTopConcept": SKOS + "topConceptOf",
    SKOS + "topConceptOf": SKOS + "hasTopConcept",
    SKOS + "related": SKOS + "related",
}

#: SKOS S46 mapping-clash table: skos:exactMatch may not be combined with
#: any of these on the same concept pair (derived from the SKOS reference,
#: where the condition is stated informally).
EXACT_MATCH_CLASHES = (SKOS + "broadMatch", SKOS + "narrowMatch", SKOS + "relatedMatch")

DOCUMENTATION_PROPERTIES = tuple(
    SKOS + local
    for local in (
        "note",
        "changeNote",
        "definition",
        "editorialNote",
        "example",
        "historyNote",
        "scopeNote",
    )
)

LABEL_PROPERTIES = (
    SKOS + "prefLabel",
    SKOS + "altLabel",
    RDFS_LABEL,
    DC11 + "title",
    DCTERMS + "title",
)

DEFAULT_REDUNDANCY_DEPTH = 50


def _concepts(ctx: GraphContext) -> list[Term]:
    return ctx.extension(SKOS + "Concept")


def _semantic_edges(ctx: GraphContext) -> list[tuple[Term, Term]]:
    """(s, o) for every semantic-relation statement between two distinct
    resources."""
    return [
        (t.subject, t.object)
        for prop in SEMANTIC_RELATIONS
        for t in ctx.statements(prop)
        if not isinstance(t.object, Literal) and t.subject != t.object
    ]


# Each structure check takes the type's optional ``depth_limit``; only
# hierarchical-redundancy reads it.

# the parents of a node that is no hierarchy edge's child
_NO_PARENTS: frozenset[Term] = frozenset()


def check_orphan(ctx, *, depth_limit=None) -> list[Finding]:
    linked = {node for edge in _semantic_edges(ctx) for node in edge}
    return [
        finding(
            node, "orphan",
            "concept has no hierarchical or associative relation to any "
            "other resource",
        )
        for node in _concepts(ctx)
        if node not in linked
    ]


def check_disconnected(ctx, *, depth_limit=None) -> list[Finding]:
    edges = _semantic_edges(ctx)
    linked = {node for edge in edges for node in edge}
    nodes = [c for c in _concepts(ctx) if c in linked]
    components = weakly_connected_components(nodes, edges)
    if len(components) <= 1:
        return []
    # all components except the largest are "islands"
    ranked = sorted(components, key=lambda c: (-len(c), [str(n) for n in c]))
    out = []
    for island in ranked[1:]:
        members = ", ".join(str(n) for n in island)
        out.append(
            finding(
                island[0], f"component:{len(island)}",
                f"disconnected concept cluster of size {len(island)}: {members}",
            )
        )
    return out


def check_cycles(ctx, hierarchy, *, depth_limit=None) -> list[Finding]:
    succ = hierarchy.successor_map
    components = strongly_connected_components(hierarchy.nodes, lambda n: succ.get(n, []))
    out = []
    for component in components:
        is_cycle = len(component) > 1 or component[0] in succ.get(component[0], [])
        if not is_cycle:
            continue
        members = ", ".join(str(n) for n in component)
        out.append(
            finding(
                component[0], f"cycle:{len(component)}",
                f"cyclic hierarchical relation through {len(component)} "
                f"concept(s): {members}",
            )
        )
    return out


def check_valueless_associative(ctx, hierarchy, *, depth_limit=None) -> list[Finding]:
    """Each skos:related pair of distinct siblings, smaller first in term
    order. It walks the related statements, not every pair of siblings, so
    a wide, flat hierarchy costs time in its related links alone."""
    parents: dict[Term, set[Term]] = {}
    for child, parent in hierarchy.edges:
        parents.setdefault(child, set()).add(parent)
    return [
        finding(
            a, str(b),
            f"sibling concepts {a} and {b} are also connected "
            "by skos:related; the associative relation adds no "
            "value",
        )
        for a, b in ctx.unordered_pairs(SKOS + "related")
        if not parents.get(a, _NO_PARENTS).isdisjoint(parents.get(b, _NO_PARENTS))
    ]


def check_solely_transitive(ctx, *, depth_limit=None) -> list[Finding]:
    return [
        finding(
            triple.subject, f"{compact(trans)}|{triple.object}",
            f"{compact(trans)} is not meant for assertions; "
            f"{triple.subject} and {triple.object} are related by "
            "it alone", (trans,),
        )
        for trans, direct in (
            (SKOS + "broaderTransitive", SKOS + "broader"),
            (SKOS + "narrowerTransitive", SKOS + "narrower"),
        )
        for triple in ctx.lacking(trans, direct)
        if not isinstance(triple.object, Literal)
    ]


def check_unidirectional(ctx, *, depth_limit=None) -> list[Finding]:
    out = []
    for prop, inverse in INVERSE_TABLE.items():
        shown, shown_inverse = compact(prop), compact(inverse)
        path = (prop,)  # one check path for all of this property's findings
        for triple in ctx.lacking(prop, inverse, inverse=True):
            s, o = triple.subject, triple.object
            out.append(
                finding(
                    s, f"{shown}|{o}",
                    f"({s} {shown} {o}) lacks the reciprocal {shown_inverse} statement",
                    path,
                )
            )
    return out


def check_omitted_top_concepts(ctx, *, depth_limit=None) -> list[Finding]:
    out = []
    for scheme in ctx.extension(SKOS + "ConceptScheme"):
        has_top = bool(ctx.objects(scheme, SKOS + "hasTopConcept")) or bool(
            ctx.subjects(SKOS + "topConceptOf", scheme)
        )
        if not has_top:
            out.append(
                finding(
                    scheme, "no-top-concept",
                    "concept scheme declares no top concept as an entry point",
                )
            )
    return out


def check_top_with_broader(ctx, *, depth_limit=None) -> list[Finding]:
    tops: set[Term] = set()
    for triple in ctx.statements(SKOS + "hasTopConcept"):
        if not isinstance(triple.object, Literal):
            tops.add(triple.object)
    tops.update(t.subject for t in ctx.statements(SKOS + "topConceptOf"))
    out = []
    for top in tops:
        broader = [o for o in ctx.objects(top, SKOS + "broader") if not isinstance(o, Literal)]
        for parent in broader:
            out.append(
                finding(
                    top, str(parent),
                    f"top concept has a broader concept {parent}; concepts "
                    "internal to the tree should not be top concepts",
                )
            )
    return out


def check_hierarchical_redundancy(
    ctx, hierarchy, *, depth_limit=DEFAULT_REDUNDANCY_DEPTH
) -> list[Finding]:
    succ = hierarchy.successor_map
    out = []
    for a, b in hierarchy.edges:
        verdict = _alt_path_exists(succ, a, b, depth_limit)
        if verdict is True:
            out.append(
                finding(
                    a, str(b),
                    f"direct hierarchical link {a} -> {b} is redundant with a "
                    "longer hierarchical path",
                )
            )
        elif verdict is None:
            out.append(
                Finding(
                    str(a), f"depth-limit|{b}",
                    f"redundancy search for {a} -> {b} hit the depth limit "
                    f"({depth_limit}); result indeterminate",
                    severity=Severity.INFO,
                )
            )
    return out


def _alt_path_exists(
    succ: dict[Term, list[Term]], start: Term, goal: Term, depth_limit: int
) -> bool | None:
    """Path of length >= 2 from start to goal, skipping the direct edge as
    first hop. Breadth first, level by level, so each node is reached first
    by a shortest path; None when no path was found and the search stopped
    at nodes ``depth_limit`` edges away."""
    visited = {start}
    level = [start]
    for depth in range(1, depth_limit + 1):
        if not level:
            break
        reached = []
        for node in level:
            for child in succ.get(node, []):
                if child == goal:
                    if depth > 1:  # else the direct edge itself
                        return True
                elif child not in visited:
                    visited.add(child)
                    reached.append(child)
        level = reached
    return None if level else False


def check_reflexive(ctx, *, depth_limit=None) -> list[Finding]:
    out = []
    for prop in SEMANTIC_RELATIONS:
        for triple in ctx.statements(prop):
            if triple.subject == triple.object:
                out.append(
                    finding(
                        triple.subject, compact(prop),
                        f"concept is related to itself via {compact(prop)}", (prop,),
                    )
                )
    return out


# --------------------------------------------------------------------------
# clashes


def _reachable(succ: dict[Term, list[Term]], start: Term) -> set[Term]:
    seen: set[Term] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for child in succ.get(node, []):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def check_relation_clash(ctx, hierarchy: HierarchyGraph) -> list[Finding]:
    succ = hierarchy.successor_map
    reach_cache: dict[Term, set[Term]] = {}
    out = []
    for a, b in ctx.unordered_pairs(SKOS + "related"):
        for src, dst in ((a, b), (b, a)):
            if src not in reach_cache:
                reach_cache[src] = _reachable(succ, src)
            if dst in reach_cache[src]:
                out.append(
                    finding(
                        a, str(b),
                        f"concepts {a} and {b} are associatively "
                        "related and also hierarchically connected (SKOS S27)",
                    )
                )
                break
    return out


def _pair_props(ctx, props) -> dict[tuple[Term, Term], set[str]]:
    pairs: dict[tuple[Term, Term], set[str]] = {}
    for prop in props:
        for pair in ctx.unordered_pairs(prop):
            pairs.setdefault(pair, set()).add(prop)
    return pairs


def check_mapping_clash(ctx) -> list[Finding]:
    pairs = _pair_props(ctx, MAPPING_RELATIONS)
    out = []
    for (a, b), props in pairs.items():
        if SKOS + "exactMatch" not in props:
            continue
        for prop in props.intersection(EXACT_MATCH_CLASHES):
            out.append(
                finding(
                    a, f"{compact(prop)}|{b}",
                    f"concepts {a} and {b} carry skos:exactMatch together with "
                    f"the clashing {compact(prop)} (SKOS S46)", (prop,),
                )
            )
    return out


def check_mapping_misuse(ctx) -> list[Finding]:
    out = []
    seen: set[tuple[Term, Term]] = set()
    for prop in MAPPING_RELATIONS:
        for triple in ctx.statements(prop):
            a, b = triple.subject, triple.object
            if isinstance(b, Literal):
                continue
            key = tuple(sorted((a, b), key=term_sort_key))
            if key in seen:
                continue
            schemes_a = set(ctx.objects(a, SKOS + "inScheme"))
            schemes_b = set(ctx.objects(b, SKOS + "inScheme"))
            if (schemes_a & schemes_b) or (not schemes_a and not schemes_b):
                seen.add(key)  # type: ignore[arg-type]
                reason = (
                    "share a concept scheme"
                    if schemes_a & schemes_b
                    else "are members of no concept scheme"
                )
                out.append(
                    finding(
                        key[0], str(key[1]),
                        f"mapping relation between {key[0]} and {key[1]} is "
                        f"misused: the concepts {reason}", (prop,),
                    )
                )
    return out


# --------------------------------------------------------------------------
# labeling and documentation


def _subjects_of(ctx: GraphContext, props) -> set[Term]:
    return {t.subject for prop in props for t in ctx.statements(prop)}


def check_undocumented(ctx) -> list[Finding]:
    documented = _subjects_of(ctx, DOCUMENTATION_PROPERTIES)
    return [
        finding(
            concept, "undocumented",
            "concept carries none of the seven SKOS documentation properties",
        )
        for concept in _concepts(ctx)
        if concept not in documented
    ]


def _schemes(ctx: GraphContext) -> dict[Term, list[str]]:
    """The text of each subject's skos:inScheme objects, from one scan; one
    text per scheme, shared by its members."""
    texts: dict[Term, str] = {}
    schemes: dict[Term, list[str]] = {}
    for t in ctx.statements(SKOS + "inScheme"):
        text = texts.get(t.object)
        if text is None:
            text = texts[t.object] = str(t.object)
        schemes.setdefault(t.subject, []).append(text)
    return schemes


def check_overlapping_labels(ctx) -> list[Finding]:
    schemes = _schemes(ctx)
    no_scheme = ["None"]  # the key of a concept in no scheme
    # the first concept of each key; a list only from a second one on
    first: dict[tuple[str, str, str], Term] = {}
    shared: dict[tuple[str, str, str], list[Term]] = {}
    for concept, lit in scoped_literals(ctx, SKOS + "prefLabel", SKOS + "Concept"):
        # the tag lowercased, as the literal keeps it for equality
        lang = lit._lang_key or ""
        for scheme in schemes.get(concept) or no_scheme:
            key = (scheme, lang, lit.lexical)
            seen = first.setdefault(key, concept)
            if seen != concept:
                shared.setdefault(key, [seen]).append(concept)
    out = []
    for (scheme, lang, text), members in shared.items():
        distinct = sorted(set(members), key=term_sort_key)
        if len(distinct) > 1:
            listing = ", ".join(str(m) for m in distinct)
            out.append(
                finding(
                    distinct[0], f"{text}@{lang}",
                    f"preferred label {text!r} ({lang or 'no language'}) is "
                    f"shared by {listing} in one concept scheme",
                )
            )
    return out


_LABELED_CLASSES = tuple(
    SKOS + local for local in ("Concept", "ConceptScheme", "Collection", "OrderedCollection")
)


def check_missing_labels(ctx) -> list[Finding]:
    labeled = _subjects_of(ctx, LABEL_PROPERTIES)
    # a node of several focus classes is reported once
    unlabeled = dict.fromkeys(
        node for cls in _LABELED_CLASSES for node in ctx.extension(cls) if node not in labeled
    )
    return [
        finding(
            node, "unlabeled", "SKOS resource has no human-readable label",
        )
        for node in unlabeled
    ]


def check_unprintable_labels(ctx) -> list[Finding]:
    out = []
    for prop in (SKOS + "prefLabel", SKOS + "altLabel", SKOS + "hiddenLabel"):
        for triple in ctx.statements(prop):
            lit = triple.object
            if not isinstance(lit, Literal):
                continue
            bad = sorted({ch for ch in lit.lexical if not (ch.isalnum() or ch == " ")})
            if bad:
                out.append(
                    finding(
                        triple.subject, f"{compact(prop)}|{lit}",
                        f"label {lit} contains non-alphanumeric, non-blank "
                        f"character(s): {''.join(bad)!r}", (prop,),
                    )
                )
    return out


def check_empty_labels(ctx) -> list[Finding]:
    out = []
    for prop in (SKOS + "prefLabel", SKOS + "altLabel", SKOS + "hiddenLabel"):
        for triple in ctx.statements(prop):
            lit = triple.object
            if not isinstance(lit, Literal):
                continue
            if "".join(lit.lexical.split()) == "":
                out.append(
                    finding(
                        triple.subject, f"{compact(prop)}|{lit}",
                        "label is empty after removing whitespace", (prop,),
                    )
                )
    return out


def check_ambiguous_notation(ctx) -> list[Finding]:
    schemes = _schemes(ctx)
    groups: dict[tuple, list[Term]] = {}
    for concept, lit in scoped_literals(ctx, SKOS + "notation", SKOS + "Concept"):
        for scheme in schemes.get(concept, ()):
            groups.setdefault((scheme, lit.lexical, lit.datatype), []).append(concept)
    out = []
    for (scheme, text, datatype), members in groups.items():
        if len(members) < 2:
            continue
        distinct = sorted(set(members), key=term_sort_key)
        if len(distinct) > 1:
            listing = ", ".join(str(m) for m in distinct)
            out.append(
                finding(
                    distinct[0], f"{text}|{scheme}",
                    f"notation {text!r} is shared by {listing} within one "
                    "concept scheme",
                )
            )
    return out
