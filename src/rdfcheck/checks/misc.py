"""Presence, conditional, ordering, aggregation, comparability, root,
redundancy, default-value, and datatype-validity checks."""

from __future__ import annotations

import builtins

from ..catalog import Severity
from ..graph import MalformedListError, walk_rdf_list
from ..namespaces import DCTERMS, SKOS, compact
from ..terms import Iri, Literal, Term, Triple, term_sort_key
from ..violations import MetricRecord, Violation, make_violation
from ..xsd import (
    InvalidLexicalError,
    UnknownDatatypeError,
    literal_value_or_none,
    parse_xsd_value,
)
from .context import GraphContext, collection_members
from .models import StatisticsModel


def check_presence(
    ctx: GraphContext,
    scope: str,
    *,
    properties: list[str] | None = None,
    path: list[str] | None = None,
    qualifier_class: str | None = None,
    cid: str = "presence",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """Per instance of ``scope``: at least one value of one listed property
    (or one path endpoint), optionally typed ``qualifier_class``."""
    out = []
    for node in ctx.extension(scope):
        found: list[Term] = []
        for prop in properties or []:
            found.extend(ctx.objects(node, prop))
        if path:
            found.extend(ctx.follow_path(node, path))
        if qualifier_class is not None:
            found = [v for v in found if ctx.has_type(v, qualifier_class)]
        if not found:
            if properties:
                names = " or ".join(compact(p) for p in properties)
            else:
                names = " / ".join(path or [])
            out.append(
                make_violation(
                    cid, severity, node, names,
                    f"instance of {compact(scope)} has no value for {names}",
                    tuple(properties or []),
                )
            )
    return out


def check_conditional_properties(
    ctx: GraphContext,
    scope: str,
    *,
    if_present: list[str] | None = None,
    if_absent: list[str] | None = None,
    require_all: list[str] | None = None,
    require_any: list[str] | None = None,
    via: str | None = None,
    cid: str = "conditional-properties",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """When every ``if_present`` property is present and every ``if_absent``
    property absent, the requirements fire: each ``require_all`` property
    must be present, and at least one of ``require_any``. With both
    requirement lists empty the antecedent itself is the violation. ``via``
    moves the requirement check to the objects of that property.
    """
    out = []
    for node in ctx.extension(scope):
        if any(not ctx.objects(node, p) for p in if_present or []):
            continue
        if any(ctx.objects(node, p) for p in if_absent or []):
            continue
        targets: list[Term] = [node]
        if via is not None:
            targets = [o for o in ctx.objects(node, via) if not isinstance(o, Literal)]
        for target in targets:
            missing = [p for p in require_all or [] if not ctx.objects(target, p)]
            for prop in missing:
                out.append(
                    make_violation(
                        cid, severity, target, compact(prop),
                        f"required property {compact(prop)} is missing",
                        (prop,),
                    )
                )
            if require_any:
                if not any(ctx.objects(target, p) for p in require_any):
                    names = " or ".join(compact(p) for p in require_any)
                    out.append(
                        make_violation(
                            cid, severity, target, "none-of-required",
                            f"at least one of {names} must be present", tuple(require_any),
                        )
                    )
            elif not require_all:
                absent = ", ".join(compact(p) for p in if_absent or [])
                out.append(
                    make_violation(
                        cid, severity, target, "condition-met",
                        f"none of the expected properties are present ({absent})",
                        tuple(if_absent or ()),
                    )
                )
    return sorted(out, key=Violation.sort_key)


def _ordered_collection_defects(
    ctx: GraphContext, collection: Term, member_type: str
) -> list[str]:
    """Empty list when the collection is a well-formed ordered collection of
    ``member_type`` instances; otherwise the reasons it is not."""
    if not ctx.has_type(collection, SKOS + "OrderedCollection"):
        return [f"{collection} is not a skos:OrderedCollection"]
    heads = ctx.objects(collection, SKOS + "memberList")
    if len(heads) != 1:
        return [f"{collection} has {len(heads)} skos:memberList values (expected 1)"]
    try:
        members = walk_rdf_list(ctx.graph, heads[0])
    except MalformedListError as exc:
        return [f"memberList of {collection} is malformed: {exc}"]
    defects = []
    for member in members:
        if not ctx.has_type(member, member_type):
            defects.append(
                f"member {member} of {collection} is not typed {compact(member_type)}"
            )
    return defects


def check_ordering(
    ctx: GraphContext,
    container: str,
    link: str,
    member_type: str,
    mode: str,
    *,
    cid: str = "ordering",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """linked-collection: containers holding members through ``link`` need
    an attached well-formed skos:OrderedCollection of those members.
    representation: a coded representation reached through ``link`` must
    itself be such a collection."""
    out = []
    for node in ctx.extension(container):
        if mode == "linked-collection":
            if not ctx.objects(node, link):
                continue
            candidates = [
                t.object
                for t in ctx.graph.match(s=node)
                if not isinstance(t.object, Literal)
                and ctx.has_type(t.object, SKOS + "OrderedCollection")
            ]
            if not candidates:
                out.append(
                    make_violation(
                        cid, severity, node, "no-ordered-collection",
                        f"members via {compact(link)} should be ordered, but no "
                        "skos:OrderedCollection is attached", (link,),
                    )
                )
                continue
            defect_lists = [
                _ordered_collection_defects(ctx, c, member_type) for c in candidates
            ]
            if not any(not d for d in defect_lists):
                for defects in defect_lists:
                    for defect in defects:
                        out.append(
                            make_violation(
                                cid, severity, node, defect[:80],
                                f"ordered collection is not well-formed: {defect}",
                                (link,),
                            )
                        )
        elif mode == "representation":
            for rep in ctx.objects(node, link):
                if isinstance(rep, Literal):
                    continue
                if ctx.has_type(rep, "http://www.w3.org/2000/01/rdf-schema#Datatype"):
                    continue
                if not collection_members(ctx, rep) and not ctx.has_type(
                    rep, SKOS + "OrderedCollection"
                ):
                    continue  # no codes to order
                for defect in _ordered_collection_defects(ctx, rep, member_type):
                    out.append(
                        make_violation(
                            cid, severity, node, defect[:80],
                            f"coded representation should be an ordered "
                            f"collection: {defect}", (link,),
                        )
                    )
        else:
            raise ValueError(f"unknown ordering mode {mode!r}")
    return sorted(out, key=Violation.sort_key)


def check_aggregation(
    ctx: GraphContext,
    stats: StatisticsModel | None,
    scope: str,
    *,
    path: list[str] | None = None,
    kind: str = "path-count",
    declared_property: str | None = None,
    expect: int | None = None,
    min: int | None = None,
    max: int | None = None,
    cid: str = "aggregation",
    severity: Severity = Severity.INFO,
) -> tuple[list[Violation], list[MetricRecord]]:
    """Counts per focus. With an expectation (expect/min/max) the count is
    validated; without one it is emitted as an informational metric."""
    violations: list[Violation] = []
    metrics: list[MetricRecord] = []
    has_expectation = expect is not None or min is not None or max is not None

    def verdict(node: Term, count: int, what: str) -> None:
        if not has_expectation:
            metrics.append(MetricRecord(cid, str(node), what, count))
            return
        if expect is not None and count != expect:
            violations.append(
                make_violation(
                    cid, severity, node, count,
                    f"{what} is {count}, expected exactly {expect}", (),
                )
            )
        if min is not None and count < min:
            violations.append(
                make_violation(
                    cid, severity, node, count,
                    f"{what} is {count}, expected at least {min}", (),
                )
            )
        if max is not None and count > max:
            violations.append(
                make_violation(
                    cid, severity, node, count,
                    f"{what} is {count}, expected at most {max}", (),
                )
            )

    if kind == "path-count":
        for node in ctx.extension(scope):
            count = len(ctx.follow_path(node, path or []))
            verdict(node, count, "count over " + "/".join(path or []))
    elif kind == "valid-frequency-sum":
        from .statistics import _total_frequency

        for var in (stats.variables if stats else []):
            total = _total_frequency(var, True)
            if total is None:
                continue
            verdict(var.node, int(total), "frequency sum over valid codes")
    elif kind == "collection-size-vs-declared":
        if declared_property is None:
            return violations, metrics
        for node in ctx.extension(scope):
            declared_lits = ctx.literal_objects(node, declared_property)
            declared: int | None = None
            for lit in declared_lits:
                parsed = literal_value_or_none(lit)
                if parsed is not None and parsed.kind == "integer":
                    declared = int(parsed.value)  # type: ignore[arg-type]
                    break
            collections = [
                t.object
                for t in ctx.graph.match(s=node)
                if not isinstance(t.object, Literal)
                and (
                    ctx.has_type(t.object, SKOS + "OrderedCollection")
                    or ctx.has_type(t.object, SKOS + "Collection")
                )
            ]
            if declared is None or not collections:
                continue
            actual = builtins.max(len(collection_members(ctx, c)) for c in collections)
            if actual != declared:
                violations.append(
                    make_violation(
                        cid, severity, node, f"{actual}|{declared}",
                        f"collection holds {actual} member(s) but "
                        f"{compact(declared_property)} declares {declared}", (),
                    )
                )
    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")
    return violations, metrics


def check_variable_comparability(
    ctx: GraphContext,
    stats: StatisticsModel | None,
    variables: list[str],
    mode: str,
    *,
    cid: str = "variable-comparability",
    severity: Severity = Severity.WARNING,
) -> list[Violation]:
    """Checks over a declared comparison group of variables."""
    by_node = (stats or StatisticsModel([])).by_node()
    nodes = [Iri(v) for v in variables]
    out: list[Violation] = []
    if mode == "presence":
        for node in nodes:
            if node not in by_node:
                out.append(
                    make_violation(
                        cid, severity, node, "absent",
                        "variable declared for comparison is not present in "
                        "the data", (),
                    )
                )
        return out
    present = [by_node[n] for n in nodes if n in by_node]
    if mode == "descriptions":
        for var in present:
            if not ctx.objects(var.node, DCTERMS + "description"):
                out.append(
                    make_violation(
                        cid, severity, var.node, "no-description",
                        "variable under comparison has no dcterms:description",
                        (),
                    )
                )
        return out
    if mode == "structure":
        for var in present:
            sound = bool(var.codes) and var.list_defect is None
            if not sound:
                reason = var.list_defect or "no code list"
                out.append(
                    make_violation(
                        cid, severity, var.node, reason[:80],
                        f"variable under comparison lacks a structurally sound "
                        f"code list: {reason}", (),
                    )
                )
        return out
    if mode == "labels":
        for var in present:
            for code in var.codes:
                if not ctx.objects(code, SKOS + "prefLabel"):
                    out.append(
                        make_violation(
                            cid, severity, code, "no-category-label",
                            f"code {code} of {var.node} has no category label "
                            "(skos:prefLabel)", (),
                        )
                    )
        return out
    if mode == "sizes":
        sizes = {var.node: len(var.codes) for var in present if var.codes}
        if len(set(sizes.values())) > 1:
            listing = ", ".join(f"{node}={size}" for node, size in sorted(
                sizes.items(), key=lambda kv: term_sort_key(kv[0])
            ))
            first = min(sizes, key=term_sort_key)
            out.append(
                make_violation(
                    cid, severity, first, "size-mismatch",
                    f"compared variables have code lists of different sizes: "
                    f"{listing}", (),
                )
            )
        return out
    raise ValueError(f"unknown variable-comparability mode {mode!r}")


def check_single_root(
    ctx: GraphContext,
    link_property: str,
    *,
    cid: str = "single-root",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Concept schemes reached through ``link_property`` values must have
    exactly one hierarchy root (a member concept with no broader link to
    another member)."""
    schemes: set[Term] = set()
    for triple in ctx.statements(link_property):
        if isinstance(triple.object, Literal):
            continue
        schemes.update(ctx.objects(triple.object, SKOS + "inScheme"))
    out = []
    for scheme in sorted(schemes, key=term_sort_key):
        members = set(ctx.subjects(SKOS + "inScheme", scheme))
        if not members:
            continue
        roots = sorted(
            (
                m
                for m in members
                if not any(o in members for o in ctx.objects(m, SKOS + "broader"))
            ),
            key=term_sort_key,
        )
        if len(roots) != 1:
            listing = ", ".join(str(r) for r in roots) or "(none)"
            out.append(
                make_violation(
                    cid, severity, scheme, f"roots:{len(roots)}",
                    f"concept hierarchy must have exactly one root but has "
                    f"{len(roots)}: {listing}", (),
                )
            )
    return out


def check_subsuper_redundancy(
    ctx: GraphContext,
    general: str,
    specifics: list[str],
    *,
    flag_redundant: bool = False,
    cid: str = "subsuper-redundancy",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """Subjects using only the general property get a suggestion to use a
    sub-property. With ``flag_redundant``, equal values under the general
    and a specific property are flagged as verbose data."""
    out = []
    subjects = sorted({t.subject for t in ctx.statements(general)}, key=term_sort_key)
    for subject in subjects:
        has_specific = any(ctx.objects(subject, p) for p in specifics)
        if not has_specific:
            names = " or ".join(compact(p) for p in specifics)
            out.append(
                make_violation(
                    cid, severity, subject, compact(general),
                    f"consider the more specific {names} instead of "
                    f"{compact(general)}", (general, *specifics),
                )
            )
        elif flag_redundant:
            general_values = set(ctx.objects(subject, general))
            for prop in specifics:
                for value in ctx.objects(subject, prop):
                    if value in general_values:
                        out.append(
                            make_violation(
                                cid, severity, subject, str(value),
                                f"value {value} is stated redundantly under "
                                f"{compact(general)} and {compact(prop)}", (general, prop),
                            )
                        )
    return out


def apply_default_values(
    ctx: GraphContext,
    defaults: list[dict],
    *,
    cid: str = "default-values",
    severity: Severity = Severity.INFO,
) -> tuple[list[Triple], list[Violation]]:
    """Triples that WOULD be added (scope instances lacking the property
    receive the default) plus one info note per application. The input
    graph is never mutated."""
    from .schema import _term_from_spec

    additions: list[Triple] = []
    violations: list[Violation] = []
    for row in defaults:
        scope, prop = row["scope"], row["property"]
        value = _term_from_spec(row["value"])
        for node in ctx.extension(scope):
            if ctx.objects(node, prop):
                continue
            additions.append(Triple(node, Iri(prop), value))
            violations.append(
                make_violation(
                    cid, severity, node, str(value),
                    f"missing {compact(prop)} would default to {value}", (prop,),
                )
            )
    return additions, violations


def check_default_values(
    ctx: GraphContext,
    defaults: list[dict],
    *,
    cid: str = "default-values",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """The info notes of ``apply_default_values``, without the additions."""
    return apply_default_values(ctx, defaults, cid=cid, severity=severity)[1]


def check_value_datatype(
    ctx: GraphContext,
    *,
    properties: list[str] | None = None,
    datatype: str | None = None,
    mode: str = "listed",
    cid: str = "value-datatype",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """listed: literals of the listed properties must be valid instances of
    the required datatype. all-literals: every literal in the graph with a
    supported datatype must have a valid lexical form (unknown datatypes
    are left alone)."""
    out = []
    if mode == "all-literals":
        for triple, lit in ctx.graph.literals():
            try:
                parse_xsd_value(lit.lexical, lit.datatype)
            except InvalidLexicalError as exc:
                out.append(
                    make_violation(
                        cid, severity, triple.subject, str(lit),
                        f"literal is not valid for its datatype: {exc}",
                        (triple.predicate.value,),
                    )
                )
            except UnknownDatatypeError:
                continue
        return sorted(out, key=Violation.sort_key)
    for prop in properties or []:
        for triple in ctx.statements(prop):
            lit = triple.object
            if not isinstance(lit, Literal):
                continue
            target = datatype or lit.datatype
            if lit.datatype != target:
                out.append(
                    make_violation(
                        cid, severity, triple.subject, str(lit),
                        f"value of {compact(prop)} has datatype "
                        f"{compact(lit.datatype)}, expected {compact(target)}",
                        (prop, target),
                    )
                )
                continue
            try:
                parse_xsd_value(lit.lexical, target)
            except InvalidLexicalError as exc:
                out.append(
                    make_violation(
                        cid, severity, triple.subject, str(lit),
                        f"value of {compact(prop)} is not a valid "
                        f"{compact(target)}: {exc}", (prop, target),
                    )
                )
            except UnknownDatatypeError:
                continue
    return sorted(out, key=Violation.sort_key)
