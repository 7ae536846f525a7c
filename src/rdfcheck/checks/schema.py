"""Class- and property-axiom checkers, evaluated over asserted triples.

Every checker is a pure function of (context, parameters): no state, no
mutation. Findings come back in any order and carry no constraint id or
severity; the engine stamps both on each and sorts them. The subproperty,
inverse-pair and equivalent-properties checkers read the context's
``lacking`` statements, the asymmetric one its ``unordered_pairs`` and
vocab-membership its ``scheme_members``.
"""

from __future__ import annotations

from ..namespaces import RDF_TYPE, compact
from ..terms import Iri, Literal, Term, term_sort_key
from ..violations import Finding, finding
from ..xsd import InvalidLexicalError, UnknownDatatypeError, parse_xsd_value
from .context import GraphContext


def check_subsumption(
    ctx: GraphContext,
    cls: str,
    superclass: str,
) -> list[Finding]:
    """Instances typed ``cls`` but not ``superclass`` (closed-world)."""
    return [
        finding(
            node,
            superclass,
            f"instance of {compact(cls)} is not also typed {compact(superclass)}",
            (cls, superclass),
        )
        for node in ctx.extension(cls)
        if not ctx.has_type(node, superclass)
    ]


def check_class_equivalence(
    ctx: GraphContext,
    class1: str,
    class2: str,
) -> list[Finding]:
    """Instances in exactly one of the two extensions."""
    out = check_subsumption(ctx, class1, class2)
    return out + check_subsumption(ctx, class2, class1)


def check_subproperty(
    ctx: GraphContext,
    prop: str,
    superproperty: str,
) -> list[Finding]:
    """(x, prop, y) without the entailed (x, superproperty, y)."""
    return [
        finding(
            triple.subject,
            triple.object,
            f"{compact(prop)} statement lacks the implied "
            f"{compact(superproperty)} statement for {triple.object}",
            (prop, superproperty),
        )
        for triple in ctx.lacking(prop, superproperty)
    ]


def check_domain(
    ctx: GraphContext,
    prop: str,
    allowed: list[str],
) -> list[Finding]:
    """Subjects of ``prop`` not typed by any allowed class."""
    out = []
    seen: set[Term] = set()
    for triple in ctx.statements(prop):
        subject = triple.subject
        if subject in seen:
            continue
        seen.add(subject)
        types = ctx.types_of(subject)
        if not any(cls in types for cls in allowed):
            names = " or ".join(compact(c) for c in allowed)
            out.append(
                finding(
                    subject,
                    prop,
                    f"subject of {compact(prop)} is not typed {names}",
                    (prop, *allowed),
                )
            )
    return out


def check_domain_table(
    ctx: GraphContext,
    domains: dict[str, list[str]],
) -> list[Finding]:
    """``check_domain`` for each property of a property -> classes table."""
    out: list[Finding] = []
    for prop, classes in domains.items():
        out.extend(check_domain(ctx, prop, classes))
    return out


def _object_matches_class(ctx: GraphContext, obj: Term, classes: list[str]) -> bool:
    types = ctx.types_of(obj)
    return any(cls in types for cls in classes)


def _literal_matches_datatype(lit: Literal, datatype: str) -> tuple[bool, str]:
    if lit.datatype != datatype:
        return False, f"datatype is {compact(lit.datatype)}, expected {compact(datatype)}"
    try:
        parse_xsd_value(lit.lexical, lit.datatype)
    except InvalidLexicalError as exc:
        return False, f"invalid lexical form: {exc}"
    except UnknownDatatypeError:
        pass  # unknown datatypes carry no value-space check at this point
    return True, ""


def check_range(
    ctx: GraphContext,
    prop: str,
    *,
    classes: list[str] | None = None,
    datatype: str | None = None,
    scope: str | None = None,
) -> list[Finding]:
    """Objects of ``prop`` must be typed by an allowed class or carry the
    allowed datatype (and a valid lexical form).

    With ``scope`` set, only subjects typed ``scope`` get the object check,
    and any subject NOT typed ``scope`` that uses ``prop`` is itself a
    violation (the class-specific form).
    """
    out = []
    for triple in ctx.statements(prop):
        subject, obj = triple.subject, triple.object
        if scope is not None and not ctx.has_type(subject, scope):
            out.append(
                finding(
                    subject,
                    prop,
                    f"only instances of {compact(scope)} may use {compact(prop)}",
                    (prop, scope),
                )
            )
            continue
        if isinstance(obj, Literal):
            if datatype is None:
                if classes is not None:
                    out.append(
                        finding(
                            subject,
                            obj,
                            f"value of {compact(prop)} is a literal but must be an "
                            "object resource",
                            (prop,),
                        )
                    )
                continue
            ok, reason = _literal_matches_datatype(obj, datatype)
            if not ok:
                out.append(
                    finding(
                        subject, obj,
                        f"value of {compact(prop)}: {reason}", (prop, datatype)
                    )
                )
        else:
            if classes is None:
                if datatype is not None:
                    out.append(
                        finding(
                            subject,
                            obj,
                            f"value of {compact(prop)} must be a literal of "
                            f"{compact(datatype)}",
                            (prop, datatype),
                        )
                    )
                continue
            if not _object_matches_class(ctx, obj, classes):
                names = " or ".join(compact(c) for c in classes)
                out.append(
                    finding(
                        subject,
                        obj,
                        f"value of {compact(prop)} is not typed {names}",
                        (prop, *classes),
                    )
                )
    return out


def check_range_table(
    ctx: GraphContext,
    ranges: dict[str, dict],
) -> list[Finding]:
    """``check_range`` for each property of a property -> range spec table."""
    out: list[Finding] = []
    for prop, spec in ranges.items():
        out.extend(check_range(ctx, prop, **spec))
    return out


def check_inverse_pair(
    ctx: GraphContext,
    prop: str,
    inverse: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    """Each (x, prop, y) needs (y, inverse, x) and vice versa.

    ``scope`` restricts the check to pairs whose prop-subject (equivalently
    inverse-object) is typed by the class; needed where a property serves
    several domains and only one leg carries the inverse contract.
    """
    out = []
    # each leg, and which end of its statements is the prop-subject
    for p, q, scoped in ((prop, inverse, "subject"), (inverse, prop, "object")):
        for triple in ctx.lacking(p, q, inverse=True):
            s, o = triple.subject, triple.object
            if scope is not None and not ctx.has_type(getattr(triple, scoped), scope):
                continue
            out.append(
                finding(
                    s,
                    o,
                    f"({s} {compact(p)} {o}) lacks the inverse ({o} {compact(q)} {s})",
                    (prop, inverse),
                )
            )
    return out


def check_asymmetric(
    ctx: GraphContext,
    prop: str,
) -> list[Finding]:
    """Unordered pairs {x, y}, x != y, connected in both directions."""
    return [
        finding(
            a,
            b,
            f"{compact(prop)} is asymmetric but connects {a} and {b} "
            "in both directions",
            (prop,),
        )
        for a, b in ctx.unordered_pairs(prop)
        if b in ctx.objects(a, prop) and a in ctx.objects(b, prop)
    ]


def check_irreflexive(
    ctx: GraphContext,
    prop: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    out = []
    for triple in ctx.statements(prop):
        if triple.subject != triple.object:
            continue
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        out.append(
            finding(
                triple.subject,
                prop,
                f"{triple.subject} is related to itself via {compact(prop)}",
                (prop,),
            )
        )
    return out


def check_irreflexive_table(
    ctx: GraphContext,
    vocabulary: str,
) -> list[Finding]:
    """``check_irreflexive`` for every property the vocabulary declares."""
    out: list[Finding] = []
    for prop in ctx.catalog.inventory(vocabulary).properties:
        out.extend(check_irreflexive(ctx, prop))
    return out


def check_disjoint_properties(
    ctx: GraphContext,
    properties: list[str] | None = None,
    *,
    vocabulary: str | None = None,
    exempt_pairs: list[tuple[str, str]] | None = None,
) -> list[Finding]:
    """(x, y) pairs connected by two or more group properties.

    Pairs related by sub-property edges are never disjoint, and explicitly
    exempted pairs (same declared domain and range) are skipped. Without
    ``properties`` the group is every property ``vocabulary`` declares.
    """
    if properties is None:
        properties = ctx.catalog.inventory(vocabulary).properties
    exempt = {frozenset(p) for p in (exempt_pairs or [])}
    # the first property of each (x, y); a list only from a second one on
    first: dict[tuple[Term, Term], str] = {}
    shared: dict[tuple[Term, Term], list[str]] = {}
    for prop in properties:
        for triple in ctx.statements(prop):
            pair = (triple.subject, triple.object)
            seen = first.setdefault(pair, prop)
            if seen != prop:
                shared.setdefault(pair, [seen]).append(prop)
    out = []
    for (x, y), props in shared.items():
        props = sorted(set(props))
        for i, p in enumerate(props):
            for q in props[i + 1 :]:
                if frozenset((p, q)) in exempt:
                    continue
                if ctx.catalog.subproperty_related(p, q):
                    continue
                out.append(
                    finding(
                        x,
                        f"{compact(p)}|{compact(q)}|{y}",
                        f"{x} is connected to {y} by the disjoint properties "
                        f"{compact(p)} and {compact(q)}",
                        (p, q),
                    )
                )
    return out


def check_disjoint_classes(
    ctx: GraphContext,
    classes: list[str] | None = None,
    *,
    vocabulary: str | None = None,
    exempt_pairs: list[tuple[str, str]] | None = None,
) -> list[Finding]:
    """Individuals typed by two or more group classes (subclass-related
    pairs are never disjoint). Without ``classes`` the group is every class
    ``vocabulary`` declares."""
    if classes is None:
        classes = ctx.catalog.inventory(vocabulary).classes
    exempt = {frozenset(p) for p in (exempt_pairs or [])}
    out = []
    group = set(classes)
    seen: set[Term] = set()
    for cls in group:
        for node in ctx.extension(cls):
            if node in seen:
                continue
            seen.add(node)
            mine = sorted(ctx.types_of(node) & group)
            for i, a in enumerate(mine):
                for b in mine[i + 1 :]:
                    if frozenset((a, b)) in exempt:
                        continue
                    if ctx.catalog.subclass_related(a, b):
                        continue
                    out.append(
                        finding(
                            node,
                            f"{compact(a)}|{compact(b)}",
                            f"{node} is an instance of the disjoint classes "
                            f"{compact(a)} and {compact(b)}",
                            (a, b),
                        )
                    )
    return out


def check_cardinality(
    ctx: GraphContext,
    prop: str,
    scope: str,
    *,
    min: int | None = None,
    max: int | None = None,
    qualifier_class: str | None = None,
    qualifier_datatype: str | None = None,
) -> list[Finding]:
    """Distinct-value counts of ``prop`` per instance of ``scope``."""
    out = []
    for node in ctx.extension(scope):
        values = set(ctx.objects(node, prop))
        if qualifier_class is not None:
            values = {
                v for v in values
                if not isinstance(v, Literal) and ctx.has_type(v, qualifier_class)
            }
        if qualifier_datatype is not None:
            values = {
                v for v in values
                if isinstance(v, Literal) and v.datatype == qualifier_datatype
            }
        count = len(values)
        if min is not None and count < min:
            out.append(
                finding(
                    node,
                    count,
                    f"{compact(prop)} occurs {count} time(s), at least "
                    f"{min} required",
                    (prop, scope),
                )
            )
        if max is not None and count > max:
            out.append(
                finding(
                    node,
                    count,
                    f"{compact(prop)} occurs {count} time(s), at most "
                    f"{max} allowed",
                    (prop, scope),
                )
            )
    return out


def check_cardinality_table(
    ctx: GraphContext,
    rules: list[dict],
) -> list[Finding]:
    """``check_cardinality`` for each rule (property, scope, bounds)."""
    out: list[Finding] = []
    for rule in rules:
        bounds = {k: v for k, v in rule.items() if k not in ("property", "scope")}
        out.extend(check_cardinality(
            ctx, rule["property"], rule["scope"], **bounds
        ))
    return out


def check_exclusive_property_groups(
    ctx: GraphContext,
    scope: str,
    groups: list[list[str]],
) -> list[Finding]:
    """A group matches when all its properties are present; exactly one
    group must match per instance."""
    out = []
    for node in ctx.extension(scope):
        matched = [
            i
            for i, group in enumerate(groups)
            if group and all(ctx.objects(node, p) for p in group)
        ]
        if len(matched) != 1:
            names = [
                "{" + ", ".join(compact(p) for p in groups[i]) + "}" for i in matched
            ]
            what = "no property group" if not matched else "groups " + " and ".join(names)
            out.append(
                finding(
                    node,
                    len(matched),
                    f"exactly one property group must match, but {what} matched",
                    tuple(p for g in groups for p in g),
                )
            )
    return out


def check_uniqueness_key(
    ctx: GraphContext,
    prop: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    """Key values shared by two or more focus nodes; with a scope, key
    totality over the scope's instances as well."""
    by_value: dict[Term, list[Term]] = {}
    for triple in ctx.statements(prop):
        by_value.setdefault(triple.object, []).append(triple.subject)
    out = []
    for value, subjects in by_value.items():
        holders = sorted(set(subjects), key=term_sort_key)
        if len(holders) > 1:
            listing = ", ".join(str(h) for h in holders)
            for holder in holders:
                out.append(
                    finding(
                        holder,
                        value,
                        f"key value {value} of {compact(prop)} is shared by "
                        f"{listing}",
                        (prop,),
                    )
                )
    if scope is not None:
        for node in ctx.extension(scope):
            if not ctx.objects(node, prop):
                out.append(
                    finding(
                        node,
                        prop,
                        f"instance of {compact(scope)} lacks its key property "
                        f"{compact(prop)}",
                        (prop, scope),
                    )
                )
    return out


def _term_from_spec(spec) -> Term:
    if isinstance(spec, str):
        return Iri(spec)
    return Literal(
        spec["lexical"],
        datatype=spec.get("datatype", "http://www.w3.org/2001/XMLSchema#string")
        if "lang" not in spec
        else "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString",
        lang=spec.get("lang"),
    )


def check_allowed_values(
    ctx: GraphContext,
    prop: str,
    values: list,
    *,
    scope: str | None = None,
    negated: bool = False,
) -> list[Finding]:
    """Values outside the enumeration (inside it, when negated). Literal
    comparison includes the language tag."""
    allowed = {_term_from_spec(v) for v in values}
    out = []
    for triple in ctx.statements(prop):
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        inside = triple.object in allowed
        if inside == negated:
            what = "is not among the allowed values" if not negated else "is explicitly excluded"
            out.append(
                finding(
                    triple.subject,
                    triple.object,
                    f"value {triple.object} of {compact(prop)} {what}",
                    (prop,),
                )
            )
    return out


def check_vocab_membership(
    ctx: GraphContext,
    property: str,
    scheme: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    """``vocab-membership`` mode scheme: values of ``property`` must belong
    to the controlled vocabulary ``scheme``: either (value skos:inScheme
    scheme) is asserted, the scheme lists the value via
    skos:member/skos:hasTopConcept, or the catalog inventory enumerates it."""
    members = ctx.scheme_members(Iri(scheme))
    return [
        finding(
            triple.subject,
            triple.object,
            f"value {triple.object} of {compact(property)} is not a member of the "
            f"controlled vocabulary {compact(scheme)}",
            (property, scheme),
        )
        for triple in ctx.statements(property)
        if triple.object not in members
        and (scope is None or ctx.has_type(triple.subject, scope))
    ]


def check_deprecated_terms(
    ctx: GraphContext,
    vocabulary: str,
    kind: str = "properties",
) -> list[Finding]:
    """Uses of deprecated terms: predicate position for properties, object
    of rdf:type for classes."""
    inventory = ctx.catalog.inventory(vocabulary)
    out = []
    if kind == "properties":
        for prop in inventory.deprecated:
            for triple in ctx.statements(prop):
                out.append(
                    finding(
                        triple.subject,
                        prop,
                        f"statement uses the deprecated property {compact(prop)}",
                        (prop,),
                    )
                )
    else:
        rdf_type = Iri(RDF_TYPE)
        for cls in inventory.deprecated:
            for triple in ctx.graph.match(None, rdf_type, Iri(cls)):
                out.append(
                    finding(
                        triple.subject,
                        cls,
                        f"instance is typed by the deprecated class {compact(cls)}",
                        (cls,),
                    )
                )
    return out


def check_undefined_terms(
    ctx: GraphContext,
    vocabulary: str,
) -> list[Finding]:
    """IRIs inside the inventory's namespace that the inventory does not
    declare. Terms outside every inventory namespace are never flagged."""
    inventory = ctx.catalog.inventory(vocabulary)
    if not inventory.namespace:
        return []
    declared = inventory.declared()
    out = []
    for iri in ctx.graph.iris():
        if iri.value.startswith(inventory.namespace) and iri.value not in declared:
            out.append(
                finding(
                    iri,
                    iri.value,
                    f"term {compact(iri.value)} is not defined by the "
                    f"{inventory.name} vocabulary",
                    (iri.value,),
                )
            )
    return out


def check_http_scheme(
    ctx: GraphContext,
) -> list[Finding]:
    """IRIs whose scheme is neither http nor https."""
    out = []
    for iri in ctx.graph.iris():
        scheme = ctx.scheme(iri)
        if scheme not in ("http", "https"):
            out.append(
                finding(
                    iri,
                    scheme or "(none)",
                    f"IRI {iri.value} does not use the http or https scheme",
                )
            )
    return out


def check_equivalent_properties(
    ctx: GraphContext,
    pairs: list[tuple[str, str]] | None = None,
    *,
    vocabulary: str | None = None,
) -> list[Finding]:
    """(x, y) asserted under exactly one member of an equivalent pair;
    without ``pairs``, the pairs ``vocabulary`` declares."""
    if pairs is None:
        pairs = ctx.catalog.inventory(vocabulary).equivalent_property_pairs
    return [
        finding(
            triple.subject,
            f"{compact(present)}|{triple.object}",
            f"statement uses {compact(present)} without its declared "
            f"equivalent {compact(missing)} for {triple.object}",
            (present, missing),
        )
        for p, q in pairs
        for present, missing in ((p, q), (q, p))
        for triple in ctx.lacking(present, missing)
    ]
