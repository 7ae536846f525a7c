"""Class- and property-axiom checkers, evaluated over asserted triples.

Every checker is a pure function of (context, parameters): no state, no
mutation, deterministic output order.
"""

from __future__ import annotations

from urllib.parse import urlparse

from ..catalog import Severity
from ..namespaces import RDF_TYPE, compact
from ..terms import Iri, Literal, Term, term_sort_key
from ..violations import Violation, make_violation
from ..xsd import InvalidLexicalError, UnknownDatatypeError, parse_xsd_value
from .context import GraphContext


def check_subsumption(
    ctx: GraphContext,
    cls: str,
    superclass: str,
    *,
    cid: str = "subsumption",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Instances typed ``cls`` but not ``superclass`` (closed-world)."""
    return [
        make_violation(
            cid,
            severity,
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
    *,
    cid: str = "class-equivalence",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """Instances in exactly one of the two extensions."""
    out = check_subsumption(ctx, class1, class2, cid=cid, severity=severity)
    out += check_subsumption(ctx, class2, class1, cid=cid, severity=severity)
    return sorted(out, key=Violation.sort_key)


def check_subproperty(
    ctx: GraphContext,
    prop: str,
    superproperty: str,
    *,
    cid: str = "subproperty",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """(x, prop, y) without the entailed (x, superproperty, y)."""
    sup = Iri(superproperty)
    out = []
    for triple in ctx.statements(prop):
        if triple.object not in ctx.graph.objects(triple.subject, sup):
            out.append(
                make_violation(
                    cid,
                    severity,
                    triple.subject,
                    triple.object,
                    f"{compact(prop)} statement lacks the implied "
                    f"{compact(superproperty)} statement for {triple.object}",
                    (prop, superproperty),
                )
            )
    return out


def check_domain(
    ctx: GraphContext,
    prop: str,
    allowed: list[str],
    *,
    cid: str = "property-domain",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
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
    *,
    cid: str = "domain-table",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """``check_domain`` for each property of a property -> classes table."""
    out: list[Violation] = []
    for prop, classes in sorted(domains.items()):
        out.extend(check_domain(ctx, prop, classes, cid=cid, severity=severity))
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
    cid: str = "property-range",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
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
                        make_violation(
                            cid,
                            severity,
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
                    make_violation(
                        cid, severity, subject, obj,
                        f"value of {compact(prop)}: {reason}", (prop, datatype)
                    )
                )
        else:
            if classes is None:
                if datatype is not None:
                    out.append(
                        make_violation(
                            cid,
                            severity,
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
                    make_violation(
                        cid,
                        severity,
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
    *,
    cid: str = "range-table",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """``check_range`` for each property of a property -> range spec table."""
    out: list[Violation] = []
    for prop, spec in sorted(ranges.items()):
        out.extend(check_range(ctx, prop, cid=cid, severity=severity, **spec))
    return out


def check_inverse_pair(
    ctx: GraphContext,
    prop: str,
    inverse: str,
    *,
    scope: str | None = None,
    cid: str = "inverse-pair",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Each (x, prop, y) needs (y, inverse, x) and vice versa.

    ``scope`` restricts the check to pairs whose prop-subject (equivalently
    inverse-object) is typed by the class; needed where a property serves
    several domains and only one leg carries the inverse contract.
    """
    out = []
    inv = Iri(inverse)
    fwd = Iri(prop)
    for triple in ctx.statements(prop):
        x, y = triple.subject, triple.object
        if isinstance(y, Literal):
            continue
        if scope is not None and not ctx.has_type(x, scope):
            continue
        if x not in ctx.graph.objects(y, inv):
            out.append(
                make_violation(
                    cid,
                    severity,
                    x,
                    y,
                    f"({x} {compact(prop)} {y}) lacks the inverse "
                    f"({y} {compact(inverse)} {x})",
                    (prop, inverse),
                )
            )
    for triple in ctx.statements(inverse):
        y, x = triple.subject, triple.object
        if isinstance(x, Literal):
            continue
        if scope is not None and not ctx.has_type(x, scope):
            continue
        if y not in ctx.graph.objects(x, fwd):
            out.append(
                make_violation(
                    cid,
                    severity,
                    y,
                    x,
                    f"({y} {compact(inverse)} {x}) lacks the inverse "
                    f"({x} {compact(prop)} {y})",
                    (prop, inverse),
                )
            )
    return out


def check_asymmetric(
    ctx: GraphContext,
    prop: str,
    *,
    cid: str = "asymmetric-property",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Unordered pairs {x, y}, x != y, connected in both directions."""
    out = []
    reported: set[tuple[Term, Term]] = set()
    for triple in ctx.statements(prop):
        x, y = triple.subject, triple.object
        if isinstance(y, Literal) or x == y:
            continue
        key = tuple(sorted((x, y), key=term_sort_key))
        if key in reported:
            continue
        if x in ctx.graph.objects(y, Iri(prop)):
            reported.add(key)  # type: ignore[arg-type]
            a, b = key
            out.append(
                make_violation(
                    cid,
                    severity,
                    a,
                    b,
                    f"{compact(prop)} is asymmetric but connects {a} and {b} "
                    "in both directions",
                    (prop,),
                )
            )
    return out


def check_irreflexive(
    ctx: GraphContext,
    prop: str,
    *,
    scope: str | None = None,
    cid: str = "irreflexive-property",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    out = []
    for triple in ctx.statements(prop):
        if triple.subject != triple.object:
            continue
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        out.append(
            make_violation(
                cid,
                severity,
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
    *,
    cid: str = "irreflexive-table",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """``check_irreflexive`` for every property the vocabulary declares."""
    out: list[Violation] = []
    for prop in sorted(ctx.catalog.inventory(vocabulary).properties):
        out.extend(check_irreflexive(ctx, prop, cid=cid, severity=severity))
    return out


def check_disjoint_properties(
    ctx: GraphContext,
    properties: list[str] | None = None,
    *,
    vocabulary: str | None = None,
    exempt_pairs: list[tuple[str, str]] | None = None,
    cid: str = "disjoint-properties",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """(x, y) pairs connected by two or more group properties.

    Pairs related by sub-property edges are never disjoint, and explicitly
    exempted pairs (same declared domain and range) are skipped. Without
    ``properties`` the group is every property ``vocabulary`` declares.
    """
    if properties is None:
        properties = sorted(ctx.catalog.inventory(vocabulary).properties)
    exempt = {frozenset(p) for p in (exempt_pairs or [])}
    by_pair: dict[tuple[Term, Term], list[str]] = {}
    for prop in properties:
        for triple in ctx.statements(prop):
            by_pair.setdefault((triple.subject, triple.object), []).append(prop)
    out = []
    for (x, y), props in sorted(
        by_pair.items(), key=lambda kv: (term_sort_key(kv[0][0]), term_sort_key(kv[0][1]))
    ):
        if len(props) < 2:
            continue
        props = sorted(set(props))
        for i, p in enumerate(props):
            for q in props[i + 1 :]:
                if frozenset((p, q)) in exempt:
                    continue
                if ctx.catalog.subproperty_related(p, q):
                    continue
                out.append(
                    make_violation(
                        cid,
                        severity,
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
    cid: str = "disjoint-classes",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Individuals typed by two or more group classes (subclass-related
    pairs are never disjoint). Without ``classes`` the group is every class
    ``vocabulary`` declares."""
    if classes is None:
        classes = sorted(ctx.catalog.inventory(vocabulary).classes)
    exempt = {frozenset(p) for p in (exempt_pairs or [])}
    out = []
    group = set(classes)
    seen: set[Term] = set()
    for cls in sorted(group):
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
                        make_violation(
                            cid,
                            severity,
                            node,
                            f"{compact(a)}|{compact(b)}",
                            f"{node} is an instance of the disjoint classes "
                            f"{compact(a)} and {compact(b)}",
                            (a, b),
                        )
                    )
    return sorted(out, key=Violation.sort_key)


def check_cardinality(
    ctx: GraphContext,
    prop: str,
    scope: str,
    *,
    min: int | None = None,
    max: int | None = None,
    qualifier_class: str | None = None,
    qualifier_datatype: str | None = None,
    cid: str = "cardinality",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
                    node,
                    count,
                    f"{compact(prop)} occurs {count} time(s), at least "
                    f"{min} required",
                    (prop, scope),
                )
            )
        if max is not None and count > max:
            out.append(
                make_violation(
                    cid,
                    severity,
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
    *,
    cid: str = "cardinality-table",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """``check_cardinality`` for each rule (property, scope, bounds)."""
    out: list[Violation] = []
    for rule in rules:
        bounds = {k: v for k, v in rule.items() if k not in ("property", "scope")}
        out.extend(check_cardinality(
            ctx, rule["property"], rule["scope"], cid=cid, severity=severity, **bounds
        ))
    return out


def check_exclusive_property_groups(
    ctx: GraphContext,
    scope: str,
    groups: list[list[str]],
    *,
    cid: str = "exclusive-property-groups",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
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
    cid: str = "uniqueness-key",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Key values shared by two or more focus nodes; with a scope, key
    totality over the scope's instances as well."""
    by_value: dict[Term, list[Term]] = {}
    for triple in ctx.statements(prop):
        by_value.setdefault(triple.object, []).append(triple.subject)
    out = []
    for value in sorted(by_value, key=term_sort_key):
        holders = sorted(set(by_value[value]), key=term_sort_key)
        if len(holders) > 1:
            listing = ", ".join(str(h) for h in holders)
            for holder in holders:
                out.append(
                    make_violation(
                        cid,
                        severity,
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
                    make_violation(
                        cid,
                        severity,
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
    cid: str = "allowed-values",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
                    triple.subject,
                    triple.object,
                    f"value {triple.object} of {compact(prop)} {what}",
                    (prop,),
                )
            )
    return out


def check_vocab_membership(
    ctx: GraphContext,
    prop: str,
    scheme: str,
    *,
    scope: str | None = None,
    inventory_members: dict[str, list[str]] | None = None,
    cid: str = "vocab-membership",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Values of ``prop`` must belong to the controlled vocabulary
    ``scheme``: either (value skos:inScheme scheme) is asserted, the scheme
    lists the value via skos:member/skos:hasTopConcept, or the catalog
    inventory enumerates it."""
    from ..namespaces import SKOS

    scheme_node = Iri(scheme)
    listed = set((inventory_members or {}).get(scheme, ()))
    in_scheme = set(ctx.subjects(SKOS + "inScheme", scheme_node))
    in_scheme.update(ctx.objects(scheme_node, SKOS + "member"))
    in_scheme.update(ctx.objects(scheme_node, SKOS + "hasTopConcept"))
    out = []
    for triple in ctx.statements(prop):
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        value = triple.object
        if value in in_scheme:
            continue
        if isinstance(value, Iri) and value.value in listed:
            continue
        out.append(
            make_violation(
                cid,
                severity,
                triple.subject,
                value,
                f"value {value} of {compact(prop)} is not a member of the "
                f"controlled vocabulary {compact(scheme)}",
                (prop, scheme),
            )
        )
    return out


def check_deprecated_terms(
    ctx: GraphContext,
    vocabulary: str,
    kind: str = "properties",
    *,
    cid: str = "deprecated-terms",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """Uses of deprecated terms: predicate position for properties, object
    of rdf:type for classes."""
    inventory = ctx.catalog.inventory(vocabulary)
    out = []
    if kind == "properties":
        for prop in sorted(inventory.deprecated):
            for triple in ctx.statements(prop):
                out.append(
                    make_violation(
                        cid,
                        severity,
                        triple.subject,
                        prop,
                        f"statement uses the deprecated property {compact(prop)}",
                        (prop,),
                    )
                )
    else:
        rdf_type = Iri(RDF_TYPE)
        for cls in sorted(inventory.deprecated):
            for triple in ctx.graph.match(None, rdf_type, Iri(cls)):
                out.append(
                    make_violation(
                        cid,
                        severity,
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
    *,
    cid: str = "undefined-terms",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
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
                make_violation(
                    cid,
                    severity,
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
    *,
    cid: str = "http-scheme",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """IRIs whose scheme is neither http nor https."""
    out = []
    for iri in ctx.graph.iris():
        scheme = urlparse(iri.value).scheme.lower()
        if scheme not in ("http", "https"):
            out.append(
                make_violation(
                    cid,
                    severity,
                    iri,
                    scheme or "(none)",
                    f"IRI {iri.value} does not use the http or https scheme",
                    (),
                )
            )
    return out


def check_equivalent_properties(
    ctx: GraphContext,
    pairs: list[tuple[str, str]] | None = None,
    *,
    vocabulary: str | None = None,
    cid: str = "equivalent-properties",
    severity: Severity = Severity.INFO,
) -> list[Violation]:
    """(x, y) asserted under exactly one member of an equivalent pair;
    without ``pairs``, the pairs ``vocabulary`` declares."""
    if pairs is None:
        pairs = ctx.catalog.inventory(vocabulary).equivalent_property_pairs
    out = []
    for p, q in pairs:
        out.extend(
            _one_sided(ctx, p, q, cid, severity) + _one_sided(ctx, q, p, cid, severity)
        )
    return sorted(out, key=Violation.sort_key)


def _one_sided(
    ctx: GraphContext, present: str, missing: str, cid: str, severity: Severity
) -> list[Violation]:
    out = []
    for triple in ctx.statements(present):
        if triple.object not in ctx.graph.objects(triple.subject, Iri(missing)):
            out.append(
                make_violation(
                    cid,
                    severity,
                    triple.subject,
                    f"{compact(present)}|{triple.object}",
                    f"statement uses {compact(present)} without its declared "
                    f"equivalent {compact(missing)} for {triple.object}",
                    (present, missing),
                )
            )
    return out
