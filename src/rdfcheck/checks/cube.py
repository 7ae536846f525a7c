"""Data Cube integrity constraints (the IC-3..IC-21 subset).

IC-1/IC-2/IC-9 arrive through plain cardinality constraints and IC-0
through datatype validity; everything else lives here, built on the
extracted CubeModel. Each function mirrors the normative SPARQL of the
corresponding IC as a closed-world check over asserted triples.
"""

from __future__ import annotations

from ..catalog import Severity
from ..namespaces import OWL_INVERSE_OF, QB, RDFS_RANGE, SKOS, compact
from ..terms import BlankNode, Iri, Literal, Term, term_sort_key
from ..violations import ResourceLimit, Violation, make_violation
from . import schema
from .context import GraphContext
from .models import CubeModel

_MEASURE_TYPE = Iri(QB + "measureType")

#: IC-17 hash-grouping aborts past this many observations in one dataset.
GROUP_LIMIT = 10**6


def check_qb_integrity(
    ctx: GraphContext,
    cube: CubeModel,
    ic: int,
    *,
    cid: str = "qb-integrity",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    handler = _IC_HANDLERS.get(ic)
    if handler is None:
        raise ValueError(f"integrity constraint IC-{ic} is not implemented")
    return sorted(handler(ctx, cube, cid, severity), key=Violation.sort_key)


def _obs_values(ctx: GraphContext, obs: Term, prop: Term) -> list[Term]:
    return ctx.graph.objects(obs, prop)  # type: ignore[arg-type]


def _dataset_observations(cube: CubeModel) -> dict[Term, list[Term]]:
    by_dataset: dict[Term, list[Term]] = {ds: [] for ds in cube.datasets}
    for obs in sorted(cube.observations, key=term_sort_key):
        for ds in cube.observations[obs]:
            by_dataset.setdefault(ds, []).append(obs)
    return by_dataset


def _ic3(ctx, cube, cid, severity):
    out = []
    for node in sorted(cube.dsds, key=term_sort_key):
        if not cube.dsds[node].measures():
            out.append(
                make_violation(
                    cid, severity, node, "no-measure",
                    "data structure definition declares no measure component "
                    "(IC-3)", (),
                )
            )
    return out


def _ic4(ctx, cube, cid, severity):
    out = []
    for dim in cube.dimension_props:
        # qb:measureType's range is fixed by the cube vocabulary itself
        if dim == _MEASURE_TYPE:
            continue
        if not ctx.objects(dim, RDFS_RANGE):
            out.append(
                make_violation(
                    cid, severity, dim, "no-range",
                    "dimension property declares no rdfs:range (IC-4)", (),
                )
            )
    return out


def _ic5(ctx, cube, cid, severity):
    concept = Iri(SKOS + "Concept")
    out = []
    for dim in cube.dimension_props:
        if concept in ctx.objects(dim, RDFS_RANGE) and not ctx.objects(dim, QB + "codeList"):
            out.append(
                make_violation(
                    cid, severity, dim, "no-codelist",
                    "dimension ranging over skos:Concept has no qb:codeList "
                    "(IC-5)", (),
                )
            )
    return out


def _ic6(ctx, cube, cid, severity):
    out = []
    for node in sorted(cube.dsds, key=term_sort_key):
        for comp in cube.dsds[node].components:
            if comp.required is None or comp.required.lexical not in ("false", "0"):
                continue
            prop = comp.prop
            is_attribute = comp.kind == "attribute" or (
                prop is not None and ctx.has_type(prop, QB + "AttributeProperty")
            )
            if not is_attribute:
                out.append(
                    make_violation(
                        cid, severity, comp.spec, str(prop),
                        "only attribute components may be marked optional via "
                        "qb:componentRequired (IC-6)", (),
                    )
                )
    return out


def _ic7(ctx, cube, cid, severity):
    out = []
    for key in cube.slice_keys:
        if not ctx.subjects(QB + "sliceKey", key):
            out.append(
                make_violation(
                    cid, severity, key, "unattached",
                    "slice key is not associated with any data structure "
                    "definition via qb:sliceKey (IC-7)", (),
                )
            )
    return out


def _ic8(ctx, cube, cid, severity):
    out = []
    for key in cube.slice_keys:
        props = [
            p for p in ctx.objects(key, QB + "componentProperty")
            if not isinstance(p, Literal)
        ]
        for dsd_node in ctx.subjects(QB + "sliceKey", key):
            dsd = cube.dsds.get(dsd_node)
            if dsd is None:
                continue
            declared = dsd.all_props()
            for prop in props:
                if prop not in declared:
                    out.append(
                        make_violation(
                            cid, severity, key, str(prop),
                            f"slice key property {prop} is not declared as a "
                            "component of the associated structure (IC-8)", (),
                        )
                    )
    return out


def _ic10(ctx, cube, cid, severity):
    out = []
    for slice_node in sorted(cube.slices, key=term_sort_key):
        for key in cube.slices[slice_node]:
            for prop in ctx.objects(key, QB + "componentProperty"):
                if isinstance(prop, Literal):
                    continue
                if not ctx.has_type(prop, QB + "DimensionProperty"):
                    continue
                if not _obs_values(ctx, slice_node, prop):
                    out.append(
                        make_violation(
                            cid, severity, slice_node, str(prop),
                            f"slice has no value for dimension {prop} declared "
                            "in its slice structure (IC-10)", (),
                        )
                    )
    return out


def _ic11(ctx, cube, cid, severity):
    out = []
    for obs in sorted(cube.observations, key=term_sort_key):
        for ds in cube.observations[obs]:
            for dsd in cube.dataset_dsds(ds):
                for dim in dsd.dimensions():
                    if not _obs_values(ctx, obs, dim):
                        out.append(
                            make_violation(
                                cid, severity, obs, str(dim),
                                f"observation has no value for dimension {dim} "
                                "declared in its structure (IC-11)", (),
                            )
                        )
    return out


def _ic12(ctx, cube, cid, severity):
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        dims: set[Term] = set()
        for dsd in cube.dataset_dsds(ds):
            dims.update(dsd.dimensions())
        if not dims:
            continue
        ordered_dims = sorted(dims, key=term_sort_key)
        groups: dict[tuple, list[Term]] = {}
        for obs in obs_list:
            signature = []
            complete = True
            for dim in ordered_dims:
                values = _obs_values(ctx, obs, dim)
                if not values:
                    complete = False
                    break
                signature.append(frozenset(values))
            if complete:
                groups.setdefault(tuple(signature), []).append(obs)
        for signature, members in sorted(
            groups.items(), key=lambda kv: term_sort_key(kv[1][0])
        ):
            if len(members) > 1:
                listing = ", ".join(str(m) for m in members)
                out.append(
                    make_violation(
                        cid, severity, members[0], f"duplicates:{len(members)}",
                        f"observations {listing} share identical values for "
                        "all dimensions (IC-12)", (),
                    )
                )
    return out


def _ic13(ctx, cube, cid, severity):
    observation_cls = Iri(QB + "Observation")
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        for dsd in cube.dataset_dsds(ds):
            for comp in dsd.components:
                if comp.kind != "attribute" or comp.prop is None:
                    continue
                if comp.required is None or comp.required.lexical not in ("true", "1"):
                    continue
                if comp.attachment is not None and comp.attachment != observation_cls:
                    continue
                for obs in obs_list:
                    if not _obs_values(ctx, obs, comp.prop):
                        out.append(
                            make_violation(
                                cid, severity, obs, str(comp.prop),
                                f"observation lacks required attribute "
                                f"{comp.prop} (IC-13)", (),
                            )
                        )
    return out


def _ic14(ctx, cube, cid, severity):
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        for dsd in cube.dataset_dsds(ds):
            if cube.uses_measure_dimension(dsd):
                continue
            for measure in dsd.measures():
                for obs in obs_list:
                    if not _obs_values(ctx, obs, measure):
                        out.append(
                            make_violation(
                                cid, severity, obs, str(measure),
                                f"observation lacks a value for the declared "
                                f"measure {measure} (IC-14)", (),
                            )
                        )
    return out


def _ic15(ctx, cube, cid, severity):
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            for obs in obs_list:
                for mt in _obs_values(ctx, obs, _MEASURE_TYPE):
                    if isinstance(mt, Literal):
                        continue
                    if not _obs_values(ctx, obs, mt):
                        out.append(
                            make_violation(
                                cid, severity, obs, str(mt),
                                f"observation lacks a value for the measure "
                                f"{mt} named by its qb:measureType (IC-15)", (),
                            )
                        )
    return out


def _ic16(ctx, cube, cid, severity):
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            measures = dsd.measures()
            for obs in obs_list:
                present = [m for m in measures if _obs_values(ctx, obs, m)]
                if len(present) > 1:
                    listing = ", ".join(str(m) for m in present)
                    out.append(
                        make_violation(
                            cid, severity, obs, f"measures:{len(present)}",
                            f"observation in a measure-dimension cube carries "
                            f"values for several measures: {listing} (IC-16)", (),
                        )
                    )
    return out


def _ic17(ctx, cube, cid, severity):
    out = []
    for ds, obs_list in sorted(_dataset_observations(cube).items(),
                               key=lambda kv: term_sort_key(kv[0])):
        if len(obs_list) > GROUP_LIMIT:
            raise ResourceLimit(
                f"IC-17 grouping over {len(obs_list)} observations exceeds the "
                f"limit of {GROUP_LIMIT}"
            )
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            declared = dsd.measures()
            plain_dims = [d for d in dsd.dimensions() if d != _MEASURE_TYPE]
            groups: dict[tuple, tuple[Term, set[Term]]] = {}
            for obs in obs_list:
                signature = tuple(
                    frozenset(_obs_values(ctx, obs, dim)) for dim in plain_dims
                )
                seen_measures = {
                    mt
                    for mt in _obs_values(ctx, obs, _MEASURE_TYPE)
                    if not isinstance(mt, Literal)
                }
                first, measures = groups.setdefault(signature, (obs, set()))
                measures.update(seen_measures)
            for signature, (first, measures) in sorted(
                groups.items(), key=lambda kv: term_sort_key(kv[1][0])
            ):
                for measure in declared:
                    if measure not in measures:
                        out.append(
                            make_violation(
                                cid, severity, first, str(measure),
                                "a dimension-value combination lacks an "
                                f"observation for the declared measure {measure} "
                                "(IC-17)", (),
                            )
                        )
    return out


def _ic18(ctx, cube, cid, severity):
    out = []
    for ds in sorted(cube.datasets, key=term_sort_key):
        for slice_node in ctx.objects(ds, QB + "slice"):
            if isinstance(slice_node, Literal):
                continue
            for obs in ctx.objects(slice_node, QB + "observation"):
                if isinstance(obs, Literal):
                    continue
                datasets = cube.observations.get(obs, [])
                if ds not in datasets:
                    out.append(
                        make_violation(
                            cid, severity, obs, str(ds),
                            f"observation reached through a slice of {ds} "
                            f"belongs to a different data set (IC-18)", (),
                        )
                    )
    return out


def _hierarchy_reachable(
    ctx: GraphContext, hcl: Term, inverse: bool
) -> tuple[set[Term], list[Term]]:
    """Nodes reachable from the hierarchy roots along (or against) every
    parent-child property of the hierarchical code list."""
    roots = [
        r for r in ctx.objects(hcl, QB + "hierarchyRoot") if not isinstance(r, Literal)
    ]
    props: list[Term] = []
    for pcp in ctx.objects(hcl, QB + "parentChildProperty"):
        if isinstance(pcp, Iri) and not inverse:
            props.append(pcp)
        elif isinstance(pcp, BlankNode) and inverse:
            props.extend(
                p for p in ctx.graph.objects(pcp, Iri(OWL_INVERSE_OF))
                if isinstance(p, Iri)
            )
    reachable: set[Term] = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for prop in props:
            children = (
                ctx.graph.subjects(prop, node) if inverse
                else ctx.graph.objects(node, prop)
            )
            for child in children:
                if not isinstance(child, Literal) and child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
    return reachable, props


def _codes_from_hierarchy(ctx, cube, cid, severity, *, inverse: bool):
    out = []
    hcl_cls = QB + "HierarchicalCodeList"
    for dim in cube.dimension_props:
        for hcl in ctx.objects(dim, QB + "codeList"):
            if isinstance(hcl, Literal) or not ctx.has_type(hcl, hcl_cls):
                continue
            reachable, props = _hierarchy_reachable(ctx, hcl, inverse)
            if not props:
                continue
            for obs in sorted(cube.observations, key=term_sort_key):
                for value in _obs_values(ctx, obs, dim):
                    if isinstance(value, Literal):
                        continue
                    if value not in reachable:
                        which = "IC-21" if inverse else "IC-20"
                        out.append(
                            make_violation(
                                cid, severity, obs, str(value),
                                f"dimension value {value} is not reachable from "
                                f"a root of the hierarchical code list ({which})",
                                (),
                            )
                        )
    return out


def _ic20(ctx, cube, cid, severity):
    return _codes_from_hierarchy(ctx, cube, cid, severity, inverse=False)


def _ic21(ctx, cube, cid, severity):
    return _codes_from_hierarchy(ctx, cube, cid, severity, inverse=True)


_IC_HANDLERS = {
    3: _ic3,
    4: _ic4,
    5: _ic5,
    6: _ic6,
    7: _ic7,
    8: _ic8,
    10: _ic10,
    11: _ic11,
    12: _ic12,
    13: _ic13,
    14: _ic14,
    15: _ic15,
    16: _ic16,
    17: _ic17,
    18: _ic18,
    20: _ic20,
    21: _ic21,
}


def check_membership(
    ctx: GraphContext,
    cube: CubeModel,
    *,
    mode: str = "scheme",
    property: str | None = None,
    scope: str | None = None,
    scheme: str | None = None,
    cid: str = "vocab-membership",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """Controlled-vocabulary membership against the catalog's member lists:
    of ``property`` values in ``scheme`` (mode scheme), or of dimension
    values in their code lists (mode qb-codelist, IC-19)."""
    members = ctx.catalog.controlled_vocabularies
    if mode == "qb-codelist":
        return check_qb_codelist_membership(
            ctx, cube, inventory_members=members, cid=cid, severity=severity
        )
    return schema.check_vocab_membership(
        ctx, property, scheme, scope=scope, inventory_members=members,
        cid=cid, severity=severity,
    )


def check_qb_codelist_membership(
    ctx: GraphContext,
    cube: CubeModel,
    *,
    inventory_members: dict[str, list[str]] | None = None,
    cid: str = "vocab-membership",
    severity: Severity = Severity.ERROR,
) -> list[Violation]:
    """IC-19: dimension values must come from the dimension's qb:codeList
    (skos:inScheme / skos:member / skos:hasTopConcept linkage, or a member
    list shipped with the catalog inventory)."""
    out = []
    hcl_cls = QB + "HierarchicalCodeList"
    for dim in cube.dimension_props:
        for code_list in ctx.objects(dim, QB + "codeList"):
            if isinstance(code_list, Literal) or ctx.has_type(code_list, hcl_cls):
                continue
            members: set[Term] = set(ctx.subjects(SKOS + "inScheme", code_list))
            members.update(
                o for o in ctx.objects(code_list, SKOS + "member")
                if not isinstance(o, Literal)
            )
            members.update(
                o for o in ctx.objects(code_list, SKOS + "hasTopConcept")
                if not isinstance(o, Literal)
            )
            listed: set[str] = set()
            if inventory_members and isinstance(code_list, Iri):
                listed = set(inventory_members.get(code_list.value, ()))
            for obs in sorted(cube.observations, key=term_sort_key):
                for value in _obs_values(ctx, obs, dim):
                    if isinstance(value, Literal):
                        continue
                    if value in members:
                        continue
                    if isinstance(value, Iri) and value.value in listed:
                        continue
                    name = (
                        compact(code_list.value)
                        if isinstance(code_list, Iri)
                        else str(code_list)
                    )
                    out.append(
                        make_violation(
                            cid, severity, obs, str(value),
                            f"dimension value {value} is not in the code list "
                            f"{name} (IC-19)", (),
                        )
                    )
    return sorted(out, key=Violation.sort_key)
