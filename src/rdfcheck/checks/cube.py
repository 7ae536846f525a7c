"""Data Cube integrity constraints (the IC-3..IC-21 subset).

IC-1/IC-2/IC-9 arrive through plain cardinality constraints and IC-0
through datatype validity; everything else lives here, built on the
extracted CubeModel. ``check_ic<n>`` mirrors the normative SPARQL of IC-n
as a closed-world check over asserted triples; the registry's
``qb-integrity`` table picks one by the ``ic`` parameter. The ICs stated
per data set walk ``CubeModel.by_dataset``.
"""

from __future__ import annotations

from ..namespaces import OWL_INVERSE_OF, QB, RDFS_RANGE, SKOS, compact
from ..terms import BlankNode, Iri, Literal, Term
from ..violations import Finding, ResourceLimit, finding
from .context import GraphContext
from .models import CubeModel

_MEASURE_TYPE = Iri(QB + "measureType")

#: IC-17 hash-grouping aborts past this many observations in one dataset.
GROUP_LIMIT = 10**6


def check_ic3(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for node, dsd in cube.dsds.items():
        if not dsd.measures:
            out.append(
                finding(
                    node, "no-measure",
                    "data structure definition declares no measure component "
                    "(IC-3)",
                )
            )
    return out


def check_ic4(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for dim in cube.dimension_props:
        # qb:measureType's range is fixed by the cube vocabulary itself
        if dim == _MEASURE_TYPE:
            continue
        if not ctx.objects(dim, RDFS_RANGE):
            out.append(
                finding(
                    dim, "no-range",
                    "dimension property declares no rdfs:range (IC-4)",
                )
            )
    return out


def check_ic5(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    concept = Iri(SKOS + "Concept")
    out = []
    for dim in cube.dimension_props:
        if concept in ctx.objects(dim, RDFS_RANGE) and not ctx.objects(dim, QB + "codeList"):
            out.append(
                finding(
                    dim, "no-codelist",
                    "dimension ranging over skos:Concept has no qb:codeList "
                    "(IC-5)",
                )
            )
    return out


def check_ic6(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for dsd in cube.dsds.values():
        for comp in dsd.components:
            if comp.required is None or comp.required.lexical not in ("false", "0"):
                continue
            prop = comp.prop
            is_attribute = comp.kind == "attribute" or (
                prop is not None and ctx.has_type(prop, QB + "AttributeProperty")
            )
            if not is_attribute:
                out.append(
                    finding(
                        comp.spec, str(prop),
                        "only attribute components may be marked optional via "
                        "qb:componentRequired (IC-6)",
                    )
                )
    return out


def check_ic7(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for key in cube.slice_keys:
        if not ctx.subjects(QB + "sliceKey", key):
            out.append(
                finding(
                    key, "unattached",
                    "slice key is not associated with any data structure "
                    "definition via qb:sliceKey (IC-7)",
                )
            )
    return out


def check_ic8(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
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
                        finding(
                            key, str(prop),
                            f"slice key property {prop} is not declared as a "
                            "component of the associated structure (IC-8)",
                        )
                    )
    return out


def check_ic10(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for slice_node, keys in cube.slices.items():
        for key in keys:
            for prop in ctx.objects(key, QB + "componentProperty"):
                if isinstance(prop, Literal):
                    continue
                if not ctx.has_type(prop, QB + "DimensionProperty"):
                    continue
                if not ctx.graph.objects(slice_node, prop):
                    out.append(
                        finding(
                            slice_node, str(prop),
                            f"slice has no value for dimension {prop} declared "
                            "in its slice structure (IC-10)",
                        )
                    )
    return out


def check_ic11(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for obs, datasets in cube.observations.items():
        for ds in datasets:
            for dsd in cube.dataset_dsds(ds):
                for dim in dsd.dimensions:
                    if not ctx.graph.objects(obs, dim):
                        out.append(
                            finding(
                                obs, str(dim),
                                f"observation has no value for dimension {dim} "
                                "declared in its structure (IC-11)",
                            )
                        )
    return out


def check_ic12(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds, obs_list in cube.by_dataset.items():
        dims = {dim for dsd in cube.dataset_dsds(ds) for dim in dsd.dimensions}
        if not dims:
            continue
        groups: dict[tuple, list[Term]] = {}
        for obs in obs_list:
            signature = []
            complete = True
            for dim in dims:
                values = ctx.graph.objects(obs, dim)
                if not values:
                    complete = False
                    break
                signature.append(frozenset(values))
            if complete:
                groups.setdefault(tuple(signature), []).append(obs)
        for members in groups.values():
            if len(members) > 1:
                listing = ", ".join(str(m) for m in members)
                out.append(
                    finding(
                        members[0], f"duplicates:{len(members)}",
                        f"observations {listing} share identical values for "
                        "all dimensions (IC-12)",
                    )
                )
    return out


def check_ic13(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    observation_cls = Iri(QB + "Observation")
    out = []
    for ds, obs_list in cube.by_dataset.items():
        for dsd in cube.dataset_dsds(ds):
            for comp in dsd.components:
                if comp.kind != "attribute" or comp.prop is None:
                    continue
                if comp.required is None or comp.required.lexical not in ("true", "1"):
                    continue
                if comp.attachment is not None and comp.attachment != observation_cls:
                    continue
                for obs in obs_list:
                    if not ctx.graph.objects(obs, comp.prop):
                        out.append(
                            finding(
                                obs, str(comp.prop),
                                f"observation lacks required attribute "
                                f"{comp.prop} (IC-13)",
                            )
                        )
    return out


def check_ic14(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds, obs_list in cube.by_dataset.items():
        for dsd in cube.dataset_dsds(ds):
            if cube.uses_measure_dimension(dsd):
                continue
            for measure in dsd.measures:
                for obs in obs_list:
                    if not ctx.graph.objects(obs, measure):
                        out.append(
                            finding(
                                obs, str(measure),
                                f"observation lacks a value for the declared "
                                f"measure {measure} (IC-14)",
                            )
                        )
    return out


def check_ic15(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds, obs_list in cube.by_dataset.items():
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            for obs in obs_list:
                for mt in ctx.graph.objects(obs, _MEASURE_TYPE):
                    if isinstance(mt, Literal):
                        continue
                    if not ctx.graph.objects(obs, mt):
                        out.append(
                            finding(
                                obs, str(mt),
                                f"observation lacks a value for the measure "
                                f"{mt} named by its qb:measureType (IC-15)",
                            )
                        )
    return out


def check_ic16(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds, obs_list in cube.by_dataset.items():
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            for obs in obs_list:
                present = [m for m in dsd.measures if ctx.graph.objects(obs, m)]
                if len(present) > 1:
                    listing = ", ".join(str(m) for m in present)
                    out.append(
                        finding(
                            obs, f"measures:{len(present)}",
                            f"observation in a measure-dimension cube carries "
                            f"values for several measures: {listing} (IC-16)",
                        )
                    )
    return out


def check_ic17(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds, obs_list in cube.by_dataset.items():
        if len(obs_list) > GROUP_LIMIT:
            raise ResourceLimit(
                f"IC-17 grouping over {len(obs_list)} observations exceeds the "
                f"limit of {GROUP_LIMIT}"
            )
        for dsd in cube.dataset_dsds(ds):
            if not cube.uses_measure_dimension(dsd):
                continue
            plain_dims = [d for d in dsd.dimensions if d != _MEASURE_TYPE]
            groups: dict[tuple, tuple[Term, set[Term]]] = {}
            for obs in obs_list:
                signature = tuple(
                    frozenset(ctx.graph.objects(obs, dim)) for dim in plain_dims
                )
                seen_measures = {
                    mt
                    for mt in ctx.graph.objects(obs, _MEASURE_TYPE)
                    if not isinstance(mt, Literal)
                }
                first, measures = groups.setdefault(signature, (obs, set()))
                measures.update(seen_measures)
            for first, measures in groups.values():
                for measure in dsd.measures:
                    if measure not in measures:
                        out.append(
                            finding(
                                first, str(measure),
                                "a dimension-value combination lacks an "
                                f"observation for the declared measure {measure} "
                                "(IC-17)",
                            )
                        )
    return out


def check_ic18(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    out = []
    for ds in cube.datasets:
        for slice_node in ctx.objects(ds, QB + "slice"):
            if isinstance(slice_node, Literal):
                continue
            for obs in ctx.objects(slice_node, QB + "observation"):
                if isinstance(obs, Literal):
                    continue
                datasets = cube.observations.get(obs, [])
                if ds not in datasets:
                    out.append(
                        finding(
                            obs, str(ds),
                            f"observation reached through a slice of {ds} "
                            f"belongs to a different data set (IC-18)",
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


def _codes_from_hierarchy(ctx, cube, *, inverse: bool):
    out = []
    hcl_cls = QB + "HierarchicalCodeList"
    for dim in cube.dimension_props:
        for hcl in ctx.objects(dim, QB + "codeList"):
            if isinstance(hcl, Literal) or not ctx.has_type(hcl, hcl_cls):
                continue
            reachable, props = _hierarchy_reachable(ctx, hcl, inverse)
            if not props:
                continue
            for obs in cube.observations:
                for value in ctx.graph.objects(obs, dim):
                    if isinstance(value, Literal):
                        continue
                    if value not in reachable:
                        which = "IC-21" if inverse else "IC-20"
                        out.append(
                            finding(
                                obs, str(value),
                                f"dimension value {value} is not reachable from "
                                f"a root of the hierarchical code list ({which})",
                            )
                        )
    return out


def check_ic20(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    return _codes_from_hierarchy(ctx, cube, inverse=False)


def check_ic21(ctx: GraphContext, cube: CubeModel) -> list[Finding]:
    return _codes_from_hierarchy(ctx, cube, inverse=True)


def check_qb_codelist_membership(
    ctx: GraphContext,
    cube: CubeModel,
    *,
    property: str | None = None,
    scope: str | None = None,
    scheme: str | None = None,
) -> list[Finding]:
    """IC-19, ``vocab-membership`` mode qb-codelist: dimension values must
    come from the dimension's qb:codeList (skos:inScheme / skos:member /
    skos:hasTopConcept linkage, or a member list shipped with the catalog
    inventory). The type's other parameters serve mode scheme; a
    constraint may set them, and they are ignored here."""
    out = []
    hcl_cls = QB + "HierarchicalCodeList"
    for dim in cube.dimension_props:
        for code_list in ctx.objects(dim, QB + "codeList"):
            if isinstance(code_list, Literal) or ctx.has_type(code_list, hcl_cls):
                continue
            members = ctx.scheme_members(code_list)
            for obs in cube.observations:
                for value in ctx.graph.objects(obs, dim):
                    if isinstance(value, Literal) or value in members:
                        continue
                    name = (
                        compact(code_list.value)
                        if isinstance(code_list, Iri)
                        else str(code_list)
                    )
                    out.append(
                        finding(
                            obs, str(value),
                            f"dimension value {value} is not in the code list "
                            f"{name} (IC-19)",
                        )
                    )
    return out
