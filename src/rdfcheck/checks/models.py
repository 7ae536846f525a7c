"""Read-only models extracted once per run from the asserted triples.

Extraction never fails on broken data: a malformed code list or an
observation without a dataset is preserved in the model so the relevant
checker can report it instead of crashing.

Every collection of terms in a model iterates in ``term_sort_key`` order,
fixed here once (graph lookups already return terms in that order), so a
checker never re-sorts a model collection. The one exception is a code list
read from an ``rdf:List``, which keeps the list's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..graph import MalformedListError, walk_rdf_list
from ..namespaces import DDICV, DISCO, QB, RDF_VALUE, RDFS_DATATYPE, SKOS, XSD
from ..terms import Iri, Literal, Term, term_sort_key
from .context import GraphContext

SUM_NUMBER_OF_CASES = DDICV + "NumberOfCases"
SUM_VALID_CASES = DDICV + "ValidCases"
SUM_INVALID_CASES = DDICV + "InvalidCases"
SUM_MINIMUM = DDICV + "Minimum"
SUM_MAXIMUM = DDICV + "Maximum"
SUM_MEAN = DDICV + "ArithmeticMean"


# --------------------------------------------------------------------------
# SKOS hierarchy


@dataclass
class HierarchyGraph:
    """Concept hierarchy: directed narrower-to-broader edges assembled from
    skos:broader plus inverted skos:narrower. No transitive closure is
    stored."""

    nodes: list[Term]
    edges: set[tuple[Term, Term]]

    @cached_property
    def successor_map(self) -> dict[Term, list[Term]]:
        """Each node's broader concepts in term order, the order in which
        the depth-limited redundancy search visits them."""
        mapping: dict[Term, list[Term]] = {n: [] for n in self.nodes}
        for a, b in sorted(self.edges, key=lambda e: (term_sort_key(e[0]), term_sort_key(e[1]))):
            mapping.setdefault(a, []).append(b)
            mapping.setdefault(b, [])
        return mapping


def extract_hierarchy(ctx: GraphContext) -> HierarchyGraph:
    concepts = set(ctx.extension(SKOS + "Concept"))
    edges: set[tuple[Term, Term]] = set()
    for triple in ctx.statements(SKOS + "broader"):
        if not isinstance(triple.object, Literal):
            edges.add((triple.subject, triple.object))
            concepts.update((triple.subject, triple.object))
    for triple in ctx.statements(SKOS + "narrower"):
        if not isinstance(triple.object, Literal):
            edges.add((triple.object, triple.subject))
            concepts.update((triple.subject, triple.object))
    return HierarchyGraph(sorted(concepts, key=term_sort_key), edges)


# --------------------------------------------------------------------------
# Data Cube


@dataclass
class Component:
    spec: Term
    prop: Term | None
    kind: str  # dimension | measure | attribute | unknown
    required: Literal | None = None
    attachment: Term | None = None


@dataclass
class Dsd:
    """A data structure definition; ``dimensions`` and ``measures`` hold
    its component properties of each kind."""

    node: Term
    components: list[Component]
    dimensions: list[Term] = field(init=False)
    measures: list[Term] = field(init=False)

    def __post_init__(self) -> None:
        def props(kind: str) -> list[Term]:
            return sorted(
                {c.prop for c in self.components if c.kind == kind and c.prop is not None},
                key=term_sort_key,
            )

        self.dimensions = props("dimension")
        self.measures = props("measure")

    def all_props(self) -> set[Term]:
        return {c.prop for c in self.components if c.prop is not None}


@dataclass
class CubeModel:
    datasets: dict[Term, list[Term]]  # dataset -> DSD nodes
    dsds: dict[Term, Dsd]
    observations: dict[Term, list[Term]]  # observation -> dataset nodes
    by_dataset: dict[Term, list[Term]]  # dataset -> its observations
    slices: dict[Term, list[Term]]  # slice -> slice key nodes
    slice_keys: list[Term]
    dimension_props: list[Term]

    def dataset_dsds(self, dataset: Term) -> list[Dsd]:
        return [self.dsds[d] for d in self.datasets.get(dataset, []) if d in self.dsds]

    def uses_measure_dimension(self, dsd: Dsd) -> bool:
        # extraction files a qb:measureType component under the dimensions
        return Iri(QB + "measureType") in dsd.dimensions


def _typed_or_linked(ctx: GraphContext, cls: str, link: str) -> list[Term]:
    """Instances of ``cls`` plus the non-literal objects of ``link``."""
    nodes = set(ctx.extension(cls))
    nodes.update(t.object for t in ctx.statements(link) if not isinstance(t.object, Literal))
    return sorted(nodes, key=term_sort_key)


def extract_cube(ctx: GraphContext) -> CubeModel:
    measure_type = Iri(QB + "measureType")

    dsds: dict[Term, Dsd] = {}
    for node in _typed_or_linked(ctx, QB + "DataStructureDefinition", QB + "structure"):
        components = []
        for spec in ctx.objects(node, QB + "component"):
            if isinstance(spec, Literal):
                continue
            comp = Component(spec=spec, prop=None, kind="unknown")
            for key, kind in (
                (QB + "dimension", "dimension"),
                (QB + "measure", "measure"),
                (QB + "attribute", "attribute"),
            ):
                values = ctx.objects(spec, key)
                if values:
                    comp.prop = values[0]
                    comp.kind = kind
                    break
            if comp.prop is None:
                generic = ctx.objects(spec, QB + "componentProperty")
                if generic:
                    comp.prop = generic[0]
                    types = ctx.types_of(generic[0])
                    if QB + "DimensionProperty" in types:
                        comp.kind = "dimension"
                    elif QB + "MeasureProperty" in types:
                        comp.kind = "measure"
                    elif QB + "AttributeProperty" in types:
                        comp.kind = "attribute"
            if comp.prop == measure_type:
                comp.kind = "dimension"
            required = ctx.literal_objects(spec, QB + "componentRequired")
            comp.required = required[0] if required else None
            attachment = ctx.objects(spec, QB + "componentAttachment")
            comp.attachment = attachment[0] if attachment else None
            components.append(comp)
        dsds[node] = Dsd(node, components)

    def resources(node: Term, prop: str) -> list[Term]:
        return [o for o in ctx.objects(node, prop) if not isinstance(o, Literal)]

    datasets = {
        node: resources(node, QB + "structure")
        for node in _typed_or_linked(ctx, QB + "DataSet", QB + "dataSet")
    }
    observations = {
        node: resources(node, QB + "dataSet") for node in ctx.extension(QB + "Observation")
    }
    by_dataset: dict[Term, list[Term]] = {ds: [] for ds in datasets}
    for obs, obs_datasets in observations.items():
        for ds in obs_datasets:
            by_dataset[ds].append(obs)
    slices = {
        node: resources(node, QB + "sliceStructure")
        for node in _typed_or_linked(ctx, QB + "Slice", QB + "slice")
    }

    dim_props = set(ctx.extension(QB + "DimensionProperty"))
    for dsd in dsds.values():
        dim_props.update(dsd.dimensions)

    return CubeModel(
        datasets=datasets,
        dsds=dsds,
        observations=observations,
        by_dataset=by_dataset,
        slices=slices,
        slice_keys=_typed_or_linked(ctx, QB + "SliceKey", QB + "sliceKey"),
        dimension_props=sorted(dim_props, key=term_sort_key),
    )


# --------------------------------------------------------------------------
# Disco statistics


@dataclass
class SummaryStat:
    node: Term
    types: list[str]
    values: list[Literal]


@dataclass
class CategoryStat:
    node: Term
    code: Term
    frequencies: list[Literal]
    percentages: list[Literal]
    cumulatives: list[Literal]


@dataclass
class VariableStats:
    node: Term
    repr_kind: str | None = None  # ordered | scheme | datatype | other
    repr_datatype: str | None = None
    codes: list[Term] = field(default_factory=list)
    ordered: bool = False
    list_defect: str | None = None
    summaries: list[SummaryStat] = field(default_factory=list)
    catstats: dict[Term, list[CategoryStat]] = field(default_factory=dict)
    code_valid: dict[Term, bool | None] = field(default_factory=dict)

    def summary_values(self, type_iri: str) -> list[Literal]:
        out: list[Literal] = []
        for stat in self.summaries:
            if type_iri in stat.types:
                out.extend(stat.values)
        return out

    def summary_nodes(self, type_iri: str) -> list[Term]:
        return [s.node for s in self.summaries if type_iri in s.types]


@dataclass
class StatisticsModel:
    variables: list[VariableStats]

    def by_node(self) -> dict[Term, VariableStats]:
        return {v.node: v for v in self.variables}


def extract_statistics(ctx: GraphContext) -> StatisticsModel:
    from ..xsd import literal_value_or_none

    variables: list[VariableStats] = []
    for var in ctx.extension(DISCO + "Variable"):
        model = VariableStats(node=var)
        reprs = [
            o for o in ctx.objects(var, DISCO + "representation")
            if not isinstance(o, Literal)
        ]
        if reprs:
            rep = reprs[0]
            types = ctx.types_of(rep)
            if SKOS + "OrderedCollection" in types:
                model.repr_kind = "ordered"
                heads = ctx.objects(rep, SKOS + "memberList")
                if len(heads) == 1:
                    try:
                        model.codes = walk_rdf_list(ctx.graph, heads[0])
                        model.ordered = True
                    except MalformedListError as exc:
                        model.codes = exc.prefix
                        model.list_defect = str(exc)
                else:
                    model.list_defect = (
                        f"ordered collection {rep} has {len(heads)} skos:memberList values"
                    )
            elif SKOS + "ConceptScheme" in types:
                model.repr_kind = "scheme"
                model.codes = ctx.subjects(SKOS + "inScheme", rep)
            elif RDFS_DATATYPE in types or (
                isinstance(rep, Iri) and rep.value.startswith(XSD)
            ):
                model.repr_kind = "datatype"
                if isinstance(rep, Iri):
                    model.repr_datatype = rep.value
            else:
                model.repr_kind = "other"
        for stat_node in ctx.subjects(DISCO + "statisticsVariable", var):
            types = [
                o.value
                for o in ctx.objects(stat_node, DISCO + "summaryStatisticsType")
                if isinstance(o, Iri)
            ]
            values = ctx.literal_objects(stat_node, RDF_VALUE)
            model.summaries.append(SummaryStat(stat_node, types, values))
        for code in model.codes:
            stats = []
            for cs_node in ctx.subjects(DISCO + "statisticsCategory", code):
                stats.append(
                    CategoryStat(
                        node=cs_node,
                        code=code,
                        frequencies=ctx.literal_objects(cs_node, DISCO + "frequency"),
                        percentages=ctx.literal_objects(cs_node, DISCO + "percentage"),
                        cumulatives=ctx.literal_objects(
                            cs_node, DISCO + "cumulativePercentage"
                        ),
                    )
                )
            model.catstats[code] = stats
            flags = ctx.literal_objects(code, DISCO + "isValid")
            if flags:
                parsed = literal_value_or_none(flags[0])
                model.code_valid[code] = (
                    bool(parsed.value) if parsed is not None and parsed.kind == "boolean"
                    else None
                )
            else:
                model.code_valid[code] = None
        variables.append(model)
    return StatisticsModel(variables)
