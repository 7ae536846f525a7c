"""Constraint catalog model: severities, type registry, inventories, loading.

A catalog document is JSON with two top-level arrays, ``vocabularies``
(term inventories) and ``constraints`` (typed, parameterized entries). The
type registry is closed: an entry naming an unknown type id is rejected at
load, as are malformed parameters and duplicate constraint ids.

Entries may ship without their evaluation parameters (the source material
defines some constraints only as stubs); they load fine and are reported as
"not evaluable" instead of being silently dropped or guessed at.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Any

from .namespaces import RDF_LANGSTRING, WELL_KNOWN_PREFIXES


class CatalogError(Exception):
    """A catalog document failed validation; message names the offender."""


class Severity(enum.IntEnum):
    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except (AttributeError, KeyError):
            raise CatalogError(
                f"unknown severity {text!r} (expected info, warning, or error)"
            ) from None


# A schema maps each field of a catalog object to its kind and level. A kind
# is a name ``_validate_param`` knows, or a tuple of the field's allowed
# values (integers or strings). "load" fields must be present and
# well-formed at load time; "eval" parameters may be absent (the constraint
# then reports as not evaluable); "opt" fields are optional in every sense.
_REQ_LEVELS = ("load", "eval", "opt")


@dataclass(frozen=True)
class ConstraintType:
    """A constraint type: its parameter schema and the checker evaluating it.

    ``check`` names the checker as ``"<module>.<function>"`` under
    ``rdfcheck.checks`` (a string, because the checkers import this module).
    ``needs`` lists the shared run objects the checker takes first, from
    "ctx" (the graph context), "cube", "stats" and "hierarchy" (the
    extracted models). A type whose modes each have their own checker sets
    ``by`` to the parameter that picks one, and ``check`` to a table from
    each value of that parameter to its checker and that checker's needs;
    the table's keys are the parameter's allowed values. The parameter is
    required, unless the type names a ``by_default`` value for a
    constraint that leaves it out. The engine asks ``checker`` once per
    constraint, when a run starts, and calls the checker with its needs,
    then the "load"/"eval" parameters positionally in schema order, then
    the "opt" parameters the constraint sets as keywords under their schema
    names (an optional ``scope`` falls back to the constraint's own scope).
    It never passes the ``by`` parameter.
    """

    id: str
    check: str | dict[Any, tuple[str, tuple[str, ...]]] | None
    schema: dict[str, tuple[Any, str]]
    requirements: tuple[str, ...] = ()
    description: str = ""
    eval_any_of: tuple[tuple[str, ...], ...] = ()
    needs: tuple[str, ...] = ("ctx",)
    by: str | None = None
    by_default: Any = None

    def __post_init__(self) -> None:
        for name, (kind, req) in self.schema.items():
            if req not in _REQ_LEVELS:
                raise ValueError(f"{self.id}.{name}: bad requirement level {req}")

    def checker(self, params: dict[str, Any]) -> tuple[str, tuple[str, ...]]:
        """The checker a constraint with ``params`` runs, and its needs."""
        if self.by is None:
            return self.check, self.needs
        return self.check[params.get(self.by, self.by_default)]


CONSTRAINT_TYPES: dict[str, ConstraintType] = {}


def _register(
    type_id: str,
    check: str | None,
    schema: dict[str, tuple[Any, str]],
    requirements: tuple[str, ...] = (),
    description: str = "",
    eval_any_of: tuple[tuple[str, ...], ...] = (),
    needs: tuple[str, ...] = ("ctx",),
    by: str | None = None,
    by_default: Any = None,
) -> None:
    if by is not None:
        # the selector comes first in the schema; its values are the table's keys
        schema = {by: (tuple(check), "load" if by_default is None else "opt"), **schema}
    CONSTRAINT_TYPES[type_id] = ConstraintType(
        type_id, check, schema, requirements, description, eval_any_of, needs, by, by_default
    )


_register(
    "subsumption",
    "schema.check_subsumption",
    {"class": ("iri", "load"), "superclass": ("iri", "load")},
    ("R-100-SUBSUMPTION",),
    "Instances of one class must also be typed by a second class.",
)
_register(
    "class-equivalence",
    "schema.check_class_equivalence",
    {"class1": ("iri", "load"), "class2": ("iri", "load")},
    ("R-3-EQUIVALENT-CLASSES",),
    "Two classes must have identical instance sets.",
)
_register(
    "subproperty",
    "schema.check_subproperty",
    {"property": ("iri", "load"), "superproperty": ("iri", "load")},
    ("R-54-SUB-OBJECT-PROPERTIES", "R-64-SUB-DATA-PROPERTIES"),
    "Every statement under a property must be repeated under its super-property.",
)
_register(
    "property-domain",
    "schema.check_domain",
    {"property": ("iri", "load"), "classes": ("iri_list", "load")},
    ("R-25-OBJECT-PROPERTY-DOMAIN", "R-26-DATA-PROPERTY-DOMAIN",
     "R-17-DISJUNCTION-OF-CLASS-EXPRESSIONS"),
    "Subjects of a property must be typed by one of the allowed classes.",
)
_register(
    "domain-table",
    "schema.check_domain_table",
    {"domains": ("iri_map", "load")},
    ("R-25-OBJECT-PROPERTY-DOMAIN", "R-26-DATA-PROPERTY-DOMAIN"),
    "Per-property domain restrictions generated for a whole vocabulary.",
)
_register(
    "property-range",
    "schema.check_range",
    {
        "property": ("iri", "load"),
        "classes": ("iri_list", "opt"),
        "datatype": ("iri", "opt"),
        "scope": ("iri", "opt"),
    },
    ("R-28-OBJECT-PROPERTY-RANGE", "R-35-DATA-PROPERTY-RANGE",
     "R-29-CLASS-SPECIFIC-RANGE-OF-RDF-OBJECTS",
     "R-36-CLASS-SPECIFIC-RANGE-OF-RDF-LITERALS",
     "R-91-UNIVERSAL-QUANTIFICATION-ON-PROPERTIES"),
    "Objects of a property must be typed by allowed classes or carry an allowed datatype.",
    eval_any_of=(("classes", "datatype"),),
)
_register(
    "range-table",
    "schema.check_range_table",
    {"ranges": ("range_map", "load")},
    ("R-28-OBJECT-PROPERTY-RANGE", "R-35-DATA-PROPERTY-RANGE",
     "R-91-UNIVERSAL-QUANTIFICATION-ON-PROPERTIES"),
    "Per-property range restrictions generated for a whole vocabulary.",
)
_register(
    "inverse-pair",
    "schema.check_inverse_pair",
    {"property": ("iri", "load"), "inverse": ("iri", "load"), "scope": ("iri", "opt")},
    ("R-56-INVERSE-OBJECT-PROPERTIES",),
    "Statements under a property must be mirrored under its inverse.",
)
_register(
    "asymmetric-property",
    "schema.check_asymmetric",
    {"property": ("iri", "load")},
    ("R-62-ASYMMETRIC-OBJECT-PROPERTIES",),
    "No two individuals may point at each other through the property.",
)
_register(
    "irreflexive-property",
    "schema.check_irreflexive",
    {"property": ("iri", "load"), "scope": ("iri", "opt")},
    ("R-60-IRREFLEXIVE-OBJECT-PROPERTIES",),
    "No individual (optionally: of a class) may point at itself through the property.",
)
_register(
    "irreflexive-table",
    "schema.check_irreflexive_table",
    {"vocabulary": ("string", "load")},
    ("R-60-IRREFLEXIVE-OBJECT-PROPERTIES",),
    "Every declared property of a vocabulary is irreflexive.",
)
_register(
    "disjoint-properties",
    "schema.check_disjoint_properties",
    {
        "vocabulary": ("string", "opt"),
        "properties": ("iri_list", "opt"),
        "exempt_pairs": ("pairs", "opt"),
    },
    ("R-9-DISJOINT-PROPERTIES",),
    "No subject/value pair may be connected by two different group properties.",
    eval_any_of=(("vocabulary", "properties"),),
)
_register(
    "disjoint-classes",
    "schema.check_disjoint_classes",
    {"vocabulary": ("string", "opt"), "classes": ("iri_list", "opt"),
     "exempt_pairs": ("pairs", "opt")},
    ("R-7-DISJOINT-CLASSES",),
    "No individual may be an instance of two group classes at once.",
    eval_any_of=(("vocabulary", "classes"),),
)
_register(
    "cardinality",
    "schema.check_cardinality",
    {
        "property": ("iri", "load"),
        "scope": ("iri", "load"),
        "min": ("int", "opt"),
        "max": ("int", "opt"),
        "qualifier_class": ("iri", "opt"),
        "qualifier_datatype": ("iri", "opt"),
    },
    ("R-74-EXACT-QUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-75-MINIMUM-QUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-76-MAXIMUM-QUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-80-EXACT-UNQUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-81-MINIMUM-UNQUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-82-MAXIMUM-UNQUALIFIED-CARDINALITY-ON-PROPERTIES",
     "R-211-CARDINALITY-CONSTRAINTS", "R-68-REQUIRED-PROPERTIES",
     "R-86-EXISTENTIAL-QUANTIFICATION-ON-PROPERTIES"),
    "Instances of a class must hold between min and max distinct values of a property.",
    eval_any_of=(("min", "max"),),
)
_register(
    "cardinality-table",
    "schema.check_cardinality_table",
    {"rules": ("rule_list", "eval")},
    ("R-211-CARDINALITY-CONSTRAINTS",),
    "A set of cardinality rules for one vocabulary.",
)
_register(
    "exclusive-property-groups",
    "schema.check_exclusive_property_groups",
    {"scope": ("iri", "load"), "groups": ("groups", "load")},
    ("R-13-DISJOINT-GROUP-OF-PROPERTIES-CLASS-SPECIFIC",),
    "Exactly one of several property groups must be fully present per instance.",
)
_register(
    "uniqueness-key",
    "schema.check_uniqueness_key",
    {"property": ("iri", "eval"), "scope": ("iri", "opt")},
    ("R-58-INVERSE-FUNCTIONAL-OBJECT-PROPERTIES", "R-226-PRIMARY-KEY-PROPERTIES"),
    "A key value may identify at most one focus node; scoped keys must be total.",
)
_register(
    "allowed-values",
    "schema.check_allowed_values",
    {
        "property": ("iri", "load"),
        "scope": ("iri", "opt"),
        "values": ("term_list", "eval"),
        "negated": ("bool", "opt"),
    },
    ("R-30-ALLOWED-VALUES-FOR-RDF-OBJECTS", "R-37-ALLOWED-VALUES-FOR-RDF-LITERALS",
     "R-33-NEGATIVE-OBJECT-CONSTRAINTS", "R-200-NEGATIVE-LITERAL-CONSTRAINTS"),
    "Property values must come from (or avoid) an enumerated list.",
)
_register(
    "vocab-membership",
    {
        "scheme": ("schema.check_vocab_membership", ("ctx",)),
        "qb-codelist": ("cube.check_qb_codelist_membership", ("ctx", "cube")),
    },
    {
        "property": ("iri", "opt"),
        "scope": ("iri", "opt"),
        "scheme": ("iri", "opt"),
    },
    ("R-32-MEMBERSHIP-OF-RDF-OBJECTS-IN-CONTROLLED-VOCABULARIES",
     "R-39-MEMBERSHIP-OF-RDF-LITERALS-IN-CONTROLLED-VOCABULARIES"),
    "Property values must belong to a named controlled vocabulary or code list.",
    by="mode",
    by_default="scheme",
)
_register(
    "deprecated-terms",
    "schema.check_deprecated_terms",
    {"vocabulary": ("string", "load"),
     "kind": (("classes", "properties"), "load")},
    ("R-209-VALID-CLASSES", "R-210-VALID-PROPERTIES"),
    "Use of terms the inventory marks as deprecated.",
)
_register(
    "undefined-terms",
    "schema.check_undefined_terms",
    {"vocabulary": ("string", "load")},
    (),
    "Terms inside the vocabulary namespace that the inventory does not declare.",
)
_register(
    "http-scheme",
    "schema.check_http_scheme",
    {},
    (),
    "Every IRI must use the http or https scheme.",
)
_register(
    "equivalent-properties",
    "schema.check_equivalent_properties",
    {"vocabulary": ("string", "opt"), "pairs": ("pairs", "opt")},
    ("R-4-EQUIVALENT-OBJECT-PROPERTIES", "R-5-EQUIVALENT-DATA-PROPERTIES"),
    "Statements under one member of an equivalent pair must be mirrored under the other.",
    eval_any_of=(("vocabulary", "pairs"),),
)
_register(
    "data-property-facets",
    "lexical.check_facets",
    {
        "property": ("iri", "load"),
        "scope": ("iri", "opt"),
        "min_length": ("int", "opt"),
        "max_length": ("int", "opt"),
        "pattern": ("pattern", "opt"),
        "min": ("number", "opt"),
        "max": ("number", "opt"),
        "min_exclusive": ("bool", "opt"),
        "max_exclusive": ("bool", "opt"),
    },
    ("R-46-CONSTRAINING-FACETS",),
    "Literal values must satisfy length, pattern, and bound facets.",
    eval_any_of=(("min_length", "max_length", "pattern", "min", "max"),),
)
_register(
    "literal-pattern",
    "lexical.check_literal_pattern",
    {
        "property": ("iri", "eval"),
        "scope": ("iri", "opt"),
        "pattern": ("pattern", "eval"),
        "negated": ("bool", "opt"),
        "substring": ("bool", "opt"),
        "case_insensitive": ("bool", "opt"),
    },
    ("R-44-PATTERN-MATCHING-ON-RDF-LITERALS",),
    "Literals must (or, negated, must not) match a regular expression.",
)
_register(
    "iri-pattern",
    "lexical.check_iri_pattern",
    {
        "position": (("subject", "predicate", "object"), "load"),
        "pattern": ("pattern", "eval"),
        "scope": ("iri", "opt"),
    },
    ("R-21-IRI-PATTERN-MATCHING-ON-RDF-SUBJECTS",
     "R-22-IRI-PATTERN-MATCHING-ON-RDF-OBJECTS",
     "R-23-IRI-PATTERN-MATCHING-ON-RDF-PROPERTIES"),
    "IRIs in one triple position must match a regular expression.",
)
_register(
    "literal-range",
    "lexical.check_literal_range",
    {
        "property": ("iri", "load"),
        "scope": ("iri", "opt"),
        "datatype": ("iri", "load"),
        "min": ("number", "opt"),
        "max": ("number", "opt"),
        "min_exclusive": ("bool", "opt"),
        "max_exclusive": ("bool", "opt"),
        "negated": ("bool", "opt"),
    },
    ("R-45-RANGES-OF-RDF-LITERAL-VALUES", "R-142-NEGATIVE-RANGES-OF-RDF-LITERAL-VALUES"),
    "Numeric literal values must fall inside (or, negated, outside) a bound pair.",
    eval_any_of=(("min", "max"),),
)
_register(
    "literal-comparison",
    "lexical.check_literal_comparison",
    {
        "property1": ("iri", "load"),
        "property2": ("iri", "load"),
        "op": (("<", "<=", ">", ">=", "=", "!="), "load"),
        "scope": ("iri", "opt"),
    },
    ("R-43-LITERAL-VALUE-COMPARISON",),
    "Values of two properties on one focus must satisfy a comparison operator.",
)
_register(
    "language-tag",
    "lexical.check_language_tags",
    {
        "property": ("iri", "load"),
        "scope": ("iri", "opt"),
        "languages": ("string_list", "eval"),
        "min_per_lang": ("int", "opt"),
        "max_per_lang": ("int", "opt"),
        "allow_untagged_as": ("string", "opt"),
    },
    ("R-47-LANGUAGE-TAG-MATCHING", "R-48-MISSING-LANGUAGE-TAGS",
     "R-49-RDF-LITERALS-HAVING-AT-MOST-ONE-LANGUAGE-TAG"),
    "Per focus and language, the number of tagged values must stay within bounds.",
)
_register(
    "language-coverage",
    "lexical.check_language_coverage",
    {
        "mode": (("omitted-or-invalid", "incomplete", "no-common"), "load"),
        "properties": ("iri_list", "opt"),
    },
    ("R-47-LANGUAGE-TAG-MATCHING", "R-48-MISSING-LANGUAGE-TAGS"),
    "Vocabulary-wide language tagging quality checks over label properties.",
)
_register(
    "whitespace",
    "lexical.check_whitespace",
    {"property": ("iri", "eval"), "scopes": ("iri_list", "opt")},
    ("R-50-WHITESPACE-HANDLING-OF-RDF-LITERALS",),
    "Literals must carry no leading or trailing whitespace.",
)
_register(
    "html-balance",
    "lexical.check_html_balance",
    {
        "vocabulary": ("string", "opt"),
        "mode": (("vocab-properties", "class-subjects"), "opt"),
        "property": ("iri", "opt"),
        "scope": ("iri", "opt"),
    },
    ("R-51-HTML-HANDLING-OF-RDF-LITERALS",),
    "HTML-like tags inside literals must nest and close properly.",
)
_register(
    "string-composition",
    "lexical.check_string_composition",
    {
        "scope": ("iri", "load"),
        "target": ("iri", "load"),
        "parts": ("part_list", "eval"),
        "separator": ("string", "opt"),
    },
    ("R-194-PROVIDE-STRING-FUNCTIONS-FOR-RDF-LITERALS",),
    "A literal must equal the joined values reached through part paths.",
)
_register(
    "percentage-sum",
    "statistics.check_percentage_sum",
    {"tolerance": ("number", "opt")},
    ("R-42-MATHEMATICAL-OPERATIONS", "R-41-STATISTICAL-COMPUTATIONS"),
    "Per variable, category percentages over its code list must sum to 100.",
    needs=("stats",),
)
_register(
    "frequency-totals",
    "statistics.check_frequency_totals",
    {
        "mode": (
            ("sum-vs-total", "valid-sum", "invalid-sum", "valid-plus-invalid",
             "country-totals"),
            "load",
        ),
        "country_property": ("iri", "opt"),
    },
    ("R-42-MATHEMATICAL-OPERATIONS", "R-41-STATISTICAL-COMPUTATIONS"),
    "Per variable, category frequencies must agree with the summary case counts.",
    needs=("ctx", "stats"),
)
_register(
    "min-max-consistency",
    "statistics.check_min_max",
    {},
    ("R-42-MATHEMATICAL-OPERATIONS",),
    "A variable's minimum summary statistic must not exceed its maximum.",
    needs=("stats",),
)
_register(
    "cumulative-chain",
    "statistics.check_cumulative_chain",
    {"mode": (("chain", "last-100"), "load"), "tolerance": ("number", "opt")},
    ("R-42-MATHEMATICAL-OPERATIONS",),
    "Cumulative percentages must accumulate code by code and end at 100.",
    needs=("stats",),
)
_register(
    "statistic-applicability",
    "statistics.check_statistic_applicability",
    {"mode": (("string-stats", "categorical-mean"), "load")},
    ("R-42-MATHEMATICAL-OPERATIONS",),
    "Summary statistic types must be applicable to the variable's representation.",
    needs=("stats",),
)
_register(
    "qb-integrity",
    {ic: (f"cube.check_ic{ic}", ("ctx", "cube"))
     for ic in (*range(3, 9), *range(10, 19), 20, 21)},
    {},
    ("R-86-EXISTENTIAL-QUANTIFICATION-ON-PROPERTIES", "R-211-CARDINALITY-CONSTRAINTS"),
    "One of the Data Cube integrity constraints (IC-3 through IC-21).",
    by="ic",
)
_register(
    "skos-structure",
    {
        "orphan": ("skos.check_orphan", ("ctx",)),
        "disconnected": ("skos.check_disconnected", ("ctx",)),
        "cycles": ("skos.check_cycles", ("ctx", "hierarchy")),
        "valueless-associative": ("skos.check_valueless_associative", ("ctx", "hierarchy")),
        "solely-transitive": ("skos.check_solely_transitive", ("ctx",)),
        "unidirectional": ("skos.check_unidirectional", ("ctx",)),
        "omitted-top-concepts": ("skos.check_omitted_top_concepts", ("ctx",)),
        "top-with-broader": ("skos.check_top_with_broader", ("ctx",)),
        "hierarchical-redundancy": ("skos.check_hierarchical_redundancy", ("ctx", "hierarchy")),
        "reflexive": ("skos.check_reflexive", ("ctx",)),
    },
    {"depth_limit": ("int", "opt")},
    (),
    "Graph-structural quality checks over the concept hierarchy.",
    by="mode",
)
_register(
    "skos-clashes",
    {
        "relation": ("skos.check_relation_clash", ("ctx", "hierarchy")),
        "mapping": ("skos.check_mapping_clash", ("ctx",)),
        "misuse": ("skos.check_mapping_misuse", ("ctx",)),
    },
    {},
    (),
    "Semi-formal consistency checks between hierarchical, associative, and mapping links.",
    by="mode",
)
_register(
    "skos-labeling",
    {
        "undocumented": ("skos.check_undocumented", ("ctx",)),
        "overlapping": ("skos.check_overlapping_labels", ("ctx",)),
        "missing": ("skos.check_missing_labels", ("ctx",)),
        "unprintable": ("skos.check_unprintable_labels", ("ctx",)),
        "empty": ("skos.check_empty_labels", ("ctx",)),
        "ambiguous-notation": ("skos.check_ambiguous_notation", ("ctx",)),
    },
    {},
    (),
    "Labeling and documentation quality checks over concepts and schemes.",
    by="mode",
)
_register(
    "presence",
    "misc.check_presence",
    {
        "scope": ("iri", "eval"),
        "properties": ("iri_list", "opt"),
        "path": ("path", "opt"),
        "qualifier_class": ("iri", "opt"),
    },
    ("R-68-REQUIRED-PROPERTIES", "R-72-RECOMMENDED-PROPERTIES",
     "R-86-EXISTENTIAL-QUANTIFICATION-ON-PROPERTIES"),
    "Instances of a class must (or should) reach at least one value of a property or path.",
    eval_any_of=(("properties", "path"),),
)
_register(
    "conditional-properties",
    "misc.check_conditional_properties",
    {
        "scope": ("iri", "load"),
        "if_present": ("iri_list", "opt"),
        "if_absent": ("iri_list", "opt"),
        "require_all": ("iri_list", "opt"),
        "require_any": ("iri_list", "opt"),
        "via": ("iri", "opt"),
    },
    ("R-71-CONDITIONAL-PROPERTIES",),
    "When the antecedent properties are present (or absent), others become required.",
)
_register(
    "ordering",
    "misc.check_ordering",
    {
        "container": ("iri", "load"),
        "link": ("iri", "load"),
        "member_type": ("iri", "load"),
        "mode": (("linked-collection", "representation"), "load"),
    },
    ("R-121-SPECIFY-ORDER-OF-RDF-RESOURCES", "R-217-DEFINE-ORDER-FOR-FORMS/DISPLAY",
     "R-120-HANDLE-RDF-COLLECTIONS"),
    "Ordered members require a well-formed skos:memberList collection.",
)
_register(
    "aggregation",
    "misc.check_aggregation",
    {
        "scope": ("iri", "load"),
        "path": ("path", "opt"),
        "kind": (("path-count", "valid-frequency-sum", "collection-size-vs-declared"),
                 "opt"),
        "declared_property": ("iri", "opt"),
        "expect": ("int", "opt"),
        "min": ("int", "opt"),
        "max": ("int", "opt"),
    },
    ("R-120-HANDLE-RDF-COLLECTIONS",),
    "Counts per focus, checked against an expectation or reported as metrics.",
    eval_any_of=(("path", "kind"),),
    needs=("ctx", "stats"),
)
_register(
    "variable-comparability",
    "misc.check_variable_comparability",
    {
        "variables": ("iri_list", "eval"),
        "mode": (("sizes", "descriptions", "structure", "labels", "presence"), "load"),
    },
    ("R-120-HANDLE-RDF-COLLECTIONS",),
    "A declared comparison group of variables must be structurally comparable.",
    needs=("ctx", "stats"),
)
_register(
    "single-root",
    "misc.check_single_root",
    {"link_property": ("iri", "load")},
    (),
    "The targeted concept hierarchy must have exactly one root.",
)
_register(
    "subsuper-redundancy",
    "misc.check_subsuper_redundancy",
    {"general": ("iri", "load"), "specifics": ("iri_list", "load"),
     "flag_redundant": ("bool", "opt")},
    ("R-224-USE-SUB-SUPER-RELATIONS-IN-VALIDATION",),
    "Use of a general property where a sub-property is preferred, or redundant values.",
)
_register(
    "default-values",
    "misc.check_default_values",
    {"defaults": ("default_list", "load")},
    ("R-31-DEFAULT-VALUES-OF-RDF-OBJECTS", "R-38-DEFAULT-VALUES-OF-RDF-LITERALS"),
    "Instances lacking a property would receive its declared default value.",
)
_register(
    "value-datatype",
    "misc.check_value_datatype",
    {
        "properties": ("iri_list", "opt"),
        "datatype": ("iri", "opt"),
        "mode": (("listed", "all-literals"), "opt"),
    },
    (),
    "Literal lexical forms must be valid for their (or a required) datatype.",
)
_register(
    "not-evaluable",
    None,
    {},
    (),
    "A constraint named by the source material without enough body to evaluate.",
)


# --------------------------------------------------------------------------
# parameter validation


def _is_iri_like(value: str) -> bool:
    return ":" in value and " " not in value


def _expand_iri(value: Any, prefixes: dict[str, str], where: str) -> str:
    if not isinstance(value, str) or not value:
        raise CatalogError(f"{where}: expected an IRI string, got {value!r}")
    if "://" in value or value.startswith("urn:"):
        return value
    prefix, sep, local = value.partition(":")
    if sep and prefix in prefixes:
        return prefixes[prefix] + local
    if _is_iri_like(value):
        return value
    raise CatalogError(f"{where}: {value!r} is not an IRI or known compact name")


def _term_spec(value: Any, prefixes: dict[str, str], where: str) -> Any:
    if isinstance(value, str):
        return _expand_iri(value, prefixes, where)
    if isinstance(value, dict):
        if "lexical" not in value:
            raise CatalogError(f"{where}: literal term spec needs 'lexical'")
        unknown = set(value) - {"lexical", "lang", "datatype"}
        if unknown:
            raise CatalogError(f"{where}: unknown term spec keys {sorted(unknown)}")
        if not isinstance(value["lexical"], str):
            raise CatalogError(f"{where}: term spec 'lexical' must be a string")
        out = {"lexical": value["lexical"]}
        if "lang" in value:
            if not isinstance(value["lang"], str) or not value["lang"]:
                raise CatalogError(f"{where}: term spec 'lang' must be a non-empty string")
            out["lang"] = value["lang"]
        if "datatype" in value:
            out["datatype"] = _expand_iri(value["datatype"], prefixes, where)
            if ("lang" in out) != (out["datatype"] == RDF_LANGSTRING):
                raise CatalogError(
                    f"{where}: a term spec has 'lang' if and only if its datatype is "
                    "rdf:langString"
                )
        return out
    raise CatalogError(f"{where}: expected term spec, got {value!r}")


def _validate_path(value: Any, prefixes: dict[str, str], where: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise CatalogError(f"{where}: expected a non-empty list of path steps")
    steps: list[str] = []
    for step in value:
        if not isinstance(step, str):
            raise CatalogError(f"{where}: path step {step!r} is not a string")
        if step == "@members":
            steps.append(step)
        elif step.startswith("^"):
            steps.append("^" + _expand_iri(step[1:], prefixes, where))
        else:
            steps.append(_expand_iri(step, prefixes, where))
    return steps


def _validate_param(kind: Any, value: Any, prefixes: dict[str, str], where: str) -> Any:
    if kind == "iri":
        return _expand_iri(value, prefixes, where)
    if kind == "iri_list":
        if not isinstance(value, list):
            raise CatalogError(f"{where}: expected a list of IRIs")
        return [_expand_iri(v, prefixes, where) for v in value]
    if kind == "string":
        if not isinstance(value, str):
            raise CatalogError(f"{where}: expected a string")
        return value
    if kind == "string_list":
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise CatalogError(f"{where}: expected a list of strings")
        return list(value)
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise CatalogError(f"{where}: expected an integer")
        return value
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise CatalogError(f"{where}: expected a number")
        try:
            # an int of any size is a number; float() would overflow on it
            number = 0.0 if isinstance(value, int) else float(value)
        except ValueError:
            raise CatalogError(f"{where}: expected a number, got {value!r}") from None
        if math.isnan(number):
            raise CatalogError(f"{where}: expected a number, not NaN ({value!r})")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise CatalogError(f"{where}: expected a boolean")
        return value
    if kind == "pattern":
        if not isinstance(value, str):
            raise CatalogError(f"{where}: expected a regular expression string")
        try:
            re.compile(value)
        except re.error as exc:
            raise CatalogError(f"{where}: pattern does not compile: {exc}") from None
        return value
    if kind == "term":
        return _term_spec(value, prefixes, where)
    if kind == "term_list":
        if not isinstance(value, list):
            raise CatalogError(f"{where}: expected a list of term specs")
        return [_term_spec(v, prefixes, where) for v in value]
    if kind == "pairs":
        if not isinstance(value, list):
            raise CatalogError(f"{where}: expected a list of IRI pairs")
        out = []
        for pair in value:
            if not isinstance(pair, list) or len(pair) != 2:
                raise CatalogError(f"{where}: {pair!r} is not a 2-element pair")
            out.append([_expand_iri(pair[0], prefixes, where),
                        _expand_iri(pair[1], prefixes, where)])
        return out
    if kind == "groups":
        if not isinstance(value, list):
            raise CatalogError(f"{where}: expected a list of IRI groups")
        return [_validate_param("iri_list", g, prefixes, where) for g in value]
    if kind == "iri_map":
        if not isinstance(value, dict):
            raise CatalogError(f"{where}: expected a map of IRI to IRI list")
        return {
            _expand_iri(k, prefixes, where): _validate_param("iri_list", v, prefixes, where)
            for k, v in value.items()
        }
    if kind == "range_map":
        if not isinstance(value, dict):
            raise CatalogError(f"{where}: expected a map of IRI to range spec")
        return {
            _expand_iri(k, prefixes, where):
                _validate_fields(spec, *_RANGE_SPEC, prefixes, f"{where}[{k!r}]")
            for k, spec in value.items()
        }
    if kind == "path":
        return _validate_path(value, prefixes, where)
    if kind in _ROWS:
        if not isinstance(value, list):
            raise CatalogError(f"{where}: expected a list of objects")
        return [_validate_fields(row, *_ROWS[kind], prefixes, f"{where}[{i}]")
                for i, row in enumerate(value)]
    if isinstance(kind, tuple):
        if isinstance(kind[0], int):
            _validate_param("int", value, prefixes, where)
        if value not in kind:
            raise CatalogError(f"{where}: expected one of {list(kind)}, got {value!r}")
        return value
    raise AssertionError(f"unhandled param kind {kind}")


def _validate_fields(
    value: Any,
    schema: dict[str, tuple[Any, str]],
    any_of: tuple[tuple[str, ...], ...],
    prefixes: dict[str, str],
    where: str,
    noun: str = "key",
    path: str | None = None,
) -> dict[str, Any]:
    """The object ``value`` checked against ``schema``, its fields in schema
    order: no unknown key, each field present well-formed by its kind, each
    "load" field present and one field of each ``any_of`` group present.
    Diagnostics name the object ``where``, its fields ``path.NAME`` (``path``
    defaults to ``where``) and its keys ``noun``."""
    if not isinstance(value, dict):
        raise CatalogError(f"{where}: expected an object")
    unknown = set(value) - set(schema)
    if unknown:
        raise CatalogError(f"{where}: unknown {noun}s {sorted(unknown)}")
    out = {}
    for name, (kind, req) in schema.items():
        if name in value:
            out[name] = _validate_param(kind, value[name], prefixes, f"{path or where}.{name}")
        elif req == "load":
            raise CatalogError(f"{where}: missing required {noun} {name!r}")
    for group in any_of:
        if not any(name in out for name in group):
            raise CatalogError(
                f"{where}: missing required {noun} {' or '.join(map(repr, group))}"
            )
    return out


# The rows of a list kind, and the spec of each property of a range_map, as
# (schema, any-of groups): a rule holds a cardinality constraint's
# parameters and a range spec a property-range constraint's, less its
# property, and both load only with one field of each any-of group.
_CARDINALITY = CONSTRAINT_TYPES["cardinality"]
_PROPERTY_RANGE = CONSTRAINT_TYPES["property-range"]
_ROWS = {
    "rule_list": (_CARDINALITY.schema, _CARDINALITY.eval_any_of),
    "part_list": ({"path": ("path", "load")}, ()),
    "default_list": (
        {"scope": ("iri", "load"), "property": ("iri", "load"), "value": ("term", "load")},
        (),
    ),
}
_RANGE_SPEC = (
    {name: spec for name, spec in _PROPERTY_RANGE.schema.items() if name != "property"},
    _PROPERTY_RANGE.eval_any_of,
)

_INVENTORY_SCHEMA = {
    "name": ("string", "load"),
    "namespace": ("string", "opt"),
    "classes": ("iri_list", "opt"),
    "properties": ("iri_list", "opt"),
    "deprecated": ("iri_list", "opt"),
    "subclass_of": ("pairs", "opt"),
    "subproperty_of": ("pairs", "opt"),
    "inverse_pairs": ("pairs", "opt"),
    "equivalent_property_pairs": ("pairs", "opt"),
    "controlled_vocabularies": ("iri_map", "opt"),
}


# --------------------------------------------------------------------------
# domain objects


# Conditional evaluation requirements the declarative schema cannot express:
# given the params, return the names still needed before the constraint can
# run (it loads fine either way and reports as "not evaluable").
_EVAL_CHECKS = {
    "frequency-totals": lambda p: (
        ["country_property"]
        if p.get("mode") == "country-totals" and "country_property" not in p
        else []
    ),
    "vocab-membership": lambda p: (
        [n for n in ("property", "scheme") if n not in p]
        if p.get("mode", "scheme") == "scheme"
        else []
    ),
    "aggregation": lambda p: (
        ["path"]
        if p.get("kind", "path-count") == "path-count" and "path" not in p
        else []
    ),
}

_VOCAB_FROM_ID_PREFIX = {
    "DISCO-C-": "disco",
    "DATA-CUBE-C-": "qb",
    "SKOS-C-": "skos",
    "XKOS-C-": "xkos",
    "PHDD-C-": "phdd",
    "DCAT-C-": "dcat",
}


@dataclass(frozen=True)
class Constraint:
    id: str
    type: str
    severity: Severity
    params: dict[str, Any]
    scope: str | None = None
    vocabulary: str | None = None
    reference: str = ""
    description: str = ""

    @property
    def missing_eval_params(self) -> list[str]:
        ctype = CONSTRAINT_TYPES[self.type]
        missing = [
            name
            for name, (_kind, req) in ctype.schema.items()
            if req == "eval" and name not in self.params
        ]
        for group in ctype.eval_any_of:
            if not any(name in self.params for name in group):
                missing.append(" or ".join(group))
        extra_check = _EVAL_CHECKS.get(self.type)
        if extra_check is not None:
            missing.extend(extra_check(self.params))
        return missing

    @property
    def evaluable(self) -> bool:
        return self.type != "not-evaluable" and not self.missing_eval_params


@dataclass
class VocabularyInventory:
    name: str
    namespace: str = ""
    classes: set[str] = field(default_factory=set)
    properties: set[str] = field(default_factory=set)
    deprecated: set[str] = field(default_factory=set)
    subclass_of: list[tuple[str, str]] = field(default_factory=list)
    subproperty_of: list[tuple[str, str]] = field(default_factory=list)
    inverse_pairs: list[tuple[str, str]] = field(default_factory=list)
    equivalent_property_pairs: list[tuple[str, str]] = field(default_factory=list)
    controlled_vocabularies: dict[str, list[str]] = field(default_factory=dict)

    def declared(self) -> set[str]:
        return self.classes | self.properties | self.deprecated


def _parents(edges: list[tuple[str, str]]) -> dict[str, dict[str, None]]:
    """Each child's parents, in edge order, so that a cycle is found, and
    named, the same way under every hash seed."""
    direct: dict[str, dict[str, None]] = {}
    for child, parent in edges:
        direct.setdefault(child, {})[parent] = None
    return direct


def _check_acyclic(direct: dict[str, dict[str, None]]) -> None:
    """Raise CatalogError naming the path of the first cycle found. One
    depth-first pass in edge order, without recursion: a class is on the
    path while its parents are read, and done after, so each edge is
    followed once."""
    done: set[str] = set()
    for root in direct:
        if root in done:
            continue
        # the path from root, each class with its parents still to read
        stack = [(root, iter(direct[root]))]
        on_path = {root}
        while stack:
            node, parents = stack[-1]
            for parent in parents:
                if parent in done:
                    continue
                if parent in on_path:
                    trail = " -> ".join([entry[0] for entry in stack] + [parent])
                    raise CatalogError(f"cycle in hierarchy edges through {trail}")
                stack.append((parent, iter(direct.get(parent, ()))))
                on_path.add(parent)
                break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)


def _ancestors(direct: dict[str, dict[str, None]], start: str) -> frozenset[str]:
    """``start`` and every class above it."""
    seen = {start}
    stack = [start]
    while stack:
        for parent in direct.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return frozenset(seen)


class Catalog:
    """Immutable-by-convention bundle of constraints and inventories."""

    def __init__(
        self,
        constraints: dict[str, Constraint],
        inventories: dict[str, VocabularyInventory],
    ):
        self.constraints = dict(constraints)
        self.inventories = dict(inventories)
        subclass_edges: list[tuple[str, str]] = []
        subproperty_edges: list[tuple[str, str]] = []
        # scheme IRI -> member IRIs, over all inventories (later ones win)
        self.controlled_vocabularies: dict[str, list[str]] = {}
        for inv in self.inventories.values():
            subclass_edges.extend(inv.subclass_of)
            subproperty_edges.extend(inv.subproperty_of)
            self.controlled_vocabularies.update(inv.controlled_vocabularies)
        # the direct edges only; the ancestors of a class or property are
        # found and kept when first asked for, so memory stays linear in
        # the edges the catalog states
        self._subclass_of = _parents(subclass_edges)
        self._subproperty_of = _parents(subproperty_edges)
        _check_acyclic(self._subclass_of)
        _check_acyclic(self._subproperty_of)
        self._superclasses: dict[str, frozenset[str]] = {}
        self._superproperties: dict[str, frozenset[str]] = {}
        known = set(BUILTIN_VOCABULARIES) | set(self.inventories)
        for constraint in self.constraints.values():
            name = constraint.params.get("vocabulary")
            if name is not None and name not in known:
                raise CatalogError(
                    f"constraint {constraint.id!r}: params.vocabulary: unknown vocabulary "
                    f"{name!r}; known vocabularies: {', '.join(sorted(known))}"
                )

    def superclasses(self, cls: str) -> frozenset[str]:
        """``cls`` and every class above it."""
        found = self._superclasses.get(cls)
        if found is None:
            found = self._superclasses[cls] = _ancestors(self._subclass_of, cls)
        return found

    def superproperties(self, prop: str) -> frozenset[str]:
        """``prop`` and every property above it."""
        found = self._superproperties.get(prop)
        if found is None:
            found = self._superproperties[prop] = _ancestors(self._subproperty_of, prop)
        return found

    def subclass_related(self, a: str, b: str) -> bool:
        return b in self.superclasses(a) or a in self.superclasses(b)

    def subproperty_related(self, a: str, b: str) -> bool:
        return b in self.superproperties(a) or a in self.superproperties(b)

    def inventory(self, name: str) -> VocabularyInventory:
        try:
            return self.inventories[name]
        except KeyError:
            known = ", ".join(sorted(self.inventories)) or "(none)"
            raise CatalogError(
                f"unknown vocabulary {name!r}; known vocabularies: {known}"
            ) from None

    def select(self, vocabularies: set[str] | None = None) -> list[Constraint]:
        """Constraints of the given vocabularies (empty/None = all), by id.
        Each must find the inventory its ``vocabulary`` parameter names: a
        built-in one passes the load without being loaded."""
        known = ", ".join(sorted(self.inventories)) or "(none)"
        if vocabularies:
            unknown = vocabularies - set(self.inventories)
            if unknown:
                raise CatalogError(
                    f"unknown vocabulary name(s) {sorted(unknown)}; known: {known}"
                )
        chosen = []
        for constraint in self.constraints.values():
            if not vocabularies or constraint.vocabulary in vocabularies:
                name = constraint.params.get("vocabulary")
                if name is not None and name not in self.inventories:
                    raise CatalogError(
                        f"constraint {constraint.id!r}: params.vocabulary: vocabulary "
                        f"{name!r} is not loaded; loaded vocabularies: {known}"
                    )
                chosen.append(constraint)
        return sorted(chosen, key=lambda c: c.id)

    def explain(self, constraint_id: str) -> dict[str, Any]:
        constraint = self.constraints.get(constraint_id)
        if constraint is None:
            raise CatalogError(f"unknown constraint id {constraint_id!r}")
        ctype = CONSTRAINT_TYPES[constraint.type]
        return {
            "id": constraint.id,
            "type": constraint.type,
            "severity": str(constraint.severity),
            "scope": constraint.scope,
            "vocabulary": constraint.vocabulary,
            "params": constraint.params,
            "reference": constraint.reference,
            "description": constraint.description or ctype.description,
            "requirements": list(ctype.requirements),
            "evaluable": constraint.evaluable,
        }


def _parse_inventory(entry: Any, prefixes: dict[str, str]) -> VocabularyInventory:
    if not isinstance(entry, dict):
        raise CatalogError("vocabulary entry must be an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError("vocabulary entry missing 'name'")
    where = f"vocabulary {name!r}"
    fields = _validate_fields(entry, _INVENTORY_SCHEMA, (), prefixes, where)
    for key, value in fields.items():
        kind = _INVENTORY_SCHEMA[key][0]
        if kind == "iri_list":
            fields[key] = set(value)
        elif kind == "pairs":
            fields[key] = [tuple(pair) for pair in value]
    inv = VocabularyInventory(**fields)
    if not inv.namespace:
        inv.namespace = _guess_namespace(inv)
    declared = inv.declared()
    for child, parent in inv.subclass_of + inv.subproperty_of:
        for endpoint in (child, parent):
            if endpoint.startswith(inv.namespace) and endpoint not in declared:
                raise CatalogError(
                    f"{where}: hierarchy edge endpoint {endpoint} is in the vocabulary "
                    "namespace but not declared"
                )
    return inv


def _guess_namespace(inv: VocabularyInventory) -> str:
    candidates = sorted(inv.classes | inv.properties)
    if not candidates:
        return ""
    split = max(candidates[0].rfind("#"), candidates[0].rfind("/"))
    return candidates[0][: split + 1] if split > 0 else ""


_ENTRY_TEXT = {name: ("string", "opt") for name in ("vocabulary", "reference", "description")}


def _parse_constraint(cid: str, entry: dict, prefixes: dict[str, str]) -> Constraint:
    where = f"constraint {cid!r}"
    allowed = {"id", "type", "severity", "scope", "params", *_ENTRY_TEXT}
    unknown = set(entry) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown keys {sorted(unknown)}")
    type_id = entry.get("type")
    if type_id not in CONSTRAINT_TYPES:
        raise CatalogError(f"{where}: unknown constraint type {type_id!r}")
    ctype = CONSTRAINT_TYPES[type_id]
    severity = Severity.parse(entry.get("severity", ""))
    raw_params = entry.get("params", {})
    if not isinstance(raw_params, dict):
        raise CatalogError(f"{where}: params must be an object")
    params = _validate_fields(raw_params, ctype.schema, (), prefixes, where, "param",
                              f"{where}.params")
    scope = entry.get("scope")
    if scope is not None:
        scope = _expand_iri(scope, prefixes, f"{where}.scope")
    text = _validate_fields({k: v for k, v in entry.items() if k in _ENTRY_TEXT},
                            _ENTRY_TEXT, (), prefixes, where)
    vocabulary = text.get("vocabulary")
    if vocabulary is None:
        for prefix, vocab in _VOCAB_FROM_ID_PREFIX.items():
            if cid.startswith(prefix):
                vocabulary = vocab
                break
    return Constraint(
        id=cid,
        type=type_id,
        severity=severity,
        params=params,
        scope=scope,
        vocabulary=vocabulary,
        reference=text.get("reference", ""),
        description=text.get("description", ""),
    )


def _read_document(document: bytes | str | dict) -> tuple[dict, dict[str, str]]:
    """Decode a catalog document and check its top-level shape; returns the
    document and its prefix table (well-known prefixes plus its own)."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CatalogError(f"catalog is not valid UTF-8: {exc}") from None
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        # also an integer past the digit limit, or arrays nested past the
        # recursion limit
        except (ValueError, RecursionError) as exc:
            raise CatalogError(f"catalog is not valid JSON: {exc}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise CatalogError("catalog document must be a JSON object")
    unknown = set(doc) - {"prefixes", "vocabularies", "constraints"}
    if unknown:
        raise CatalogError(f"catalog: unknown top-level keys {sorted(unknown)}")
    raw_prefixes = doc.get("prefixes", {})
    if not isinstance(raw_prefixes, dict):
        raise CatalogError("catalog 'prefixes' must be an object")
    for key in ("vocabularies", "constraints"):
        if not isinstance(doc.get(key, []), list):
            raise CatalogError(f"catalog {key!r} must be an array")
    prefixes = dict(WELL_KNOWN_PREFIXES)
    prefixes.update({str(k): str(v) for k, v in raw_prefixes.items()})
    return doc, prefixes


def merge_catalogs(base: Catalog, override: bytes | str | dict) -> Catalog:
    """Layer the catalog document ``override`` (JSON bytes or text, or the
    parsed object) on top of ``base``; the shipped catalogs and ``--catalog``
    files are merged alike.

    Full entries (carrying a ``type``) replace or add; severity patches are
    plain objects with only ``id`` and ``severity`` and must name an
    existing constraint.
    """
    constraints = dict(base.constraints)
    inventories = dict(base.inventories)
    doc, prefixes = _read_document(override)

    for entry in doc.get("vocabularies", []):
        inv = _parse_inventory(entry, prefixes)
        inventories[inv.name] = inv

    seen: set[str] = set()
    for entry in doc.get("constraints", []):
        if not isinstance(entry, dict):
            raise CatalogError("constraint entry must be an object")
        cid = entry.get("id")
        if not isinstance(cid, str) or not cid:
            raise CatalogError("constraint entry missing 'id'")
        if cid in seen:
            raise CatalogError(f"duplicate constraint id {cid!r} in override")
        seen.add(cid)
        if "type" not in entry:
            extra = set(entry) - {"id", "severity"}
            if extra:
                raise CatalogError(
                    f"constraint {cid!r}: severity patch may only set 'severity' "
                    f"(found {sorted(extra)})"
                )
            if cid not in constraints:
                raise CatalogError(f"severity patch for unknown constraint id {cid!r}")
            constraints[cid] = replace(
                constraints[cid], severity=Severity.parse(entry.get("severity", ""))
            )
        else:
            constraints[cid] = _parse_constraint(cid, entry, prefixes)
    return Catalog(constraints, inventories)


_BUILTIN_FILES = {
    "disco": "disco.json",
    "qb": "qb.json",
    "skos": "skos.json",
    "xkos": "xkos.json",
    "phdd": "phdd.json",
    "dcat": "dcat.json",
}

BUILTIN_VOCABULARIES = tuple(sorted(_BUILTIN_FILES))


def builtin_catalog(names: set[str] | None = None) -> Catalog:
    """Load the shipped catalogs, optionally restricted to some vocabularies."""
    chosen = sorted(names) if names else sorted(_BUILTIN_FILES)
    unknown = set(chosen) - set(_BUILTIN_FILES)
    if unknown:
        raise CatalogError(
            f"unknown built-in vocabulary name(s) {sorted(unknown)}; "
            f"known: {', '.join(sorted(_BUILTIN_FILES))}"
        )
    merged = Catalog({}, {})
    for name in chosen:
        data = resources.files("rdfcheck.data").joinpath(_BUILTIN_FILES[name]).read_text("utf-8")
        merged = merge_catalogs(merged, data)
    return merged
