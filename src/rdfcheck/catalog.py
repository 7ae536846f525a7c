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
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

from .namespaces import WELL_KNOWN_PREFIXES


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


# Parameter kinds understood by the generic schema validator. "load"
# parameters must be present and well-formed at load time; "eval"
# parameters may be absent (the constraint then reports as not evaluable);
# "opt" parameters are optional in every sense.
_REQ_LEVELS = ("load", "eval", "opt")


@dataclass(frozen=True)
class ConstraintType:
    """A constraint type: its parameter schema and the checker evaluating it.

    ``check`` names the checker as ``"<module>.<function>"`` under
    ``rdfcheck.checks`` (a string, because the checkers import this module).
    ``needs`` lists the shared run objects it takes first, from "ctx" (the
    graph context), "cube", "stats" and "hierarchy" (the extracted models).
    The engine calls it with those objects, then the "load"/"eval"
    parameters positionally in schema order, then the "opt" parameters the
    constraint sets as keywords under their schema names (an optional
    ``scope`` falls back to the constraint's own scope), then ``cid`` and
    ``severity``.
    """

    id: str
    check: str | None
    schema: dict[str, tuple[str, str]]
    requirements: tuple[str, ...] = ()
    description: str = ""
    eval_any_of: tuple[tuple[str, ...], ...] = ()
    needs: tuple[str, ...] = ("ctx",)

    def __post_init__(self) -> None:
        for name, (kind, req) in self.schema.items():
            if req not in _REQ_LEVELS:
                raise ValueError(f"{self.id}.{name}: bad requirement level {req}")


def _mode(*values: str) -> str:
    return "mode:" + "|".join(values)


_RULE_SCHEMA = {
    "property": ("iri", "load"),
    "scope": ("iri", "load"),
    "min": ("int", "opt"),
    "max": ("int", "opt"),
    "qualifier_class": ("iri", "opt"),
    "qualifier_datatype": ("iri", "opt"),
}

_PART_SCHEMA = {"path": ("path", "load")}
_DEFAULT_SCHEMA = {
    "scope": ("iri", "load"),
    "property": ("iri", "load"),
    "value": ("term", "load"),
}

CONSTRAINT_TYPES: dict[str, ConstraintType] = {}


def _register(
    type_id: str,
    check: str | None,
    schema: dict[str, tuple[str, str]],
    requirements: tuple[str, ...] = (),
    description: str = "",
    eval_any_of: tuple[tuple[str, ...], ...] = (),
    needs: tuple[str, ...] = ("ctx",),
) -> None:
    CONSTRAINT_TYPES[type_id] = ConstraintType(
        type_id, check, schema, requirements, description, eval_any_of, needs
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
    "cube.check_membership",
    {
        "mode": (_mode("scheme", "qb-codelist"), "opt"),
        "property": ("iri", "opt"),
        "scope": ("iri", "opt"),
        "scheme": ("iri", "opt"),
    },
    ("R-32-MEMBERSHIP-OF-RDF-OBJECTS-IN-CONTROLLED-VOCABULARIES",
     "R-39-MEMBERSHIP-OF-RDF-LITERALS-IN-CONTROLLED-VOCABULARIES"),
    "Property values must belong to a named controlled vocabulary or code list.",
    needs=("ctx", "cube"),
)
_register(
    "deprecated-terms",
    "schema.check_deprecated_terms",
    {"vocabulary": ("string", "load"),
     "kind": (_mode("classes", "properties"), "load")},
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
        "position": (_mode("subject", "predicate", "object"), "load"),
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
        "op": (_mode("<", "<=", ">", ">=", "=", "!="), "load"),
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
        "mode": (_mode("omitted-or-invalid", "incomplete", "no-common"), "load"),
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
        "mode": (_mode("vocab-properties", "class-subjects"), "opt"),
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
            _mode("sum-vs-total", "valid-sum", "invalid-sum", "valid-plus-invalid",
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
    {"mode": (_mode("chain", "last-100"), "load"), "tolerance": ("number", "opt")},
    ("R-42-MATHEMATICAL-OPERATIONS",),
    "Cumulative percentages must accumulate code by code and end at 100.",
    needs=("stats",),
)
_register(
    "statistic-applicability",
    "statistics.check_statistic_applicability",
    {"mode": (_mode("string-stats", "categorical-mean"), "load")},
    ("R-42-MATHEMATICAL-OPERATIONS",),
    "Summary statistic types must be applicable to the variable's representation.",
    needs=("stats",),
)
_register(
    "qb-integrity",
    "cube.check_qb_integrity",
    {"ic": ("int", "load")},
    ("R-86-EXISTENTIAL-QUANTIFICATION-ON-PROPERTIES", "R-211-CARDINALITY-CONSTRAINTS"),
    "One of the Data Cube integrity constraints (IC-3 through IC-21).",
    needs=("ctx", "cube"),
)
_register(
    "skos-structure",
    "skos.check_skos_structure",
    {
        "mode": (
            _mode("orphan", "disconnected", "cycles", "valueless-associative",
                  "solely-transitive", "unidirectional", "omitted-top-concepts",
                  "top-with-broader", "hierarchical-redundancy", "reflexive"),
            "load",
        ),
        "depth_limit": ("int", "opt"),
    },
    (),
    "Graph-structural quality checks over the concept hierarchy.",
    needs=("ctx", "hierarchy"),
)
_register(
    "skos-clashes",
    "skos.check_skos_clashes",
    {"mode": (_mode("relation", "mapping", "misuse"), "load")},
    (),
    "Semi-formal consistency checks between hierarchical, associative, and mapping links.",
    needs=("ctx", "hierarchy"),
)
_register(
    "skos-labeling",
    "skos.check_skos_labeling",
    {
        "mode": (
            _mode("undocumented", "overlapping", "missing", "unprintable", "empty",
                  "ambiguous-notation"),
            "load",
        )
    },
    (),
    "Labeling and documentation quality checks over concepts and schemes.",
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
        "mode": (_mode("linked-collection", "representation"), "load"),
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
        "kind": (_mode("path-count", "valid-frequency-sum",
                       "collection-size-vs-declared"), "opt"),
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
        "mode": (_mode("sizes", "descriptions", "structure", "labels", "presence"),
                 "load"),
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
        "mode": (_mode("listed", "all-literals"), "opt"),
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
    if sep and prefix in WELL_KNOWN_PREFIXES:
        return WELL_KNOWN_PREFIXES[prefix] + local
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
        out = {"lexical": str(value["lexical"])}
        if "lang" in value:
            out["lang"] = str(value["lang"])
        if "datatype" in value:
            out["datatype"] = _expand_iri(value["datatype"], prefixes, where)
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


def _validate_param(kind: str, value: Any, prefixes: dict[str, str], where: str) -> Any:
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
            float(value)
        except (TypeError, ValueError):
            raise CatalogError(f"{where}: expected a number, got {value!r}") from None
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
        out = {}
        for k, spec in value.items():
            prop = _expand_iri(k, prefixes, where)
            if not isinstance(spec, dict):
                raise CatalogError(f"{where}: range spec for {k} must be an object")
            unknown = set(spec) - {"classes", "datatype", "scope"}
            if unknown:
                raise CatalogError(f"{where}: unknown range spec keys {sorted(unknown)}")
            if "classes" not in spec and "datatype" not in spec:
                raise CatalogError(f"{where}: range spec for {k} needs classes or datatype")
            norm: dict[str, Any] = {}
            if "classes" in spec:
                norm["classes"] = _validate_param("iri_list", spec["classes"], prefixes, where)
            if "datatype" in spec:
                norm["datatype"] = _expand_iri(spec["datatype"], prefixes, where)
            if "scope" in spec:
                norm["scope"] = _expand_iri(spec["scope"], prefixes, where)
            out[prop] = norm
        return out
    if kind == "path":
        return _validate_path(value, prefixes, where)
    if kind == "rule_list":
        return _validate_obj_list(value, _RULE_SCHEMA, prefixes, where)
    if kind == "part_list":
        return _validate_obj_list(value, _PART_SCHEMA, prefixes, where)
    if kind == "default_list":
        return _validate_obj_list(value, _DEFAULT_SCHEMA, prefixes, where)
    if kind.startswith("mode:"):
        allowed = kind[5:].split("|")
        if value not in allowed:
            raise CatalogError(f"{where}: expected one of {allowed}, got {value!r}")
        return value
    raise AssertionError(f"unhandled param kind {kind}")


def _validate_obj_list(
    value: Any, schema: dict[str, tuple[str, str]], prefixes: dict[str, str], where: str
) -> list[dict[str, Any]]:
    if not isinstance(value, list):
        raise CatalogError(f"{where}: expected a list of objects")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise CatalogError(f"{where}[{i}]: expected an object")
        unknown = set(entry) - set(schema)
        if unknown:
            raise CatalogError(f"{where}[{i}]: unknown keys {sorted(unknown)}")
        norm = {}
        for name, (kind, req) in schema.items():
            if name in entry:
                norm[name] = _validate_param(kind, entry[name], prefixes, f"{where}[{i}].{name}")
            elif req == "load":
                raise CatalogError(f"{where}[{i}]: missing required key {name!r}")
        out.append(norm)
    return out


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


def _transitive_closure(edges: list[tuple[str, str]]) -> dict[str, set[str]]:
    direct: dict[str, set[str]] = {}
    for child, parent in edges:
        direct.setdefault(child, set()).add(parent)
    closure: dict[str, set[str]] = {}

    def ancestors(node: str, trail: tuple[str, ...]) -> set[str]:
        if node in closure:
            return closure[node]
        if node in trail:
            raise CatalogError(
                "cycle in hierarchy edges through " + " -> ".join(trail + (node,))
            )
        result: set[str] = set()
        for parent in direct.get(node, ()):
            result.add(parent)
            result |= ancestors(parent, trail + (node,))
        closure[node] = result
        return result

    for node in list(direct):
        ancestors(node, ())
    return closure


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
        self.subclass_closure = _transitive_closure(subclass_edges)
        self.subproperty_closure = _transitive_closure(subproperty_edges)

    def superclasses(self, cls: str) -> set[str]:
        return {cls} | self.subclass_closure.get(cls, set())

    def superproperties(self, prop: str) -> set[str]:
        return {prop} | self.subproperty_closure.get(prop, set())

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

    def select(
        self,
        vocabularies: set[str] | None = None,
        types: set[str] | None = None,
    ) -> list[Constraint]:
        """Constraints matching both filters (empty/None = no filter), by id."""
        if vocabularies:
            unknown = vocabularies - set(self.inventories)
            if unknown:
                known = ", ".join(sorted(self.inventories)) or "(none)"
                raise CatalogError(
                    f"unknown vocabulary name(s) {sorted(unknown)}; known: {known}"
                )
        chosen = []
        for constraint in self.constraints.values():
            if vocabularies and constraint.vocabulary not in vocabularies:
                continue
            if types and constraint.type not in types:
                continue
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

    def to_json(self) -> str:
        doc = {
            "vocabularies": [
                {
                    "name": inv.name,
                    "namespace": inv.namespace,
                    "classes": sorted(inv.classes),
                    "properties": sorted(inv.properties),
                    "deprecated": sorted(inv.deprecated),
                    "subclass_of": [list(e) for e in sorted(inv.subclass_of)],
                    "subproperty_of": [list(e) for e in sorted(inv.subproperty_of)],
                    "inverse_pairs": [list(e) for e in sorted(inv.inverse_pairs)],
                    "equivalent_property_pairs": [
                        list(e) for e in sorted(inv.equivalent_property_pairs)
                    ],
                    "controlled_vocabularies": {
                        k: sorted(v) for k, v in sorted(inv.controlled_vocabularies.items())
                    },
                }
                for inv in sorted(self.inventories.values(), key=lambda i: i.name)
            ],
            "constraints": [
                _constraint_to_json(c)
                for c in sorted(self.constraints.values(), key=lambda c: c.id)
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=False)


def _constraint_to_json(c: Constraint) -> dict[str, Any]:
    out: dict[str, Any] = {"id": c.id, "type": c.type, "severity": str(c.severity)}
    if c.scope:
        out["scope"] = c.scope
    out["params"] = c.params
    if c.vocabulary:
        out["vocabulary"] = c.vocabulary
    if c.reference:
        out["reference"] = c.reference
    if c.description:
        out["description"] = c.description
    return out


def _parse_inventory(entry: Any, prefixes: dict[str, str]) -> VocabularyInventory:
    if not isinstance(entry, dict):
        raise CatalogError("vocabulary entry must be an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError("vocabulary entry missing 'name'")
    where = f"vocabulary {name!r}"
    allowed = {
        "name", "namespace", "classes", "properties", "deprecated", "subclass_of",
        "subproperty_of", "inverse_pairs", "equivalent_property_pairs",
        "controlled_vocabularies",
    }
    unknown = set(entry) - allowed
    if unknown:
        raise CatalogError(f"{where}: unknown keys {sorted(unknown)}")

    def iri_set(key: str) -> set[str]:
        return set(_validate_param("iri_list", entry.get(key, []), prefixes, f"{where}.{key}"))

    def pair_list(key: str) -> list[tuple[str, str]]:
        pairs = _validate_param("pairs", entry.get(key, []), prefixes, f"{where}.{key}")
        return [tuple(p) for p in pairs]  # type: ignore[misc]

    controlled: dict[str, list[str]] = {}
    raw_cv = entry.get("controlled_vocabularies", {})
    if not isinstance(raw_cv, dict):
        raise CatalogError(f"{where}.controlled_vocabularies: expected an object")
    for scheme, members in raw_cv.items():
        controlled[_expand_iri(scheme, prefixes, where)] = _validate_param(
            "iri_list", members, prefixes, f"{where}.controlled_vocabularies"
        )

    inv = VocabularyInventory(
        name=name,
        namespace=str(entry.get("namespace", "")),
        classes=iri_set("classes"),
        properties=iri_set("properties"),
        deprecated=iri_set("deprecated"),
        subclass_of=pair_list("subclass_of"),
        subproperty_of=pair_list("subproperty_of"),
        inverse_pairs=pair_list("inverse_pairs"),
        equivalent_property_pairs=pair_list("equivalent_property_pairs"),
        controlled_vocabularies=controlled,
    )
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


def _parse_constraint(entry: Any, prefixes: dict[str, str]) -> Constraint:
    if not isinstance(entry, dict):
        raise CatalogError("constraint entry must be an object")
    cid = entry.get("id")
    if not isinstance(cid, str) or not cid:
        raise CatalogError("constraint entry missing 'id'")
    where = f"constraint {cid!r}"
    allowed = {"id", "type", "severity", "scope", "params", "vocabulary", "reference",
               "description"}
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
    unknown_params = set(raw_params) - set(ctype.schema)
    if unknown_params:
        raise CatalogError(f"{where}: unknown params {sorted(unknown_params)}")
    params: dict[str, Any] = {}
    for name, (kind, req) in ctype.schema.items():
        if name in raw_params:
            params[name] = _validate_param(kind, raw_params[name], prefixes,
                                           f"{where}.params.{name}")
        elif req == "load":
            raise CatalogError(f"{where}: missing required param {name!r}")
    scope = entry.get("scope")
    if scope is not None:
        scope = _expand_iri(scope, prefixes, f"{where}.scope")
    vocabulary = entry.get("vocabulary")
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
        reference=str(entry.get("reference", "")),
        description=str(entry.get("description", "")),
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
        except json.JSONDecodeError as exc:
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


def load_catalog(document: bytes | str | dict) -> Catalog:
    """Parse and validate one catalog document."""
    doc, prefixes = _read_document(document)

    inventories: dict[str, VocabularyInventory] = {}
    for entry in doc.get("vocabularies", []):
        inv = _parse_inventory(entry, prefixes)
        if inv.name in inventories:
            raise CatalogError(f"duplicate vocabulary name {inv.name!r}")
        inventories[inv.name] = inv

    constraints: dict[str, Constraint] = {}
    for entry in doc.get("constraints", []):
        constraint = _parse_constraint(entry, prefixes)
        if constraint.id in constraints:
            raise CatalogError(f"duplicate constraint id {constraint.id!r}")
        constraints[constraint.id] = constraint

    return Catalog(constraints, inventories)


def merge_catalogs(base: Catalog, override: Catalog | bytes | str | dict) -> Catalog:
    """Layer ``override`` on top of ``base``.

    Full entries (carrying a ``type``) replace or add; severity patches are
    plain objects with only ``id`` and ``severity`` and must name an
    existing constraint.
    """
    constraints = dict(base.constraints)
    inventories = dict(base.inventories)
    if isinstance(override, Catalog):
        for name, inv in override.inventories.items():
            inventories[name] = inv
        for cid, constraint in override.constraints.items():
            constraints[cid] = constraint
        return Catalog(constraints, inventories)

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
            original = constraints[cid]
            constraints[cid] = Constraint(
                id=original.id,
                type=original.type,
                severity=Severity.parse(entry.get("severity", "")),
                params=original.params,
                scope=original.scope,
                vocabulary=original.vocabulary,
                reference=original.reference,
                description=original.description,
            )
        else:
            constraints[cid] = _parse_constraint(entry, prefixes)
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
    merged: Catalog | None = None
    for name in chosen:
        data = resources.files("rdfcheck.data").joinpath(_BUILTIN_FILES[name]).read_text("utf-8")
        catalog = load_catalog(data)
        merged = catalog if merged is None else merge_catalogs(merged, catalog)
    return merged if merged is not None else Catalog({}, {})
