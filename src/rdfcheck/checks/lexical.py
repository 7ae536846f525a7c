"""Literal- and IRI-level checkers: facets, patterns, ranges, comparisons,
language tags, whitespace, HTML balance, string composition.

All of these operate on lexical forms exactly as parsed; nothing is
trimmed, case-folded, or normalized before checking.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from decimal import Decimal
from itertools import chain

from ..namespaces import RDFS_LABEL, SKOS, compact
from ..terms import Iri, Literal, Term, Triple
from ..violations import Finding, finding
from ..xsd import (
    InvalidLexicalError,
    UnknownDatatypeError,
    literal_value,
    numeric_key,
)
from .context import GraphContext, scoped_literals
from .skos import DOCUMENTATION_PROPERTIES

_BCP47_SHAPE = re.compile(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8})*")


def check_facets(
    ctx: GraphContext,
    prop: str,
    *,
    scope: str | None = None,
    min_length: int | None = None,
    max_length: int | None = None,
    pattern: str | None = None,
    min=None,
    max=None,
    min_exclusive: bool = False,
    max_exclusive: bool = False,
) -> list[Finding]:
    """One violation per literal per failed facet. Lengths count Unicode
    scalar values of the lexical form."""
    compiled = re.compile(pattern) if pattern is not None else None
    lo = Decimal(str(min)) if min is not None else None
    hi = Decimal(str(max)) if max is not None else None
    out = []
    for subject, lit in scoped_literals(ctx, prop, scope):
        length = len(lit.lexical)
        if min_length is not None and length < min_length:
            out.append(
                finding(
                    subject, f"minLength|{lit}",
                    f"value of {compact(prop)} has length {length}, "
                    f"minimum is {min_length}", (prop,),
                )
            )
        if max_length is not None and length > max_length:
            out.append(
                finding(
                    subject, f"maxLength|{lit}",
                    f"value of {compact(prop)} has length {length}, "
                    f"maximum is {max_length}", (prop,),
                )
            )
        if compiled is not None and not compiled.fullmatch(lit.lexical):
            out.append(
                finding(
                    subject, f"pattern|{lit}",
                    f"value {lit} of {compact(prop)} does not match the "
                    f"facet pattern {pattern!r}", (prop,),
                )
            )
        if lo is not None or hi is not None:
            try:
                key = numeric_key(literal_value(lit))
            except (InvalidLexicalError, UnknownDatatypeError):
                key = None
            if key is not None:
                if lo is not None and (key < lo or (min_exclusive and key == lo)):
                    out.append(
                        finding(
                            subject, f"minValue|{lit}",
                            f"value {lit} of {compact(prop)} is below the "
                            f"minimum {min}", (prop,),
                        )
                    )
                if hi is not None and (key > hi or (max_exclusive and key == hi)):
                    out.append(
                        finding(
                            subject, f"maxValue|{lit}",
                            f"value {lit} of {compact(prop)} is above the "
                            f"maximum {max}", (prop,),
                        )
                    )
    return out


def check_literal_pattern(
    ctx: GraphContext,
    prop: str,
    pattern: str,
    *,
    scope: str | None = None,
    negated: bool = False,
    substring: bool = False,
    case_insensitive: bool = False,
) -> list[Finding]:
    """Full-match anchoring by default; substring mode is opt-in."""
    flags = re.IGNORECASE if case_insensitive else 0
    compiled = re.compile(pattern, flags)
    out = []
    for subject, lit in scoped_literals(ctx, prop, scope):
        matched = bool(
            compiled.search(lit.lexical) if substring else compiled.fullmatch(lit.lexical)
        )
        if matched == negated:
            verb = "matches the forbidden" if negated else "does not match the required"
            out.append(
                finding(
                    subject, str(lit),
                    f"value {lit} of {compact(prop)} {verb} pattern {pattern!r}",
                    (prop,),
                )
            )
    return out


def check_iri_pattern(
    ctx: GraphContext,
    position: str,
    pattern: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    """IRIs in the stated triple position must match the pattern. With a
    scope, subjects are filtered by type (subject position) or the IRI set
    is limited to scope instances."""
    compiled = re.compile(pattern)
    seen: set[Iri] = set()
    out = []
    for triple in ctx.graph:
        term: Term
        if position == "subject":
            term = triple.subject
        elif position == "predicate":
            term = triple.predicate
        else:
            term = triple.object
        if not isinstance(term, Iri) or term in seen:
            continue
        if scope is not None and not ctx.has_type(term, scope):
            continue
        seen.add(term)
        if not compiled.fullmatch(term.value):
            out.append(
                finding(
                    term, position,
                    f"IRI {term.value} in {position} position does not match "
                    f"pattern {pattern!r}",
                )
            )
    return out


def check_literal_range(
    ctx: GraphContext,
    prop: str,
    datatype: str,
    *,
    scope: str | None = None,
    min=None,
    max=None,
    min_exclusive: bool = False,
    max_exclusive: bool = False,
    negated: bool = False,
) -> list[Finding]:
    """Value-space bound check; bounds are inclusive unless flagged.

    A literal of the wrong datatype or with an invalid lexical form
    produces a datatype violation, not a range verdict.
    """
    lo = Decimal(str(min)) if min is not None else None
    hi = Decimal(str(max)) if max is not None else None
    out = []
    for subject, lit in scoped_literals(ctx, prop, scope):
        if lit.datatype != datatype:
            out.append(
                finding(
                    subject, str(lit),
                    f"value {lit} of {compact(prop)} must have datatype "
                    f"{compact(datatype)}", (prop, datatype),
                )
            )
            continue
        try:
            key = numeric_key(literal_value(lit))
        except (InvalidLexicalError, UnknownDatatypeError) as exc:
            out.append(
                finding(
                    subject, str(lit),
                    f"value of {compact(prop)} is not a valid "
                    f"{compact(datatype)}: {exc}", (prop, datatype),
                )
            )
            continue
        if key is None:
            out.append(
                finding(
                    subject, str(lit),
                    f"value {lit} of {compact(prop)} is not comparable "
                    "(non-finite)", (prop, datatype),
                )
            )
            continue
        inside = True
        if lo is not None and (key < lo or (min_exclusive and key == lo)):
            inside = False
        if hi is not None and (key > hi or (max_exclusive and key == hi)):
            inside = False
        if inside == negated:
            span = f"[{min if min is not None else '-inf'}, " \
                   f"{max if max is not None else 'inf'}]"
            verb = "falls inside the forbidden" if negated else "falls outside the allowed"
            out.append(
                finding(
                    subject, str(lit),
                    f"value {lit} of {compact(prop)} {verb} range {span}",
                    (prop,),
                )
            )
    return out


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def check_literal_comparison(
    ctx: GraphContext,
    prop1: str,
    prop2: str,
    op: str,
    *,
    scope: str | None = None,
) -> list[Finding]:
    """Per focus holding both properties: every value pair must satisfy the
    operator in the shared value space; incomparable datatypes are their
    own violation."""
    compare = _OPS[op]
    subjects = {t.subject for t in ctx.statements(prop1)}
    subjects.intersection_update(t.subject for t in ctx.statements(prop2))
    out = []
    for subject in subjects:
        if scope is not None and not ctx.has_type(subject, scope):
            continue
        lits1 = [o for o in ctx.objects(subject, prop1) if isinstance(o, Literal)]
        lits2 = [o for o in ctx.objects(subject, prop2) if isinstance(o, Literal)]
        for l1 in lits1:
            for l2 in lits2:
                try:
                    v1 = literal_value(l1)
                    v2 = literal_value(l2)
                except (InvalidLexicalError, UnknownDatatypeError) as exc:
                    out.append(
                        finding(
                            subject, f"{l1}|{l2}",
                            f"cannot compare {compact(prop1)} and {compact(prop2)}: "
                            f"{exc}", (prop1, prop2),
                        )
                    )
                    continue
                if not v1.comparable_with(v2):
                    out.append(
                        finding(
                            subject, f"{l1}|{l2}",
                            f"values of {compact(prop1)} and {compact(prop2)} have "
                            f"incomparable datatypes ({compact(l1.datatype)} vs "
                            f"{compact(l2.datatype)})", (prop1, prop2),
                        )
                    )
                    continue
                a, b = v1.value, v2.value
                if v1.kind in ("integer", "decimal", "double"):
                    a, b = numeric_key(v1), numeric_key(v2)
                    if a is None or b is None:
                        continue
                try:
                    ok = compare(a, b)
                except TypeError:
                    ok = False
                if not ok:
                    out.append(
                        finding(
                            subject, f"{l1}|{l2}",
                            f"expected {compact(prop1)} {op} {compact(prop2)} "
                            f"but {l1.lexical} {op} {l2.lexical} does not hold",
                            (prop1, prop2),
                        )
                    )
    return out


def _tag_matches(tag: str | None, wanted: str, allow_untagged_as: str | None) -> bool:
    if tag is None:
        return allow_untagged_as is not None and (
            allow_untagged_as == "*" or _primary(allow_untagged_as) == _primary(wanted)
        )
    if wanted == "*":
        return True
    return _primary(tag) == _primary(wanted)


def _primary(tag: str) -> str:
    return tag.split("-", 1)[0].lower()


def check_language_tags(
    ctx: GraphContext,
    prop: str,
    languages: list[str],
    *,
    scope: str | None = None,
    min_per_lang: int = 0,
    max_per_lang: int | None = None,
    allow_untagged_as: str | None = None,
) -> list[Finding]:
    """Per focus and required language, the count of values carrying that
    tag (case-insensitive primary-subtag match) must respect the bounds.

    ``languages`` may contain "*", meaning every language observed on the
    focus (used for per-language uniqueness rules). Untagged literals count
    under ``allow_untagged_as`` when set.
    """
    out = []
    focuses = (
        ctx.extension(scope) if scope is not None
        else {t.subject for t in ctx.statements(prop)}
    )

    def report(node: Term, lang: str, count: int, bound: int, which: str) -> None:
        label = "any language" if lang == "*" else f"language {lang!r}"
        out.append(
            finding(
                node, f"{lang}|{count}",
                f"{compact(prop)} has {count} value(s) for {label}, "
                f"{which} {bound} {'required' if which == 'at least' else 'allowed'}",
                (prop,),
            )
        )

    for node in focuses:
        lits = [o for o in ctx.objects(node, prop) if isinstance(o, Literal)]
        for lang in languages:
            if lang == "*":
                if min_per_lang > 0:
                    tagged = sum(
                        1 for l in lits
                        if l.lang is not None or allow_untagged_as is not None
                    )
                    if tagged < min_per_lang:
                        report(node, "*", tagged, min_per_lang, "at least")
                if max_per_lang is not None:
                    counts = Counter(_primary(l.lang) for l in lits if l.lang)
                    untagged = len(lits) - counts.total()
                    for obs, count in counts.items():
                        if _tag_matches(None, obs, allow_untagged_as):  # untagged count too
                            count += untagged
                        if count > max_per_lang:
                            report(node, obs, count, max_per_lang, "at most")
            else:
                count = sum(1 for l in lits if _tag_matches(l.lang, lang, allow_untagged_as))
                if count < min_per_lang:
                    report(node, lang, count, min_per_lang, "at least")
                if max_per_lang is not None and count > max_per_lang:
                    report(node, lang, count, max_per_lang, "at most")
    return out


#: Label and note properties language coverage looks at by default.
DEFAULT_LABEL_PROPERTIES = (
    SKOS + "prefLabel",
    SKOS + "altLabel",
    SKOS + "hiddenLabel",
    RDFS_LABEL,
) + DOCUMENTATION_PROPERTIES


def check_language_coverage(
    ctx: GraphContext,
    mode: str,
    properties: list[str] | None = None,
) -> list[Finding]:
    """Vocabulary-wide language checks over label/note properties.

    omitted-or-invalid: untagged or malformed tags on label literals.
    incomplete: concepts missing a language from the vocabulary-wide set.
    no-common: no single language shared by all labeled concepts.
    """
    label_props = properties or list(DEFAULT_LABEL_PROPERTIES)
    out = []
    if mode == "omitted-or-invalid":
        for prop in label_props:
            for subject, lit in scoped_literals(ctx, prop, None):
                if lit.lang is None:
                    out.append(
                        finding(
                            subject, f"{compact(prop)}|{lit}",
                            f"label {lit} of {compact(prop)} carries no language tag",
                            (prop,),
                        )
                    )
                elif not _BCP47_SHAPE.fullmatch(lit.lang):
                    out.append(
                        finding(
                            subject, f"{compact(prop)}|{lit}",
                            f"label {lit} of {compact(prop)} has a malformed "
                            f"language tag {lit.lang!r}", (prop,),
                        )
                    )
        return out

    langs_per_concept: dict[Term, set[str]] = {}
    primaries: dict[str, str] = {}  # each tag's primary subtag, for this call
    for prop in label_props:
        for subject, lit in scoped_literals(ctx, prop, SKOS + "Concept"):
            tag = lit.lang
            if tag is not None:
                primary = primaries.get(tag)
                if primary is None:
                    primary = primaries[tag] = _primary(tag)
                langs_per_concept.setdefault(subject, set()).add(primary)
    if mode == "incomplete":
        all_langs = set().union(*langs_per_concept.values()) if langs_per_concept else set()
        path = tuple(label_props)
        # detail and message of each distinct missing set, made once
        texts: dict[frozenset[str], tuple[str, str]] = {}
        for node, langs in langs_per_concept.items():
            missing = frozenset(all_langs - langs)
            if not missing:
                continue
            text = texts.get(missing)
            if text is None:
                listed = sorted(missing)
                text = texts[missing] = (
                    ",".join(listed),
                    f"concept lacks labels in language(s) {', '.join(listed)} "
                    "used elsewhere in the vocabulary",
                )
            out.append(finding(node, *text, path))
        return out
    # no-common
    if langs_per_concept and not set.intersection(*langs_per_concept.values()):
        out.append(
            finding(
                None, "no-common-language",
                "no single language is shared by all labeled concepts",
                tuple(label_props),
            )
        )
    return out


_WHITESPACE = (" ", "\t", "\r", "\n")


def check_whitespace(
    ctx: GraphContext,
    prop: str,
    *,
    scopes: list[str] | None = None,
) -> list[Finding]:
    """Leading/trailing whitespace in lexical forms; the report carries the
    trimmed suggestion, the graph is never touched."""
    out = []
    for triple in ctx.statements(prop):
        if scopes and not any(ctx.has_type(triple.subject, s) for s in scopes):
            continue
        lit = triple.object
        if not isinstance(lit, Literal):
            continue
        if lit.lexical and (
            lit.lexical[0] in _WHITESPACE or lit.lexical[-1] in _WHITESPACE
        ):
            trimmed = lit.lexical.strip("".join(_WHITESPACE))
            out.append(
                finding(
                    triple.subject, str(lit),
                    f"value of {compact(prop)} has leading or trailing "
                    f"whitespace; suggested value: {trimmed!r}", (prop,),
                )
            )
    return out


_VOID_ELEMENTS = {"br", "hr", "img", "meta", "input", "link"}
# the name letter (or closing slash) must follow '<' immediately, so plain
# "a < b" prose never tokenizes as a tag
_TAG_TOKEN = re.compile(r"<(/)?([a-zA-Z][a-zA-Z0-9]*)[^<>]*?(/)?\s*>")


def html_imbalance(text: str) -> str | None:
    """Name of the first offending tag if HTML-like tags do not nest, else
    None. Tokens require a letter after '<', so plain "a < b" text never
    counts as a tag."""
    stack: list[str] = []
    for match in _TAG_TOKEN.finditer(text):
        closing, name, self_closing = match.group(1), match.group(2).lower(), match.group(3)
        if name in _VOID_ELEMENTS or self_closing:
            continue
        if closing:
            if not stack or stack[-1] != name:
                return name
            stack.pop()
        else:
            stack.append(name)
    if stack:
        return stack[-1]
    return None


def check_html_balance(
    ctx: GraphContext,
    *,
    vocabulary: str | None = None,
    mode: str = "vocab-properties",
    property: str | None = None,
    scope: str | None = None,
) -> list[Finding]:
    """Literals whose HTML-like tags do not nest, optionally limited to one
    ``property`` and ``scope``. With ``vocabulary``, mode vocab-properties
    checks only the vocabulary's properties, class-subjects only subjects
    typed by one of its classes. Only the statements of the properties it
    may report are read: ``property``'s, or each vocabulary property's, or
    without either the whole graph."""
    properties = scope_classes = None
    if vocabulary is not None:
        inventory = ctx.catalog.inventory(vocabulary)
        if mode == "vocab-properties":
            properties = inventory.properties
        else:
            scope_classes = inventory.classes
    triples: Iterable[Triple] = ctx.graph
    if property is not None:
        triples = ctx.statements(property) if properties is None or property in properties else []
    elif properties is not None:
        triples = chain.from_iterable(ctx.statements(p) for p in sorted(properties))
    out = []
    for triple in triples:
        lit = triple.object
        if not isinstance(lit, Literal):
            continue
        pred = triple.predicate.value
        if scope is not None and not ctx.has_type(triple.subject, scope):
            continue
        if scope_classes is not None and ctx.types_of(triple.subject).isdisjoint(scope_classes):
            continue
        offender = html_imbalance(lit.lexical)
        if offender is not None:
            out.append(
                finding(
                    triple.subject, f"{compact(pred)}|{lit}",
                    f"HTML tag <{offender}> in value of {compact(pred)} is not "
                    "closed properly", (pred,),
                )
            )
    return out


def check_string_composition(
    ctx: GraphContext,
    scope: str,
    target: str,
    parts: list[dict],
    *,
    separator: str = " ",
) -> list[Finding]:
    """Target literal must equal the part values joined with the separator.

    When any part value is absent the instance is skipped: missing parts
    are presence-check territory, not composition mismatches.
    """
    out = []
    for node in ctx.extension(scope):
        targets = ctx.literal_objects(node, target)
        if not targets:
            continue
        pieces: list[str] = []
        complete = True
        for part in parts:
            values = [
                t.lexical
                for t in ctx.follow_path(node, part["path"])
                if isinstance(t, Literal)
            ]
            if not values:
                complete = False
                break
            pieces.append(values[0])
        if not complete:
            continue
        expected = separator.join(pieces)
        for lit in targets:
            if lit.lexical != expected:
                out.append(
                    finding(
                        node, str(lit),
                        f"value {lit} of {compact(target)} differs from the "
                        f"expected composition {expected!r}", (target,),
                    )
                )
    return out
