"""RDF term and triple model.

Terms are immutable values; equality is structural. IRIs compare by exact
string (no normalization), literals by (lexical form, datatype IRI,
lowercased language tag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .namespaces import RDF_LANGSTRING, XSD_STRING


@dataclass(frozen=True, slots=True)
class Iri:
    value: str

    def __str__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __str__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    # the raw tag is kept for serialization; equality uses the lowercased key
    lang: str | None = field(default=None, compare=False)
    _lang_key: str | None = field(default=None, repr=False, compare=True)

    def __post_init__(self) -> None:
        if self.lang is not None:
            if not self.lang:
                raise ValueError("language tag must be non-empty when present")
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
            object.__setattr__(self, "_lang_key", self.lang.lower())
        elif self.datatype == RDF_LANGSTRING:
            raise ValueError("rdf:langString literal requires a language tag")

    def __str__(self) -> str:
        escaped = escape_literal(self.lexical)
        if self.lang is not None:
            return f'"{escaped}"@{self.lang}'
        if self.datatype == XSD_STRING:
            return f'"{escaped}"'
        return f'"{escaped}"^^<{self.datatype}>'


Term = Iri | BlankNode | Literal


def escape_literal(text: str) -> str:
    """Escape a lexical form for N-Triples output."""
    out: list[str] = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def term_sort_key(term: Term) -> tuple[int, str]:
    """Total order over terms: IRIs, then blanks, then literals, each by text."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BlankNode):
        return (1, term.label)
    return (2, str(term))


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject must not be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."
