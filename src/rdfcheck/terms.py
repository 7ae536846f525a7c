"""RDF term and triple model.

Terms are immutable values. IRIs and blank nodes are interned: ``Iri(v)``
returns the one object for ``v``, and ``BlankNode(label)`` the one object for
``label``. So they compare and hash by identity, which runs in C, and an
equal string always gives the same term. The intern tables live for the
process and are never emptied. IRIs compare by exact string (no
normalization). Literals are not interned across the process: each parse
shares one ``Literal`` per spelling (lexical form, datatype IRI, raw
language tag) among the triples it reads. They compare structurally, by
(lexical form, datatype IRI, lowercased language tag), so ``"x"@en`` and
``"x"@EN`` are two objects that are equal.

The parsers and the CLI's blank renumbering build terms whose checks their
own grammar has already made with ``_new_literal`` and ``_new_triple``,
which set the slots directly and skip the dataclass ``__init__`` and
``__post_init__``. ``Literal(...)`` and ``Triple(...)`` keep every check.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field

from .namespaces import RDF_LANGSTRING, XSD_STRING


class _IriTable(dict):
    """The interned IRIs by value; a miss makes and stores the IRI, so a
    caller may index the table in place of calling ``Iri``."""

    def __missing__(self, value: str) -> Iri:
        iri = object.__new__(Iri)
        object.__setattr__(iri, "value", value)
        return self.setdefault(value, iri)


_IRIS = _IriTable()
_BLANKS: dict[str, BlankNode] = {}


class _Interned:
    """Immutable, and equal only to itself. A new term is stored in its
    table with ``dict.setdefault``, which is atomic, so threads that miss
    the table at once still share one object. A subclass's ``__reduce__``
    calls the constructor, so ``copy``, ``deepcopy`` and ``pickle`` return
    the interned object."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Iri(_Interned):
    __slots__ = ("value",)
    value: str

    def __new__(cls, value: str) -> Iri:
        return _IRIS[value]

    def __reduce__(self) -> tuple[type[Iri], tuple[str]]:
        return (Iri, (self.value,))

    def __repr__(self) -> str:
        return f"Iri(value={self.value!r})"

    def __str__(self) -> str:
        return f"<{self.value}>"


class BlankNode(_Interned):
    __slots__ = ("label",)
    label: str

    def __new__(cls, label: str) -> BlankNode:
        try:
            return _BLANKS[label]
        except KeyError:
            node = object.__new__(cls)
            object.__setattr__(node, "label", label)
            return _BLANKS.setdefault(label, node)

    def __reduce__(self) -> tuple[type[BlankNode], tuple[str]]:
        return (BlankNode, (self.label,))

    def __repr__(self) -> str:
        return f"BlankNode(label={self.label!r})"

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


_NEEDS_ESCAPE = re.compile(r'[\\"\x00-\x1f]')
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_char(m: re.Match[str]) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or f"\\u{ord(ch):04X}"


def escape_literal(text: str) -> str:
    """Escape a lexical form for N-Triples output. Text with nothing to
    escape, the common case, comes back unchanged after one regex scan."""
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return _NEEDS_ESCAPE.sub(_escape_char, text)


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


_new = object.__new__
_set_lexical, _set_datatype, _set_lang, _set_lang_key = (
    getattr(Literal, name).__set__ for name in ("lexical", "datatype", "lang", "_lang_key")
)
_set_subject, _set_predicate, _set_object = (
    getattr(Triple, name).__set__ for name in ("subject", "predicate", "object")
)


def _new_literal(
    lexical: str, datatype: str, lang: str | None, lang_key: str | None
) -> Literal:
    """The ``Literal`` of a checked spelling: ``datatype`` is
    ``rdf:langString`` exactly when ``lang`` is a non-empty tag, and
    ``lang_key`` is ``lang`` lowercased, made once by the caller so that
    the literals of one tag share one key string."""
    literal = _new(Literal)
    _set_lexical(literal, lexical)
    _set_datatype(literal, datatype)
    _set_lang(literal, lang)
    _set_lang_key(literal, lang_key)
    return literal


def _new_triple(s: Term, p: Iri, o: Term) -> Triple:
    """The ``Triple`` of checked terms: the subject ``s`` is no literal."""
    triple = _new(Triple)
    _set_subject(triple, s)
    _set_predicate(triple, p)
    _set_object(triple, o)
    return triple
