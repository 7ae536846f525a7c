"""Line-oriented N-Triples parser.

A line is stripped, and skipped if it is then empty or starts with ``#``.
Any other line is first matched whole by ``_LINE``, which reads the common
shape in one match: absolute IRIs without ``\\``, blank-node labels, and a
string without ``\\`` that ``@lang`` or ``^^<IRI>`` may follow, separated by
spaces or tabs, then the ``.`` and an optional comment. A line ``_LINE``
misses, and one whose datatype is ``rdf:langString``, is read by one
compiled token regex, ``_TOKEN``, matched for the subject, the predicate and
the object in turn, as if the fast path did not exist; so every diagnostic
and its line number come from the token path. Each term pattern carries
what may follow it, so a well-formed line needs no other scanning; a term
that is not well formed matches the empty group ``bad``.

The subset is W3C RDF 1.1 N-Triples, narrowed: terms are separated by
spaces or tabs, IRIs must be absolute (contain ``:``), blank-node labels are
ASCII ``[A-Za-z0-9_][A-Za-z0-9_.-]*`` with trailing dots left to end the
statement, and ``\\u``/``\\U`` escapes must name Unicode scalar values.
An IRI holds none of the characters RDF 1.1 ``IRIREF`` excludes (U+0000 to
U+0020 and ``<>"{}|^`\\``), whether written raw or as an escape.

``parse_ntriples`` reads text, UTF-8 bytes, or an open binary file. A file
is read, decoded and parsed one line at a time, so its bytes, their
decoded text and a list of its lines are never held at once; an
``OSError`` from reading it propagates. It returns the triples in document
order, duplicates kept; ``Graph`` dedups and sorts them. Syntax errors,
invalid UTF-8 among them, abort the whole parse (no partial result) and
carry the 1-based line number. Blank-node labels are renamed to ``_:b<n>``
in order of first appearance so that report output is stable across
documents. Each parse makes one ``Literal`` per spelling (lexical form,
datatype, raw language tag), which every triple that repeats it shares
(see ``_LiteralTable``).
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from .namespaces import RDF_LANGSTRING, XSD_STRING
from .terms import _IRIS, BlankNode, Iri, Literal, Term, Triple, _new_literal, _new_triple


class ParseError(Exception):
    """A syntax error; the message reads ``[SOURCE: ]line N: MESSAGE``."""

    def __init__(self, message: str, line: int, source: str | None = None):
        where = f"line {line}" if source is None else f"{source}: line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.reason = message


# The last alternative, a backslash that starts no escape, is matched only
# in an N-Triples IRI; the Turtle token admits well-formed escapes alone.
_IRI_ESCAPES = re.compile(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})|\\")
_STRING_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)
_STRING_ESCAPES = dict(zip("tbnrf\"'\\", "\t\b\n\r\f\"'\\"))
_UNTAGGED_LANGSTRING = "rdf:langString literal requires a language tag"

# An IRI body holds no character IRIREF excludes but the backslash, which
# is checked when the IRI is decoded; _IRI_EXCLUDED lists the excluded
# characters above U+0020 but the backslash. A string body holds
# well-formed escapes only.
_IRI_EXCLUDED = '<>"{}|^`'
_IRI_BODY = r'[^\x00-\x20<>"{}|^`]*'
# an absolute IRI body with no escape, and a blank-node label
_ABSOLUTE = r'[^\x00-\x20<>"{}|^`\\:]*:[^\x00-\x20<>"{}|^`\\]*'
_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-]|)"
_LANG = r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"
_STRING_BODY = r'[^"\\]*(?:\\(?:[tbnrf"\'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^"\\]*)*'
# What follows a term: "end" ('.', a comment, the end of the line) or "space".
_FOLLOW = r"(?:[ \t]*(?:(?P<{0}_end>\.[ \t]*(?:#.*)?\Z)|(?P<{0}_space>(?<=[ \t])))|)"
# ``Match.lastgroup`` names a term's kind and follow ("iri_space"), or just
# its last group when no follow matched. "iri" is an absolute IRI with no
# escape, "iriref" any other. The follow is optional, so backtracking cannot
# shorten a blank label or a language tag; optional parts are written as an
# empty last alternative, which the regex engine runs faster than "?".
_TOKEN = re.compile(
    rf"<(?P<iri>{_ABSOLUTE})>{_FOLLOW.format('iri')}"
    rf"|<(?P<iriref>{_IRI_BODY})>{_FOLLOW.format('iriref')}"
    rf"|_:(?P<blank>{_LABEL}){_FOLLOW.format('blank')}"
    rf'|"(?P<string>{_STRING_BODY})"'
    rf"(?:@(?P<lang>{_LANG})|\^\^<(?P<datatype>{_IRI_BODY})>|)"
    rf"{_FOLLOW.format('literal')}|(?P<bad>)"
)
# A whole line of the common shape; its groups in order: subject IRI or
# label, predicate, object IRI or label, string, language tag, datatype.
_LINE = re.compile(
    rf"(?:<({_ABSOLUTE})>|_:({_LABEL}))[ \t]+<({_ABSOLUTE})>[ \t]+"
    rf'(?:<({_ABSOLUTE})>|_:({_LABEL})|"([^"\\]*)"(?:@({_LANG})|\^\^<({_ABSOLUTE})>|))'
    r"[ \t]*\.[ \t]*(?:#.*|)\Z"
)
_KINDS = (("iri", "iriref", "blank"), ("iri", "iriref"), ("iri", "iriref", "blank", "literal"))
_EXPECTED = ("expected IRI or blank node subject", "expected '<'",
             "expected IRI, blank node, or literal object")


def _code_point(hexed: str, line: int) -> str:
    """The character a ``\\u``/``\\U`` escape names; RDF strings and IRIs
    hold Unicode scalar values only, so surrogates and values above
    U+10FFFF are syntax errors."""
    code = int(hexed, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError(f"escape U+{code:04X} is not a Unicode scalar value", line)
    return chr(code)


def _iri_escape(e: re.Match[str], line: int) -> str:
    """The character an IRI's escape names, which must be one IRIREF
    allows; ``e`` is a match of ``_IRI_ESCAPES``. A backslash, whether left
    over or escaped, makes an invalid escape sequence."""
    char = "\\" if e[1] is e[2] is None else _code_point(e[1] or e[2], line)
    if char == "\\":
        raise ParseError(f"invalid escape sequence in IRI <{e.string}>", line)
    if char <= " " or char in _IRI_EXCLUDED:
        raise ParseError(
            f"escape {e[0]} encodes {char!r}, which is not allowed inside IRI", line
        )
    return char


class _BlankScope:
    """Per-document relabeling of blank nodes to _:b0, _:b1, ..."""

    def __init__(self) -> None:
        self._map: dict[str, BlankNode] = {}

    def get(self, label: str) -> BlankNode:
        node = self._map.get(label)
        if node is None:
            node = BlankNode(f"b{len(self._map)}")
            self._map[label] = node
        return node

    def fresh(self) -> BlankNode:
        return self.get(f"\x00anon{len(self._map)}")


class _LiteralTable(dict):
    """One parse's literals, in two levels: a raw language tag, or a
    datatype IRI's text, maps to the ``_Spellings`` of that kind, which map
    each lexical form to its one ``Literal``. A tag holds no ``:`` and an
    absolute IRI always does, so the two kinds of key never collide. A
    parser reads ``literals[lang or datatype][lexical]``; only a miss runs
    Python code."""

    def __missing__(self, key: str) -> _Spellings:
        spellings = self[key] = _Spellings(key)
        return spellings


class _Spellings(dict):
    """The literals of one tag or datatype, by lexical form."""

    __slots__ = ("datatype", "lang", "lang_key")

    def __init__(self, key: str):
        if ":" in key:
            # the interned text, so equal datatypes share one string
            self.datatype, self.lang, self.lang_key = _IRIS[key].value, None, None
        else:
            # the tag lowercased once, so its literals share one key string
            self.datatype, self.lang, self.lang_key = RDF_LANGSTRING, key, key.lower()

    def __missing__(self, lexical: str) -> Literal:
        literal = self[lexical] = _new_literal(lexical, self.datatype, self.lang, self.lang_key)
        return literal


def _decode_utf8(data: bytes, first_line: int = 1) -> str:
    """``data`` decoded as UTF-8. An invalid byte is a ParseError at its
    line, counting ``data``'s first line as ``first_line``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + data.count(b"\n", 0, exc.start)
        raise ParseError(f"input is not valid UTF-8: {exc}", line) from None


def parse_ntriples(data: bytes | str | Iterable[bytes]) -> list[Triple]:
    """The triples ``data`` states, in document order, duplicates kept.
    ``data`` is text, UTF-8 bytes, or an open binary file, which is read
    one line at a time."""
    lines: Iterable[str]
    if isinstance(data, str):
        lines = data.split("\n")
    elif isinstance(data, bytes):
        lines = _decode_utf8(data).split("\n")
    else:
        # a binary file's lines end at LF only, as the text's split lines do
        lines = (_decode_utf8(raw, n) for n, raw in enumerate(data, start=1))
    scope, iris, literals = _BlankScope(), _IRIS, _LiteralTable()
    triples: list[Triple] = []
    match, whole = _TOKEN.match, _LINE.match
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        m = whole(line)
        if m is not None:
            si, sb, pi, oi, ob, lexical, lang, dt = m.groups()
            if dt != RDF_LANGSTRING:
                s: Term = iris[si] if sb is None else scope.get(sb)
                if oi is not None:
                    o: Term = iris[oi]
                elif ob is not None:
                    o = scope.get(ob)
                else:
                    o = literals[lang or dt or XSD_STRING][lexical]
                triples.append(_new_triple(s, iris[pi], o))
                continue
        # any other line is read term by term, so a ParseError names its
        # first fault in reading order
        m = match(line)
        s = _term(m, 0, lineno, scope, literals)
        m = match(line, m.end())
        p = _term(m, 1, lineno, scope, literals)
        m = match(line, m.end())
        triples.append(_new_triple(s, p, _term(m, 2, lineno, scope, literals)))
    return triples


def _term(
    m: re.Match[str], position: int, lineno: int, scope: _BlankScope, literals: _LiteralTable
) -> Term:
    """The term ``m`` matched at ``position`` (0 subject, 1 predicate, 2
    object); a ParseError names the first fault in it or in what follows
    it, in reading order."""
    kind, _, follow = m.lastgroup.partition("_")
    kind = "literal" if kind in ("string", "lang", "datatype") else kind
    if kind not in _KINDS[position]:
        raise ParseError(_term_error(m.string, m.start(), position, lineno), lineno)
    if kind == "iri":
        term: Term = Iri(m["iri"])
    elif kind == "iriref":
        term = Iri(_iri(m["iriref"], lineno))
    elif kind == "blank":
        term = scope.get(m["blank"])
    else:
        term = _literal(m, lineno, literals)
    if follow != ("end" if position == 2 else "space"):
        raise ParseError(_follow_error(m, position), lineno)
    return term


def _iri(raw: str, lineno: int) -> str:
    """The absolute IRI ``raw`` spells, with its escapes decoded."""
    value = raw
    if "\\" in raw:
        value = _IRI_ESCAPES.sub(lambda e: _iri_escape(e, lineno), raw)
    if ":" not in value:
        raise ParseError(f"relative IRI <{value}> is not allowed", lineno)
    return value


def _literal(m: re.Match[str], lineno: int, literals: _LiteralTable) -> Literal:
    lexical, lang, datatype = m.group("string", "lang", "datatype")
    if "\\" in lexical:
        lexical = _STRING_ESCAPE.sub(lambda e: _unescape(e, lineno), lexical)
    if lang is None and datatype is not None:
        datatype = _iri(datatype, lineno)
        if datatype == RDF_LANGSTRING:
            raise ParseError(_UNTAGGED_LANGSTRING, lineno)
    return literals[lang or datatype or XSD_STRING][lexical]


def _unescape(e: re.Match[str], lineno: int) -> str:
    return _STRING_ESCAPES[e[3]] if e[3] else _code_point(e[1] or e[2], lineno)


def _term_error(line: str, pos: int, position: int, lineno: int) -> str:
    """The message for the text at ``pos``, not a term allowed at ``position``."""
    found = line[pos : pos + 1]
    if found == "<":
        end = re.compile(_IRI_BODY).match(line, pos + 1).end()
        if end == len(line):
            return "unterminated IRI (missing '>')"
        return f"character {line[end]!r} not allowed inside IRI"
    if found == "_" and position != 1:
        if line[pos + 1 : pos + 2] != ":":
            return f"expected ':', found {line[pos + 1 : pos + 2]!r}"
        return "invalid blank node label"
    if found == '"' and position == 2:
        end = re.compile(_STRING_BODY).match(line, pos + 1).end()
        # an escape error before the one that stops the string comes first
        _STRING_ESCAPE.sub(lambda e: _unescape(e, lineno), line[pos + 1 : end])
        if end == len(line):
            return "unterminated string literal"
        esc = line[end + 1 : end + 2]
        if esc in ("u", "U"):
            return f"invalid \\{esc} escape"
        return f"invalid escape sequence \\{esc}"
    return f"{_EXPECTED[position]}, found {found!r}"


def _follow_error(m: re.Match[str], position: int) -> str:
    """The message for what follows the well-formed term ``m``."""
    line, group = m.string, m.lastgroup
    end = len(line[: m.start(group) if group.endswith("_end") else m.end()].rstrip(" \t"))
    after = line[end : end + 1]
    if position < 2:
        if after not in (" ", "\t"):
            return "expected whitespace"
        return f"{_EXPECTED[position + 1]}, found '.'"  # the whitespace runs on to an end '.'
    if group in ("string", "literal_space") and m["lang"] is m["datatype"] is None:
        if after == "@":
            return "invalid language tag"
        if after == "^":
            if line[end + 1 : end + 2] != "^":
                return f"expected '^', found {line[end + 1 : end + 2]!r}"
            return _term_error(line, end + 2, 1, 0)
    end = len(line) - len(line[end:].lstrip(" \t"))
    if line[end : end + 1] != ".":
        return f"expected '.', found {line[end : end + 1]!r}"
    return "trailing content after '.': " + repr(line[end + 1 :].lstrip(" \t"))


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """N-Triples, one triple per line with LF terminators, in iteration
    order. A ``Graph`` iterates in sorted order, so its text is canonical."""
    return "".join(f"{t}\n" for t in triples)
