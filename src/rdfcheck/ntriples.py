"""Line-oriented N-Triples parser.

Syntax errors abort the whole parse (no partial graph) and carry the
1-based line number. Blank-node labels are renamed to ``_:b<n>`` in order of
first appearance so that report output is stable across documents.
"""

from __future__ import annotations

import re

from .graph import Graph
from .namespaces import RDF_LANGSTRING
from .terms import BlankNode, Iri, Literal, Term, Triple


class ParseError(Exception):
    """A syntax error; the message reads ``[SOURCE: ]line N: MESSAGE``."""

    def __init__(self, message: str, line: int, source: str | None = None):
        where = f"line {line}" if source is None else f"{source}: line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.reason = message


_IRI_ESCAPES = re.compile(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})")
_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}
_BLANK_LABEL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_LANG_TAG = re.compile(r"[a-zA-Z]+(-[a-zA-Z0-9]+)*")
_UNTAGGED_LANGSTRING = "rdf:langString literal requires a language tag"

# One escape-free line as a single regex. It accepts only lines the cursor
# accepts and captures the same terms. A blank label leaves out trailing
# dots, as the cursor strips them. Backtracking cannot shorten a label or a
# language tag: a shorter match is followed by a character of the label or
# tag, the only such character that may follow a term is the final '.', and
# here another label character would come after that '.'.
_FAST_IRI = r'<([^> "{}|^`\\]*)>'
_FAST_BLANK = r"_:([A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)"
_FAST_LINE = re.compile(
    rf"(?:{_FAST_IRI}|{_FAST_BLANK})[ \t]+{_FAST_IRI}[ \t]+"
    rf'(?:{_FAST_IRI}|{_FAST_BLANK}|"([^"]*)"'
    rf"(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)|\^\^{_FAST_IRI})?)"
    r"[ \t]*\.[ \t]*(?:#.*)?",
    re.DOTALL,
)


def _code_point(hexed: str, line: int) -> str:
    """The character a ``\\u``/``\\U`` escape names; RDF strings and IRIs
    hold Unicode scalar values only, so surrogates and values above
    U+10FFFF are syntax errors."""
    code = int(hexed, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ParseError(f"escape U+{code:04X} is not a Unicode scalar value", line)
    return chr(code)


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


def parse_ntriples(data: bytes | str) -> Graph:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}", 1) from None
    else:
        text = data
    scope = _BlankScope()
    triples: list[Triple] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\\" not in line:
            found = _fast_triple(line, scope)
            if found is not None:
                triples.append(found)
                continue
        triples.append(_cursor_triple(line, lineno, scope))
    return Graph(triples)


def _fast_triple(line: str, scope: _BlankScope) -> Triple | None:
    """The triple on an escape-free ``line``, or None to leave the line
    (and any error in it) to the cursor."""
    m = _FAST_LINE.fullmatch(line)
    if m is None:
        return None
    s_iri, s_blank, p_iri, o_iri, o_blank, lexical, lang, datatype = m.groups()
    for value in (s_iri, p_iri, o_iri, datatype):
        if value is not None and ":" not in value:
            return None
    if datatype == RDF_LANGSTRING:
        return None
    subject = scope.get(s_blank) if s_iri is None else Iri(s_iri)
    if o_iri is not None:
        obj: Term = Iri(o_iri)
    elif o_blank is not None:
        obj = scope.get(o_blank)
    elif lang is not None:
        obj = Literal(lexical, lang=lang)
    elif datatype is not None:
        obj = Literal(lexical, datatype=datatype)
    else:
        obj = Literal(lexical)
    return Triple(subject, Iri(p_iri), obj)


def _cursor_triple(line: str, lineno: int, scope: _BlankScope) -> Triple:
    cursor = _Cursor(line, lineno)
    subject = _parse_subject(cursor, scope)
    cursor.skip_ws(required=True)
    predicate = _parse_iri(cursor)
    cursor.skip_ws(required=True)
    obj = _parse_object(cursor, scope)
    cursor.skip_ws()
    cursor.expect(".")
    cursor.skip_ws()
    if not cursor.at_end() and not cursor.rest().startswith("#"):
        cursor.fail(f"trailing content after '.': {cursor.rest()!r}")
    return Triple(subject, predicate, obj)


def serialize_ntriples(graph: Graph) -> str:
    return graph.serialize_ntriples()


class _Cursor:
    __slots__ = ("text", "pos", "line")

    def __init__(self, text: str, line: int):
        self.text = text
        self.pos = 0
        self.line = line

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def rest(self) -> str:
        return self.text[self.pos :]

    def advance(self, n: int = 1) -> None:
        self.pos += n

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}, found {self.peek()!r}")
        self.advance()

    def skip_ws(self, required: bool = False) -> None:
        start = self.pos
        while self.peek() in (" ", "\t"):
            self.advance()
        if required and self.pos == start:
            self.fail("expected whitespace")

    def fail(self, message: str) -> None:
        raise ParseError(message, self.line)


def _parse_subject(cur: _Cursor, scope: _BlankScope) -> Term:
    ch = cur.peek()
    if ch == "<":
        return _parse_iri(cur)
    if ch == "_":
        return _parse_blank(cur, scope)
    cur.fail(f"expected IRI or blank node subject, found {ch!r}")
    raise AssertionError  # unreachable


def _parse_object(cur: _Cursor, scope: _BlankScope) -> Term:
    ch = cur.peek()
    if ch == "<":
        return _parse_iri(cur)
    if ch == "_":
        return _parse_blank(cur, scope)
    if ch == '"':
        return _parse_literal(cur)
    cur.fail(f"expected IRI, blank node, or literal object, found {ch!r}")
    raise AssertionError


def _parse_iri(cur: _Cursor) -> Iri:
    cur.expect("<")
    start = cur.pos
    while not cur.at_end() and cur.peek() != ">":
        if cur.peek() in ' "{}|^`':
            cur.fail(f"character {cur.peek()!r} not allowed inside IRI")
        cur.advance()
    if cur.at_end():
        cur.fail("unterminated IRI (missing '>')")
    raw = cur.text[start : cur.pos]
    cur.advance()

    def unescape(m: re.Match[str]) -> str:
        return _code_point(m.group(1) or m.group(2), cur.line)

    value = _IRI_ESCAPES.sub(unescape, raw)
    if "\\" in value:
        cur.fail(f"invalid escape sequence in IRI <{raw}>")
    if ":" not in value:
        cur.fail(f"relative IRI <{value}> is not allowed")
    return Iri(value)


def _parse_blank(cur: _Cursor, scope: _BlankScope) -> BlankNode:
    cur.expect("_")
    cur.expect(":")
    m = _BLANK_LABEL.match(cur.text, cur.pos)
    if not m:
        cur.fail("invalid blank node label")
    label = m.group(0).rstrip(".")
    cur.advance(len(label))
    return scope.get(label)


def _parse_string_body(cur: _Cursor) -> str:
    cur.expect('"')
    out: list[str] = []
    while True:
        if cur.at_end():
            cur.fail("unterminated string literal")
        ch = cur.peek()
        if ch == '"':
            cur.advance()
            return "".join(out)
        if ch == "\\":
            cur.advance()
            esc = cur.peek()
            if esc in _STRING_ESCAPES:
                out.append(_STRING_ESCAPES[esc])
                cur.advance()
            elif esc == "u":
                cur.advance()
                hexed = cur.text[cur.pos : cur.pos + 4]
                if len(hexed) != 4 or not re.fullmatch(r"[0-9A-Fa-f]{4}", hexed):
                    cur.fail("invalid \\u escape")
                out.append(_code_point(hexed, cur.line))
                cur.advance(4)
            elif esc == "U":
                cur.advance()
                hexed = cur.text[cur.pos : cur.pos + 8]
                if len(hexed) != 8 or not re.fullmatch(r"[0-9A-Fa-f]{8}", hexed):
                    cur.fail("invalid \\U escape")
                out.append(_code_point(hexed, cur.line))
                cur.advance(8)
            else:
                cur.fail(f"invalid escape sequence \\{esc}")
        else:
            out.append(ch)
            cur.advance()


def _parse_literal(cur: _Cursor) -> Literal:
    lexical = _parse_string_body(cur)
    if cur.peek() == "@":
        cur.advance()
        m = _LANG_TAG.match(cur.text, cur.pos)
        if not m:
            cur.fail("invalid language tag")
        tag = m.group(0)
        cur.advance(len(tag))
        return Literal(lexical, lang=tag)
    if cur.peek() == "^":
        cur.advance()
        cur.expect("^")
        datatype = _parse_iri(cur)
        if datatype.value == RDF_LANGSTRING:
            cur.fail(_UNTAGGED_LANGSTRING)
        return Literal(lexical, datatype=datatype.value)
    return Literal(lexical)
