"""Parser for the Turtle subset used by the vocabulary fixtures.

Supported: ``@prefix`` directives, ``a``, ``;``/``,`` separators, anonymous
blank-node property lists ``[...]``, labeled blanks ``_:x``, RDF collections
``(...)``, ``^^`` datatypes, ``@lang`` tags, numeric and boolean shorthand,
short and long (triple-quoted) strings, and ``#`` comments.

Anything outside the subset (``@base``, relative IRIs, SPARQL-style
directives) raises an "unsupported construct" ParseError rather than being
skipped: silently dropping data would corrupt validation results.
"""

from __future__ import annotations

import re

from .graph import Graph
from .namespaces import RDF_FIRST, RDF_LANGSTRING, RDF_NIL, RDF_REST, RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from .ntriples import ParseError, _BlankScope, _code_point, _IRI_ESCAPES, _STRING_ESCAPES, _UNTAGGED_LANGSTRING
from .terms import BlankNode, Iri, Literal, Term, Triple

_PNAME = re.compile(r"([A-Za-z][A-Za-z0-9_.\-]*)?:([A-Za-z0-9_][A-Za-z0-9_.\-]*)?")
_BLANK = re.compile(r"_:([A-Za-z0-9_][A-Za-z0-9_.\-]*)")
_NUMBER = re.compile(r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+|\d*\.\d+|\d+)")
_LANG = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")
_IRI_BODY = re.compile(r"(?:[^<>\"{}|^`\\\x00-\x20]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*")


def parse_turtle(data: bytes | str) -> Graph:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}", 1) from None
    else:
        text = data
    return _Parser(text).parse()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.prefixes: dict[str, str] = {}
        self.scope = _BlankScope()
        self.triples: list[Triple] = []

    # scanning -----------------------------------------------------------

    def fail(self, message: str) -> None:
        raise ParseError(message, self.line)

    def at_end(self) -> bool:
        self.skip_trivia()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self, n: int = 1) -> None:
        chunk = self.text[self.pos : self.pos + n]
        self.line += chunk.count("\n")
        self.pos += n

    def skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.advance()
            elif ch == "#":
                end = self.text.find("\n", self.pos)
                self.advance((end if end != -1 else len(self.text)) - self.pos)
            else:
                return

    def expect(self, token: str) -> None:
        self.skip_trivia()
        if not self.text.startswith(token, self.pos):
            found = self.peek() or "end of input"
            self.fail(f"expected {token!r}, found {found!r}")
        self.advance(len(token))

    def try_token(self, token: str) -> bool:
        self.skip_trivia()
        if self.text.startswith(token, self.pos):
            self.advance(len(token))
            return True
        return False

    # grammar ------------------------------------------------------------

    def parse(self) -> Graph:
        while not self.at_end():
            if self.try_keyword("@prefix"):
                self.parse_prefix()
            elif self.looking_at_keyword("@base") or self.looking_at_keyword("BASE"):
                self.fail("unsupported construct: @base (relative IRIs are not supported)")
            elif self.looking_at_keyword("PREFIX"):
                self.fail("unsupported construct: SPARQL-style PREFIX (use @prefix)")
            else:
                self.parse_triples_block()
        return Graph(self.triples)

    def looking_at_keyword(self, word: str) -> bool:
        self.skip_trivia()
        if not self.text.startswith(word, self.pos):
            return False
        after = self.text[self.pos + len(word) : self.pos + len(word) + 1]
        return after == "" or not (after.isalnum() or after in "_@")

    def try_keyword(self, word: str) -> bool:
        if self.looking_at_keyword(word):
            self.advance(len(word))
            return True
        return False

    def parse_prefix(self) -> None:
        self.skip_trivia()
        m = re.match(r"([A-Za-z][A-Za-z0-9_.\-]*)?:", self.text[self.pos :])
        if not m:
            self.fail("expected prefix name in @prefix directive")
        prefix = m.group(1) or ""
        self.advance(m.end())
        iri = self.parse_iriref()
        self.expect(".")
        self.prefixes[prefix] = iri.value

    def parse_triples_block(self) -> None:
        subject = self.parse_subject()
        self.skip_trivia()
        # A bare "[...]" or collection subject may be followed directly by '.'
        if self.peek() == ".":
            self.advance()
            return
        self.parse_predicate_object_list(subject)
        self.expect(".")

    def parse_subject(self) -> Term:
        self.skip_trivia()
        ch = self.peek()
        if ch == "<":
            return self.parse_iriref()
        if ch == "(":
            return self.parse_collection()
        if ch == "[":
            return self.parse_bnode_property_list()
        if self.text.startswith("_:", self.pos):
            return self.parse_blank_label()
        if _PNAME.match(self.text, self.pos):
            return self.parse_pname()
        self.fail(f"expected subject, found {ch!r}" if ch else "unexpected end of input")
        raise AssertionError

    def parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.parse_verb()
            self.parse_object_list(subject, predicate)
            self.skip_trivia()
            if self.peek() == ";":
                self.advance()
                self.skip_trivia()
                # tolerate trailing ';' before '.' or ']'
                if self.peek() in (".", "]", ""):
                    return
                continue
            return

    def parse_verb(self) -> Iri:
        self.skip_trivia()
        if self.try_keyword("a"):
            return Iri(RDF_TYPE)
        ch = self.peek()
        if ch == "<":
            return self.parse_iriref()
        if _PNAME.match(self.text, self.pos) and not self.text.startswith("_:", self.pos):
            return self.parse_pname()
        self.fail(f"expected predicate, found {ch!r}" if ch else "unexpected end of input")
        raise AssertionError

    def parse_object_list(self, subject: Term, predicate: Iri) -> None:
        while True:
            obj = self.parse_object()
            self.triples.append(Triple(subject, predicate, obj))
            self.skip_trivia()
            if self.peek() == ",":
                self.advance()
                continue
            return

    def parse_object(self) -> Term:
        self.skip_trivia()
        ch = self.peek()
        if not ch:
            self.fail("unexpected end of input while reading object")
        if ch == "<":
            return self.parse_iriref()
        if ch == "(":
            return self.parse_collection()
        if ch == "[":
            return self.parse_bnode_property_list()
        if ch in "\"'":
            return self.parse_string_literal()
        if self.text.startswith("_:", self.pos):
            return self.parse_blank_label()
        if self.looking_at_keyword("true"):
            self.advance(4)
            return Literal("true", datatype=XSD_BOOLEAN)
        if self.looking_at_keyword("false"):
            self.advance(5)
            return Literal("false", datatype=XSD_BOOLEAN)
        m = _NUMBER.match(self.text, self.pos)
        if m and (ch.isdigit() or ch in "+-."):
            lexical = m.group(0)
            self.advance(len(lexical))
            if "e" in lexical.lower():
                return Literal(lexical, datatype=XSD_DOUBLE)
            if "." in lexical:
                return Literal(lexical, datatype=XSD_DECIMAL)
            return Literal(lexical, datatype=XSD_INTEGER)
        if _PNAME.match(self.text, self.pos):
            return self.parse_pname()
        self.fail(f"expected object, found {ch!r}")
        raise AssertionError

    def parse_iriref(self) -> Iri:
        self.expect("<")
        m = _IRI_BODY.match(self.text, self.pos)
        assert m is not None
        raw = m.group(0)
        self.advance(len(raw))
        if self.peek() != ">":
            self.fail("unterminated or malformed IRI")
        self.advance()
        value = _IRI_ESCAPES.sub(
            lambda mm: _code_point(mm.group(1) or mm.group(2), self.line), raw
        )
        if ":" not in value:
            self.fail(
                f"unsupported construct: relative IRI <{value}> (no @base support)"
            )
        return Iri(value)

    def parse_pname(self) -> Iri:
        m = _PNAME.match(self.text, self.pos)
        if not m:
            self.fail("expected prefixed name")
        assert m is not None
        prefix = m.group(1) or ""
        local = m.group(2) or ""
        consumed = m.end() - self.pos
        # A '.' that ends a local name is the statement terminator, not
        # part of the name.
        while local.endswith("."):
            local = local[:-1]
            consumed -= 1
        self.advance(consumed)
        if prefix not in self.prefixes:
            self.fail(f"undeclared prefix {prefix!r}:")
        return Iri(self.prefixes[prefix] + local)

    def parse_blank_label(self) -> BlankNode:
        m = _BLANK.match(self.text, self.pos)
        if not m:
            self.fail("invalid blank node label")
        assert m is not None
        label = m.group(1)
        consumed = m.end() - self.pos
        while label.endswith("."):
            label = label[:-1]
            consumed -= 1
        self.advance(consumed)
        return self.scope.get(label)

    def parse_bnode_property_list(self) -> BlankNode:
        self.expect("[")
        node = self.scope.fresh()
        self.skip_trivia()
        if self.peek() != "]":
            self.parse_predicate_object_list(node)
        self.expect("]")
        return node

    def parse_collection(self) -> Term:
        self.expect("(")
        members: list[Term] = []
        while True:
            self.skip_trivia()
            if self.peek() == ")":
                self.advance()
                break
            if self.at_end():
                self.fail("unterminated collection")
            members.append(self.parse_object())
        if not members:
            return Iri(RDF_NIL)
        head = self.scope.fresh()
        node = head
        for i, member in enumerate(members):
            self.triples.append(Triple(node, Iri(RDF_FIRST), member))
            if i + 1 < len(members):
                nxt = self.scope.fresh()
                self.triples.append(Triple(node, Iri(RDF_REST), nxt))
                node = nxt
            else:
                self.triples.append(Triple(node, Iri(RDF_REST), Iri(RDF_NIL)))
        return head

    def parse_string_literal(self) -> Literal:
        lexical = self.parse_string_body()
        m = _LANG.match(self.text, self.pos)
        if m:
            self.advance(m.end() - self.pos)
            return Literal(lexical, lang=m.group(1))
        if self.text.startswith("^^", self.pos):
            self.advance(2)
            self.skip_trivia()
            if self.peek() == "<":
                dt = self.parse_iriref()
            else:
                dt = self.parse_pname()
            if dt.value == RDF_LANGSTRING:
                self.fail(_UNTAGGED_LANGSTRING)
            return Literal(lexical, datatype=dt.value)
        return Literal(lexical)

    def parse_string_body(self) -> str:
        quote = self.peek()
        if quote not in "\"'":
            self.fail("expected string literal")
        long_quote = quote * 3
        if self.text.startswith(long_quote, self.pos):
            self.advance(3)
            end = self.text.find(long_quote, self.pos)
            if end == -1:
                self.fail("unterminated long string literal")
            raw = self.text[self.pos : end]
            self.advance(len(raw) + 3)
            return self._unescape(raw)
        self.advance()
        out: list[str] = []
        while True:
            if self.pos >= len(self.text) or self.peek() == "\n":
                self.fail("unterminated string literal")
            ch = self.peek()
            if ch == quote:
                self.advance()
                return "".join(out)
            if ch == "\\":
                self.advance()
                esc = self.peek()
                if esc in _STRING_ESCAPES:
                    out.append(_STRING_ESCAPES[esc])
                    self.advance()
                elif esc in "uU":
                    width = 4 if esc == "u" else 8
                    self.advance()
                    hexed = self.text[self.pos : self.pos + width]
                    if not re.fullmatch(r"[0-9A-Fa-f]{%d}" % width, hexed or ""):
                        self.fail(f"invalid \\{esc} escape")
                    out.append(_code_point(hexed, self.line))
                    self.advance(width)
                else:
                    self.fail(f"invalid escape sequence \\{esc}")
            else:
                out.append(ch)
                self.advance()

    def _unescape(self, raw: str) -> str:
        result: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "\\":
                result.append(ch)
                i += 1
                continue
            if i + 1 >= len(raw):
                self.fail("dangling backslash in string literal")
            esc = raw[i + 1]
            if esc in _STRING_ESCAPES:
                result.append(_STRING_ESCAPES[esc])
                i += 2
            elif esc in "uU":
                width = 4 if esc == "u" else 8
                hexed = raw[i + 2 : i + 2 + width]
                if not re.fullmatch(r"[0-9A-Fa-f]{%d}" % width, hexed or ""):
                    self.fail(f"invalid \\{esc} escape")
                result.append(_code_point(hexed, self.line))
                i += 2 + width
            else:
                self.fail(f"invalid escape sequence \\{esc}")
        return "".join(result)
