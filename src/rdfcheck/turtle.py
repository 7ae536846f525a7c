"""Parser for the Turtle subset used by the vocabulary fixtures.

Supported: ``@prefix`` directives, ``a``, ``;``/``,`` separators (a ``;``
may repeat, as in ``ex:p ex:o ;; ex:q ex:r``), anonymous blank-node property
lists ``[...]``, labeled blanks ``_:x``, RDF collections ``(...)``, ``^^``
datatypes, ``@lang`` tags (whitespace and comments may come before either),
numeric and boolean shorthand, short and long (triple-quoted) strings, and
``#`` comments. A long string ends at the first triple quote whose first
quote is not escaped. An IRI holds no character RDF 1.1 ``IRIREF``
excludes, written raw or as a ``\\u``/``\\U`` escape. Prefix names are Turtle
1.1 ``PN_PREFIX`` names. Local names of prefixed names hold the Turtle 1.1
``PN_CHARS`` (non-ASCII letters included) and ``:``, ``%HH`` escapes, which
stay in the IRI as written, and ``\\``-escapes of ``_~.-!$&'()*+,;=/?#@%``,
which stand for the character after the backslash. A prefixed name wins over
a keyword it starts with: ``a:p`` and ``true:x`` are prefixed names. A
subject needs a predicate list unless it is a ``[ ... ]`` holding one.

``[`` and ``(`` may nest at most ``MAX_NESTING`` levels deep, counted
together; deeper input is a ParseError, as the parser recurses once per
level.

The parser reads one token per regex match, with one exception, the fused
path. After a prefixed-name subject and after each ``;``, one match of
``_FUSED`` reads a whole ``verb object`` pair and the ``;``, ``,`` or ``.``
after it; after each ``,`` it reads the object and its separator. It
accepts the shapes most documents are made of: ASCII prefixed names without
escapes, ``a``, IRIs without ``\\``, and short double-quoted strings without
``\\``, which ``@lang``, or ``^^`` and a prefixed name, may follow right
after the quote; only whitespace may come between the parts. Anything
else misses: comments, ``[ ]``, ``( )``, numbers, long or single-quoted
strings, escapes and non-ASCII names, and also an undeclared prefix, a
relative IRI or an ``rdf:langString`` datatype. On a miss the parser reads
the same text token by token, as if the fused path did not exist, so every
triple and every diagnostic is the token path's.

Both paths take each literal from one per-parse table, as the N-Triples
parser does, so every triple that repeats a spelling (lexical form,
datatype, raw language tag) shares one ``Literal``.

Anything outside the subset (``@base``, relative IRIs, SPARQL-style
directives) raises an "unsupported construct" ParseError rather than being
skipped: silently dropping data would corrupt validation results.
"""

from __future__ import annotations

import re

from .namespaces import (RDF_FIRST, RDF_LANGSTRING, RDF_NIL, RDF_REST, RDF_TYPE, XSD_BOOLEAN,
                         XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING)
from .ntriples import (ParseError, _BlankScope, _code_point, _decode_utf8, _iri_escape,
                       _IRI_ESCAPES, _LiteralTable, _STRING_ESCAPE, _STRING_ESCAPES,
                       _UNTAGGED_LANGSTRING)
from .terms import _IRIS, BlankNode, Iri, Literal, Term, Triple, _new_triple

MAX_NESTING = 128

_NUMBER_BODY = r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+|\d*\.\d+|\d+)"
_NUMBER = re.compile(_NUMBER_BODY)
_IRI_CHARS = r"[^<>\"{}|^`\\\x00-\x20]*"
_NAME_ESCAPE = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"
_NAME_CHARS = r"[A-Za-z0-9_.\-]*"
# A local name holds the Turtle 1.1 PN_CHARS, '.' and ':'. The ASCII ones
# come first, so common names run one fast loop; the others are written as
# the non-ASCII characters they leave out, a class that compiles in about
# two milliseconds where its ranges would take several, so the token uses
# it once. An empty local name matches as "".
_LOCAL_ASCII = r"[A-Za-z0-9_.:\-]"
_LOCAL_OTHER = (
    r"[^\x00-\xB6\xB8-\xBF\xD7\xF7\u037E\u2000-\u200B\u200E-\u203E\u2041-\u206F"
    r"\u2190-\u2BFF\u2FF0-\u3000\uD800-\uF8FF\uFDD0-\uFDEF\uFFFE\uFFFF\U000F0000-\U0010FFFF]"
)
# The first character may not be '-', '.' or one of the combining PN_CHARS.
_NOT_FIRST = r"[-.\u00B7\u0300-\u036F\u203F\u2040]"
# A prefix name holds the ASCII PN_CHARS and '.' in one fast loop, as a local
# name does; its other characters are matched as any non-ASCII character.
# A prefix holding one is checked against _PREFIX_NAME when declared, and
# one ending in '.' is refused then (a prefix that cannot be declared is
# never found in a prefixed name).
_PREFIX_NAME = rf"(?!{_NOT_FIRST})(?:[A-Za-z0-9_.\-]|{_LOCAL_OTHER})*"
_TRIVIA = r"(?:[ \t\r\n]+|\#[^\n]*)*"
# _TRIVIA can split a run of spaces in exponentially many ways. Before a
# token that is fine, as "other" matches whatever follows; after a string it
# is made atomic (a lookahead keeps one match, the backreference takes it),
# so a string followed by spaces and no '@' or '^^' fails at once.
_GAP = rf"(?=(?P<gap>{_TRIVIA}))(?P=gap)"
# Short string bodies; a backslash takes the next character with it and the
# escape is checked when the body is decoded.
_SHORT_DQ = r'[^"\\\n]*(?:\\.[^"\\\n]*)*'
_SHORT_SQ = r"[^'\\\n]*(?:\\.[^'\\\n]*)*"
# Long string bodies: as above, with newlines, and with quotes that are not
# the first of three.
_LONG_DQ = r'[^"\\]*(?:(?:\\(?s:.)|"(?!""))[^"\\]*)*'
_LONG_SQ = r"[^'\\]*(?:(?:\\(?s:.)|'(?!''))[^'\\]*)*"

# One token after any whitespace and comments. The named group that closes
# last (``Match.lastgroup``) gives the token's kind; every kind's group spans
# the whole token. A token that is not well formed is "badiri" (a '<' that
# does not open an IRI), "badstr" (a quote that does not open a string),
# "blank" without a label, or "other", which matches nothing. A local name
# or blank label never ends in an unescaped '.': that '.' ends the statement.
_TOKEN = re.compile(
    rf"{_TRIVIA}(?:"
    rf"(?P<pname>(?P<prefix>(?:[A-Za-z]|[^\x00-\x7F]){_NAME_CHARS}"
    rf"(?:[^\x00-\x7F]{_NAME_CHARS})*)?:"
    rf"(?P<local>(?!{_NOT_FIRST}){_LOCAL_ASCII}*"
    rf"(?:(?:{_LOCAL_OTHER}|{_NAME_ESCAPE}){_LOCAL_ASCII}*)*(?<![^\\]\.))?)"
    r"|(?P<semi>;)|(?P<dot>\.)|(?P<comma>,)"
    r"|(?P<string>(?:"
    rf'"(?!"")(?P<dq>{_SHORT_DQ})"'
    rf"|'(?!'')(?P<sq>{_SHORT_SQ})'"
    rf'|"""(?P<ldq>{_LONG_DQ})"""'
    rf"|'''(?P<lsq>{_LONG_SQ})''')"
    rf"(?:{_GAP}(?:@(?P<lang>[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)|(?P<datatype>\^\^)))?)"
    rf"|(?P<iri><(?P<iri_body>{_IRI_CHARS}"
    rf"(?:\\(?:u[0-9A-Fa-f]{{4}}|U[0-9A-Fa-f]{{8}}){_IRI_CHARS})*)>)"
    r"|(?:(?P<a>a)|(?P<true>true)|(?P<false>false)|(?P<at_prefix>@prefix)"
    r"|(?P<at_base>@base|BASE)|(?P<sparql_prefix>PREFIX))(?![\w@])"
    r"|(?P<blank>_:(?P<label>[A-Za-z0-9_][A-Za-z0-9_.\-]*(?<!\.))?)"
    r"|(?P<lbracket>\[)|(?P<rbracket>\])|(?P<lparen>\()|(?P<rparen>\))"
    rf"|(?P<number>{_NUMBER_BODY})"
    r"|(?P<badiri><)|(?P<badstr>[\"'])"
    r"|(?P<end>\Z)|(?P<other>))"
)
# The fused path (see the module docstring). The separator's group closes
# last, so a match stands in for the separator's token. A local name may
# end before a '.' here where the token path would read on, as in
# "ex:a.b\\!", so a '.' before a character that may continue a name (after
# any more dots) is no separator here.
_ASCII_PREFIX = r"(?:[A-Za-z][A-Za-z0-9_.\-]*)?"
_ASCII_LOCAL = r"(?![-.])[A-Za-z0-9_.:\-]*(?<!\.)"
_FUSED = re.compile(
    rf"[ \t\r\n]*(?:(?P<verb>(?P<vp>{_ASCII_PREFIX}):(?P<vl>{_ASCII_LOCAL})|a)[ \t\r\n]+)?"
    rf"(?:(?P<op>{_ASCII_PREFIX}):(?P<ol>{_ASCII_LOCAL})"
    rf"|<(?P<oi>{_IRI_CHARS})>"
    r'|"(?P<os>[^"\\\n]*)"(?:@(?P<lang>[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)'
    rf"|\^\^(?P<dp>{_ASCII_PREFIX}):(?P<dl>{_ASCII_LOCAL}))?)"
    r"[ \t\r\n]*(?:(?P<semi>;)|(?P<comma>,)|(?P<dot>\.(?!\.*(?:[A-Za-z0-9_:%\\-]|[^\x00-\x7F]))))"
)
_LOCAL_ESCAPE = re.compile(r"\\(.)")
_SHORT_PREFIX = {'"': re.compile(_SHORT_DQ), "'": re.compile(_SHORT_SQ)}
_PUNCT = {".": "dot", "]": "rbracket"}  # the tokens expect() is asked for

_TYPE = Iri(RDF_TYPE)
_FIRST = Iri(RDF_FIRST)
_REST = Iri(RDF_REST)
_NIL = Iri(RDF_NIL)


def parse_turtle(data: bytes | str) -> list[Triple]:
    """The triples ``data`` states, in document order, duplicates kept."""
    text = _decode_utf8(data) if isinstance(data, bytes) else data
    return _Parser(text).parse()


class _Parser:
    """Recursive descent over one token of lookahead: ``m`` is the match of
    the current token and ``kind`` its kind. Nothing tracks the line; a
    diagnostic counts the newlines before the position it names."""

    def __init__(self, text: str):
        self.text = text
        self.prefixes: dict[str, str] = {}
        self.scope = _BlankScope()
        self.literals = _LiteralTable()
        self.triples: list[Triple] = []
        self.depth = 0
        self.scan(0)

    # scanning -----------------------------------------------------------

    def scan(self, pos: int) -> None:
        self.m = _TOKEN.match(self.text, pos)
        self.kind = self.m.lastgroup

    def next(self) -> None:
        m = self.m = _TOKEN.match(self.text, self.m.end())
        self.kind = m.lastgroup

    def start(self) -> int:
        return self.m.start(self.kind)

    def fail(self, message: str, pos: int | None = None) -> None:
        if pos is None:
            pos = self.start()
        raise ParseError(message, self.text.count("\n", 0, pos) + 1)

    def found(self) -> str:
        return "end of input" if self.kind == "end" else self.text[self.start()]

    def expect(self, token: str) -> None:
        if self.kind != _PUNCT[token]:
            self.fail(f"expected {token!r}, found {self.found()!r}")
        self.next()

    def code_point(self, hexed: str, pos: int) -> str:
        try:
            return _code_point(hexed, 0)
        except ParseError as exc:
            self.fail(exc.reason, pos)
            raise AssertionError from None

    def unescape(self, raw: str, pos: int) -> str:
        """Decode the string escapes in ``raw``, which starts at ``pos`` of
        the text; an error names the line of its escape."""

        def replace(e: re.Match[str]) -> str:
            hexed = e[1] or e[2]
            at = pos + e.start()
            if hexed:
                return self.code_point(hexed, at)
            esc = e[3]
            if esc in _STRING_ESCAPES:
                return _STRING_ESCAPES[esc]
            if esc in "uU":
                self.fail(f"invalid \\{esc} escape", at)
            if esc in "\r\n":  # a backslash that ends a line, as one that ends the input
                self.fail("invalid \\ escape", at)
            self.fail(f"invalid escape sequence \\{esc}", at)
            raise AssertionError

        return _STRING_ESCAPE.sub(replace, raw)

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"'[' and '(' nested deeper than {MAX_NESTING} levels")
        self.next()

    # grammar ------------------------------------------------------------

    def parse(self) -> list[Triple]:
        while self.kind != "end":
            if self.kind == "at_prefix":
                self.next()
                self.parse_prefix()
            elif self.kind == "at_base":
                self.fail("unsupported construct: @base (relative IRIs are not supported)")
            elif self.kind == "sparql_prefix":
                self.fail("unsupported construct: SPARQL-style PREFIX (use @prefix)")
            else:
                self.parse_triples_block()
        return self.triples

    def parse_prefix(self) -> None:
        if self.kind != "pname":
            self.fail("expected prefix name in @prefix directive")
        m = self.m
        if m["local"]:
            local = m.start("local")
            self.fail(f"expected '<', found {self.text[local]!r}", local)
        prefix = m["prefix"] or ""
        if prefix.endswith(".") or not (prefix.isascii() or re.fullmatch(_PREFIX_NAME, prefix)):
            self.fail("expected prefix name in @prefix directive")
        self.next()
        iri = self.parse_iriref()
        self.expect(".")
        self.prefixes[prefix] = iri.value

    def parse_triples_block(self) -> None:
        kind, count = self.kind, len(self.triples)
        predicate = None
        if kind == "pname":
            subject = self.pname()
            predicate = self.fused(self.m.end(), subject, None)
        else:
            subject = self.parse_subject()
        # Only a "[ ... ]" that holds predicates (a blankNodePropertyList, so
        # not "[]") may stand alone before the '.'.
        if self.kind == "dot" and kind == "lbracket" and len(self.triples) > count:
            self.next()
            return
        self.parse_predicate_object_list(subject, predicate)
        self.expect(".")

    def parse_subject(self) -> Term:
        """A subject other than a prefixed name, which parse_triples_block
        reads itself."""
        kind = self.kind
        if kind == "iri" or kind == "badiri":
            return self.parse_iriref()
        if kind == "blank":
            return self.parse_blank_label()
        if kind == "lbracket":
            return self.parse_bnode_property_list()
        if kind == "lparen":
            return self.parse_collection()
        self.fail(f"expected subject, found {self.found()!r}")
        raise AssertionError

    def parse_predicate_object_list(self, subject: Term, predicate: Iri | None = None) -> None:
        """A ``predicate`` given is the verb of the first pair, which the
        fused path has read; the current token is the separator after it."""
        append = self.triples.append
        while True:
            if predicate is None:
                predicate = self.parse_verb()
                append(_new_triple(subject, predicate, self.parse_object()))
            while self.kind == "comma":
                if self.fused(self.m.end(), subject, predicate) is None:
                    append(_new_triple(subject, predicate, self.parse_object()))
            if self.kind != "semi":
                return
            predicate = None
            while self.kind == "semi" and predicate is None:
                predicate = self.fused(self.m.end(), subject, None)
            # tolerate trailing ';' before '.' or ']'
            if predicate is None and self.kind in ("dot", "rbracket", "end"):
                return

    def fused(self, pos: int, subject: Term, predicate: Iri | None) -> Iri | None:
        """Read a verb, when ``predicate`` is None, then one object and the
        separator after them with one match of _FUSED. On a hit record the
        triple, make the separator the current token and return the
        predicate. On a miss, an undeclared prefix, a relative IRI or an
        rdf:langString datatype, scan the token at ``pos`` and return None:
        the token path then reads the same text, and raises any error."""
        m = _FUSED.match(self.text, pos)
        if m is not None and (m["verb"] is None) == (predicate is not None):
            # the groups in pattern order, up to the separators
            verb, vp, vl, op, ol, iri, lexical, lang, dp, dl = m.groups()[:10]
            prefixes = self.prefixes
            try:
                if verb == "a":
                    predicate = _TYPE
                elif verb is not None:
                    predicate = _IRIS[prefixes[vp] + vl]
                if op is not None:
                    obj = _IRIS[prefixes[op] + ol]
                elif iri is not None:
                    obj = _IRIS[iri] if ":" in iri else None
                elif dp is None:
                    obj = self.literals[lang or XSD_STRING][lexical]
                else:
                    datatype = prefixes[dp] + dl
                    obj = None if datatype == RDF_LANGSTRING else self.literals[datatype][lexical]
            except KeyError:  # an undeclared prefix
                obj = None
            if obj is not None:
                self.triples.append(_new_triple(subject, predicate, obj))
                self.m = m
                self.kind = m.lastgroup
                return predicate
        self.scan(pos)
        return None

    def parse_verb(self) -> Iri:
        kind = self.kind
        if kind == "pname":
            return self.parse_pname()
        if kind == "a":
            self.next()
            return _TYPE
        if kind == "iri" or kind == "badiri":
            return self.parse_iriref()
        if kind == "end":
            self.fail("unexpected end of input")
        self.fail(f"expected predicate, found {self.found()!r}")
        raise AssertionError

    def parse_object(self) -> Term:
        kind = self.kind
        if kind == "pname":
            return self.parse_pname()
        if kind == "string":
            return self.parse_string_literal()
        if kind == "iri" or kind == "badiri":
            return self.parse_iriref()
        if kind == "blank":
            return self.parse_blank_label()
        if kind == "lbracket":
            return self.parse_bnode_property_list()
        if kind == "lparen":
            return self.parse_collection()
        if kind == "true" or kind == "false":
            self.next()
            return self.literals[XSD_BOOLEAN][kind]
        if kind == "number":
            lexical = self.m["number"]
            self.next()
            return self.number(lexical)
        if kind == "dot":
            # '.' ends a statement except where an object starts: ".5"
            number = _NUMBER.match(self.text, self.start())
            if number:
                self.scan(number.end())
                return self.number(number.group())
        if kind == "badstr":
            self.fail_string()
        if kind == "end":
            self.fail("unexpected end of input while reading object")
        self.fail(f"expected object, found {self.found()!r}")
        raise AssertionError

    def parse_iriref(self) -> Iri:
        if self.kind != "iri":
            if self.kind == "badiri":
                self.fail("unterminated or malformed IRI")
            self.fail(f"expected '<', found {self.found()!r}")
        value = self.m["iri_body"]
        if "\\" in value:
            try:
                value = _IRI_ESCAPES.sub(lambda e: _iri_escape(e, 0), value)
            except ParseError as exc:
                self.fail(exc.reason, self.m.end())
        if ":" not in value:
            self.fail(
                f"unsupported construct: relative IRI <{value}> (no @base support)"
            )
        self.next()
        return Iri(value)

    def parse_pname(self) -> Iri:
        iri = self.pname()
        self.next()
        return iri

    def pname(self) -> Iri:
        """The IRI of the current token, a prefixed name."""
        m = self.m
        prefix = m["prefix"] or ""
        try:
            namespace = self.prefixes[prefix]
        except KeyError:
            self.fail(f"undeclared prefix {prefix!r}:")
            raise AssertionError from None
        local = m["local"] or ""
        if "\\" in local:
            local = _LOCAL_ESCAPE.sub(r"\1", local)
        return Iri(namespace + local)

    def parse_blank_label(self) -> BlankNode:
        label = self.m["label"]
        if label is None:
            self.fail("invalid blank node label")
        self.next()
        return self.scope.get(label)

    def parse_bnode_property_list(self) -> BlankNode:
        self.enter()
        node = self.scope.fresh()
        if self.kind != "rbracket":
            self.parse_predicate_object_list(node)
        self.expect("]")
        self.depth -= 1
        return node

    def parse_collection(self) -> Term:
        self.enter()
        members: list[Term] = []
        while self.kind != "rparen":
            if self.kind == "end":
                self.fail("unterminated collection")
            members.append(self.parse_object())
        self.next()
        self.depth -= 1
        if not members:
            return _NIL
        head = self.scope.fresh()
        node = head
        for i, member in enumerate(members):
            self.triples.append(_new_triple(node, _FIRST, member))
            if i + 1 < len(members):
                nxt = self.scope.fresh()
                self.triples.append(_new_triple(node, _REST, nxt))
                node = nxt
            else:
                self.triples.append(_new_triple(node, _REST, _NIL))
        return head

    def parse_string_literal(self) -> Literal:
        m = self.m
        for body in ("dq", "sq", "ldq", "lsq"):
            lexical = m[body]
            if lexical is not None:
                break
        if "\\" in lexical:
            lexical = self.unescape(lexical, m.start(body))
        if m["datatype"] is None:
            self.next()
            return self.literals[m["lang"] or XSD_STRING][lexical]
        self.next()
        end = self.m.end()
        if self.kind == "pname":
            datatype = self.parse_pname()
        elif self.kind == "iri" or self.kind == "badiri":
            datatype = self.parse_iriref()
        else:
            self.fail("expected prefixed name")
            raise AssertionError
        if datatype.value == RDF_LANGSTRING:
            self.fail(_UNTAGGED_LANGSTRING, end)
        return self.literals[datatype.value][lexical]

    def fail_string(self) -> None:
        """Raise the error in the string that opens at the current token,
        which is not a well-formed string: the first bad escape, else the
        line or input that ends before the closing quote."""
        text, start = self.text, self.start()
        quote = text[start]
        if text.startswith(quote * 3, start):
            self.fail("unterminated long string literal")
        end = _SHORT_PREFIX[quote].match(text, start + 1).end()
        self.unescape(text[start + 1 : end], start + 1)
        if text.startswith("\\", end):
            if end + 1 == len(text) or text[end + 1] in "\r\n":
                self.fail("invalid \\ escape")
            self.fail(f"invalid escape sequence \\{text[end + 1]}")
        self.fail("unterminated string literal")


    def number(self, lexical: str) -> Literal:
        if "e" in lexical.lower():
            return self.literals[XSD_DOUBLE][lexical]
        if "." in lexical:
            return self.literals[XSD_DECIMAL][lexical]
        return self.literals[XSD_INTEGER][lexical]
