"""Lexical-to-value-space parsing for the supported XSD datatypes.

Everything the validators compare numerically or chronologically goes
through here; the term layer itself only knows lexical identity. Derived
integer types enforce their facets (xsd:nonNegativeInteger rejects "-3").
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from . import namespaces as ns
from .terms import Literal


class InvalidLexicalError(ValueError):
    """The lexical form is not in the datatype's lexical space."""


class UnknownDatatypeError(ValueError):
    """The datatype IRI is not one this validator understands."""


@dataclass(frozen=True, slots=True)
class XsdValue:
    kind: str
    value: object

    def comparable_with(self, other: "XsdValue") -> bool:
        return _comparison_class(self.kind) == _comparison_class(other.kind)


_NUMERIC_KINDS = {"integer", "decimal", "double"}


def _comparison_class(kind: str) -> str:
    if kind in _NUMERIC_KINDS:
        return "numeric"
    return kind


_INTEGER_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")
_DOUBLE_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?|[+-]?INF|NaN")
_TZ_RE = r"(Z|[+-]((0\d|1[0-3]):[0-5]\d|14:00))?"
_DATE_RE = re.compile(r"(-?\d{4,})-(\d{2})-(\d{2})" + _TZ_RE)
_DATETIME_RE = re.compile(
    r"(-?\d{4,})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?" + _TZ_RE
)
_GYEAR_RE = re.compile(r"(-?\d{4,})" + _TZ_RE)

_INTEGER_FACETS: dict[str, tuple[int | None, int | None]] = {
    ns.XSD_INTEGER: (None, None),
    ns.XSD_NON_NEGATIVE_INTEGER: (0, None),
    ns.XSD + "positiveInteger": (1, None),
    ns.XSD + "nonPositiveInteger": (None, 0),
    ns.XSD + "negativeInteger": (None, -1),
    ns.XSD + "long": (-(2**63), 2**63 - 1),
    ns.XSD + "int": (-(2**31), 2**31 - 1),
    ns.XSD + "short": (-(2**15), 2**15 - 1),
    ns.XSD + "byte": (-(2**7), 2**7 - 1),
    ns.XSD + "unsignedLong": (0, 2**64 - 1),
    ns.XSD + "unsignedInt": (0, 2**32 - 1),
    ns.XSD + "unsignedShort": (0, 2**16 - 1),
    ns.XSD + "unsignedByte": (0, 2**8 - 1),
}

SUPPORTED_DATATYPES = (
    frozenset(_INTEGER_FACETS)
    | {
        ns.XSD_STRING,
        ns.RDF_LANGSTRING,
        ns.XSD_BOOLEAN,
        ns.XSD_DECIMAL,
        ns.XSD_DOUBLE,
        ns.XSD + "float",
        ns.XSD_DATE,
        ns.XSD_DATETIME,
        ns.XSD_GYEAR,
    }
)


def parse_xsd_value(lexical: str, datatype: str) -> XsdValue:
    """Parse ``lexical`` into the value space of ``datatype``.

    Raises InvalidLexicalError for out-of-space forms and
    UnknownDatatypeError for datatypes outside the supported set; callers
    that need to treat those cases differently can tell them apart.
    """
    if datatype in (ns.XSD_STRING, ns.RDF_LANGSTRING):
        return XsdValue("string", lexical)
    if datatype == ns.XSD_BOOLEAN:
        if lexical in ("true", "1"):
            return XsdValue("boolean", True)
        if lexical in ("false", "0"):
            return XsdValue("boolean", False)
        raise InvalidLexicalError(f"{lexical!r} is not an xsd:boolean")
    if datatype in _INTEGER_FACETS:
        if not _INTEGER_RE.fullmatch(lexical):
            raise InvalidLexicalError(f"{lexical!r} is not an integer")
        value = _integer(lexical)
        lo, hi = _INTEGER_FACETS[datatype]
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise InvalidLexicalError(
                f"{lexical!r} is outside the value range of {ns.compact(datatype)}"
            )
        return XsdValue("integer", value)
    if datatype == ns.XSD_DECIMAL:
        if not _DECIMAL_RE.fullmatch(lexical):
            raise InvalidLexicalError(f"{lexical!r} is not an xsd:decimal")
        return XsdValue("decimal", Decimal(lexical))
    if datatype in (ns.XSD_DOUBLE, ns.XSD + "float"):
        if not _DOUBLE_RE.fullmatch(lexical):
            raise InvalidLexicalError(f"{lexical!r} is not an xsd:double")
        if lexical == "INF" or lexical == "+INF":
            return XsdValue("double", float("inf"))
        if lexical == "-INF":
            return XsdValue("double", float("-inf"))
        if lexical == "NaN":
            return XsdValue("double", float("nan"))
        return XsdValue("double", float(lexical))
    if datatype == ns.XSD_DATE:
        m = _DATE_RE.fullmatch(lexical)
        if not m:
            raise InvalidLexicalError(f"{lexical!r} is not an xsd:date")
        try:
            value = datetime.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
        except ValueError as exc:
            raise InvalidLexicalError(f"{lexical!r}: {exc}") from None
        return XsdValue("date", value)
    if datatype == ns.XSD_DATETIME:
        m = _DATETIME_RE.fullmatch(lexical)
        if not m:
            raise InvalidLexicalError(f"{lexical!r} is not an xsd:dateTime")
        frac = m.group(7)
        micros = int(round(float(frac) * 1_000_000)) if frac else 0
        second = int(m.group(6))
        if second > 59:
            raise InvalidLexicalError(f"{lexical!r}: seconds out of range")
        try:
            value = datetime.datetime(
                int(m.group(1)),
                int(m.group(2)),
                int(m.group(3)),
                int(m.group(4)),
                int(m.group(5)),
                second,
                micros,
            )
        except ValueError as exc:
            raise InvalidLexicalError(f"{lexical!r}: {exc}") from None
        offset = _tz_minutes(m.group(8))
        if offset is not None:
            value -= datetime.timedelta(minutes=offset)
        return XsdValue("dateTime", value)
    if datatype == ns.XSD_GYEAR:
        m = _GYEAR_RE.fullmatch(lexical)
        if not m:
            raise InvalidLexicalError(f"{lexical!r} is not an xsd:gYear")
        return XsdValue("gYear", _integer(m.group(1)))
    raise UnknownDatatypeError(f"unsupported datatype {datatype}")


def _integer(digits: str) -> int:
    # through Decimal: int(str) refuses more than 4,300 digits
    return int(Decimal(digits))


def integer_text(value: int) -> str:
    """``str(value)``, also past the 4,300 digits that ``str`` refuses."""
    return f"{Decimal(value):f}"


def _tz_minutes(tz: str | None) -> int | None:
    if not tz:
        return None
    if tz == "Z":
        return 0
    sign = -1 if tz[0] == "-" else 1
    hours, minutes = tz[1:].split(":")
    return sign * (int(hours) * 60 + int(minutes))


def literal_value(lit: Literal) -> XsdValue:
    return parse_xsd_value(lit.lexical, lit.datatype)


def literal_value_or_none(lit: Literal) -> XsdValue | None:
    """None for both invalid lexical forms and unknown datatypes."""
    try:
        return literal_value(lit)
    except (InvalidLexicalError, UnknownDatatypeError):
        return None


def exact_decimal(lit: Literal) -> Decimal | None:
    """Lexical form as an exact Decimal for arithmetic checks.

    Works for integer/decimal/double lexical forms; INF/NaN and anything
    non-numeric gives None. Doubles are read digit-for-digit rather than
    through float so sums stay exact.
    """
    try:
        value = Decimal(lit.lexical)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def numeric_key(value: XsdValue) -> Decimal | None:
    """Map a numeric XsdValue onto the shared Decimal scale for comparisons."""
    if value.kind == "integer":
        return Decimal(int(value.value))  # type: ignore[arg-type]
    if value.kind == "decimal":
        return value.value  # type: ignore[return-value]
    if value.kind == "double":
        fv = float(value.value)  # type: ignore[arg-type]
        if fv != fv or fv in (float("inf"), float("-inf")):
            return None
        return Decimal(repr(fv))
    return None
