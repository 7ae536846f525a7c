"""Report serialization: grouped text and schema-stable JSON."""

from __future__ import annotations

import json

from .catalog import Severity
from .engine import ValidationReport, severity_counts
from .xsd import integer_text


def write_text(report: ValidationReport, threshold: Severity | None = None) -> str:
    """Violations grouped by severity (errors first) then constraint id,
    one line each, with a count footer."""
    lines = []
    shown = report.at_or_above(threshold)
    for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
        for violation in shown:
            if violation.severity != severity:
                continue
            focus = violation.focus or "(graph)"
            lines.append(
                f"{str(severity).upper()} {violation.constraint_id} {focus} - "
                f"{violation.message.split(': ', 1)[-1]}"
            )
    for metric in report.metrics:
        lines.append(
            f"METRIC {metric.constraint_id} {metric.focus} - {metric.name} = "
            f"{integer_text(metric.value)}"
        )
    skipped = report.skipped()
    for status in skipped:
        lines.append(f"SKIPPED {status.constraint_id} - {status.status}")
    counts = severity_counts(shown)
    lines.append(
        f"summary: {counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s); {len(skipped)} constraint(s) skipped"
    )
    return "\n".join(lines) + "\n"


# The C string encoder that json.dumps uses under ensure_ascii=False
_string = json.encoder.encode_basestring


def write_json(report: ValidationReport, threshold: Severity | None = None) -> str:
    """One object with keys summary, violations, skipped, metrics in exactly
    that order; violations keep the engine's sorted order.

    The text is what ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes
    for that object, plus a newline, laid out here one record at a time:
    ``indent`` makes ``json`` use its pure-Python encoder, which builds
    about thirty string chunks per violation before joining them."""
    shown = report.at_or_above(threshold)
    counts = severity_counts(shown)
    summary = {"info": counts["info"], "warning": counts["warning"], "error": counts["error"]}
    arrays = {
        "violations": [
            _object({
                "id": v.constraint_id,
                "severity": str(v.severity),
                "focus": v.focus,
                "detail": v.detail,
                "message": v.message,
            })
            for v in shown
        ],
        "skipped": [
            _object({"id": s.constraint_id, "reason": s.status.split(": ", 1)[-1]})
            for s in report.skipped()
        ],
        "metrics": [
            _object({"id": m.constraint_id, "focus": m.focus, "name": m.name, "value": m.value})
            for m in report.metrics
        ],
    }
    # one join at the end, so that no string but the result holds a whole array
    parts = ['{\n  "summary": ', _object(summary, "  ")]
    for key, records in arrays.items():
        parts.append(f',\n  "{key}": [')
        for n, record in enumerate(records):
            parts += (",\n    " if n else "\n    ", record)
        parts.append("\n  ]" if records else "]")
    parts.append("\n}\n")
    return "".join(parts)


def _object(fields: dict[str, object], indent: str = "    ") -> str:
    """``fields``, whose values are strings or integers, as an ``indent=2``
    JSON object whose closing brace is indented by ``indent``."""
    inner = indent + "  "
    members = ",\n".join(f"{inner}{_string(k)}: {_value(v)}" for k, v in fields.items())
    return f"{{\n{members}\n{indent}}}"


def _value(value: str | int) -> str:
    return _string(value) if isinstance(value, str) else integer_text(value)


def write_report(
    report: ValidationReport,
    fmt: str = "text",
    threshold: Severity | None = None,
) -> str:
    if fmt == "json":
        return write_json(report, threshold)
    if fmt == "text":
        return write_text(report, threshold)
    raise ValueError(f"unknown report format {fmt!r}")
