"""Report serialization: grouped text and schema-stable JSON.

The writers yield the report one record at a time, so a caller that writes
each chunk of ``report_chunks`` as it comes never holds the whole report."""

from __future__ import annotations

import json
from collections.abc import Iterator

from .catalog import Severity
from .engine import ValidationReport, severity_counts
from .xsd import integer_text


def write_text(report: ValidationReport, threshold: Severity | None = None) -> str:
    """Violations grouped by severity (errors first) then constraint id,
    one line each, with a count footer."""
    return "".join(_text_chunks(report, threshold))


def _text_chunks(report: ValidationReport, threshold: Severity | None) -> Iterator[str]:
    shown = report.at_or_above(threshold)
    for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO):
        for violation in shown:
            if violation.severity != severity:
                continue
            focus = violation.focus or "(graph)"
            yield (
                f"{str(severity).upper()} {violation.constraint_id} {focus} - "
                f"{violation.text}\n"
            )
    for metric in report.metrics:
        yield (
            f"METRIC {metric.constraint_id} {metric.focus} - {metric.name} = "
            f"{integer_text(metric.value)}\n"
        )
    skipped = report.skipped()
    for status in skipped:
        yield f"SKIPPED {status.constraint_id} - {status.status}\n"
    counts = severity_counts(shown)
    yield (
        f"summary: {counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s); {len(skipped)} constraint(s) skipped\n"
    )


# The C string encoder that json.dumps uses under ensure_ascii=False
_string = json.encoder.encode_basestring


def write_json(report: ValidationReport, threshold: Severity | None = None) -> str:
    """One object with keys summary, violations, skipped, metrics in exactly
    that order; violations keep the engine's sorted order.

    The text is what ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes
    for that object, plus a newline, laid out here one record at a time:
    ``indent`` makes ``json`` use its pure-Python encoder, which builds
    about thirty string chunks per violation before joining them. The chunks
    are yielded, so nothing holds the whole report until they are joined."""
    return "".join(_json_chunks(report, threshold))


def _json_chunks(report: ValidationReport, threshold: Severity | None) -> Iterator[str]:
    shown = report.at_or_above(threshold)
    counts = severity_counts(shown)
    summary = {"info": counts["info"], "warning": counts["warning"], "error": counts["error"]}
    yield '{\n  "summary": ' + _object(summary, "  ")
    arrays = {
        "violations": (
            {
                "id": v.constraint_id,
                "severity": str(v.severity),
                "focus": v.focus,
                "detail": v.detail,
                "message": v.message,
            }
            for v in shown
        ),
        "skipped": (
            {"id": s.constraint_id, "reason": s.status.split(": ", 1)[-1]}
            for s in report.skipped()
        ),
        "metrics": (
            {"id": m.constraint_id, "focus": m.focus, "name": m.name, "value": m.value}
            for m in report.metrics
        ),
    }
    for key, records in arrays.items():
        yield f',\n  "{key}": ['
        close = "]"
        for n, record in enumerate(records):
            yield (",\n    " if n else "\n    ") + _object(record)
            close = "\n  ]"
        yield close
    yield "\n}\n"


def _object(fields: dict[str, object], indent: str = "    ") -> str:
    """``fields``, whose values are strings or integers, as an ``indent=2``
    JSON object whose closing brace is indented by ``indent``."""
    inner = indent + "  "
    members = ",\n".join(f"{inner}{_string(k)}: {_value(v)}" for k, v in fields.items())
    return f"{{\n{members}\n{indent}}}"


def _value(value: str | int) -> str:
    return _string(value) if isinstance(value, str) else integer_text(value)


def report_chunks(report: ValidationReport, fmt: str = "text",
                  threshold: Severity | None = None) -> Iterator[str]:
    """The report in ``fmt``, as chunks of its text made one at a time."""
    if fmt == "json":
        return _json_chunks(report, threshold)
    if fmt == "text":
        return _text_chunks(report, threshold)
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(
    report: ValidationReport,
    fmt: str = "text",
    threshold: Severity | None = None,
) -> str:
    return "".join(report_chunks(report, fmt, threshold))
