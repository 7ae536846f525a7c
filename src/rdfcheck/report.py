"""Report serialization: grouped text and schema-stable JSON."""

from __future__ import annotations

import json

from .catalog import Severity
from .engine import ValidationReport, severity_counts


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
            f"{metric.value}"
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


def write_json(report: ValidationReport, threshold: Severity | None = None) -> str:
    """One object with keys summary, violations, skipped, metrics in exactly
    that order; violations keep the engine's sorted order."""
    shown = report.at_or_above(threshold)
    counts = severity_counts(shown)
    doc = {
        "summary": {
            "info": counts["info"],
            "warning": counts["warning"],
            "error": counts["error"],
        },
        "violations": [
            {
                "id": v.constraint_id,
                "severity": str(v.severity),
                "focus": v.focus,
                "detail": v.detail,
                "message": v.message,
            }
            for v in shown
        ],
        "skipped": [
            {"id": s.constraint_id, "reason": s.status.split(": ", 1)[-1]}
            for s in report.skipped()
        ],
        "metrics": [
            {
                "id": m.constraint_id,
                "focus": m.focus,
                "name": m.name,
                "value": m.value,
            }
            for m in report.metrics
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


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
