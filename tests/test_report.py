import json
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import Severity
from rdfcheck.engine import ValidationReport, ConstraintStatus, severity_counts, validate
from rdfcheck.report import report_chunks, write_json, write_report, write_text
from rdfcheck.violations import MetricRecord, Violation


def _violation(cid, severity, focus="<http://x/f>", detail="d"):
    return Violation(cid, severity, focus, detail, "something is off")


def _report(violations=(), metrics=(), statuses=()):
    return ValidationReport(tuple(violations), tuple(metrics), tuple(statuses))


def test_empty_report_text_is_summary_only():
    text = write_text(_report())
    assert text == "summary: 0 error(s), 0 warning(s), 0 info(s); 0 constraint(s) skipped\n"


def test_counts_partition_by_severity():
    report = _report([
        _violation("A-1", Severity.ERROR),
        _violation("B-1", Severity.INFO, detail="d1"),
        _violation("B-2", Severity.INFO, detail="d2"),
    ])
    doc = json.loads(write_json(report))
    assert doc["summary"] == {"info": 2, "warning": 0, "error": 1}


def test_json_key_order_is_stable():
    doc = write_json(_report([_violation("A-1", Severity.ERROR)]))
    parsed = json.loads(doc)
    assert list(parsed.keys()) == ["summary", "violations", "skipped", "metrics"]
    assert list(parsed["summary"].keys()) == ["info", "warning", "error"]
    assert list(parsed["violations"][0].keys()) == [
        "id", "severity", "focus", "detail", "message",
    ]


def test_json_round_trips_to_equal_structure():
    report = _report(
        [_violation("A-1", Severity.WARNING)],
        [MetricRecord("M-1", "<http://x/f>", "count", 3)],
        [ConstraintStatus("S-1", "skipped: not evaluable (pattern)", 0, 0.0)],
    )
    once = write_json(report)
    assert json.loads(once) == json.loads(json.dumps(json.loads(once)))


def test_text_groups_by_severity_then_id():
    report = _report([
        _violation("Z-INFO", Severity.INFO),
        _violation("A-ERROR", Severity.ERROR),
        _violation("M-WARN", Severity.WARNING),
    ])
    lines = write_text(report).splitlines()
    assert lines[0] == "ERROR A-ERROR <http://x/f> - something is off"
    assert lines[1].startswith("WARNING M-WARN")
    assert lines[2].startswith("INFO Z-INFO")


@pytest.mark.parametrize("cid", ["A-1", "A: 1", "A-1: x"])
def test_the_id_leads_the_json_message_and_the_text_line_shows_the_checker_text(cid):
    report = _report([_violation(cid, Severity.ERROR)])
    [record] = json.loads(write_json(report))["violations"]
    assert record["message"] == f"{cid}: something is off"
    assert write_text(report).splitlines()[0] == f"ERROR {cid} <http://x/f> - something is off"


def test_threshold_filters_display():
    report = _report([
        _violation("A-1", Severity.ERROR),
        _violation("B-1", Severity.INFO),
    ])
    doc = json.loads(write_json(report, threshold=Severity.WARNING))
    assert doc["summary"] == {"info": 0, "warning": 0, "error": 1}
    assert len(doc["violations"]) == 1


def test_skipped_entries_carry_reason():
    report = _report(statuses=[
        ConstraintStatus("X-1", "skipped: not evaluable (pattern)", 0, 0.0),
        ConstraintStatus("X-2", "evaluated", 0, 0.0),
    ])
    doc = json.loads(write_json(report))
    assert doc["skipped"] == [{"id": "X-1", "reason": "not evaluable (pattern)"}]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_report(_report(), "yaml")


def test_fixture_json_report_is_golden_stable(eusilc, disco_catalog):
    a = write_json(validate(eusilc, disco_catalog))
    b = write_json(validate(eusilc, disco_catalog))
    assert a == b
    parsed = json.loads(a)
    assert parsed["summary"] == {"info": 0, "warning": 0, "error": 0}
    assert len(parsed["metrics"]) == 7


def _reference_json(report, threshold=None):
    """The JSON report as ``json.dumps`` lays it out, which ``write_json``
    reproduces without building the document."""
    shown = report.at_or_above(threshold)
    counts = severity_counts(shown)
    doc = {
        "summary": {"info": counts["info"], "warning": counts["warning"], "error": counts["error"]},
        "violations": [
            {"id": v.constraint_id, "severity": str(v.severity), "focus": v.focus,
             "detail": v.detail, "message": v.message}
            for v in shown
        ],
        "skipped": [
            {"id": s.constraint_id, "reason": s.status.split(": ", 1)[-1]}
            for s in report.skipped()
        ],
        "metrics": [
            {"id": m.constraint_id, "focus": m.focus, "name": m.name, "value": m.value}
            for m in report.metrics
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


# quotes, backslashes, control characters, DEL, the JavaScript line
# separators and non-BMP characters, among any others
_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\x7f\u2028\u2029'),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000),
    st.characters(),
), max_size=8)
_SEVERITY = st.sampled_from(list(Severity))
_VIOLATIONS = st.lists(st.builds(Violation, _TEXT, _SEVERITY, _TEXT, _TEXT, _TEXT), max_size=4)
_METRICS = st.lists(
    st.builds(MetricRecord, _TEXT, _TEXT, _TEXT,
              st.integers() | st.sampled_from([-1, -(2**63), 2**64, 10**40])),
    max_size=4,
)
_STATUSES = st.lists(
    st.builds(ConstraintStatus, _TEXT,
              st.just("evaluated") | _TEXT | _TEXT.map("skipped: {}".format),
              st.integers(0, 3), st.just(0.0)),
    max_size=4,
)


@given(_VIOLATIONS, _METRICS, _STATUSES, st.none() | _SEVERITY)
@settings(max_examples=200, deadline=None)
def test_json_matches_json_dumps_layout(violations, metrics, statuses, threshold):
    report = _report(violations, metrics, statuses)
    reference = _reference_json(report, threshold)
    assert write_json(report, threshold) == reference
    assert "".join(report_chunks(report, "json", threshold)) == reference


def _large_report(violations: int):
    return _report(
        [
            Violation(f"C-{n % 40:02d}", Severity.WARNING, f"<http://example.org/node/{n}>",
                      f"detail {n}", f"node {n} lacks a preferred label")
            for n in range(violations)
        ],
        [MetricRecord("M-1", "<http://example.org/g>", "count", n) for n in range(50)],
        [ConstraintStatus(f"S-{n}", "skipped: not evaluable (pattern)", 0, 0.0) for n in range(20)],
    )


def test_json_render_allocates_under_four_times_its_output():
    # tracemalloc counts every allocation, so the bound does not flake
    report = _large_report(5000)
    tracemalloc.start()
    try:
        text = write_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _reference_json(report)
    assert peak < 4 * len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_streamed_render_allocates_under_a_tenth_of_its_output(fmt):
    # written chunk by chunk, no string holds more than a record or the
    # file's buffer, whatever the report's size
    report = _large_report(20000)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            out.writelines(report_chunks(report, fmt))
            out.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.seek(0)
        written = out.buffer.read()
    text = write_report(report, fmt)
    assert written == text.encode("utf-8")
    assert peak < len(written) / 10
