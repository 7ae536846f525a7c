"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import corpus
import run
import spans
import verdict


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a")
    again = corpus.generate(workload, 7, tmp_path / "b")
    other = corpus.generate(workload, 8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert first == again
    assert first["planted"] != other["planted"]
    assert first["triples"] == other["triples"]


def test_manifest_lists_each_planted_defect(tmp_path):
    manifest = corpus.generate("deposit-full", 1, tmp_path)
    assert sorted(d["id"] for d in manifest["planted"]) == sorted([
        corpus.BROADER_CYCLE, corpus.CODE_NOT_IN_LIST,
        corpus.DUPLICATE_OBSERVATION, corpus.PERCENTAGE_SUM,
    ])
    assert manifest["expected_exit"] == 1
    assert manifest["triples"] == sum(i["triples"] for i in manifest["inputs"])
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_times_subtract_direct_children_only():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("b.child", 6.0, 7.5, 2),
        _span("b.grandchild", 6.5, 7.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    assert sum(spans.self_times(tree)) == pytest.approx(spans.root_seconds(tree))


def test_recorder_nests_spans_and_attaches_counts():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda x: x * 2, counts=lambda args, r: {"out": r})

    def body():
        return inner(3) + inner(4)

    outer = recorder.wrap("outer", body)
    assert outer() == 14
    names = [(s["name"], s["parent"], s.get("out")) for s in recorder.spans]
    assert names == [("outer", None, None), ("inner", 0, 6), ("inner", 0, 8)]
    assert spans.self_times(recorder.spans) == [3.0, 1.0, 1.0]


def test_layer_metrics_on_a_synthetic_run():
    def span(name, start, end, parent, **extra):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "rss_kb": 1024 * int(end), **extra}

    run = [
        span("cli.run_cli", 0.0, 20.0, None),
        span("catalog.builtin_catalog", 0.0, 1.0, 0),
        span("catalog.merge_catalogs", 0.5, 1.0, 1),
        span("ntriples.parse_ntriples", 1.0, 6.0, 0, triples=100),
        span("graph.Graph.__init__", 4.0, 6.0, 3, triples=100),
        span("graph.Graph.__init__", 6.0, 7.0, 0, triples=100),
        span("engine.validate", 8.0, 18.0, 0, eval_s=7.0, evaluated=3, skipped=1,
             violations=5, eval_s_by_type={"presence": 4.0, "http-scheme": 3.0}),
        span("checks.models.extract_cube", 8.0, 9.5, 6, observations=4, dsds=1),
        span("checks.schema.check_http_scheme", 10.0, 13.0, 6),
        span("graph.Graph.iris", 11.0, 12.0, 8),
        span("checks.misc.check_presence", 13.0, 17.0, 6),
        span("report.write_report", 18.0, 19.0, 0, bytes=42),
    ]
    m = spans.layer_metrics(run)
    assert m["catalog.load_s"] == pytest.approx(1.0)
    assert m["ntriples.parse_s"] == pytest.approx(3.0)
    assert m["ntriples.triples_per_s"] == pytest.approx(100 / 3.0)
    assert m["turtle.parse_s"] == 0 and m["turtle.triples_per_s"] == 0
    assert (m["graph.build_s"], m["graph.builds"], m["graph.triples"]) == (3.0, 2, 200)
    assert (m["graph.iris_s"], m["graph.iris_calls"]) == (1.0, 1)
    assert m["cli.self_s"] == pytest.approx(20 - 1 - 5 - 1 - 10 - 1)
    assert m["rss_mb.after_load"] == 7 and m["rss_mb.after_validate"] == 18
    assert m["checks.models.cube_s"] == pytest.approx(1.5)
    assert (m["checks.models.observations"], m["checks.models.dsds"]) == (4, 1)
    assert m["engine.validate_s"] == pytest.approx(10.0)
    assert m["engine.overhead_s"] == pytest.approx(10.0 - 7.0 - 1.5)
    assert m["engine.eval_s.presence"] == 4.0 and m["engine.eval_s.qb-integrity"] == 0.0
    assert m["checks.schema.eval_s"] == pytest.approx(2.0)
    assert m["checks.misc.eval_s"] == pytest.approx(4.0)
    assert (m["report.render_s"], m["report.bytes"]) == (1.0, 42)
    assert len([k for k in m if k.startswith("engine.eval_s.")]) == len(spans.CONSTRAINT_TYPES)


def _manifest(fmt="json"):
    return {
        "report": fmt,
        "expected_exit": 1,
        "planted": [
            {"id": "DISCO-C-MATHEMATICAL-OPERATIONS-01", "focus": "<http://example.org/s1/v1>"},
            {"id": "SKOS-C-STRUCTURE-03", "focus": "<http://example.org/t/c1>"},
        ],
    }


def _json_report(pairs):
    return json.dumps({"violations": [
        {"id": cid, "severity": "error", "focus": focus, "detail": "", "message": cid}
        for cid, focus in pairs
    ]})


PLANTED = [("DISCO-C-MATHEMATICAL-OPERATIONS-01", "<http://example.org/s1/v1>"),
           ("SKOS-C-STRUCTURE-03", "<http://example.org/t/c1>")]
OTHER = [("SKOS-C-STRUCTURE-06", "<http://example.org/t/c2>")]


def test_verdict_accepts_the_planted_answer():
    assert verdict.problems(_manifest(), 1, _json_report(PLANTED + OTHER)) == []


def test_verdict_rejects_a_report_missing_one_planted_defect():
    found = verdict.problems(_manifest(), 1, _json_report(PLANTED[1:] + OTHER))
    assert found == [
        "planted defect not reported: DISCO-C-MATHEMATICAL-OPERATIONS-01 "
        "<http://example.org/s1/v1>"
    ]


def test_verdict_rejects_wrong_exit_extra_findings_and_timeouts():
    extra = PLANTED + [("SKOS-C-STRUCTURE-03", "<http://example.org/t/c9>")]
    assert verdict.problems(_manifest(), 1, _json_report(extra)) == [
        "unexpected finding: SKOS-C-STRUCTURE-03 <http://example.org/t/c9>"
    ]
    assert verdict.problems(_manifest(), 0, _json_report(PLANTED)) == [
        "exit code 0, expected 1"
    ]
    assert verdict.problems(_manifest(), None, None) == ["timed out"]
    assert verdict.problems(_manifest(), 2, None) == [
        "exit code 2, expected 1", "no report written"
    ]


def test_verdict_reads_text_reports():
    lines = [f"WARNING {cid} {focus} - message text" for cid, focus in PLANTED[1:]]
    text = "\n".join(lines + ["SKIPPED X - skipped: limit", "summary: ..."]) + "\n"
    assert verdict.findings(text, "text") == set(PLANTED[1:])
    found = verdict.problems(_manifest("text"), 1, text)
    assert found == [
        "planted defect not reported: DISCO-C-MATHEMATICAL-OPERATIONS-01 "
        "<http://example.org/s1/v1>"
    ]


def test_times_are_scaled_by_the_reading_before_them():
    ref = run.REF_NOMINAL_S
    plain = [{"wall_s": 2.0, "ref_s": ref, "rss_kb": 2048},
             {"wall_s": 3.0, "ref_s": 1.5 * ref, "rss_kb": 4096},
             {"wall_s": 5.0, "ref_s": 2 * ref, "rss_kb": 3072}]
    m = run.end_to_end_metrics({"triples": 100}, plain, [0.2, 0.6], [ref, 2 * ref], 4, 1)
    values = {k: v["value"] for k, v in m.items()}
    assert values == pytest.approx({"wall_s": 2.0, "triples_per_s": 50.0, "peak_rss_mb": 3.0,
                                    "setup_s": 0.25, "verdict_ok": 0.75})
