import importlib
import inspect

import pytest

from rdfcheck.catalog import CONSTRAINT_TYPES, Severity, load_catalog
from rdfcheck.engine import EngineError, explain, validate
from rdfcheck.graph import Graph
from rdfcheck.report import write_json

from conftest import expand, graph, lit


def _typed(node, cls):
    return (node, "rdf:type", cls)


def test_empty_graph_full_disco_catalog_zero_violations(disco_catalog):
    report = validate(Graph(), disco_catalog)
    assert report.violations == ()
    assert report.counts == {"info": 0, "warning": 0, "error": 0}


def test_eusilc_fixture_clean(eusilc, disco_catalog):
    report = validate(eusilc, disco_catalog)
    assert report.violations == ()


def test_single_fault_injection_percentage(eusilc, disco_catalog):
    # turning one 10% slice into 9% must break exactly the percentage-sum
    # family: the sum rule, its informational twin, and the cumulative chain
    mutated = _replace_object(eusilc, "disco:percentage", "10.0", "9.0")
    report = validate(mutated, disco_catalog)
    ids = {v.constraint_id for v in report.violations}
    assert ids == {
        "DISCO-C-MATHEMATICAL-OPERATIONS-01",
        "DISCO-C-AGGREGATION-06",
        "DISCO-C-DATA-MODEL-CONSISTENCY-01",
    }


def _replace_object(g, prop, old_lexical, new_lexical):
    from rdfcheck.terms import Literal, Triple

    out = []
    for t in g:
        if t.predicate.value == expand(prop) and isinstance(t.object, Literal) \
                and t.object.lexical == old_lexical:
            out.append(Triple(t.subject, t.predicate,
                              Literal(new_lexical, datatype=t.object.datatype)))
        else:
            out.append(t)
    return Graph(out)


def test_reports_identical_across_repeated_runs(eusilc, disco_catalog):
    reports = [write_json(validate(eusilc, disco_catalog)) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("type_id", sorted(set(CONSTRAINT_TYPES) - {"not-evaluable"}))
def test_registered_checker_accepts_the_engine_call(type_id):
    # the engine passes the needs objects, the load/eval params positionally
    # in schema order, then the opt params as keywords, then cid and severity
    ctype = CONSTRAINT_TYPES[type_id]
    module, name = ctype.check.split(".")
    check = getattr(importlib.import_module(f"rdfcheck.checks.{module}"), name)
    assert inspect.isfunction(check)
    assert set(ctype.needs) <= {"ctx", "cube", "stats", "hierarchy"}
    required = [p for p, (_kind, req) in ctype.schema.items() if req != "opt"]
    optional = {p: None for p, (_kind, req) in ctype.schema.items() if req == "opt"}
    inspect.signature(check).bind(
        *ctype.needs, *required, **optional, cid=type_id, severity=Severity.ERROR
    )


def test_union_of_constraint_subsets_equals_full_run(eusilc, disco_catalog):
    mutated = _replace_object(eusilc, "disco:percentage", "10.0", "9.0")
    selected = disco_catalog.select()
    half_a, half_b = selected[::2], selected[1::2]
    full = validate(mutated, disco_catalog, selected)
    merged = set(validate(mutated, disco_catalog, half_a).violations) | set(
        validate(mutated, disco_catalog, half_b).violations
    )
    assert set(full.violations) == merged


def test_dedup_by_focus_and_detail():
    doc = {
        "constraints": [
            # two identical range rules under one id produce one violation
            {"id": "T-1", "type": "range-table", "severity": "error",
             "params": {"ranges": {
                 "http://example.org/p": {"datatype": expand("xsd:integer")},
             }}},
        ]
    }
    catalog = load_catalog(doc)
    g = graph(("ex:s", "ex:p", lit("oops", "xsd:integer")),
              ("ex:s", "ex:p", lit("oops", "xsd:integer")))
    report = validate(g, catalog)
    assert len(report.violations) == 1


def test_not_evaluable_constraints_skipped_not_failed(disco_catalog):
    report = validate(Graph(), disco_catalog)
    skipped = {s.constraint_id: s.status for s in report.skipped()}
    assert "DISCO-C-NEGATIVE-LITERAL-PATTERN-MATCHING-01" in skipped
    assert "not evaluable" in skipped["DISCO-C-NEGATIVE-LITERAL-PATTERN-MATCHING-01"]


def test_every_selected_constraint_has_exactly_one_status(disco_catalog):
    report = validate(Graph(), disco_catalog)
    ids = [s.constraint_id for s in report.statuses]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids)) == len(disco_catalog.constraints)


def test_resource_limit_becomes_skip(monkeypatch, qb_catalog, cube_fixture):
    import rdfcheck.checks.cube as cube_mod

    monkeypatch.setattr(cube_mod, "GROUP_LIMIT", 0)
    report = validate(cube_fixture, qb_catalog)
    status = {s.constraint_id: s.status for s in report.statuses}
    assert status["DATA-CUBE-C-DATA-MODEL-CONSISTENCY-10"].startswith("skipped: limit")


def test_internal_error_names_constraint(monkeypatch, disco_catalog, eusilc):
    import rdfcheck.checks.statistics as statistics_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(statistics_mod, "check_percentage_sum", boom)
    # the earliest percentage-sum constraint by id is the one reported
    with pytest.raises(EngineError, match="DISCO-C-AGGREGATION-06"):
        validate(eusilc, disco_catalog)


def test_severity_threshold_is_monotone(eusilc, disco_catalog):
    mutated = _replace_object(eusilc, "disco:percentage", "10.0", "9.0")
    report = validate(mutated, disco_catalog)
    sizes = [
        len([v for v in report.violations if threshold is None or v.severity >= threshold])
        for threshold in (None, Severity.INFO, Severity.WARNING, Severity.ERROR)
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_violation_messages_contain_constraint_id(eusilc, disco_catalog):
    mutated = _replace_object(eusilc, "disco:percentage", "10.0", "9.0")
    report = validate(mutated, disco_catalog)
    assert report.violations
    for v in report.violations:
        assert v.constraint_id in v.message


def test_explain_cites_integrity_constraint(full_catalog):
    record = explain("DATA-CUBE-C-DATA-MODEL-CONSISTENCY-05", full_catalog)
    assert record["reference"] == "IC-12"
    assert "No duplicate observations" in record["description"]


def test_missing_triple_violation_disappears_when_satisfied(disco_catalog):
    # adding the triple a missing-triple finding asks for removes exactly it
    g = graph(
        _typed("ex:s", "disco:Study"),
        ("ex:s", "disco:fundedBy", "ex:agency"),
    )
    only = [disco_catalog.constraints["DISCO-C-SUB-PROPERTIES-01"]]
    before = validate(g, disco_catalog, only)
    assert len(before.violations) == 1
    fixed = Graph(list(g) + [next(iter(graph(
        ("ex:s", "dcterms:contributor", "ex:agency"))))])
    after = validate(fixed, disco_catalog, only)
    assert after.violations == ()
