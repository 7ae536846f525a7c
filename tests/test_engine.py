import functools
import gc
import inspect
import weakref
from collections import Counter
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import CONSTRAINT_TYPES, Severity
from rdfcheck.checks.models import extract_cube
from rdfcheck.engine import EngineError, validate
from rdfcheck.graph import Graph
from rdfcheck.report import write_json
from rdfcheck.violations import Finding, Violation

from conftest import FIXTURES, checker, expand, graph, iri, lit, load_catalog


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


_CHECKED_TYPES = sorted(set(CONSTRAINT_TYPES) - {"not-evaluable"})


def _table_keys(type_id):
    """The keys of the type's checker table, or [None] for a single checker."""
    ctype = CONSTRAINT_TYPES[type_id]
    return [None] if ctype.by is None else list(ctype.check)


def _needs(type_id, key):
    """The run objects the registry says the checker for ``key`` takes."""
    ctype = CONSTRAINT_TYPES[type_id]
    return ctype.needs if key is None else ctype.check[key][1]


@pytest.mark.parametrize("type_id", _CHECKED_TYPES)
def test_registered_checker_accepts_the_engine_call(type_id):
    # the engine passes the checker's needs objects, the load/eval params
    # positionally in schema order, then the opt params as keywords, and
    # nothing else: a table's selector picks the checker and is not passed
    ctype = CONSTRAINT_TYPES[type_id]
    params = {p: req for p, (_kind, req) in ctype.schema.items() if p != ctype.by}
    required = [p for p, req in params.items() if req != "opt"]
    optional = {p: None for p, req in params.items() if req == "opt"}
    for key in _table_keys(type_id):
        needs = _needs(type_id, key)
        assert set(needs) <= {"ctx", "cube", "stats", "hierarchy"}
        check = checker(type_id, key)
        assert inspect.isfunction(check)
        signature = inspect.signature(check)
        signature.bind(*needs, *required, **optional)
        # a checker takes no run object it is not given: its leading
        # parameters are its needs, by name
        assert list(signature.parameters)[:len(needs)] == list(needs), (type_id, key)


def test_no_registered_checker_takes_an_id_or_a_severity():
    # the engine alone decides which constraint and severity a finding carries
    for type_id in _CHECKED_TYPES:
        for key in _table_keys(type_id):
            params = inspect.signature(checker(type_id, key)).parameters
            assert not {"cid", "severity"} & set(params), (type_id, key)


def test_every_registered_checker_is_a_check_function_of_its_module():
    # the benchmark's tracer wraps the check_* functions each checker module
    # defines; a checker named otherwise would drop out of its module's time
    for type_id in _CHECKED_TYPES:
        ctype = CONSTRAINT_TYPES[type_id]
        for key in _table_keys(type_id):
            name = ctype.check if key is None else ctype.check[key][0]
            module, function = name.split(".")
            check = checker(type_id, key)
            assert function.startswith("check_"), name
            assert check.__module__ == f"rdfcheck.checks.{module}", name
            assert check.__name__ == function, name


def test_engine_stamps_findings_and_metrics_with_their_constraint():
    doc = {"constraints": [
        {"id": "T-ERROR", "type": "subsumption", "severity": "error",
         "params": {"class": expand("ex:A"), "superclass": expand("ex:B")}},
        {"id": "T-INFO", "type": "class-equivalence", "severity": "info",
         "params": {"class1": expand("ex:A"), "class2": expand("ex:B")}},
        {"id": "T-WARNING", "type": "data-property-facets", "severity": "warning",
         "params": {"property": expand("ex:p"), "min_length": 80}},
        {"id": "T-COUNT", "type": "aggregation", "severity": "error",
         "params": {"scope": expand("ex:A"), "path": [expand("ex:p")]}},
    ]}
    g = graph(_typed("ex:a", "ex:A"), ("ex:a", "ex:p", lit("too short")))
    report = validate(g, load_catalog(doc))
    assert [(v.constraint_id, v.severity) for v in report.violations] == [
        ("T-ERROR", Severity.ERROR),
        ("T-WARNING", Severity.WARNING),
        ("T-INFO", Severity.INFO),
    ]
    for v in report.violations:
        assert v.message.startswith(f"{v.constraint_id}: ")
        assert not v.message.startswith(f"{v.constraint_id}: {v.constraint_id}")
    assert [(m.constraint_id, m.focus, m.value) for m in report.metrics] == [
        ("T-COUNT", str(iri("ex:a")), 1)
    ]


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
    record = full_catalog.explain("DATA-CUBE-C-DATA-MODEL-CONSISTENCY-05")
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


# Each constraint is bound to its checker once, when the run starts.

def test_each_evaluable_constraint_is_bound_once(cube_fixture, full_catalog, monkeypatch):
    from rdfcheck import engine
    from rdfcheck.catalog import ConstraintType

    bound, asked = [], []
    bind, checker_of = engine._bind, ConstraintType.checker

    def counted_bind(c):
        bound.append(c.id)
        return bind(c)

    def counted_checker(self, params):
        asked.append(self.id)
        return checker_of(self, params)

    monkeypatch.setattr(engine, "_bind", counted_bind)
    monkeypatch.setattr(ConstraintType, "checker", counted_checker)
    validate(cube_fixture, full_catalog)
    assert sorted(bound) == sorted(c.id for c in full_catalog.select() if c.evaluable)
    assert len(asked) == len(bound)


def test_wrappers_installed_before_the_run_see_every_bound_checker(
    cube_fixture, full_catalog, monkeypatch
):
    # as the benchmark's tracer does: each check_* function of the checker
    # modules is replaced on its module before validate is called
    from rdfcheck import engine
    from rdfcheck.checks import cube, lexical, misc, schema, skos, statistics

    seen = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return counted

    wrappers = set()
    for module in (cube, lexical, misc, schema, skos, statistics):
        short = module.__name__.rsplit(".", 1)[-1]
        for name, fn in list(vars(module).items()):
            if name.startswith("check_") and fn.__module__ == module.__name__:
                wrapper = counting(f"{short}.{name}", fn)
                wrappers.add(wrapper)
                monkeypatch.setattr(module, name, wrapper)
    calls = []
    bind = engine._bind

    def recorded_bind(c):
        calls.append(bind(c))
        return calls[-1]

    monkeypatch.setattr(engine, "_bind", recorded_bind)
    validate(cube_fixture, full_catalog)
    assert all(check in wrappers for check, *_ in calls)
    named = {f"{check.__module__.rsplit('.', 1)[-1]}.{check.__name__}" for check, *_ in calls}
    assert set(seen) == named


# Constraints that make the same checker call share one result.

def _counting(monkeypatch, module, name, behave):
    """Replace ``module.name`` with a wrapper that records the arguments of
    each call after the graph context, then returns ``behave(original,
    *args, **kwargs)``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args[1:], kwargs))
        return behave(original, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_equal_checker_calls_run_once_and_each_constraint_keeps_its_own_result(monkeypatch):
    from rdfcheck.checks import schema

    calls = _counting(monkeypatch, schema, "check_http_scheme",
                      lambda original, *a, **k: original(*a, **k))
    severities = ["error", "warning", "info", "warning"]
    doc = {"constraints": [
        {"id": f"T-HTTP-{i}", "type": "http-scheme", "severity": severity, "params": {}}
        for i, severity in enumerate(severities)
    ]}
    g = graph(("ex:a", "ex:p", iri("urn:x")), ("ex:a", "ex:q", iri("ftp://e/y")))
    report = validate(g, load_catalog(doc))
    assert len(calls) == 1
    assert [(s.constraint_id, s.status, s.violations) for s in report.statuses] == [
        (f"T-HTTP-{i}", "evaluated", 2) for i in range(4)
    ]
    stamped = {(v.constraint_id, str(v.severity), v.detail) for v in report.violations}
    assert stamped == {(f"T-HTTP-{i}", severity, detail)
                       for i, severity in enumerate(severities) for detail in ("urn", "ftp")}
    assert all(v.message.startswith(f"{v.constraint_id}: ") for v in report.violations)


def test_a_call_that_hits_its_limit_is_not_kept(monkeypatch):
    from rdfcheck.checks import schema
    from rdfcheck.violations import ResourceLimit

    def limited(original, *args, **kwargs):
        raise ResourceLimit("too big")

    calls = _counting(monkeypatch, schema, "check_http_scheme", limited)
    doc = {"constraints": [
        {"id": f"T-HTTP-{i}", "type": "http-scheme", "severity": "error", "params": {}}
        for i in range(2)
    ]}
    report = validate(graph(("ex:a", "ex:p", iri("urn:x"))), load_catalog(doc))
    assert len(calls) == 2
    assert [s.status for s in report.statuses] == ["skipped: limit (too big)"] * 2


def test_arguments_that_json_would_blur_never_share_a_result(monkeypatch):
    from rdfcheck.catalog import Constraint
    from rdfcheck.checks import misc

    calls = _counting(monkeypatch, misc, "check_value_datatype", lambda original, *a, **k: [])
    variants = [
        {"properties": [1]}, {"properties": [1.0]}, {"properties": [True]},
        {"properties": ["a"]}, {"properties": ("a",)},
        {"datatype": {"1": "x"}}, {"datatype": {1: "x"}},
        {"properties": ["a"]},  # the one exact repeat
    ]
    constraints = [Constraint(f"T-{i}", "value-datatype", Severity.ERROR, params)
                   for i, params in enumerate(variants)]
    validate(Graph(), load_catalog({"constraints": []}), constraints)
    assert sorted(map(repr, calls)) == sorted(map(repr, [
        ((), {"properties": [1]}), ((), {"properties": [1.0]}), ((), {"properties": [True]}),
        ((), {"properties": ["a"]}), ((), {"properties": ("a",)}),
        ((), {"datatype": {"1": "x"}}), ((), {"datatype": {1: "x"}}),
    ]))


def test_no_result_is_kept_after_the_run(monkeypatch):
    from rdfcheck import engine
    from rdfcheck.catalog import builtin_catalog

    contexts = []

    class Recorded(engine.RunContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(engine, "RunContext", Recorded)
    validate(graph(("ex:a", "ex:p", iri("urn:x"))), builtin_catalog())
    [rc] = contexts
    # neither a shared result nor a model
    assert rc.kept == {}
    assert set(rc.uses.values()) == {0}


def test_only_a_key_that_two_calls_share_is_taken(monkeypatch, full_catalog):
    # a key that one call alone has is never looked up again, so it is not
    # kept for the run
    from rdfcheck import engine
    from rdfcheck.cli import _load_inputs

    taken = Counter()
    take = engine.RunContext.take

    def counted(self, key, make):
        taken[key] += 1
        return take(self, key, make)

    monkeypatch.setattr(engine.RunContext, "take", counted)
    fixtures = sorted(str(path) for path in FIXTURES.glob("*.ttl"))
    validate(_load_inputs(fixtures, None), full_catalog)
    keys = {key: n for key, n in taken.items() if key not in engine._EXTRACT}
    assert keys and min(keys.values()) >= 2


# The engine sorts and deduplicates each constraint's violations, then joins
# the lists by severity. The reference is the single global pass it replaced:
# every constraint's list, deduplicated, then sorted and deduplicated again
# by (severity, id, focus, detail, message, check path).
def _global_dedup(violations):
    ordered = sorted(violations, key=lambda v: (v.sort_key(), v.message, v.check_path))
    seen = set()
    out = []
    for violation in ordered:
        key = (violation.constraint_id, violation.focus, violation.detail)
        if key in seen:
            continue
        seen.add(key)
        out.append(violation)
    return out


_FINDINGS = st.lists(st.builds(
    Finding,
    st.sampled_from(["", "<http://e/a>", "<http://e/b>"]),
    st.sampled_from(["x", "y"]),
    st.sampled_from(["m", "n", "a: b"]),
    st.sampled_from([(), ("p",), ("p", "q")]),
    st.sampled_from([None, None, Severity.INFO]),  # INFO is the only override
), max_size=6)
# a few ids, so some repeat: a repeated id whose findings differ stands for
# two different constraints under one id, one whose findings agree for a
# constraint named twice
_RUNS = st.lists(
    st.tuples(st.sampled_from(["T-1", "T-2", "T-3", "T-4"]), st.sampled_from(list(Severity)),
              _FINDINGS),
    max_size=6,
)


@given(_RUNS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_merged_violations_equal_one_global_dedup(runs, twice):
    from rdfcheck.catalog import Constraint
    from rdfcheck.checks import misc

    if twice and runs:
        runs = runs + [runs[0]]
    # each constraint names its own findings by an index the checker reads
    constraints = [Constraint(cid, "value-datatype", severity, {"properties": [str(n)]})
                   for n, (cid, severity, _) in enumerate(runs)]
    if twice and runs:
        constraints[-1] = constraints[0]

    def check(ctx, *, properties):
        return runs[int(properties[0])][2]

    expected = _global_dedup(chain.from_iterable(
        _global_dedup(
            Violation(cid, severity if f.severity is None else f.severity,
                      f.focus, f.detail, f.message, f.check_path)
            for f in findings
        )
        for cid, severity, findings in runs
    ))
    with mock.patch.object(misc, "check_value_datatype", check):
        report = validate(Graph(), load_catalog({"constraints": []}), constraints)

    def fields(v):
        return (v.constraint_id, v.severity, v.focus, v.detail, v.message, v.check_path)

    assert list(map(fields, report.violations)) == list(map(fields, expected))
    assert len(report.statuses) == len(constraints)


def test_a_disco_run_never_extracts_the_cube(capsys):
    # vocab-membership's scheme mode reads no cube, so no DISCO checker does
    from rdfcheck import engine
    from rdfcheck.cli import run_cli

    calls = []

    def extract(ctx):
        calls.append(ctx)
        return extract_cube(ctx)

    data = str(FIXTURES / "eusilc.ttl")
    with mock.patch.object(engine, "extract_cube", extract):
        run_cli(["--vocab", "disco", data])
        assert calls == []
        run_cli(["--vocab", "qb", data])
    assert len(calls) == 1


def test_each_model_is_extracted_once_per_run(cube_fixture, full_catalog):
    # the full catalog reads all three models; one dropped before its last
    # reader would be extracted again. The tracer counts on this too: it
    # wraps the extractors on the engine module before the run
    from rdfcheck import engine

    calls = Counter()

    def counting(name):
        extract = getattr(engine, name)

        def counted(ctx):
            calls[name] += 1
            return extract(ctx)

        return counted

    names = ["extract_cube", "extract_statistics", "extract_hierarchy"]
    with mock.patch.multiple(engine, **{name: counting(name) for name in names}):
        validate(cube_fixture, full_catalog)
    assert calls == dict.fromkeys(names, 1)


def test_the_cube_is_dropped_right_after_its_last_reader(cube_fixture, full_catalog):
    # before each constraint runs, whether the run context holds the cube:
    # one run of True, from its first reader to its last, IC-21, and none
    # from then on; the later DISCO scheme-membership check reads no cube
    from rdfcheck import engine

    held = []
    run_one = engine._run_one

    def probed(rc, c, call):
        held.append((c.id, "cube" in rc.kept))
        return run_one(rc, c, call)

    with mock.patch.object(engine, "_run_one", probed):
        validate(cube_fixture, full_catalog)
    flags = [alive for _id, alive in held]
    first, last = flags.index(True), len(flags) - 1 - flags[::-1].index(True)
    assert all(flags[first:last + 1]) and not any(flags[last + 1:])
    assert held[last][0] == "DATA-CUBE-C-STRUCTURE-02"
    assert "DISCO-C-MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01" in dict(held[last + 1:])


def test_a_model_is_released_after_its_last_user():
    # T-1 builds the cube; T-2 runs while a later user remains; T-3 makes
    # T-1's call again, so the memo answers it, and is the last user; T-4
    # runs after it
    from rdfcheck import engine
    from rdfcheck.catalog import Constraint
    from rdfcheck.checks import misc

    models = []
    alive = {}

    def extract(ctx):
        model = extract_cube(ctx)
        models.append(weakref.ref(model))
        return model

    def probe(ctx, *, properties):
        gc.collect()
        alive[properties[0]] = [ref() is not None for ref in models]
        return []

    def qb(cid):
        return Constraint(cid, "qb-integrity", Severity.ERROR, {"ic": 3})

    def probed(cid):
        return Constraint(cid, "value-datatype", Severity.ERROR, {"properties": [cid]})

    constraints = [qb("T-1"), probed("T-2"), qb("T-3"), probed("T-4")]
    with mock.patch.object(engine, "extract_cube", extract), \
            mock.patch.object(misc, "check_value_datatype", probe):
        validate(graph(("ex:a", "ex:p", lit("x"))), load_catalog({"constraints": []}),
                 constraints)
    assert alive == {"T-2": [True], "T-4": [False]}

