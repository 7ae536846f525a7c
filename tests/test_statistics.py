import random
from decimal import Decimal
from fractions import Fraction

from rdfcheck.catalog import Severity
from rdfcheck.checks.models import extract_statistics
from rdfcheck.checks.statistics import (
    check_cumulative_chain,
    check_frequency_totals,
    check_min_max,
    check_percentage_sum,
    check_statistic_applicability,
)
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.terms import BlankNode, Iri, Triple

from conftest import ctx_for, expand, graph, lit

SUMSTAT = "http://rdf-vocabulary.ddialliance.org/cv/SummaryStatisticType#"


def stats_fixture(codes, summaries=(), ordered=True, repr_kind="ordered"):
    """The statistics model of ``stats_graph``."""
    return extract_statistics(ctx_for(stats_graph(codes, summaries, ordered, repr_kind)))


def stats_graph(
    codes,  # list of (freq, pct, cum, valid) or None fields
    summaries=(),  # list of (type local name, lexical, datatype)
    ordered=True,
    repr_kind="ordered",
):
    """Build a one-variable statistics graph programmatically."""
    rows = [("ex:v", "rdf:type", "disco:Variable")]
    if repr_kind == "ordered":
        rows.append(("ex:v", "disco:representation", "ex:repr"))
        rows.append(("ex:repr", "rdf:type", "skos:OrderedCollection"))
        if ordered:
            # build the member list spine
            nodes = [BlankNode(f"l{i}") for i in range(len(codes))]
            triples = []
            for i in range(len(codes)):
                triples.append((nodes[i], "rdf:first", Iri(expand(f"ex:code{i}"))))
                rest = nodes[i + 1] if i + 1 < len(codes) else Iri(expand("rdf:nil"))
                triples.append((nodes[i], "rdf:rest", rest))
            rows.append(("ex:repr", "skos:memberList",
                         nodes[0] if nodes else Iri(expand("rdf:nil"))))
            rows.extend(triples)
    elif repr_kind == "scheme":
        rows.append(("ex:v", "disco:representation", "ex:repr"))
        rows.append(("ex:repr", "rdf:type", "skos:ConceptScheme"))
        for i in range(len(codes)):
            rows.append((f"ex:code{i}", "skos:inScheme", "ex:repr"))
    elif repr_kind == "string":
        rows.append(("ex:v", "disco:representation", "xsd:string"))
        rows.append(("xsd:string", "rdf:type", "rdfs:Datatype"))
    for i, spec in enumerate(codes):
        freq, pct, cum, valid = spec
        rows.append((f"ex:code{i}", "rdf:type", "skos:Concept"))
        if valid is not None:
            rows.append((f"ex:code{i}", "disco:isValid",
                         lit("true" if valid else "false", "xsd:boolean")))
        rows.append((f"ex:cs{i}", "disco:statisticsCategory", f"ex:code{i}"))
        if freq is not None:
            rows.append((f"ex:cs{i}", "disco:frequency",
                         lit(str(freq), "xsd:nonNegativeInteger")))
        if pct is not None:
            rows.append((f"ex:cs{i}", "disco:percentage", lit(str(pct), "xsd:double")))
        if cum is not None:
            rows.append((f"ex:cs{i}", "disco:cumulativePercentage",
                         lit(str(cum), "xsd:double")))
    for i, (local, lexical, datatype) in enumerate(summaries):
        rows.append((f"ex:ss{i}", "disco:statisticsVariable", "ex:v"))
        rows.append((f"ex:ss{i}", "disco:summaryStatisticsType", SUMSTAT + local))
        rows.append((f"ex:ss{i}", "rdf:value", lit(lexical, datatype)))
    return graph(*rows)


def test_percentage_sum_exact():
    stats = stats_fixture([(None, "50.0", None, None), (None, "30.0", None, None),
                           (None, "20.0", None, None)])
    assert check_percentage_sum(stats) == []


def test_percentage_sum_off_by_one():
    stats = stats_fixture([(None, "50.0", None, None), (None, "30.0", None, None),
                           (None, "19.0", None, None)])
    out = check_percentage_sum(stats)
    assert len(out) == 1 and "99" in out[0].message


def test_percentage_single_code_100():
    stats = stats_fixture([(None, "100.0", None, None)])
    assert check_percentage_sum(stats) == []


def test_percentage_missing_value_skips():
    stats = stats_fixture([(None, "50.0", None, None), (None, None, None, None)])
    assert check_percentage_sum(stats) == []


def test_percentage_tolerance():
    stats = stats_fixture([(None, "99.995", None, None)])
    assert check_percentage_sum(stats, tolerance=Decimal("0.01")) == []
    assert len(check_percentage_sum(stats, tolerance=Decimal("0.001"))) == 1


def test_frequency_totals_match():
    stats = stats_fixture(
        [(10, None, None, True), (5, None, None, True)],
        summaries=[("NumberOfCases", "15", "xsd:nonNegativeInteger")],
    )
    assert check_frequency_totals(None, stats, "sum-vs-total") == []


def test_valid_plus_invalid_mismatch():
    stats = stats_fixture(
        [],
        summaries=[
            ("NumberOfCases", "15", "xsd:nonNegativeInteger"),
            ("ValidCases", "10", "xsd:nonNegativeInteger"),
            ("InvalidCases", "4", "xsd:nonNegativeInteger"),
        ],
    )
    out = check_frequency_totals(None, stats, "valid-plus-invalid")
    assert len(out) == 1


def test_valid_sum_uses_flags():
    stats = stats_fixture(
        [(10, None, None, True), (5, None, None, False)],
        summaries=[("ValidCases", "10", "xsd:nonNegativeInteger")],
    )
    assert check_frequency_totals(None, stats, "valid-sum") == []
    stats_bad = stats_fixture(
        [(10, None, None, True), (5, None, None, False)],
        summaries=[("ValidCases", "12", "xsd:nonNegativeInteger")],
    )
    assert len(check_frequency_totals(None, stats_bad, "valid-sum")) == 1


def test_country_totals():
    rows = [
        ("ex:v", "rdf:type", "disco:Variable"),
        ("ex:ssAll", "disco:statisticsVariable", "ex:v"),
        ("ex:ssAll", "disco:summaryStatisticsType", SUMSTAT + "NumberOfCases"),
        ("ex:ssAll", "rdf:value", lit("30", "xsd:nonNegativeInteger")),
        ("ex:ssAll", "ex:country", lit("All")),
        ("ex:ssAT", "disco:statisticsVariable", "ex:v"),
        ("ex:ssAT", "disco:summaryStatisticsType", SUMSTAT + "NumberOfCases"),
        ("ex:ssAT", "rdf:value", lit("10", "xsd:nonNegativeInteger")),
        ("ex:ssAT", "ex:country", lit("AT")),
        ("ex:ssBE", "disco:statisticsVariable", "ex:v"),
        ("ex:ssBE", "disco:summaryStatisticsType", SUMSTAT + "NumberOfCases"),
        ("ex:ssBE", "rdf:value", lit("21", "xsd:nonNegativeInteger")),
        ("ex:ssBE", "ex:country", lit("BE")),
    ]
    ctx = ctx_for(graph(*rows))
    stats = extract_statistics(ctx)
    out = check_frequency_totals(ctx, stats, "country-totals",
                                 country_property=expand("ex:country"))
    assert len(out) == 1 and "31" in out[0].message


_BIG = 10**29  # past the 28 digits of the default decimal context


def test_sums_past_28_digits_are_exact():
    # every count is its exact sum, and the percentages and the chain of
    # cumulatives hold exactly
    stats = stats_fixture(
        [
            (_BIG + 601, "1000000000000000000000000000000.5",
             "1000000000000000000000000000000.5", True),
            (_BIG + 302, "0.5", "1000000000000000000000000000001", True),
            (_BIG + 103, "-999999999999999999999999999901", "100", False),
        ],
        summaries=[
            ("NumberOfCases", str(3 * _BIG + 1006), "xsd:nonNegativeInteger"),
            ("ValidCases", str(2 * _BIG + 903), "xsd:nonNegativeInteger"),
            ("InvalidCases", str(_BIG + 103), "xsd:nonNegativeInteger"),
        ],
    )
    for mode in ("sum-vs-total", "valid-sum", "invalid-sum", "valid-plus-invalid"):
        assert check_frequency_totals(None, stats, mode) == []
    assert check_percentage_sum(stats, tolerance=0) == []
    assert check_cumulative_chain(stats, "chain", tolerance=0) == []
    assert check_cumulative_chain(stats, "last-100", tolerance=0) == []


def test_country_totals_past_28_digits_are_exact():
    rows = [("ex:v", "rdf:type", "disco:Variable")]
    for country, cases in (("All", 2 * _BIG + 31), ("AT", _BIG + 10), ("BE", _BIG + 20)):
        rows += [
            (f"ex:ss{country}", "disco:statisticsVariable", "ex:v"),
            (f"ex:ss{country}", "disco:summaryStatisticsType", SUMSTAT + "NumberOfCases"),
            (f"ex:ss{country}", "rdf:value", lit(str(cases), "xsd:nonNegativeInteger")),
            (f"ex:ss{country}", "ex:country", lit(country)),
        ]
    ctx = ctx_for(graph(*rows))
    out = check_frequency_totals(ctx, extract_statistics(ctx), "country-totals",
                                 country_property=expand("ex:country"))
    assert len(out) == 1
    assert f"sum to {2 * _BIG + 30} but the 'All' total is {2 * _BIG + 31}" in out[0].message


def test_min_max_ordered():
    stats = stats_fixture([], summaries=[("Minimum", "3", "xsd:integer"),
                                          ("Maximum", "7", "xsd:integer")])
    assert check_min_max(stats) == []


def test_min_exceeds_max():
    stats = stats_fixture([], summaries=[("Minimum", "8", "xsd:integer"),
                                          ("Maximum", "7", "xsd:integer")])
    assert len(check_min_max(stats)) == 1


def test_min_only_not_evaluable():
    stats = stats_fixture([], summaries=[("Minimum", "8", "xsd:integer")])
    assert check_min_max(stats) == []


def test_cumulative_chain_good():
    stats = stats_fixture([
        (None, "50.0", "50.0", None),
        (None, "30.0", "80.0", None),
        (None, "20.0", "100.0", None),
    ])
    assert check_cumulative_chain(stats, "chain") == []
    assert check_cumulative_chain(stats, "last-100") == []


def test_cumulative_last_not_100():
    stats = stats_fixture([
        (None, "50.0", "50.0", None),
        (None, "30.0", "80.0", None),
        (None, "19.0", "99.0", None),
    ])
    assert check_cumulative_chain(stats, "chain") == []
    assert len(check_cumulative_chain(stats, "last-100")) == 1


def test_cumulative_chain_matches_prefix_sum_oracle():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randrange(1, 6)
        pcts = [Fraction(rng.randrange(0, 1000), 10) for _ in range(n)]
        cums = []
        running = Fraction(0)
        for p in pcts:
            running += p
            cums.append(running if rng.random() < 0.8 else running + Fraction(1))
        stats = stats_fixture([
            (None, f"{float(p):.1f}", f"{float(c):.1f}", None)
            for p, c in zip(pcts, cums)
        ])
        out = check_cumulative_chain(stats, "chain", tolerance=Decimal("0.01"))
        running = Fraction(0)
        expected = 0
        for p, c in zip(pcts, cums):
            if abs((running + p) - c) > Fraction(1, 100):
                expected += 1
            running = c
        assert len(out) == expected


def test_unordered_list_gets_ordering_note():
    stats = stats_fixture([(None, "100.0", "100.0", None)], repr_kind="scheme")
    out = check_cumulative_chain(stats, "chain")
    assert len(out) == 1
    assert out[0].severity is Severity.INFO
    assert "ordered" in out[0].message
    # last-100 stays silent for unordered lists
    assert check_cumulative_chain(stats, "last-100") == []


def test_ordering_note_is_info_under_an_error_constraint(disco_catalog):
    chain = disco_catalog.constraints["DISCO-C-DATA-MODEL-CONSISTENCY-01"]
    assert chain.type == "cumulative-chain" and chain.severity is Severity.ERROR
    g = stats_graph([(None, "100.0", "100.0", None)], repr_kind="scheme")
    report = validate(g, disco_catalog, [chain])
    assert [(v.constraint_id, v.severity, v.detail) for v in report.violations] == [
        ("DISCO-C-DATA-MODEL-CONSISTENCY-01", Severity.INFO, "unordered")
    ]


def test_mean_on_categorical_flagged():
    stats = stats_fixture(
        [(None, None, None, None)],
        summaries=[("ArithmeticMean", "2.5", "xsd:double")],
    )
    out = check_statistic_applicability(stats, "categorical-mean")
    assert len(out) == 1


def test_minimum_on_string_variable_flagged():
    stats = stats_fixture(
        [], summaries=[("Minimum", "a", "xsd:string")], repr_kind="string"
    )
    out = check_statistic_applicability(stats, "string-stats")
    assert len(out) == 1


def test_mean_on_metric_variable_fine():
    rows = [
        ("ex:v", "rdf:type", "disco:Variable"),
        ("ex:v", "disco:representation", "xsd:double"),
        ("xsd:double", "rdf:type", "rdfs:Datatype"),
        ("ex:ss", "disco:statisticsVariable", "ex:v"),
        ("ex:ss", "disco:summaryStatisticsType", SUMSTAT + "ArithmeticMean"),
        ("ex:ss", "rdf:value", lit("2.5", "xsd:double")),
    ]
    stats = extract_statistics(ctx_for(graph(*rows)))
    assert check_statistic_applicability(stats, "categorical-mean") == []
    assert check_statistic_applicability(stats, "string-stats") == []
