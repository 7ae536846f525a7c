import random

from rdfcheck.catalog import Severity
from rdfcheck.checks import lexical

from conftest import ctx_for, expand, graph, lit


def _typed(node, cls):
    return (node, "rdf:type", cls)


# --- facets ------------------------------------------------------------------

def test_min_length_facet():
    g = graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "dcterms:abstract", lit("too short")),
    )
    out = lexical.check_facets(
        ctx_for(g), expand("dcterms:abstract"), scope=expand("disco:Study"),
        min_length=80,
    )
    assert len(out) == 1 and out[0].severity is Severity.WARNING


def test_empty_facet_set_no_violations():
    g = graph(("ex:s", "ex:p", lit("x")))
    assert lexical.check_facets(ctx_for(g), expand("ex:p")) == []


def test_length_counts_unicode_scalars():
    text = "\U0001F40D" * 3  # three astral code points
    g = graph(("ex:s", "ex:p", lit(text)))
    assert lexical.check_facets(ctx_for(g), expand("ex:p"), min_length=3) == []
    assert len(lexical.check_facets(ctx_for(g), expand("ex:p"), min_length=4)) == 1


def test_numeric_facet_bounds():
    g = graph(("ex:s", "ex:p", lit("150", "xsd:integer")))
    out = lexical.check_facets(ctx_for(g), expand("ex:p"), max=100)
    assert len(out) == 1


# --- literal patterns ----------------------------------------------------------

def test_pattern_prefix_requirement():
    g = graph(
        _typed("ex:v", "disco:Variable"),
        ("ex:v", "skos:notation", lit("XX_NAME", lang="en")),
    )
    out = lexical.check_literal_pattern(
        ctx_for(g), expand("skos:notation"), "EU_.*",
        scope=expand("disco:Variable"),
    )
    assert len(out) == 1


def test_match_all_pattern_never_violates():
    g = graph(("ex:s", "ex:p", lit("anything at all")))
    assert lexical.check_literal_pattern(ctx_for(g), expand("ex:p"), ".*") == []


def test_negated_pattern_is_exact_complement():
    rng = random.Random(77)
    pattern = "[a-m]+"
    for _ in range(50):
        rows = [
            ("ex:s", "ex:p", lit("".join(rng.choice("az") for _ in range(3))))
            for _ in range(rng.randrange(1, 6))
        ]
        g = graph(*rows)
        plain = lexical.check_literal_pattern(ctx_for(g), expand("ex:p"), pattern)
        negated = lexical.check_literal_pattern(ctx_for(g), expand("ex:p"), pattern,
                                                negated=True)
        literals = {t.object for t in g}
        assert len(plain) + len(negated) == len(literals)


def test_substring_mode():
    g = graph(("ex:s", "ex:p", lit("prefix EU_X suffix")))
    assert lexical.check_literal_pattern(ctx_for(g), expand("ex:p"), "EU_",
                                         substring=True) == []
    assert len(lexical.check_literal_pattern(ctx_for(g), expand("ex:p"), "EU_")) == 1


# --- IRI patterns ----------------------------------------------------------------

def test_iri_pattern_subject_scope():
    g = graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "ex:p", lit("x")),
    )
    out = lexical.check_iri_pattern(
        ctx_for(g), "subject", r"http://archive\.example\.org/study/\d+",
        scope=expand("disco:Study"),
    )
    assert len(out) == 1


def test_iri_pattern_http_matches_all():
    g = graph(("ex:a", "ex:p", "ex:b"))
    assert lexical.check_iri_pattern(ctx_for(g), "subject", "^http.*") == []


def test_iri_pattern_predicate_position():
    g = graph(("ex:a", "ex:strange", "ex:b"))
    out = lexical.check_iri_pattern(ctx_for(g), "predicate", ".*/normal/.*")
    assert len(out) == 1


# --- literal ranges ---------------------------------------------------------------

def _percentage_graph(value):
    return graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:percentage", lit(value, "xsd:double")),
    )


def test_range_above_maximum():
    out = lexical.check_literal_range(
        ctx_for(_percentage_graph("101.0")), expand("disco:percentage"),
        expand("xsd:double"), scope=expand("disco:CategoryStatistics"),
        min=0, max=100,
    )
    assert len(out) == 1


def test_range_inclusive_bound():
    out = lexical.check_literal_range(
        ctx_for(_percentage_graph("100.0")), expand("disco:percentage"),
        expand("xsd:double"), scope=expand("disco:CategoryStatistics"),
        min=0, max=100,
    )
    assert out == []


def test_range_wrong_datatype_is_datatype_violation():
    g = graph(
        _typed("ex:cs", "disco:CategoryStatistics"),
        ("ex:cs", "disco:percentage", lit("50", "xsd:integer")),
    )
    out = lexical.check_literal_range(
        ctx_for(g), expand("disco:percentage"), expand("xsd:double"),
        scope=expand("disco:CategoryStatistics"), min=0, max=100,
    )
    assert len(out) == 1
    assert "datatype" in out[0].message


def test_negated_range_is_complement_on_valid_values():
    rng = random.Random(13)
    for _ in range(40):
        rows = [
            ("ex:s", "ex:p", lit(f"{rng.uniform(-50, 150):.1f}", "xsd:double"))
            for _ in range(rng.randrange(1, 6))
        ]
        g = graph(*rows)
        inside = lexical.check_literal_range(
            ctx_for(g), expand("ex:p"), expand("xsd:double"),
            min=0, max=100,
        )
        outside = lexical.check_literal_range(
            ctx_for(g), expand("ex:p"), expand("xsd:double"),
            min=0, max=100, negated=True,
        )
        assert len(inside) + len(outside) == len({t.object for t in g})


def test_exclusive_bounds():
    out = lexical.check_literal_range(
        ctx_for(_percentage_graph("100.0")), expand("disco:percentage"),
        expand("xsd:double"), min=0, max=100, max_exclusive=True,
    )
    assert len(out) == 1


# --- literal comparison -------------------------------------------------------------

def _dates(start, end):
    return graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "disco:startDate", lit(start, "xsd:date")),
        ("ex:study", "disco:endDate", lit(end, "xsd:date")),
    )


def test_dates_out_of_order():
    out = lexical.check_literal_comparison(
        ctx_for(_dates("2006-01-01", "2005-01-01")),
        expand("disco:startDate"), expand("disco:endDate"), "<",
        scope=expand("disco:Study"),
    )
    assert len(out) == 1


def test_equal_dates_pass_lte():
    out = lexical.check_literal_comparison(
        ctx_for(_dates("2005-01-01", "2005-01-01")),
        expand("disco:startDate"), expand("disco:endDate"), "<=",
        scope=expand("disco:Study"),
    )
    assert out == []


def test_incomparable_datatypes_flagged():
    g = graph(
        ("ex:s", "ex:a", lit("2005-01-01", "xsd:date")),
        ("ex:s", "ex:b", lit("5", "xsd:integer")),
    )
    out = lexical.check_literal_comparison(ctx_for(g), expand("ex:a"),
                                           expand("ex:b"), "<")
    assert len(out) == 1 and "incomparable" in out[0].message


def test_date_comparison_matches_day_number_oracle():
    import datetime

    rng = random.Random(2024)
    epoch = datetime.date(2000, 1, 1)
    for _ in range(80):
        d1 = epoch + datetime.timedelta(days=rng.randrange(4000))
        d2 = epoch + datetime.timedelta(days=rng.randrange(4000))
        out = lexical.check_literal_comparison(
            ctx_for(_dates(d1.isoformat(), d2.isoformat())),
            expand("disco:startDate"), expand("disco:endDate"), "<",
        )
        expected_ok = d1.toordinal() < d2.toordinal()
        assert (out == []) == expected_ok


# --- language tags --------------------------------------------------------------------

def _question(*texts):
    rows = [_typed("ex:q", "disco:Question")]
    rows += [("ex:q", "disco:questionText", t) for t in texts]
    return graph(*rows)


def test_required_language_missing():
    g = _question(lit("Wie alt sind Sie?", lang="de"))
    out = lexical.check_language_tags(
        ctx_for(g), expand("disco:questionText"), scope=expand("disco:Question"),
        languages=["en"], min_per_lang=1,
    )
    assert len(out) == 1


def test_required_language_present():
    g = _question(lit("How old are you?", lang="en"))
    out = lexical.check_language_tags(
        ctx_for(g), expand("disco:questionText"), scope=expand("disco:Question"),
        languages=["en"], min_per_lang=1,
    )
    assert out == []


def test_no_required_languages_no_violations():
    g = _question(lit("untagged"))
    assert lexical.check_language_tags(
        ctx_for(g), expand("disco:questionText"), scope=expand("disco:Question"),
        languages=[],
    ) == []


def test_language_match_case_insensitive_and_subtagged():
    g = _question(lit("Colour", lang="EN-GB"))
    out = lexical.check_language_tags(
        ctx_for(g), expand("disco:questionText"), scope=expand("disco:Question"),
        languages=["en"], min_per_lang=1,
    )
    assert out == []


def test_per_language_maximum():
    rows = [_typed("ex:c", "skos:Concept"),
            ("ex:c", "skos:prefLabel", lit("One", lang="en")),
            ("ex:c", "skos:prefLabel", lit("Uno", lang="en"))]
    out = lexical.check_language_tags(
        ctx_for(graph(*rows)), expand("skos:prefLabel"),
        scope=expand("skos:Concept"), languages=["*"], max_per_lang=1,
    )
    assert len(out) == 1


def test_untagged_counts_under_configured_language():
    g = _question(lit("untagged text"))
    out = lexical.check_language_tags(
        ctx_for(g), expand("disco:questionText"), scope=expand("disco:Question"),
        languages=["en"], min_per_lang=1, allow_untagged_as="en",
    )
    assert out == []


# --- language coverage -------------------------------------------------------------

def _labeled_concepts(spec):
    rows = []
    for node, langs in spec.items():
        rows.append(_typed(node, "skos:Concept"))
        for lang in langs:
            tag = None if lang == "-" else lang
            rows.append((node, "skos:prefLabel",
                         lit(f"label {lang}", lang=tag) if tag else lit("untagged")))
    return graph(*rows)


LABELS = [expand("skos:prefLabel")]


def test_untagged_label_warned():
    g = _labeled_concepts({"ex:c": ["-"]})
    out = lexical.check_language_coverage(
        ctx_for(g), "omitted-or-invalid", LABELS, concept_class=expand("skos:Concept")
    )
    assert len(out) == 1


def test_malformed_tag_warned():
    rows = [_typed("ex:c", "skos:Concept")]
    from rdfcheck.terms import Literal

    rows.append(("ex:c", "skos:prefLabel", Literal("x", lang="en-toolongsubtag99")))
    out = lexical.check_language_coverage(
        ctx_for(graph(*rows)), "omitted-or-invalid", LABELS,
        concept_class=expand("skos:Concept"),
    )
    assert len(out) == 1


def test_incomplete_coverage_difference_oracle():
    g = _labeled_concepts({"ex:a": ["en", "de"], "ex:b": ["en"], "ex:c": ["de"]})
    out = lexical.check_language_coverage(
        ctx_for(g), "incomplete", LABELS, concept_class=expand("skos:Concept")
    )
    missing = {v.focus: v.detail for v in out}
    assert missing == {str(iri_b := "<http://example.org/b>"): "de",
                       "<http://example.org/c>": "en"}


def test_no_common_language():
    g = _labeled_concepts({"ex:a": ["en"], "ex:b": ["de"]})
    out = lexical.check_language_coverage(
        ctx_for(g), "no-common", LABELS, concept_class=expand("skos:Concept")
    )
    assert len(out) == 1


def test_common_language_passes():
    g = _labeled_concepts({"ex:a": ["en"], "ex:b": ["en", "de"]})
    assert lexical.check_language_coverage(
        ctx_for(g), "no-common", LABELS, concept_class=expand("skos:Concept")
    ) == []


# --- whitespace ----------------------------------------------------------------------

def test_whitespace_flags_edges_with_suggestion():
    g = graph(("ex:s", "dcterms:abstract", lit(" text ")))
    out = lexical.check_whitespace(ctx_for(g), expand("dcterms:abstract"))
    assert len(out) == 1
    assert "'text'" in out[0].message


def test_whitespace_clean_literal_fine():
    g = graph(("ex:s", "dcterms:abstract", lit("text")))
    assert lexical.check_whitespace(ctx_for(g), expand("dcterms:abstract")) == []


def test_inner_whitespace_never_flagged():
    g = graph(("ex:s", "dcterms:abstract", lit("two words inside")))
    assert lexical.check_whitespace(ctx_for(g), expand("dcterms:abstract")) == []


# --- HTML balance ----------------------------------------------------------------------

def test_unclosed_tag_flagged():
    g = graph(("ex:s", "ex:p", lit("<b>bold")))
    out = lexical.check_html_balance(ctx_for(g), property=expand("ex:p"))
    assert len(out) == 1 and "<b>" in out[0].message


def test_comparison_signs_are_not_tags():
    g = graph(("ex:s", "ex:p", lit("a < b and c > d")))
    assert lexical.check_html_balance(ctx_for(g), property=expand("ex:p")) == []


def test_nested_tags_fine():
    g = graph(("ex:s", "ex:p", lit("<i><b>x</b></i>")))
    assert lexical.check_html_balance(ctx_for(g), property=expand("ex:p")) == []


def test_void_and_self_closing_skip_stack():
    g = graph(("ex:s", "ex:p", lit("line<br>break <img src='x'> <y/>done")))
    assert lexical.check_html_balance(ctx_for(g), property=expand("ex:p")) == []


def test_mismatched_close_flagged():
    g = graph(("ex:s", "ex:p", lit("<i>text</b>")))
    assert len(lexical.check_html_balance(ctx_for(g), property=expand("ex:p"))) == 1


# --- string composition -----------------------------------------------------------------

def _study_title(series_title, label, title):
    return graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "disco:inGroup", "ex:series"),
        ("ex:series", "dcterms:title", lit(series_title)),
        ("ex:study", "rdfs:label", lit(label)),
        ("ex:study", "dcterms:title", lit(title)),
    )


PARTS = [{"path": [expand("disco:inGroup"), expand("dcterms:title")]},
         {"path": [expand("rdfs:label")]}]


def test_composition_matches():
    g = _study_title("EU-SILC", "2005", "EU-SILC 2005")
    assert lexical.check_string_composition(
        ctx_for(g), expand("disco:Study"), expand("dcterms:title"), PARTS
    ) == []


def test_composition_mismatch_reports_expected():
    g = _study_title("EU-SILC", "2005", "EUSILC-2005")
    out = lexical.check_string_composition(
        ctx_for(g), expand("disco:Study"), expand("dcterms:title"), PARTS
    )
    assert len(out) == 1
    assert "EU-SILC 2005" in out[0].message


def test_composition_missing_part_skips():
    g = graph(
        _typed("ex:study", "disco:Study"),
        ("ex:study", "dcterms:title", lit("anything")),
    )
    assert lexical.check_string_composition(
        ctx_for(g), expand("disco:Study"), expand("dcterms:title"), PARTS
    ) == []
