import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import BUILTIN_VOCABULARIES, builtin_catalog
from rdfcheck.cli import run_cli
from rdfcheck.engine import validate
from rdfcheck.ntriples import serialize_ntriples

from conftest import FIXTURES, load_fixture

SRC = Path(__file__).resolve().parents[1] / "src"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_clean_thesaurus_exits_zero(capsys):
    assert run_cli(["--vocab", "skos", fixture("thesaurus_clean.ttl")]) == 0
    out = capsys.readouterr().out
    assert "summary:" in out


def test_cycle_is_warning_only(capsys):
    assert run_cli(["--vocab", "skos", fixture("thesaurus_cycle.ttl")]) == 0
    assert run_cli([
        "--vocab", "skos", "--fail-on", "warning", fixture("thesaurus_cycle.ttl")
    ]) == 1


def test_missing_input_exits_two(capsys):
    assert run_cli(["no-such-file.ttl"]) == 2
    assert "not found" in capsys.readouterr().err


def test_input_that_is_a_directory_exits_two_with_one_line(tmp_path, capsys):
    folder = tmp_path / "d.nt"
    folder.mkdir()
    assert run_cli([str(folder)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rdfcheck: error: cannot read input {folder}: ")
    assert err.count("\n") == 1


# N-Triples is read through an open file, Turtle as whole bytes
@pytest.mark.parametrize("suffix, reader", [(".nt", "open"), (".ttl", "read_bytes")])
def test_unreadable_input_exits_two_with_one_line(tmp_path, monkeypatch, capsys, suffix, reader):
    data = tmp_path / f"data{suffix}"
    data.write_text("")
    read = getattr(Path, reader)

    def refuse(self, *args, **kwargs):
        if self == data:
            raise PermissionError(13, "Permission denied")
        return read(self, *args, **kwargs)

    monkeypatch.setattr(Path, reader, refuse)
    assert run_cli([str(data)]) == 2
    err = capsys.readouterr().err
    assert err == f"rdfcheck: error: cannot read input {data}: Permission denied\n"


def test_read_error_after_some_lines_exits_two_with_one_line(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.nt"
    data.write_text("")

    class FailingFile(io.BytesIO):
        def __iter__(self):
            yield b'<http://a> <http://b> "one" .\n'
            yield b'<http://a> <http://b> "two" .\n'
            raise OSError(errno.EIO, "Input/output error")

    read = Path.open
    monkeypatch.setattr(
        Path, "open", lambda self, *a, **kw: FailingFile() if self == data else read(self, *a, **kw)
    )
    assert run_cli([str(data)]) == 2
    err = capsys.readouterr().err
    assert err == f"rdfcheck: error: cannot read input {data}: Input/output error\n"


def test_invalid_utf8_names_its_line(tmp_path, capsys):
    data = tmp_path / "data.nt"
    data.write_bytes(b'<http://a> <http://b> "1" .\n<http://a> <http://b> "2" .\n"\xff"\n')
    assert run_cli([str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rdfcheck: error: {data}: line 3: input is not valid UTF-8: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suffix", [".nt", ".ttl"])
def test_iri_with_brackets_has_an_http_scheme(tmp_path, capsys, suffix):
    # IRIREF allows "[" and "]"; the scheme is read without parsing the
    # authority, so a bracket there is no checker failure
    data = tmp_path / f"data{suffix}"
    data.write_text('<http://[x/a> <http://example.org/p> "v" .\n')
    assert run_cli(["--report", "json", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["violations"] == []


def test_parse_error_exits_two_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text('<http://a> <http://b> "ok" .\nbroken\n')
    assert run_cli([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_malformed_corpus_all_exit_two(capsys):
    corpus = sorted((FIXTURES / "malformed").iterdir())
    assert len(corpus) >= 20
    for path in corpus:
        assert run_cli([str(path)]) == 2, path.name
        err = capsys.readouterr().err
        assert err.startswith(f"rdfcheck: error: {path}: line "), path.name
        assert len(re.findall(r"\bline \d+", err)) == 1, err
        assert err.count("\n") == 1, err


def test_json_report_written_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run_cli([
        "--vocab", "disco", "--report", "json", "--output", str(out_file),
        fixture("eusilc.ttl"),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["summary"] == {"info": 0, "warning": 0, "error": 0}
    assert capsys.readouterr().out == ""


def test_format_override(tmp_path):
    renamed = tmp_path / "thesaurus.rdf"
    renamed.write_bytes((FIXTURES / "thesaurus_clean.ttl").read_bytes())
    # without the override the .rdf file would be read as N-Triples and fail
    assert run_cli(["--vocab", "skos", str(renamed)]) == 2
    assert run_cli(["--vocab", "skos", "--format", "ttl", str(renamed)]) == 0


def test_unknown_vocab_exits_two(capsys):
    assert run_cli(["--vocab", "nope", fixture("thesaurus_clean.ttl")]) == 2
    assert "known" in capsys.readouterr().err


def test_only_filter_by_type(capsys):
    code = run_cli([
        "--vocab", "skos", "--only", "skos-structure", "--report", "json",
        fixture("thesaurus_cycle.ttl"),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["warning"] == 1


def test_skip_filter_by_id(capsys):
    code = run_cli([
        "--vocab", "skos", "--fail-on", "warning", "--skip", "SKOS-C-STRUCTURE-03",
        fixture("thesaurus_cycle.ttl"),
    ])
    assert code == 0


def test_severity_threshold_hides_but_exit_unchanged(capsys):
    # threshold filters the report; the exit code still sees everything
    code = run_cli([
        "--vocab", "skos", "--fail-on", "warning",
        "--severity-threshold", "error", "--report", "json",
        fixture("thesaurus_cycle.ttl"),
    ])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"info": 0, "warning": 0, "error": 0}


def test_user_catalog_merge(tmp_path, capsys):
    override = tmp_path / "patch.json"
    override.write_text(json.dumps({
        "constraints": [{"id": "SKOS-C-STRUCTURE-03", "severity": "error"}]
    }))
    code = run_cli([
        "--vocab", "skos", "--catalog", str(override),
        fixture("thesaurus_cycle.ttl"),
    ])
    assert code == 1  # the patched cycle check now fails the run


def test_catalog_search_path_env(tmp_path, monkeypatch, capsys):
    override = tmp_path / "patch.json"
    override.write_text(json.dumps({"constraints": []}))
    monkeypatch.setenv("RDFCHECK_CATALOG_PATH", str(tmp_path))
    assert run_cli([
        "--vocab", "skos", "--catalog", "patch.json",
        fixture("thesaurus_clean.ttl"),
    ]) == 0


def test_broken_catalog_exits_two(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["--catalog", str(broken), fixture("thesaurus_clean.ttl")]) == 2


@pytest.mark.parametrize("document", [
    {"prefixes": []}, {"vocabularies": 5}, {"constraints": 7}, {"bogus": 1},
])
def test_malformed_user_catalog_exits_two_with_one_line(tmp_path, capsys, document):
    user = tmp_path / "user.json"
    user.write_text(json.dumps(document))
    assert run_cli(["--catalog", str(user), fixture("thesaurus_clean.ttl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rdfcheck: error: catalog") and err.count("\n") == 1


def test_multiple_inputs_are_merged(capsys):
    code = run_cli([
        "--vocab", "skos", "--report", "json",
        fixture("thesaurus_clean.ttl"), fixture("thesaurus_clean.ttl"),
    ])
    assert code == 0


def test_blank_nodes_stay_separate_across_inputs(tmp_path, capsys):
    # each input restarts its _:b<n> counter; merging must not fuse them
    a = tmp_path / "a.nt"
    b = tmp_path / "b.nt"
    a.write_text("_:x <http://p/link> <http://o/1> .\n")
    b.write_text("_:x <http://p/link> <http://o/2> .\n")
    out = tmp_path / "r.json"
    assert run_cli(["--vocab", "skos", "--report", "json", "--output", str(out),
                    str(a), str(b)]) == 0
    from rdfcheck.cli import _load_inputs

    merged = _load_inputs([str(a), str(b)], "nt")
    subjects = {t.subject for t in merged}
    assert len(subjects) == 2


def test_merged_blank_labels_follow_each_inputs_sorted_order(tmp_path):
    # The second input's blanks are renumbered in the order they first appear
    # in its sorted triples, not in parse order: _:y sorts first (its triple
    # has an IRI subject), so it takes the lower shifted label.
    a = tmp_path / "a.nt"
    b = tmp_path / "b.nt"
    a.write_text("_:q <http://p/l> <http://o/1> .\n")
    b.write_text("_:z <http://p/l> <http://o/2> .\n<http://a> <http://p/l> _:y .\n")
    from rdfcheck.cli import _load_inputs
    from rdfcheck.ntriples import serialize_ntriples

    assert serialize_ntriples(_load_inputs([str(a), str(b)], None)) == (
        "<http://a> <http://p/l> _:b1 .\n"
        "_:b0 <http://p/l> <http://o/1> .\n"
        "_:b2 <http://p/l> <http://o/2> .\n"
    )


@pytest.mark.parametrize("ic", [0, -1, 9, 19, 22, 99, 10**30, 3.0, True, "3"])
def test_unimplemented_integrity_constraint_exits_two_at_load(tmp_path, capsys, ic):
    # rejected when the catalog loads, so --only cannot hide it
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-IC", "type": "qb-integrity", "severity": "error", "params": {"ic": ic},
    }]}))
    assert run_cli(["--catalog", str(user), "--only", "http-scheme",
                    fixture("thesaurus_clean.ttl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rdfcheck: error: ") and "USER-IC" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("only", [[], ["--only", "http-scheme"]])
@pytest.mark.parametrize("ctype, name", [
    ("irreflexive-table", "x"),
    ("disjoint-classes", "http://e/"),
    ("disjoint-properties", ""),
])
def test_unknown_vocabulary_param_exits_two_at_load(tmp_path, capsys, ctype, name, only):
    # rejected when the catalog loads, so --only cannot hide it
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-1", "type": ctype, "severity": "error", "params": {"vocabulary": name},
    }]}))
    assert run_cli(["--catalog", str(user), *only, fixture("thesaurus_clean.ttl")]) == 2
    assert capsys.readouterr().err == (
        f"rdfcheck: error: constraint 'USER-1': params.vocabulary: unknown vocabulary "
        f"{name!r}; known vocabularies: {', '.join(BUILTIN_VOCABULARIES)}\n"
    )


@pytest.mark.parametrize("field", ["vocabulary", "reference", "description"])
@pytest.mark.parametrize("value", [["skos"], 5, None])
@pytest.mark.parametrize("explain", [[], ["--explain", "U-1"]])
def test_constraint_text_field_that_is_not_a_string_exits_two(tmp_path, capsys, field,
                                                              value, explain):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "U-1", "type": "http-scheme", "severity": "error", field: value,
    }]}))
    assert run_cli(["--vocab", "skos", "--catalog", str(user), *explain,
                    fixture("thesaurus_clean.ttl")]) == 2
    assert capsys.readouterr().err == (
        f"rdfcheck: error: constraint 'U-1'.{field}: expected a string\n")


def test_builtin_vocabulary_param_loads_outside_vocab_selection(tmp_path, capsys):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-1", "type": "disjoint-classes", "severity": "error",
        "params": {"vocabulary": "disco"},
    }]}))
    assert run_cli(["--vocab", "skos", "--catalog", str(user),
                    fixture("thesaurus_clean.ttl")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("vocab, code, err", [
    ("skos", 2, "rdfcheck: error: constraint 'USER-1': params.vocabulary: vocabulary "
                "'disco' is not loaded; loaded vocabularies: skos\n"),
    ("skos,disco", 0, ""),
])
def test_selected_constraint_needs_the_vocabulary_it_names_loaded(tmp_path, capsys, vocab,
                                                                 code, err):
    # the load passes any built-in name; running the constraint needs its inventory
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-1", "type": "irreflexive-table", "vocabulary": "skos",
        "severity": "error", "params": {"vocabulary": "disco"},
    }]}))
    assert run_cli(["--vocab", vocab, "--catalog", str(user), "--only", "USER-1",
                    fixture("thesaurus_clean.ttl")]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("ctype, params", [
    ("data-property-facets", {"property": "http://e/p", "min": "NaN"}),
    ("data-property-facets", {"property": "http://e/p", "max": float("nan")}),
    ("literal-range", {"property": "http://e/p", "datatype": "xsd:integer", "min": "-nan"}),
    ("percentage-sum", {"tolerance": "nan"}),
    ("cumulative-chain", {"mode": "chain", "tolerance": float("nan")}),
], ids=["facets-string", "facets-bare", "range-signed", "percentage-sum", "cumulative-chain"])
def test_nan_number_param_exits_two_at_load(tmp_path, capsys, ctype, params):
    # json.dumps writes float("nan") as JSON's bare NaN; rejected when the
    # catalog loads, so --only cannot hide it
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-NAN", "type": ctype, "severity": "error", "params": params,
    }]}))
    assert run_cli(["--catalog", str(user), "--only", "http-scheme",
                    fixture("eusilc.ttl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rdfcheck: error: ") and "USER-NAN" in err and "NaN" in err
    assert err.count("\n") == 1


_LITERAL_LESS_TERM_SPECS = {
    "null-lexical": {"lexical": None},
    "list-lexical": {"lexical": [1]},
    "number-lexical": {"lexical": 5},
    "empty-lang": {"lexical": "x", "lang": ""},
    "number-lang": {"lexical": "x", "lang": 5},
    "langString-without-lang": {"lexical": "x", "datatype": "rdf:langString"},
    "lang-with-integer": {"lexical": "x", "lang": "en", "datatype": "xsd:integer"},
}


@pytest.mark.parametrize("spec", list(_LITERAL_LESS_TERM_SPECS.values()),
                         ids=list(_LITERAL_LESS_TERM_SPECS))
@pytest.mark.parametrize("ctype, params, where", [
    ("allowed-values", lambda spec: {"property": "http://e/p", "values": [spec]},
     "params.values"),
    ("default-values", lambda spec: {"defaults": [
        {"scope": "http://e/C", "property": "http://e/p", "value": spec}]},
     "params.defaults[0].value"),
], ids=["allowed-values", "default-values"])
def test_term_spec_that_makes_no_literal_exits_two_at_load(
    tmp_path, capsys, spec, ctype, params, where
):
    # rejected when the catalog loads, before the missing input is reported,
    # not by the checker once every input has been parsed
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "T-1", "type": ctype, "severity": "error", "params": params(spec),
    }]}))
    assert run_cli(["--catalog", str(user), "--only", "T-1",
                    str(tmp_path / "missing.ttl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rdfcheck: error: constraint 'T-1'.{where}: ") and "term spec" in err
    assert err.count("\n") == 1


def test_lang_term_spec_may_name_rdf_lang_string(tmp_path, capsys):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "T-1", "type": "allowed-values", "severity": "error",
        "params": {"property": "http://e/p", "values": [
            {"lexical": "x", "lang": "en", "datatype": "rdf:langString"}]},
    }]}))
    data = tmp_path / "d.nt"
    data.write_text('<http://e/s> <http://e/p> "x"@en .\n<http://e/s> <http://e/p> "y"@en .\n')
    out = tmp_path / "r.json"
    assert run_cli(["--catalog", str(user), "--only", "T-1", "--report", "json",
                    "--output", str(out), str(data)]) == 1
    assert capsys.readouterr().err == ""
    # "x"@en is allowed, so only "y"@en is reported
    assert [v["focus"] for v in json.loads(out.read_text())["violations"]] == ["<http://e/s>"]


@pytest.mark.parametrize("bound", ["inf", "-Infinity", float("inf"), 10**400, "1e400"],
                         ids=["inf", "-Infinity", "bare-inf", "10**400", "1e400"])
def test_infinite_and_huge_number_params_load(tmp_path, capsys, bound):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [{
        "id": "USER-MAX", "type": "data-property-facets", "severity": "error",
        "params": {"property": "http://e/p", "max": bound},
    }]}))
    data = tmp_path / "d.nt"
    data.write_text('<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
    assert run_cli(["--catalog", str(user), "--only", "USER-MAX", str(data)]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_integer_past_the_digit_limit_exits_two_at_load(tmp_path, capsys):
    # Python refuses to convert integers of more than 4,300 digits by default
    user = tmp_path / "user.json"
    user.write_text('{"constraints": [{"id": "USER-BIG", "type": "data-property-facets", '
                    '"severity": "error", "params": {"property": "http://e/p", "min": '
                    + "9" * 5000 + "}}]}")
    assert run_cli(["--catalog", str(user), fixture("thesaurus_clean.ttl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rdfcheck: error: catalog is not valid JSON: ")
    assert err.count("\n") == 1


_HUGE = "1" * 5000  # past the 4,300 digits that int() and str() take by default


def _huge_integer_input(tmp_path, name):
    path = tmp_path / name
    if name == "frequency.nt":
        path.write_text(
            "<http://example.org/v> <http://rdf-vocabulary.ddialliance.org/discovery#frequency> "
            f'"{_HUGE}"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
    else:
        # every integer of the survey: frequency sums, declared sizes, metrics
        survey = (FIXTURES / "eusilc.ttl").read_text()
        path.write_text(re.sub(r'"\d+"(?=\^\^xsd:nonNegativeInteger)', f'"{_HUGE}"', survey))
    return path


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", ["frequency.nt", "eusilc.ttl"])
def test_integers_past_the_digit_limit_are_validated(tmp_path, capsys, fmt, name):
    data = _huge_integer_input(tmp_path, name)
    out = tmp_path / f"report.{fmt}"
    assert run_cli([str(data), "--report", fmt, "--output", str(out)]) in (0, 1)
    assert capsys.readouterr().err == ""
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        # json.loads, too, refuses such integers unless told how to read them
        report = json.loads(text, parse_int=Decimal)
        values = [m["value"] for m in report["metrics"]]
        assert name != "eusilc.ttl" or max(values) > 10**4300
    else:
        assert text.endswith(" constraint(s) skipped\n")


_BIG = 10**29  # past the 28 digits of the default decimal context


def _survey_with(tmp_path, replacements):
    survey = (FIXTURES / "eusilc.ttl").read_text()
    for pattern, value in replacements:
        survey, n = re.subn(pattern, rf"\g<1>{value}", survey, flags=re.S)
        assert n == 1, pattern
    path = tmp_path / "survey.ttl"
    path.write_text(survey)
    return path


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_counts_past_28_digits_are_summed_exactly(tmp_path, capsys, fmt):
    # every count is its exact sum, so nothing is wrong with the survey
    data = _survey_with(tmp_path, [
        (r'(disco:frequency )"600"', f'"{_BIG + 601}"'),
        (r'(disco:frequency )"300"', f'"{_BIG + 302}"'),
        (r'(disco:frequency )"100"', f'"{_BIG + 103}"'),
        (r'(ex:ssV1Cases .*?rdf:value )"1000"', f'"{3 * _BIG + 1006}"'),
        (r'(ex:ssV1Valid .*?rdf:value )"900"', f'"{2 * _BIG + 903}"'),
        (r'(ex:ssV1Invalid .*?rdf:value )"100"', f'"{_BIG + 103}"'),
    ])
    out = tmp_path / f"report.{fmt}"
    args = [str(data), "--vocab", "disco", "--report", fmt, "--output", str(out)]
    assert run_cli(args) == 0
    assert capsys.readouterr().err == ""
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        report = json.loads(text)
        assert report["summary"]["error"] == 0
        sums = [m["value"] for m in report["metrics"] if m["id"] == "DISCO-C-AGGREGATION-07"]
        assert sums == [2 * _BIG + 903]
    else:
        assert f"frequency sum over valid codes = {2 * _BIG + 903}\n" in text


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_huge_exponent_is_rounded_not_expanded(tmp_path, capsys, fmt):
    # the exact sum of these frequencies would have 400 million digits
    data = _survey_with(tmp_path, [
        (r'(disco:frequency )"600"\^\^xsd:nonNegativeInteger', '"1e400000000"^^xsd:double'),
        (r'(disco:percentage )"30.0"', '"1e-400000000"'),
        (r'(ex:ssV1Valid .*?rdf:value )"900"\^\^xsd:nonNegativeInteger',
         '"1e400000000"^^xsd:double'),
    ])
    out = tmp_path / f"report.{fmt}"
    args = [str(data), "--vocab", "disco", "--report", fmt, "--output", str(out)]
    started = time.perf_counter()
    assert run_cli(args) in (0, 1)
    assert time.perf_counter() - started < 5
    assert capsys.readouterr().err == ""
    text = out.read_text(encoding="utf-8")
    assert re.search(r"code frequencies sum to 1\.0*E\+400000000 but the number of cases", text)
    # the metric would be an integer of 400 million digits, so it is left out
    assert "frequency sum over valid codes" not in text


@pytest.mark.parametrize("only", [
    ["TYPO-DOES-NOT-EXIST"],
    ["http-scheme", "TYPO-DOES-NOT-EXIST"],
    ["skos-structure"],  # a type, but not one of the qb constraints
    ["SKOS-C-STRUCTURE-03"],  # an id, but not one of the qb constraints
], ids=["typo", "typo-beside-type", "other-vocab-type", "other-vocab-id"])
def test_only_that_selects_nothing_exits_two(capsys, only):
    args = [arg for value in only for arg in ("--only", value)]
    assert run_cli(["--vocab", "qb", *args, fixture("cube.ttl")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("rdfcheck: error: --only ")
    assert captured.err.count("\n") == 1 and only[-1] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("only", [
    ["skos-structure"], ["http-scheme"], ["SKOS-C-STRUCTURE-03", "http-scheme"],
], ids=["type", "shared-type", "id-and-type"])
def test_only_that_selects_something_runs_just_that(monkeypatch, capsys, only):
    ran = []

    def record(graph, catalog, selected):
        ran.extend(selected)
        return validate(graph, catalog, selected)

    monkeypatch.setattr("rdfcheck.cli.validate", record)
    assert run_cli(["--vocab", "skos", *[a for v in only for a in ("--only", v)],
                    fixture("thesaurus_cycle.ttl")]) == 0
    assert capsys.readouterr().err == ""
    expected = [c for c in builtin_catalog({"skos"}).select()
                if c.id in only or c.type in only]
    assert ran == expected and ran


_TTL_SEEDS = [
    path.read_bytes()
    for path in sorted(FIXTURES.glob("*.ttl")) + sorted(FIXTURES.glob("malformed/*.ttl"))
]
_NT_SEEDS = [
    serialize_ntriples(load_fixture(path.name)).encode("utf-8")
    for path in sorted(FIXTURES.glob("*.ttl"))
] + [path.read_bytes() for path in sorted(FIXTURES.glob("malformed/*.nt"))]


@st.composite
def _spliced(draw, seeds):
    """A seed document with one random span replaced by random bytes."""
    base = draw(st.sampled_from(seeds))
    start = draw(st.integers(0, len(base)))
    end = draw(st.integers(start, min(len(base), start + 4)))
    return base[:start] + draw(st.binary(max_size=4)) + base[end:]


def _check_exit_contract(tmp_path, capsys, suffix, data):
    path = tmp_path / f"input{suffix}"
    path.write_bytes(data)
    code = run_cli(["--output", str(tmp_path / "report.txt"), str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("rdfcheck: error: ") and err.count("\n") == 1, err
        assert "internal error" not in err, err
    else:
        assert err == ""


_FUZZ = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(data=st.one_of(st.binary(), _spliced(_NT_SEEDS)))
def test_any_ntriples_bytes_keep_the_exit_contract(tmp_path, capsys, data):
    _check_exit_contract(tmp_path, capsys, ".nt", data)


@_FUZZ
@given(data=st.one_of(st.binary(), _spliced(_TTL_SEEDS)))
def test_any_turtle_bytes_keep_the_exit_contract(tmp_path, capsys, data):
    _check_exit_contract(tmp_path, capsys, ".ttl", data)


def _cli_bytes(args: list[str], hash_seed: str) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rdfcheck.cli", *args],
                          env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("args", [
    ["--report", "json", *(fixture(name) for name in (
        "cube.ttl", "eusilc.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl"))],
    [fixture("thesaurus_cycle.ttl")],
], ids=["merged-json", "cycle-text"])
def test_report_does_not_depend_on_the_hash_seed(args):
    # str and Literal hashes change with the seed; IRIs and blank nodes hash
    # by identity, so this pins the order of sets of strings and literals
    first = _cli_bytes(args, "0")
    assert first[1]
    assert _cli_bytes(args, "1") == first


def test_catalog_cycle_diagnostic_does_not_depend_on_the_hash_seed(tmp_path):
    # A's parents B and C both lead to D, whose parent is A again: the
    # diagnostic names the path through the parent listed first
    toy = "http://example.org/"
    edges = [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "A")]
    catalog = tmp_path / "diamond.json"
    catalog.write_text(json.dumps({
        "vocabularies": [{
            "name": "toy", "namespace": toy, "properties": [],
            "classes": [toy + name for name in "ABCD"],
            "subclass_of": [[toy + child, toy + parent] for child, parent in edges],
        }],
        "constraints": [],
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "rdfcheck.cli", "--catalog", str(catalog),
             fixture("eusilc.ttl")],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, check=False,
        )
        for seed in ("0", "5")
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(2, (
        f"rdfcheck: error: cycle in hierarchy edges through {toy}A -> {toy}B -> "
        f"{toy}D -> {toy}A\n"
    ).encode())] * 2


def _peak_mb(args: list[str]) -> tuple[int, float]:
    """Exit code and peak RSS in MB of one ``python -m rdfcheck.cli`` child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "rdfcheck.cli", *args], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024  # KiB on Linux


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_a_deep_catalog_hierarchy_costs_little_memory(tmp_path):
    # a 3,000-edge subclass chain: the ancestors of the classes the graph
    # types are found on demand, never every class's full set
    toy = "http://example.org/chain/"
    classes = [f"{toy}C{i}" for i in range(3001)]
    catalog = tmp_path / "chain.json"
    catalog.write_text(json.dumps({
        "vocabularies": [{
            "name": "chain", "namespace": toy, "classes": classes, "properties": [],
            "subclass_of": [list(edge) for edge in zip(classes, classes[1:])],
        }],
        "constraints": [],
    }))
    plain = _peak_mb([fixture("eusilc.ttl")])
    chained = _peak_mb(["--catalog", str(catalog), fixture("eusilc.ttl")])
    assert chained[0] == plain[0]
    assert chained[1] < plain[1] + 10


def test_explain_flag(capsys):
    assert run_cli(["--explain", "DISCO-C-LITERAL-RANGES-01", "ignored.ttl"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["severity"] == "error"
    assert doc["type"] == "literal-range"


def test_explain_unknown_id(capsys):
    assert run_cli(["--explain", "NOPE-1", "ignored.ttl"]) == 2


def test_exit_code_independent_of_report_format():
    for fmt in ("text", "json"):
        code = run_cli([
            "--vocab", "skos", "--fail-on", "warning", "--report", fmt,
            "--output", "/dev/null", fixture("thesaurus_cycle.ttl"),
        ])
        assert code == 1


def test_jobs_flag_rejected(capsys):
    assert run_cli([
        "--vocab", "disco", "--jobs", "4", "--output", "/dev/null",
        fixture("eusilc.ttl"),
    ]) == 2


def test_catalog_that_is_a_directory_exits_two_with_one_line(tmp_path, capsys):
    assert run_cli(["--catalog", str(tmp_path), fixture("thesaurus_clean.ttl")]) == 2
    err = capsys.readouterr().err
    assert err == f"rdfcheck: error: catalog file not found: {tmp_path}\n"


def test_unreadable_catalog_exits_two_with_one_line(tmp_path, monkeypatch, capsys):
    user = tmp_path / "user.json"
    user.write_text("{}")

    def refuse(self):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(Path, "read_bytes", refuse)
    assert run_cli(["--catalog", str(user), fixture("thesaurus_clean.ttl")]) == 2
    err = capsys.readouterr().err
    assert err == f"rdfcheck: error: cannot read catalog {user}: Permission denied\n"


@pytest.mark.parametrize("target", ["missing/dir/report.txt", "."])
def test_unwritable_output_exits_two_with_one_line(tmp_path, capsys, target):
    output = tmp_path / target
    code = run_cli(["--vocab", "skos", "--output", str(output), fixture("thesaurus_clean.ttl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rdfcheck: error: cannot write report to {output}: ")
    assert err.count("\n") == 1


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("a\nb")


@pytest.mark.parametrize("name", ["parse_turtle", "report_chunks"])
def test_unexpected_exception_exits_two_with_one_line(monkeypatch, capsys, name):
    monkeypatch.setattr(f"rdfcheck.cli.{name}", _raise_runtime_error)
    assert run_cli(["--vocab", "skos", fixture("thesaurus_clean.ttl")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "rdfcheck: error: internal error: RuntimeError: a b\n"
    assert captured.out == ""


@pytest.mark.parametrize("to_output", [False, True], ids=["stdout", "output"])
def test_exception_part_way_through_the_render_exits_two(monkeypatch, tmp_path, capsys,
                                                         to_output):
    # the third object rendered is the second violation: the summary and the
    # first violation have been written by then
    import rdfcheck.report as report

    calls = []
    render = report._object

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("render failed")
        return render(*args, **kwargs)

    monkeypatch.setattr(report, "_object", failing)
    args = ["--report", "json", fixture("cube.ttl")]
    if to_output:
        args += ["--output", str(tmp_path / "report.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err == "rdfcheck: error: internal error: RuntimeError: render failed\n"
    assert len(calls) == 3


class _FullStdout(io.StringIO):
    """A stdout whose device fills up after the first chunk."""

    def write(self, text):
        if self.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)


@pytest.mark.parametrize("stdout", [_FullStdout, None], ids=["full", "closed"])
def test_failed_write_to_stdout_exits_two_with_one_line(monkeypatch, capsys, stdout):
    monkeypatch.setattr(sys, "stdout", stdout() if stdout else None)
    assert run_cli(["--report", "json", fixture("cube.ttl")]) == 2
    code = errno.ENOSPC if stdout else errno.EBADF
    assert capsys.readouterr().err == (
        f"rdfcheck: error: cannot write report to stdout: {os.strerror(code)}\n"
    )


# the arguments of a run that writes each kind of output to stdout
_STDOUT_WRITERS = {
    "report": ["--report", "json", fixture("eusilc.ttl")],
    "explanation": ["--explain", "SKOS-C-DATA-MODEL-CONSISTENCY-01", "-"],
}


def _stdout_failure(target: str, what: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "rdfcheck.cli", *_STDOUT_WRITERS[what]]
    if target == "full":
        with open("/dev/full", "wb") as full:
            return subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE,
                                  text=True, check=False)
    # a reader gone before the first write: the child's writes meet a broken pipe
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        child.stdout.close()
        err = child.stderr.read()
    return subprocess.CompletedProcess(command, child.returncode, None, err)


_TARGETS = [
    pytest.param("full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "pipe",
]


def _assert_stdout_failure(target: str, what: str) -> None:
    proc = _stdout_failure(target, what)
    strerror = os.strerror(errno.ENOSPC if target == "full" else errno.EPIPE)
    assert (proc.returncode, proc.stderr) == (
        2, f"rdfcheck: error: cannot write {what} to stdout: {strerror}\n"
    )


@pytest.mark.parametrize("target", _TARGETS)
def test_failed_write_to_stdout_in_a_process_exits_two_with_one_line(target):
    _assert_stdout_failure(target, "report")


@pytest.mark.parametrize("target", _TARGETS)
def test_failed_write_of_the_explanation_to_stdout_exits_two_with_one_line(target):
    _assert_stdout_failure(target, "explanation")


# the arguments of a run that fails with one diagnostic line, under tmp_path
_ERRORS = {
    "missing input": lambda tmp: [str(tmp / "no-such-file.ttl")],
    "bad catalog": lambda tmp: ["--catalog", str(tmp / "broken.json"), fixture("eusilc.ttl")],
    "output error": lambda tmp: ["--output", str(tmp / "no-such-dir" / "report.json"),
                                 fixture("eusilc.ttl")],
}
_STDERRS = [
    pytest.param("full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "closed",
]


@pytest.mark.parametrize("stderr", _STDERRS)
@pytest.mark.parametrize("error", list(_ERRORS))
def test_an_error_exits_two_when_stderr_cannot_be_written(tmp_path, error, stderr):
    # 1 means "violations found", and stdout may carry a report
    (tmp_path / "broken.json").write_text("{")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "rdfcheck.cli", *_ERRORS[error](tmp_path)]
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        if stderr == "full":
            with open("/dev/full", "wb") as full:
                proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=full,
                                      check=False)
        else:  # the child starts with descriptor 2 closed
            proc = subprocess.run(["/bin/sh", "-c", '"$@" 2>&-', "sh", *command], env=env,
                                  stdout=subprocess.PIPE, check=False)
        assert (proc.returncode, proc.stdout) == (2, b"")


def test_unexpected_exception_in_merge_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("rdfcheck.cli._renumber_blanks", _raise_runtime_error)
    code = run_cli([fixture("thesaurus_clean.ttl"), fixture("cube.ttl")])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
def test_interrupts_and_exits_propagate(monkeypatch, error):
    def interrupt(*args, **kwargs):
        raise error()

    monkeypatch.setattr("rdfcheck.cli.parse_turtle", interrupt)
    with pytest.raises(error):
        run_cli(["--vocab", "skos", fixture("thesaurus_clean.ttl")])
