import json
from pathlib import Path

import pytest

from rdfcheck.cli import run_cli

from conftest import FIXTURES


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
        assert "line " in err, path.name


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
