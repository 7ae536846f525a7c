"""Loading inputs: one Graph per run, merged blank labels, collector policy."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rdfcheck.cli as cli
from rdfcheck.cli import _load_inputs, run_cli
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.ntriples import parse_ntriples, serialize_ntriples
from rdfcheck.terms import BlankNode, Triple
from rdfcheck.turtle import parse_turtle

from conftest import FIXTURES, triple

SRC = Path(__file__).resolve().parents[1] / "src"


# The merge as it was when each parser returned a sorted Graph, kept as the
# reference for the labels a merged run gives each input's blanks.
def _reference_load(paths: list[str]) -> Graph:
    triples: list[Triple] = []
    blank_offset = 0
    for spec in paths:
        path = Path(spec)
        data = path.read_bytes()
        chosen = "ttl" if path.suffix.lower() == ".ttl" else "nt"
        graph = Graph(parse_turtle(data) if chosen == "ttl" else parse_ntriples(data))
        if len(paths) == 1:
            return graph
        triples.extend(_shift_blanks(graph, blank_offset))
        blank_offset += _blank_count(graph)
    return Graph(triples)


def _blank_count(graph: Graph) -> int:
    labels = set()
    for t in graph:
        for term in (t.subject, t.object):
            if isinstance(term, BlankNode):
                labels.add(term.label)
    return len(labels)


def _shift_blanks(graph: Graph, offset: int) -> list[Triple]:
    if offset == 0:
        return list(graph)
    mapping: dict[str, BlankNode] = {}

    def shift(term):
        if not isinstance(term, BlankNode):
            return term
        renamed = mapping.get(term.label)
        if renamed is None:
            renamed = BlankNode(f"b{offset + len(mapping)}")
            mapping[term.label] = renamed
        return renamed

    return [Triple(shift(t.subject), t.predicate, shift(t.object)) for t in graph]


_IRI = st.sampled_from([f"<http://e/{c}>" for c in "abcde"])
_PRED = st.sampled_from([f"<http://p/{c}>" for c in "pqr"])
_LITERAL = st.sampled_from(['"v1"', '"v2"', '"w"@en', '"3"^^<http://e/int>'])
_LABEL = st.sampled_from(["a", "b", "c", "x1", "x2", "x10", "y", "z"]).map("_:".__add__)
_NODE = st.one_of(_IRI, _LABEL)
# Turtle terms that make blanks of their own: '[ ]' and collections.
_TTL_NODE = st.sampled_from([
    "[]", "[ <http://p/q> <http://e/a> ]", '( <http://e/a> _:x1 "v1" )', "( )",
    "[ <http://p/r> ( [] <http://e/b> ) ]", "( _:y ( <http://e/c> ) )",
])


def _document(suffix: str, subject, obj, min_size: int = 1, max_size: int = 10):
    line = st.builds(lambda s, p, o: f"{s} {p} {o} .", subject, _PRED, obj)
    return st.lists(line, min_size=min_size, max_size=max_size).map(
        lambda lines: (suffix, "\n".join(lines) + "\n")
    )


@st.composite
def _many_blanks(draw):
    # 13 blanks, so the parse labels run to b12 and string order (b10 < b2)
    # differs from number order
    labels = draw(st.permutations([f"_:n{i}" for i in range(13)]))
    obj = st.one_of(_IRI, _LITERAL, st.sampled_from(labels))
    lines = [f"{label} {draw(_PRED)} {draw(obj)} ." for label in labels]
    return (draw(st.sampled_from([".nt", ".ttl"])), "\n".join(lines) + "\n")


_DOCUMENT = st.one_of(
    _document(".nt", _IRI, st.one_of(_IRI, _LITERAL)),
    _document(".ttl", _IRI, st.one_of(_IRI, _LITERAL)),
    _document(".nt", _NODE, st.one_of(_NODE, _LITERAL)),
    _document(".ttl", st.one_of(_NODE, _TTL_NODE), st.one_of(_NODE, _TTL_NODE, _LITERAL)),
    _many_blanks(),
)

_FREE_NT = (".nt", '<http://e/a> <http://p/p> "v1" .\n<http://e/b> <http://p/q> <http://e/a> .\n')
_FREE_TTL = (".ttl", '<http://e/c> <http://p/r> "w"@en .\n')
_BOTH = (".nt", '_:z <http://p/p> _:a .\n<http://e/a> <http://p/q> _:c .\n_:c <http://p/p> "v1" .\n')
_MANY = (".nt", "".join(
    f'_:n{i} <http://p/p> "{i}" .\n' for i in (5, 12, 0, 9, 3, 11, 1, 7, 10, 2, 8, 4, 6)
))
_BRACKETS = (".ttl", "<http://e/a> <http://p/p> [ <http://p/q> ( <http://e/b> _:y ) ] .\n"
                     "[] <http://p/r> ( ) .\n_:y <http://p/p> _:y .\n")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=st.lists(_DOCUMENT, min_size=2, max_size=4))
@example(docs=[_FREE_NT, _BOTH, _FREE_TTL, _MANY])
@example(docs=[(".ttl", "_:x <http://p/p> <http://e/a> .\n"), _BOTH, _BRACKETS, _FREE_NT])
def test_merged_blank_labels_match_the_reference(tmp_path, docs):
    paths = []
    for i, (suffix, text) in enumerate(docs):
        path = tmp_path / f"input{i}{suffix}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    assert serialize_ntriples(_load_inputs(paths, None)) == (
        serialize_ntriples(_reference_load(paths))
    )


def test_input_after_blank_free_inputs_keeps_its_parse_labels(tmp_path):
    # offset 0: no earlier input had blanks, so b.nt keeps the labels its
    # parse gave (_:z -> b0, _:y -> b1). After an input with a blank it is
    # renumbered in its sorted order instead (_:y -> b1, _:z -> b2), as
    # test_merged_blank_labels_follow_each_inputs_sorted_order in
    # test_cli.py pins.
    free = tmp_path / "free.nt"
    b = tmp_path / "b.nt"
    free.write_text("<http://a> <http://p/l> <http://o/0> .\n")
    b.write_text("_:z <http://p/l> <http://o/2> .\n<http://a> <http://p/l> _:y .\n")
    assert serialize_ntriples(_load_inputs([str(free), str(b)], None)) == (
        "<http://a> <http://p/l> <http://o/0> .\n"
        "<http://a> <http://p/l> _:b1 .\n"
        "_:b0 <http://p/l> <http://o/2> .\n"
    )


@pytest.fixture
def graph_builds(monkeypatch):
    builds: list[int] = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    return builds


def test_three_inputs_build_one_graph(graph_builds):
    names = ("eusilc.ttl", "cube.ttl", "thesaurus_clean.ttl")
    graph = _load_inputs([str(FIXTURES / name) for name in names], None)
    assert len(graph_builds) == 1
    assert len(graph) == sum(
        len(set(parse_turtle((FIXTURES / name).read_bytes()))) for name in names
    )


@pytest.mark.parametrize("parse, text", [
    (parse_ntriples,
     "<http://example.org/s> <http://example.org/p> <http://example.org/b> .\n"
     "<http://example.org/s> <http://example.org/p> <http://example.org/a> .\n"
     "<http://example.org/s> <http://example.org/p> <http://example.org/b> .\n"),
    (parse_turtle, "@prefix ex: <http://example.org/> . ex:s ex:p ex:b, ex:a, ex:b ."),
])
def test_parsers_return_triples_in_document_order(graph_builds, parse, text):
    triples = parse(text)
    assert type(triples) is list
    assert triples == [triple("ex:s", "ex:p", "ex:b"), triple("ex:s", "ex:p", "ex:a"),
                       triple("ex:s", "ex:p", "ex:b")]
    assert graph_builds == []


def _fail_validation(*args, **kwargs):
    raise RuntimeError("checker blew up")


_CASES = {
    "exit 0": (["--vocab", "skos", "thesaurus_clean.ttl"], None, 0),
    "exit 1": (["--vocab", "skos", "--fail-on", "warning", "thesaurus_cycle.ttl"], None, 1),
    "parse error": (["malformed/ttl_missing_dot.ttl"], None, 2),
    "internal error": (["--vocab", "skos", "thesaurus_clean.ttl"], _fail_validation, 2),
}


@pytest.mark.parametrize("disabled", [False, True], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", list(_CASES))
def test_run_cli_leaves_the_collector_as_found(monkeypatch, capsys, case, disabled):
    args, validate, code = _CASES[case]
    args = [str(FIXTURES / a) if a.endswith(".ttl") else a for a in args]
    if validate is not None:
        monkeypatch.setattr(cli, "validate", validate)
    was_enabled = gc.isenabled()
    if disabled:
        gc.disable()
    try:
        before = (gc.isenabled(), gc.get_freeze_count())
        assert run_cli(args) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
    finally:
        if was_enabled:
            gc.enable()


def test_run_cli_runs_without_the_collector_and_freezes_nothing(monkeypatch, capsys):
    seen = {}

    def watch(name):
        original = getattr(cli, name)

        def watched(*args):
            seen[name] = (gc.isenabled(), gc.get_freeze_count())
            return original(*args)

        monkeypatch.setattr(cli, name, watched)

    for name in ("parse_turtle", "validate", "report_chunks"):
        watch(name)
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert run_cli(["--vocab", "skos", str(FIXTURES / "thesaurus_clean.ttl")]) == 0
    assert seen == dict.fromkeys(["parse_turtle", "validate", "report_chunks"], (False, 0))
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_run_cli_adds_no_freeze_to_a_callers_freeze(capsys):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert run_cli(["--vocab", "skos", str(FIXTURES / "thesaurus_clean.ttl")]) == 0
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("args, code", [
    (["--vocab", "skos", "thesaurus_clean.ttl"], 0),
    (["--vocab", "skos", "--fail-on", "warning", "thesaurus_cycle.ttl"], 1),
], ids=["exit 0", "exit 1"])
def test_main_freezes_the_heap_before_it_exits(args, code):
    # the interpreter's last collection then skips the heap; the exit
    # code and the atexit handlers are kept
    args = [str(FIXTURES / a) if a.endswith(".ttl") else a for a in args]
    script = (
        "import atexit, gc, sys\n"
        "from rdfcheck.cli import main\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = ['rdfcheck', *{args!r}]\n"
        "main()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=False)
    assert (proc.returncode, proc.stderr) == (code, "frozen True\n")
    assert "summary:" in proc.stdout


_FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.ttl"))


@pytest.mark.parametrize("names", [[name] for name in _FIXTURE_NAMES] + [_FIXTURE_NAMES],
                         ids=[*_FIXTURE_NAMES, "merged"])
def test_validation_leaves_no_cyclic_garbage(full_catalog, names):
    # what lets the CLI run with the collector off
    graph = _load_inputs([str(FIXTURES / name) for name in names], None)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        validate(graph, full_catalog)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
