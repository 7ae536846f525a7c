"""Reports depend on the set of triples read, not on how they are written.

RDF 1.1 Concepts defines a graph as a set of triples, so neither the order
of the statements nor the syntax they are written in may change a report:
a metamorphic relation. For each fixture and for the two benchmark corpora
(``perfbench/corpus.py``, their shapes scaled down to a few hundred triples
so that the whole module runs in seconds), the JSON report of the inputs as
written is compared byte for byte with the report of the same triples
rewritten three ways: as N-Triples with the lines of each input shuffled
(two seeds); with each Turtle input rewritten as N-Triples; and with each
input that holds no blank node split across two files. Blank-node labels
are scoped per document, so an input with blanks is never split; the one
such input here (the survey part of ``deposit-full``) yields no finding on
a blank node, so the new labels a shuffle gives its blanks do not show.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from rdfcheck.cli import run_cli
from rdfcheck.ntriples import serialize_ntriples
from rdfcheck.turtle import parse_turtle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402  (the benchmark's generator, imported as it is)

_FIXTURES = ("cube.ttl", "eusilc.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl")

#: workload -> its inputs at a few hundred triples, in the workload's order
_SMALL = {
    "thesaurus-ttl": [("thesaurus.ttl", "thesaurus", {"concepts": 60, "tops": 4, "fanout": 4})],
    "deposit-full": [
        ("surveys.nt", "survey", {"copies": 3}),
        ("cube.ttl", "cube", {"areas": 4, "years": 3}),
        ("skos.nt", "thesaurus", {"concepts": 40, "tops": 3, "fanout": 5}),
    ],
}


def _small_corpus(monkeypatch, workload: str, out: Path) -> list[Path]:
    """The workload's inputs at seed 7, generated with the sizes of ``_SMALL``."""
    spec = {**corpus.WORKLOADS[workload], "inputs": _SMALL[workload]}
    monkeypatch.setitem(corpus.WORKLOADS, workload, spec)
    manifest = corpus.generate(workload, 7, out)
    return [out / entry["path"] for entry in manifest["inputs"]]


def _ntriples_lines(path: Path) -> list[str]:
    if path.suffix == ".ttl":
        return serialize_ntriples(parse_turtle(path.read_bytes())).splitlines(keepends=True)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _shuffled(seed: int):
    def rewrite(lines: list[str]) -> list[list[str]]:
        random.Random(seed).shuffle(lines)
        return [lines]

    return rewrite


def _split(lines: list[str]) -> list[list[str]]:
    if any("_:" in line for line in lines):
        return [lines]
    return [lines[0::2], lines[1::2]]


_REWRITES = {
    "shuffled-1": _shuffled(1),
    "shuffled-2": _shuffled(2),
    "turtle-as-ntriples": lambda lines: [lines],
    "split": _split,
}


def _rewritten(inputs: list[Path], rewrite, out: Path) -> list[Path]:
    """Each input as N-Triples, its lines rewritten into one or more files."""
    out.mkdir()
    paths = []
    for n, path in enumerate(inputs):
        for k, lines in enumerate(rewrite(_ntriples_lines(path))):
            paths.append(out / f"{n}-{k}.nt")
            paths[-1].write_text("".join(lines), encoding="utf-8")
    return paths


def _report(paths: list[Path], out: Path) -> tuple[int, bytes]:
    code = run_cli([*map(str, paths), "--report", "json", "--output", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", [*_FIXTURES, *_SMALL])
def test_report_is_invariant_under_order_and_syntax(monkeypatch, tmp_path, name):
    if name in _SMALL:
        inputs = _small_corpus(monkeypatch, name, tmp_path / "corpus")
    else:
        inputs = [FIXTURES / name]
    code, expected = _report(inputs, tmp_path / "report.json")
    assert code in (0, 1)
    for case, rewrite in _REWRITES.items():
        paths = _rewritten(inputs, rewrite, tmp_path / case)
        assert _report(paths, tmp_path / f"{case}.json") == (code, expected), case
