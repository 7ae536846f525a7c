"""Byte pins for the JSON and text reports under the full built-in catalog.

Each group of inputs is rendered in both formats and hashed into one
SHA-256 digest. A digest moves only when some report byte moves, so a
refactor that must keep reports identical keeps these digests as they are.
The groups: each fixture alone, the four fixtures merged the way the CLI
merges several inputs, and the fault-injection mutants of the acceptance
suite (each mutant set over its own base fixture and namespace).
"""

from __future__ import annotations

import hashlib

import pytest

import test_acceptance
from conftest import FIXTURES, load_fixture
from rdfcheck.cli import _load_inputs
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.report import write_json, write_text

_FIXTURES = ("cube.ttl", "eusilc.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl")

#: name -> (base fixture, namespace the mutation rows resolve "ex:" in, rows)
_MUTANT_SETS = {
    "disco-mutants": (
        "eusilc.ttl", "http://example.org/eusilc/", test_acceptance.DISCO_MUTATIONS,
    ),
    "skos-mutants": (
        "thesaurus_clean.ttl", "http://example.org/thesaurus/",
        test_acceptance.SKOS_MUTATIONS,
    ),
    "cube-mutants": (
        "cube.ttl", "http://example.org/cube/", test_acceptance.CUBE_MUTATIONS,
    ),
}

PINNED = {
    "cube.ttl": (
        "7228c962f12fd882a59efab258320483"
        "5bfa6784b248c335690a10f1e3cc4a66"
    ),
    "eusilc.ttl": (
        "e0ab8abecaab0db85b04ee885053fd7f"
        "dedeb21531161a0546e08ebf21395e91"
    ),
    "thesaurus_clean.ttl": (
        "baa7dd29d4140c1a0ed1fbf819c28cdf"
        "8cb7fa1b0d365975c46860b1954c388f"
    ),
    "thesaurus_cycle.ttl": (
        "dcc047e2b6a301d46e48a968b10b18f2"
        "e2703fed5eae2094724d7e05cecf66ce"
    ),
    "merged": (
        "cdbd006ab3caf6fa558ac0e83e4b6acd"
        "77aefb35edaacd5f60201dad7b5b3c2f"
    ),
    "disco-mutants": (
        "48c00a4086cb38bbc2190b8f354772e8"
        "f7bcdcf297eb00a1f4ad336c56a55344"
    ),
    "skos-mutants": (
        "b7dac453ca44d4c227a07582acb30dec"
        "c6a2d84e25c3e454895586cb6b60105c"
    ),
    "cube-mutants": (
        "3a776e68e0051e3e92be8020cd64db43"
        "a3eb16b757608fab58c7fb780c6b6209"
    ),
}


def _digest(graphs, catalog) -> str:
    sha = hashlib.sha256()
    for graph in graphs:
        report = validate(graph, catalog)
        sha.update(write_json(report).encode("utf-8"))
        sha.update(write_text(report).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("name", _FIXTURES)
def test_fixture_reports_are_pinned(name, full_catalog):
    assert _digest([load_fixture(name)], full_catalog) == PINNED[name]


def test_merged_fixture_reports_are_pinned(full_catalog):
    merged = _load_inputs([str(FIXTURES / name) for name in _FIXTURES], None)
    assert _digest([merged], full_catalog) == PINNED["merged"]


@pytest.mark.parametrize("group", sorted(_MUTANT_SETS))
def test_mutant_reports_are_pinned(group, full_catalog, monkeypatch):
    base_name, namespace, mutations = _MUTANT_SETS[group]
    monkeypatch.setattr(test_acceptance, "_ACTIVE_NS", namespace)
    base = list(load_fixture(base_name))
    graphs = [Graph(row[1](base)) for row in mutations]
    assert _digest(graphs, full_catalog) == PINNED[group]
