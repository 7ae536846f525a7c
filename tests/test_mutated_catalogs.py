"""One-constraint user catalogs with mutated parameters keep the exit-code
contract: merged over the built-ins and run on the four fixtures, they exit
0, 1 or 2, and a 2 comes with one diagnostic line. A fixed sample of them
gives the same exit codes, stderr and reports under two hash seeds, and the
load diagnostics of another are pinned in ``catalog_diagnostics.txt``
(rewrite it with ``PYTHONPATH=src python tests/test_mutated_catalogs.py``).

Every parameter value is drawn from a fixed pool, so no generated regular
expression can backtrack without end.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import CONSTRAINT_TYPES, Catalog, CatalogError, merge_catalogs
from rdfcheck.cli import run_cli

from conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
DIAGNOSTICS = Path(__file__).with_name("catalog_diagnostics.txt")
INPUTS = [str(FIXTURES / name) for name in (
    "cube.ttl", "eusilc.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl")]

# well-formed values per parameter kind, naming terms the fixtures use
VALID = {
    "iri": ["disco:percentage", "disco:Variable", "skos:Concept", "skos:broader",
            "skos:prefLabel", "qb:Observation", "xsd:double", "http://e/p"],
    "iri_list": [[], ["skos:Concept"], ["disco:Variable", "disco:Question"]],
    "string": ["skos", "disco", "qb", "en"],
    "string_list": [[], ["en"], ["*"], ["en", "de"]],
    "int": [0, 1, 2, -1],
    "number": [0, 100, "0.01", 1.5, "-1e3"],
    "bool": [True, False],
    "pattern": ["", ".*", "^EU_", "[a-z]+", "(a|b)c?"],
    "term_list": [[], ["skos:Concept"], [{"lexical": "60.0", "datatype": "xsd:double"}],
                  [{"lexical": "a", "lang": "en"}]],
    "pairs": [[], [["skos:broader", "skos:narrower"]]],
    "groups": [[], [["skos:prefLabel"], ["skos:altLabel", "skos:notation"]]],
    "iri_map": [{}, {"skos:broader": ["skos:Concept"]}],
    "range_map": [{}, {"skos:broader": {"classes": ["skos:Concept"]}},
                  {"disco:percentage": {"datatype": "xsd:double", "scope": "disco:Variable"}}],
    "path": [["skos:broader"], ["^skos:broader", "@members"],
             ["disco:variable", "disco:representation", "@members"]],
    "rule_list": [[], [{"property": "skos:prefLabel", "scope": "skos:Concept", "min": 1}],
                  [{"property": "disco:variable", "scope": "disco:LogicalDataSet", "max": 0,
                    "qualifier_class": "disco:Variable"}]],
    "part_list": [[], [{"path": ["dcterms:title"]}, {"path": ["skos:prefLabel"]}]],
    "default_list": [[], [{"scope": "disco:Variable", "property": "skos:notation",
                           "value": {"lexical": "x"}}]],
}

# values of the wrong type or out of range for some kind: bools, very large
# ints, NaN and infinities, unknown modes, malformed structures
MUTATED = [
    None, True, False, 0, -1, 10**30, 2**63, 10**400, -(10**400), 1.5, float("inf"),
    float("nan"), "", "NaN", "nan", "-nan", "inf", "-Infinity", "1e400", "sNaN",
    "no-such-mode", "http://e/p", "ex:p", "not an iri", "(", [], [1], [None], ["(", ")"],
    [[]], [["a"]], {}, {"lexical": 1}, {"x": 1}, {"http://e/p": {}}, [{"x": 1}], [{}],
]


def _values(kind) -> list:
    # a selector kind is the tuple of its allowed values
    return list(kind) if isinstance(kind, tuple) else VALID[kind]


OMIT = object()


def _entry(choose, choose_up_to_two):
    """A well-formed entry of a registered type, then up to two of its
    parameters, its severity or its scope replaced by a mutated value.
    ``choose(options)`` picks one option, ``choose_up_to_two(options)`` a
    set of at most two."""
    ctype = CONSTRAINT_TYPES[choose(sorted(CONSTRAINT_TYPES))]
    params = {}
    for name, (kind, _req) in ctype.schema.items():
        value = choose([OMIT, *_values(kind)])
        if value is not OMIT:
            params[name] = value
    entry = {"id": "USER-1", "type": ctype.id,
             "severity": choose(["error", "warning", "info"]), "params": params}
    scope = choose([OMIT, "skos:Concept", "disco:Variable"])
    if scope is not OMIT:
        entry["scope"] = scope
    targets = [*ctype.schema, "no_such_param", "severity", "scope"]
    for target in sorted(choose_up_to_two(targets)):
        value = choose(MUTATED)
        if target in ("severity", "scope"):
            entry[target] = value
        else:
            params[target] = value
    return entry


@st.composite
def entries(draw):
    return _entry(lambda options: draw(st.sampled_from(options)),
                  lambda options: draw(st.sets(st.sampled_from(options), max_size=2)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entry=entries())
@example(entry={"id": "USER-1", "type": "data-property-facets", "severity": "error",
                "params": {"property": "disco:percentage", "min": "NaN"}})
@example(entry={"id": "USER-1", "type": "literal-range", "severity": "error",
                "params": {"property": "disco:percentage", "datatype": "xsd:double",
                           "max": float("nan")}})
@example(entry={"id": "USER-1", "type": "percentage-sum", "severity": "error",
                "params": {"tolerance": "nan"}})
def test_mutated_user_catalog_keeps_the_exit_contract(tmp_path, capsys, entry):
    user = tmp_path / "user.json"
    user.write_text(json.dumps({"constraints": [entry]}))
    code = run_cli(["--catalog", str(user), "--only", "USER-1",
                    "--output", str(tmp_path / "report.txt"), *INPUTS])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "internal error" not in err and "checker failed" not in err, err
    if code == 2:
        assert err.startswith("rdfcheck: error:") and err.count("\n") == 1, err
    else:
        assert err == ""


def _sampled_entries(count: int, seed: int, mutated: bool = True) -> list[dict]:
    """``count`` entries drawn as ``entries`` draws them, from a fixed seed;
    with ``mutated`` false, well-formed entries without the mutation step."""
    rng = random.Random(seed)

    def up_to_two(options):
        return set(rng.sample(options, rng.randint(0, 2))) if mutated else set()

    return [_entry(rng.choice, up_to_two) for _ in range(count)]


# Runs each catalog of argv[1] in turn on the inputs after it, and prints
# each run's exit code, stderr and report bytes (hex) as one JSON list.
_RUN_EACH = """
import contextlib, io, json, sys
from pathlib import Path
from rdfcheck.cli import run_cli
work, inputs, results = Path(sys.argv[1]), sys.argv[2:], []
for user in sorted(work.glob("*.json")):
    report, err = user.with_suffix(".report"), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(["--catalog", str(user), "--only", "USER-1", "--report", "json",
                        "--output", str(report), *inputs])
    written = report.read_bytes().hex() if report.exists() else None
    report.unlink(missing_ok=True)
    results.append([user.name, code, err.getvalue(), written])
print(json.dumps(results))
"""


def test_a_sample_of_mutated_catalogs_does_not_depend_on_the_hash_seed(tmp_path):
    # str hashes change with the seed, so a set of strings or literals read
    # in its iteration order would change a report, a diagnostic or an exit
    # code between these two runs
    # half the sample is drawn without the mutation step, so that most
    # entries load and several reports hold findings
    drawn = _sampled_entries(10, seed=18) + _sampled_entries(10, seed=207, mutated=False)
    sample = [json.dumps({"constraints": [entry]}, sort_keys=True) for entry in drawn]
    for n, document in enumerate(sample):
        (tmp_path / f"user{n:02}.json").write_text(document)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "5"):
        child = subprocess.run([sys.executable, "-c", _RUN_EACH, str(tmp_path), *INPUTS],
                               env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                               text=True, check=False, timeout=120)
        assert child.returncode == 0 and child.stderr == "", child.stderr
        runs.append(json.loads(child.stdout))
    assert len(runs[0]) == len(sample)
    assert runs[0] == runs[1]
    # the sample reaches both kinds of outcome: at least ten reports, five
    # of them with a violation or a metric, and an exit-2 diagnostic
    codes = [code for _, code, _, _ in runs[0]]
    reports = [json.loads(bytes.fromhex(written)) for _, _, _, written in runs[0] if written]
    assert 2 in codes and len(reports) >= 10
    assert sum(bool(r["violations"] or r["metrics"]) for r in reports) >= 5


def _load_diagnostics() -> list[str]:
    """``ok``, or the one-line load error, of each of 300 sampled entries
    merged over an empty catalog."""
    lines = []
    for entry in _sampled_entries(300, seed=19):
        try:
            merge_catalogs(Catalog({}, {}), {"constraints": [entry]})
        except CatalogError as exc:
            lines.append(str(exc))
        else:
            lines.append("ok")
    return lines


def test_the_load_diagnostics_of_a_sample_of_mutated_catalogs_are_pinned():
    assert _load_diagnostics() == DIAGNOSTICS.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    DIAGNOSTICS.write_text("".join(line + "\n" for line in _load_diagnostics()),
                           encoding="utf-8")
