"""One-constraint user catalogs with mutated parameters keep the exit-code
contract: merged over the built-ins and run on the four fixtures, they exit
0, 1 or 2, and a 2 comes with one diagnostic line.

Every parameter value is drawn from a fixed pool, so no generated regular
expression can backtrack without end.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import CONSTRAINT_TYPES
from rdfcheck.cli import run_cli

from conftest import FIXTURES

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


def _values(kind: str) -> list:
    if kind.startswith("mode:"):
        return kind[len("mode:"):].split("|")
    if kind.startswith("int_in:"):
        return [int(v) for v in kind[len("int_in:"):].split("|")]
    return VALID[kind]


OMIT = object()


@st.composite
def entries(draw):
    """A well-formed entry of a registered type, then up to two of its
    parameters, its severity or its scope replaced by a mutated value."""
    ctype = CONSTRAINT_TYPES[draw(st.sampled_from(sorted(CONSTRAINT_TYPES)))]
    params = {}
    for name, (kind, _req) in ctype.schema.items():
        value = draw(st.sampled_from([OMIT, *_values(kind)]))
        if value is not OMIT:
            params[name] = value
    entry = {"id": "USER-1", "type": ctype.id,
             "severity": draw(st.sampled_from(["error", "warning", "info"])),
             "params": params}
    scope = draw(st.sampled_from([OMIT, "skos:Concept", "disco:Variable"]))
    if scope is not OMIT:
        entry["scope"] = scope
    targets = [*ctype.schema, "no_such_param", "severity", "scope"]
    for target in sorted(draw(st.sets(st.sampled_from(targets), max_size=2))):
        value = draw(st.sampled_from(MUTATED))
        if target in ("severity", "scope"):
            entry[target] = value
        else:
            params[target] = value
    return entry


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
