"""Fixture graphs with random triple edits keep the engine's contract:
validated in process under the full built-in catalog and rendered in both
report formats, no mutant raises.

Each mutant is one of the four fixtures after one to eight edits: a
deleted triple, a triple whose subject or object is swapped for another
triple's, or a triple whose object becomes an ill-typed or huge literal.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdfcheck.catalog import builtin_catalog
from rdfcheck.engine import validate
from rdfcheck.graph import Graph
from rdfcheck.report import write_json, write_text
from rdfcheck.terms import Literal, Triple

from conftest import expand, load_fixture

CATALOG = builtin_catalog()
FIXTURES = {
    name: list(load_fixture(name))
    for name in ("cube.ttl", "eusilc.ttl", "thesaurus_clean.ttl", "thesaurus_cycle.ttl")
}

HUGE = "1" * 5000  # past the 4,300 digits that int() and str() take by default

LITERALS = [
    Literal(lexical, expand(datatype))
    for lexical, datatype in [
        ("1e400", "xsd:double"), ("-1e400", "xsd:double"), ("NaN", "xsd:double"),
        ("INF", "xsd:double"), ("1e-400", "xsd:double"), ("abc", "xsd:double"),
        (HUGE, "xsd:integer"), ("-" + HUGE, "xsd:integer"), (HUGE, "xsd:nonNegativeInteger"),
        ("-1", "xsd:nonNegativeInteger"), ("", "xsd:integer"), ("1.5", "xsd:integer"),
        (HUGE + ".5", "xsd:decimal"), (".", "xsd:decimal"), ("maybe", "xsd:boolean"),
        ("2024-02-30", "xsd:date"), ("99999-01-01", "xsd:date"), (HUGE, "xsd:gYear"),
        ("2024-01-01T24:00:00", "xsd:dateTime"), ("x", "http://example.org/unknownType"),
        ("", "xsd:string"), (" padded ", "xsd:string"),
    ]
] + [Literal("", lang="en"), Literal("<b>label", lang="EN"), Literal("label", lang="x-y")]

# the edit that made a 5,000-digit frequency crash the integer parser
HUGE_FREQUENCY = [(
    "literal",
    next(i for i, t in enumerate(FIXTURES["eusilc.ttl"])
         if t.predicate.value == expand("disco:frequency")),
    LITERALS.index(Literal(HUGE, expand("xsd:nonNegativeInteger"))),
)]

EDITS = st.tuples(
    st.sampled_from(["delete", "subject", "object", "literal"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


def mutate(triples: list[Triple], edits) -> list[Triple]:
    out = list(triples)
    for kind, i, j in edits:
        if not out:
            break
        at, other = out[i % len(out)], out[j % len(out)]
        if kind == "delete":
            del out[i % len(out)]
            continue
        if kind == "subject":
            edited = Triple(other.subject, at.predicate, at.object)
        elif kind == "object":
            edited = Triple(at.subject, at.predicate, other.object)
        else:
            edited = Triple(at.subject, at.predicate, LITERALS[j % len(LITERALS)])
        out[i % len(out)] = edited
    return out


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(sorted(FIXTURES)), edits=st.lists(EDITS, min_size=1, max_size=8))
@example(name="eusilc.ttl", edits=HUGE_FREQUENCY)
def test_mutated_fixture_validates_without_raising(name, edits):
    graph = Graph(mutate(FIXTURES[name], edits))
    report = validate(graph, CATALOG)
    write_json(report)
    write_text(report)
