import csv
import hashlib
import importlib.util
import json
from pathlib import Path

from rdfcheck.catalog import CONSTRAINT_TYPES, Severity, builtin_catalog

from conftest import load_catalog

DOCS = Path(__file__).parent.parent / "docs"


def severity_table():
    with open(DOCS / "severity-defaults.csv", newline="") as handle:
        return {row["id"]: row["severity"] for row in csv.DictReader(handle)}


def test_table_and_catalog_ids_are_identical(full_catalog):
    table = severity_table()
    assert set(table) == set(full_catalog.constraints)


def test_every_severity_matches_table(full_catalog):
    table = severity_table()
    mismatched = {
        cid: (table[cid], str(full_catalog.constraints[cid].severity))
        for cid in table
        if table[cid] != str(full_catalog.constraints[cid].severity)
    }
    assert mismatched == {}


def test_constraint_counts_per_vocabulary(full_catalog):
    by_vocab = {}
    for constraint in full_catalog.constraints.values():
        by_vocab[constraint.vocabulary] = by_vocab.get(constraint.vocabulary, 0) + 1
    assert by_vocab == {
        "disco": 144, "qb": 35, "skos": 35, "xkos": 10, "phdd": 12, "dcat": 11,
    }


def test_named_constraints_exist(full_catalog):
    # ids relied upon elsewhere in the suite and the documentation
    for cid in (
        "DISCO-C-LITERAL-RANGES-01",
        "DISCO-C-SUBSUMPTION-01",
        "DISCO-C-CONTEXT-SPECIFIC-EXCLUSIVE-OR-OF-PROPERTY-GROUPS-01",
        "DATA-CUBE-C-DATA-MODEL-CONSISTENCY-05",
        "DATA-CUBE-C-MEMBERSHIP-IN-CONTROLLED-VOCABULARIES-01",
        "SKOS-C-DISJOINT-PROPERTIES-02",
        "SKOS-C-STRUCTURE-10",
        "XKOS-C-PROPERTY-RANGES-01",
        "PHDD-C-PROPERTY-DOMAIN-01",
        "DCAT-C-UNIVERSAL-QUANTIFICATIONS-01",
        "DISCO-C-HTTP-URI-SCHEME-VIOLATION",
    ):
        assert cid in full_catalog.constraints, cid


def test_all_types_in_catalogs_are_registered(full_catalog):
    used = {c.type for c in full_catalog.constraints.values()}
    assert used <= set(CONSTRAINT_TYPES)


def test_ic_severities_match_published_defaults(full_catalog):
    # IC-6, IC-12, IC-18 are warnings; every other integrity constraint is
    # an error
    warning_ics = {6, 12, 18}
    for constraint in full_catalog.constraints.values():
        if constraint.type != "qb-integrity":
            continue
        ic = constraint.params["ic"]
        expected = Severity.WARNING if ic in warning_ics else Severity.ERROR
        assert constraint.severity is expected, constraint.id


def test_data_files_are_valid_catalog_documents():
    data_dir = Path(__file__).parent.parent / "src" / "rdfcheck" / "data"
    for path in sorted(data_dir.glob("*.json")):
        catalog = load_catalog(path.read_text())
        assert catalog.constraints, path.name


def test_data_files_match_generator_output():
    root = Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_catalogs", root / "tools" / "gen_catalogs.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    data_dir = root / "src" / "rdfcheck" / "data"
    assert sorted(generator.CATALOGS) == sorted(p.name for p in data_dir.glob("*.json"))
    for filename, catalog in generator.CATALOGS.items():
        expected = generator.render(catalog).encode("utf-8")
        assert (data_dir / filename).read_bytes() == expected, filename


def test_paper_quoted_domain_examples(full_catalog):
    domains = full_catalog.constraints["DISCO-C-PROPERTY-DOMAIN-01"].params["domains"]
    disco = "http://rdf-vocabulary.ddialliance.org/discovery#"
    assert domains[disco + "responseDomain"] == [disco + "Question"]
    qb_domains = full_catalog.constraints["DATA-CUBE-C-PROPERTY-DOMAIN-01"].params["domains"]
    qb = "http://purl.org/linked-data/cube#"
    assert qb_domains[qb + "dataSet"] == [qb + "Observation"]


def test_quoted_range_examples(full_catalog):
    disco = "http://rdf-vocabulary.ddialliance.org/discovery#"
    ranges = full_catalog.constraints["DISCO-C-PROPERTY-RANGES-01"].params["ranges"]
    assert ranges[disco + "caseQuantity"]["datatype"].endswith("nonNegativeInteger")
    qb = "http://purl.org/linked-data/cube#"
    qb_ranges = full_catalog.constraints["DATA-CUBE-C-PROPERTY-RANGES-01"].params["ranges"]
    assert qb_ranges[qb + "order"]["datatype"].endswith("#string")
    xkos_ranges = full_catalog.constraints["XKOS-C-PROPERTY-RANGES-01"].params["ranges"]
    xkos = "http://rdf-vocabulary.ddialliance.org/xkos#"
    assert xkos_ranges[xkos + "belongsTo"]["classes"] == [
        "http://www.w3.org/2004/02/skos/core#Concept"
    ]
    dcat_ranges = full_catalog.constraints["DCAT-C-PROPERTY-RANGES-01"].params["ranges"]
    assert dcat_ranges["http://www.w3.org/ns/dcat#bytes"]["datatype"].endswith("integer")


def test_shipped_catalogs_load_to_the_pinned_explain_records():
    # every validated parameter of every shipped constraint reaches this
    # digest, so a change to how a kind normalizes its value shows here
    catalog = builtin_catalog()
    records = json.dumps([catalog.explain(cid) for cid in sorted(catalog.constraints)],
                         sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "546b1d560a836dc178947d6de4b05eeca85c2fa78661c1f912927f66bf407010"
    )
