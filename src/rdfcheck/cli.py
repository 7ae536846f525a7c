"""Command-line front end.

Exit codes: 0 clean (no violation at or above --fail-on), 1 when such
violations exist, 2 on usage, parse, or catalog errors. Load errors print
one diagnostic line each on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .catalog import (
    BUILTIN_VOCABULARIES,
    Catalog,
    CatalogError,
    Severity,
    builtin_catalog,
    merge_catalogs,
)
from .engine import EngineError, validate
from .graph import Graph
from .ntriples import ParseError, parse_ntriples
from .report import write_report
from .terms import BlankNode, Triple
from .turtle import parse_turtle

CATALOG_PATH_ENV = "RDFCHECK_CATALOG_PATH"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfcheck",
        description="Closed-world RDF constraint validation for SBE metadata "
        "vocabularies (DDI-RDF Discovery, Data Cube, SKOS, XKOS, PHDD, DCAT).",
    )
    parser.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="RDF files to validate (.nt or .ttl)")
    parser.add_argument("--format", choices=("ttl", "nt"),
                        help="force the input format instead of going by extension")
    parser.add_argument("--vocab",
                        help="comma-separated built-in vocabularies to check "
                        f"({', '.join(BUILTIN_VOCABULARIES)}); default: all")
    parser.add_argument("--catalog", action="append", default=[], metavar="FILE",
                        help="user catalog JSON merged over the built-ins "
                        "(repeatable; later files win)")
    parser.add_argument("--only", action="append", default=[], metavar="ID_OR_TYPE",
                        help="run only constraints with this id or type (repeatable)")
    parser.add_argument("--skip", action="append", default=[], metavar="ID_OR_TYPE",
                        help="skip constraints with this id or type (repeatable)")
    parser.add_argument("--severity-threshold", choices=("info", "warning", "error"),
                        help="hide violations below this level from the report")
    parser.add_argument("--fail-on", choices=("info", "warning", "error"),
                        default="error",
                        help="exit 1 when violations at or above this level exist "
                        "(default: error)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--report", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--explain", metavar="CONSTRAINT_ID",
                        help="print the catalog entry for one constraint and exit")
    return parser


def _fail(message: str) -> int:
    print(f"rdfcheck: error: {message}", file=sys.stderr)
    return 2


def _catalog_search_dirs() -> list[Path]:
    raw = os.environ.get(CATALOG_PATH_ENV, "")
    return [Path(p) for p in raw.split(os.pathsep) if p]


def _resolve_catalog_path(spec: str) -> Path | None:
    path = Path(spec)
    if path.exists():
        return path
    for directory in _catalog_search_dirs():
        candidate = directory / spec
        if candidate.exists():
            return candidate
    return None


def _load_inputs(paths: list[str], fmt: str | None) -> Graph:
    triples: list[Triple] = []
    blank_offset = 0
    for spec in paths:
        path = Path(spec)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {spec}")
        data = path.read_bytes()
        chosen = fmt or ("ttl" if path.suffix.lower() == ".ttl" else "nt")
        try:
            graph = parse_turtle(data) if chosen == "ttl" else parse_ntriples(data)
        except ParseError as exc:
            raise ParseError(f"{spec}: {exc}", exc.line) from None
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
    """Blank labels are scoped per document; keep merged inputs apart by
    renumbering every file after the first."""
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


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help, which matches
        # the published exit-code contract
        return int(exc.code or 0)

    vocabularies: set[str] | None = None
    if args.vocab:
        vocabularies = {v.strip() for v in args.vocab.split(",") if v.strip()}

    try:
        catalog: Catalog = builtin_catalog(vocabularies)
        for spec in args.catalog:
            resolved = _resolve_catalog_path(spec)
            if resolved is None:
                return _fail(f"catalog file not found: {spec}")
            catalog = merge_catalogs(catalog, resolved.read_bytes())
    except CatalogError as exc:
        return _fail(str(exc))

    if args.explain:
        try:
            record = catalog.explain(args.explain)
        except CatalogError as exc:
            return _fail(str(exc))
        import json as _json

        print(_json.dumps(record, indent=2, ensure_ascii=False))
        return 0

    try:
        graph = _load_inputs(args.inputs, args.format)
    except (FileNotFoundError, ParseError) as exc:
        return _fail(str(exc))

    try:
        selected = catalog.select(vocabularies=vocabularies)
    except CatalogError as exc:
        return _fail(str(exc))
    if args.only:
        wanted = set(args.only)
        selected = [c for c in selected if c.id in wanted or c.type in wanted]
    if args.skip:
        unwanted = set(args.skip)
        selected = [c for c in selected if c.id not in unwanted and c.type not in unwanted]

    try:
        report = validate(graph, catalog, selected)
    except EngineError as exc:
        return _fail(str(exc))

    threshold = Severity.parse(args.severity_threshold) if args.severity_threshold else None
    rendered = write_report(report, args.report, threshold)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    fail_on = Severity.parse(args.fail_on)
    return 1 if report.at_or_above(fail_on) else 0


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
