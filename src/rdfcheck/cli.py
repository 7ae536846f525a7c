"""Command-line front end.

Exit codes: 0 clean (no violation at or above --fail-on), 1 when such
violations exist, 2 on usage, parse, catalog, or output errors. Those errors
print one diagnostic line each on stderr. Any other exception is a fault of
rdfcheck itself; it too exits 2 with one "internal error" line, so it is
never mistaken for a finding.

A run leaves no cyclic garbage: the loaded graph is immutable and holds no
reference cycle, and validation makes none. So the cyclic garbage collector
is off for the whole of ``run_cli``, which leaves it as it found it, and
``main`` freezes (``gc.freeze``) the heap before the process exits, so the
interpreter's last collection skips it.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from collections.abc import Callable, Iterable
from itertools import chain
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
from .report import report_chunks, write_report  # perfbench/traced_cli.py wraps this name
from .terms import BlankNode, Term, Triple, _new_triple, term_sort_key
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
    """Write one diagnostic line to stderr, if it can be written, and return 2."""
    if sys.stderr is not None:  # None: started with its descriptor closed
        try:
            print(f"rdfcheck: error: {message}", file=sys.stderr, flush=True)
        except OSError:
            _to_devnull(sys.stderr)
    return 2


def _to_devnull(stream) -> None:
    """Point the process's own ``stream`` at os.devnull after a failed write:
    what its buffer still holds would fail again when the interpreter
    flushes it at exit."""
    if stream is not None and (stream is sys.__stdout__ or stream is sys.__stderr__):
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _catalog_search_dirs() -> list[Path]:
    raw = os.environ.get(CATALOG_PATH_ENV, "")
    return [Path(p) for p in raw.split(os.pathsep) if p]


def _resolve_catalog_path(spec: str) -> Path | None:
    path = Path(spec)
    if path.is_file():
        return path
    for directory in _catalog_search_dirs():
        candidate = directory / spec
        if candidate.is_file():
            return candidate
    return None


def _load_inputs(paths: list[str], fmt: str | None) -> Graph:
    parts: list[list[Triple]] = []
    blank_offset = 0
    for n, spec in enumerate(paths, start=1):
        path = Path(spec)
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {spec}")
        chosen = fmt or ("ttl" if path.suffix.lower() == ".ttl" else "nt")
        # Turtle's tokens may span lines, so it reads the whole text;
        # N-Triples reads the open file a line at a time
        try:
            if chosen == "ttl":
                part = parse_turtle(path.read_bytes())
            else:
                with path.open("rb") as lines:
                    part = parse_ntriples(lines)
        except OSError as exc:
            raise OSError(f"cannot read input {spec}: {exc.strerror}") from None
        except ParseError as exc:
            raise ParseError(exc.reason, exc.line, spec) from None
        # a last input read at offset 0 keeps its labels, and its count
        # concerns no later input
        if blank_offset or n < len(paths):
            blank_offset += _renumber_blanks(part, blank_offset)
        parts.append(part)
    return Graph(chain.from_iterable(parts))


TripleKey = tuple[tuple[int, str], tuple[int, str], tuple[int, str]]


def triple_order() -> Callable[[Triple], TripleKey]:
    """The sort key of a graph's triples: their terms' ``term_sort_key``,
    subject first. The key function caches each term's key, so use one for
    one batch of triples."""
    keys: dict[Term, tuple[int, str]] = {}

    def key(term: Term) -> tuple[int, str]:
        k = keys.get(term)
        if k is None:
            k = keys[term] = term_sort_key(term)
        return k

    return lambda t: (key(t.subject), key(t.predicate), key(t.object))


def _renumber_blanks(triples: list[Triple], offset: int) -> int:
    """Keep one input's blank nodes apart from those of the inputs before
    it, in place, and return how many distinct blanks the input holds.

    Blank labels are scoped per document. An input read while no earlier
    input had blanks (``offset`` 0) keeps its parse labels; any other input
    is renumbered ``b{offset}``, ``b{offset + 1}``, ... in the order its
    blanks first appear in its sorted triples, subject before object. That
    order is each blank's least (triple key, position), found in one pass
    over the triples that hold a blank."""
    held = [
        i for i, t in enumerate(triples)
        if type(t.subject) is BlankNode or type(t.object) is BlankNode
    ]
    if not offset:
        terms = (term for i in held for term in (triples[i].subject, triples[i].object))
        return len({term for term in terms if type(term) is BlankNode})
    key = triple_order()
    first: dict[BlankNode, tuple[TripleKey, int]] = {}
    for i in held:
        t = triples[i]
        k = key(t)
        for at, node in (((k, 0), t.subject), ((k, 1), t.object)):
            if type(node) is BlankNode and (node not in first or at < first[node]):
                first[node] = at
    order = sorted(first, key=first.__getitem__)
    renamed = {node: BlankNode(f"b{offset + n}") for n, node in enumerate(order)}
    for i in held:
        s, p, o = triples[i].subject, triples[i].predicate, triples[i].object
        triples[i] = _new_triple(renamed.get(s, s), p, renamed.get(o, o))
    return len(order)


def run_cli(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    except Exception as exc:
        message = " ".join(str(exc).split())
        return _fail(f"internal error: {type(exc).__name__}: {message}")
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
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
            try:
                document = resolved.read_bytes()
            except OSError as exc:
                return _fail(f"cannot read catalog {spec}: {exc.strerror}")
            catalog = merge_catalogs(catalog, document)
    except CatalogError as exc:
        return _fail(str(exc))

    if args.explain:
        try:
            record = catalog.explain(args.explain)
        except CatalogError as exc:
            return _fail(str(exc))
        import json as _json

        return _to_stdout([_json.dumps(record, indent=2, ensure_ascii=False), "\n"],
                          "explanation")

    try:
        selected = catalog.select(vocabularies=vocabularies)
    except CatalogError as exc:
        return _fail(str(exc))
    if args.only:
        wanted = set(args.only)
        unmatched = wanted - {c.id for c in selected} - {c.type for c in selected}
        if unmatched:
            # a typo would otherwise run nothing and pass
            return _fail("--only matches no constraint id or type of the selected "
                         f"vocabularies: {', '.join(sorted(unmatched))}")
        selected = [c for c in selected if c.id in wanted or c.type in wanted]
    if args.skip:
        unwanted = set(args.skip)
        selected = [c for c in selected if c.id not in unwanted and c.type not in unwanted]

    try:
        graph = _load_inputs(args.inputs, args.format)
    except (OSError, ParseError) as exc:
        return _fail(str(exc))

    try:
        report = validate(graph, catalog, selected)
    except EngineError as exc:
        return _fail(str(exc))

    threshold = Severity.parse(args.severity_threshold) if args.severity_threshold else None
    chunks = report_chunks(report, args.report, threshold)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                out.writelines(chunks)
        except OSError as exc:
            return _fail(f"cannot write report to {args.output}: {exc.strerror}")
    elif _to_stdout(chunks, "report"):
        return 2

    fail_on = Severity.parse(args.fail_on)
    return 1 if report.at_or_above(fail_on) else 0


def _to_stdout(chunks: Iterable[str], what: str) -> int:
    """Write ``chunks`` to stdout and flush it: 0, or 2 with one line naming
    ``what`` when stdout fails (a full disk, a closed pipe or descriptor)."""
    try:
        if sys.stdout is None:  # started with its descriptor closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except OSError as exc:
        _to_devnull(sys.stdout)
        return _fail(f"cannot write {what} to stdout: {exc.strerror}")
    return 0


def main() -> None:
    code = run_cli()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
