"""Run the rdfcheck CLI with a span around each public entry point.

    python3 perfbench/traced_cli.py SPANS.json -- [rdfcheck arguments]

The wrappers are installed from outside the package, on the names the
callers look up at call time; nothing under ``src/`` knows about them. Hot
helpers such as ``Graph.match`` are left alone so that tracing stays cheap.
The spans are kept in memory and written to SPANS.json when the CLI
returns; the exit code is the CLI's own.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

from spans import CHECK_MODULES, SpanRecorder


def _graph_size(args, result):
    return {"triples": len(args[0])}


def _parsed_size(args, graph):
    return {"triples": len(graph)}


def _cube_size(args, cube):
    return {"observations": len(cube.observations), "dsds": len(cube.dsds)}


def _statistics_size(args, stats):
    return {"variables": len(stats.variables)}


def _hierarchy_size(args, hierarchy):
    return {"hierarchy_edges": len(hierarchy.edges)}


def _report_counts(args, report):
    catalog, selected = args[1], args[2] if len(args) > 2 else None
    constraints = catalog.select() if selected is None else selected
    type_of = {c.id: c.type for c in constraints}
    by_type: dict[str, float] = defaultdict(float)
    for status in report.statuses:
        by_type[type_of[status.constraint_id]] += status.wall_seconds
    return {
        "eval_s": sum(by_type.values()),
        "eval_s_by_type": dict(by_type),
        "evaluated": sum(1 for s in report.statuses if s.status == "evaluated"),
        "skipped": len(report.skipped()),
        "violations": len(report.violations),
    }


def _rendered_size(args, text):
    return {"bytes": len(text.encode("utf-8"))}


def install(recorder: SpanRecorder):
    """Wrap the entry points and return the wrapped ``run_cli``."""
    import rdfcheck.catalog as catalog
    import rdfcheck.cli as cli
    import rdfcheck.engine as engine
    from rdfcheck.checks import cube, lexical, misc, schema, skos, statistics
    from rdfcheck.graph import Graph

    wrap = recorder.wrap
    Graph.__init__ = wrap("graph.Graph.__init__", Graph.__init__, _graph_size)
    Graph.iris = wrap("graph.Graph.iris", Graph.iris)
    cli.parse_ntriples = wrap("ntriples.parse_ntriples", cli.parse_ntriples, _parsed_size)
    cli.parse_turtle = wrap("turtle.parse_turtle", cli.parse_turtle, _parsed_size)
    cli.builtin_catalog = wrap("catalog.builtin_catalog", cli.builtin_catalog)
    merge = wrap("catalog.merge_catalogs", catalog.merge_catalogs)
    catalog.merge_catalogs = cli.merge_catalogs = merge
    cli.validate = wrap("engine.validate", cli.validate, _report_counts)
    cli.write_report = wrap("report.write_report", cli.write_report, _rendered_size)
    engine.extract_cube = wrap("checks.models.extract_cube", engine.extract_cube, _cube_size)
    engine.extract_statistics = wrap(
        "checks.models.extract_statistics", engine.extract_statistics, _statistics_size
    )
    engine.extract_hierarchy = wrap(
        "checks.models.extract_hierarchy", engine.extract_hierarchy, _hierarchy_size
    )
    modules = dict(zip(CHECK_MODULES, (schema, lexical, statistics, cube, skos, misc)))
    for short, module in modules.items():
        for name, fn in list(vars(module).items()):
            public_check = name.startswith("check_") or name == "apply_default_values"
            if public_check and callable(fn) and fn.__module__ == module.__name__:
                setattr(module, name, wrap(f"checks.{short}.{name}", fn))
    return wrap("cli.run_cli", cli.run_cli)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    run_cli = install(recorder)
    code = run_cli(sys.argv[3:])
    recorder.dump(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
