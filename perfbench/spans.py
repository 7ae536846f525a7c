"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is one call of a wrapped entry point: its name, start and end on
``time.perf_counter``, the index of the span that was open when it began
(its parent), the process's peak RSS at its end and any counts a hook took
from the call's result. A span's self time is its duration minus the
durations of its children; calls in one thread nest without overlap, so
the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections.abc import Callable
from pathlib import Path

# Every ``rdfcheck`` constraint type the engine dispatches; each gets an
# ``engine.eval_s.<type>`` metric, 0 where a workload selects none.
CONSTRAINT_TYPES = (
    "aggregation", "allowed-values", "asymmetric-property", "cardinality",
    "cardinality-table", "class-equivalence", "conditional-properties",
    "cumulative-chain", "data-property-facets", "default-values",
    "deprecated-terms", "disjoint-classes", "disjoint-properties",
    "domain-table", "equivalent-properties", "exclusive-property-groups",
    "frequency-totals", "html-balance", "http-scheme", "inverse-pair",
    "iri-pattern", "irreflexive-property", "irreflexive-table",
    "language-coverage", "language-tag", "literal-comparison",
    "literal-pattern", "literal-range", "min-max-consistency", "ordering",
    "percentage-sum", "presence", "property-domain", "property-range",
    "qb-integrity", "range-table", "single-root", "skos-clashes",
    "skos-labeling", "skos-structure", "statistic-applicability",
    "string-composition", "subproperty", "subsumption", "subsuper-redundancy",
    "undefined-terms", "uniqueness-key", "value-datatype",
    "variable-comparability", "vocab-membership", "whitespace",
)

CHECK_MODULES = ("schema", "lexical", "statistics", "cube", "skos", "misc")

COUNT_METRICS = (
    "graph.builds", "graph.triples", "graph.iris_calls",
    "checks.models.observations", "checks.models.dsds",
    "checks.models.variables", "checks.models.hierarchy_edges",
    "engine.constraints_evaluated", "engine.constraints_skipped",
    "engine.violations", "report.bytes",
)


class SpanRecorder:
    """Records one span per call of each function it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        """``fn`` recording a span named ``name``; ``counts(args, result)``
        returns a dict of counts to attach, and runs after the span ends so
        its cost stays out of every span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced ``rdfcheck`` run.

    Times are self times unless named otherwise, so ``graph.build_s`` holds
    the index build inside a parser's span and ``ntriples.parse_s`` only
    the tokenizing around it.
    """
    own = self_times(spans)

    def named(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def self_sum(*names: str) -> float:
        return sum((own[i] for i in named(*names)), 0.0)

    def count(key: str, *names: str) -> int:
        return sum(spans[i].get(key, 0) for i in named(*names))

    m: dict[str, float] = {}
    m["catalog.load_s"] = self_sum("catalog.builtin_catalog", "catalog.merge_catalogs")
    for fmt in ("ntriples", "turtle"):
        parse_s = self_sum(f"{fmt}.parse_{fmt}")
        triples = count("triples", f"{fmt}.parse_{fmt}")
        m[f"{fmt}.parse_s"] = parse_s
        m[f"{fmt}.triples_per_s"] = triples / parse_s if parse_s > 0 else 0.0
    m["graph.build_s"] = self_sum("graph.Graph.__init__")
    m["graph.builds"] = len(named("graph.Graph.__init__"))
    m["graph.triples"] = count("triples", "graph.Graph.__init__")
    m["graph.iris_s"] = self_sum("graph.Graph.iris")
    m["graph.iris_calls"] = len(named("graph.Graph.iris"))
    m["cli.self_s"] = self_sum("cli.run_cli")

    (validate,) = named("engine.validate")
    start = spans[validate]["start"]
    loaded = [s["rss_kb"] for s in spans if s["end"] <= start]
    m["rss_mb.after_load"] = max(loaded, default=0) / 1024
    m["rss_mb.after_validate"] = spans[validate]["rss_kb"] / 1024

    models_s = 0.0
    for model in ("cube", "statistics", "hierarchy"):
        m[f"checks.models.{model}_s"] = self_sum(f"checks.models.extract_{model}")
        models_s += sum(
            spans[i]["end"] - spans[i]["start"] for i in named(f"checks.models.extract_{model}")
        )
    for size in ("observations", "dsds", "variables", "hierarchy_edges"):
        m[f"checks.models.{size}"] = sum(s.get(size, 0) for s in spans)

    v = spans[validate]
    m["engine.validate_s"] = v["end"] - v["start"]
    m["engine.eval_s"] = v["eval_s"]
    m["engine.overhead_s"] = m["engine.validate_s"] - v["eval_s"] - models_s
    m["engine.constraints_evaluated"] = v["evaluated"]
    m["engine.constraints_skipped"] = v["skipped"]
    m["engine.violations"] = v["violations"]
    for ctype in CONSTRAINT_TYPES:
        m[f"engine.eval_s.{ctype}"] = v["eval_s_by_type"].get(ctype, 0.0)
    for module in CHECK_MODULES:
        m[f"checks.{module}.eval_s"] = sum(
            (own[i] for i, s in enumerate(spans) if s["name"].startswith(f"checks.{module}.")),
            0.0,
        )
    m["report.render_s"] = self_sum("report.write_report")
    m["report.bytes"] = count("bytes", "report.write_report")
    return m


def root_seconds(spans: list[dict]) -> float:
    """Summed duration of the spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
