"""Orchestration: run each catalog constraint through its checker, merge findings.

The catalog registry names every constraint type's checker, or a table of
checkers keyed by one parameter, and the shared objects it takes
(``ConstraintType.check``, ``by`` and ``needs``); one generic call maps a
constraint's parameters onto the checker's arguments, so no per-type code
lives here. Checkers never see a constraint's id or severity:
this module alone stamps each finding with both, leading its message with
the id, and each metric with the id. Constraints run in id order. Checkers may return
their findings in any order: ``_dedup`` alone orders them, by severity
(desc), constraint id, focus, detail, message and check path, so equal
inputs give byte-identical reports. The cube, statistics and hierarchy models are
extracted when the first constraint needing them runs, and shared by the
rest of the run.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .catalog import CONSTRAINT_TYPES, Catalog, Constraint, Severity
from .checks import cube, lexical, misc, schema, skos, statistics
from .checks.context import GraphContext
from .checks.models import (
    CubeModel,
    HierarchyGraph,
    StatisticsModel,
    extract_cube,
    extract_hierarchy,
    extract_statistics,
)
from .graph import Graph
from .violations import Finding, MetricRecord, ResourceLimit, Violation

_CHECK_MODULES = {
    module.__name__.rsplit(".", 1)[-1]: module
    for module in (cube, lexical, misc, schema, skos, statistics)
}


class EngineError(Exception):
    """A checker failed internally; the message names the constraint."""


@dataclass(frozen=True)
class ConstraintStatus:
    constraint_id: str
    status: str  # evaluated | skipped: not evaluable | skipped: limit
    violations: int
    wall_seconds: float


def severity_counts(violations) -> dict[str, int]:
    out = {"info": 0, "warning": 0, "error": 0}
    for violation in violations:
        out[str(violation.severity)] += 1
    return out


@dataclass
class ValidationReport:
    violations: tuple[Violation, ...]
    metrics: tuple[MetricRecord, ...]
    statuses: tuple[ConstraintStatus, ...]

    @property
    def counts(self) -> dict[str, int]:
        return severity_counts(self.violations)

    def at_or_above(self, level: Severity | None) -> list[Violation]:
        """The violations at ``level`` or above; all of them for None."""
        return [v for v in self.violations if level is None or v.severity >= level]

    def skipped(self) -> list[ConstraintStatus]:
        return [s for s in self.statuses if s.status != "evaluated"]


class RunContext:
    """The objects a checker may need: the graph context and the models,
    each model extracted on first use."""

    def __init__(self, graph: Graph, catalog: Catalog):
        self.ctx = GraphContext(graph, catalog)

    @cached_property
    def cube(self) -> CubeModel:
        return extract_cube(self.ctx)

    @cached_property
    def stats(self) -> StatisticsModel:
        return extract_statistics(self.ctx)

    @cached_property
    def hierarchy(self) -> HierarchyGraph:
        return extract_hierarchy(self.ctx)


def _evaluate(
    rc: RunContext, c: Constraint
) -> tuple[list[Finding], list[tuple[str, str, int]]]:
    """Call the type's checker, or for a type with a ``by`` parameter the
    checker its table gives that parameter's value, with its ``needs``, the
    other required parameters in schema order and the optional ones the
    constraint sets; an optional ``scope`` falls back to the constraint's
    own scope."""
    ctype = CONSTRAINT_TYPES[c.type]
    args = [getattr(rc, need) for need in ctype.needs]
    kwargs: dict[str, Any] = {}
    for name, (_kind, req) in ctype.schema.items():
        if name == ctype.by:
            continue
        if req != "opt":
            args.append(c.params[name])
        elif name in c.params:
            kwargs[name] = c.params[name]
        elif name == "scope":
            kwargs[name] = c.scope
    check = ctype.check if ctype.by is None else ctype.check[c.params[ctype.by]]
    module, function = check.split(".")
    # looked up at call time, so a wrapper installed on the module applies
    result = getattr(_CHECK_MODULES[module], function)(*args, **kwargs)
    return result if isinstance(result, tuple) else (result, [])


def _run_one(
    rc: RunContext, c: Constraint
) -> tuple[ConstraintStatus, list[Violation], list[MetricRecord]]:
    started = time.perf_counter()
    violations: list[Violation] = []
    metrics: list[MetricRecord] = []
    if not c.evaluable:
        missing = ", ".join(c.missing_eval_params) or "no evaluation body"
        status = f"skipped: not evaluable ({missing})"
    else:
        try:
            findings, counts = _evaluate(rc, c)
        except ResourceLimit as exc:
            status = f"skipped: limit ({exc})"
        except Exception as exc:
            raise EngineError(f"{c.id}: checker failed: {exc}") from exc
        else:
            violations = _dedup(
                Violation(
                    c.id,
                    c.severity if f.severity is None else f.severity,
                    f.focus,
                    f.detail,
                    f"{c.id}: {f.message}",
                    f.check_path,
                )
                for f in findings
            )
            metrics = [MetricRecord(c.id, *count) for count in counts]
            status = "evaluated"
    elapsed = time.perf_counter() - started
    return ConstraintStatus(c.id, status, len(violations), elapsed), violations, metrics


def validate(
    graph: Graph,
    catalog: Catalog,
    constraints: list[Constraint] | None = None,
) -> ValidationReport:
    """Run the selected constraints (default: the whole catalog) over the
    graph. Reproducible: equal inputs give equal reports."""
    selected = sorted(
        catalog.select() if constraints is None else constraints, key=lambda c: c.id
    )
    rc = RunContext(graph, catalog)
    all_violations: list[Violation] = []
    all_metrics: list[MetricRecord] = []
    statuses: list[ConstraintStatus] = []
    for constraint in selected:
        status, violations, metrics = _run_one(rc, constraint)
        statuses.append(status)
        all_violations.extend(violations)
        all_metrics.extend(metrics)
    return ValidationReport(
        violations=tuple(_dedup(all_violations)),
        metrics=tuple(sorted(all_metrics, key=MetricRecord.sort_key)),
        statuses=tuple(statuses),
    )


def _dedup(violations: Iterable[Violation]) -> list[Violation]:
    """Sorted by (sort key, message, check path), one per (constraint, focus,
    detail); the key is total, so the checker's order never picks the one
    that survives."""
    ordered = sorted(violations, key=lambda v: (v.sort_key(), v.message, v.check_path))
    seen: set[tuple[str, str, str]] = set()
    out = []
    for violation in ordered:
        key = (violation.constraint_id, violation.focus, violation.detail)
        if key in seen:
            continue
        seen.add(key)
        out.append(violation)
    return out
