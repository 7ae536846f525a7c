"""Orchestration: run each catalog constraint through its checker, merge findings.

The catalog registry names every constraint type's checker and the shared
objects it takes, or a table keyed by one parameter that names each
checker and its needs (``ConstraintType.checker``). ``_bind`` binds each
evaluable constraint once, when the run starts: it looks the checker up on
its module and maps the constraint's parameters onto its arguments, so no
per-type code lives here, and a wrapper put on a checker module applies
only if it is installed before ``validate``. Checkers never see a
constraint's id or severity: this module alone stamps each finding with
both, and each metric with the id. A violation keeps the checker's message
as it came; ``Violation.message`` puts the id in front of it, so the
report shows the id where it is read, not copied into each record.

Constraints run in id order. Checkers may return their findings in any
order: ``_dedup`` orders each constraint's violations by severity (desc),
focus, detail, message and check path, and keeps one per (focus, detail).
``_merge`` then joins the constraints' lists by severity, errors first, so
the report is sorted by severity, constraint id, focus, detail, message and
check path, and equal inputs give byte-identical reports.

A run keeps what several constraints share from its first use to its
last, under one use count (``RunContext.take``): the cube, statistics and
hierarchy models, each keyed by its need name, and the result of a
checker call that several constraints make, keyed by the call. So a model
is extracted when the first constraint whose checker needs it runs and
dropped at the last, and does not sit in memory under the constraints
that come after; a run whose checkers never read a model never extracts
it; and no result is kept past the last constraint that has its key. A
call's key is its checker's name and a canonical JSON text of the
arguments bound from its parameters (the shared run objects are the same
for every call of a run, so they are left out); a call that raises
``ResourceLimit`` is not kept, and a key that no other call of the run
has is dropped before the first constraint runs. Findings carry no
constraint id or severity, so each constraint stamps the shared result
with its own. A key can miss but never hit falsely: JSON tells ``1``,
``1.0`` and ``true`` apart, and arguments that JSON would blur, such as
tuples, sets or dicts with keys other than strings, or that it cannot
write at all, give no key, so that constraint's checker is simply called.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Any

from .catalog import CONSTRAINT_TYPES, Catalog, Constraint, Severity
from .checks import cube, lexical, misc, schema, skos, statistics
from .checks.context import GraphContext
from .checks.models import extract_cube, extract_hierarchy, extract_statistics
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

    def at_or_above(self, level: Severity | None) -> Sequence[Violation]:
        """The violations at ``level`` or above; all of them, not copied, for None."""
        if level is None:
            return self.violations
        return [v for v in self.violations if v.severity >= level]

    def skipped(self) -> list[ConstraintStatus]:
        return [s for s in self.statuses if s.status != "evaluated"]


_Result = tuple[list[Finding], list[tuple[str, str, int]]]


# Each model's extractor, looked up on this module when it is called, so a
# wrapper put on ``extract_*`` before ``validate`` applies
_EXTRACT: dict[str, Callable[[GraphContext], Any]] = {
    "cube": lambda ctx: extract_cube(ctx),
    "stats": lambda ctx: extract_statistics(ctx),
    "hierarchy": lambda ctx: extract_hierarchy(ctx),
}


class RunContext:
    """What a run shares: the graph context, and the models and shared
    results ``kept`` under their keys, with each key's ``uses`` still to
    come."""

    def __init__(self, graph: Graph, catalog: Catalog):
        self.ctx = GraphContext(graph, catalog)
        self.kept: dict[str, Any] = {}
        self.uses: Counter[str] = Counter()

    def take(self, key: str, make: Callable[[], Any]) -> Any:
        """The value kept under ``key``, or else ``make()``'s; kept while
        ``key`` has uses still to come, and dropped at its last."""
        self.uses[key] -= 1
        value = self.kept.pop(key) if key in self.kept else make()
        if self.uses[key]:
            self.kept[key] = value
        return value


_Call = tuple[Callable[..., Any], tuple[str, ...], list[Any], dict[str, Any], str | None]


def _bind(c: Constraint) -> _Call:
    """The call that evaluates ``c``: its checker, looked up on its module
    (for a type with a ``by`` parameter, the one its table gives that
    parameter's value); the checker's needs; the other required parameters
    in schema order and the optional ones ``c`` sets, an optional ``scope``
    falling back to ``c``'s own; and the call's key, or None if it has none."""
    ctype = CONSTRAINT_TYPES[c.type]
    check, needs = ctype.checker(c.params)
    args: list[Any] = []
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
    key = None
    with suppress(ValueError, RecursionError):  # NaN, an int too long to write, deep nesting
        if _is_plain([args, kwargs]):
            key = check + " " + json.dumps([args, kwargs], sort_keys=True, allow_nan=False)
    module, function = check.split(".")
    return getattr(_CHECK_MODULES[module], function), needs, args, kwargs, key


def _is_plain(value: Any) -> bool:
    """Whether JSON writes ``value`` so that no other value reads the same."""
    if value is None or type(value) in (str, int, float, bool):
        return True
    if type(value) is list:
        return all(map(_is_plain, value))
    if type(value) is dict:
        return all(type(k) is str and _is_plain(v) for k, v in value.items())
    return False


def _evaluate(rc: RunContext, call: _Call) -> _Result:
    """The findings and counts of the bound ``call``'s checker, called with
    its needs and then its arguments, or the result kept under its key.
    The models are taken first, so a call answered from its key still
    counts as a use of each."""
    check, needs, args, kwargs, key = call
    shared = [rc.ctx if need == "ctx" else rc.take(need, partial(_EXTRACT[need], rc.ctx))
              for need in needs]

    def run() -> _Result:
        result = check(*shared, *args, **kwargs)
        return result if isinstance(result, tuple) else (result, [])

    return run() if key is None else rc.take(key, run)


def _run_one(
    rc: RunContext, c: Constraint, call: _Call | None
) -> tuple[ConstraintStatus, list[Violation], list[MetricRecord]]:
    started = time.perf_counter()
    violations: list[Violation] = []
    metrics: list[MetricRecord] = []
    if call is None:
        missing = ", ".join(c.missing_eval_params) or "no evaluation body"
        status = f"skipped: not evaluable ({missing})"
    else:
        try:
            findings, counts = _evaluate(rc, call)
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
                    f.message,
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
    calls = [_bind(c) if c.evaluable else None for c in selected]
    # each call uses its models and its key
    rc.uses.update(
        key for call in calls if call for key in (*call[1], call[4]) if key not in ("ctx", None)
    )
    # a key that one call alone has is never looked up again
    for n, call in enumerate(calls):
        if call and call[4] is not None and rc.uses[call[4]] == 1:
            del rc.uses[call[4]]
            calls[n] = (*call[:4], None)
    runs: list[list[Violation]] = []
    all_metrics: list[MetricRecord] = []
    statuses: list[ConstraintStatus] = []
    for constraint, call in zip(selected, calls):
        status, violations, metrics = _run_one(rc, constraint, call)
        if statuses and statuses[-1].constraint_id == constraint.id:
            # a constraint named twice counts its violations once
            runs[-1] = _dedup(runs[-1] + violations)
        else:
            runs.append(violations)
        statuses.append(status)
        all_metrics.extend(metrics)
    return ValidationReport(
        violations=_merge(runs),
        metrics=tuple(sorted(all_metrics, key=MetricRecord.sort_key)),
        statuses=tuple(statuses),
    )


def _dedup(violations: Iterable[Violation]) -> list[Violation]:
    """One constraint's violations sorted by (sort key, text, check path),
    one per (focus, detail); the key is total, so the checker's order never
    picks the one that survives."""
    ordered = sorted(violations, key=lambda v: (v.sort_key(), v.text, v.check_path))
    seen: set[tuple[str, str]] = set()
    out = []
    for violation in ordered:
        key = (violation.focus, violation.detail)
        if key in seen:
            continue
        seen.add(key)
        out.append(violation)
    return out


def _merge(runs: list[list[Violation]]) -> tuple[Violation, ...]:
    """The lists ``_dedup`` gave each constraint, one per id and in id order,
    joined into the report's order: each list sorts by severity first, so
    taking the errors of every list, then the warnings, then the infos
    sorts the whole by severity, constraint id and the rest of the key."""
    buckets: dict[Severity, list[Violation]] = {
        severity: [] for severity in sorted(Severity, reverse=True)
    }
    for run in runs:
        for violation in run:
            buckets[violation.severity].append(violation)
    return tuple(chain.from_iterable(buckets.values()))
