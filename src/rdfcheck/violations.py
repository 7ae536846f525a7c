"""What checkers report, and the records the engine makes of it.

A checker returns ``Finding``s: focus, detail, message and check path. It
never sees its constraint's id or severity; the engine stamps both on each
finding when it turns it into a ``Violation``. A violation keeps the
checker's message as it came (``text``), so a message the checker shares
between findings is stored once; ``Violation.message`` adds the id in
front when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .catalog import Severity
from .terms import Term


@dataclass(frozen=True, slots=True)
class MetricRecord:
    """An informational count emitted by aggregation constraints that ship
    without an expectation."""

    constraint_id: str
    focus: str
    name: str
    value: int

    def sort_key(self) -> tuple[str, str, str]:
        return (self.constraint_id, self.focus, self.name)


class ResourceLimit(Exception):
    """A checker hit its configured resource bound; the engine records the
    constraint as skipped instead of failing the run."""


class Finding(NamedTuple):
    """One finding of a checker. ``severity`` is set only by the notes that
    are INFO whatever their constraint's severity; None takes the
    constraint's."""

    focus: str
    detail: str
    message: str
    check_path: tuple[str, ...] = ()
    severity: Severity | None = None


def finding(
    focus: Term | str | None,
    detail: Term | str | int | None,
    message: str,
    check_path: tuple[str, ...] = (),
) -> Finding:
    """A finding with ``focus`` and ``detail`` serialized as text."""
    return Finding(
        "" if focus is None else str(focus),
        "" if detail is None else str(detail),
        message,
        check_path,
    )


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding, stamped with its constraint's id and severity.

    Two violations are equal iff (constraint_id, severity, focus, detail)
    are equal; the engine keeps one per (constraint_id, focus, detail).
    ``focus`` and ``detail`` are kept as serialized text so records stay
    hashable and sort bit-stably. ``text`` is the checker's message,
    without the id.
    """

    constraint_id: str
    severity: Severity
    focus: str
    detail: str
    text: str = field(compare=False)
    check_path: tuple[str, ...] = field(default=(), compare=False)

    @property
    def message(self) -> str:
        """The JSON report's message: the constraint id, then the text."""
        return f"{self.constraint_id}: {self.text}"

    def sort_key(self) -> tuple[int, str, str, str]:
        return (-int(self.severity), self.constraint_id, self.focus, self.detail)
