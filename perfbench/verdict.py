"""Checks one rdfcheck run against the generator's manifest.

A run passes when its exit code is the manifest's ``expected_exit`` and,
for every constraint id a planted defect names, the report holds exactly
the planted ``(id, focus)`` pairs: none missing and none extra.
"""

from __future__ import annotations

import json

_SEVERITIES = ("ERROR", "WARNING", "INFO")


def findings(report: str, fmt: str) -> set[tuple[str, str]]:
    """``(constraint id, focus)`` of every violation in a rendered report."""
    if fmt == "json":
        return {(v["id"], v["focus"]) for v in json.loads(report)["violations"]}
    out = set()
    for line in report.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[0] in _SEVERITIES:
            out.add((parts[1], parts[2]))
    return out


def problems(manifest: dict, exit_code: int | None, report: str | None) -> list[str]:
    """Why a run does not match the manifest; empty when it does."""
    if exit_code is None:
        return ["timed out"]
    out = []
    if exit_code != manifest["expected_exit"]:
        out.append(f"exit code {exit_code}, expected {manifest['expected_exit']}")
    if report is None:
        return out + ["no report written"]
    try:
        found = findings(report, manifest["report"])
    except (ValueError, KeyError, TypeError) as exc:
        return out + [f"unreadable report: {exc!r}"]
    planted = {(d["id"], d["focus"]) for d in manifest["planted"]}
    ids = {cid for cid, _ in planted}
    reported = {f for f in found if f[0] in ids}
    out += [f"planted defect not reported: {cid} {focus}" for cid, focus in sorted(planted - reported)]
    out += [f"unexpected finding: {cid} {focus}" for cid, focus in sorted(reported - planted)]
    return out
