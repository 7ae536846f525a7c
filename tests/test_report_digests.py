import hashlib
import subprocess
import sys
from pathlib import Path

from rdfcheck.cli import run_cli

from conftest import FIXTURES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
PINNED = Path(__file__).resolve().parent / "report_digests.txt"


def test_report_digests_of_the_merged_fixtures(tmp_path, capsys):
    proc = subprocess.run([sys.executable, str(TOOL), "--fixtures-only"],
                          capture_output=True, text=True, check=True)
    expected = []
    fixtures = [str(path) for path in sorted(FIXTURES.glob("*.ttl"))]
    for report in ("json", "text"):
        out = tmp_path / f"merged.{report}"
        exit_code = run_cli([*fixtures, "--report", report, "--output", str(out)])
        sha = hashlib.sha256(out.read_bytes()).hexdigest()
        expected.append(f"fixtures-merged {report} {exit_code} {sha}")
    capsys.readouterr()
    assert proc.stdout.splitlines() == expected


def test_pinned_digests_name_every_row_and_hold_for_the_merged_fixtures():
    # CI diffs the tool's whole output with the pinned file; the fixture
    # rows are cheap enough to check here too
    pinned = PINNED.read_text().splitlines()
    assert [line.split()[:2] for line in pinned] == [
        [f"{workload}-{seed}", report]
        for workload, report in (("survey-nt", "json"), ("thesaurus-ttl", "text"),
                                 ("deposit-full", "json"))
        for seed in (3, 7, 11, 4242)
    ] + [["fixtures-merged", "json"], ["fixtures-merged", "text"]]
    proc = subprocess.run([sys.executable, str(TOOL), "--fixtures-only"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == pinned[-2:]
