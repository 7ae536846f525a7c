import hashlib
import subprocess
import sys
from pathlib import Path

from rdfcheck.cli import run_cli

from conftest import FIXTURES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


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
