"""Print the SHA-256 of each report rdfcheck writes on a fixed set of inputs.

    python3 tools/report_digests.py                  # every row
    python3 tools/report_digests.py --fixtures-only  # the merged fixtures only
    python3 tools/report_digests.py --src OTHER/src  # another checkout's code

One line per report: ``name format exit sha256``. The inputs are the
benchmark corpora of ``perfbench/corpus.py`` at seeds 3, 7, 11 and 4242 for
each workload, in the workload's report format, and the four
``tests/fixtures/*.ttl`` files merged, in json and in text. Each report
comes from one ``python -m rdfcheck.cli INPUTS [--vocab V] --report FORMAT``
child. A change that must keep reports byte-identical runs this before and
after it and diffs the two outputs. Files are written only under a
temporary directory, which is removed again.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402  (the benchmark's generator, imported as it is)

SEEDS = (3, 7, 11, 4242)


def digest(src: Path, inputs: list[Path], vocab: str | None, report: str,
           out: Path) -> tuple[int, str]:
    """Exit code and report SHA-256 of one CLI run."""
    command = [sys.executable, "-m", "rdfcheck.cli", *map(str, inputs)]
    if vocab:
        command += ["--vocab", vocab]
    command += ["--report", report, "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    exit_code = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL).returncode
    data = out.read_bytes() if out.exists() else b""
    return exit_code, hashlib.sha256(data).hexdigest()


def rows(work: Path, fixtures_only: bool):
    """(name, inputs, vocab, report format) of each report."""
    if not fixtures_only:
        for workload, spec in corpus.WORKLOADS.items():
            for seed in SEEDS:
                folder = work / f"{workload}-{seed}"
                manifest = corpus.generate(workload, seed, folder)
                inputs = [folder / entry["path"] for entry in manifest["inputs"]]
                yield f"{workload}-{seed}", inputs, spec["vocab"], spec["report"]
    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.ttl"))
    for report in ("json", "text"):
        yield "fixtures-merged", fixtures, None, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory whose rdfcheck is run")
    parser.add_argument("--fixtures-only", action="store_true",
                        help="only the merged fixtures, in json and in text")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, inputs, vocab, report in rows(work, args.fixtures_only):
            out = work / f"{name}.{report}"
            exit_code, sha = digest(args.src.resolve(), inputs, vocab, report, out)
            print(f"{name} {report} {exit_code} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
