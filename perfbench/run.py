"""Benchmark of the rdfcheck CLI on a seeded corpus.

    python3 perfbench/run.py --workload deposit-full --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

One client in a closed loop: each iteration spawns one
``python -m rdfcheck.cli`` child on the generated inputs and waits for it
before starting the next, so the load stays at one core. A child's peak RSS
comes from ``os.wait4`` on that child alone. Every run is checked against
the generator's manifest (see ``verdict.py``) and every report of a workload
must be byte-identical. Times are reported in seconds at a reference host
speed: ``calibrate.py`` reads the host's speed right before each iteration,
and the iteration's times are scaled by ``REF_NOMINAL_S`` over that reading
(see README.md, "Run-to-run noise"). ``--trace 1`` alternates untraced runs
with runs under ``traced_cli.py`` and reports per-layer metrics instead of
end-to-end ones. Run it from anywhere inside a checkout of the repository;
it reads ``src/`` and writes only below ``perfbench/.work/``, which it
removes again.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import spans
import verdict

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

# A run must end within 180 s; stop starting children well before that.
HARD_LIMIT_S = 165.0
SETUP_LEAD = 2  # set-up probes before the first iteration, besides one per iteration
# Typical time of one calibrate.py reading on the machine README.md
# describes. A time t measured right after a reading r is reported as
# t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 0.72

END_TO_END_UNITS = {
    "wall_s": "s",
    "triples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "verdict_ok": "ratio",
}


def layer_unit(name: str) -> str:
    if name == "report.bytes":
        return "B"
    if name in spans.COUNT_METRICS:
        return "count"
    if name.endswith("triples_per_s"):
        return "1/s"
    if name.startswith("rss_mb."):
        return "MB"
    return "s"


class Child:
    """Outcome of one child process."""

    def __init__(self, exit_code: int | None, wall_s: float, rss_kb: int, stderr: str):
        self.exit_code = exit_code  # None when it was killed for running too long
        self.wall_s = wall_s
        self.rss_kb = rss_kb
        self.stderr = stderr


def spawn(argv: list[str], env: dict, cwd: Path, timeout: float) -> Child:
    """Run ``argv`` to completion, timing it from spawn to exit."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([fd], [], [], timeout)[0]
            finally:
                os.close(fd)
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return Child(None if timed_out else proc.returncode, wall, usage.ru_maxrss, stderr)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RDFCHECK_CATALOG_PATH"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the corpus, measure it and return the result object."""
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # A separate process generates the corpus, so that this one stays
        # small: a child's ru_maxrss also counts the pages it shared with
        # this process before exec.
        subprocess.run([sys.executable, str(HERE / "corpus.py"), "--workload", workload,
                        "--seed", str(seed), "--out", str(work)],
                       check=True, stdout=subprocess.DEVNULL)
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        return measure(manifest, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(manifest: dict, work: Path, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    deadline = began + seconds
    env = child_env()
    inputs = [str(work / i["path"]) for i in manifest["inputs"]]
    vocab = ["--vocab", manifest["vocab"]] if manifest["vocab"] else []
    cli = [sys.executable, "-m", "rdfcheck.cli"]
    failures: list[str] = []

    def remaining() -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - began))

    # Set-up: interpreter start, imports and catalog load, in a process that
    # exits before reading any input. The first probe also fills the
    # bytecode cache and is not counted; the others are spread over the run,
    # one before each iteration, so that their median covers the whole run.
    setup: list[float] = []

    def probe() -> bool:
        child = spawn(cli + [inputs[0], *vocab, "--explain", manifest["explain"]],
                      env, work, remaining())
        if child.exit_code != 0:
            failures.append(f"--explain exited {child.exit_code}: {child.stderr.strip()}")
            return False
        setup.append(child.wall_s)
        return True

    # The host's speed, read by a fixed workload of the benchmark's own
    # after each set-up probe, so right before each untraced iteration.
    ref: list[float] = []

    def calibrate() -> bool:
        try:
            done = subprocess.run([sys.executable, str(HERE / "calibrate.py")], cwd=work,
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  timeout=remaining(), check=True)
            ref.append(float(done.stdout))
        except (subprocess.SubprocessError, ValueError) as exc:
            failures.append(f"calibrate.py failed: {exc}")
            return False
        return True

    probe()
    setup.clear()
    for _ in range(0 if trace else SETUP_LEAD):
        probe() and calibrate()

    fmt = manifest["report"]
    runs: list[dict] = []
    digest = None
    slowest = 0.0
    while not failures:
        traced = trace and len(runs) % 2 == 1
        started = time.perf_counter()
        if not trace and not (probe() and calibrate()):
            break
        report_path = work / f"report.{fmt}"
        report_path.unlink(missing_ok=True)
        args = [*inputs, *vocab, "--report", fmt, "--output", str(report_path)]
        spans_path = work / "spans.json"
        spans_path.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *args]
        else:
            argv = cli + args
        child = spawn(argv, env, work, remaining())
        report = report_path.read_text(encoding="utf-8") if report_path.exists() else None
        found = verdict.problems(manifest, child.exit_code, report)
        if report is not None:
            this = hashlib.sha256(report.encode("utf-8")).hexdigest()
            digest = digest or this
            if this != digest:
                found.append("report differs from the workload's first report")
        run = {"traced": traced, "wall_s": child.wall_s, "rss_kb": child.rss_kb,
               "ref_s": None if trace else ref[-1], "problems": found}
        if traced and not found and not spans_path.exists():
            found.append("traced run wrote no spans")
        if traced and not found:
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            run["layers"] = spans.layer_metrics(recorded)
            run["spans_s"] = spans.root_seconds(recorded)
        if found:
            tail = child.stderr.strip().splitlines()[-3:]
            print(f"run {len(runs)} failed: {'; '.join(found)} {tail}", file=sys.stderr)
        runs.append(run)
        slowest = max(slowest, time.perf_counter() - started)
        now = time.perf_counter()
        if now - began + slowest > HARD_LIMIT_S:
            break
        need_traced = trace and not any(r["traced"] for r in runs)
        if now + slowest > deadline and not need_traced:
            break

    failed = sum(1 for r in runs if r["problems"]) + (1 if failures else 0)
    attempted = len(runs) + (1 if failures else 0)
    plain = [r for r in runs if not r["traced"] and not r["problems"]]
    if trace:
        metrics, mismatch = traced_metrics(runs, plain)
        failures += mismatch
    else:
        metrics = end_to_end_metrics(manifest, plain, setup, ref, attempted, failed)
    for problem in failures:
        print(problem, file=sys.stderr)
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(manifest, plain, setup, ref, attempted, failed) -> dict:
    """Medians over the iterations; times are scaled to the reference speed.

    The host's speed drifts over seconds to minutes, and a slow phase slows
    calibrate.py about as much as the CLI. Scaling each time by the reading
    taken right before it cancels most of that drift. Peak RSS does not
    drift and is not scaled.
    """
    wall = [r["wall_s"] * REF_NOMINAL_S / r["ref_s"] for r in plain]
    print(f"unscaled: wall_s {_median([r['wall_s'] for r in plain]):.4f}, setup_s "
          f"{_median(setup):.4f}; calibrate.py readings {_median(ref):.4f} s (median of "
          f"{len(ref)})", file=sys.stderr)
    values = {
        "wall_s": _median(wall),
        "triples_per_s": _median([manifest["triples"] / w for w in wall]),
        "peak_rss_mb": _median([r["rss_kb"] / 1024 for r in plain]),
        "setup_s": _median([s * REF_NOMINAL_S / r for s, r in zip(setup, ref)]),
        "verdict_ok": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_metrics(runs, plain) -> tuple[dict, list[str]]:
    """Medians of each layer metric over the traced runs; counts must be
    the same in every traced run."""
    traced = [r for r in runs if "layers" in r]
    mismatch = []
    values: dict[str, float] = {}
    names = traced[0]["layers"] if traced else {}
    for name in names:
        series = [r["layers"][name] for r in traced]
        if name in spans.COUNT_METRICS:
            if len(set(series)) > 1:
                mismatch.append(f"{name} differs between traced runs: {series}")
            values[name] = series[0]
        else:
            values[name] = _median(series)
    traced_wall = _median([r["wall_s"] for r in traced])
    values["trace.wall_s"] = traced_wall
    values["trace.spans_s"] = _median([r["spans_s"] for r in traced])
    values["trace.unattributed_s"] = _median([r["wall_s"] - r["spans_s"] for r in traced])
    values["trace.overhead_s"] = traced_wall - _median([r["wall_s"] for r in plain])
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return metrics, mismatch


def describe(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through spawn() so that the running child is
    # killed and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rdfcheck" / "cli.py").is_file():
        print(f"error: {SRC / 'rdfcheck' / 'cli.py'} not found; run inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workloads = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        describe(workload, results[workload])
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
