"""Shows that every correctness check can fail, and that a failure is reported.

    python3 perfbench/selftest.py

For each workload, runs one pass with ``--corrupt``, which feeds each of
the workload's checks one corrupted output (a perturbed score, a dropped
trial, a non-monotone ROC, a flipped byte in a resumed report, ...). Each
check must report its failure, the result line must say ``correct: false``
with one failure per check, and the exit code must be non-zero. Finally the
benchmark is run in a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must exit non-zero without printing a result.
Takes a little over a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def corrupted_run(name: str, checks: tuple[str, ...]) -> list[str]:
    proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0", "--corrupt")
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] != len(checks):
        problems.append(f"result {result['correct']=} {result['failed']=}, expected {len(checks)} failures")
    for check in checks:
        if f"FAILED {check}:" not in proc.stderr:
            problems.append(f"check {check} did not fail")
    return problems


def bare_run() -> list[str]:
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "protocol-full", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the program")
    if '"metrics"' in proc.stdout:
        problems.append("printed a result without the program")
    return problems


def main() -> int:
    failed = False
    for name, workload in WORKLOADS.items():
        problems = corrupted_run(name, workload.checks)
        failed |= bool(problems)
        print(f"{name}: {len(workload.checks)} corrupted checks: {'; '.join(problems) or 'all failed as expected'}")
    problems = bare_run()
    failed |= bool(problems)
    print(f"bare checkout: {'; '.join(problems) or 'refused as expected'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
