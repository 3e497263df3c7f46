"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are built from the
seed (``SETUP_REPS`` times, each after a full garbage collection;
``setup_s`` is the median), then its timed phase
runs in a closed loop, one pass after another, until ``--seconds`` have gone
by (at least one pass). After every pass the outputs are checked, outside the
timed phase. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
passes); the line before it holds the per-phase breakdown. With ``--trace 1``
an untraced warm-up pass is followed by untraced and traced passes in turn
(at least one of each), and the metrics are the per-layer ones from
``tracing.py``, medians over the traced passes; the spans are written to
``.perfbench/traces/``. A failed operation or check makes the
exit code 1; a checkout without the program makes it 2.

``--corrupt`` feeds each of the workload's checks one corrupted output;
``selftest.py`` uses it to show that every check can fail.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# One BLAS thread per process: the `avatarprint run --workers 2` pool is then
# the only source of threads. Must be set before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9


def _import_program() -> None:
    """Import avatarprint from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "avatarprint" / "__init__.py").is_file():
        print(f"error: no avatarprint package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import avatarprint

    if Path(avatarprint.__file__).resolve().parent != src / "avatarprint":
        print(f"error: imported avatarprint from {avatarprint.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="feed every check a corrupted output (self-test)")
    args = parser.parse_args(argv)

    _import_program()
    from checks import Tally
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tally = Tally(args.corrupt)
    tracer = Tracer(f"{args.workload}/{args.seed}") if args.trace else None
    # A fresh directory per run, so that no two runs share one, not even two
    # with the same process id in different process namespaces.
    (ROOT / ".perfbench" / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench" / "work"))
    # SIGTERM unwinds like an exception, so the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    passes: list[dict] = []
    extras: list[dict] = []
    setup_times: list[float] = []
    untraced_wall: list[float] = []
    try:
        for _ in range(SETUP_REPS):
            inputs = None  # release the previous inputs before building new ones
            setup_dir = work / "setup"
            shutil.rmtree(setup_dir, ignore_errors=True)
            setup_dir.mkdir(parents=True)
            gc.collect()
            start = time.perf_counter()
            if tracer:
                with tracer.installed("setup"):
                    inputs = workload.setup(args.seed, setup_dir)
            else:
                inputs = workload.setup(args.seed, setup_dir)
            setup_times.append(time.perf_counter() - start)

        def one_pass(index: int, traced: bool) -> tuple[dict, dict]:
            pass_dir = work / f"pass{index}"
            pass_dir.mkdir()
            gc.collect()  # garbage from set-up or the last pass is not this pass's cost
            with tracer.installed(f"pass{index}") if traced else contextlib.nullcontext():
                phases, outputs = workload.run(inputs, pass_dir, index, tracer if traced else NullTracer())
            extra = workload.check(inputs, outputs, tally, index)
            shutil.rmtree(pass_dir)
            return phases, extra

        started = time.perf_counter()
        index = 0
        # A traced run warms up with one untraced pass, then alternates untraced
        # and traced passes, so the overhead compares warm passes with each other.
        while index < (3 if tracer else 1) or time.perf_counter() - started < args.seconds:
            traced = tracer is not None and index > 0 and index % 2 == 0
            result = tally.op("pass", one_pass, index, traced)
            if result is not None:
                phases, extra = result
                if tracer and not traced:
                    if index > 0:  # pass 0 is the warm-up
                        untraced_wall.append(phases["wall_s"])
                else:
                    passes.append({**phases, "pass": index})
                    extras.append(extra)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    setup_s = _median(setup_times)
    wall_s = _median([p["wall_s"] for p in passes])
    if tracer:
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        per_pass = [tracer.layer_metrics(f"pass{p['pass']}", p["wall_s"]) for p in passes]
        metrics = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]} if per_pass else {}
        metrics.update(tracer.setup_metrics())
        metrics["trace.untraced_wall_s"] = _median(untraced_wall)
        metrics["trace.overhead_s"] = wall_s - metrics["trace.untraced_wall_s"]
    else:
        phases = {k: _median([p[k] for p in passes]) for k in passes[0] if k != "pass"} if passes else {}
        figures = {k: _median([e[k] for e in extras]) for k in extras[0]} if extras else {}
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(passes),
            "setup_s_each": setup_times, "phases_s": phases, **figures,
            "ops_failed_frac": tally.failed / max(tally.attempted, 1),
        }))
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = _declared_units("per_layer" if tracer else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


def _declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``kind`` metrics ("end_to_end" or "per_layer") in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


if __name__ == "__main__":
    sys.exit(main())
