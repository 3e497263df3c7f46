"""Runs every workload on several seeds and summarizes the spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For each seed, runs ``run.py`` untraced once per workload of
``BENCHMARK.json``, for its ``run_seconds`` (workloads take turns, so a drift
in the host's speed reaches every workload alike), then runs each workload
once traced on the first seed. For each end-to-end metric
it reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``. It also records the environment and, before each seed's
round, ``host_probe_s``: the median time of a fixed pure-Python loop, which
shows how fast the host was while the workloads ran. The output is
``baseline.json``'s format.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip(),
        "blas_threads": 1,
        "platform": platform.platform(),
    }


def host_probe() -> float:
    def loop() -> int:
        total = 0
        for i in range(3_000_000):
            total += i * i % 7
        return total

    times = []
    for _ in range(5):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr)
    detail = json.loads(lines[-2]) if trace == 0 else None
    return result, detail


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    results: dict[str, list] = {name: [] for name in names}
    details: dict[str, list] = {name: [] for name in names}
    probes = []
    for seed in seeds:
        probes.append(host_probe())
        for name in names:
            result, detail = run(name, seed, seconds, 0)
            results[name].append(result)
            details[name].append(detail)
            print(f"{name} seed {seed}: {json.dumps(result)}", flush=True)
    out["host_probe_s"] = probes
    for name in names:
        metrics = {}
        for metric, bound in bounds.items():
            metrics[metric] = {**spread([r["metrics"][metric]["value"] for r in results[name]]), "bound": bound}
            print(f"{name} {metric}: median {metrics[metric]['median']:.4g}, "
                  f"iqr/median {metrics[metric]['iqr_share']:.3f} (bound {bound})", flush=True)
        runs = details[name]
        phases = {k: statistics.median(d["phases_s"][k] for d in runs) for k in runs[0]["phases_s"]}
        extras = {k: statistics.median(d[k] for d in runs) for k in ("auc_intra", "auc_cross_generator") if k in runs[0]}
        traced, _ = run(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in results[name]),
            "ops_failed_frac": sum(r["failed"] for r in results[name]) / sum(r["attempted"] for r in results[name]),
            "end_to_end": metrics,
            "phases_s_median": phases,
            **{f"{k}_median": v for k, v in extras.items()},
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
