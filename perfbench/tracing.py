"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
that holds it (``avatarprint.training.forward_batch`` as well as
``avatarprint.scoring.forward_batch``), so callers that look the name up at
call time reach the wrapper; ``uninstall`` restores the originals. Each span
records its name, start, end, parent span, thread and the iteration it
belongs to. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its direct children on
the same thread cover. Under ``--workers 2`` the pool threads' spans have no
same-thread parent, so busy time is accounted per thread and can exceed the
wall time.

The workloads open spans of their own around the calls they time
(``BENCH_SPANS``). Their main-thread self time is the time the program spent
outside every traced function, such as ``avatarprint run`` waiting on its
worker pool; it is reported as ``trace.main_wait_s`` and left out of
``trace.main_self_s``, so ``trace.unattributed_s`` is the main-thread time no
program span covers.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from avatarprint import catalog, cli, embedder, evaluation, feature_store, protocol, scoring, synthbench, training

MODULES = (catalog, cli, embedder, evaluation, feature_store, protocol, scoring, synthbench, training)
BENCH_SPANS = frozenset({"cli.run", "cli.resume"})  # opened by workloads.py, not by a traced function


def _payload_bytes(seq) -> int:
    return seq.num_frames * seq.dimension * 4  # float32 on disk


# (owner, attribute, span name, post-call hook(tracer, args, result)). Hooks
# run after the span has closed, so their cost is tracing overhead, not layer time.
TRACED = [
    (catalog, "save_manifest", "catalog.save_manifest", None),
    (catalog, "load_manifest", "catalog.load_manifest", lambda t, a, r: t.record("catalog.videos", len(r))),
    (catalog, "validate_counts", "catalog.validate_counts", None),
    (feature_store.FeatureStore, "get", "feature_store.get",
     lambda t, a, r: t.count("feature_store.bytes_read", _payload_bytes(r))),
    (feature_store, "normalize", "feature_store.normalize", None),
    (embedder, "forward_batch", "embedder.forward", None),
    (embedder, "backward_batch", "embedder.backward", None),
    (embedder, "save_checkpoint", "embedder.checkpoint_io", None),
    (embedder, "load_checkpoint", "embedder.checkpoint_io", None),
    (training, "train", "training.train", None),
    (scoring, "score_trials", "scoring.score_trials", lambda t, a, r: t.count_table(a, r)),
    (scoring, "video_window_embeddings", "scoring.embed", None),
    (scoring, "write_score_table", "scoring.write_table",
     lambda t, a, r: t.count("scoring.table_bytes", os.path.getsize(a[1]))),
    (scoring, "read_score_table", "scoring.read_table", None),
    (protocol, "generate_trials", "protocol.generate_trials", lambda t, a, r: t.count("protocol.trials", len(r))),
    (protocol, "trial_counts", "protocol.trial_counts", None),
    (protocol, "save_trials", "protocol.save_trials",
     lambda t, a, r: t.count("protocol.trials_bytes", os.path.getsize(a[1]))),
    (protocol, "load_trials", "protocol.load_trials", None),
    (protocol.Split, "validate", "protocol.split_validate", None),
    (evaluation, "evaluate_rows", "evaluation.evaluate_rows", None),
    (evaluation, "auc", "evaluation.auc", None),
    (evaluation, "roc_points", "evaluation.roc_points", lambda t, a, r: t.count("evaluation.roc_points", len(r[0]))),
    (evaluation, "fairness_report", "evaluation.fairness", None),
    (evaluation, "write_report_csv", "evaluation.write_reports", None),
    (evaluation, "write_fairness_csv", "evaluation.write_reports", None),
    (evaluation, "write_roc_csv", "evaluation.write_reports", None),
    (synthbench, "synth_corpus", "synthbench.synth_corpus", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span on the same thread
    thread: int
    run: str  # workload-run id: "<workload>/<seed>/<iteration>"
    windows: int = 0  # embedder spans: windows in the batch


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def record(self, name: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self, run_prefix: str):
        self.run_prefix = run_prefix
        self.run = f"{run_prefix}/untraced"
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, windows: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), self.run, windows)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[(self.run, name)] += n

    def record(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[(self.run, name)] = value

    def count_table(self, args, table) -> None:
        trials = len({r.trial_id for r in table.rows})
        self.count("scoring.trials_scored", trials)
        self.count("scoring.unscorable", len(table.unscorable_trials))
        self.count("scoring.embed_lookups", 2 * trials * len(args[0]))

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name: str, post):
        tracer = self

        def traced(*args, **kwargs):
            windows = 0
            if name in ("embedder.forward", "embedder.backward"):
                windows = len(args[1]) if name == "embedder.forward" else len(args[2])
            with tracer.span(name, windows):
                result = fn(*args, **kwargs)
            if post is not None:
                post(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, post in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, post)
            holders = [owner] + [m for m in MODULES if m is not owner and vars(m).get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def installed(self, run: str):
        self.run = f"{self.run_prefix}/{run}"
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.run = f"{self.run_prefix}/untraced"

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")

    # -- per-layer metrics ---------------------------------------------------------

    def layer_metrics(self, run: str, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced iteration whose timed phase took ``wall_s``."""
        run = f"{self.run_prefix}/{run}"
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run == run]
        children: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s.parent is not None:
                children[s.parent] += s.end - s.start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, list[float]] = defaultdict(list)
        main = threading.main_thread().ident
        main_self = main_wait = worker_self = 0.0
        for i, s in spans:
            dur = s.end - s.start
            own = dur - children[i]
            total[s.name] += dur
            self_time[s.name] += own
            calls[s.name].append(dur)
            if s.thread == main and s.name in BENCH_SPANS:
                main_wait += own
            elif s.thread == main:
                main_self += own
            else:
                worker_self += own
        by_index = dict(spans)

        def under(i: int, name: str) -> bool:
            parent = by_index[i].parent
            while parent is not None:
                if by_index[parent].name == name:
                    return True
                parent = by_index[parent].parent
            return False

        c = defaultdict(float, {k[1]: v for k, v in self.counters.items() if k[0] == run})
        train_s = total["training.train"]
        train_windows = sum(s.windows for i, s in spans if s.name == "embedder.forward" and under(i, "training.train"))
        lookups = c["scoring.embed_lookups"]
        m = {
            "catalog.save_manifest_s": total["catalog.save_manifest"],
            "catalog.load_manifest_s": total["catalog.load_manifest"],
            "catalog.validate_counts_s": total["catalog.validate_counts"],
            "catalog.videos": c["catalog.videos"],
            "feature_store.get_s": total["feature_store.get"],
            "feature_store.get_calls": len(calls["feature_store.get"]),
            "feature_store.bytes_read": c["feature_store.bytes_read"],
            "feature_store.normalize_s": total["feature_store.normalize"],
            "embedder.forward_s": total["embedder.forward"],
            "embedder.forward_windows": sum(s.windows for _, s in spans if s.name == "embedder.forward"),
            **_latency("embedder.forward_ms", calls["embedder.forward"]),
            "embedder.backward_s": total["embedder.backward"],
            **_latency("embedder.backward_ms", calls["embedder.backward"]),
            "embedder.checkpoint_io_s": total["embedder.checkpoint_io"],
            "training.train_s": train_s,
            "training.self_s": self_time["training.train"],
            "training.steps": len(calls["embedder.backward"]),
            "training.windows_per_s": train_windows / train_s if train_s else 0.0,
            "training.active_fraction": c["training.active_fraction"],
            "scoring.score_trials_s": total["scoring.score_trials"],
            "scoring.self_s": self_time["scoring.score_trials"],
            "scoring.trials_scored": c["scoring.trials_scored"],
            "scoring.unscorable": c["scoring.unscorable"],
            "scoring.embed_computes": len(calls["scoring.embed"]),
            "scoring.cache_hit_ratio": 1.0 - len(calls["scoring.embed"]) / lookups if lookups else 0.0,
            "scoring.write_table_s": total["scoring.write_table"],
            "scoring.read_table_s": total["scoring.read_table"],
            "scoring.table_bytes": c["scoring.table_bytes"],
            "protocol.generate_trials_s": total["protocol.generate_trials"],
            "protocol.trial_counts_s": total["protocol.trial_counts"],
            "protocol.save_trials_s": total["protocol.save_trials"],
            "protocol.load_trials_s": total["protocol.load_trials"],
            "protocol.split_validate_s": total["protocol.split_validate"],
            "protocol.trials": c["protocol.trials"],
            "protocol.trials_bytes": c["protocol.trials_bytes"],
            "evaluation.evaluate_rows_s": total["evaluation.evaluate_rows"],
            "evaluation.auc_s": total["evaluation.auc"],
            "evaluation.roc_points_s": total["evaluation.roc_points"],
            "evaluation.roc_points": c["evaluation.roc_points"],
            "evaluation.fairness_s": total["evaluation.fairness"],
            "evaluation.write_reports_s": self_time["evaluation.write_reports"],
            "cli.run_s": total["cli.run"],
            "cli.resume_s": total["cli.resume"],
            "cli.train_tasks": len(calls["training.train"]),
            "cli.jobs": c["cli.jobs"],
            "cli.jobs_failed": c["cli.jobs_failed"],
            "trace.wall_s": wall_s,
            "trace.main_self_s": main_self,
            "trace.main_wait_s": main_wait,
            "trace.worker_self_s": worker_self,
            "trace.unattributed_s": wall_s - main_self,
            "trace.spans": len(spans),
        }
        return m

    def setup_metrics(self) -> dict[str, float]:
        durations = [s.end - s.start for s in self.spans
                     if s.run == f"{self.run_prefix}/setup" and s.name == "synthbench.synth_corpus"]
        return {"synthbench.synth_corpus_s": statistics.median(durations) if durations else 0.0}


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _latency(prefix: str, durations: list[float]) -> dict[str, float]:
    """p50 plus the highest percentile with at least ten samples beyond it."""
    n = len(durations)
    if n == 0:
        return {f"{prefix}_p50": 0.0, f"{prefix}_tail": 0.0, f"{prefix}_tail_pct": 0.0, f"{prefix}_n": 0}
    ms = sorted(d * 1000.0 for d in durations)
    pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)

    def at(p: float) -> float:
        return ms[min(n - 1, int(p / 100 * n))]

    return {f"{prefix}_p50": at(50.0), f"{prefix}_tail": at(pct), f"{prefix}_tail_pct": pct, f"{prefix}_n": n}
