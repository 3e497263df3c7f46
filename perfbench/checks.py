"""Correctness checks on workload outputs, and the operation tally.

Every workload operation (one timed pipeline pass) and every check is one
attempted operation; an exception or a failed check counts as a failure.
Each check has a matching corruption that turns a good input into one the
check must reject, so ``selftest.py`` can prove that no check is vacuous.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from avatarprint import evaluation as ev
from avatarprint import scoring as sc

# SHA-256 of the 1,346,832-trial CSV of the full catalog. The catalog's shape
# does not depend on the seed and the trial list is canonical, so this digest
# holds for every seed.
FULL_TRIALS_SHA256 = "1a97f52d0000f26e9fc3fa72654fe39ded3c388f8299bb9ca3d4f4f9a37a55d7"

# Published exclude-identical trial counts per generator.
PUBLISHED_TRIALS = {
    ("CREMA-D", 1): 122_688,
    ("CREMA-D", 0): 247_536,
    ("RAVDESS", 1): 28_320,
    ("RAVDESS", 0): 50_400,
}
PUBLISHED_TOTAL = 1_346_832
# Acceptance 5 asks 95 of one model trained on seed 1's corpus. Over seeds
# 2-11 this workload's fusion reached 92.97-99.14 (three seeds below 95), so
# the floor sits below the spread between seeds, not at one seed's value.
MIN_FUSION_AUC_INTRA = 90.0
ORACLE_TOL = 1e-12
ROC_AREA_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Tally:
    """Counts attempted and failed operations; applies self-test corruptions."""

    def __init__(self, corrupt: bool = False):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.corrupt = corrupt  # self-test: feed every check its corruption

    def _fail(self, name: str, exc: BaseException) -> None:
        self.failed += 1
        detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
        self.failures.append(f"{name}: {detail}")

    def op(self, name: str, fn, *args):
        """Run one workload operation; returns its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(name, exc)
            return None

    def check(self, name: str, data) -> None:
        """Run the check called ``name`` on ``data`` as one operation."""
        self.attempted += 1
        try:
            if self.corrupt:
                data = CORRUPTIONS[name](data)
            CHECKS[name](data)
        except Exception as exc:
            self._fail(name, exc)


# -- protocol-full -------------------------------------------------------------


def check_counts_valid(report) -> None:
    bad = [line for cell, line in zip(report.cells, report.lines()) if not cell.passed]
    _require(report.passed, f"catalog counts differ from the published table: {bad[:3]}")


def check_trial_counts(data) -> None:
    counts, total = data
    for (dataset, generator, label), n in sorted(counts.items()):
        want = PUBLISHED_TRIALS.get((dataset, label))
        _require(n == want, f"{dataset}/{generator} label {label}: {n} trials, published {want}")
    _require(len(counts) == 12, f"{len(counts)} (dataset, generator, label) cells, expected 12")
    _require(total == PUBLISHED_TOTAL, f"{total} trials, published {PUBLISHED_TOTAL}")


def check_trials_round_trip(data) -> None:
    trials, loaded = data
    _require(len(loaded) == len(trials), f"loaded {len(loaded)} trials, saved {len(trials)}")
    _require(loaded == trials, "load_trials(save_trials(x)) differs from x")


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_trials_sha256(path: Path) -> None:
    digest = file_sha256(path)
    _require(digest == FULL_TRIALS_SHA256, f"trial CSV sha256 {digest}, expected {FULL_TRIALS_SHA256}")


# -- job-ravdess ---------------------------------------------------------------


def double_loop_mean_cosine(first: np.ndarray, second: np.ndarray) -> float:
    total = 0.0
    for u in first:
        for v in second:
            total += float(np.dot(u, v)) / (math.sqrt(float(np.dot(u, u))) * math.sqrt(float(np.dot(v, v))))
    return total / (len(first) * len(second))


def check_scores_oracle(samples) -> None:
    """samples: (params, store, enroll, test, score from the table)."""
    for params, store, enroll, test, score in samples:
        z_e = sc.video_window_embeddings(params, store, enroll)
        z_t = sc.video_window_embeddings(params, store, test)
        want = double_loop_mean_cosine(z_e, z_t)
        _require(abs(score - want) <= ORACLE_TOL, f"{enroll}/{test}: score {score!r}, double loop {want!r}")
        swapped = sc.score_pair(params, store, test, enroll).score
        _require(swapped == score, f"{enroll}/{test}: score {score!r} but swapped {swapped!r}")


def check_fusion_zscore(rows) -> None:
    by_model: dict[str, dict[str, float]] = {}
    for r in rows:
        by_model.setdefault(r.model, {})[r.trial_id] = r.score
    fusion = by_model.pop(sc.FUSION_MODEL, None)
    _require(fusion is not None and len(by_model) >= 2, "no fusion rows next to two models")
    trial_ids = list(fusion)
    z = []
    for scores in by_model.values():
        vals = np.array([scores[t] for t in trial_ids])
        z.append((vals - vals.mean()) / vals.std())
    want = np.mean(z, axis=0)
    got = np.array([fusion[t] for t in trial_ids])
    worst = float(np.max(np.abs(got - want)))
    _require(worst <= ORACLE_TOL, f"fusion rows differ from the mean z-score by up to {worst!r}")


def check_table_round_trip(data) -> None:
    rows, loaded = data
    _require(loaded == rows, "read_score_table(write_score_table(x)) differs from x")


def pairwise_auc(genuine: np.ndarray, impostor: np.ndarray) -> float:
    wins = np.sum(genuine[:, None] > impostor[None, :]) + 0.5 * np.sum(genuine[:, None] == impostor[None, :])
    return 100.0 * float(wins) / (genuine.size * impostor.size)


def check_auc_pairwise(samples) -> None:
    """samples: (model, genuine subsample, impostor subsample, ``ev.auc`` of them)."""
    for model, genuine, impostor, value in samples:
        want = pairwise_auc(genuine, impostor)
        _require(abs(value - want) <= ROC_AREA_TOL, f"{model}: auc {value!r}, pairwise {want!r}")


def check_roc_shape(curves) -> None:
    """curves: (name, fpr, tpr, reported auc) read back from the ROC CSVs."""
    for name, fpr, tpr, auc in curves:
        _require((fpr[0], tpr[0]) == (0.0, 0.0), f"{name}: starts at {(fpr[0], tpr[0])}")
        _require((fpr[-1], tpr[-1]) == (1.0, 1.0), f"{name}: ends at {(fpr[-1], tpr[-1])}")
        _require(bool(np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)), f"{name}: decreases")
        area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
        _require(abs(area - auc / 100.0) <= ROC_AREA_TOL, f"{name}: area {area!r}, auc/100 {auc / 100.0!r}")


def check_fairness_partition(data) -> None:
    report, scored_rows = data
    for attribute in ev.FAIRNESS_ATTRIBUTES:
        cells = sum(c.trials_n for c in report.cells if c.attribute == attribute)
        excluded = report.excluded_unknown.get(attribute, 0)
        _require(cells + excluded == scored_rows,
                 f"{attribute}: {cells} in subgroups + {excluded} excluded != {scored_rows} scored rows")


# -- e2e-synth -----------------------------------------------------------------


LOG_TAIL = 2000  # characters of the program's output a failure message quotes


def check_run_complete(data) -> None:
    exit_code, jobs_expected, reports, log = data
    _require(exit_code == 0, f"avatarprint run exited {exit_code}; its output ended:\n{log[-LOG_TAIL:]}")
    conditions = {r.condition for r in reports}
    _require(len(conditions) == jobs_expected, f"{len(conditions)} of {jobs_expected} jobs scored")


def tree_digests(run_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(run_dir)): file_sha256(p)
        for sub in ("trials", "scores", "reports")
        for p in sorted((run_dir / sub).rglob("*"))
        if p.is_file()
    }


def check_resume_identical(data) -> None:
    exit_code, before, run_dir, log = data
    _require(exit_code == 0, f"resume exited {exit_code}; its output ended:\n{log[-LOG_TAIL:]}")
    after = tree_digests(run_dir)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    _require(not changed, f"resume changed {changed[:5]}")


def check_auc_intra(value: float) -> None:
    _require(value >= MIN_FUSION_AUC_INTRA, f"fusion intra AUC {value:.2f} < {MIN_FUSION_AUC_INTRA}")


CHECKS = {
    "counts_valid": check_counts_valid,
    "trial_counts": check_trial_counts,
    "trials_round_trip": check_trials_round_trip,
    "trials_sha256": check_trials_sha256,
    "scores_oracle": check_scores_oracle,
    "fusion_zscore": check_fusion_zscore,
    "table_round_trip": check_table_round_trip,
    "auc_pairwise": check_auc_pairwise,
    "roc_shape": check_roc_shape,
    "fairness_partition": check_fairness_partition,
    "run_complete": check_run_complete,
    "resume_identical": check_resume_identical,
    "auc_intra": check_auc_intra,
}


# -- one corruption per check, for the self-test -----------------------------


def _flip_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _corrupt_counts(report):
    cell = report.cells[0]
    return replace(report, cells=[replace(cell, actual=cell.actual - 1)] + report.cells[1:])


def _corrupt_trial_counts(data):
    counts, total = data
    key = min(counts)
    return {**counts, key: counts[key] - 1}, total - 1


def _corrupt_sha(path: Path) -> Path:
    _flip_byte(path)
    return path


def _corrupt_oracle(samples):
    params, store, enroll, test, score = samples[0]
    return [(params, store, enroll, test, score + 1e-9)] + samples[1:]


def _corrupt_fusion(rows):
    i = next(i for i, r in enumerate(rows) if r.model == sc.FUSION_MODEL)
    return rows[:i] + [replace(rows[i], score=rows[i].score + 1e-6)] + rows[i + 1:]


def _corrupt_auc(samples):
    model, genuine, impostor, value = samples[0]
    return [(model, genuine, impostor, value + 0.01)] + samples[1:]


def _corrupt_roc(curves):
    name, fpr, tpr, auc = curves[0]
    tpr = tpr.copy()
    mid = len(tpr) // 2
    tpr[mid], tpr[mid + 1] = tpr[mid + 1], tpr[mid] - 1e-3
    return [(name, fpr, tpr, auc)] + curves[1:]


def _corrupt_fairness(data):
    report, scored_rows = data
    return replace(report, cells=report.cells[1:]), scored_rows


def _corrupt_resume(data):
    exit_code, before, run_dir, log = data
    _flip_byte(run_dir / "reports" / "report.csv")
    return exit_code, before, run_dir, log


CORRUPTIONS = {
    "counts_valid": _corrupt_counts,
    "trial_counts": _corrupt_trial_counts,
    "trials_round_trip": lambda d: (d[0], d[1][:-1]),
    "trials_sha256": _corrupt_sha,
    "scores_oracle": _corrupt_oracle,
    "fusion_zscore": _corrupt_fusion,
    "table_round_trip": lambda d: (d[0], d[1][:-1]),
    "auc_pairwise": _corrupt_auc,
    "roc_shape": _corrupt_roc,
    "fairness_partition": _corrupt_fairness,
    "run_complete": lambda d: (1,) + tuple(d[1:]),
    "resume_identical": _corrupt_resume,
    "auc_intra": lambda v: v - 10.0,
}
