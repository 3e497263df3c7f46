"""The three benchmark workloads.

Each workload has a ``setup`` that builds its inputs from the seed (timed as
``setup_s``), a ``run`` that executes the timed phase once and returns its
phase times in seconds (``wall_s`` is their sum), and a ``check`` that
verifies the outputs of that run outside the timed phase. The program is
always called through module attributes (``proto.generate_trials``, not a
local import), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from avatarprint import catalog as cat
from avatarprint import cli
from avatarprint import embedder as emb
from avatarprint import evaluation as ev
from avatarprint import feature_store as fs
from avatarprint import protocol as proto
from avatarprint import scoring as sc
from avatarprint import synthbench

from checks import tree_digests
from fullcatalog import full_catalog

DIM = 32  # per-frame features; the graph model reads them as 16 (x, y) points
FRAMES = (64, 100)  # 3 to 5 windows of 32 frames at stride 16
# Every e2e-synth video has exactly 4 windows. With 64-100 frames the seed
# decided between 14 and 15 training steps per epoch, a 7% swing in wall_s.
E2E_FRAMES = (80, 95)
KINEMATIC = {"heads": 4, "attention_dim": 32, "projection_dim": 16, "window_len": 32}
GRAPH = {**KINEMATIC, "graph": {"layers": 1, "hidden_dim": 32}}


def write_chain_adjacency(path: Path) -> Path:
    """Edge list of a 16-point chain, the landmark graph both workloads use."""
    path.write_text("".join(f"{i},{i + 1}\n" for i in range(DIM // 2 - 1)), encoding="utf-8")
    return path


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# -- e2e-synth: `avatarprint run` on a small synthetic corpus ------------------

E2E_CONDITIONS = {
    "intra": ("CREMA-D/GAGA->CREMA-D/GAGA", "CREMA-D/LIVE->CREMA-D/LIVE"),
    "cross_generator": ("CREMA-D/GAGA->CREMA-D/LIVE",),
}


@dataclass
class E2EInputs:
    config: Path
    runs: Path


def setup_e2e(seed: int, root: Path) -> E2EInputs:
    corpus = synthbench.synth_corpus(
        root / "corpus", n_identities=20, videos_per_id=10, frames=E2E_FRAMES, dim=DIM, seed=seed,
        dataset=cat.Dataset.CREMA_D, generators=(cat.Generator.GAGA, cat.Generator.LIVE),
    )
    corpus.store.close()
    adjacency = write_chain_adjacency(root / "chain.csv")
    hyper = {"lr": 1e-3, "batch": 64, "epochs": 20, "windows_per_identity": 4}
    config = {
        "seed": seed,
        "output_root": "runs",
        "identities": "corpus/identities.csv",
        "videos": "corpus/videos.csv",
        "split": "corpus/split.json",
        "fusion": {"enabled": True, "zscore": False},
        "models": [
            {"name": "kinematic", "store": "corpus/features.avfs", "embedder": KINEMATIC, "hyper": hyper},
            {"name": "graph", "store": "corpus/features.avfs", "embedder": GRAPH, "hyper": hyper,
             "adjacency": adjacency.name},
        ],
        "experiments": [
            {"scenario": "intra", "train_dataset": "CREMA-D", "train_generator": g,
             "eval_dataset": "CREMA-D", "eval_generators": [g]}
            for g in ("GAGA", "LIVE")
        ] + [
            {"scenario": "cross_generator", "train_dataset": "CREMA-D", "train_generator": "GAGA",
             "eval_dataset": "CREMA-D", "eval_generators": ["LIVE"]},
        ],
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return E2EInputs(path, root / "runs")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_e2e(inputs: E2EInputs, work: Path, index: int, tracer) -> tuple[dict, tuple]:
    run_id = f"it{index}"
    argv = ["run", "--config", str(inputs.config), "--run-id", run_id, "--workers", "2"]
    with tracer.span("cli.run"):
        (code, log), run_s = _timed(_cli, argv)
    run_dir = inputs.runs / run_id
    before = tree_digests(run_dir)
    with tracer.span("cli.resume"):
        (resume_code, resume_log), resume_s = _timed(_cli, argv)

    scored = re.search(r"(\d+)/(\d+) jobs scored", log)
    if scored:
        tracer.record("cli.jobs", int(scored.group(2)))
        tracer.record("cli.jobs_failed", int(scored.group(2)) - int(scored.group(1)))
    active = [
        e["active_fraction"]
        for p in sorted((run_dir / "models").glob("*.log.json"))
        for e in json.loads(p.read_text(encoding="utf-8"))["epochs"]
    ]
    if active:
        tracer.record("training.active_fraction", float(np.mean(active)))
    phases = {"wall_s": run_s + resume_s, "run_s": run_s, "resume_s": resume_s}
    return phases, (code, log, resume_code, resume_log, before, run_dir)


def check_e2e(inputs: E2EInputs, outputs: tuple, tally, index: int) -> dict:
    code, log, resume_code, resume_log, before, run_dir = outputs
    reports = ev.read_report_csv(run_dir / "reports" / "report.csv") if code == 0 else []
    tally.check("run_complete", (code, sum(len(c) for c in E2E_CONDITIONS.values()), reports, log))
    tally.check("resume_identical", (resume_code, before, run_dir, resume_log))
    fusion = {r.condition: r.auc for r in reports if r.model == sc.FUSION_MODEL}
    auc = {k: float(np.mean([fusion.get(c, np.nan) for c in conds])) for k, conds in E2E_CONDITIONS.items()}
    tally.check("auc_intra", auc["intra"])
    shutil.rmtree(run_dir)
    return {"auc_intra": auc["intra"], "auc_cross_generator": auc["cross_generator"]}


# -- job-ravdess: one paper-scale scoring and evaluation job -------------------

JOB_DATASET, JOB_GENERATOR = cat.Dataset.RAVDESS, cat.Generator.GAGA
JOB_CONDITION = f"{JOB_DATASET.value}/{JOB_GENERATOR.value}->{JOB_DATASET.value}/{JOB_GENERATOR.value}"
ORACLE_SAMPLES = 24  # trials per model checked against the double loop
AUC_SUBSAMPLE = 1500  # scores per class checked against the pairwise AUC


@dataclass
class JobInputs:
    catalog: cat.Catalog
    trials: list
    models: dict
    seed: int


def setup_job(seed: int, root: Path) -> JobInputs:
    catalog, split = full_catalog(seed)
    view = catalog.filter(datasets=[JOB_DATASET], generators=[JOB_GENERATOR])
    trials = proto.generate_trials(view, split)
    video_ids = sorted({v for t in trials for v in (t.enroll_video, t.test_video)})

    rng = np.random.default_rng(seed)
    writer = fs.FeatureStoreWriter(root / "features.avfs", fs.FeatureKind.EMBEDDING, DIM)
    for vid in video_ids:
        frames = rng.standard_normal((int(rng.integers(FRAMES[0], FRAMES[1] + 1)), DIM))
        writer.put(fs.FeatureSequence(vid, fs.FeatureKind.EMBEDDING, frames, 30.0))
    store = writer.seal()
    normalization = fs.normalize(store, video_ids)

    adjacency = write_chain_adjacency(root / "chain.csv")
    graph = emb.load_adjacency(adjacency, num_nodes=DIM // 2)
    models = {}
    for offset, (name, opts) in enumerate((("kinematic", KINEMATIC), ("graph", GRAPH))):
        graph_cfg = None
        if "graph" in opts:
            graph_cfg = emb.GraphEncoderConfig(**opts["graph"], adjacency=str(adjacency))
        config = emb.EmbedderConfig(
            input_dim=DIM, **{k: v for k, v in opts.items() if k != "graph"},
            graph=graph_cfg, seed=seed + offset,
        )
        path = root / f"{name}.avck"
        emb.save_checkpoint(emb.init_params(config, normalization, graph if graph_cfg else None), path)
        models[name] = (emb.load_checkpoint(path), store)
    return JobInputs(catalog, trials, models, seed)


def _class_scores(rows, model: str) -> tuple[np.ndarray, np.ndarray]:
    # the same selection `avatarprint run` makes before writing each ROC
    rows = [r for r in rows if r.model == model and r.score is not None]
    genuine = np.array([r.score for r in rows if r.label == 1])
    impostor = np.array([r.score for r in rows if r.label == 0])
    return genuine, impostor


def _read_roc(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def run_job(inputs: JobInputs, work: Path, index: int, tracer) -> tuple[dict, tuple]:
    start = time.perf_counter()
    table = sc.score_trials(inputs.models, inputs.trials, include_fusion=True, zscore_fusion=True)
    score_s = time.perf_counter() - start

    start = time.perf_counter()
    table_path = work / "scores.csv"
    sc.write_score_table(table, table_path)
    loaded = sc.read_score_table(table_path)
    table_io_s = time.perf_counter() - start

    start = time.perf_counter()
    reports = ev.evaluate_rows(loaded.rows, JOB_CONDITION)
    for report in reports:
        ev.write_roc_csv(*_class_scores(loaded.rows, report.model), work / f"roc_{report.model}.csv")
    fair = ev.fairness_report(loaded.rows, inputs.catalog)
    ev.write_fairness_csv(fair, JOB_CONDITION, work / "fairness.csv")
    ev.write_report_csv(reports, work / "report.csv")
    eval_s = time.perf_counter() - start

    phases = {"wall_s": score_s + table_io_s + eval_s, "score_s": score_s,
              "table_io_s": table_io_s, "eval_s": eval_s}
    return phases, (table, loaded, reports, fair, work)


def check_job(inputs: JobInputs, outputs: tuple, tally, index: int) -> dict:
    table, loaded, reports, fair, work = outputs
    rng = random.Random(inputs.seed * 1000 + index)
    by_key = {(r.trial_id, r.model): r.score for r in table.rows}
    oracle = [
        (params, store, t.enroll_video, t.test_video, by_key[(t.trial_id, name)])
        for name, (params, store) in sorted(inputs.models.items())
        for t in rng.sample(inputs.trials, ORACLE_SAMPLES)
    ]
    tally.check("scores_oracle", oracle)
    tally.check("fusion_zscore", table.rows)
    tally.check("table_round_trip", (table.rows, loaded.rows))
    subsamples = []
    for report in reports:
        genuine, impostor = _class_scores(table.rows, report.model)
        g = genuine[rng.sample(range(genuine.size), AUC_SUBSAMPLE)]
        i = impostor[rng.sample(range(impostor.size), AUC_SUBSAMPLE)]
        subsamples.append((report.model, g, i, ev.auc(g, i)))
    tally.check("auc_pairwise", subsamples)
    curves = [(r.model, *_read_roc(work / f"roc_{r.model}.csv"), r.auc) for r in reports]
    tally.check("roc_shape", curves)
    tally.check("fairness_partition", (fair, sum(r.score is not None for r in table.rows)))
    return {}


# -- protocol-full: the full catalog's manifest and trial list -----------------


@dataclass
class ProtocolInputs:
    catalog: cat.Catalog
    split: proto.Split


def setup_protocol(seed: int, root: Path) -> ProtocolInputs:
    return ProtocolInputs(*full_catalog(seed))


def run_protocol(inputs: ProtocolInputs, work: Path, index: int, tracer) -> tuple[dict, tuple]:
    start = time.perf_counter()
    ids_path, videos_path = work / "identities.csv", work / "videos.csv"
    cat.save_manifest(inputs.catalog, ids_path, videos_path)
    catalog = cat.load_manifest(ids_path, videos_path)
    report = cat.validate_counts(catalog, cat.canonical_count_table("full"))
    inputs.split.validate(catalog)
    manifest_s = time.perf_counter() - start

    start = time.perf_counter()
    trials = proto.generate_trials(catalog, inputs.split)
    counts = proto.trial_counts(trials)
    trials_gen_s = time.perf_counter() - start

    start = time.perf_counter()
    trials_path = work / "trials.csv"
    proto.save_trials(trials, trials_path)
    loaded = proto.load_trials(trials_path)
    trials_io_s = time.perf_counter() - start

    phases = {"wall_s": manifest_s + trials_gen_s + trials_io_s, "manifest_s": manifest_s,
              "trials_gen_s": trials_gen_s, "trials_io_s": trials_io_s}
    return phases, (report, counts, trials, loaded, trials_path)


def check_protocol(inputs: ProtocolInputs, outputs: tuple, tally, index: int) -> dict:
    report, counts, trials, loaded, trials_path = outputs
    tally.check("counts_valid", report)
    tally.check("trial_counts", (counts, len(trials)))
    tally.check("trials_round_trip", (trials, loaded))
    tally.check("trials_sha256", trials_path)
    return {}


class Workload(NamedTuple):
    setup: Callable  # (seed, root) -> inputs
    run: Callable  # (inputs, work, index, tracer) -> (phase seconds, outputs); the timed phase
    check: Callable  # (inputs, outputs, tally, index) -> extra untimed figures
    checks: tuple[str, ...]  # names of the checks ``check`` runs


WORKLOADS = {
    "e2e-synth": Workload(setup_e2e, run_e2e, check_e2e, ("run_complete", "resume_identical", "auc_intra")),
    "job-ravdess": Workload(setup_job, run_job, check_job, (
        "scores_oracle", "fusion_zscore", "table_round_trip", "auc_pairwise", "roc_shape", "fairness_partition")),
    "protocol-full": Workload(setup_protocol, run_protocol, check_protocol, (
        "counts_valid", "trial_counts", "trials_round_trip", "trials_sha256")),
}
