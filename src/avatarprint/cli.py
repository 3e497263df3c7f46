"""Command-line entry point.

Subcommands cover manifest validation, synthetic corpus generation, trial
list generation, training, scoring, evaluation, fairness breakdowns, and a
config-driven end-to-end experiment runner. Every command is deterministic
given its config and seed. The runner trains one checkpoint per (model,
training condition), then runs each job as one task that scores, evaluates
and reports it, so a failing job fails alone. It reuses only what is
expensive to make, checkpoints and score tables, by one rule,
``_reuse_or_make``, so an interrupted run resumes without retraining or
rescoring finished work. Everything else is derived again on each
invocation: the trial list (its file is rewritten only when its inputs
change, and never read back) and every report. Files of checkpoints and
score tables the config no longer names are deleted. One invocation at a
time writes a run directory: the runner holds an exclusive ``flock`` on
the directory itself while it writes there.

Exit codes: 0 success, 1 validation or job failure, 2 usage/configuration or
I/O error.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import catalog as cat
from . import evaluation as ev
from . import protocol as proto
from . import scoring as sc
from .embedder import (
    AdjacencyGraph,
    EmbedderConfig,
    EmbedderError,
    GraphEncoderConfig,
    load_adjacency,
    load_checkpoint,
    save_checkpoint,
)
from .feature_store import (
    FeatureKind,
    FeatureSequence,
    FeatureStore,
    FeatureStoreError,
    FeatureStoreWriter,
    import_frames_csv,
)
from .files import write_json, write_text
from .synthbench import SynthError, synth_corpus
from .training import TrainHyper, TrainingDiverged, TrainingError, train

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class ConfigError(ValueError):
    pass


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


# -- declarative config ------------------------------------------------------


def _field_names(cls, *skip: str) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls)) - set(skip)


MODEL_KEYS = frozenset({"name", "store", "embedder", "hyper", "adjacency"})
EXPERIMENT_KEYS = _field_names(proto.ExperimentSpec)
CONFIG_KEYS = frozenset({"seed", "run_id", "output_root", "identities", "videos", "split",
                         "eval_fraction", "convention", "models", "fusion", "experiments"})
FUSION_KEYS = frozenset({"enabled", "zscore"})


def _check_keys(block: object, where: str, allowed: Iterable[str],
                required: Iterable[str] = ()) -> Mapping:
    """``block`` itself, once it is an object with no unknown or missing keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ConfigError(f"{where}: missing key {', '.join(map(repr, missing))}")
    return block


# the JSON values an int, float or str field of a model block takes (a bool is no int)
JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
              "str": ((str,), "a string")}


def _check_fields(block: object, where: str, cls, *skip: str) -> Mapping:
    """``block`` itself, once its keys are fields of the dataclass ``cls``
    less ``skip`` and each int, float or str field holds a JSON value of its
    type."""
    _check_keys(block, where, _field_names(cls, *skip))
    for f in fields(cls):
        types, expected = JSON_TYPES.get(f.type, (None, ""))
        if types and f.name in block and type(block[f.name]) not in types:
            raise ConfigError(f"{where}: {f.name!r} must be {expected}, got {block[f.name]!r}")
    return block


def _checked(block: Mapping, where: str, key: str, default, valid: Callable[[object], bool],
             expected: str):
    """``block[key]``, or ``default`` when it is unset, once ``valid`` accepts it."""
    value = block.get(key, default)
    if not valid(value):
        raise ConfigError(f"{where}: {key!r} must be {expected}, got {value!r}")
    return value


def _build(make: Callable, where: str, /, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it rejects, or a file it cannot
    read, is a config error at ``where``."""
    try:
        return make(*args, **kwargs)
    except (EmbedderError, FeatureStoreError, proto.ProtocolError, TrainingError, OSError,
            UnicodeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass
class ModelSpec:
    name: str
    store: Path
    embedder: dict
    hyper: TrainHyper
    adjacency: Path | None


@dataclass
class RunConfig:
    seed: int
    run_id: str
    output_root: Path
    identities: Path
    videos: Path
    split: Path | None
    eval_fraction: float
    convention: str
    models: list[ModelSpec]
    fusion_enabled: bool
    fusion_zscore: bool
    experiments: list[proto.ExperimentSpec]

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        base = path.parent

        def resolve(p: str | None) -> Path | None:
            return None if p is None else (base / p).resolve()

        _check_keys(raw, "config", CONFIG_KEYS, required=("seed", "identities", "videos", "models"))
        is_list = lambda v: type(v) is list
        is_str = lambda v: type(v) is str
        is_str_or_null = lambda v: v is None or type(v) is str
        models = []
        for i, m in enumerate(_checked(raw, "config", "models", None, is_list, "a list")):
            where = f"models[{i}]"
            _check_keys(m, where, MODEL_KEYS, required=("name", "store"))
            # the store sets input_dim and the run its seed; the model its adjacency path
            embedder = _check_fields(m.get("embedder", {}), f"{where}.embedder", EmbedderConfig,
                                     "input_dim", "seed")
            if embedder.get("graph"):
                _check_fields(embedder["graph"], f"{where}.embedder.graph", GraphEncoderConfig,
                              "adjacency")
            hyper = _check_fields(m.get("hyper", {}), f"{where}.hyper", TrainHyper)
            models.append(
                ModelSpec(
                    name=_checked(m, where, "name", None, is_str, "a string"),
                    store=resolve(_checked(m, where, "store", None, is_str, "a string")),
                    embedder=dict(embedder),
                    hyper=_build(TrainHyper, f"{where}.hyper", **hyper),
                    adjacency=resolve(_checked(m, where, "adjacency", None, is_str_or_null,
                                               "a string or null")),
                )
            )
        names = [m.name for m in models]
        # a model's name, sanitized, names its files; the fused scores are a model too
        stems = [_sanitize(name) for name in names]
        for i, stem in enumerate(stems):
            if stem == sc.FUSION_MODEL:
                raise ConfigError(f"model name {names[i]!r} names the fused scores")
            if stem in stems[:i]:
                first = names[stems.index(stem)]
                raise ConfigError(f"model names must be unique as file names: {first!r} and "
                                  f"{names[i]!r} are both {stem!r}")
        experiments = []
        for i, e in enumerate(_checked(raw, "config", "experiments", [], is_list, "a list")):
            where = f"experiments[{i}]"
            _check_keys(e, where, EXPERIMENT_KEYS, required=EXPERIMENT_KEYS - {"models"})
            unknown = [name for name in e.get("models", ()) if name not in names]
            if unknown:
                raise ConfigError(f"{where} references unknown model {unknown[0]!r}")
            experiments.append(_build(proto.ExperimentSpec.from_dict, where, e))
        fusion = _check_keys(raw.get("fusion", {}), "fusion", FUSION_KEYS)
        return cls(
            seed=_checked(raw, "config", "seed", None, lambda v: type(v) is int, "an integer"),
            run_id=_checked(raw, "config", "run_id", "run", is_str, "a string"),
            output_root=resolve(_checked(raw, "config", "output_root", "runs", is_str, "a string")),
            identities=resolve(_checked(raw, "config", "identities", None, is_str, "a string")),
            videos=resolve(_checked(raw, "config", "videos", None, is_str, "a string")),
            split=resolve(_checked(raw, "config", "split", None, is_str_or_null,
                                   "a string or null")),
            eval_fraction=_checked(raw, "config", "eval_fraction", 0.3,
                                   lambda v: type(v) is float and 0 < v < 1,
                                   "a number between 0 and 1, exclusive"),
            convention=_checked(raw, "config", "convention", proto.EXCLUDE_IDENTICAL,
                                lambda v: v in proto.CONVENTIONS, f"one of {proto.CONVENTIONS}"),
            models=models,
            fusion_enabled=_checked(fusion, "fusion", "enabled", True, lambda v: type(v) is bool,
                                    "true or false"),
            fusion_zscore=_checked(fusion, "fusion", "zscore", False, lambda v: type(v) is bool,
                                   "true or false"),
            experiments=experiments,
        )

    def effective(self) -> dict:
        return {
            "seed": self.seed,
            "run_id": self.run_id,
            "output_root": str(self.output_root),
            "identities": str(self.identities),
            "videos": str(self.videos),
            "split": None if self.split is None else str(self.split),
            "eval_fraction": self.eval_fraction,
            "convention": self.convention,
            "fusion": {"enabled": self.fusion_enabled, "zscore": self.fusion_zscore},
            "models": [
                {
                    "name": m.name,
                    "store": str(m.store),
                    "embedder": m.embedder,
                    "adjacency": None if m.adjacency is None else str(m.adjacency),
                    "hyper": asdict(m.hyper),
                }
                for m in self.models
            ],
            "experiments": [asdict(e) for e in self.experiments],
        }


# -- helpers -------------------------------------------------------------------


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _marker(path: Path) -> Path:
    return path.with_name(path.name + ".done")


def _reuse_or_make(path: Path, inputs: object, make: Callable[[Path], T],
                   load: Callable[[Path], T]) -> T:
    """``load(path)`` when ``path`` exists and its ``.done`` marker holds the
    digest of ``inputs`` (JSON); otherwise ``make(path)``, which writes the
    artifact, and then the marker. A marker of other inputs, or one that
    holds none (older runs wrote ``done``), is stale."""
    done = _marker(path)
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest()
    try:
        marked = json.loads(done.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        marked = None
    if path.exists() and isinstance(marked, dict) and marked.get("inputs") == digest:
        return load(path)
    made = make(path)
    write_json(done, {"inputs": digest})
    return made


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _map(fn: Callable, items: Sequence, workers: int) -> list:
    """``fn`` over ``items`` in order, on a thread pool when ``workers`` > 1.

    One worker runs in the calling thread, so Ctrl-C stops it at once.
    """
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _checkpoint_path(out_dir: Path, model: str, dataset: str, generator: str) -> Path:
    return out_dir / f"{_sanitize(model)}_{_sanitize(dataset)}_{_sanitize(generator)}.avck"


@dataclass(frozen=True)
class Model:
    """A configured model as ``train`` takes it: its open store, its shape
    (``input_dim`` from the store, the seed from the run) and its graph."""

    store: FeatureStore
    config: EmbedderConfig
    graph: AdjacencyGraph | None
    hyper: TrainHyper


def _store_header(store: FeatureStore) -> list:
    """What an artifact's inputs record of a store: its kind, dimension and
    the content digest its writer recorded, so reading it rereads no frame."""
    return [store.kind.value, store.dimension, store.digest]


def _open_models(stack: ExitStack, specs: Iterable[ModelSpec], seed: int) -> dict[str, Model]:
    """Each model of ``specs``, built on its open store, which ``stack``
    closes; models that name the same path share one handle (reads are
    positional, so threads may too). A store that cannot be read as one, a
    value the model rejects or an unreadable adjacency file is a config error."""
    stores: dict[Path, FeatureStore] = {}
    models: dict[str, Model] = {}
    for spec in specs:
        where = f"model {spec.name!r}"
        if spec.store not in stores:
            stores[spec.store] = stack.enter_context(_build(FeatureStore, where, spec.store))
        store = stores[spec.store]
        opts = dict(spec.embedder)
        graph_opts = opts.pop("graph", None)
        graph_cfg = _build(GraphEncoderConfig, where, **graph_opts) if graph_opts else None
        config = _build(EmbedderConfig, where, input_dim=store.dimension, **opts,
                        graph=graph_cfg, seed=seed)
        graph = None
        if graph_cfg is not None:
            if spec.adjacency is None:
                raise ConfigError(f"{where}: graph encoder needs an adjacency file")
            graph = _build(load_adjacency, where, spec.adjacency, config.input_dim // 2)
        models[spec.name] = Model(store, config, graph, spec.hyper)
    return models


def _parse_names(text: str, kind: type[E]) -> list[E]:
    """The members of the enum ``kind`` named in a comma-separated list."""
    try:
        return [kind(name.strip()) for name in text.split(",") if name.strip()]
    except ValueError:
        raise ConfigError(f"bad {kind.__name__.lower()} list {text!r}; "
                          f"choose from {', '.join(m.value for m in kind)}") from None


def _parse_frames(text: str) -> int | tuple[int, int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return (parts[0], parts[1])
    raise ConfigError(f"bad frame spec {text!r}; use N or LO,HI")


# -- subcommands -----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    catalog = cat.load_manifest(args.identities, args.videos)
    expected = cat.canonical_count_table(args.profile)
    report = cat.validate_counts(catalog, expected)
    for line in report.lines():
        print(line)
    if report.passed:
        print("all counts match")
        return EXIT_OK
    print(f"{len(report.failures())} count cells differ")
    return EXIT_FAIL


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        # synth_corpus checks its arguments before it writes anything
        corpus = synth_corpus(
            out_dir=args.out,
            n_identities=args.identities_n,
            videos_per_id=args.videos_per_id,
            frames=_parse_frames(args.frames),
            dim=args.dim,
            seed=args.seed,
            dataset=_parse_names(args.dataset, cat.Dataset),
            generators=_parse_names(args.generators, cat.Generator),
            noise_sigma=args.noise,
            targets_per_driver=args.targets_per_driver,
            clips_per_driver=args.clips_per_driver,
            eval_fraction=args.eval_fraction,
        )
    except (SynthError, cat.CatalogError) as exc:
        raise ConfigError(str(exc)) from exc
    n_self = sum(1 for _ in corpus.catalog.videos(reenactment="self"))
    n_cross = sum(1 for _ in corpus.catalog.videos(reenactment="cross"))
    print(
        f"wrote {len(corpus.catalog)} videos ({n_self} self, {n_cross} cross), "
        f"{len(corpus.catalog.identities)} identities to {corpus.root}"
    )
    print(
        f"split: {len(corpus.split.development)} development / "
        f"{len(corpus.split.evaluation)} evaluation identities"
    )
    return EXIT_OK


def cmd_trials(args: argparse.Namespace) -> int:
    catalog = cat.load_manifest(args.identities, args.videos)
    split = _resolve_split(catalog, args.split, args.eval_fraction, args.seed)
    trials = proto.generate_trials(catalog, split, args.convention)
    proto.save_trials(trials, args.out)
    if args.split_out:
        proto.save_split(split, args.split_out)
    for (dataset, generator, label), count in sorted(proto.trial_counts(trials).items()):
        kind = "genuine " if label == 1 else "impostor"
        print(f"{dataset:8s} {generator:4s} {kind} {count:>9,d}")
    print(f"wrote {len(trials):,d} trials to {args.out}")
    return EXIT_OK


def _train_one(model: Model, catalog: cat.Catalog, split: proto.Split, train_dataset: str,
               train_generator: str, out_path: Path) -> None:
    generators = (
        None
        if train_generator == proto.ALL_GENERATORS
        else [cat.Generator(train_generator)]
    )
    view = catalog.filter(datasets=[cat.Dataset(train_dataset)], generators=generators)
    params, log = train(model.store, view, split.development, model.config, model.hyper,
                        graph=model.graph)
    save_checkpoint(params, out_path)
    write_json(out_path.with_suffix(".log.json"), asdict(log))


def _score_job(
    config: RunConfig,
    checkpoints: Mapping[str, str | Path],
    models: Mapping[str, Model],
    trials: proto.TrialSet,
    out_path: str | Path,
    condition: str,
) -> sc.ScoreTable:
    """Score ``trials``, those of ``condition``, with each named model's
    checkpoint and write the table. No trials is an error, and writes nothing."""
    loaded = {name: (load_checkpoint(path), models[name].store)
              for name, path in checkpoints.items()}
    if not trials:
        raise proto.ProtocolError(f"no trials for {condition}")
    table = sc.score_trials(
        loaded, trials, include_fusion=config.fusion_enabled, zscore_fusion=config.fusion_zscore
    )
    sc.write_score_table(table, out_path)
    return table


def cmd_train(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    catalog = cat.load_manifest(config.identities, config.videos)
    split = _resolve_split(catalog, config.split, config.eval_fraction, config.seed)
    out_dir = Path(args.out_dir)
    chosen = [m for m in config.models if args.model in (None, m.name)]
    if not chosen:
        raise ConfigError(f"no model named {args.model!r} in config")
    with ExitStack() as stack:
        models = _open_models(stack, chosen, config.seed)
        for spec in chosen:
            target = _checkpoint_path(out_dir, spec.name, args.train_dataset, args.train_generator)
            _train_one(models[spec.name], catalog, split, args.train_dataset,
                       args.train_generator, target)
            print(f"trained {spec.name} on {args.train_dataset}/{args.train_generator} "
                  f"-> {target}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    trials = proto.load_trials(args.trials).select(args.eval_dataset, args.eval_generator)
    specs = {m.name: m for m in config.models}
    checkpoints: dict[str, str] = {}
    for pair in args.checkpoint:
        name, _, ckpt = pair.partition("=")
        if not ckpt:
            raise ConfigError(f"--checkpoint wants NAME=PATH, got {pair!r}")
        if name not in specs:
            raise ConfigError(f"no model named {name!r} in config")
        if name in checkpoints:
            raise ConfigError(f"--checkpoint names model {name!r} twice")
        checkpoints[name] = ckpt
    with ExitStack() as stack:
        models = _open_models(stack, [specs[name] for name in checkpoints], config.seed)
        table = _score_job(config, checkpoints, models, trials, args.out,
                           f"{args.eval_dataset or '*'}/{args.eval_generator or '*'}")
    if table.missing_videos:
        print(f"missing features for {len(table.missing_videos)} videos", file=sys.stderr)
    if table.unscorable_trials:
        print(f"{len(table.unscorable_trials)} trials unscorable (too short)",
              file=sys.stderr)
    print(f"wrote the scores of {len(table.trials):,d} trials by models "
          f"{', '.join(table.models)} to {args.out}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    table = sc.read_score_table(args.scores)
    condition = args.condition or Path(args.scores).stem
    reports = ev.evaluate_rows(table.rows, condition)
    if not reports:
        print("no scored trials with both classes present", file=sys.stderr)
        return EXIT_FAIL
    print(ev.render_report_text(reports), end="")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        ev.write_report_csv(reports, out_dir / "report.csv")
        _write_rocs(table, reports, out_dir, condition)
    return EXIT_OK


def _write_rocs(
    table: sc.ScoreTable, reports: Sequence[ev.EvalReport], out_dir: Path, stem: str
) -> None:
    """``roc_<stem>_<model>.csv`` in ``out_dir`` for every reported model."""
    ev.write_roc_csvs(table.rows, {
        r.model: out_dir / f"roc_{_sanitize(stem)}_{_sanitize(r.model)}.csv" for r in reports
    })


def cmd_fairness(args: argparse.Namespace) -> int:
    catalog = cat.load_manifest(args.identities, args.videos)
    table = sc.read_score_table(args.scores)
    condition = args.condition or Path(args.scores).stem
    if not ev.evaluate_rows(table.rows, condition):
        print("no scored trials with both classes present", file=sys.stderr)
        return EXIT_FAIL
    report = ev.fairness_report(table.rows, catalog)
    print(ev.render_fairness_text(report), end="")
    if args.out:
        ev.write_fairness_csv(report, condition, args.out)
    return EXIT_OK


def cmd_import_features(args: argparse.Namespace) -> int:
    with FeatureStoreWriter(args.store, FeatureKind(args.kind), args.dim) as writer:
        for csv_path in args.files:
            frames = import_frames_csv(csv_path)
            video_id = Path(csv_path).stem
            writer.put(FeatureSequence(video_id, FeatureKind(args.kind), frames, args.fps))
        with writer.seal() as store:
            print(f"imported {len(store)} sequences into {args.store}")
    return EXIT_OK


# -- the end-to-end runner ----------------------------------------------------


def _resolve_split(catalog: cat.Catalog, path: str | Path | None, eval_fraction: float,
                   seed: int) -> proto.Split:
    """The split saved at ``path``, checked against ``catalog``; with no
    path, the one ``make_split`` draws with ``eval_fraction`` and ``seed``."""
    if path is not None:
        split = proto.load_split(path)
        split.validate(catalog)
        return split
    return proto.make_split(catalog, eval_fraction=eval_fraction, seed=seed)


def _job_models(job: proto.Job, config: RunConfig) -> list[str]:
    return list(job.models) if job.models else [m.name for m in config.models]


def _reference_condition(job: proto.Job) -> str:
    """Condition whose absolute AUC anchors this job's delta.

    A concrete training condition is compared against itself evaluated
    in-condition; union-trained jobs are compared against the in-condition
    model of their evaluation condition.
    """
    if job.train_generator == proto.ALL_GENERATORS:
        ds, gen = job.eval_dataset, job.eval_generator
    else:
        ds, gen = job.train_dataset, job.train_generator
    return f"{ds}/{gen}->{ds}/{gen}"


def _run_dir(config: RunConfig) -> Path:
    """The run's directory: one level below output_root, named by the
    sanitized run id. An id that would name output_root itself or its parent
    is a config error."""
    name = _sanitize(config.run_id)
    if name in ("", ".", ".."):
        raise ConfigError(f"run id {config.run_id!r} does not name a directory "
                          f"inside output_root")
    return config.output_root / name


def cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig.from_file(args.config)
    if args.run_id is not None:
        config.run_id = args.run_id
    if args.seed is not None:
        config.seed = args.seed
    if not config.experiments:
        raise ConfigError("config has no experiments to run")

    # everything that can reject the inputs runs before the run directory exists
    catalog = cat.load_manifest(config.identities, config.videos)
    split = _resolve_split(catalog, config.split, config.eval_fraction, config.seed)
    # the trial list is derived on every invocation and never read back
    trials = proto.generate_trials(catalog, split, config.convention)
    jobs = proto.experiment_matrix(config.experiments, catalog)
    specs = {m.name: m for m in config.models}
    run_dir = _run_dir(config)
    train_tasks = {
        (name, job.train_dataset, job.train_generator): _checkpoint_path(
            run_dir / "models", name, job.train_dataset, job.train_generator
        )
        for job in jobs
        for name in _job_models(job, config)
    }
    ordered_keys = sorted(train_tasks)
    score_paths = {job.job_id: run_dir / "scores" / f"{_sanitize(job.job_id)}.csv" for job in jobs}
    with ExitStack() as stack:
        models = _open_models(stack, [specs[name] for name in sorted({k[0] for k in train_tasks})],
                              config.seed)
        # one invocation at a time writes a run directory: the lock is the
        # directory's own, and closing its descriptor releases it
        run_dir.mkdir(parents=True, exist_ok=True)
        lock = os.open(run_dir, os.O_RDONLY)
        stack.callback(os.close, lock)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: run directory {run_dir} is in use by another run", file=sys.stderr)
            return EXIT_FAIL
        # the inputs are good: reports are always rebuilt whole, and --fresh
        # drops every other output of earlier invocations too
        for sub in ("trials", "models", "scores", "reports") if args.fresh else ("reports",):
            if (run_dir / sub).is_dir():
                shutil.rmtree(run_dir / sub)
        # a file under models/ or scores/ that a first run of this config
        # would not write is left from an earlier config
        keep = {q for p in train_tasks.values() for q in (
            p, _marker(p), p.with_suffix(".log.json"), p.with_suffix(".diverged.avck"))}
        keep.update(q for p in score_paths.values() for q in (p, _marker(p)))
        for sub in ("models", "scores"):
            for orphan in (run_dir / sub).glob("*"):
                if orphan.is_file() and orphan not in keep:
                    orphan.unlink()

        write_json(run_dir / "config" / "effective.json", config.effective())
        proto.save_split(split, run_dir / "split" / "split.json")

        # the trial list's file is rewritten only when its inputs change
        trial_inputs = {
            "convention": config.convention,
            "split": [sorted(split.development), sorted(split.evaluation)],
            "manifest": [_file_sha256(config.identities), _file_sha256(config.videos)],
        }
        _reuse_or_make(run_dir / "trials" / "trials.csv", trial_inputs,
                       lambda path: proto.save_trials(trials, path), lambda path: None)
        print(f"{len(trials):,d} trials")

        # one checkpoint per (model, training condition)
        def run_training(key: tuple[str, str, str]) -> str | None:
            name, ds, gen = key
            spec = specs[name]
            out_path = train_tasks[key]
            try:
                inputs = {
                    "embedder": spec.embedder,
                    "hyper": asdict(spec.hyper),
                    # its content, not its path; only a graph encoder reads it
                    "adjacency": (_file_sha256(spec.adjacency)
                                  if spec.embedder.get("graph") else None),
                    "seed": config.seed,
                    "store": _store_header(models[name].store),
                    "train": [ds, gen],
                    "split": [sorted(split.development), sorted(split.evaluation)],
                }
                _reuse_or_make(
                    out_path,
                    inputs,
                    lambda path: _train_one(models[name], catalog, split, ds, gen, path),
                    lambda path: None,
                )
                # the checkpoint is current: one that diverged before is stale
                out_path.with_suffix(".diverged.avck").unlink(missing_ok=True)
                return None
            except TrainingDiverged as exc:
                save_checkpoint(exc.params, out_path.with_suffix(".diverged.avck"))
                return f"train {name} on {ds}/{gen}: {exc}"
            except Exception as exc:  # job isolation: one failure must not sink the run
                return f"train {name} on {ds}/{gen}: {exc}"

        train_failures = dict(zip(ordered_keys, _map(run_training, ordered_keys, args.workers)))
        print(f"{len(train_tasks)} training conditions done")

        # one task per job: score it (or read its table back), evaluate it and
        # write its reports
        reports_dir = run_dir / "reports"

        def run_job(job: proto.Job) -> tuple[str | None, list[ev.EvalReport]]:
            stem = _sanitize(job.job_id)
            checkpoints = {}
            for name in _job_models(job, config):
                key = (name, job.train_dataset, job.train_generator)
                if train_failures[key]:
                    return f"score {job.job_id}: training failed for {name}", []
                checkpoints[name] = train_tasks[key]
            try:
                inputs = {
                    "checkpoints": {m: _file_sha256(ckpt) for m, ckpt in checkpoints.items()},
                    "stores": {m: _store_header(models[m].store) for m in checkpoints},
                    "trials": trial_inputs,
                    "fusion": [config.fusion_enabled, config.fusion_zscore],
                    # a table in another layout is not read back but made again
                    "layout": proto.TRIAL_HEADER,
                }
                table = _reuse_or_make(
                    score_paths[job.job_id],
                    inputs,
                    lambda path: _score_job(config, checkpoints, models,
                                            trials.select(job.eval_dataset, job.eval_generator),
                                            path, f"{job.eval_dataset}/{job.eval_generator}"),
                    sc.read_score_table,
                )
            except Exception as exc:
                return f"score {job.job_id}: {exc}", []
            try:
                reports = ev.evaluate_rows(table.rows, job.condition)
                ev.write_fairness_csv(ev.fairness_report(table.rows, catalog), job.condition,
                                      reports_dir / f"fairness_{stem}.csv")
                _write_rocs(table, reports, reports_dir, job.job_id)
            except Exception as exc:
                return f"report {job.job_id}: {exc}", []
            return None, reports

        results = _map(run_job, jobs, args.workers)
        failures = [f for f in train_failures.values() if f] + [f for f, _ in results if f]
        print(f"{sum(f is None for f, _ in results)}/{len(jobs)} jobs scored")

        all_reports = [r for _, reports in results for r in reports]
        if all_reports:
            ev.write_report_csv(all_reports, reports_dir / "report.csv")
            write_text(reports_dir / "report.txt", ev.render_report_text(all_reports))
            # a job's delta is against its reference condition; a group whose
            # reference job did not report is skipped
            by_reference: dict[str, list[ev.EvalReport]] = {}
            for job, (_, reports) in zip(jobs, results):
                by_reference.setdefault(_reference_condition(job), []).extend(reports)
            for ref, group in sorted(by_reference.items()):
                try:
                    table = ev.delta_table(group, ref)
                except ev.EvaluationError:
                    continue
                write_text(reports_dir / f"delta_{_sanitize(ref)}.txt", ev.render_delta_text(table))

        if failures:
            write_text(reports_dir / "failures.txt", "\n".join(failures) + "\n")
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return EXIT_FAIL
        print(f"reports in {reports_dir}")
        return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avatarprint",
        description="Verification engine and benchmark harness for avatar fingerprinting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest against the published counts")
    p.add_argument("--identities", required=True)
    p.add_argument("--videos", required=True)
    p.add_argument("--profile", choices=["full", "development", "evaluation"],
                   default="full")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--identities-n", type=int, default=20, help="identities per dataset")
    p.add_argument("--videos-per-id", type=int, default=10)
    p.add_argument("--frames", default="64,100", help="frame count N or range LO,HI")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset", default=cat.Dataset.CREMA_D.value,
                   help="comma-separated dataset names; each after the first is "
                        "rendered through the dataset shift")
    p.add_argument("--generators", default=cat.Generator.GAGA.value,
                   help="comma-separated generator names")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--targets-per-driver", type=int, default=4)
    p.add_argument("--clips-per-driver", type=int, default=2)
    p.add_argument("--eval-fraction", type=_fraction, default=0.3)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("trials", help="write the exhaustive trial list")
    p.add_argument("--identities", required=True)
    p.add_argument("--videos", required=True)
    p.add_argument("--split", help="existing split.json; derived when omitted")
    p.add_argument("--split-out", help="where to write the split used")
    p.add_argument("--eval-fraction", type=_fraction, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--convention", default=proto.EXCLUDE_IDENTICAL,
                   choices=proto.CONVENTIONS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("train", help="train configured models")
    p.add_argument("--config", required=True)
    p.add_argument("--model", help="train only this model")
    p.add_argument("--train-dataset", default=cat.Dataset.CREMA_D.value,
                   choices=[d.value for d in cat.Dataset])
    p.add_argument("--train-generator", default=proto.ALL_GENERATORS,
                   choices=[proto.ALL_GENERATORS, *(g.value for g in cat.Generator)])
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a trial list with trained checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--checkpoint", action="append", required=True,
                   metavar="NAME=PATH")
    p.add_argument("--eval-dataset", choices=[d.value for d in cat.Dataset])
    p.add_argument("--eval-generator", choices=[g.value for g in cat.Generator])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="AUC report from a score table")
    p.add_argument("--scores", required=True)
    p.add_argument("--condition")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fairness", help="subgroup AUC breakdown from a score table")
    p.add_argument("--scores", required=True)
    p.add_argument("--identities", required=True)
    p.add_argument("--videos", required=True)
    p.add_argument("--condition")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fairness)

    p = sub.add_parser("run", help="execute the full experiment matrix from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--run-id")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="parallel training and scoring jobs (default 1)")
    p.add_argument("--fresh", action="store_true",
                   help="delete the run's trials, models, scores and reports, "
                        "then recompute everything")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("import-features", help="build a store from per-video CSV files")
    p.add_argument("--store", required=True)
    p.add_argument("--kind", default=FeatureKind.EMBEDDING.value,
                   choices=[k.value for k in FeatureKind])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_import_features)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
