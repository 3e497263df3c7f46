"""Verification protocol: identity-disjoint splits, exhaustive trial lists,
and experiment matrices.

A trial pairs a self-reenactment enrollment video with a test video of the
same target identity: genuine when the test is driven by the same person,
impostor when a different person drives the target's avatar. Both sides of a
trial always come from evaluation-split identities.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .catalog import (
    CANONICAL_EVAL_IDENTITIES,
    CANONICAL_IDENTITIES,
    Catalog,
    Dataset,
    Generator,
)
from .files import read_csv, write_csv, write_json


class ProtocolError(ValueError):
    pass


# -- split -------------------------------------------------------------------


@dataclass(frozen=True)
class Split:
    development: frozenset[str]
    evaluation: frozenset[str]
    imbalance: tuple[str, ...] = ()  # stratification cells that missed quota

    def __post_init__(self) -> None:
        overlap = self.development & self.evaluation
        if overlap:
            raise ProtocolError(f"identities on both sides: {sorted(overlap)[:5]}")

    def side_of(self, identity: str) -> str:
        if identity in self.development:
            return "dev"
        if identity in self.evaluation:
            return "eval"
        raise ProtocolError(f"identity {identity!r} is in neither side")

    def validate(self, catalog: Catalog) -> None:
        """Check the split covers the catalog and never separates the driver
        and target of any video."""
        all_ids = set(catalog.identities)
        covered = self.development | self.evaluation
        if covered != all_ids:
            missing = sorted(all_ids - covered)[:5]
            extra = sorted(covered - all_ids)[:5]
            raise ProtocolError(
                f"split does not cover the catalog (missing {missing}, unknown {extra})"
            )
        for video in catalog.videos():
            if self.side_of(video.driver) != self.side_of(video.target):
                raise ProtocolError(
                    f"video {video.video_id} straddles the split: driver "
                    f"{video.driver} and target {video.target} are on different sides"
                )


def save_split(split: Split, path: str | Path) -> None:
    write_json(path, {
        "development": sorted(split.development),
        "evaluation": sorted(split.evaluation),
    })


def load_split(path: str | Path) -> Split:
    """The split ``save_split`` wrote to ``path``; a side that is missing or
    not a list of identity ids is a ``ProtocolError`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    sides = []
    for side in ("development", "evaluation"):
        ids = payload.get(side) if isinstance(payload, dict) else None
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ProtocolError(f"{path}: {side!r} must be a list of identity ids")
        sides.append(frozenset(ids))
    return Split(*sides)


def _components(catalog: Catalog, ids: Sequence[str]) -> list[list[str]]:
    """Connected components of the driver/target co-occurrence graph.

    Identities that ever share a video must land on the same split side, so
    they form one indivisible unit.
    """
    parent = {i: i for i in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    id_set = set(ids)
    for video in catalog.videos():
        if video.driver in id_set and video.target in id_set:
            union(video.driver, video.target)
    groups: dict[str, list[str]] = defaultdict(list)
    for i in ids:
        groups[find(i)].append(i)
    return [sorted(g) for g in groups.values()]


def _eval_quota(dataset: Dataset, n_ids: int, eval_fraction: float) -> int:
    canonical = CANONICAL_IDENTITIES.get(dataset)
    if canonical == n_ids:
        return CANONICAL_EVAL_IDENTITIES[dataset]
    return max(1, min(n_ids - 1, round(n_ids * eval_fraction)))


def make_split(
    catalog: Catalog,
    eval_fraction: float = 0.3,
    stratify_on: Sequence[str] = ("gender", "ethnicity", "age_range"),
    seed: int = 0,
    eval_counts: Mapping[Dataset, int] | None = None,
) -> Split:
    """Identity-disjoint development/evaluation split, stratified on
    soft-biometric attributes per dataset.

    Evaluation counts default to the canonical benchmark sizes when the
    catalog has the canonical identity counts, else to round(n * fraction).
    When every co-occurrence component is a single identity the per-cell
    quotas are met exactly; larger components force best-effort assignment,
    reported through Split.imbalance.
    """
    rng = np.random.default_rng(seed)
    development: set[str] = set()
    evaluation: set[str] = set()
    imbalance: list[str] = []

    for dataset in catalog.datasets():
        ids = catalog.identity_ids(dataset)
        if len(ids) < 2:
            raise ProtocolError(f"{dataset.value}: need >= 2 identities to split")
        if eval_counts is not None:
            quota = eval_counts[dataset]
            if not (1 <= quota <= len(ids) - 1):
                raise ProtocolError(
                    f"{dataset.value}: evaluation quota {quota} out of range"
                )
        else:
            quota = _eval_quota(dataset, len(ids), eval_fraction)

        def cell_of(identity: str) -> tuple:
            rec = catalog.identities[identity]
            return tuple(getattr(rec, attr).value for attr in stratify_on)

        components = _components(catalog, ids)
        if all(len(c) == 1 for c in components):
            # per-cell largest-remainder quotas, then seeded draws per cell
            by_cell: dict[tuple, list[str]] = defaultdict(list)
            for i in ids:
                by_cell[cell_of(i)].append(i)
            cells = sorted(by_cell, key=lambda c: (-len(by_cell[c]), c))
            raw = {c: quota * len(by_cell[c]) / len(ids) for c in cells}
            quotas = {c: int(raw[c]) for c in cells}
            leftovers = sorted(
                cells, key=lambda c: (-(raw[c] - quotas[c]), -len(by_cell[c]), c)
            )
            short = quota - sum(quotas.values())
            for c in leftovers[:short]:
                quotas[c] += 1
            for c in cells:
                members = sorted(by_cell[c])
                rng.shuffle(members)
                if quotas[c] > len(members):
                    imbalance.append(
                        f"{dataset.value} cell {c}: quota {quotas[c]} exceeds "
                        f"{len(members)} identities"
                    )
                take = min(quotas[c], len(members))
                evaluation.update(members[:take])
                development.update(members[take:])
        else:
            # components tie identities together; greedily fill the smaller
            # side while it still has room
            order = sorted(components, key=len, reverse=True)
            rng.shuffle(order)
            order.sort(key=len, reverse=True)
            assigned_eval = 0
            for comp in order:
                if assigned_eval + len(comp) <= quota:
                    evaluation.update(comp)
                    assigned_eval += len(comp)
                else:
                    development.update(comp)
            if assigned_eval != quota:
                imbalance.append(
                    f"{dataset.value}: evaluation side has {assigned_eval} "
                    f"identities, wanted {quota} (component constraints)"
                )

    split = Split(frozenset(development), frozenset(evaluation), tuple(imbalance))
    split.validate(catalog)
    return split


# -- trials --------------------------------------------------------------------


class Trial(NamedTuple):
    trial_id: str
    dataset: str
    generator: str
    enroll_video: str
    test_video: str
    label: int  # 1 genuine, 0 impostor


EXCLUDE_IDENTICAL = "exclude_identical"
INCLUDE_IDENTICAL = "include_identical"
CONVENTIONS = (EXCLUDE_IDENTICAL, INCLUDE_IDENTICAL)


def generate_trials(
    catalog: Catalog,
    split: Split,
    convention: str = EXCLUDE_IDENTICAL,
) -> list[Trial]:
    """Exhaustive genuine and impostor trials over evaluation identities.

    Genuine: every ordered pair of same-driver self-reenactment videos within
    one (dataset, generator); include_identical keeps the enrollment video
    also serving as its own test. Impostor: every self-reenactment enrollment
    against every cross-reenactment of the same target by a different driver.
    Output order and trial ids are canonical and stable.
    """
    if convention not in CONVENTIONS:
        raise ProtocolError(f"unknown convention {convention!r}")
    if not split.evaluation:
        raise ProtocolError("evaluation side of the split is empty")
    eval_ids = split.evaluation

    self_videos: dict[tuple[Dataset, Generator, str], list[str]] = defaultdict(list)
    cross_videos: dict[tuple[Dataset, Generator, str], list[str]] = defaultdict(list)
    for video in catalog.videos():
        if video.driver not in eval_ids or video.target not in eval_ids:
            continue
        key = (video.dataset, video.generator, video.target)
        if video.is_self:
            self_videos[key].append(video.video_id)
        else:
            cross_videos[key].append(video.video_id)

    trials: list[Trial] = []
    counter = 0
    datasets = sorted({k[0] for k in self_videos}, key=lambda d: d.value)
    for dataset in datasets:
        generators = sorted(
            {k[1] for k in self_videos if k[0] == dataset}, key=lambda g: g.value
        )
        for generator in generators:
            # enum values read once per block: the property lookup is costly per trial
            ds, gen = dataset.value, generator.value
            identities = sorted(
                k[2] for k in self_videos if k[0] == dataset and k[1] == generator
            )
            for identity in identities:
                key = (dataset, generator, identity)
                enrolls = sorted(self_videos[key])
                tests_cross = sorted(cross_videos.get(key, []))
                for enroll in enrolls:
                    for test in enrolls:
                        if convention == EXCLUDE_IDENTICAL and enroll == test:
                            continue
                        counter += 1
                        trials.append(Trial(f"t{counter:08d}", ds, gen, enroll, test, 1))
                    for test in tests_cross:
                        counter += 1
                        trials.append(Trial(f"t{counter:08d}", ds, gen, enroll, test, 0))
    return trials


def trial_counts(trials: Iterable[Trial]) -> dict[tuple[str, str, int], int]:
    """Counts keyed by (dataset, generator, label)."""
    counts: dict[tuple[str, str, int], int] = defaultdict(int)
    for t in trials:
        counts[(t.dataset, t.generator, t.label)] += 1
    return dict(counts)


TRIAL_HEADER = ["trial_id", "dataset", "generator", "enroll_video", "test_video", "label"]


def save_trials(trials: Iterable[Trial], path: str | Path) -> None:
    write_csv(path, TRIAL_HEADER, trials)


def load_trials(path: str | Path) -> list[Trial]:
    """The trials of a file written by ``save_trials``, in file order. Like a
    generated list, the loaded one keeps one string per distinct dataset,
    generator and video id, shared by every trial that names it; trial ids
    are unique and are not shared."""
    share = {}.setdefault
    return [
        Trial(trial_id, share(dataset, dataset), share(generator, generator),
              share(enroll, enroll), share(test, test), int(label))
        for trial_id, dataset, generator, enroll, test, label
        in read_csv(path, TRIAL_HEADER, ProtocolError)
    ]


# -- experiment matrix -----------------------------------------------------------

ALL_GENERATORS = "All"

SCENARIO_INTRA = "intra"
SCENARIO_CROSS_GENERATOR = "cross_generator"
SCENARIO_CROSS_DATASET = "cross_dataset"
_SCENARIOS = (SCENARIO_INTRA, SCENARIO_CROSS_GENERATOR, SCENARIO_CROSS_DATASET)


@dataclass(frozen=True)
class ExperimentSpec:
    """One row of an experiment table: a training condition evaluated on one
    or more generator conditions of one dataset."""

    scenario: str
    train_dataset: str
    train_generator: str  # a generator name or "All"
    eval_dataset: str
    eval_generators: tuple[str, ...]
    models: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ProtocolError(f"unknown scenario {self.scenario!r}")
        if self.scenario == SCENARIO_INTRA:
            if self.train_dataset != self.eval_dataset or self.eval_generators != (
                self.train_generator,
            ):
                raise ProtocolError(
                    "intra scenario requires identical train and eval conditions"
                )
        if self.scenario == SCENARIO_CROSS_GENERATOR and self.train_dataset != self.eval_dataset:
            raise ProtocolError("cross_generator scenario must stay within one dataset")
        if self.scenario == SCENARIO_CROSS_DATASET:
            if self.train_dataset == self.eval_dataset:
                raise ProtocolError("cross_dataset scenario needs two datasets")
            if self.train_generator == ALL_GENERATORS or any(
                g != self.train_generator for g in self.eval_generators
            ):
                raise ProtocolError("cross_dataset scenario keeps the generator fixed")

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentSpec":
        return cls(
            scenario=d["scenario"],
            train_dataset=d["train_dataset"],
            train_generator=d["train_generator"],
            eval_dataset=d["eval_dataset"],
            eval_generators=tuple(d["eval_generators"]),
            models=tuple(d.get("models", ())),
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "train_dataset": self.train_dataset,
            "train_generator": self.train_generator,
            "eval_dataset": self.eval_dataset,
            "eval_generators": list(self.eval_generators),
            "models": list(self.models),
        }


class Job(NamedTuple):
    job_id: str
    scenario: str
    train_dataset: str
    train_generator: str
    eval_dataset: str
    eval_generator: str
    models: tuple[str, ...]

    @property
    def condition(self) -> str:
        return (
            f"{self.train_dataset}/{self.train_generator}"
            f"->{self.eval_dataset}/{self.eval_generator}"
        )


def experiment_matrix(
    specs: Sequence[ExperimentSpec], catalog: Catalog | None = None
) -> list[Job]:
    """Expand experiment rows into concrete jobs, deduplicated and in
    canonical order. With a catalog, referenced datasets and generators must
    exist in it."""
    if catalog is not None:
        have_ds = {d.value for d in catalog.datasets()}
        have_gen = {g.value for g in catalog.generators()}
    jobs: dict[str, Job] = {}
    for spec in specs:
        gens = {spec.train_generator} - {ALL_GENERATORS} | set(spec.eval_generators)
        if catalog is not None:
            for ds in (spec.train_dataset, spec.eval_dataset):
                if ds not in have_ds:
                    raise ProtocolError(f"experiment references unknown dataset {ds!r}")
            for g in gens:
                if g not in have_gen:
                    raise ProtocolError(f"experiment references unknown generator {g!r}")
        for eval_gen in spec.eval_generators:
            job_id = (
                f"{spec.train_dataset}-{spec.train_generator}"
                f"_to_{spec.eval_dataset}-{eval_gen}"
            ).replace("/", "-")
            if job_id in jobs:
                merged = tuple(dict.fromkeys(jobs[job_id].models + spec.models))
                jobs[job_id] = jobs[job_id]._replace(models=merged)
            else:
                jobs[job_id] = Job(
                    job_id=job_id,
                    scenario=spec.scenario,
                    train_dataset=spec.train_dataset,
                    train_generator=spec.train_generator,
                    eval_dataset=spec.eval_dataset,
                    eval_generator=eval_gen,
                    models=spec.models,
                )
    return [jobs[k] for k in sorted(jobs)]
