"""Catalog of synthetic talking-head avatar videos.

Models identities with soft-biometric attributes and self/cross reenactment
records; loads and saves flat CSV manifests and validates aggregate counts
against the published benchmark statistics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .files import read_csv, write_csv

if TYPE_CHECKING:
    from .protocol import Split


class CatalogError(ValueError):
    """A catalog invariant is violated."""


class ManifestError(CatalogError):
    """A manifest file cannot be parsed or breaks an invariant.

    Carries the file and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}: "
            if line is not None:
                where = f"{path}:{line}: "
        super().__init__(where + message)
        self.path = str(path) if path is not None else None
        self.line = line


class Dataset(str, Enum):
    CREMA_D = "CREMA-D"
    RAVDESS = "RAVDESS"


class Generator(str, Enum):
    GAGA = "GAGA"
    LIVE = "LIVE"
    HUNY = "HUNY"


class Gender(str, Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


class Ethnicity(str, Enum):
    AFRICAN_AMERICAN = "african_american"
    ASIAN = "asian"
    CAUCASIAN = "caucasian"
    HISPANIC = "hispanic"
    UNKNOWN = "unknown"


class AgeRange(str, Enum):
    R20_30 = "20-30"
    R31_45 = "31-45"
    R46_60 = "46-60"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IdentityRecord:
    """One human identity with optional soft-biometric annotations."""

    id: str
    dataset: Dataset
    gender: Gender = Gender.UNKNOWN
    ethnicity: Ethnicity = Ethnicity.UNKNOWN
    age_range: AgeRange = AgeRange.UNKNOWN

    def __post_init__(self) -> None:
        if not self.id:
            raise CatalogError("identity id must be non-empty")
        if not self.id.isprintable():
            raise CatalogError(f"identity id {self.id!r} holds a control character")


# the annotated fields of IdentityRecord: splits stratify on them and
# fairness reports break trials down by them
SOFT_BIOMETRICS = ("gender", "ethnicity", "age_range")


@dataclass(frozen=True)
class AvatarVideo:
    """One synthetic avatar video.

    ``target`` owns the avatar's appearance, ``driver`` supplies the motion.
    Self-reenactment means target == driver; anything else is a
    cross-reenactment (the impersonation case).
    """

    video_id: str
    dataset: Dataset
    generator: Generator
    target: str
    driver: str
    source_clip: int

    def __post_init__(self) -> None:
        if not self.video_id:
            raise CatalogError("video_id must be non-empty")
        if not self.video_id.isprintable():
            # no CSV this package writes could carry it: a \r ends a row on reading
            raise CatalogError(f"video_id {self.video_id!r} holds a control character")
        if self.source_clip < 0:
            raise CatalogError(f"video {self.video_id}: source_clip must be >= 0")

    @property
    def is_self(self) -> bool:
        return self.target == self.driver

    @property
    def reenactment(self) -> str:
        return "self" if self.is_self else "cross"


class Catalog:
    """Immutable collection of identities and videos.

    All invariants are checked at construction; instances are safe for
    concurrent reads.
    """

    def __init__(self, identities: Iterable[IdentityRecord], videos: Iterable[AvatarVideo]):
        self._identities: dict[str, IdentityRecord] = {}
        for rec in identities:
            if rec.id in self._identities:
                raise CatalogError(f"duplicate identity id {rec.id!r}")
            self._identities[rec.id] = rec

        self._videos: dict[str, AvatarVideo] = {}
        seen_tuples: set[tuple[str, str, Generator, int]] = set()
        for vid in videos:
            if vid.video_id in self._videos:
                raise CatalogError(f"duplicate video_id {vid.video_id!r}")
            key = (vid.target, vid.driver, vid.generator, vid.source_clip)
            if key in seen_tuples:
                raise CatalogError(
                    f"video {vid.video_id}: duplicate (target, driver, generator, clip) {key}"
                )
            seen_tuples.add(key)
            for role, ident in (("target", vid.target), ("driver", vid.driver)):
                rec = self._identities.get(ident)
                if rec is None:
                    raise CatalogError(f"video {vid.video_id}: unknown {role} identity {ident!r}")
                if rec.dataset != vid.dataset:
                    raise CatalogError(
                        f"video {vid.video_id}: {role} {ident!r} belongs to "
                        f"{rec.dataset.value}, video claims {vid.dataset.value}"
                    )
            self._videos[vid.video_id] = vid

    # -- queries ---------------------------------------------------------

    @property
    def identities(self) -> Mapping[str, IdentityRecord]:
        return self._identities

    def __len__(self) -> int:
        return len(self._videos)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._videos

    def video(self, video_id: str) -> AvatarVideo:
        try:
            return self._videos[video_id]
        except KeyError:
            raise CatalogError(f"unknown video_id {video_id!r}") from None

    def videos(
        self, dataset: Dataset | None = None, reenactment: str | None = None
    ) -> Iterator[AvatarVideo]:
        """Iterate videos, optionally filtered; ``reenactment`` is self|cross."""
        for vid in self._videos.values():
            if dataset is not None and vid.dataset != dataset:
                continue
            if reenactment is not None and vid.reenactment != reenactment:
                continue
            yield vid

    def identity_ids(self, dataset: Dataset | None = None) -> list[str]:
        return sorted(
            i for i, rec in self._identities.items() if dataset is None or rec.dataset == dataset
        )

    def datasets(self) -> list[Dataset]:
        return sorted({rec.dataset for rec in self._identities.values()}, key=lambda d: d.value)

    def generators(self) -> list[Generator]:
        return sorted({v.generator for v in self._videos.values()}, key=lambda g: g.value)

    def filter(
        self,
        datasets: Sequence[Dataset] | None = None,
        generators: Sequence[Generator] | None = None,
    ) -> "Catalog":
        """Restricted view as a new Catalog: the identities and videos of
        ``datasets``, the videos only of ``generators``; None keeps all."""
        dsets = set(datasets) if datasets is not None else None
        gens = set(generators) if generators is not None else None
        keep_videos = [
            v
            for v in self._videos.values()
            if (dsets is None or v.dataset in dsets) and (gens is None or v.generator in gens)
        ]
        keep_idents = [
            rec for rec in self._identities.values() if dsets is None or rec.dataset in dsets
        ]
        return Catalog(keep_idents, keep_videos)


# -- published benchmark statistics ---------------------------------------

# Videos per generator, per source dataset and reenactment kind, for the
# full corpus and for the canonical development/evaluation sides.
CANONICAL_COUNTS: dict[str, dict[tuple[Dataset, str], int]] = {
    "full": {
        (Dataset.CREMA_D, "self"): 6120,
        (Dataset.CREMA_D, "cross"): 11718,
        (Dataset.RAVDESS, "self"): 1440,
        (Dataset.RAVDESS, "cross"): 2745,
    },
    "development": {
        (Dataset.CREMA_D, "self"): 4392,
        (Dataset.CREMA_D, "cross"): 8280,
        (Dataset.RAVDESS, "self"): 960,
        (Dataset.RAVDESS, "cross"): 1905,
    },
    "evaluation": {
        (Dataset.CREMA_D, "self"): 1728,
        (Dataset.CREMA_D, "cross"): 3438,
        (Dataset.RAVDESS, "self"): 480,
        (Dataset.RAVDESS, "cross"): 840,
    },
}

VIDEOS_PER_IDENTITY = {Dataset.CREMA_D: 72, Dataset.RAVDESS: 60}
CANONICAL_IDENTITIES = {Dataset.CREMA_D: 85, Dataset.RAVDESS: 24}
CANONICAL_EVAL_IDENTITIES = {Dataset.CREMA_D: 24, Dataset.RAVDESS: 8}
CANONICAL_TOTAL_VIDEOS = 66069  # all generators, self + cross


CountTable = Mapping[tuple[Dataset, Generator, str], int]


def canonical_count_table(split: str = "full") -> dict[tuple[Dataset, Generator, str], int]:
    """Expected per-(dataset, generator, self/cross) video counts.

    ``split`` is one of full, development, evaluation. The corpus renders the
    same videos with every generator, so each generator carries the same
    expectation.
    """
    try:
        base = CANONICAL_COUNTS[split]
    except KeyError:
        raise CatalogError(f"unknown split {split!r}; expected full|development|evaluation")
    return {
        (ds, gen, kind): n for (ds, kind), n in base.items() for gen in Generator
    }


@dataclass(frozen=True)
class CountCell:
    dataset: Dataset
    generator: Generator
    reenactment: str
    expected: int
    actual: int

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass
class ValidationReport:
    cells: list[CountCell] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def failures(self) -> list[CountCell]:
        return [c for c in self.cells if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.cells:
            status = "ok" if c.passed else "FAIL"
            out.append(
                f"{c.dataset.value:8s} {c.generator.value:4s} {c.reenactment:5s} "
                f"expected {c.expected:>7,d} actual {c.actual:>7,d}  {status}"
            )
        return out


def validate_counts(catalog: Catalog, expected: CountTable) -> ValidationReport:
    """Compare per-(dataset, generator, self/cross) video counts to ``expected``.

    Mismatches become failing report cells, never exceptions.
    """
    actual: dict[tuple[Dataset, Generator, str], int] = defaultdict(int)
    for vid in catalog.videos():
        actual[(vid.dataset, vid.generator, vid.reenactment)] += 1
    report = ValidationReport()
    for key in sorted(expected, key=lambda k: (k[0].value, k[1].value, k[2])):
        ds, gen, kind = key
        report.cells.append(CountCell(ds, gen, kind, expected[key], actual.get(key, 0)))
    return report


# -- cross-reenactment synthesis ------------------------------------------


def cross_video_id(generator: Generator, target: str, driver: str, clip: int) -> str:
    return f"{generator.value.lower()}_{target}_{driver}_c{clip:03d}"


def build_cross_assignments(
    catalog: Catalog,
    split: Split,
    targets_per_driver: int = 8,
    clips_per_driver: int = 1,
    seed: int = 0,
) -> Catalog:
    """Add cross-reenactment records to a self-only catalog.

    For every driver identity, samples ``targets_per_driver`` distinct target
    identities from the driver's dataset and split side and
    ``clips_per_driver`` of the driver's clips without replacement, then
    emits one cross video per (target, clip) for every generator the driver's
    self videos were rendered with. Every identity must be on a side of
    ``split``. Deterministic given ``seed``.
    """
    if any(not v.is_self for v in catalog.videos()):
        raise CatalogError("build_cross_assignments requires a catalog without cross videos")
    if clips_per_driver < 0 or targets_per_driver < 1:
        raise CatalogError("targets_per_driver must be >= 1 and clips_per_driver >= 0")

    rng = np.random.default_rng(seed)
    new_videos = list(catalog.videos())

    for dataset in catalog.datasets():
        ids = catalog.identity_ids(dataset)
        clips_of: dict[str, list[int]] = defaultdict(list)
        gens_of: dict[str, set[Generator]] = defaultdict(set)
        for vid in catalog.videos(dataset=dataset):
            if vid.source_clip not in clips_of[vid.driver]:
                clips_of[vid.driver].append(vid.source_clip)
            gens_of[vid.driver].add(vid.generator)
        for driver in ids:
            side = split.side_of(driver)
            pool = [i for i in ids if i != driver and split.side_of(i) == side]
            if len(pool) < targets_per_driver:
                raise CatalogError(
                    f"driver {driver}: only {len(pool)} candidate targets, "
                    f"need {targets_per_driver}"
                )
            clips = sorted(clips_of.get(driver, []))
            if len(clips) < clips_per_driver:
                raise CatalogError(
                    f"driver {driver}: only {len(clips)} clips, need {clips_per_driver}"
                )
            targets = tuple(sorted(rng.choice(pool, size=targets_per_driver, replace=False)))
            sampled = tuple(
                int(c) for c in sorted(rng.choice(clips, size=clips_per_driver, replace=False))
            )
            for gen in sorted(gens_of.get(driver, ()), key=lambda g: g.value):
                for target in targets:
                    for clip in sampled:
                        new_videos.append(
                            AvatarVideo(
                                video_id=cross_video_id(gen, target, driver, clip),
                                dataset=dataset,
                                generator=gen,
                                target=target,
                                driver=driver,
                                source_clip=clip,
                            )
                        )

    return Catalog(catalog.identities.values(), new_videos)


# -- manifest I/O ----------------------------------------------------------

IDENTITY_HEADER = ["id", "dataset", "gender", "ethnicity", "age_range"]
VIDEO_HEADER = ["video_id", "dataset", "generator", "target_id", "driver_id", "source_clip"]


def _parse_enum(members: Mapping[str, Enum], raw: str, what: str, path: Path, line: int):
    """The member of ``members`` (value -> member, in definition order) whose
    value is ``raw``."""
    try:
        return members[raw]
    except KeyError:
        allowed = ", ".join(members)
        raise ManifestError(f"bad {what} {raw!r} (allowed: {allowed})", path, line) from None


def load_manifest(identities_path: str | Path, videos_path: str | Path) -> Catalog:
    """Load a catalog from its two-CSV manifest.

    Raises ManifestError with file and line number on parse problems, and
    CatalogError on invariant violations.
    """
    identities_path = Path(identities_path)
    videos_path = Path(videos_path)
    # value -> member dicts: a lookup per field costs far less than an Enum call
    datasets, generators, genders, ethnicities, ages = (
        {m.value: m for m in cls} for cls in (Dataset, Generator, Gender, Ethnicity, AgeRange)
    )
    identities: list[IdentityRecord] = []
    for lineno, row in enumerate(read_csv(identities_path, IDENTITY_HEADER, ManifestError), 2):
        if not row:
            continue
        if len(row) != len(IDENTITY_HEADER):
            raise ManifestError(f"expected {len(IDENTITY_HEADER)} fields, got {len(row)}",
                                identities_path, lineno)
        ident, ds, gender, eth, age = row
        dataset = _parse_enum(datasets, ds, "dataset", identities_path, lineno)
        annotation = (_parse_enum(genders, gender, "gender", identities_path, lineno),
                      _parse_enum(ethnicities, eth, "ethnicity", identities_path, lineno),
                      _parse_enum(ages, age, "age_range", identities_path, lineno))
        try:
            identities.append(IdentityRecord(ident, dataset, *annotation))
        except CatalogError as exc:
            raise ManifestError(str(exc), identities_path, lineno) from None

    videos: list[AvatarVideo] = []
    for lineno, row in enumerate(read_csv(videos_path, VIDEO_HEADER, ManifestError), 2):
        if not row:
            continue
        if len(row) != len(VIDEO_HEADER):
            raise ManifestError(f"expected {len(VIDEO_HEADER)} fields, got {len(row)}",
                                videos_path, lineno)
        video_id, ds, gen, target, driver, clip = row
        try:
            clip_idx = int(clip)
        except ValueError:
            raise ManifestError(f"bad source_clip {clip!r}", videos_path, lineno) from None
        dataset = _parse_enum(datasets, ds, "dataset", videos_path, lineno)
        generator = _parse_enum(generators, gen, "generator", videos_path, lineno)
        try:
            videos.append(AvatarVideo(video_id, dataset, generator, target, driver, clip_idx))
        except CatalogError as exc:
            raise ManifestError(str(exc), videos_path, lineno) from None

    return Catalog(identities, videos)


def save_manifest(catalog: Catalog, identities_path: str | Path, videos_path: str | Path) -> None:
    """Write the two-CSV manifest; deterministic row order (sorted by id)."""
    identities = (catalog.identities[ident] for ident in sorted(catalog.identities))
    write_csv(identities_path, IDENTITY_HEADER, (
        [rec.id, rec.dataset.value, rec.gender.value, rec.ethnicity.value, rec.age_range.value]
        for rec in identities
    ), lineterminator="\r\n")
    videos = sorted(catalog.videos(), key=lambda v: v.video_id)
    write_csv(videos_path, VIDEO_HEADER, (
        [vid.video_id, vid.dataset.value, vid.generator.value, vid.target, vid.driver,
         str(vid.source_clip)]
        for vid in videos
    ), lineterminator="\r\n")
