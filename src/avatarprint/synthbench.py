"""Desk-scale synthetic corpus with identity-specific motion signatures.

Every identity gets its own bank of sinusoids (4 per feature dimension,
0.5-4 Hz at 30 fps, mimicking blink and articulation rates) plus a mixing
matrix; a video is that trajectory sampled with a per-clip time offset and
per-video Gaussian noise. Cross-reenactments copy the driver's trajectory
verbatim under the target's appearance label, motion being all the features
carry. A corpus holds one or more datasets and one or more generators; both
shifts are applied while the store is written. Each later generator smooths
the clips more and adds a larger style bias; each later dataset also rescales
their amplitude, redraws their lengths and adds noise. The shifts act
uniformly across identities, so signatures stay partially recoverable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import (
    AgeRange,
    AvatarVideo,
    Catalog,
    Dataset,
    Ethnicity,
    Gender,
    Generator,
    IdentityRecord,
    build_cross_assignments,
    cross_video_id,
    save_manifest,
)
from .feature_store import FeatureKind, FeatureSequence, FeatureStore, FeatureStoreWriter
from .protocol import Split, make_split, save_split


class SynthError(ValueError):
    pass


FPS = 30.0
SINUSOIDS_PER_DIM = 4
FREQ_RANGE = (0.5, 4.0)  # Hz
MIN_SIGNATURE_DISTANCE = 0.05  # mean |freq difference| between identities, Hz


@dataclass(frozen=True)
class IdentitySignature:
    """Sinusoid bank and mixing matrix that define one identity's motion."""

    freqs: np.ndarray  # (D, 4) Hz
    phases: np.ndarray  # (D, 4) rad
    amps: np.ndarray  # (D, 4)
    mixing: np.ndarray  # (D, D)

    def trajectory(self, num_frames: int, time_offset: float) -> np.ndarray:
        """Noise-free (T, D) trajectory starting ``time_offset`` seconds in."""
        t = np.arange(num_frames) / FPS + time_offset
        angle = 2.0 * np.pi * self.freqs[None, :, :] * t[:, None, None] + self.phases
        return (self.amps * np.sin(angle)).sum(axis=2) @ self.mixing.T

    def distance(self, other: "IdentitySignature") -> float:
        return float(np.mean(np.abs(self.freqs - other.freqs)))


def _draw_signature(rng: np.random.Generator, dim: int) -> IdentitySignature:
    return IdentitySignature(
        freqs=rng.uniform(*FREQ_RANGE, size=(dim, SINUSOIDS_PER_DIM)),
        phases=rng.uniform(0.0, 2.0 * np.pi, size=(dim, SINUSOIDS_PER_DIM)),
        amps=rng.uniform(0.5, 1.5, size=(dim, SINUSOIDS_PER_DIM)),
        mixing=np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim),
    )


def make_signatures(
    n_identities: int, dim: int, seed_seq: np.random.SeedSequence
) -> list[IdentitySignature]:
    """Distinct signatures; redraws any candidate too close to an earlier one."""
    rng = np.random.default_rng(seed_seq)
    signatures: list[IdentitySignature] = []
    for _ in range(n_identities):
        for _attempt in range(100):
            candidate = _draw_signature(rng, dim)
            if all(candidate.distance(s) >= MIN_SIGNATURE_DISTANCE for s in signatures):
                break
        else:
            raise SynthError("could not find a sufficiently distinct signature")
        signatures.append(candidate)
    return signatures


# -- shift transforms -----------------------------------------------------------

@dataclass(frozen=True)
class ShiftTransform:
    """Feature-level stand-in for rendering with a different generator or
    drawing from a different source corpus. Applied identically to every
    identity, so it never encodes who is who. The defaults leave frames
    untouched."""

    smoothing_width: int = 1  # moving-average width; 1 = untouched
    style_bias: float = 0.0  # magnitude of a fixed additive style vector
    amplitude_rescale: float = 1.0
    noise_sigma: float = 0.0
    frame_range: tuple[int, int] | None = None  # redraw video lengths
    style_seed: int = 0

    def style_vector(self, dim: int) -> np.ndarray:
        if self.style_bias == 0.0:
            return np.zeros(dim)
        return np.random.default_rng(self.style_seed).standard_normal(dim) * self.style_bias


# what rendering a dataset after the first adds to its generator's transform
DATASET_SHIFT = {"amplitude_rescale": 0.6, "frame_range": (95, 120), "noise_sigma": 0.05}


def _smooth(frames: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return frames
    kernel = np.ones(width)
    weight = np.convolve(np.ones(frames.shape[0]), kernel, mode="same")
    out = np.empty_like(frames)
    for d in range(frames.shape[1]):
        out[:, d] = np.convolve(frames[:, d], kernel, mode="same") / weight
    return out


def shift_frames(
    frames: np.ndarray, transform: ShiftTransform, rng: np.random.Generator
) -> np.ndarray:
    """Apply one transform to one video's frames; rng supplies the video's
    length redraw and noise."""
    out = np.asarray(frames, dtype=np.float64)
    if transform.frame_range is not None:
        lo, hi = transform.frame_range
        new_len = int(rng.integers(lo, hi + 1))
        old_t = np.arange(out.shape[0], dtype=np.float64)
        new_t = np.linspace(0.0, out.shape[0] - 1.0, new_len)
        out = np.stack([np.interp(new_t, old_t, out[:, d]) for d in range(out.shape[1])], axis=1)
    out = _smooth(out, transform.smoothing_width)
    if transform.amplitude_rescale != 1.0:
        out = out * transform.amplitude_rescale
    bias = transform.style_vector(out.shape[1])
    if np.any(bias):
        out = out + bias
    if transform.noise_sigma > 0.0:
        out = out + rng.normal(0.0, transform.noise_sigma, size=out.shape)
    return out


def _video_rng(seed: int, video_id: str, purpose: int) -> np.random.Generator:
    # crc32 gives a stable per-video key; Python's hash() is salted per process
    return np.random.default_rng([seed, purpose, zlib.crc32(video_id.encode("utf-8"))])


# -- corpus ------------------------------------------------------------------------


_GENDER_CYCLE = (Gender.FEMALE, Gender.MALE)
_ETHNICITY_CYCLE = (
    Ethnicity.AFRICAN_AMERICAN,
    Ethnicity.ASIAN,
    Ethnicity.CAUCASIAN,
    Ethnicity.HISPANIC,
)
_AGE_CYCLE = (AgeRange.R20_30, AgeRange.R31_45, AgeRange.R46_60)

_DATASET_PREFIX = {Dataset.CREMA_D: "crem", Dataset.RAVDESS: "ravd"}


@dataclass
class SynthCorpus:
    catalog: Catalog
    store: FeatureStore
    split: Split
    root: Path
    store_path: Path


def synth_corpus(
    out_dir: str | Path,
    n_identities: int = 20,
    videos_per_id: int = 10,
    frames: int | tuple[int, int] = (64, 100),
    dim: int = 32,
    seed: int = 0,
    dataset: Dataset | Sequence[Dataset] = Dataset.CREMA_D,
    generators: Sequence[Generator] = (Generator.GAGA,),
    noise_sigma: float = 0.05,
    targets_per_driver: int = 4,
    clips_per_driver: int = 2,
    eval_fraction: float = 0.3,
) -> SynthCorpus:
    """Build a complete synthetic benchmark under ``out_dir``.

    Writes identities.csv, videos.csv, split.json and features.avfs.
    ``dataset`` is one dataset or several, each with ``n_identities``
    identities of its own; signatures and clip lengths are drawn dataset by
    dataset, so the first dataset's draws do not depend on the others. Each
    generator renders the same underlying clips; a per-generator transform
    emulates rendering differences: the first generator leaves the clips
    untouched, and each later one smooths them more and adds a larger style
    bias. Every dataset after the first is rendered through the generator's
    transform plus ``DATASET_SHIFT``. The split is computed before
    cross-reenactments are assigned, so drivers only ever impersonate
    targets of their own dataset and side.
    """
    datasets = [dataset] if isinstance(dataset, Dataset) else list(dataset)
    generators = list(generators)
    if n_identities < 2:
        raise SynthError("need at least 2 identities")
    if videos_per_id < 1 or dim < 1:
        raise SynthError("videos_per_id and dim must be >= 1")
    if isinstance(frames, int):
        frame_lo = frame_hi = frames
    else:
        frame_lo, frame_hi = frames
    if not (2 <= frame_lo <= frame_hi):
        raise SynthError(f"bad frame range {frames!r}")
    if noise_sigma < 0:
        raise SynthError("noise level must be >= 0")
    for kind, names in (("dataset", datasets), ("generator", generators)):
        if not names:
            raise SynthError(f"need at least one {kind}")
        if len(set(names)) < len(names):
            raise SynthError(f"repeated {kind} in {', '.join(n.value for n in names)}")

    out_dir = Path(out_dir)
    # index 0 gives width 1 and bias 0: the default, untouched frames
    transforms: dict[tuple[Dataset, Generator], ShiftTransform] = {}
    for idx, gen in enumerate(generators):
        own = ShiftTransform(smoothing_width=1 + 2 * idx, style_bias=0.2 * idx,
                             style_seed=100 + idx)
        for d_idx, ds in enumerate(datasets):
            transforms[(ds, gen)] = replace(own, **DATASET_SHIFT) if d_idx else own

    identities = [
        IdentityRecord(
            id=f"{_DATASET_PREFIX[ds]}{i:03d}",
            dataset=ds,
            gender=_GENDER_CYCLE[i % len(_GENDER_CYCLE)],
            ethnicity=_ETHNICITY_CYCLE[i % len(_ETHNICITY_CYCLE)],
            age_range=_AGE_CYCLE[i % len(_AGE_CYCLE)],
        )
        for ds in datasets
        for i in range(n_identities)
    ]
    identity_ids = [rec.id for rec in identities]

    sig_seq, length_seq = np.random.SeedSequence([seed, 11]).spawn(2)
    signatures = dict(zip(identity_ids, make_signatures(len(identity_ids), dim, sig_seq)))

    # one base trajectory per (driver, clip), shared by every generator's
    # rendering of that clip and by cross videos borrowing the motion
    length_rng = np.random.default_rng(length_seq)
    base: dict[tuple[str, int], np.ndarray] = {}
    for ident in identity_ids:
        for clip in range(videos_per_id):
            num = int(length_rng.integers(frame_lo, frame_hi + 1))
            offset = float(length_rng.uniform(0.0, 1.0))
            base[(ident, clip)] = signatures[ident].trajectory(num, offset)

    self_videos = [
        AvatarVideo(
            video_id=cross_video_id(gen, rec.id, rec.id, clip),
            dataset=rec.dataset,
            generator=gen,
            target=rec.id,
            driver=rec.id,
            source_clip=clip,
        )
        for gen in generators
        for rec in identities
        for clip in range(videos_per_id)
    ]
    self_catalog = Catalog(identities, self_videos)
    split = make_split(self_catalog, eval_fraction=eval_fraction, seed=seed)
    catalog = build_cross_assignments(
        self_catalog,
        split,
        targets_per_driver=targets_per_driver,
        clips_per_driver=clips_per_driver,
        seed=seed,
    )

    store_path = out_dir / "features.avfs"
    writer = FeatureStoreWriter(store_path, FeatureKind.EMBEDDING, dim)
    for video in sorted(catalog.videos(), key=lambda v: v.video_id):
        trajectory = base[(video.driver, video.source_clip)]
        transform = transforms[(video.dataset, video.generator)]
        rng = _video_rng(seed, video.video_id, purpose=3)
        rendered = shift_frames(trajectory, transform, rng)
        if noise_sigma > 0.0:
            rendered = rendered + _video_rng(seed, video.video_id, purpose=4).normal(
                0.0, noise_sigma, size=rendered.shape
            )
        writer.put(FeatureSequence(video.video_id, FeatureKind.EMBEDDING, rendered, FPS))
    store = writer.seal()

    save_manifest(catalog, out_dir / "identities.csv", out_dir / "videos.csv")
    save_split(split, out_dir / "split.json")
    return SynthCorpus(
        catalog=catalog,
        store=store,
        split=split,
        root=out_dir,
        store_path=store_path,
    )
