"""Video-to-video verification scoring.

Each video is cut into fixed-length windows (stride = half a window,
trailing frames dropped), every window is embedded, and a pair of videos is
scored by the mean of the full pairwise cosine matrix between their window
embeddings. ``gather_windows`` is the one place windows are cut, for
scoring and training alike. For unit rows the mean cosine is exactly the
dot product of the two videos' mean unit window embeddings,

    mean_ij <u_i, v_j> = <mean_i u_i, mean_j v_j>,

so ``mean_embeddings`` reduces each model to one (videos, d) matrix, every
video embedded once, and a whole ``TrialSet`` is scored per model by one
row-wise dot product of two (trials, d) matrices gathered by its enroll and
test columns. The set's video vocabulary is sorted by id, so the smaller
code of a pair is score_pair's first operand and the two paths agree bit
for bit. Multiple models fuse by averaging their per-trial scores,
optionally z-scored per model first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embedder import EmbedderParams, forward_batch
from .feature_store import FeatureStore
from .files import read_csv, write_csv
from .protocol import TrialSet


class ScoringError(ValueError):
    pass


def window_starts(num_frames: int, window_len: int, stride: int) -> list[int]:
    """Start indices 0, s, 2s, ... of complete windows; empty when the video
    is shorter than one window."""
    if window_len < 2 or stride < 1:
        raise ScoringError("window_len must be >= 2 and stride >= 1")
    if num_frames < window_len:
        return []
    count = (num_frames - window_len) // stride + 1
    return [i * stride for i in range(count)]


def gather_windows(frames: np.ndarray, starts, window_len: int) -> np.ndarray:
    """The windows of ``frames`` (T, D) that begin at ``starts``, as one
    (len(starts), window_len, D) copy."""
    return frames[np.asarray(starts, dtype=np.intp)[:, None] + np.arange(window_len)]


def video_window_embeddings(
    params: EmbedderParams, store: FeatureStore, video_id: str
) -> np.ndarray | None:
    """All window embeddings of one video as an (X, d) matrix, or None when
    the video is shorter than one window. Normalization parameters stored
    with the model are applied to the frames first."""
    seq = store.get(video_id)
    frames = seq.frames
    if params.normalization is not None:
        frames = params.normalization.apply(frames)
    window_len = params.config.window_len
    starts = window_starts(frames.shape[0], window_len, window_len // 2)
    if not starts:
        return None
    z, _ = forward_batch(params, gather_windows(frames, starts, window_len))
    return z


def mean_embeddings(
    params: EmbedderParams, store: FeatureStore, video_ids: Sequence[str]
) -> np.ndarray:
    """(len(video_ids), d): each video's window embeddings scaled to unit
    length and averaged, with a NaN row for a video shorter than one window."""
    means = np.full((len(video_ids), params.config.projection_dim), np.nan)
    for i, vid in enumerate(video_ids):
        z = video_window_embeddings(params, store, vid)
        if z is not None:
            means[i] = (z / np.linalg.norm(z, axis=1, keepdims=True)).mean(axis=0)
    return means


def _row_dots(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, d) matrices: every score is one of
    these, so a pair scored alone and within a table agree bit for bit."""
    return np.einsum("nd,nd->n", first, second)


@dataclass(frozen=True)
class PairScore:
    enroll_video: str
    test_video: str
    score: float | None  # None when either side has no complete window

    @property
    def unscorable(self) -> bool:
        return self.score is None


def score_pair(
    params: EmbedderParams, store: FeatureStore, enroll_video: str, test_video: str
) -> PairScore:
    """Mean over the full pairwise cosine matrix of the two videos' window
    embeddings. The two operands are put in a canonical order (smaller video
    id first) so the score is exactly symmetric in its arguments."""
    means = mean_embeddings(params, store, sorted((enroll_video, test_video)))
    score = float(_row_dots(means[:1], means[1:])[0])
    return PairScore(enroll_video, test_video, None if math.isnan(score) else score)


@dataclass(frozen=True, slots=True)
class ScoreRow:
    trial_id: str
    enroll_video: str
    test_video: str
    label: int
    model: str
    score: float | None


@dataclass
class ScoreTable:
    rows: list[ScoreRow] = field(default_factory=list)
    missing_videos: list[str] = field(default_factory=list)
    unscorable_trials: list[str] = field(default_factory=list)


FUSION_MODEL = "fusion"


def _zscore(scores: np.ndarray) -> np.ndarray:
    """Each model's scores standardized by the mean and standard deviation
    of its scorable (non-NaN) entries."""
    out = np.empty_like(scores)
    for row, s in enumerate(scores):
        vals = s[~np.isnan(s)]
        mu = float(vals.mean()) if vals.size else 0.0
        sd = float(vals.std()) if vals.size else 1.0
        out[row] = (s - mu) / (sd if sd > 0 else 1.0)
    return out


def score_trials(
    models: Mapping[str, tuple[EmbedderParams, FeatureStore]],
    trials: TrialSet,
    include_fusion: bool = True,
    zscore_fusion: bool = False,
) -> ScoreTable:
    """Score every trial with every model, in trial order.

    ``models`` maps a model id to its parameters and feature store. Trials
    whose videos lack features are flagged in missing_videos and get no rows.
    With more than one model a fused row (mean of per-model scores, optionally
    z-scored per model first) is appended per trial under model "fusion".
    """
    if not models:
        raise ScoringError("need at least one model")
    model_ids = sorted(models)

    # each distinct video is looked up once; the vocabulary is sorted
    lacking = np.array([any(vid not in models[m][1] for m in model_ids) for vid in trials.videos],
                       dtype=bool)
    kept = trials[~(lacking[trials.enroll] | lacking[trials.test])]
    # kept.videos is sorted by id, so this is score_pair's operand order
    first, second = np.minimum(kept.enroll, kept.test), np.maximum(kept.enroll, kept.test)

    # (models, trials); NaN marks a trial with a video shorter than one window
    scores = np.empty((len(model_ids), len(kept)))
    for row, m in enumerate(model_ids):
        means = mean_embeddings(*models[m], kept.videos)
        scores[row] = _row_dots(means[first], means[second])

    columns = list(model_ids)
    stacked = scores
    if include_fusion and len(model_ids) > 1:
        fused = (_zscore(scores) if zscore_fusion else scores).mean(axis=0)
        columns.append(FUSION_MODEL)
        stacked = np.vstack([scores, fused])
    values = [[None if math.isnan(s) else s for s in col] for col in stacked.tolist()]

    table = ScoreTable(missing_videos=list(itertools.compress(trials.videos, lacking.tolist())))
    for i, (trial_id, _, _, enroll, test, label) in enumerate(kept):
        for model, col in zip(columns, values):
            table.rows.append(ScoreRow(trial_id, enroll, test, label, model, col[i]))
    table.unscorable_trials = [t.trial_id for t in kept[np.isnan(scores).any(axis=0)]]
    return table


SCORE_HEADER = ["trial_id", "enroll_video", "test_video", "label", "model", "score"]


def write_score_table(table: ScoreTable, path: str | Path) -> None:
    write_csv(path, SCORE_HEADER, (
        [row.trial_id, row.enroll_video, row.test_video, row.label, row.model,
         "" if row.score is None else repr(row.score)]
        for row in table.rows
    ))


def read_score_table(path: str | Path) -> ScoreTable:
    """The rows of a file written by ``write_score_table``, in file order.
    The table keeps one string per distinct trial id, video id and model,
    shared by every row that names it."""
    share = {}.setdefault
    return ScoreTable([
        ScoreRow(share(trial_id, trial_id), share(enroll, enroll), share(test, test),
                 int(label), share(model, model), None if score == "" else float(score))
        for trial_id, enroll, test, label, model, score
        in read_csv(path, SCORE_HEADER, ScoringError)
    ])
