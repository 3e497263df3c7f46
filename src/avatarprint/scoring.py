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

Half-stride windows cover each frame twice, so ``mean_embeddings`` encodes
frames, not windows: it normalizes and encodes the frames of consecutive
videos, ``SCORE_FRAMES`` or a video more at a time, in one
``encode_frames`` call, then cuts each video's windows from its encoded
frames and attends over them (``video_window_embeddings``, the per-video
step). Attention stays per video: an encoded row depends on its frame
alone, but the attention logits' product over a batch does not round the
same in every batch size, and a pair scored alone must equal its row in a
table.

The result is a ``ScoreTable`` of columns: the scored trials' numbers,
video codes and labels, and one (models, trials) score array, NaN where a
trial is unscorable. Its CSV writer formats each distinct field once and
its reader parses rows straight into the columns; ``ScoreTable.rows``, the
``ScoreRow`` view evaluation reads, is built on first use.
"""

from __future__ import annotations

import collections
import csv
import gc
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embedder import EmbedderParams, NonFiniteError, attend, encode_frames
from .feature_store import FeatureStore
from .files import AtomicFile, csv_fields, read_csv
from .protocol import ROW_CHUNK, TrialSet, named_codes, trial_ids, trial_number


class ScoringError(ValueError):
    pass


def window_starts(num_frames: int, window_len: int) -> list[int]:
    """Start indices 0, s, 2s, ... of complete windows, at the stride s of
    half a window; empty when the video is shorter than one window."""
    if window_len < 2:
        raise ScoringError("window_len must be >= 2")
    if num_frames < window_len:
        return []
    stride = window_len // 2
    count = (num_frames - window_len) // stride + 1
    return [i * stride for i in range(count)]


def gather_windows(frames: np.ndarray, starts, window_len: int) -> np.ndarray:
    """The windows of ``frames`` (T, D) that begin at ``starts``, as one
    (len(starts), window_len, D) copy."""
    return frames[np.asarray(starts, dtype=np.intp)[:, None] + np.arange(window_len)]


SCORE_FRAMES = 2048  # frames normalized and encoded at a time when scoring


def video_window_embeddings(
    params: EmbedderParams, store: FeatureStore, video_id: str, encoded: np.ndarray | None = None
) -> np.ndarray | None:
    """All window embeddings of one video as an (X, d) matrix, or None when
    the video is shorter than one window. ``encoded`` is the video's frames
    as ``encode_frames`` gives them, up to the end of its last window, when
    the caller has encoded them (``mean_embeddings`` encodes many videos at
    once); otherwise the frames are read from ``store`` and normalized by
    the parameters stored with the model, then encoded here."""
    window_len = params.config.window_len
    if encoded is None:
        frames = _windowed_frames(store.get(video_id).frames, window_len)
        if frames is None:
            return None
        encoded = encode_frames(params, _normalized(params, frames))
    starts = window_starts(encoded.shape[0], window_len)
    z, _ = attend(params, gather_windows(encoded, starts, window_len), None)
    return z


def _windowed_frames(frames: np.ndarray, window_len: int) -> np.ndarray | None:
    """``frames`` up to the end of the last complete window (the trailing
    frames no window covers are dropped), or None when there is no window."""
    starts = window_starts(frames.shape[0], window_len)
    return frames[: starts[-1] + window_len] if starts else None


def _normalized(params: EmbedderParams, frames: np.ndarray) -> np.ndarray:
    return frames if params.normalization is None else params.normalization.apply(frames)


def _chunks(store: FeatureStore, video_ids: Sequence[str], window_len: int):
    """Consecutive videos with a window, as lists of (position in
    ``video_ids``, id, frames up to the end of the last window) holding at
    least ``SCORE_FRAMES`` frames each, but the last."""
    chunk: list[tuple[int, str, np.ndarray]] = []
    held = 0
    for row, vid in enumerate(video_ids):
        frames = _windowed_frames(store.get(vid).frames, window_len)
        if frames is None:
            continue
        chunk.append((row, vid, frames))
        held += frames.shape[0]
        if held >= SCORE_FRAMES:
            yield chunk
            chunk, held = [], 0
    if chunk:
        yield chunk


def mean_embeddings(
    params: EmbedderParams, store: FeatureStore, video_ids: Sequence[str]
) -> np.ndarray:
    """(len(video_ids), d): each video's window embeddings scaled to unit
    length and averaged, with a NaN row for a video shorter than one window.

    The frames of consecutive videos are normalized and encoded together,
    ``SCORE_FRAMES`` or a video more at a time, so each frame is encoded
    once although two windows cover it. Then each video's windows are cut
    from its encoded frames and attended apart from other videos'. A
    non-finite value raises ``NonFiniteError`` naming the video (for the
    encoded frames, the first video of the chunk that has one).
    """
    means = np.full((len(video_ids), params.config.projection_dim), np.nan)
    for chunk in _chunks(store, video_ids, params.config.window_len):
        frames = _normalized(params, np.concatenate([part for _, _, part in chunk]))
        bounds = np.cumsum([0] + [part.shape[0] for _, _, part in chunk]).tolist()
        spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        try:
            encoded = encode_frames(params, frames)
        except NonFiniteError as exc:
            for (_, vid, _), span in zip(chunk, spans):  # alone, to find the first at fault
                try:
                    encode_frames(params, frames[span])
                except NonFiniteError:
                    raise _located(exc, f"video {vid!r}") from None
            raise
        for (row, vid, _), span in zip(chunk, spans):
            try:
                z = video_window_embeddings(params, store, vid, encoded[span])
            except NonFiniteError as exc:
                raise _located(exc, f"video {vid!r}") from None
            means[row] = (z / np.linalg.norm(z, axis=1, keepdims=True)).mean(axis=0)
    return means


def _located(exc: NonFiniteError, where: str) -> NonFiniteError:
    """``exc`` saying ``where`` it surfaced, before what it said already."""
    return NonFiniteError(exc.layer, f"{where}, {exc.detail}" if exc.detail else where)


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


class ScoreTable:
    """Scores as columns: trial ``i``, with id ``f"t{number[i]:08d}"``, scores
    ``videos[enroll[i]]`` against ``videos[test[i]]`` with ``label[i]``, and
    ``scores[m, i]`` is model ``models[m]``'s score of it, NaN when the trial
    is unscorable. ``videos`` is the sorted tuple of the video ids the trials
    name; ``models`` is in table order, fusion last. ``missing_videos`` are
    the videos whose trials were left out for lack of features."""

    def __init__(self, videos: Sequence[str], models: Sequence[str], number: np.ndarray,
                 enroll: np.ndarray, test: np.ndarray, label: np.ndarray, scores: np.ndarray,
                 missing_videos: Sequence[str] = ()):
        self.number = np.asarray(number, dtype=np.int32)
        self.label = np.asarray(label, dtype=np.int8)
        self.videos, (self.enroll, self.test) = named_codes(
            videos, np.asarray(enroll, dtype=np.int32), np.asarray(test, dtype=np.int32))
        self.models = tuple(models)
        self.scores = np.asarray(scores, dtype=np.float64).reshape(len(self.models), len(self.number))
        self.missing_videos = list(missing_videos)
        self._rows: list[ScoreRow] | None = None

    @property
    def unscorable_trials(self) -> list[str]:
        """Trials some model could not score (a video shorter than one window)."""
        return trial_ids(self.number[np.isnan(self.scores).any(axis=0)].tolist())

    @property
    def rows(self) -> list[ScoreRow]:
        """One ``ScoreRow`` per trial and model in table order (trials outer,
        models inner; None for NaN), built on first use and kept. Equal
        strings are one object. The cyclic garbage collector is paused
        meanwhile: a row holds only strings and numbers, so the rows form no
        cycle, and each collection would only rescan every row made so far."""
        if self._rows is None:
            rows: list[ScoreRow] = []
            enabled = gc.isenabled()
            gc.disable()
            try:
                for start in range(0, len(self.number), ROW_CHUNK):
                    rows += self._row_chunk(slice(start, start + ROW_CHUNK))
            finally:
                if enabled:
                    gc.enable()
            self._rows = rows
        return self._rows

    def _row_chunk(self, part: slice) -> list[ScoreRow]:
        m, videos = len(self.models), self.videos

        def repeated(column: list) -> list:  # each entry once per model
            return list(itertools.chain.from_iterable(zip(*[column] * m)))

        scores = self.scores[:, part].T.ravel().tolist()
        columns = (
            repeated(trial_ids(self.number[part].tolist())),
            repeated([videos[e] for e in self.enroll[part].tolist()]),
            repeated([videos[t] for t in self.test[part].tolist()]),
            repeated(self.label[part].tolist()),
            list(self.models) * (len(scores) // m),
            [None if s != s else s for s in scores],
        )
        # fill the slots directly: no Python-level __init__ call per row
        rows = list(map(object.__new__, itertools.repeat(ScoreRow, len(scores))))
        for name, column in zip(ScoreRow.__slots__, columns):
            collections.deque(map(getattr(ScoreRow, name).__set__, rows, column), maxlen=0)
        return rows


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
    whose videos lack features are flagged in missing_videos and left out.
    With more than one model a fused score (mean of per-model scores,
    optionally z-scored per model first) follows under model "fusion".
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
        try:
            means = mean_embeddings(*models[m], kept.videos)
        except NonFiniteError as exc:
            raise _located(exc, f"model {m!r}") from None
        scores[row] = _row_dots(means[first], means[second])
    if include_fusion and len(model_ids) > 1:
        fused = (_zscore(scores) if zscore_fusion else scores).mean(axis=0)
        model_ids.append(FUSION_MODEL)
        scores = np.vstack([scores, fused])
    return ScoreTable(kept.videos, model_ids, kept.number, kept.enroll, kept.test, kept.label,
                      scores, itertools.compress(trials.videos, lacking.tolist()))


SCORE_HEADER = ["trial_id", "enroll_video", "test_video", "label", "model", "score"]


def write_score_table(table: ScoreTable, path: str | Path) -> None:
    """``table`` as CSV, one row per trial and model (trials outer, models
    inner), byte for byte what ``csv.writer`` (lines ending in a newline)
    writes for ``table.rows``: a score is its ``repr``, NaN an empty field.
    Each video id and model is formatted once."""
    videos = csv_fields(table.videos)
    models = [f"{model}," for model in csv_fields(table.models)]
    with AtomicFile(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(SCORE_HEADER)
        for start in range(0, len(table.number), ROW_CHUNK):
            part = slice(start, start + ROW_CHUNK)
            heads = [f"{trial_id},{videos[e]},{videos[t]},{label},"
                     for trial_id, e, t, label in zip(
                         trial_ids(table.number[part].tolist()), table.enroll[part].tolist(),
                         table.test[part].tolist(), table.label[part].tolist())]
            lines = []  # per model, one line per trial
            for model, column in zip(models, table.scores[:, part]):
                scores = list(map(repr, column.tolist()))
                for i in np.flatnonzero(np.isnan(column)).tolist():
                    scores[i] = ""
                lines.append([f"{head}{model}{score}\n" for head, score in zip(heads, scores)])
            fh.write("".join(itertools.chain.from_iterable(zip(*lines))))


def read_score_table(path: str | Path) -> ScoreTable:
    """The table in a file written by ``write_score_table``, in file order.

    The first trial's rows give the models and their order; every trial
    then has one row per model, consecutive and in that order, all with its
    videos and label. A row that breaks this layout, is not six fields, has
    a trial id other than "t" and 8 ASCII digits, a label other than 0/1 or
    a score that is neither empty nor a finite plain number (ASCII, with no
    underscore or surrounding whitespace, not ``nan`` or ``inf``), is a
    ``ScoringError`` naming the file and row.
    """
    rows = read_csv(path, SCORE_HEADER, ScoringError)
    first: list[list[str]] = []  # the first trial's rows
    for row in rows:
        if first and row[:1] != first[0][:1]:
            rows = itertools.chain(first, [row], rows)
            break
        first.append(row)
    else:
        rows = iter(first)
    models = [row[4] for row in first if len(row) == len(SCORE_HEADER)]
    cycle = len(models)

    number, label, enroll, test = array("i"), array("b"), array("i"), array("i")
    scores = array("d")
    empty = array("i")  # the rows whose score field is empty
    videos: dict[str, int] = {}
    video_code = videos.setdefault
    labels = {"0": 0, "1": 1}
    n, row, head = 0, None, None
    try:
        for n, model in enumerate(models):
            if model in models[:n]:
                row = first[n]
                raise ValueError("a model repeats within a trial")
        for n, row in enumerate(rows):
            trial_id, enroll_video, test_video, row_label, model, score = row
            k = n % cycle
            if k == 0:
                number.append(trial_number(trial_id))
                label.append(labels[row_label])
                enroll.append(video_code(enroll_video, len(videos)))
                test.append(video_code(test_video, len(videos)))
                head = row[:4]
            elif row[:4] != head:
                raise ValueError(f"each trial has {cycle} consecutive rows")
            if model != models[k]:
                raise ValueError(f"model {models[k]!r} expected, as in the first trial")
            # forms float() takes that the writer never writes; the rest of
            # them (nan, inf) parse to a value the finiteness check rejects
            if "_" in score or not score.isascii() or score.strip() != score:
                raise ValueError(f"score {score!r} is not a plain number")
            if score:
                scores.append(float(score))
            else:
                empty.append(len(scores))
                scores.append(math.nan)
        if cycle and len(scores) % cycle:
            n, row = len(scores), None
            raise ValueError(f"the last trial lacks model {models[len(scores) % cycle]!r}")
        # an empty field is the one way to write NaN: any other non-finite
        # value is text such as nan or inf, or a number that overflows
        finite = np.isfinite(np.frombuffer(scores))
        finite[np.frombuffer(empty, dtype=np.intc)] = True
        if not finite.all():
            n, row = int(np.argmin(finite)), None
            raise ValueError(f"score {scores[n]} is not finite")
    except (ValueError, KeyError, OverflowError) as exc:
        raise ScoringError(
            f"{path}: row {n + 1} is not in score table layout (trial id t and 8 digits, "
            f"enroll video, test video, label 0 or 1, model, score or empty): {exc}; {row!r}"
        ) from None
    return ScoreTable(list(videos), models, number, enroll, test, label,
                      np.frombuffer(scores).reshape(len(number), cycle).T)
