"""Triplet training of the window embedder.

Training reads each development video from the store once, into one
float32 frame matrix (the store's precision, so no value changes); it fits
the feature normalization on that matrix in float64 and replaces each
video's frames by ``NormalizationParams.model_input`` of them, the float32
frames scoring hands the embedder too. It keeps a start index per half-stride window into
the matrix; each batch is cut from it with
``scoring.gather_windows``, the same gather that scoring uses, so no tensor
of all windows is ever formed. Windows are labeled by the driver identity of
their source video; batches sample a few identities with several windows
each, mine triplets within the batch (anchor and positive share a driver,
the negative does not), and update all parameters with Adam on analytically
computed gradients. Everything is deterministic given the model seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .catalog import Catalog
from .embedder import (
    AdjacencyGraph,
    EmbedderConfig,
    EmbedderParams,
    NonFiniteError,
    attend,
    backward_batch,
    encode_frames,
    forward_batch,
    init_params,
)
from .feature_store import COMPUTE_DTYPE, FeatureStore, NormalizationParams, fit_normalization
from .scoring import gather_windows, window_starts


class TrainingError(ValueError):
    pass


class NoValidTripletError(TrainingError):
    """Fewer than two driver identities have usable windows."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last finite checkpoint and log."""

    def __init__(self, params: EmbedderParams, log: "TrainingLog", epoch: int):
        super().__init__(f"training diverged in epoch {epoch}")
        self.params = params
        self.log = log


@dataclass(frozen=True)
class TrainHyper:
    """Optimization settings.

    Each step draws batch/windows_per_identity identities and
    windows_per_identity windows for each, producing one mined triplet per
    window, i.e. ``batch`` triplets per step. mining is one of semi-hard
    (hardest negative farther than the positive, falling back to the hardest
    overall), hardest, or random.
    """

    lr: float = 1e-3
    batch: int = 64
    epochs: int = 30
    margin: float = 0.2
    mining: str = "semi-hard"
    windows_per_identity: int = 4

    def __post_init__(self) -> None:
        if self.mining not in ("semi-hard", "hardest", "random"):
            raise TrainingError(f"unknown mining scheme {self.mining!r}")
        if self.batch % self.windows_per_identity != 0:
            raise TrainingError("batch must be a multiple of windows_per_identity")
        if self.windows_per_identity < 2:
            raise TrainingError("windows_per_identity must be >= 2")
        if self.batch // self.windows_per_identity < 2:
            raise TrainingError("each batch needs windows from >= 2 identities")
        if self.lr <= 0 or self.epochs < 1 or self.margin < 0:
            raise TrainingError("lr > 0, epochs >= 1, margin >= 0 required")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    active_fraction: float
    probe_loss: float


@dataclass
class TrainingLog:
    steps_per_epoch: int = 0
    num_windows: int = 0
    num_identities: int = 0
    initial_probe_loss: float = float("nan")
    epochs: list[EpochStats] = field(default_factory=list)
    diverged: bool = False


class Adam:
    """Adaptive first-order optimizer with bias-corrected moments."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad * grad
        m_hat = self.m / (1.0 - self.BETA1**self.t)
        v_hat = self.v / (1.0 - self.BETA2**self.t)
        flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def _collect_windows(
    store: FeatureStore, catalog: Catalog, dev_ids: set[str], window_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], NormalizationParams]:
    """Every development video, read once, and every training window in it.

    Returns (the videos' frames (T, D) in id order, as
    ``NormalizationParams.model_input`` gives them for the normalization
    fitted on them; the start of each window in them (N,); label indices
    (N,); label names; that normalization). Videos shorter than one window
    hold no window but count in the fit. A video whose normalized frames
    overflow float32 is a ``TrainingError`` naming it.
    """
    videos = sorted((v for v in catalog.videos() if v.driver in dev_ids and v.target in dev_ids),
                    key=lambda v: v.video_id)
    if not videos:
        raise TrainingError("no videos whose driver and target are development identities")
    missing = [v.video_id for v in videos if v.video_id not in store]
    if missing:
        raise TrainingError(
            f"{len(missing)} development videos lack stored features, "
            f"e.g. {missing[:3]}"
        )
    bounds = np.cumsum([0] + [store.num_frames(v.video_id) for v in videos]).tolist()
    spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    frames = np.empty((bounds[-1], store.dimension), COMPUTE_DTYPE)
    for video, span in zip(videos, spans):
        frames[span] = store.get(video.video_id).frames
    normalization = fit_normalization(
        store.dimension, lambda: (frames[s].astype(np.float64) for s in spans))
    for video, span in zip(videos, spans):
        frames[span] = normalization.model_input(frames[span])
        if not np.all(np.isfinite(frames[span])):
            raise TrainingError(f"video {video.video_id!r}: normalized frames overflow "
                                f"{COMPUTE_DTYPE.name}")
    starts: list[int] = []
    labels: list[str] = []
    for video, span in zip(videos, spans):
        video_starts = window_starts(span.stop - span.start, window_len)
        starts.extend(span.start + s for s in video_starts)
        labels.extend([video.driver] * len(video_starts))
    if not starts:
        raise TrainingError("every development video is shorter than one window")
    names = sorted(set(labels))
    if len(names) < 2:
        raise NoValidTripletError(
            f"triplets need >= 2 driver identities with windows, got {len(names)}"
        )
    index = {name: i for i, name in enumerate(names)}
    return (frames, np.array(starts, dtype=np.intp), np.array([index[l] for l in labels]),
            names, normalization)


def _squared_distances(z: np.ndarray) -> np.ndarray:
    sq = np.sum(z * z, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (z @ z.T)
    return np.maximum(d2, 0.0)


def _mine(
    d2: np.ndarray, labels: np.ndarray, mining: str, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pick one (positive, negative) per anchor from within-batch distances.

    The positive is the farthest other window of the anchor's identity (the
    anchor itself when it has none). semi-hard takes the closest negative
    farther than that positive, else the closest overall; hardest takes the
    closest overall. Ties go to the lowest index. random draws both
    uniformly, with one call on ``rng``.
    """
    n = d2.shape[0]
    rows = np.arange(n)
    same = labels[:, None] == labels[None, :]
    diff = ~same
    same[rows, rows] = False
    if mining == "random":
        # the largest of iid uniform keys falls on a uniformly random candidate
        keys = rng.random((2, n, n))
        pos = np.argmax(np.where(same, keys[0], -1.0), axis=1)
        neg = np.argmax(np.where(diff, keys[1], -1.0), axis=1)
    else:
        pos = np.argmax(np.where(same, d2, -np.inf), axis=1)
        neg = np.argmin(np.where(diff, d2, np.inf), axis=1)
    pos = np.where(same.any(axis=1), pos, rows)
    if mining == "semi-hard":
        ahead = diff & (d2 > d2[rows, pos][:, None])
        neg = np.where(
            ahead.any(axis=1), np.argmin(np.where(ahead, d2, np.inf), axis=1), neg
        )
    return pos, neg


def _batch_loss_grad(
    params: EmbedderParams,
    batch_windows: np.ndarray,
    batch_labels: np.ndarray,
    margin: float,
    mining: str,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, float]:
    z, state = forward_batch(params, batch_windows)
    d2 = _squared_distances(z)
    pos, neg = _mine(d2, batch_labels, mining, rng)
    n = z.shape[0]
    terms = d2[np.arange(n), pos] - d2[np.arange(n), neg] + margin
    active = terms > 0.0
    loss = float(np.maximum(terms, 0.0).mean())

    d_z = np.zeros_like(z)
    coeff = 2.0 / n
    a = np.flatnonzero(active)
    p, q = pos[a], neg[a]
    np.add.at(d_z, a, coeff * (z[q] - z[p]))
    np.add.at(d_z, p, coeff * (z[p] - z[a]))
    np.add.at(d_z, q, coeff * (z[a] - z[q]))
    grad = backward_batch(params, state, d_z)
    return loss, grad, float(active.mean())


def _make_probe(labels: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Window indices of ``size`` probe triplets: row 0 holds the anchors,
    row 1 the positives and row 2 the negatives."""
    triplets = np.empty((3, size), dtype=np.intp)
    present = np.unique(labels)
    for i in range(size):
        label = rng.choice(present)
        own = np.flatnonzero(labels == label)
        other = np.flatnonzero(labels != label)
        a = rng.choice(own)
        p = rng.choice(own[own != a]) if own.size > 1 else a
        triplets[:, i] = a, p, rng.choice(other)
    return triplets


def probe_loss(params: EmbedderParams, probe: np.ndarray, margin: float) -> float:
    """Mean triplet loss of ``probe``: the anchor, positive and negative
    windows of its triplets, stacked in that order. The windows are embedded
    as scoring embeds them, keeping nothing for a backward pass."""
    batch, frames, dim = probe.shape
    n = batch // 3
    encoded = encode_frames(params, probe.reshape(batch * frames, dim))
    z, _ = attend(params, encoded.reshape(batch, frames, encoded.shape[1]), None)
    za, zp, zn = z[:n], z[n : 2 * n], z[2 * n :]
    terms = np.sum((za - zp) ** 2, axis=1) - np.sum((za - zn) ** 2, axis=1) + margin
    return float(np.maximum(terms, 0.0).mean())


def train(
    store: FeatureStore,
    catalog: Catalog,
    development_ids: Iterable[str],
    config: EmbedderConfig,
    hyper: TrainHyper = TrainHyper(),
    graph: AdjacencyGraph | None = None,
) -> tuple[EmbedderParams, TrainingLog]:
    """Fit the embedder on development-split videos.

    Feature normalization is fitted on the same videos. Raises
    NoValidTripletError with fewer than two driver identities and
    TrainingDiverged (carrying the last finite checkpoint) if the loss turns
    non-finite.
    """
    frames, starts, labels, names, normalization = _collect_windows(
        store, catalog, set(development_ids), config.window_len)
    window_len = config.window_len

    per_step_ids = hyper.batch // hyper.windows_per_identity
    k = hyper.windows_per_identity
    steps_per_epoch = max(1, int(round(starts.size / hyper.batch)))

    # init_params consumes config.seed itself; batch sampling and the probe
    # get independent child streams of the same seed
    sample_seq, probe_seq = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(sample_seq)
    triplets = _make_probe(labels, hyper.batch, np.random.default_rng(probe_seq))
    probe_starts = starts[triplets.ravel()]

    params = init_params(config, normalization, graph)
    adam = Adam(params.size, hyper.lr)

    def probe() -> float:  # the windows are gathered per probe, not held between epochs
        return probe_loss(params, gather_windows(frames, probe_starts, window_len), hyper.margin)

    log = TrainingLog(
        steps_per_epoch=steps_per_epoch,
        num_windows=int(starts.size),
        num_identities=len(names),
        initial_probe_loss=probe(),
    )
    last_good = params.copy()

    by_label = [np.flatnonzero(labels == i) for i in range(len(names))]
    all_label_ids = np.arange(len(names))

    for epoch in range(1, hyper.epochs + 1):
        losses, actives = [], []
        for _ in range(steps_per_epoch):
            if len(names) >= per_step_ids:
                chosen = rng.choice(all_label_ids, size=per_step_ids, replace=False)
            else:
                extra = rng.choice(all_label_ids, size=per_step_ids - len(names), replace=True)
                chosen = np.concatenate([all_label_ids, extra])
            idx_chunks = []
            for label in chosen:
                pool = by_label[label]
                idx_chunks.append(rng.choice(pool, size=k, replace=pool.size < k))
            idx = np.concatenate(idx_chunks)
            try:
                loss, grad, frac = _batch_loss_grad(
                    params, gather_windows(frames, starts[idx], window_len), labels[idx],
                    hyper.margin, hyper.mining, rng,
                )
            except NonFiniteError as exc:
                log.diverged = True
                raise TrainingDiverged(last_good, log, epoch) from exc
            if not np.isfinite(loss):
                log.diverged = True
                raise TrainingDiverged(last_good, log, epoch)
            adam.step(params.flat, grad)
            losses.append(loss)
            actives.append(frac)
        if not np.all(np.isfinite(params.flat)):
            log.diverged = True
            raise TrainingDiverged(last_good, log, epoch)
        log.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                active_fraction=float(np.mean(actives)),
                probe_loss=probe(),
            )
        )
        last_good = params.copy()

    return params, log
