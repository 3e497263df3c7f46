"""Binary store for per-frame feature sequences.

Each avatar video contributes one T x D float matrix (facial landmark
coordinates or backbone embeddings). Sequences are stored once as 32-bit
floats in one self-describing file, then read back lock-free via positioned
reads. ``get`` widens a sequence to float64, the precision the
normalization is fitted and applied in; ``NormalizationParams.model_input``
hands the standardized frames to the embedder as ``COMPUTE_DTYPE``, the
store's float32, and the embedder returns float64 embeddings.

On-disk format, version 3: header (magic, version, kind, D, index offset,
digest) | float32 payloads | index trailer, the key-sorted JSON map
``{video_id: [offset, T, fps]}``. The index offset is 0 until ``seal()``
writes the trailer and moves the file from its temporary name into place,
so a store path holds a sealed store or nothing. The digest is the SHA-256
of the payloads and the trailer, hashed by the writer as it writes them, so
naming a store's content never rereads it. Stores of versions 1 (JSON
sidecar index) and 2 (no digest) are refused; rebuild them with ``synth`` or
``import-features``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .files import AtomicFile


class FeatureStoreError(ValueError):
    """Store-level failure: bad format, dimension mismatch, duplicate id."""


class MissingSequenceError(FeatureStoreError, KeyError):
    """Requested video_id is not in the store."""

    def __str__(self) -> str:  # KeyError quotes its args
        return ValueError.__str__(self)


class FeatureKind(str, Enum):
    LANDMARKS = "landmarks"
    EMBEDDING = "embedding"


LANDMARK_POINTS = 109  # per frame; landmark sequences carry x,y per point

_MAGIC = b"AVFS"
_VERSION = 3
_KIND_CODES = {FeatureKind.LANDMARKS: 0, FeatureKind.EMBEDDING: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_PREFIX = struct.Struct("<4sI")  # magic, version: the same in every version
_HEADER = struct.Struct("<4sIBIQ32s")  # magic, version, kind code, D, index offset, digest
_SEAL = struct.Struct("<Q32s")  # the index offset and digest that seal() writes last
_SEAL_AT = _HEADER.size - _SEAL.size


@dataclass
class FeatureSequence:
    """Per-frame features of one video: frames is T x D, row per frame."""

    video_id: str
    kind: FeatureKind
    frames: np.ndarray
    fps: float = 30.0

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise FeatureStoreError(
                f"{self.video_id}: frames must be a T x D matrix with T >= 1, "
                f"got shape {self.frames.shape}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise FeatureStoreError(f"{self.video_id}: non-finite feature values")
        if self.kind == FeatureKind.LANDMARKS and self.frames.shape[1] != 2 * LANDMARK_POINTS:
            raise FeatureStoreError(
                f"{self.video_id}: landmark sequences need D = {2 * LANDMARK_POINTS} "
                f"(x,y per point), got {self.frames.shape[1]}"
            )
        if not self.video_id:
            raise FeatureStoreError("video_id must be non-empty")
        if not 0 < self.fps < math.inf:
            raise FeatureStoreError(f"{self.video_id}: fps must be positive and finite")

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.frames.shape[1])


class FeatureStoreWriter:
    """Exclusive writer; call seal() to finish and enable readers. Until then
    the store exists only under a temporary name, which close() deletes."""

    def __init__(self, path: str | Path, kind: FeatureKind, dimension: int):
        if dimension < 1:
            raise FeatureStoreError("dimension must be >= 1")
        if kind == FeatureKind.LANDMARKS and dimension != 2 * LANDMARK_POINTS:
            raise FeatureStoreError(
                f"landmark stores need dimension {2 * LANDMARK_POINTS}, got {dimension}"
            )
        self.path = Path(path)
        if self.path.exists():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(self.path))
        self.kind = kind
        self.dimension = dimension
        self._entries: dict[str, tuple[int, int, float]] = {}  # id -> (offset, T, fps)
        self._sealed = False
        self._digest = hashlib.sha256()  # of every byte after the header
        self._pending = AtomicFile(self.path, "wb")
        self._fh = self._pending.file
        self._fh.write(_HEADER.pack(_MAGIC, _VERSION, _KIND_CODES[kind], dimension, 0, bytes(32)))

    def put(self, seq: FeatureSequence) -> None:
        if self._sealed:
            raise FeatureStoreError("store already sealed")
        if seq.dimension != self.dimension:
            raise FeatureStoreError(
                f"{seq.video_id}: dimension {seq.dimension} does not match "
                f"store dimension {self.dimension}"
            )
        if seq.video_id in self._entries:
            raise FeatureStoreError(f"duplicate video_id {seq.video_id!r}")
        with np.errstate(over="ignore"):  # overflow is raised as an error below
            payload = np.ascontiguousarray(seq.frames, dtype="<f4")
        if not np.all(np.isfinite(payload)):
            raise FeatureStoreError(f"{seq.video_id}: values overflow 32-bit storage")
        offset = self._fh.tell()
        self._fh.write(payload)
        self._digest.update(payload)
        self._entries[seq.video_id] = (offset, seq.num_frames, float(seq.fps))

    def close(self) -> None:
        """Abandon an unsealed writer: its temporary file is deleted and
        nothing appears at the store path. Does nothing after seal()."""
        if not self._sealed:
            self._pending.discard()

    def __enter__(self) -> "FeatureStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except AttributeError:  # interpreter teardown or failed __init__
            pass

    def seal(self) -> "FeatureStore":
        """Write the index trailer, point the header at it and record the
        digest there, move the file into place."""
        if self._sealed:
            raise FeatureStoreError("store already sealed")
        if self._fh.closed:
            raise FeatureStoreError("writer was closed without sealing")
        index_offset = self._fh.tell()
        index = json.dumps(self._entries, sort_keys=True).encode("utf-8")
        self._fh.write(index)
        self._digest.update(index)
        self._fh.seek(_SEAL_AT)
        self._fh.write(_SEAL.pack(index_offset, self._digest.digest()))
        self._pending.commit()
        self._sealed = True
        return FeatureStore(self.path)


class FeatureStore:
    """Sealed, read-only store; safe for concurrent lock-free readers."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd = -1  # closed until os.open succeeds, so __del__ has nothing to do
        self._fd = os.open(self.path, os.O_RDONLY)
        raw = os.pread(self._fd, _HEADER.size, 0)
        if len(raw) < _PREFIX.size:
            raise FeatureStoreError(f"{self.path}: truncated header")
        magic, version = _PREFIX.unpack_from(raw)
        if magic != _MAGIC:
            raise FeatureStoreError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FeatureStoreError(
                f"{self.path}: store format version {version}, this release reads only "
                f"version {_VERSION}; rebuild the store with synth or import-features"
            )
        if len(raw) < _HEADER.size:
            raise FeatureStoreError(f"{self.path}: truncated header")
        _, _, kind_code, dim, index_offset, digest = _HEADER.unpack(raw)
        if kind_code not in _CODE_KINDS:
            raise FeatureStoreError(f"{self.path}: unknown kind code {kind_code}")
        if index_offset == 0:
            raise FeatureStoreError(f"{self.path}: unsealed store (its writer never finished)")
        self.kind = _CODE_KINDS[kind_code]
        self.dimension = int(dim)
        self.digest = digest.hex()  # SHA-256 of everything after the header
        self._entries = self._read_index(index_offset)

    def _read_index(self, index_offset: int) -> dict[str, list]:
        """id -> [offset, T, fps]: an int offset past the header, an int T >= 1
        and a finite number fps > 0, each record checked to end before the
        index."""
        size = os.fstat(self._fd).st_size
        try:  # an offset past the end reads b"", which is no JSON either
            index = json.loads(os.pread(self._fd, max(size - index_offset, 0), index_offset))
        except ValueError:  # bad JSON or UTF-8
            raise FeatureStoreError(f"{self.path}: truncated or corrupt index") from None
        if type(index) is not dict:
            raise FeatureStoreError(f"{self.path}: index is not a map of video ids")
        for vid, record in index.items():
            # type() rather than isinstance(): JSON true and false are bools
            if not (type(record) is list and len(record) == 3
                    and type(record[0]) is int and record[0] >= _HEADER.size
                    and type(record[1]) is int and record[1] >= 1
                    and type(record[2]) in (int, float) and 0 < record[2] < math.inf):
                raise FeatureStoreError(
                    f"{self.path}: index record {vid!r} is not [offset, frames, fps]: {record!r}")
            offset, t, _ = record
            if offset + t * self.dimension * 4 > index_offset:
                raise FeatureStoreError(f"{self.path}: record {vid!r} runs past the index")
        return index

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._entries

    def ids(self) -> list[str]:
        return sorted(self._entries)

    def num_frames(self, video_id: str) -> int:
        return self._entries[video_id][1]  # as the index records it, without a read

    def get(self, video_id: str) -> FeatureSequence:
        try:
            offset, t, fps = self._entries[video_id]
        except KeyError:
            raise MissingSequenceError(f"no sequence stored for {video_id!r}") from None
        if self._fd < 0:
            raise FeatureStoreError(f"{self.path}: store is closed")
        nbytes = t * self.dimension * 4
        raw = os.pread(self._fd, nbytes, offset)
        if len(raw) != nbytes:
            raise FeatureStoreError(f"{video_id}: truncated record")
        frames = np.frombuffer(raw, dtype="<f4").reshape(t, self.dimension)
        return FeatureSequence(video_id, self.kind, frames.astype(np.float64), fps)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "FeatureStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except OSError:
            pass


VARIANCE_FLOOR = 1e-8
COMPUTE_DTYPE = np.dtype(np.float32)  # of the frames the embedder computes on


@dataclass
class NormalizationParams:
    """Per-dimension standardization fitted on development-split videos only."""

    mean: np.ndarray
    std: np.ndarray
    floored_dims: tuple[int, ...]
    n_frames: int

    def apply(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float64)
        return (frames - self.mean) / self.std

    def model_input(self, frames: np.ndarray) -> np.ndarray:
        """``apply(frames)`` as ``COMPUTE_DTYPE``, the frames training and
        scoring hand the embedder. A value beyond float32's range becomes
        inf without a warning; the caller checks."""
        with np.errstate(over="ignore"):
            return self.apply(frames).astype(COMPUTE_DTYPE)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "floored_dims": list(self.floored_dims),
            "n_frames": self.n_frames,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "NormalizationParams":
        return cls(
            mean=np.asarray(d["mean"], dtype=np.float64),
            std=np.asarray(d["std"], dtype=np.float64),
            floored_dims=tuple(int(i) for i in d["floored_dims"]),
            n_frames=int(d["n_frames"]),
        )


def fit_normalization(dim: int, passes: Callable[[], Iterable[np.ndarray]]) -> NormalizationParams:
    """Fit per-dimension mean/std over the frame matrices that ``passes()``
    yields; it is called once for each of the two passes.

    Two-pass computation in float64. Dimensions whose variance falls below
    the floor are clamped and reported in ``floored_dims``.
    """
    total = np.zeros(dim)
    n = 0
    for frames in passes():
        total += frames.sum(axis=0)
        n += frames.shape[0]
    mean = total / n

    ss = np.zeros(dim)
    for frames in passes():
        ss += ((frames - mean) ** 2).sum(axis=0)
    var = ss / n
    floored = tuple(int(i) for i in np.nonzero(var < VARIANCE_FLOOR)[0])
    std = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return NormalizationParams(mean=mean, std=std, floored_dims=floored, n_frames=n)


def normalize(store: FeatureStore, stats_source: Iterable[str]) -> NormalizationParams:
    """``fit_normalization`` over the frames of ``stats_source`` videos, which
    reads each from ``store`` once per pass and keeps one at a time."""
    ids = sorted(set(stats_source))
    if not ids:
        raise FeatureStoreError("stats_source must be non-empty")
    missing = [i for i in ids if i not in store]
    if missing:
        raise MissingSequenceError(f"stats_source ids not in store: {missing[:5]}")
    return fit_normalization(store.dimension, lambda: (store.get(vid).frames for vid in ids))


def import_frames_csv(path: str | Path) -> np.ndarray:
    """Parse a per-video CSV (one row per frame, no header) into a T x D matrix."""
    path = Path(path)
    try:
        frames = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FeatureStoreError(f"{path}: {exc}") from None
    if frames.size == 0:
        raise FeatureStoreError(f"{path}: no frames")
    if not np.all(np.isfinite(frames)):
        raise FeatureStoreError(f"{path}: non-finite values")
    return frames
