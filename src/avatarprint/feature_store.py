"""Binary store for per-frame feature sequences.

Each avatar video contributes one T x D float matrix (facial landmark
coordinates or backbone embeddings). Sequences are stored once as 32-bit
floats in a single append-only file with a JSON sidecar index, then read
back lock-free via positioned reads; all computation downstream happens in
64-bit precision.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np


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
_VERSION = 1
_KIND_CODES = {FeatureKind.LANDMARKS: 0, FeatureKind.EMBEDDING: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sIBII")  # magic, version, kind code, D, count
_COUNT_OFFSET = _HEADER.size - 4


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
        if self.fps <= 0:
            raise FeatureStoreError(f"{self.video_id}: fps must be positive")

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.frames.shape[1])


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


class FeatureStoreWriter:
    """Exclusive writer; call seal() to finish and enable readers."""

    def __init__(self, path: str | Path, kind: FeatureKind, dimension: int):
        if dimension < 1:
            raise FeatureStoreError("dimension must be >= 1")
        if kind == FeatureKind.LANDMARKS and dimension != 2 * LANDMARK_POINTS:
            raise FeatureStoreError(
                f"landmark stores need dimension {2 * LANDMARK_POINTS}, got {dimension}"
            )
        self.path = Path(path)
        self.kind = kind
        self.dimension = dimension
        self._entries: dict[str, tuple[int, int, float]] = {}  # id -> (offset, T, fps)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "xb")
        self._fh.write(_HEADER.pack(_MAGIC, _VERSION, _KIND_CODES[kind], dimension, 0))
        self._sealed = False

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
        id_bytes = seq.video_id.encode("utf-8")
        self._fh.write(struct.pack("<H", len(id_bytes)))
        self._fh.write(id_bytes)
        self._fh.write(struct.pack("<I", seq.num_frames))
        offset = self._fh.tell()
        self._fh.write(payload.tobytes())
        self._entries[seq.video_id] = (offset, seq.num_frames, float(seq.fps))

    def close(self) -> None:
        """Abandon an unsealed writer and release the file handle. The
        partial store file is left behind and cannot be sealed afterwards."""
        if not self._fh.closed:
            self._fh.close()

    def __del__(self) -> None:
        try:
            self.close()
        except AttributeError:  # interpreter teardown or failed __init__
            pass

    def seal(self) -> "FeatureStore":
        if self._sealed:
            raise FeatureStoreError("store already sealed")
        if self._fh.closed:
            raise FeatureStoreError("writer was closed without sealing")
        self._fh.seek(_COUNT_OFFSET)
        self._fh.write(struct.pack("<I", len(self._entries)))
        self._fh.close()
        self._sealed = True
        sidecar = {
            "version": _VERSION,
            "kind": self.kind.value,
            "dimension": self.dimension,
            "count": len(self._entries),
            "entries": {
                vid: [off, t, fps] for vid, (off, t, fps) in sorted(self._entries.items())
            },
        }
        with open(_sidecar_path(self.path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=0, sort_keys=True)
        return FeatureStore(self.path)


class FeatureStore:
    """Sealed, read-only store; safe for concurrent lock-free readers."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd = -1  # closed until os.open succeeds, so __del__ has nothing to do
        self._fd = os.open(self.path, os.O_RDONLY)
        raw = os.pread(self._fd, _HEADER.size, 0)
        if len(raw) < _HEADER.size:
            raise FeatureStoreError(f"{self.path}: truncated header")
        magic, version, kind_code, dim, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise FeatureStoreError(f"{self.path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FeatureStoreError(f"{self.path}: unsupported version {version}")
        if kind_code not in _CODE_KINDS:
            raise FeatureStoreError(f"{self.path}: unknown kind code {kind_code}")
        self.kind = _CODE_KINDS[kind_code]
        self.dimension = int(dim)
        self._entries = self._load_index(int(count))

    def _load_index(self, count: int) -> dict[str, tuple[int, int, float]]:
        sidecar = _sidecar_path(self.path)
        if sidecar.exists():
            with open(sidecar, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("dimension") != self.dimension or data.get("kind") != self.kind.value:
                raise FeatureStoreError(f"{sidecar}: index does not match store header")
            if len(data["entries"]) != count:
                raise FeatureStoreError(f"{sidecar}: index lists {len(data['entries'])} "
                                        f"records, header promises {count}")
            return {
                vid: (int(off), int(t), float(fps))
                for vid, (off, t, fps) in data["entries"].items()
            }
        # sidecar lost: rebuild by walking the records
        entries: dict[str, tuple[int, int, float]] = {}
        pos = _HEADER.size
        size = os.fstat(self._fd).st_size
        while pos < size and len(entries) < count:
            (id_len,) = struct.unpack("<H", os.pread(self._fd, 2, pos))
            pos += 2
            vid = os.pread(self._fd, id_len, pos).decode("utf-8")
            pos += id_len
            (t,) = struct.unpack("<I", os.pread(self._fd, 4, pos))
            pos += 4
            entries[vid] = (pos, t, 30.0)
            pos += t * self.dimension * 4
        if len(entries) != count:
            raise FeatureStoreError(f"{self.path}: header promises {count} records, "
                                    f"found {len(entries)}")
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._entries

    def ids(self) -> list[str]:
        return sorted(self._entries)

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

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())

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


def normalize(store: FeatureStore, stats_source: Iterable[str]) -> NormalizationParams:
    """Fit per-dimension mean/std over the frames of ``stats_source`` videos.

    Two-pass computation in float64. Dimensions whose variance falls below
    the floor are clamped and reported in ``floored_dims``.
    """
    ids = sorted(set(stats_source))
    if not ids:
        raise FeatureStoreError("stats_source must be non-empty")
    missing = [i for i in ids if i not in store]
    if missing:
        raise MissingSequenceError(f"stats_source ids not in store: {missing[:5]}")

    d = store.dimension
    total = np.zeros(d)
    n = 0
    for vid in ids:
        frames = store.get(vid).frames
        total += frames.sum(axis=0)
        n += frames.shape[0]
    mean = total / n

    ss = np.zeros(d)
    for vid in ids:
        frames = store.get(vid).frames
        ss += ((frames - mean) ** 2).sum(axis=0)
    var = ss / n
    floored = tuple(int(i) for i in np.nonzero(var < VARIANCE_FLOOR)[0])
    std = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return NormalizationParams(mean=mean, std=std, floored_dims=floored, n_frames=n)


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
