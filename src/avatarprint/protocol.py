"""Verification protocol: identity-disjoint splits, exhaustive trial lists,
and experiment matrices.

A trial pairs a self-reenactment enrollment video with a test video of the
same target identity: genuine when the test is driven by the same person,
impostor when a different person drives the target's avatar. Both sides of a
trial always come from evaluation-split identities.

A list of trials is a ``TrialSet``: NumPy columns of trial numbers (the id
``t%08d`` is derived from the number), (dataset, generator) condition codes,
enroll and test video codes into a sorted video-id vocabulary, and labels.
Generation builds each (dataset, generator, target) block as whole arrays,
and a job's trials are a condition mask.

A trial list's CSV is a row per trial in ``TRIAL_HEADER`` columns, and a
score table's is the same with a column of scores per model after the
label. ``write_trial_table`` and ``read_trial_table`` are the one writer
and reader of both, and each handles a chunk of trials at a time with no
Python step per trial.
"""

from __future__ import annotations

import itertools
import json
from array import array
from collections import defaultdict
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .catalog import (
    CANONICAL_EVAL_IDENTITIES,
    CANONICAL_IDENTITIES,
    SOFT_BIOMETRICS,
    Catalog,
    Dataset,
)
from .files import AtomicFile, BadRow, checked, csv_columns, csv_fields, csv_header, write_json


class ProtocolError(ValueError):
    pass


# -- split -------------------------------------------------------------------


@dataclass(frozen=True)
class Split:
    development: frozenset[str]
    evaluation: frozenset[str]

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


def make_split(catalog: Catalog, eval_fraction: float = 0.3, seed: int = 0) -> Split:
    """Identity-disjoint development/evaluation split, stratified on the
    soft-biometric attributes per dataset.

    Evaluation counts are the canonical benchmark sizes when the catalog has
    the canonical identity counts, else round(n * fraction), kept between 1
    and n - 1; ``eval_fraction`` must lie in (0, 1). When every co-occurrence
    component is a single identity the per-cell quotas are met exactly.
    Larger components are assigned whole, largest first, while they fit the
    quota; a dataset none of whose components fits is a ``ProtocolError``.
    """
    if not 0 < eval_fraction < 1:
        raise ProtocolError(f"eval_fraction must lie in (0, 1), got {eval_fraction!r}")
    rng = np.random.default_rng(seed)
    development: set[str] = set()
    evaluation: set[str] = set()

    for dataset in catalog.datasets():
        ids = catalog.identity_ids(dataset)
        if len(ids) < 2:
            raise ProtocolError(f"{dataset.value}: need >= 2 identities to split")
        quota = _eval_quota(dataset, len(ids), eval_fraction)

        def cell_of(identity: str) -> tuple:
            rec = catalog.identities[identity]
            return tuple(getattr(rec, attr).value for attr in SOFT_BIOMETRICS)

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
                evaluation.update(members[:quotas[c]])
                development.update(members[quotas[c]:])
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
            if assigned_eval == 0:
                raise ProtocolError(
                    f"{dataset.value}: no co-occurrence component fits the evaluation quota "
                    f"of {quota} identities (component sizes {[len(c) for c in order]})"
                )

    split = Split(frozenset(development), frozenset(evaluation))
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
MAX_TRIALS = 99_999_999  # a trial id is "t" and eight digits
ROW_CHUNK = 1 << 16  # rows turned into Python objects, or codes renumbered, at a time
CHUNK_BYTES = 1 << 19  # of the byte matrix write_trial_table assembles at a time

_POWERS = 10 ** np.arange(7, -1, -1, dtype=np.intc)


def _trial_id_bytes(number: np.ndarray) -> np.ndarray:
    """Row ``i`` is the id of trial number ``number[i]`` and a comma: the 10
    bytes "t", 8 digits and ","."""
    out = np.empty((len(number), 10), dtype=np.uint8)
    out[:, 0] = ord("t")
    out[:, 1:9] = number[:, None] // _POWERS % 10 + ord("0")
    out[:, 9] = ord(",")
    return out


def trial_ids(number: np.ndarray) -> list[str]:
    """The id of each trial number: "t" and its 8 digits."""
    ids = _trial_id_bytes(number).tobytes().decode().split(",")
    ids.pop()  # the empty string after the last comma
    return ids


def trial_numbers(ids: list[str]) -> np.ndarray:
    """The number in each trial id, as C ints (``array("i")`` items); an id
    other than "t" and 8 ASCII digits raises ``ValueError``."""
    # The ids are joined with a comma after each, in 10-byte rows. Where the
    # first 9 bytes of every row are "t" and digits, no comma can be among
    # them (a comma is below "0"), so the commas are the 10th bytes: one per
    # row, as many as there are ids. The comma after each id is one of them,
    # so no id holds a comma, and every id is 9 bytes.
    raw = np.frombuffer(",".join([*ids, ""]).encode(), dtype=np.uint8)
    reason = "the trial id is not t and 8 ASCII digits"
    if raw.size != 10 * len(ids):
        raise ValueError(reason)
    raw = raw.reshape(-1, 10)
    digits = raw[:, 1:9] - np.uint8(ord("0"))  # a byte below "0" wraps past 9
    if not ((raw[:, 0] == ord("t")).all() and (digits <= 9).all()):
        raise ValueError(reason)
    return digits.astype(np.intc) @ _POWERS


_LABEL_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def label_values(labels: list[str]) -> bytes:
    """The labels "0" and "1" as bytes 0 and 1; any other raises
    ``ValueError``."""
    if labels.count("0") + labels.count("1") != len(labels):
        raise ValueError("the label is not 0 or 1")
    return "".join(labels).encode().translate(_LABEL_BYTES)


class FirstSeen:
    """Strings coded in order of first appearance, a column at a time, by
    one ``dict.setdefault`` per string and no Python per row. Until
    ``renumber``, a string's code is the number of strings coded before it
    first appeared, so codes ascend with first appearance but skip."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}
        self._count = itertools.count()

    def extend(self, out: array, column: Sequence[str]) -> None:
        out.extend(map(self.codes.setdefault, column, self._count))

    def renumber(self, *columns: array) -> list[str]:
        """The strings in order of first appearance, with ``columns`` (each
        an ``array("i")`` filled by ``extend``) recoded in place to index
        them."""
        firsts = np.fromiter(self.codes.values(), dtype=np.int64, count=len(self.codes))
        for column in columns:  # firsts ascend, so a code's position is a search
            codes = np.frombuffer(column, dtype=np.intc)
            for start in range(0, codes.size, ROW_CHUNK):
                part = codes[start:start + ROW_CHUNK]
                part[:] = np.searchsorted(firsts, part)
        return list(self.codes)


def named_codes(vocab: Sequence, *codes: np.ndarray) -> tuple[tuple, list[np.ndarray]]:
    """The entries of ``vocab`` that some code in ``codes`` names, sorted, and
    the codes renumbered to index them."""
    named = np.zeros(len(vocab), dtype=bool)
    for column in codes:
        named[column] = True
    order = sorted(np.flatnonzero(named).tolist(), key=vocab.__getitem__)
    renumber = np.zeros(len(vocab), dtype=np.int64)
    renumber[order] = np.arange(len(order))
    # renumbered in each column's own dtype: no int64 temporary as long as the column
    return (tuple(vocab[i] for i in order),
            [renumber.astype(column.dtype)[column] for column in codes])


class TrialSet(Sequence[Trial]):
    """Trials as columns: trial ``i`` is ``Trial(f"t{number[i]:08d}",
    *conditions[condition[i]], videos[enroll[i]], videos[test[i]], label[i])``.

    ``videos`` is the sorted tuple of the video ids the trials name, and only
    those; ``conditions`` is the sorted tuple of their (dataset, generator)
    pairs. A set therefore has one encoding per list of trials, so ``==`` is
    row equality whether the sets were generated, loaded or selected. A
    slice, boolean mask or index array gives the selected trials as a
    ``TrialSet`` that keeps their trial numbers; an integer gives one
    ``Trial``.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, videos: Sequence[str], conditions: Sequence[tuple[str, str]],
                 number: np.ndarray, condition: np.ndarray, enroll: np.ndarray,
                 test: np.ndarray, label: np.ndarray):
        """Columns of codes into ``videos`` and ``conditions``. The set keeps
        the entries some trial names, sorted, and codes the columns by them."""
        self.number = np.asarray(number, dtype=np.int32)
        self.label = np.asarray(label, dtype=np.int8)
        self.videos, (self.enroll, self.test) = named_codes(
            videos, np.asarray(enroll, dtype=np.int32), np.asarray(test, dtype=np.int32))
        self.conditions, (self.condition,) = named_codes(
            conditions, np.asarray(condition, dtype=np.int8))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.number, self.condition, self.enroll, self.test, self.label

    def __len__(self) -> int:
        return len(self.number)

    def __getitem__(self, key):
        if isinstance(key, (slice, np.ndarray)):
            return TrialSet(self.videos, self.conditions,
                            *(column[key] for column in self._columns()))
        (trial_id,) = trial_ids(self.number[[key]])
        dataset, generator = self.conditions[self.condition[key]]
        return Trial(trial_id, dataset, generator, self.videos[self.enroll[key]],
                     self.videos[self.test[key]], int(self.label[key]))

    def __iter__(self) -> Iterator[Trial]:
        videos, conditions = self.videos, self.conditions
        for start in range(0, len(self), ROW_CHUNK):
            part = slice(start, start + ROW_CHUNK)
            for trial_id, c, e, t, label in zip(
                    trial_ids(self.number[part]),
                    *(column[part].tolist() for column in self._columns()[1:])):
                yield Trial(trial_id, *conditions[c], videos[e], videos[t], label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialSet):
            return NotImplemented
        return (self.videos == other.videos and self.conditions == other.conditions
                and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns())))

    def __repr__(self) -> str:
        return (f"TrialSet({len(self):,d} trials, {len(self.videos):,d} videos, "
                f"{len(self.conditions)} conditions)")

    def select(self, dataset: str | None = None, generator: str | None = None) -> "TrialSet":
        """The trials of ``dataset`` and ``generator``; None matches any."""
        codes = [code for code, (ds, gen) in enumerate(self.conditions)
                 if dataset in (None, ds) and generator in (None, gen)]
        return self[np.isin(self.condition, codes)]


def generate_trials(
    catalog: Catalog,
    split: Split,
    convention: str = EXCLUDE_IDENTICAL,
) -> TrialSet:
    """Exhaustive genuine and impostor trials over evaluation identities.

    Genuine: every ordered pair of same-driver self-reenactment videos within
    one (dataset, generator); include_identical keeps the enrollment video
    also serving as its own test. Impostor: every self-reenactment enrollment
    against every cross-reenactment of the same target by a different driver.

    Order and trial ids are canonical and stable: trials are numbered from 1
    in order of (dataset, generator, target, enrollment video), then genuine
    before impostor, then test video. Each (dataset, generator, target) is
    one block: the enrollments by enrollments grid, without its diagonal
    under exclude_identical, beside the enrollments by cross videos grid.
    """
    if convention not in CONVENTIONS:
        raise ProtocolError(f"unknown convention {convention!r}")
    if not split.evaluation:
        raise ProtocolError("evaluation side of the split is empty")
    eval_ids = split.evaluation

    self_videos: dict[tuple[str, str, str], list[str]] = defaultdict(list)
    cross_videos: dict[tuple[str, str, str], list[str]] = defaultdict(list)
    for video in catalog.videos():
        if video.driver not in eval_ids or video.target not in eval_ids:
            continue
        key = (video.dataset.value, video.generator.value, video.target)
        (self_videos if video.is_self else cross_videos)[key].append(video.video_id)

    blocks = sorted(self_videos)
    exclude = int(convention == EXCLUDE_IDENTICAL)
    total = sum(len(self_videos[k]) * (len(self_videos[k]) - exclude + len(cross_videos[k]))
                for k in blocks)
    if total > MAX_TRIALS:
        raise ProtocolError(f"{total:,d} trials, more than the {MAX_TRIALS:,d} trial ids")

    # codes into every candidate video, sorted, so sorted codes are sorted ids;
    # TrialSet keeps the videos the trials name
    videos = sorted(v for k in blocks for v in (*self_videos[k], *cross_videos[k]))
    code = {v: i for i, v in enumerate(videos)}
    conditions = sorted({k[:2] for k in blocks})
    columns: list[tuple[np.ndarray, ...]] = []
    for key in blocks:
        enrolls = np.array(sorted(code[v] for v in self_videos[key]), dtype=np.int32)
        cross = np.array(sorted(code[v] for v in cross_videos[key]), dtype=np.int32)
        n = enrolls.size
        genuine = np.broadcast_to(enrolls, (n, n))
        if exclude:
            genuine = genuine[~np.eye(n, dtype=bool)].reshape(n, n - 1)
        tests = np.hstack([genuine, np.broadcast_to(cross, (n, cross.size))])
        labels = np.repeat(np.array([1, 0], dtype=np.int8), [genuine.shape[1], cross.size])
        columns.append((
            np.full(tests.size, conditions.index(key[:2]), dtype=np.int8),
            np.repeat(enrolls, tests.shape[1]),
            tests.ravel(),
            np.tile(labels, n),
        ))
    # one more, empty block: no blocks at all concatenate to empty columns
    condition, enroll, test, label = (
        np.concatenate(parts) for parts in zip(*columns, [np.empty(0, dtype=np.int32)] * 4))
    return TrialSet(videos, conditions, np.arange(1, total + 1, dtype=np.int32),
                    condition, enroll, test, label)


def trial_counts(trials: TrialSet) -> dict[tuple[str, str, int], int]:
    """Counts keyed by (dataset, generator, label), for the cells holding
    trials, in key order."""
    cells = np.bincount(trials.condition.astype(np.intp) * 2 + trials.label,
                        minlength=2 * len(trials.conditions))
    return {
        (dataset, generator, label): int(cells[2 * code + label])
        for code, (dataset, generator) in enumerate(trials.conditions)
        for label in (0, 1)
        if cells[2 * code + label]
    }


TRIAL_HEADER = ["trial_id", "dataset", "generator", "enroll_video", "test_video", "label"]
_SCORE_WIDTH = 25  # the longest repr of a float64, "-2.2250738585072014e-308", and a comma


def _comma_fields(fields: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fields`` UTF-8 encoded with a comma before each, back to back in one
    buffer, as a view whose row ``s`` is the buffer from byte ``s`` on, as
    wide as the longest field and its comma; and where each field's comma
    stands, and its length with the comma. Row ``starts[i]`` begins with
    field ``i``'s comma; its bytes past ``lengths[i]`` are other fields' or
    zeros. Nothing is padded, so a long field costs its own bytes only."""
    text = ",".join(["", *fields])
    data = text.encode()
    # a field's length in bytes, which is its length in characters while all are ASCII
    sizes = map(len, fields if len(data) == len(text) else map(str.encode, fields))
    lengths = 1 + np.fromiter(sizes, dtype=np.intp, count=len(fields))
    width = int(lengths.max(initial=0))
    buffer = np.frombuffer(data + bytes(width), dtype=np.uint8)
    # lengths in the narrowest type that holds the width, for the byte mask's comparison
    return (sliding_window_view(buffer, width), np.cumsum(lengths) - lengths,
            lengths.astype(np.min_scalar_type(width)))


def _score_fields(scores: np.ndarray) -> list[str]:
    """Each score's ``repr``, and an empty field for NaN."""
    fields = list(map(repr, scores.tolist()))
    for i in np.flatnonzero(np.isnan(scores)).tolist():
        fields[i] = ""
    return fields


def _place(matrix: np.ndarray, keep: np.ndarray, at: int, fields: tuple, code: np.ndarray
           ) -> int:
    """Put field ``code[i]`` of ``fields`` (as ``_comma_fields`` gives them)
    in row ``i`` of ``matrix`` from byte ``at`` on, mark its bytes in
    ``keep``, and return the byte after the widest."""
    windows, starts, lengths = fields
    span = slice(at, at + windows.shape[1])
    matrix[:, span] = windows[starts[code]]
    keep[:, span] = np.arange(windows.shape[1], dtype=lengths.dtype) < lengths[code, None]
    return span.stop


def write_trial_table(trials: TrialSet, path: str | Path, models: Sequence[str] = (),
                      scores: np.ndarray | None = None) -> None:
    """``trials`` as CSV, a row per trial in ``TRIAL_HEADER`` columns, then
    a column per model of ``models``, whose row ``i`` is ``scores[m, i]``:
    byte for byte what ``csv.writer`` (lines ending in a newline) writes for
    those rows, with each score its ``repr`` and NaN an empty field.

    Each video id and condition is formatted once, and the scores a chunk
    at a time. A chunk of trials is then one byte matrix, a row per trial,
    each column as wide as its widest field in the chunk; the fields' bytes
    are kept and the rest dropped. A chunk holds as many rows as fit in
    ``CHUNK_BYTES`` (at least one), so a long id makes short chunks rather
    than a wide matrix."""
    scores = np.empty((0, len(trials))) if scores is None else scores
    videos = _comma_fields(csv_fields(trials.videos))
    columns = [(_comma_fields([",".join(csv_fields(pair)) for pair in trials.conditions]),
                trials.condition), (videos, trials.enroll), (videos, trials.test)]
    # the trial id, three fields and the label after its comma, in every chunk;
    # then a score field per model and a newline
    head = 11 + sum(windows.shape[1] for (windows, _, _), _ in columns)
    rows = max(1, CHUNK_BYTES // (head + _SCORE_WIDTH * len(models) + 1))
    with AtomicFile(path, "wb") as fh:
        fh.write((",".join(csv_fields([*TRIAL_HEADER, *models])) + "\n").encode())
        for start in range(0, len(trials), rows):
            part = slice(start, start + rows)
            number = trials.number[part]
            scored = [_comma_fields(_score_fields(column)) for column in scores[:, part]]
            matrix = np.empty((len(number), head + sum(w.shape[1] for w, _, _ in scored) + 1),
                              dtype=np.uint8)
            keep = np.ones(matrix.shape, dtype=bool)
            matrix[:, :10] = _trial_id_bytes(number)  # its comma is the first field's
            at = 9
            for fields, codes in columns:
                at = _place(matrix, keep, at, fields, codes[part])
            matrix[:, at] = ord(",")
            matrix[:, at + 1] = trials.label[part] + ord("0")
            at += 2
            for fields in scored:
                at = _place(matrix, keep, at, fields, np.arange(len(number)))
            matrix[:, -1] = ord("\n")
            fh.write(matrix[keep])


def save_trials(trials: TrialSet, path: str | Path) -> None:
    """``trials`` as a trial list: ``write_trial_table`` with no model."""
    write_trial_table(trials, path)


# characters float() takes around or within a number but the writer never writes
_NOT_PLAIN = "_" + "".join(c for c in map(chr, range(128)) if c.isspace())
_EMPTY_AS_NAN = {"": "nan"}


def _score_values(scores: list[str]) -> np.ndarray:
    """The scores of a list of fields, NaN for an empty one; any field
    ``read_trial_table`` rejects raises ``ValueError``."""
    text = ",".join(scores)
    if not text.isascii() or any(c in text for c in _NOT_PLAIN):
        raise ValueError("the score is not a plain number")
    try:
        values = np.fromiter(map(float, map(_EMPTY_AS_NAN.get, scores, scores)),
                             dtype=np.float64, count=len(scores))
    except ValueError:
        raise ValueError("the score is not a plain number") from None
    # every value finite but for the empty fields: text such as nan or inf,
    # or a number that overflows, is not a score
    finite = np.isfinite(values)
    if not (finite.all()
            or np.array_equal(finite, np.fromiter(map(bool, scores), bool, len(scores)))):
        raise ValueError("the score is not finite")
    return values


def read_trial_table(path: str | Path, error: type[Exception] = ProtocolError,
                     scored: bool = False) -> tuple[TrialSet, tuple[str, ...], np.ndarray]:
    """The trials of a file written by ``write_trial_table``, in file order,
    its models and their (models, trials) scores, NaN for an empty field.

    The header is ``TRIAL_HEADER``, then, when ``scored``, one or more
    distinct models, and when not, nothing; any other header raises
    ``error`` naming the file. So does a row that is not as many fields as
    the header, with a trial id of "t" and eight ASCII digits and a label of
    0 or 1, that brings the (dataset, generator) pairs past 128, or that has
    a score neither empty nor a finite plain number (ASCII, with no
    underscore or surrounding whitespace, not ``nan`` or ``inf``); the error
    names the row and why."""
    header = csv_header(path, error)
    models = tuple(header[len(TRIAL_HEADER):])
    if (header[:len(TRIAL_HEADER)] != TRIAL_HEADER or bool(models) != scored
            or len(set(models)) < len(models)):
        raise error(f"{path}: bad header {header!r}, expected {TRIAL_HEADER!r}"
                    + (" and then one or more distinct models" if scored else ""))
    number, condition, label = array("i"), array("b"), array("b")
    enroll, test = array("i"), array("i")
    scores = [array("d") for _ in models]
    videos = FirstSeen()
    conditions: dict[tuple[str, str], int] = {}

    def check(columns: list[list[str]]) -> tuple:
        """The chunk's trial numbers, labels, condition codes and scores, and
        the conditions with the chunk's added."""
        ids, datasets, generators, _, _, labels, *values = columns
        seen = dict(conditions)
        if datasets.count(datasets[0]) == generators.count(generators[0]) == len(ids):
            codes = bytes([seen.setdefault((datasets[0], generators[0]), len(seen))]) * len(ids)
        else:
            codes = [seen.setdefault(pair, len(seen)) for pair in zip(datasets, generators)]
        if len(seen) > 128:  # more than an int8 code
            raise ValueError("more than 128 (dataset, generator) pairs")
        return (trial_numbers(ids), label_values(labels), bytes(codes), seen,
                [_score_values(column) for column in values])

    row = 1  # the chunk's first
    try:
        for columns in csv_columns(path, header, error):
            numbers, labels, codes, conditions, values = checked(check, columns, row)
            number.frombytes(numbers.tobytes())
            label.frombytes(labels)
            condition.frombytes(codes)
            videos.extend(enroll, columns[3])
            videos.extend(test, columns[4])
            for column, chunk in zip(scores, values):
                column.frombytes(chunk.tobytes())
            row += len(labels)
    except BadRow as bad:
        then = ", then each model's score or empty" if scored else ""
        raise error(
            f"{path}: row {bad.row} is not a trial (id t and 8 digits, dataset, generator, "
            f"enroll video, test video, label 0 or 1{then}): {bad.reason}; {bad.fields!r}"
        ) from None
    trials = TrialSet(videos.renumber(enroll, test), list(conditions),
                      number, condition, enroll, test, label)
    return (trials, models,
            np.frombuffer(bytearray().join(scores)).reshape(len(models), len(trials)))


def load_trials(path: str | Path) -> TrialSet:
    """The trials of a trial list, as ``read_trial_table`` reads them."""
    return read_trial_table(path)[0]


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


class Job(NamedTuple):
    job_id: str
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


def experiment_matrix(specs: Sequence[ExperimentSpec], catalog: Catalog) -> list[Job]:
    """Expand experiment rows into concrete jobs, deduplicated and in
    canonical order. Referenced datasets and generators must exist in the
    catalog."""
    have_ds = {d.value for d in catalog.datasets()}
    have_gen = {g.value for g in catalog.generators()}
    jobs: dict[str, Job] = {}
    for spec in specs:
        for ds in (spec.train_dataset, spec.eval_dataset):
            if ds not in have_ds:
                raise ProtocolError(f"experiment references unknown dataset {ds!r}")
        for g in {spec.train_generator} - {ALL_GENERATORS} | set(spec.eval_generators):
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
                    train_dataset=spec.train_dataset,
                    train_generator=spec.train_generator,
                    eval_dataset=spec.eval_dataset,
                    eval_generator=eval_gen,
                    models=spec.models,
                )
    return [jobs[k] for k in sorted(jobs)]
