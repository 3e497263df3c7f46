"""How artifacts reach disk and come back: each file is written whole under a
temporary name in its directory, then moved over its final name, so a
process that dies part way leaves the previous file or none there, never a
partial one. Nothing is fsynced: this covers a process that dies, not a
power loss.

CSV files are read as the csv module splits them. ``read_csv`` gives the
rows of a file, and ``csv_header`` its header alone, for a reader whose
header names some of its columns. ``csv_columns`` gives a bounded chunk of
rows at a time as columns of strings: it splits the canonical form the
trial-table writer produces (no quoting, ``\n`` line ends) at its
commas, with no per-row Python, and hands the csv module the rest of any
other file from the first row it has not given, so each row is read once.
A reader checks a chunk's columns at once through ``checked``, which finds
the first row its check rejects and raises ``BadRow`` for it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import secrets
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence


class AtomicFile:
    """A new file open for writing under a temporary name next to ``path``.
    ``commit`` moves it to ``path`` and ``discard`` deletes it; as a context
    manager it commits when the block succeeds and discards when it raises.
    Text is UTF-8, written without newline translation."""

    def __init__(self, path: str | Path, mode: str = "w"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(f".{self.path.name}.{secrets.token_hex(6)}.tmp")
        # mode 0666 less the umask, as open() gives (mkstemp would give 0600)
        fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        text = "b" not in mode
        self.file: IO = open(fd, mode, encoding="utf-8" if text else None,
                             newline="" if text else None)

    def commit(self) -> None:
        try:
            self.file.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self) -> None:
        self.file.close()
        try:
            os.unlink(self._tmp)
        except FileNotFoundError:  # already committed or discarded
            pass

    def __enter__(self) -> IO:
        return self.file

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def write_text(path: str | Path, text: str) -> None:
    with AtomicFile(path) as fh:
        fh.write(text)


def write_json(path: str | Path, payload: object) -> None:
    """``payload`` as key-sorted JSON indented by 2, with a final newline."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_csv(path: str | Path, header: list[str], error: type[Exception]
             ) -> Iterator[list[str]]:
    """The rows of a UTF-8 CSV file after its header; a header other than
    ``header``, or bytes that are not UTF-8, raise ``error`` (the latter
    naming the line of the first bad byte)."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from _csv_rows(fh, path, header, error)


def _csv_rows(lines: Iterable[str], path: str | Path, header: Sequence[str],
              error: type[Exception]) -> Iterator[list[str]]:
    """The csv module's rows of ``lines`` after the header row. ``lines``
    are lines of the CSV file ``path`` as a file opened with ``newline=""``
    gives them: its header line, then all of its lines from some row on. A
    header other than ``header``, or bytes that are not UTF-8, raise
    ``error`` as in ``read_csv``."""
    reader = csv.reader(lines)
    try:
        found = next(reader, None)
        if found != list(header):
            raise error(f"{path}: bad header {found!r}, expected {header!r}")
        yield from reader
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, error, exc) from None


def _not_utf8(path: str | Path, error: type[Exception], exc: UnicodeDecodeError) -> Exception:
    """``error`` naming the first line of ``path`` that is not UTF-8. A
    reader decodes ahead of the rows it has given, so the line is found
    anew; no UTF-8 sequence holds a newline byte, so each line decodes
    alone."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return error(f"{path}: line {number} is not UTF-8: {exc.reason}")
    raise AssertionError(f"{path} decodes as UTF-8")


def csv_header(path: str | Path, error: type[Exception]) -> list[str]:
    """The first row of a UTF-8 CSV file as the csv module splits it, empty
    for an empty file; bytes that are not UTF-8 raise ``error`` as
    ``read_csv`` does. A canonical header line (ending in ``\n``, with no
    ``"`` or ``\r``) is split at its commas."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            line = fh.readline()
            if line.endswith("\n") and line != "\n" and '"' not in line and "\r" not in line:
                return line[:-1].split(",")
            return next(csv.reader(itertools.chain([line], fh)), [])
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, error, exc) from None


CHUNK_CHARS = 1 << 16  # read at a time by csv_columns; more raises the peak


class BadRow(Exception):
    """Row ``row`` of a CSV file (1-based, after the header) is rejected for
    ``reason``; ``fields`` are its fields."""

    def __init__(self, row: int, fields: list[str], reason: str):
        super().__init__(row, fields, reason)
        self.row, self.fields, self.reason = row, fields, reason


def csv_columns(path: str | Path, header: Sequence[str], error: type[Exception]
                ) -> Iterator[list[list[str]]]:
    """The fields of a UTF-8 CSV file after its header, as the csv module
    splits them, one list per column, for a chunk of about ``CHUNK_CHARS``
    characters of whole rows at a time (or one row if longer). A header
    other than ``header``, or bytes that are not UTF-8, raise ``error`` as
    ``read_csv`` does; a row of other than ``len(header)`` fields raises
    ``BadRow`` once the rows before it have been given.

    While the file is canonical (the header line exactly ``header`` joined
    by commas, every line ``len(header)`` fields and ending in ``\n``, and
    no ``"`` or ``\r`` anywhere) a chunk's lines are split at their commas.
    From the first chunk that is not, the csv module reads on: the text read
    and not given, then the rest of the open file."""
    width = len(header) + 1  # each line's fields and its newline
    given = 0  # rows given so far
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            unread = fh.readline()  # the header line, then the text read and not given
            if unread == ",".join(header) + "\n":
                carry = ""  # the part of a line read so far
                while block := fh.read(CHUNK_CHARS):
                    cut = block.rfind("\n") + 1
                    if not cut:
                        carry += block
                        continue
                    chunk, carry = carry + block[:cut], block[cut:]
                    if '"' in chunk or "\r" in chunk:
                        break
                    lines = chunk.count("\n")
                    # each newline becomes a field of its own, at the end of its line
                    fields = chunk.replace("\n", ",\n,").split(",")
                    fields.pop()  # the empty field after the last newline
                    if (len(fields) != width * lines
                            or fields[width - 1::width].count("\n") != lines):
                        break
                    yield [fields[j::width] for j in range(width - 1)]
                    given += lines
                else:  # every chunk was canonical
                    if not carry:  # else the last line has no newline
                        return
                    chunk = ""
                # the chunk not given, and carry to the end of its line
                unread += chunk + carry + fh.readline()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, error, exc) from None
        rows: list[list[str]] = []
        chars = 0
        lines = itertools.chain(io.StringIO(unread, newline=""), fh)
        for row, fields in enumerate(_csv_rows(lines, path, header, error), given + 1):
            if len(fields) != len(header):
                if rows:
                    yield [list(column) for column in zip(*rows)]
                raise BadRow(row, fields, f"{len(fields)} fields, not {len(header)}")
            rows.append(fields)
            chars += len(fields) + sum(map(len, fields))
            if chars >= CHUNK_CHARS:
                yield [list(column) for column in zip(*rows)]
                rows, chars = [], 0
        if rows:
            yield [list(column) for column in zip(*rows)]


def checked(check: Callable[[list[list[str]]], tuple], columns: list[list[str]],
            first_row: int) -> tuple:
    """``check(columns)``, for columns that hold the rows of a CSV file from
    row ``first_row`` on. If the check raises ``ValueError``, it is run on
    prefixes of the columns, halving the range each time, to find the first
    row it rejects, and ``BadRow`` is raised for that row with the check's
    message as the reason. ``check`` must accept every prefix of columns it
    accepts."""
    try:
        return check(columns)
    except ValueError as exc:
        reason = str(exc)
    good, bad = 0, len(columns[0])  # a prefix of ``good`` rows passes, of ``bad`` fails
    while bad - good > 1:
        middle = (good + bad) // 2
        try:
            check([column[:middle] for column in columns])
            good = middle
        except ValueError as exc:
            bad, reason = middle, str(exc)
    raise BadRow(first_row + good, [column[good] for column in columns], reason)


def csv_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``write_csv`` writes it within a row. QUOTE_MINIMAL
    quotes each field on its own, so a row can be joined from these with
    commas."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    fields = []
    for value in values:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([value, ""])  # a second field: a lone empty field is written ""
        fields.append(buffer.getvalue()[:-2])
    return fields


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
              lineterminator: str = "\n") -> None:
    with AtomicFile(path) as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)
