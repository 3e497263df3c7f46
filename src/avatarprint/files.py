"""How artifacts reach disk and come back: each file is written whole under a
temporary name in its directory, then moved over its final name, so a
process that dies part way leaves the previous file or none there, never a
partial one. Nothing is fsynced: this covers a process that dies, not a
power loss."""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


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
    ``header`` raises ``error``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise error(f"{path}: bad header {found!r}, expected {header!r}")
        yield from reader


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
