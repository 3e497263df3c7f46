"""Atomic artifact writes: whole files or none, with open()'s permissions;
CSV rows and canonical columns read back."""

import os
import stat

import pytest

from avatarprint import files
from avatarprint.files import AtomicFile, NotCanonical, canonical_columns, read_csv, write_text


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "report.txt"
    write_text(path, "old\n")
    with pytest.raises(RuntimeError):
        with AtomicFile(path) as fh:
            fh.write("new, but never finished\n")
            raise RuntimeError("the writer died")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_permissions_match_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        write_text(tmp_path / "atomic.txt", "x")
    finally:
        os.umask(previous)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain.txt", "atomic.txt")]
    assert modes[0] == modes[1] == 0o666 & ~umask


class CsvError(ValueError):
    pass


HEADER = ["a", "b", "c"]


def _write(path, text):
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return path


@pytest.mark.parametrize("reader", ["rows", "columns"])
def test_bytes_not_utf8_are_reported_at_their_line(tmp_path, reader):
    # past the reader's read-ahead, so the rows read so far do not locate it
    lines = [f"{i},x{i},y\n".encode() for i in range(2000)]
    lines[1499] = b"1499,x\xff,y\n"
    path = _write(tmp_path / "bad.csv", b"a,b,c\n" + b"".join(lines))
    if reader == "columns":
        with pytest.raises(NotCanonical):
            list(canonical_columns(path, HEADER))
        return
    with pytest.raises(CsvError, match="line 1501 is not UTF-8") as raised:
        list(read_csv(path, HEADER, CsvError))
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_columns_are_the_csv_readers_fields(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
    rows = [[f"r{i}", "é" * (i % 5), "日本" if i % 3 else ""] for i in range(120)]
    rows.append(["long" * 40, "", "x"])  # longer than a chunk
    path = _write(tmp_path / "ok.csv", "a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
    columns = [[], [], []]
    for chunk_columns in canonical_columns(path, HEADER):
        assert len({len(column) for column in chunk_columns}) == 1
        for out, column in zip(columns, chunk_columns):
            out += column
    assert [list(row) for row in zip(*columns)] == list(read_csv(path, HEADER, CsvError)) == rows
    assert list(canonical_columns(_write(tmp_path / "empty.csv", "a,b,c\n"), HEADER)) == []


@pytest.mark.parametrize("text", [
    'a,b,c\n1,"x",3\n',  # quoted
    "a,b,c\r\n1,2,3\r\n",  # \r\n line ends
    "a,b,c\n1,2,3\n\n4,5,6\n",  # a blank line
    "a,b,c\n1,2,3\n4,5\n",  # a short line
    "a,b,c\n1,2,3,4\n",  # a long line
    "a,b,c\n1,2\n3,4,5,6\n",  # a short and a long line, six fields in all
    "a,b,c\n1,2,3,4,5,6,7\n",  # newline where the next line's would be
    "a,b,c\n1,2,3",  # no final newline
    "a,b\n1,2,3\n",  # another header
    "",  # not even a header
], ids=["quoted", "crlf", "blank", "short", "long", "short-long", "double", "no-newline",
        "header", "empty"])
def test_other_files_are_not_canonical(tmp_path, text):
    with pytest.raises(NotCanonical):
        list(canonical_columns(_write(tmp_path / "other.csv", text), HEADER))
