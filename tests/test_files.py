"""Atomic artifact writes: whole files or none, with open()'s permissions;
CSV rows and columns read back, and the first row a check rejects."""

import csv
import os
import stat

import pytest

from avatarprint import files
from avatarprint.files import (AtomicFile, BadRow, checked, csv_columns, csv_header, read_csv,
                               write_text)


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
    read = {"rows": read_csv, "columns": csv_columns}[reader]
    with pytest.raises(CsvError, match="line 1501 is not UTF-8") as raised:
        list(read(path, HEADER, CsvError))
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_columns_are_the_csv_readers_fields(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(files, "CHUNK_CHARS", chunk)
    rows = [[f"r{i}", "é" * (i % 5), "日本" if i % 3 else ""] for i in range(120)]
    rows.append(["long" * 40, "", "x"])  # longer than a chunk
    path = _write(tmp_path / "ok.csv", "a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
    columns = [[], [], []]
    with monkeypatch.context() as patch:
        patch.setattr(files.csv, "reader", None)  # a canonical file is split at its commas
        for chunk_columns in csv_columns(path, HEADER, CsvError):
            assert len({len(column) for column in chunk_columns}) == 1
            for out, column in zip(columns, chunk_columns):
                out += column
        assert list(csv_columns(_write(tmp_path / "empty.csv", "a,b,c\n"), HEADER, CsvError)) == []
    assert [list(row) for row in zip(*columns)] == list(read_csv(path, HEADER, CsvError)) == rows


def _csv_module_rows(path):
    """The csv module's rows after the header, up to the first that is not
    three fields, and that row's number (None when every row is): what
    csv_columns gives. A header other than HEADER gives "bad header"."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [HEADER]:
        return "bad header"
    bad = next((i for i, row in enumerate(rows[1:]) if len(row) != 3), None)
    return rows[1:][:bad], None if bad is None else bad + 1


@pytest.mark.parametrize("text", [
    'a,b,c\n1,"x",3\n',  # quoted
    'a,b,c\n"x,y","say ""hi""",3\n',  # a quoted comma and quote
    "a,b,c\r\n1,2,3\r\n",  # \r\n line ends
    "a,b,c\n1,2,3\n\n4,5,6\n",  # a blank line
    "a,b,c\n1,2,3\n4,5\n",  # a short line
    "a,b,c\n1,2,3,4\n",  # a long line
    "a,b,c\n1,2\n3,4,5,6\n",  # a short and a long line, six fields in all
    "a,b,c\n1,2,3,4,5,6,7\n",  # newline where the next line's would be
    "a,b,c\n1,2,3",  # no final newline
    "a,b\n1,2,3\n",  # another header
    "",  # not even a header
    "a,b,c\n" + "1,2,3\n" * 100 + "4,5\n6,7,8\n",  # a short line past the first chunk
    "a,b,c\n" + "1,2,3\n" * 100 + '"4",5,6\n7,8\n',  # a quote, then a short line
], ids=["quoted", "quoted-comma-and-quote", "crlf", "blank", "short", "long", "short-long",
        "double", "no-newline", "header", "empty", "late-short", "late-quoted"])
def test_other_files_give_the_csv_modules_rows(tmp_path, text):
    path = _write(tmp_path / "other.csv", text)
    rows = []
    try:
        for columns in csv_columns(path, HEADER, CsvError):
            rows += map(list, zip(*columns))
    except CsvError as exc:
        assert "bad header" in str(exc)
        given = "bad header"
    except BadRow as bad:
        assert bad.fields == list(csv.reader(text.splitlines()))[bad.row]
        assert bad.reason == f"{len(bad.fields)} fields, not 3"
        given = rows, bad.row
    else:
        given = rows, None
    assert given == _csv_module_rows(path)


@pytest.mark.parametrize("late", ['"x,1999",y', "x1999,y\r", "x1999", "x1999,y,z"],
                         ids=["quoted", "cr", "short", "long"])
def test_the_csv_module_reads_on_from_the_first_row_not_given(tmp_path, monkeypatch, late):
    lines = [f"{i},x{i},y\n" for i in range(2000)]
    lines[1999] = f"1999,{late}\n"
    path = _write(tmp_path / "late.csv", "a,b,c\n" + "".join(lines))
    reader, read = csv.reader, []

    def counted(lines):
        for fields in reader(lines):
            read.append(fields)
            yield fields

    rows, bad_row = [], None
    with monkeypatch.context() as patch:
        patch.setattr(files.csv, "reader", counted)
        try:
            for columns in csv_columns(path, HEADER, CsvError):
                rows += map(list, zip(*columns))
        except BadRow as bad:
            bad_row = bad.row
    assert (rows, bad_row) == _csv_module_rows(path)
    # the header and the last chunk's rows, where the whole file is 2,001
    assert read[0] == HEADER and len(read) <= 1 + files.CHUNK_CHARS // len(lines[0])


@pytest.mark.parametrize("text", ["a,b,c\n1,2,3\n", "a,,é\n", "a\n", '"a,b","say ""hi""",c\n',
                                  '"a\nb",c\n', "a,b\r\n", "a,b", "\n", ""],
                         ids=["plain", "empty-field", "one", "quoted", "quoted-newline", "crlf",
                              "no-newline", "blank", "empty"])
def test_header_is_the_csv_modules_first_row(tmp_path, monkeypatch, text):
    path = _write(tmp_path / "h.csv", text)
    with open(path, newline="", encoding="utf-8") as fh:
        expected = next(csv.reader(fh), [])
    if text in ("a,b,c\n1,2,3\n", "a,,é\n", "a\n"):
        monkeypatch.setattr(files.csv, "reader", None)  # a canonical line is split at its commas
    assert csv_header(path, CsvError) == expected


def _reject_x(columns):
    if "x" in columns[0]:
        raise ValueError("an x")
    return len(columns[0])


@pytest.mark.parametrize("bad", [0, 1, 5, 6, 12])
def test_checked_names_the_first_row_its_check_rejects(bad):
    column = [str(i) for i in range(13)]
    assert checked(_reject_x, [column], 40) == 13
    column[bad] = "x"
    column[-1] = "x"
    with pytest.raises(BadRow) as raised:
        checked(_reject_x, [column, list(column)], 40)
    assert (raised.value.row, raised.value.fields, raised.value.reason) == (40 + bad, ["x", "x"],
                                                                            "an x")
