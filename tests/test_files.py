"""Atomic artifact writes: whole files or none, with open()'s permissions."""

import os
import stat

import pytest

from avatarprint.files import AtomicFile, write_text


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
