import os

import pytest

from bplab.harness import atomic_write_text


def test_atomic_write_removes_temp_file_on_failure(tmp_path):
    # a lone surrogate cannot be encoded: the write fails, the temp file goes,
    # and the target keeps its old text
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new \ud800\n")
    assert os.listdir(tmp_path) == ["out.csv"]
    assert path.read_text() == "old\n"
