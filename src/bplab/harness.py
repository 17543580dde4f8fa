"""Reproducibility plumbing: named RNG substreams, atomic file, CSV and JSON
output, and the CSV header lines of the command-line entry points."""

from __future__ import annotations

import json
import os
import tempfile
import zlib

import numpy as np

TOOL_VERSION = "bplab 0.1.0"


def substream(seed: int, name: str) -> np.random.Generator:
    """Deterministic per-module generator: one 64-bit root seed plus a stable
    name hash selects the stream."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2 ** 64 - 1), tag]))


def substream_seed(seed: int, name: str) -> int:
    """Integer seed for APIs that take one (same derivation as substream)."""
    tag = zlib.crc32(name.encode("utf-8"))
    return int(np.random.SeedSequence([int(seed) & (2 ** 64 - 1), tag]).generate_state(1)[0])


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    mkstemp creates the temp file with mode 0600, which the rename keeps, so
    it is given the mode that open() would: 0666 less the umask."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header_lines, columns, rows) -> None:
    """Atomically write `# `-prefixed header lines, the column names, then one
    line per row; floats are written with %.17g, so they read back exactly."""
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(columns))
    for row in rows:
        out.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(out) + "\n")


def _json_plain(obj):
    """obj with numpy scalars as Python ones, tuples as lists, and each NaN or
    infinity as None."""
    if isinstance(obj, dict):
        return {key: _json_plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def write_json(path, obj) -> None:
    """Atomically write obj as indented, strict (RFC 8259) JSON: floats (numpy
    ones too) are written with repr, so they read back exactly, and tuples
    become lists. JSON has no token for a NaN or an infinity, so such a float
    is written as null; one that reached the encoder would raise ValueError."""
    text = json.dumps(_json_plain(obj), indent=1, allow_nan=False)
    atomic_write_text(path, text + "\n")


def header_lines(name: str, seed: int, config_path=None) -> list:
    """The CSV header lines naming the tool, the experiment, the seed and,
    when given, the config file."""
    return [f"tool={TOOL_VERSION}", f"experiment={name}", f"seed={seed}"] + \
        ([f"config={config_path}"] if config_path else [])
