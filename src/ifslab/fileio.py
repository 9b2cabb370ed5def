"""Deterministic artifact I/O: atomic replace, fixed float formatting, CSV.

All emitted files must be byte-identical across reruns with equal seeds, so
floats are rendered with 17 significant digits (exact round-trip), text uses
LF endings, JSON keys keep insertion order, and nothing timestamps itself.
Every CSV is written by ``csv_text`` and read by ``read_csv``.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError

FLOAT = "%.17g"  # 17 significant digits round-trip every finite double


def fmt_float(x: float) -> str:
    """17-significant-digit rendering; round-trips every finite double."""
    return FLOAT % float(x)


def csv_text(header: Sequence[str], row_format: str, rows: Iterable[tuple]) -> str:
    """A header line and one ``row_format % row`` line per row; each ``FLOAT``
    field renders as ``fmt_float`` does."""
    return "\n".join([",".join(header), *(row_format % row for row in rows)]) + "\n"


def read_csv(
    path: str, what: str, header_for: Callable[[int], Optional[list[str]]], int_columns: int = 0
) -> np.ndarray:
    """The (rows, fields) float table of a CSV file, parsed row by row.

    ``header_for(n)`` is the header a file of ``n`` fields must have, or None
    if none is valid; the first ``int_columns`` fields must be integers.  A
    missing, undecodable or badly quoted file, a bad header, a row of the
    wrong field count, a non-numeric field or no data rows is a
    ``ConfigError`` naming the file (and the row).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, strict=True)
            header = next(reader, [])
            n = len(header)
            expected = header_for(n)
            if header != expected:
                want = f"expected {expected!r}" if expected else f"no {what} header has {n} field(s)"
                raise ConfigError(f"{path}: row 1: bad {what} header {header!r}, {want}")
            values: list[float] = []
            for rownum, row in enumerate(reader, start=2):
                if len(row) != n:
                    raise ConfigError(f"{path}: row {rownum}: expected {n} fields, got {len(row)}")
                try:
                    values.extend(map(float, row))
                    for field in row[:int_columns]:
                        int(field)
                except ValueError as exc:
                    raise ConfigError(f"{path}: row {rownum}: non-numeric field ({exc})") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # also not UTF-8, bad quoting, a huge field
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from None
    if not values:
        raise ConfigError(f"{path}: no data rows")
    return np.array(values).reshape(-1, n)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, allow_nan=True) + "\n")
