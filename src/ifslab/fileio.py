"""Deterministic artifact I/O: atomic replace, fixed float formatting, CSV.

All emitted files must be byte-identical across reruns with equal seeds, so
floats are rendered with 17 significant digits (exact round-trip), text uses
LF endings, JSON keys keep insertion order, and nothing timestamps itself.
Every CSV is written by ``csv_text`` and read by ``read_csv``: a plain
file (the right header; no quote, CR, over-long line or zero int) in C by
one ``np.loadtxt`` call, any other by a ``csv.reader`` row scan that raises
every error.  CSVs are read as UTF-8, the encoding every file is written in.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError

FLOAT = "%.17g"  # 17 significant digits round-trip every finite double
HeaderFor = Callable[[int], Optional[list[str]]]


def fmt_float(x: float) -> str:
    """17-significant-digit rendering; round-trips every finite double."""
    return FLOAT % float(x)


def csv_text(header: Sequence[str], row_format: str, rows: Iterable[tuple]) -> str:
    """A header line and one ``row_format % row`` line per row; each ``FLOAT``
    field renders as ``fmt_float`` does."""
    return "\n".join([",".join(header), *(row_format % row for row in rows)]) + "\n"


def read_csv(path: str, what: str, header_for: HeaderFor, int_columns: int = 0) -> np.ndarray:
    """The (rows, fields) float table of a UTF-8 CSV file.

    ``header_for(n)`` is the header a file of ``n`` fields must have, or None
    if none is valid; the first ``int_columns`` fields must be integers.  A
    missing, undecodable or badly quoted file, a bad header, a row of the
    wrong field count, a non-numeric field or no data rows is a
    ``ConfigError`` naming the file (and the row).

    A file with the right header, no quote, no CR, no line longer than
    ``csv.field_size_limit()`` and no zero in an int column is parsed in C
    by one ``np.loadtxt`` call (``_parse_plain``); every file that call
    declines, or parses to other than one record per data line, is read by
    the row scan (``_scan_rows``).  The scan is the reference: it raises
    every error, and the two read the same bits from every file both accept.
    """
    table = _parse_plain(path, header_for, int_columns)
    return _scan_rows(path, what, header_for, int_columns) if table is None else table


def _parse_plain(path: str, header_for: HeaderFor, int_columns: int) -> Optional[np.ndarray]:
    """``read_csv``'s table from one ``np.loadtxt`` call, or None for a file
    that call might read otherwise than the row scan.

    ``loadtxt`` parses a float by ``PyOS_string_to_double`` as ``float``
    does, and an int64 rounds to the float of its text, so the tables agree
    bit for bit except where ``loadtxt`` is more lenient, which the guards
    decline: it knows no CSV quoting (no ``"``; no CR, for its line ends),
    has no field-size limit (no line over it), skips blank lines (one record
    per data line) and reads an int ``-0`` as +0.0 (no zero ints).  Where it
    is stricter (``1_0``, non-ASCII digits, ints beyond int64) it raises, as
    on bad data.  Warnings are errors, so a numpy that parses an int through
    a float with a DeprecationWarning declines too.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as fh:
            header = next(csv.reader([fh.readline(limit + 2).decode("utf-8")]), [])
            fh.seek(0)
            lines = _plain_lines(fh, limit)
        if lines is None or lines < 2 or header != header_for(len(header)):
            return None
        fields = [(f"f{i}", np.int64 if i < int_columns else np.float64) for i in range(len(header))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = np.loadtxt(path, dtype=fields, delimiter=",", comments=None, skiprows=1,
                                 encoding="utf-8", ndmin=1)
    except (OSError, ValueError, Warning):  # a file the parse cannot read is the scan's to read or reject
        return None
    if len(records) != lines - 1:
        return None
    table = np.empty((len(records), len(fields)))
    for i, (name, _) in enumerate(fields):
        table[:, i] = records[name]
    return None if int_columns and not table[:, :int_columns].all() else table


def _plain_lines(fh, limit: int) -> Optional[int]:
    """The number of lines in the binary file ``fh``, or None if
    they hold a quote, a CR or a line longer than ``limit`` bytes (a field of
    more than ``limit`` characters lies on such a line).  The file is read
    in chunks and never held whole."""
    ends, last_end, size = 0, -1, 0  # newlines seen, offset of the last one, bytes read
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        if b'"' in chunk or b"\r" in chunk:
            return None
        newlines = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + size
        if newlines.size:
            if np.diff(newlines, prepend=last_end).max() > limit + 1:
                return None
            ends, last_end = ends + newlines.size, int(newlines[-1])
        size += len(chunk)
    if size - last_end - 1 > limit:
        return None
    return ends + (last_end < size - 1)  # and an unterminated last line


def _scan_rows(path: str, what: str, header_for: HeaderFor, int_columns: int) -> np.ndarray:
    """``read_csv``'s table parsed row by row through ``csv.reader``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
