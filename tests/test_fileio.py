"""The one CSV writer and reader: float format, line endings, errors."""

import csv
import math

import numpy as np
import pytest

from ifslab import fileio
from ifslab.errors import ConfigError
from ifslab.fileio import FLOAT, csv_text, fmt_float, read_csv

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1.7976931348623157e308,
           0.1, 1.0 / 3.0, 2.0**53 + 2.0, math.nan, math.inf, -math.inf]


def test_csv_text_floats_are_fmt_float_bytes():
    rng = np.random.default_rng(0)
    random_bits = rng.integers(0, 2**63, 2000, dtype=np.int64).view(np.float64)
    values = SPECIAL + random_bits.tolist() + [np.float64(x) for x in SPECIAL]
    rows = [(k, x, -x) for k, x in enumerate(values)]
    text = csv_text(["k", "x", "neg"], f"%d,{FLOAT},{FLOAT}", rows)
    expected = ["k,x,neg"] + [f"{k},{fmt_float(x)},{fmt_float(-x)}" for k, x, _ in rows]
    assert text.encode() == ("\n".join(expected) + "\n").encode()
    # fmt_float itself renders as format(x, ".17g") did before it was defined from FLOAT
    assert [fmt_float(x) for x in values] == [format(float(x), ".17g") for x in values]
    assert [fmt_float(x) for x in SPECIAL[:3]] == ["-0", "0", "4.9406564584124654e-324"]
    assert [fmt_float(x) for x in SPECIAL[-3:]] == ["nan", "inf", "-inf"]


def test_csv_text_round_trips_through_read_csv(tmp_path):
    # 6,000 rows over several read chunks: the C parse reads the file, and
    # its table is the row scan's and the written values' bit for bit
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2**64, 5987, dtype=np.uint64).view(np.float64)
    values = SPECIAL + np.where(np.isnan(bits), np.nan, bits).tolist()  # "nan" keeps no payload
    keys = rng.integers(-(2**62), 2**62, len(values)).tolist()
    path = tmp_path / "t.csv"
    path.write_text(csv_text(["k", "a", "b"], f"%d,{FLOAT},{FLOAT}", zip(keys, values, values[::-1])))
    assert path.stat().st_size > 4 << 16
    header_for = lambda n: ["k", "a", "b"] if n == 3 else None  # noqa: E731
    table = fileio._parse_plain(str(path), header_for, 1)
    assert table is not None
    expected = np.column_stack([np.array(keys, dtype=float), values, values[::-1]])
    assert table.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert read_csv(str(path), "test", header_for, int_columns=1).tobytes() == table.tobytes()
    assert fileio._scan_rows(str(path), "test", header_for, 1).tobytes() == table.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "row 1: bad test header \\[\\], no test header has 0 field"),
        ("a\n1\n", "row 1: bad test header \\['a'\\], no test header has 1 field"),
        ("b,a\n1,2\n", "row 1: bad test header \\['b', 'a'\\], expected \\['a', 'b'\\]"),
        ("a,b\n1,2\n3\n", "row 3: expected 2 fields, got 1"),
        ("a,b\n1,2\n\n", "row 3: expected 2 fields, got 0"),
        ("a,b\n1,x\n", "row 2: non-numeric field"),
        ("a,b\n1,2\n2.5,3\n", "row 3: non-numeric field"),  # column a holds integers
        ("a,b\n", "no data rows"),
    ],
)
def test_read_csv_errors_name_the_file_and_row(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as info:
        read_csv(str(path), "test", lambda n: ["a", "b"] if n == 2 else None, int_columns=1)
    assert str(info.value).startswith(str(path))


@pytest.mark.parametrize(
    "data, cause",
    [
        (None, "No such file"),
        (b"a,b\n1,2\n3,\xff\n", "can't decode byte 0xff"),  # both used to end in a traceback
        (b"a,b\n1," + b"1" * 200_000 + b"\n", "field larger than field limit"),
        (b'a,b\n1,"2\n', "unexpected end of data"),  # used to read as 2.0
        (b'a,b\n1,"2"3\n', "',' expected after '\"'"),
    ],
    ids=["missing", "not-utf8", "oversized-field", "open-quote", "text-after-quote"],
)
def test_read_csv_reports_an_unreadable_file(tmp_path, data, cause):
    path = tmp_path / "t.csv"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(ConfigError, match=f"cannot read test file {path}: .*{cause}"):
        read_csv(str(path), "test", lambda n: ["a", "b"] if n == 2 else None)


# ---------------------------------------------------------------------------
# the C parse against the row scan

LIMIT = csv.field_size_limit()


def _swap_field(rng, lines, column=None, value=None, edit=None):
    """Replace one field of a random data line by ``value`` or ``edit(field)``."""
    i = int(rng.integers(1, len(lines)))
    fields = lines[i].split(",")
    j = int(rng.integers(len(fields))) if column is None else column
    fields[j] = edit(fields[j]) if edit else value
    lines[i] = ",".join(fields)


def _insert_line(rng, lines, line):
    lines.insert(int(rng.integers(1, len(lines) + 1)), line)


def _drop_field(rng, lines):
    i = int(rng.integers(1, len(lines)))
    lines[i] = lines[i].rsplit(",", 1)[0]


MUTATIONS = {
    "none": lambda rng, lines: None,
    "blank line": lambda rng, lines: _insert_line(rng, lines, ""),
    "blank last line": lambda rng, lines: lines.append(""),
    "whitespace line": lambda rng, lines: _insert_line(rng, lines, " \t "),
    "quoted field": lambda rng, lines: _swap_field(rng, lines, edit=lambda f: f'"{f}"'),
    "text after quote": lambda rng, lines: _swap_field(rng, lines, value='"2"3'),
    "CRLF line": lambda rng, lines: _swap_field(rng, lines, column=-1, edit=lambda f: f + "\r"),
    "CR in a line": lambda rng, lines: _swap_field(rng, lines, edit=lambda f: "1\r" + f),
    "underscore": lambda rng, lines: _swap_field(rng, lines, value="1_0"),
    "Arabic-Indic digit": lambda rng, lines: _swap_field(rng, lines, value="\u0663"),
    "NUL": lambda rng, lines: _swap_field(rng, lines, value="1\x002"),
    "padded field": lambda rng, lines: _swap_field(rng, lines, edit=lambda f: f" {f}\xa0"),
    "first field 1.5": lambda rng, lines: _swap_field(rng, lines, column=0, value="1.5"),
    "first field 1e3": lambda rng, lines: _swap_field(rng, lines, column=0, value="1e3"),
    "first field +5": lambda rng, lines: _swap_field(rng, lines, column=0, value="+5"),
    "first field -0": lambda rng, lines: _swap_field(rng, lines, column=0, value="-0"),
    "first field 2**64": lambda rng, lines: _swap_field(rng, lines, column=0, value=str(2**64)),
    "missing field": _drop_field,
    "extra field": lambda rng, lines: _swap_field(rng, lines, column=-1, edit=lambda f: f + ",1"),
    "empty field": lambda rng, lines: _swap_field(rng, lines, value=""),
    "field at the size limit": lambda rng, lines: _swap_field(rng, lines, edit=lambda f: f.rjust(LIMIT)),
    "field over the size limit": lambda rng, lines: _swap_field(rng, lines, value="1" * (LIMIT + 1)),
    "non-finite": lambda rng, lines: _swap_field(
        rng, lines, value=str(rng.choice(["nan", "-nan", "inf", "-inf", "NaN", "Infinity"]))),
    "bad header": lambda rng, lines: lines.__setitem__(0, lines[0].upper()),
}


def _valid_lines(rng, kind):
    """A cloud (int iter column first) or dataset CSV of random size, as lines."""
    rows, d = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    floats = rng.integers(0, 2**64, (rows, d + 1), dtype=np.uint64).view(np.float64)
    floats[~np.isfinite(floats)] = 0.5
    if kind == "cloud":
        header = ["iter"] + [f"w{i}" for i in range(d)]
        body = [f"{100 + 3 * k}," + ",".join(map(fmt_float, row[:d])) for k, row in enumerate(floats)]
    else:
        header = [f"x{i}" for i in range(d)] + ["y"]
        body = [",".join(map(fmt_float, row)) for row in floats]
    return [",".join(header)] + body


@pytest.mark.parametrize("kind", ["cloud", "dataset"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_read_csv_matches_the_row_scan(tmp_path, kind, mutation):
    """read_csv's table is the row scan's bit for bit, or both raise one text."""
    header_for = {"cloud": lambda n: ["iter"] + [f"w{i}" for i in range(n - 1)] if n > 1 else None,
                  "dataset": lambda n: [f"x{i}" for i in range(n - 1)] + ["y"] if n > 1 else None}[kind]
    int_columns = int(kind == "cloud")
    rng = np.random.default_rng([len(mutation), int_columns, *map(ord, mutation)])
    for case in range(4):
        lines = _valid_lines(rng, kind)
        MUTATIONS[mutation](rng, lines)
        path = str(tmp_path / f"{case}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + ("\n" if case % 2 else ""))
        try:
            expected = fileio._scan_rows(path, "t", header_for, int_columns)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as info:
                read_csv(path, "t", header_for, int_columns)
            assert str(info.value) == str(exc)
        else:
            table = read_csv(path, "t", header_for, int_columns)
            assert table.shape == expected.shape and table.tobytes() == expected.tobytes()
        if mutation in ("none", "padded field", "first field +5") or (mutation == "non-finite" and not int_columns):
            assert fileio._parse_plain(path, header_for, int_columns) is not None  # the C route ran


@pytest.mark.parametrize(
    "data, lines",
    [
        (b"", 0),
        (b"\n", 1),
        (b"1,2", 1),
        (b"1,2\n3,4", 2),
        (b"1,2\n" * 40_000, 40_000),  # several read chunks
        (b"x" * LIMIT + b"\n", 1),
        (b"x" * (LIMIT + 1) + b"\n", None),
        (b"1\n" * 30_000 + b"x" * LIMIT + b"\n", 30_001),  # the long line straddles two chunks
        (b"1\n" * 30_000 + b"x" * (LIMIT + 1) + b"\n", None),
        (b"1\n" + b"x" * LIMIT, 2),  # an unterminated last line
        (b"1\n" + b"x" * (LIMIT + 1), None),
        (b'1,"2"\n', None),
        (b"1,2\r\n", None),
    ],
)
def test_plain_lines_counts_lines_and_declines_quotes_crs_and_long_lines(tmp_path, data, lines):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert fileio._plain_lines(fh, LIMIT) == lines
