"""The one CSV writer and reader: float format, line endings, errors."""

import math

import numpy as np
import pytest

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
    values = [x for x in SPECIAL if math.isfinite(x)]
    path = tmp_path / "t.csv"
    path.write_text(csv_text(["a", "b"], f"{FLOAT},{FLOAT}", zip(values, values[::-1])))
    table = read_csv(str(path), "test", lambda n: ["a", "b"] if n == 2 else None)
    assert table.view(np.uint64).tolist() == np.column_stack([values, values[::-1]]).view(np.uint64).tolist()


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
