import csv
import io
import pathlib
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phenotrail
from phenotrail.errors import InputError, csv_rows, line_blocks

HEADER = ("a", "b", "c")


def csv_rows_oracle(text, header):
    """The shared reader's rules over ``csv.reader`` alone."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise InputError("t file is empty")
        if header is None:
            rows = [(1, first)]
        elif tuple(name.strip() for name in first) != header:
            raise InputError(f"t header must be {','.join(header)!r}, got {','.join(first)!r}")
        else:
            rows = []
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1  # the line the row starts on
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(first):
                raise InputError(f"t line {lineno}: expected {len(first)} fields, got {len(row)}")
            rows.append((lineno, row))
    except csv.Error as exc:
        raise InputError(f"t line {reader.line_num}: {exc}") from None
    return rows


def _outcome(read, *args):
    try:
        return read(*args)
    except InputError as exc:
        return str(exc)


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(["a,b,c", " a , b,c", 'a,"b\n",c', "a,b", "x,y,z", ""]))
    field = st.sampled_from(["", "1", " 2 ", "\t", "x y", "a'b", "\0"])
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank", "spaces", "quoted", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", " \t "])))
        elif kind == "quoted":
            lines.append(draw(st.sampled_from(['"1,2",3,4', '"1\n2",3,4', '"1\r\n\n",3'])))
        elif kind == "long":
            lines.append("y" * (csv.field_size_limit() + 1) + ",1,2")
        else:
            width = draw(st.sampled_from([3, 3, 3, 1, 2, 4]))
            lines.append(",".join(draw(st.lists(field, min_size=width, max_size=width))))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestCsvRows:
    @given(csv_texts(), st.sampled_from([HEADER, None]))
    @settings(max_examples=300, deadline=None)
    def test_same_rows_or_error_as_the_csv_module(self, text, header):
        rows = _outcome(lambda: list(csv_rows(io.StringIO(text, newline=""), "t", header)))
        assert rows == _outcome(csv_rows_oracle, text, header)

    def test_rows_are_numbered_by_the_line_they_start_on(self):
        text = 'a,b,c\n"p\n1",2,3\n1,2\n'
        with pytest.raises(InputError, match="^t line 4: expected 3 fields, got 2$"):
            list(csv_rows(io.StringIO(text, newline=""), "t", HEADER))
        rows = csv_rows(io.StringIO('a,b,c\n"p\n\n1",2,3\n\n4,5,6\n', newline=""), "t", HEADER)
        assert list(rows) == [(2, ["p\n\n1", "2", "3"]), (6, ["4", "5", "6"])]
        rows = csv_rows(io.StringIO('a,"b\n",c\n4,5,6\n', newline=""), "t", HEADER)
        assert list(rows) == [(3, ["4", "5", "6"])]

    def test_csv_errors_name_the_line_they_are_seen_on(self):
        text = "a,b,c\n1,2,3\n\n" + "y" * (csv.field_size_limit() + 1) + ",1,2\n"
        with pytest.raises(InputError, match="^t line 4: field larger than field limit"):
            list(csv_rows(io.StringIO(text, newline=""), "t", HEADER))

    def test_messages(self):
        for text, message in (
            ("", "t file is empty"),
            ("a,b\n", "t header must be 'a,b,c', got 'a,b'"),
            ("a,b,c\n1,2,3\n \n1,2\n", "t line 4: expected 3 fields, got 2"),
        ):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                list(csv_rows(io.StringIO(text), "t", HEADER))

    def test_without_a_header_the_header_row_comes_first(self):
        rows = csv_rows(io.StringIO("b, a\n1,2\n\n"), "t")
        assert list(rows) == [(1, ["b", " a"]), (2, ["1", "2"])]


class TestLineBlocks:
    @given(st.text(alphabet="ab\n\r\u00e9", max_size=60), st.integers(1, 70), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_runs_are_whole_lines_that_rejoin_to_the_input(self, text, size, binary):
        data = text.encode() if binary else text
        handle = io.BytesIO(data) if binary else io.StringIO(text, newline="")
        runs = list(line_blocks(handle, size))
        newline = b"\n" if binary else "\n"
        assert data[:0].join(runs) == data
        assert all(run for run in runs)
        assert all(run.endswith(newline) for run in runs[:-1])

    def test_one_long_line_costs_linear_time(self):
        # A reader that recopied its held tail at each read would copy about
        # 32 GB here (16,384 reads of 256 bytes, each recopying up to 4 MB),
        # over 3 s on a host where this reader takes under 0.01 s.
        data = b"x" * (4 << 20) + b"\nlast"
        started = time.perf_counter()
        runs = list(line_blocks(io.BytesIO(data), 256))
        assert time.perf_counter() - started < 1.0
        assert runs == [data[:-4], b"last"]


def test_only_the_shared_reader_parses_csv():
    """Every CSV input goes through ``errors.csv_rows``, so that its rules
    have one home."""
    package = pathlib.Path(phenotrail.__file__).parent
    readers = re.compile(r"\bcsv\.(?:reader|DictReader)\b")
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "errors.py" and readers.search(path.read_text(encoding="utf-8"))]
    assert offenders == []
