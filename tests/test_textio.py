from __future__ import annotations

import pytest

from linksched.textio import csv_lines, line_format, read_columns

HEADER = "q,k,s,prob,transient"
CONVERTERS = (int, int, int, float, int)
TOPS = (10, 3, 2, None, None)


class TestReadColumns:
    def test_columns_in_line_order(self):
        cols = read_columns(HEADER + "\n0,1,2,0.5,0\n\n10,3,0,1e-3,1\n",
                            HEADER, CONVERTERS, TOPS)
        assert cols == [[0, 10], [1, 3], [2, 0], [0.5, 1e-3], [0, 1]]
        assert [type(c[0]) for c in cols] == [int, int, int, float, int]

    def test_header_alone_gives_empty_columns(self):
        assert read_columns(HEADER, HEADER, CONVERTERS, TOPS) == [[]] * 5

    @pytest.mark.parametrize("body,message", [
        # a line's field count is checked before its fields
        ("0,1,2\n", "policy line '0,1,2': 3 fields, expected 5"),
        # every field parses before any index is checked
        ("99,0,0,abc,0\n",
         "policy line '99,0,0,abc,0': prob='abc' does not parse as float"),
        ("0,9,5,1,0\n", "policy line '0,9,5,1,0': k=9 outside 0..3"),
        ("-1,0,0,1,0\n", "policy line '-1,0,0,1,0': q=-1 outside 0..10"),
        # the first bad line is named, whatever fails on later ones
        ("0,0,0,1,0\n0,0,3,1,0\nx,0,0,1,0\n1,2\n",
         "policy line '0,0,3,1,0': s=3 outside 0..2"),
        ("0,0,0,1,0\n1,2\n0,0,3,1,0\n",
         "policy line '1,2': 2 fields, expected 5"),
    ], ids=["field-count", "parse-before-range", "k-range", "q-negative",
            "first-of-three", "count-before-later-range"])
    def test_first_fault_of_first_bad_line(self, body, message):
        with pytest.raises(ValueError) as err:
            read_columns(HEADER + "\n" + body, HEADER, CONVERTERS, TOPS)
        assert str(err.value) == message


def test_line_format_matches_csv_lines():
    row = (3, -1, 10**30, float("inf"), float("nan"), -0.0, 0.1, 5e-324,
           1.7976931348623157e308, True)
    template = line_format(*map(type, row))
    assert template.format(*row) == next(csv_lines([row]))
