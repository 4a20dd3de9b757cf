"""Tests for the JSON writer: every record it writes has exactly the bytes
of ``json.dumps(value, indent=2)``."""

import json
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets.audit import AuditReport
from sepsets.jsontext import array, cell, report, scalar, write_array

# non-ASCII, quotes, backslashes and control characters all need escapes
text = st.text(st.characters(), max_size=12) | st.sampled_from(
    ["", "é", "\"q\"", "back\\slash", "tab\tnew\nline", " ", "😀", "\x7f"]
)
scalars = st.integers() | text
params = st.dictionaries(text, scalars, max_size=5)
failure = st.builds(lambda *v: dict(zip(("params", "lhs", "rhs"), v)), params, scalars, scalars)
failures = st.lists(failure, max_size=4)
reports = st.builds(AuditReport, text, text, st.integers(0, 10**6), failures)
cells = st.tuples(
    st.integers(0, 10**6),
    st.integers(0, 10**4),
    st.integers(0),
    st.none() | st.sampled_from(["brute", "composition", "é\"\\"]),
)


def cell_dict(n, k, count, method):
    return {"n": n, "k": k, "count": count} | ({} if method is None else {"method": method})


class TestScalar:
    @given(scalars | st.booleans() | st.none() | st.floats())
    def test_as_json_writes_it(self, value):
        assert scalar(value) == json.dumps(value)


class TestReport:
    @given(reports)
    @example(AuditReport("Eq3.5", "m<=3,p<=2,k<=4,n<=24", 540, []))
    @example(AuditReport("é", "\"\\", 1, [{"params": {}, "lhs": "1/2", "rhs": 0}]))
    # keys that str.format would read as fields, unless their braces are doubled
    @example(AuditReport("x", "g", 1, [
        {"params": {"{": 1, "}": "}", "{}": -2, "{0}": "{1}", "é{n}": 3}, "lhs": "{}", "rhs": 4},
    ]))
    # failures with different params keys, the empty dict among them, each
    # write from the template of their keys, in turn
    @example(AuditReport("x", "g", 4, [
        {"params": {"m": 1, "k": 2}, "lhs": 3, "rhs": "7/2"},
        {"params": {"k": 2, "m": 1}, "lhs": 3, "rhs": 4},
        {"params": {"m": 5, "k": 6}, "lhs": "-1/3", "rhs": 0},
        {"params": {}, "lhs": 0, "rhs": 1},
    ]))
    @settings(max_examples=150, deadline=None)
    def test_bytes_of_json_dumps(self, r):
        assert r.to_json() == json.dumps(r.to_json_dict(), indent=2)

    @given(st.lists(reports, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_list_of_reports(self, rs):
        expected = json.dumps([r.to_json_dict() for r in rs], indent=2)
        assert array([r.to_json(indent=2) for r in rs]) == expected

    def test_ints_past_the_int_str_digit_limit(self):
        big = 7**6000  # 5,071 digits
        failure = {"params": {"n": big, "k": -big}, "lhs": big, "rhs": -big - 1}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            value = {"identity": "x", "grid": "g", "checked": big, "failures": [failure]}
            assert report(*value.values()) == json.dumps(value, indent=2)
            expected = json.dumps([cell_dict(big, 1, big, "brute")], indent=2)
            assert array([cell(big, 1, big, "brute")]) == expected
        finally:
            sys.set_int_max_str_digits(limit)


class TestCell:
    @given(cells)
    @example((0, 0, 1, None))
    @example((4, 2, 4, "brute"))
    def test_one_cell(self, c):
        assert cell(*c) == json.dumps(cell_dict(*c), indent=2).replace("\n", "\n  ")

    @given(st.lists(st.lists(cells, max_size=3), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_streamed_batches(self, batches):
        # empty batches write nothing, and no batch at all gives []
        written = []
        write_array(written.append, ([cell(*c) for c in batch] for batch in batches))
        flat = [cell_dict(*c) for batch in batches for c in batch]
        assert "".join(written) == json.dumps(flat, indent=2)
        assert len(written) == sum(1 for batch in batches if batch) + 1
