"""Tests for the command-line interface: outputs, formats, exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepsets
from sepsets import audit, cli, counting, oracle
from sepsets.audit import IdentityId
from sepsets.cli import METHODS, main
from sepsets.counting import ROUTES, count_query
from sepsets.oracle import count_brute


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, module, name):
    """The list of argument tuples of every call to ``module.name`` from now
    on, until the monkeypatch is undone."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCount:
    def test_circle_paper_example(self, capsys):
        code, out, _ = run(
            capsys, "count", "--topology", "circle",
            "--n", "5", "--k", "2", "--m", "2", "--p", "1",
        )
        assert (code, out) == (0, "5\n")

    def test_line(self, capsys):
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "6", "--k", "2", "--m", "2", "--p", "1",
        )
        assert (code, out) == (0, "11\n")

    def test_k_zero(self, capsys):
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "10", "--k", "0", "--m", "3", "--p", "2",
        )
        assert (code, out) == (0, "1\n")

    @pytest.mark.parametrize(
        "method", ["auto", "closed1", "closed2", "closed3", "composition",
                   "series", "recurrence", "brute"],
    )
    def test_line_methods_agree(self, capsys, method):
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "9", "--k", "3", "--m", "2", "--p", "1",
            "--method", method,
        )
        assert (code, out) == (0, "40\n")

    @pytest.mark.parametrize(
        "method", ["auto", "closed1", "composition", "series", "recurrence", "brute"],
    )
    def test_circle_methods_agree(self, capsys, method):
        code, out, _ = run(
            capsys, "count", "--topology", "circle",
            "--n", "9", "--k", "2", "--m", "2", "--p", "1",
            "--method", method,
        )
        assert (code, out) == (0, "27\n")

    def test_circle_rejects_line_only_method(self, capsys):
        code, _, err = run(
            capsys, "count", "--topology", "circle",
            "--n", "9", "--k", "2", "--m", "2", "--p", "1",
            "--method", "closed3",
        )
        assert code == 1
        assert "line topology" in err

    def test_method_outside_validity_range(self, capsys):
        code, _, err = run(
            capsys, "count", "--topology", "circle",
            "--n", "4", "--k", "2", "--m", "2", "--p", "1",
            "--method", "closed1",
        )
        assert code == 1
        assert "m*p*k+1" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "count", "--topology", "circle",
            "--n", "40", "--k", "2", "--m", "2", "--p", "1",
            "--method", "brute",
        )
        assert code == 1
        assert "capped at n <= 32" in err

    def test_cap_can_be_raised(self, capsys):
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "40", "--k", "2", "--m", "1", "--p", "1",
            "--method", "brute", "--cap", "48",
        )
        assert (code, out) == (0, "741\n")

    @pytest.mark.parametrize(
        "n, k, m, expected",
        [
            # p = 1, m = n/2: the only conflicts are the n/2 antipodal pairs,
            # so pick k of the pairs and one end of each: C(n/2, k) * 2^k
            (64, 20, 32, "236760952995840"),
            (40, 12, 20, "515973120"),
        ],
    )
    def test_brute_with_half_circle_separation(self, capsys, n, k, m, expected):
        assert int(expected) == comb(n // 2, k) * 2**k
        code, out, err = run(
            capsys, "count", "--topology", "circle",
            "--n", str(n), "--k", str(k), "--m", str(m), "--p", "1",
            "--method", "brute", "--cap", "64",
        )
        assert (code, out, err) == (0, expected + "\n", "")

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "--topology", "line", "--n", "5"])
        assert err.value.code == 1

    def test_count_past_the_int_str_digit_limit(self, capsys):
        # the circle count here has more than 4300 decimal digits
        n, k = 90000, 2800
        code, out, err = run(
            capsys, "count", "--topology", "circle",
            "--n", str(n), "--k", str(k), "--m", "1", "--p", "1",
        )
        assert (code, err) == (0, "")
        assert len(out) > 4300
        assert int(out) == n * comb(n - k, k) // (n - k)

    @pytest.mark.parametrize(
        "flags", [[], ["--method", "closed1"], ["--method", "series"]],
        ids=["auto", "closed1", "series"],
    )
    def test_count_from_prime_factors(self, capsys, flags):
        # big-counts' seed-1 edge point: C(n - k, k) and C(n - k - 1, k - 1)
        # are past binom_nat's rule, so closed1 (auto's pick) and series,
        # Kaplansky's two forms, build one each from its prime factors
        n, k = 109054, 2898
        code, out, err = run(
            capsys, "count", "--topology", "circle", "--n", str(n), "--k", str(k),
            "--m", "1", "--p", "1", *flags,
        )
        assert (code, err) == (0, "")
        assert out == f"{n * comb(n - k, k) // (n - k)}\n"
        assert len(out) == 5772 + 1

    @pytest.mark.parametrize("method", ["recurrence", "composition", "auto"])
    def test_circle_below_range_past_the_cap(self, capsys, method):
        # the value of --method brute --cap 64; no formula route reads the
        # cap, and auto sends cells past it to the cycle composition
        code, out, err = run(
            capsys, "count", "--topology", "circle",
            "--n", "40", "--k", "12", "--m", "3", "--p", "2",
            "--method", method,
        )
        assert (code, out, err) == (0, "4550\n", "")

    @pytest.mark.parametrize("topology", ["circle", "line"])
    def test_recurrence_at_a_huge_n(self, capsys, topology):
        # the rows stop at boundary(k) + k, so n does not set the cost
        argv = ("count", "--topology", topology, "--n", "1000000000000",
                "--k", "3", "--m", "2", "--p", "1")
        code, out, err = run(capsys, *argv, "--method", "recurrence")
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--method", "composition") == (0, out, "")
        if topology == "circle":
            assert out == "166666666665166666666670000000000000\n"

    @pytest.mark.parametrize(
        "topology,method", [("line", "auto"), ("circle", "composition")],
    )
    def test_k_past_n_prints_zero(self, capsys, topology, method):
        code, out, err = run(
            capsys, "count", "--topology", topology,
            "--n", "5", "--k", "1000000000000", "--m", "2", "--p", "1",
            "--method", method,
        )
        assert (code, out, err) == (0, "0\n", "")

    @pytest.mark.parametrize("topology", ["line", "circle"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "n,k,m,p,message",
        [
            (-1, 0, 1, 1, "need n >= 0, got n=-1"),
            (-1, -1, 1, 1, "need k >= 0, got k=-1"),
            (5, 2, 0, 1, "need m, p >= 1, got m=0, p=1"),
        ],
    )
    def test_invalid_arguments_get_one_message(
        self, capsys, topology, method, n, k, m, p, message
    ):
        code, out, err = run(
            capsys, "count", "--topology", topology,
            "--n", str(n), "--k", str(k), "--m", str(m), "--p", str(p),
            "--method", method,
        )
        assert (code, out) == (1, "")
        if topology == "circle" and method in ("closed2", "closed3"):
            assert "applies only to line topology" in err
        else:
            assert err == f"error: {message}\n"

    def test_composition_with_many_rows(self, capsys):
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "4800", "--k", "1", "--m", "1600", "--p", "1",
            "--method", "composition",
        )
        assert (code, out) == (0, "4800\n")


class TestRouteTable:
    def test_methods_are_the_line_routes_between_auto_and_brute(self):
        assert METHODS == ("auto", "closed1", "closed2", "closed3", "composition",
                           "series", "recurrence", "brute")

    def test_every_route_is_a_counting_function(self):
        for routes in ROUTES.values():
            for name in routes.values():
                assert getattr(counting, name).__module__ == "sepsets.counting"

    def test_route_is_looked_up_when_called(self, capsys, monkeypatch):
        # a tracer that rebinds module attributes must see the call
        monkeypatch.setattr(counting, "h_closed_1", lambda n, k, m, p: -7)
        code, out, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "9", "--k", "3", "--m", "2", "--p", "1", "--method", "closed1",
        )
        assert (code, out) == (0, "-7\n")


class TestList:
    def test_circle_paper_example(self, capsys):
        code, out, _ = run(
            capsys, "list", "--topology", "circle",
            "--n", "5", "--k", "2", "--m", "2", "--p", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert set(lines) == {"1,2", "2,3", "3,4", "4,5", "1,5"}

    def test_k_zero_prints_single_empty_line(self, capsys):
        code, out, _ = run(
            capsys, "list", "--topology", "line",
            "--n", "4", "--k", "0", "--m", "1", "--p", "1",
        )
        assert (code, out) == (0, "\n")

    def test_empty_result(self, capsys):
        code, out, _ = run(
            capsys, "list", "--topology", "line",
            "--n", "3", "--k", "3", "--m", "1", "--p", "2",
        )
        assert (code, out) == (0, "")

    def test_subset_longer_than_the_recursion_limit(self, capsys):
        code, out, err = run(
            capsys, "list", "--topology", "line",
            "--n", "1500", "--k", "1500", "--m", "2000", "--p", "1",
            "--cap", "2000",
        )
        assert (code, err) == (0, "")
        assert out == ",".join(str(i) for i in range(1, 1501)) + "\n"

    def test_line_count_matches_count_command(self, capsys):
        code, out, _ = run(
            capsys, "list", "--topology", "line",
            "--n", "8", "--k", "3", "--m", "2", "--p", "2",
        )
        assert code == 0
        code2, out2, _ = run(
            capsys, "count", "--topology", "line",
            "--n", "8", "--k", "3", "--m", "2", "--p", "2",
        )
        assert len(out.splitlines()) == int(out2)


@pytest.mark.parametrize(
    "command",
    [
        ["count", "--method", "brute"],
        ["count"],
        ["list"],
        ["count", "--method", "recurrence"],
        ["count", "--method", "composition"],
    ],
)
def test_negative_k_is_an_error(capsys, command):
    code, out, err = run(
        capsys, *command, "--topology", "circle",
        "--n", "5", "--k", "-1", "--m", "1", "--p", "1",
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: need k >= 0, got k=-1"]


class TestTable:
    def test_csv_layout(self, capsys):
        code, out, err = run(
            capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
            "--n-max", "6", "--k-max", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,count"
        assert "5,2,5" in lines
        assert "6,2,9" in lines
        assert lines.index("5,2,5") < lines.index("6,0,1")  # n-major order
        assert "brute-force cells" in err

    def test_k1_column_counts_n(self, capsys):
        _, out, _ = run(
            capsys, "table", "--topology", "line", "--m", "2", "--p", "1",
            "--n-max", "8", "--k-max", "1",
        )
        for n in range(9):
            assert f"{n},1,{n}" in out.splitlines()

    def test_line_row(self, capsys):
        _, out, _ = run(
            capsys, "table", "--topology", "line", "--m", "2", "--p", "1",
            "--n-max", "6", "--k-max", "2",
        )
        assert "6,2,11" in out.splitlines()

    def test_json_flags_brute_cells(self, capsys):
        code, out, _ = run(
            capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
            "--n-max", "6", "--k-max", "2", "--format", "json",
        )
        assert code == 0
        rows = {(cell["n"], cell["k"]): cell for cell in json.loads(out)}
        assert rows[(5, 2)]["count"] == 5
        assert "method" not in rows[(5, 2)]  # formula range starts at n = 5
        assert rows[(4, 2)] == {"n": 4, "k": 2, "count": 4, "method": "brute"}

    def test_json_line_has_no_method_field(self, capsys):
        _, out, _ = run(
            capsys, "table", "--topology", "line", "--m", "1", "--p", "1",
            "--n-max", "3", "--k-max", "1", "--format", "json",
        )
        assert all("method" not in cell for cell in json.loads(out))

    def test_deterministic_output(self, capsys):
        args = ("table", "--topology", "circle", "--m", "2", "--p", "2",
                "--n-max", "10", "--k-max", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--topology", "line", "--m", "1", "--p", "1",
            "--n-max", "2", "--k-max", "1", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "n,k,count"

    def test_out_path_that_cannot_be_opened(self, capsys, tmp_path):
        # a circle grid with brute cells: the stderr note must not precede
        # the error, which is the only line
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run(
            capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
            "--n-max", "6", "--k-max", "2", "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            # an empty grid is still checked, m and p first
            (["--m", "0", "--p", "0", "--n-max", "-1", "--k-max", "3"],
             "need m, p >= 1, got m=0, p=0"),
            (["--m", "2", "--p", "1", "--n-max", "3", "--k-max", "-1"],
             "need k-max >= 0, got k-max=-1"),
            (["--m", "2", "--p", "1", "--n-max", "-1", "--k-max", "3"],
             "need n-max >= 0, got n-max=-1"),
            (["--m", "2", "--p", "1", "--n-max", "-1", "--k-max", "-1"],
             "need k-max >= 0, got k-max=-1"),
        ],
    )
    def test_invalid_grid_is_an_error(self, capsys, flags, message):
        code, out, err = run(capsys, "table", "--topology", "circle", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_cap_violation(self, capsys):
        # below-range circle cells past the cap come from the cycle
        # composition instead of failing; the note lists the brute cells only
        args = ("table", "--topology", "circle", "--m", "3", "--p", "2",
                "--n-max", "40", "--k-max", "3", "--cap", "10")
        code, out, err = run(capsys, *args)
        assert code == 0
        for line in out.splitlines()[1:]:
            n, k, value = map(int, line.split(","))
            assert value == count_brute(count_query("circle", n, k, 3, 2), cap=64)
        assert "(10,2)" in err and "(11,2)" not in err
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        methods = {(cell["n"], cell["k"]): cell.get("method") for cell in json.loads(out)}
        # k = 2: the closed form starts at n = m*p*k + 1 = 13
        assert [methods[(n, 2)] for n in (10, 11, 12, 13)] == [
            "brute", "composition", "composition", None,
        ]

    @pytest.mark.usefixtures("fresh_audit_rows")
    def test_line_cells_come_from_one_row_per_n(self, capsys, monkeypatch):
        # every n = 2..40 has a cell below the closed-form range at k = 8
        # and within k <= n, each answered from one composition product up
        # to min(k-max, n); one product per (n, k) cell would make 167
        rows = record_calls(monkeypatch, cli, "h_composition_row")
        products = record_calls(monkeypatch, counting, "_composition")
        code, _, _ = run(capsys, "table", "--topology", "line", "--m", "3", "--p", "2",
                         "--n-max", "40", "--k-max", "8")
        assert code == 0
        assert rows == [(n, min(8, n), 3, 2) for n in range(2, 41)]
        assert len(products) == 39

    def test_circle_cells_come_from_one_scan_per_n(self, capsys, monkeypatch):
        # the n below the circle range at k = 8, n < m*p*k + 1 = 17, are
        # each scanned once, only to min(k-max, n); the rest are in range
        scans = record_calls(monkeypatch, cli, "count_brute_row")
        code, _, _ = run(capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
                         "--n-max", "24", "--k-max", "8")
        assert code == 0
        assert scans == [(count_query("circle", n, min(8, n), 2, 1), 32) for n in range(17)]

    def test_circle_cells_past_the_cap_come_from_the_cycle_composition(
        self, capsys, monkeypatch
    ):
        # the oracle scans n = 0..cap once each; past the cap every cell
        # below the range, n < 2k + 1, is one cycle composition, k > n too:
        # 36 of them, for n = 6..16
        scans = record_calls(monkeypatch, cli, "count_brute_row")
        compositions = record_calls(monkeypatch, counting, "g_composition")
        code, _, _ = run(capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
                         "--n-max", "24", "--k-max", "8", "--cap", "5")
        assert code == 0
        assert scans == [(count_query("circle", n, min(8, n), 2, 1), 5) for n in range(6)]
        assert compositions == [
            (n, k, 2, 1) for n in range(6, 17) for k in range((n + 1) // 2, 9)
        ]

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_circle_cells_equal_the_oracle(self, capsys, m, p):
        code, out, _ = run(
            capsys, "table", "--topology", "circle", "--m", str(m), "--p", str(p),
            "--n-max", "32", "--k-max", "8",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            n, k, value = map(int, line.split(","))
            assert value == count_brute(count_query("circle", n, k, m, p)), (n, k)


class TestTableStream:
    """``table`` writes its cells as it makes them, in exactly the layout of
    ``json.dumps(cells, indent=2)``, and fails before its first byte."""

    GRIDS = [
        ["--m", "2", "--p", "1", "--n-max", "0", "--k-max", "0"],
        ["--m", "3", "--p", "2", "--n-max", "40", "--k-max", "3", "--cap", "20"],
        ["--m", "2", "--p", "1", "--n-max", "12", "--k-max", "4"],
        # no cell in the formula range
        ["--m", "50", "--p", "1", "--n-max", "20", "--k-max", "3"],
        ["--m", "1", "--p", "60", "--n-max", "20", "--k-max", "3"],
    ]

    @pytest.mark.parametrize("topology", ["line", "circle"])
    @pytest.mark.parametrize("flags", GRIDS)
    def test_json_is_json_dumps_bytes(self, capsys, topology, flags):
        args = ("table", "--topology", topology, *flags)
        code, out, err = run(capsys, *args, "--format", "json")
        assert (code, err) == (0, "")
        cells = json.loads(out)
        assert out == json.dumps(cells, indent=2) + "\n"
        # the same cells as the CSV, and "method" only on below-range circle cells
        _, csv, _ = run(capsys, *args)
        assert [f"{c['n']},{c['k']},{c['count']}" for c in cells] == csv.splitlines()[1:]
        methods = {c.get("method") for c in cells}
        assert methods <= ({None} if topology == "line" else {None, "brute", "composition"})

    def test_csv_note_is_unchanged(self, capsys):
        code, out, err = run(
            capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
            "--n-max", "6", "--k-max", "2",
        )
        assert code == 0 and out.startswith("n,k,count\n0,0,1\n")
        assert err == (
            "note: brute-force cells (below the circle formula range): "
            "(0,0) (0,1) (0,2) (1,1) (1,2) (2,1) (2,2) (3,2) (4,2)\n"
        )

    def test_csv_note_runs_break_at_gaps_and_rows(self, capsys, monkeypatch):
        # a run of the note holds consecutive k of one n: a gap in k or a
        # new n starts the next one
        rows = [(3, [(0, 1, "brute"), (1, 2, "brute"), (2, 3, None), (3, 4, "brute")]),
                (4, [(4, 5, "brute")]), (5, [(5, 6, "brute"), (6, 7, "brute")])]
        monkeypatch.setattr(cli, "_table_rows", lambda args: iter(rows))
        code, out, err = run(capsys, "table", "--topology", "circle", "--m", "1", "--p", "1",
                             "--n-max", "5", "--k-max", "6")
        assert code == 0 and out.splitlines()[1:] == [
            f"{n},{k},{v}" for n, row in rows for k, v, _ in row
        ]
        assert err == (
            "note: brute-force cells (below the circle formula range): "
            "(3,0) (3,1) (3,3) (4,4) (5,5) (5,6)\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m", "0", "--p", "1", "--n-max", "3", "--k-max", "3"],
             "need m, p >= 1, got m=0, p=1"),
            (["--m", "2", "--p", "1", "--n-max", "3", "--k-max", "-1"],
             "need k-max >= 0, got k-max=-1"),
            (["--m", "2", "--p", "1", "--n-max", "-1", "--k-max", "3"],
             "need n-max >= 0, got n-max=-1"),
        ],
    )
    def test_argument_error_writes_no_byte(self, capsys, tmp_path, fmt, flags, message):
        target = tmp_path / "table.out"
        for out_flag in ([], ["--out", str(target)]):
            code, out, err = run(capsys, "table", "--topology", "circle", *flags,
                                 "--format", fmt, *out_flag)
            assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_is_opened_before_any_cell(self, capsys, tmp_path, monkeypatch, fmt):
        calls = record_calls(monkeypatch, cli, "_route")
        target = tmp_path / "missing" / "table.out"
        code, out, err = run(capsys, "table", "--topology", "line", "--m", "1", "--p", "1",
                             "--n-max", "5", "--k-max", "1", "--format", fmt,
                             "--out", str(target))
        assert (code, out, calls) == (1, "", [])
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_n_max(self, tmp_path, fmt):
        # the cells are written as they are made: the traced peak at 4x the
        # rows stays about the same (holding every cell grew it 4x)
        def peak(n_max):
            tracemalloc.start()
            try:
                assert main(["table", "--topology", "line", "--m", "1", "--p", "1",
                             "--n-max", str(n_max), "--k-max", "1", "--format", fmt,
                             "--out", str(tmp_path / "t.out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations stay out of the comparison
        assert peak(2000) <= 1.3 * peak(500)

    @pytest.mark.usefixtures("fresh_audit_rows")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_memory_does_not_grow_with_n_max_past_it(self, tmp_path, topology, fmt):
        # with --k-max far above --n-max, the line rows and the circle's
        # oracle rows (all cells within the raised cap) hold at most n + 1
        # counts each; padded to k-max + 1 they grew the peak with n-max.
        # The CSV note keeps one run of k per n, where a list of every
        # oracle cell grew it too
        def peak(n_max):
            tracemalloc.start()
            try:
                assert main(["table", "--topology", topology, "--m", "1", "--p", "1",
                             "--n-max", str(n_max), "--k-max", "1000", "--cap", "32",
                             "--format", fmt, "--out", str(tmp_path / "t.out")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations stay out of the comparison
        assert peak(32) <= 1.3 * peak(8)

    @staticmethod
    def table_peak(tmp_path, *flags):
        """The traced peak of one ``table`` run written to a file."""
        tracemalloc.start()
        try:
            assert main(["table", *flags, "--out", str(tmp_path / "t.out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.usefixtures("fresh_audit_rows")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_rows_below_the_range(self, tmp_path, fmt):
        # every n below 174 has cells below the line range at k = 30; each
        # n's row is dropped after that n, where keeping every row in the
        # line counts' store grew the peak 3.4x
        def peak(n_max):
            return self.table_peak(tmp_path, "--topology", "line", "--m", "3", "--p", "2",
                                   "--n-max", str(n_max), "--k-max", "30", "--format", fmt)

        peak(10)  # first-call allocations stay out of the comparison
        assert peak(240) <= 1.3 * peak(60)

    @pytest.mark.parametrize("topology, fmt", [("line", "csv"), ("circle", "csv"),
                                               ("circle", "json")])
    def test_memory_does_not_grow_with_k_max(self, tmp_path, topology, fmt):
        # the cells and the CSV note's runs are written in slices of at most
        # cli._SLICE cells; one chunk of all k-max + 1 cells grew the peak
        # 9.3x from --k-max 3000 to 30000 at --n-max 2
        def peak(k_max):
            return self.table_peak(tmp_path, "--topology", topology, "--m", "1", "--p", "1",
                                   "--n-max", "0", "--k-max", str(k_max), "--format", fmt)

        peak(10)  # first-call allocations stay out of the comparison
        assert peak(32768) <= 1.3 * peak(8192)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_that_fills_up_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "table", "--topology", "line", "--m", "1", "--p", "1",
                             "--n-max", "3000", "--k-max", "1", "--out", "/dev/full")
        assert (code, out) == (1, "")
        assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


class TestParserReuse:
    """What the plain-argv reader declines goes to one argparse parser,
    built once per process; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_is_unchanged_by_a_call_between(self, capsys):
        def usage_error():
            with pytest.raises(SystemExit) as exc:
                main(["count", "--topology", "line", "--n", "5"])
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        first = usage_error()
        assert run(
            capsys, "count", "--topology", "line",
            "--n", "6", "--k", "2", "--m", "2", "--p", "1", "--method", "brute",
        ) == (0, "11\n", "")
        assert usage_error() == first
        assert first[:2] == (1, "")
        assert "error: the following arguments are required" in first[2]

    def test_method_default_after_brute(self, capsys):
        args = ("count", "--topology", "line", "--n", "40", "--k", "3",
                "--m", "1", "--p", "1")
        # n = 40 is past the default cap, so only auto answers; m = p = 1
        # forbids neighbours, which leaves C(n - k + 1, k) subsets
        code, _, err = run(capsys, *args, "--method", "brute")
        assert code == 1 and err.startswith("error: ")
        assert run(capsys, *args) == (0, f"{comb(38, 3)}\n", "")

    def test_format_default_after_json(self, capsys):
        args = ("table", "--topology", "line", "--m", "2", "--p", "1",
                "--n-max", "2", "--k-max", "1")
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0 and out.startswith("[")
        code, out, _ = run(capsys, *args)
        assert (code, out) == (0, "n,k,count\n0,0,1\n0,1,0\n1,0,1\n1,1,1\n2,0,1\n2,1,2\n")


# the tokens an argv is drawn from: every flag, near-flags, ints (one
# past the 4300-digit int -> str limit), odd strings, choices and grids
_FLAGS = sorted({opt[0] for _, options in cli._COMMANDS.values() for opt in options})
_VALUES = (
    "0", "1", "2", "7", "40", "-1", "-12", "9" * 4301, " 7", "1_0", "", "abc",
    "line", "circle", "csv", "json", "text", *METHODS, "all", "Eq3.5",
    "m<=1,p<=1,k<=2,n<=8",
)
_TOKEN = st.sampled_from((*_FLAGS, "--top", "--n=5", "-h", "--help", "--", *_VALUES))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(tuple(cli._COMMANDS)))
    if draw(st.integers(0, 3)) == 0:
        return [command, *draw(st.lists(_TOKEN, max_size=9))]
    tokens = []
    # most argv give every required flag, some optional ones, and values
    # of the flag's own kind, so that many of them are plain
    for flag, kind, choices, default, _ in draw(st.permutations(cli._COMMANDS[command][1])):
        if draw(st.integers(0, 15) if default is cli._REQUIRED else st.booleans()) == 0:
            continue
        if draw(st.integers(0, 15)) == 0 or not (choices or kind is int):
            values = _VALUES
        else:
            values = choices or [str(v) for v in range(41)]
        tokens += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 3)) == 0:
        tokens += draw(st.lists(_TOKEN, max_size=9))
    return [command, *tokens]


class TestPlainArgv:
    """``main`` reads a plain argv from ``_COMMANDS`` without argparse, and
    gets the values argparse would."""

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    @example(["count", "--topology", "line", "--n", "9" * 4301, "--k", " 7",
              "--m", "1_0", "--p", "2"])
    @example(["audit", "--grid", "", "--identity", "all", "--format", "json"])
    def test_reader_agrees_with_argparse(self, argv):
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)  # as main does, for the process
        args = cli._read(argv)
        if args is not None:
            try:
                parsed = cli._build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse rejects {argv!r}, which the reader accepts")
            assert vars(args) == vars(parsed)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["count", "-h"], [], ["count"],
        ["count", "--topology", "line", "--n", "5", "--m", "2", "--p", "1"],
        ["count", "--top", "line", "--n", "5", "--k", "2", "--m", "2", "--p", "1"],
        ["count", "--topology", "line", "--n=5", "--k", "2", "--m", "2", "--p", "1"],
        ["count", "--topology", "line", "--n", "5", "--k", "-1", "--m", "2", "--p", "1"],
        ["count", "--topology", "line", "--n", "5", "--n", "6", "--k", "2", "--m", "2", "--p", "1"],
        ["count", "--topology", "ring", "--n", "5", "--k", "2", "--m", "2", "--p", "1"],
        ["count", "--topology", "line", "--n", "abc", "--k", "2", "--m", "2", "--p", "1"],
        ["count", "--topology", "line", "--n", "5", "--k", "2", "--m", "2", "--p", "1", "--format", "csv"],
        ["audit", "--identity", "all", "--"],
        ["sum", "--identity", "all"],
    ])
    def test_declined_argv(self, argv):
        assert cli._read(argv) is None

    @pytest.mark.parametrize("argv", [
        ("count", "--topology", "circle", "--n", "9", "--k", "2", "--m", "2", "--p", "1"),
        ("list", "--m", "2", "--p", "1", "--topology", "circle", "--n", "5", "--k", "2"),
        ("table", "--topology", "line", "--m", "2", "--p", "1", "--n-max", "4",
         "--k-max", "2", "--format", "json"),
        ("audit", "--identity", "Eq3.5", "--grid", "m<=1,p<=1,k<=2,n<=8"),
    ])
    def test_plain_argv_builds_no_parser(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:  # the output through argparse
            patch.setattr(cli, "_read", lambda argv: None)
            expected = run(capsys, *argv)

        def refuse():
            raise AssertionError("plain argv built the parser")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0 and expected[1]


def test_plain_argv_imports_no_argparse():
    src = Path(sepsets.__file__).resolve().parent.parent
    argvs = [
        ["count", "--topology", "line", "--n", "9", "--k", "3", "--m", "2", "--p", "1"],
        ["list", "--topology", "circle", "--n", "5", "--k", "2", "--m", "2", "--p", "1"],
        ["table", "--topology", "circle", "--m", "2", "--p", "1", "--n-max", "4", "--k-max", "2"],
        ["audit", "--identity", "Eq3.5", "--grid", "m<=1,p<=1,k<=2,n<=8"],
    ]
    code = (
        "import contextlib, io, sys, sepsets.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [sepsets.cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, 'argparse' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (0, "[0, 0, 0, 0] False\n")


@pytest.mark.parametrize("argv, digest", [
    (["--help"], "d3f5afeedd9818b7f59cfe758d2b206bebadfb00a150fbed2ab2fabe7a9b9e7d"),
    (["count", "-h"], "a57c1cf257f48d28cbe7b3d6ec05033f33befba072f42967c56721ada08009ae"),
    (["list", "-h"], "5d45b7cb46e72c38f1bbf338c79b1a868e7fc01573a66bbeb36cc04355851d6f"),
    (["table", "-h"], "5fb08a1b480e17ae53158267be5b6133535f7df1531903a8ffa8810165e5e367"),
    (["audit", "-h"], "a81ed043b79dafa8d31e3f534aa800c56b43332a1225fdf8aefc10de69cc5b2d"),
])
def test_help_bytes_are_pinned(capsys, monkeypatch, argv, digest):
    # sha256 of the help at 80 columns; the top-level description is the
    # module docstring up to its last paragraph, which stays out of it
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(argv)
    out, err = capsys.readouterr()
    assert (done.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAudit:
    def test_passing_identity_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--identity", "Eq3.5",
            "--grid", "m<=2,p<=2,k<=3,n<=20",
        )
        assert code == 0
        assert "status: pass" in out

    def test_printed_variant_exits_two_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--identity", "Eq4.2-printed",
            "--grid", "m<=2,p<=1,k<=2,n<=10",
        )
        assert code == 2
        assert "m=2 p=1 k=2 n=7: lhs=14 rhs=15" in out

    def test_bijection_pass(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--identity", "BijectionCount",
            "--grid", "m<=2,p<=1,k<=2,n<=12",
        )
        assert code == 0
        assert "status: pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--identity", "Eq2.1",
            "--grid", "m<=1,p<=1,k<=2,n<=8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identity"] == "Eq2.1"
        assert payload["failures"] == []

    def test_all_identities(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--identity", "all",
            "--grid", "m<=2,p<=1,k<=2,n<=10", "--format", "json",
        )
        assert code == 2  # printed variants are expected to fail
        payload = json.loads(out)
        assert len(payload) == 20
        failing = {r["identity"] for r in payload if r["failures"]}
        assert failing == {"Eq3.3-printed", "Thm-H3-printed", "Eq4.2-printed"}

    def test_all_json_is_json_dumps_bytes(self, capsys):
        code, out, _ = run(capsys, "audit", "--identity", "all", "--format", "json")
        assert code == 2
        reports = [audit.run_audit(identity, audit.DEFAULT_GRID) for identity in IdentityId]
        assert out == json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"

    def test_malformed_grid(self, capsys):
        code, out, err = run(
            capsys, "audit", "--identity", "Eq3.5", "--grid", "m<3,p<=1",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: malformed grid 'm<3,p<=1'; expected m<=A,p<=B,k<=C,n<=D\n"
        )

    @pytest.mark.parametrize(
        "grid", ["m<=0,p<=1,k<=2,n<=8", "m<=1,p<=0,k<=2,n<=8", "m<=0,p<=0,k<=2,n<=8"]
    )
    def test_empty_grid(self, capsys, grid):
        # m and p start at 1, so a zero bound leaves nothing to check
        code, out, err = run(capsys, "audit", "--identity", "Eq3.5", "--grid", grid)
        assert (code, out) == (1, "")
        assert err == (
            f"error: empty grid '{grid}'; need m<=A and p<=B with A, B >= 1\n"
        )

    def test_grid_with_no_case_for_the_identity(self, capsys):
        # the circle identities need n > m*p*k, which n = 0 never meets
        grid = "m<=1,p<=1,k<=0,n<=0"
        code, out, err = run(capsys, "audit", "--identity", "Eq3.5", "--grid", grid)
        assert (code, out) == (1, "")
        assert err == f"error: grid '{grid}' leaves no case for Eq3.5\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_grid_with_no_case_for_some_identities(self, capsys, fmt):
        # every identity without a case is named, in catalogue order
        grid = "m<=1,p<=1,k<=1,n<=1"
        code, out, err = run(
            capsys, "audit", "--identity", "all", "--grid", grid, "--format", fmt
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: grid '{grid}' leaves no case for Eq4.2-printed, "
            "Eq4.2-corrected, BijectionCount\n"
        )

    def test_singular_phi_instances_are_skipped(self, capsys):
        # this grid draws Eq3.4's lambdas (-1/2, 1/2), mu = -1, k = 0, whose
        # direct sum is 1 but whose closed form divides by lambda + mu*k = 0;
        # it used to end the command with "error: lambda + mu*k = 0"
        grid = "m<=3,p<=1,k<=2,n<=24"
        code, out, err = run(capsys, "audit", "--identity", "Eq3.4", "--grid", grid)
        assert (code, err) == (0, "")
        assert "checked: 37\nstatus: pass" in out
        code, out, err = run(capsys, "audit", "--identity", "all", "--grid", grid)
        assert (code, err) == (2, "")  # the printed variants fail
        assert "identity: Eq3.4\ngrid: m<=3,p<=1,k<=2,n<=24\nchecked: 37\n" in out

    def test_unknown_identity(self, capsys):
        code, out, err = run(capsys, "audit", "--identity", "Eq9.9")
        assert (code, out) == (1, "")
        valid = ", ".join(i.value for i in IdentityId)
        assert err == (
            f"error: unknown identity 'Eq9.9'; expected one of {valid} or 'all'\n"
        )

    def test_default_grid(self, capsys):
        code, out, _ = run(capsys, "audit", "--identity", "Gould")
        assert code == 0
        assert "grid: m<=3,p<=2,k<=4,n<=24" in out

    @pytest.mark.usefixtures("fresh_audit_rows")
    def test_all_builds_each_row_once(self, capsys, monkeypatch):
        # the identities share the process's rows: on the default grid one
        # row cache per identity made 564 oracle scans (294 distinct) and
        # 1,310 line rows (150 distinct); the reports stay those of
        # separate run_audit calls.  The six line rows at n = 0 are not
        # built: every read of them is at k = 0 or past n
        scans = record_calls(monkeypatch, oracle, "count_brute_row")
        rows = record_calls(monkeypatch, counting, "h_composition_row")
        code, out, _ = run(capsys, "audit", "--identity", "all", "--format", "json")
        assert code == 2
        assert len(scans) == len(set(scans)) == 294
        assert len(rows) == len(set(rows)) == 144
        assert json.loads(out) == [
            audit.run_audit(identity, audit.DEFAULT_GRID).to_json_dict()
            for identity in IdentityId
        ]

    @pytest.mark.usefixtures("fresh_audit_rows")
    def test_calls_share_the_rows_of_one_grid(self, capsys, monkeypatch):
        # Eq3.5 reads only circle rows Eq2.2 has built, no row is scanned
        # twice across the three calls, and each report is that of a fresh
        # store
        scans = record_calls(monkeypatch, oracle, "count_brute_row")
        shared = {}
        for identity in ("Eq2.2", "Eq3.5", "BijectionCount"):
            before = len(scans)
            shared[identity] = run(capsys, "audit", "--identity", identity)
            if identity == "Eq3.5":
                assert len(scans) == before
        assert 0 < len(scans) == len(set(scans))
        for identity, result in shared.items():
            audit._counts.cache_clear()
            assert run(capsys, "audit", "--identity", identity) == result
        run(capsys, "audit", "--identity", "Eq2.1", "--grid", "m<=1,p<=1,k<=2,n<=8")
        assert audit._counts.cache_info().currsize == 1

    def test_cap_and_k_are_the_key(self, capsys):
        # the default cap's rows reach n = 24; a cap of 20 must not read them
        first = run(capsys, "audit", "--identity", "Eq2.1")
        assert first[0] == 0
        assert run(capsys, "audit", "--identity", "Eq2.1", "--cap", "20") == (
            1, "", "error: brute force capped at n <= 20, got n=21\n"
        )
        assert run(capsys, "audit", "--identity", "Eq2.1") == first
        # rows scanned to k = 4 hold no count for k = 5
        wider = run(capsys, "audit", "--identity", "Eq2.1", "--grid", "m<=3,p<=2,k<=5,n<=24")
        assert wider[0] == 0 and "checked: 900" in wider[1]
        assert audit._counts.cache_info().currsize == 1

    @pytest.mark.usefixtures("fresh_audit_rows")
    def test_grids_sharing_k_and_cap_share_rows(self, capsys, monkeypatch):
        # two grids with k_max = 4 and the default cap: the second one's
        # rows all lie within the first one's, so it scans none; keyed on
        # the whole grid, it rebuilt all 150 rows.  The six line rows at
        # n = 0 are read only at k = 0 or past n, so they are not built
        scans = record_calls(monkeypatch, oracle, "count_brute_row")
        rows = record_calls(monkeypatch, counting, "h_composition_row")
        assert run(capsys, "audit", "--identity", "Eq2.1")[0] == 0
        assert (len(scans), len(rows)) == (150, 144)
        code, out, _ = run(
            capsys, "audit", "--identity", "Eq2.1", "--grid", "m<=2,p<=1,k<=4,n<=20"
        )
        assert code == 0 and "checked: 210" in out
        assert (len(scans), len(rows)) == (150, 144)

    @pytest.mark.usefixtures("fresh_audit_rows")
    def test_table_and_recurrence_keep_the_audit_rows(self, capsys, monkeypatch):
        # only the audit reads the oracle and line rows and the circle counts
        # kept across calls: a table at another k-max and a line and a circle
        # recurrence count build their own, so they neither fill nor evict
        # the store, and an audit after them scans none, builds none and
        # evaluates no circle count, where the cold one made 294 scans, 144
        # rows and 641 circle counts (when they read the stores, they evicted
        # all 294 scans and 144 rows)
        spies = [record_calls(monkeypatch, oracle, "count_brute_row"),
                 record_calls(monkeypatch, counting, "h_composition_row"),
                 record_calls(monkeypatch, counting, "g_for_identity")]
        first = run(capsys, "audit", "--identity", "all")
        assert [len(calls) for calls in spies] == [294, 144, 641]
        circle = audit._counts(4, oracle.DEFAULT_CAP)[2]
        stores = audit._counts.cache_info(), circle.cache_info()
        assert run(capsys, "table", "--topology", "circle", "--m", "2", "--p", "1",
                   "--n-max", "24", "--k-max", "8")[0] == 0
        assert run(capsys, "count", "--topology", "line", "--n", "2000", "--k", "50",
                   "--m", "3", "--p", "2", "--method", "recurrence")[0] == 0
        assert run(capsys, "count", "--topology", "circle", "--n", "2000", "--k", "50",
                   "--m", "3", "--p", "2", "--method", "recurrence")[0] == 0
        assert (audit._counts.cache_info(), circle.cache_info()) == stores
        for calls in spies:
            calls.clear()
        assert run(capsys, "audit", "--identity", "all") == first
        assert [len(calls) for calls in spies] == [0, 0, 0]
        assert not any(hasattr(cli, name) for name in ("_counts", "_brute_reader", "_line_reader"))


@pytest.mark.parametrize("k", ["2", "-1"])
def test_python_dash_m_runs_the_cli(capsys, k):
    # ``python -m sepsets`` from a checkout, with only the source on the path
    argv = ["count", "--topology", "circle", "--n", "5", "--k", k, "--m", "2", "--p", "1"]
    src = Path(sepsets.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "sepsets", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)


@pytest.mark.parametrize("command", ["list", "count"])
def test_closed_stdout_is_one_error_line(command):
    # a reader gone before the first write, as ``| head -1`` can be: the long
    # list fails in a write, the one-line count in main's final flush; no
    # traceback, and nothing fails again at interpreter exit
    argv = [command, "--topology", "line", "--n", "28", "--k", "3", "--m", "1", "--p", "1"]
    src = Path(sepsets.__file__).resolve().parent.parent
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sepsets", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        1, f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"
    )


def test_public_names_resolve():
    # a name left in __all__ after its definition goes breaks ``import *``
    for module in (sepsets, counting):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec("from sepsets import *", namespace)
    assert set(sepsets.__all__) <= set(namespace)


def test_import_loads_no_unused_module():
    # every invocation pays for ``import sepsets.cli``; ``-S`` keeps ``site``
    # from importing these modules first and masking a regression
    src = Path(sepsets.__file__).resolve().parent.parent
    unused = ("argparse", "csv", "dataclasses", "inspect", "typing")
    code = f"import sys, sepsets.cli; print(sorted(set({unused!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
