"""Tests for the command-line interface: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import sepsets
from sepsets import cli, counting
from sepsets.audit import IdentityId
from sepsets.cli import METHODS, main
from sepsets.counting import ROUTES, count_query
from sepsets.oracle import count_brute


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_line_cells_come_from_one_row_per_n(self, capsys, monkeypatch):
        # every n = 0..40 has a cell below the closed-form range at k = 8;
        # one composition product per (n, k) cell made 167 calls
        calls = []
        engine = counting._composition

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(counting, "_composition", counted)
        code, _, _ = run(capsys, "table", "--topology", "line", "--m", "3", "--p", "2",
                         "--n-max", "40", "--k-max", "8")
        assert code == 0
        assert 0 < len(calls) <= 41

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


class TestParserReuse:
    """``main`` builds its parser once; no call may leak into the next."""

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
    unused = ("csv", "dataclasses", "inspect", "typing")
    code = f"import sys, sepsets.cli; print(sorted(set({unused!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
