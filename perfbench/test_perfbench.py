"""Tests of the benchmark itself: seeded inputs, the output checks, the
result comparison, and a tiny smoke run of every workload.

Run from the root of a checkout:
    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, make_ops, ops_digest  # noqa: E402

from sepsets import cli  # noqa: E402


def _op(*argv: str) -> dict:
    return {"argv": list(argv), "edge": False}


def _cli(op: dict) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op["argv"])
    return code, out.getvalue().encode()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert ops_digest(make_ops(workload, 7)) != ops_digest(make_ops(workload, 8))


def test_counting_routes_agree_with_the_oracle():
    from sepsets import count_brute, count_query

    for m, p in [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3)]:
        table = checks.circle_table(m, p, 16, 5)
        for n in range(17):
            for k in range(6):
                assert table[(n, k)] == count_brute(count_query("circle", n, k, m, p))
                assert checks.line_count(n, k, m, p) == count_brute(
                    count_query("line", n, k, m, p))
                if n >= m * p * k + 1:
                    assert checks.circle_closed(n, k, m, p) == table[(n, k)]
                    assert checks.circle_from_line(n, k, m, p) == table[(n, k)]


def test_off_by_one_count_fails():
    op = _op("count", "--topology", "line", "--n", "2000", "--k", "24",
             "--m", "2", "--p", "1", "--method", "closed1")
    code, out = _cli(op)
    assert checks.check_op(op, code, out) is None
    assert checks.check_op(op, code, f"{int(out) + 1}\n".encode()) is not None


def test_dropped_list_line_fails():
    op = _op("list", "--topology", "circle", "--n", "14", "--k", "3", "--m", "2", "--p", "1")
    code, out = _cli(op)
    assert checks.check_op(op, code, out) is None
    lines = out.splitlines(keepends=True)
    assert checks.check_op(op, code, b"".join(lines[:5] + lines[6:])) is not None
    assert checks.check_op(op, code, b"".join(lines[1:2] + lines[:1] + lines[2:])) is not None


def test_flipped_audit_status_fails():
    printed = _op("audit", "--identity", "Eq3.3-printed", "--format", "json")
    code, out = _cli(printed)
    assert code == 2 and checks.check_op(printed, code, out) is None
    report = json.loads(out)
    report["failures"] = []
    assert checks.check_op(printed, 0, json.dumps(report).encode()) is not None
    assert checks.check_op(printed, 2, json.dumps(report).encode()) is not None

    corrected = _op("audit", "--identity", "Eq3.3-corrected", "--format", "json")
    code, out = _cli(corrected)
    assert code == 0 and checks.check_op(corrected, code, out) is None
    report = json.loads(out)
    report["failures"] = [{"params": {}, "lhs": 1, "rhs": 2}]
    assert checks.check_op(corrected, 0, json.dumps(report).encode()) is not None


def test_wrong_table_cell_fails():
    op = _op("table", "--topology", "circle", "--m", "2", "--p", "2",
             "--n-max", "12", "--k-max", "3")
    code, out = _cli(op)
    assert checks.check_op(op, code, out) is None
    rows = out.decode().splitlines()
    n, k, count = rows[30].split(",")
    rows[30] = f"{n},{k},{int(count) + 1}"
    assert checks.check_op(op, code, ("\n".join(rows) + "\n").encode()) is not None


def test_different_backends_are_not_compared():
    def result(backend):
        conditions = {"workload": "big-counts", "kernel_backend": backend,
                      "python": "3.11.7", "seed": 1, "git_sha": "0" * 40}
        return [{"conditions": conditions, "e2e": {"ops_per_s": 10.0}}]

    status, lines = compare.compare(result("python"), result("cython"))
    assert status == 1 and "kernel_backend differs" in lines[0]
    status, lines = compare.compare(result("python"), result("python"))
    assert status == 0 and "x1.000" in lines[-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    res = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert res["correct"], res["problems"]
    assert res["fail_ratio"] == pytest.approx(res["conditions"]["input.edge_share"])
    assert set(res["e2e"]) == set(run.E2E_UNITS)


def test_traced_run_bypasses_the_right_layers():
    big = run.run_workload("big-counts", seed=3, seconds=0, trace=True, tiny=True)
    assert big["correct"], big["problems"]
    layers = big["per_layer"]
    assert layers["oracle.count_calls"] == 0
    assert layers["audit.recurrence_calls"] > 0
    assert layers["trace.overhead_ratio"] > 0

    audit = run.run_workload("audit-sweep", seed=3, seconds=0, trace=True, tiny=True)
    assert audit["correct"], audit["problems"]
    assert audit["per_layer"]["audit.recurrence_calls"] == 0
    assert audit["per_layer"]["omega_phi.compositions_yielded"] > 0
