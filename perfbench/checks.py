"""Output checks for benchmark ops, with counting routes of their own.

Every check runs after the timed phase, in the benchmark's parent process,
and compares an op's stdout with a value reached by a route other than the
one the op used:

* line counts: the product of the per-row polynomials of the residue-class
  split, in integers (``line_count``);
* circle counts: the integer closed form ``n/(n-pk) * C(n-pk, k)``, or for
  ``closed1`` ops the line-to-circle sum over ``line_count``;
* table cells: a transfer-matrix scan over positions (``circle_table``),
  which never splits positions into rows;
* ``list`` output: every line is re-validated with the package's
  definitional predicates and the line count must equal ``count_brute``.

``check_op`` returns None for a correct op and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from math import comb

AUDIT_GRID = "m<=3,p<=2,k<=4,n<=24"
# identities whose printed formula is wrong: their audit must exit 2
PRINTED_IDENTITIES = frozenset({"Eq3.3-printed", "Thm-H3-printed", "Eq4.2-printed"})


def parse_argv(argv: list[str]) -> dict:
    """``[cmd, --flag, value, ...]`` as ``{"cmd": cmd, "flag": value, ...}``,
    with integer values converted."""
    out = {"cmd": argv[0], "method": "auto"}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:].replace("-", "_")
        out[key] = int(value) if value.lstrip("-").isdigit() else value
    return out


# ---------------------------------------------------------------------------
# counting routes


def line_count(n: int, k: int, m: int, p: int) -> int:
    """Line count as [y^k] of the product of the row polynomials: a row of
    s positions holds j chosen ones in C(s - p*(j-1), j) ways."""
    if k < 0 or n < 0:
        return 0
    poly = [1]
    for first in range(1, m + 1):
        s = (n - first) // m + 1 if first <= n else 0
        row = [1] + [
            comb(s - p * (j - 1), j) if s - p * (j - 1) >= j else 0
            for j in range(1, k + 1)
        ]
        out = [0] * min(k + 1, len(poly) + len(row) - 1)
        for i, a in enumerate(poly):
            if a:
                for j in range(min(len(row), len(out) - i)):
                    out[i + j] += a * row[j]
        poly = out
    return poly[k] if k < len(poly) else 0


def _line_ext(n: int, k: int, m: int, p: int) -> int:
    # the convention of the identity sums: H(n, 0) = 1 for every n
    if k < 0:
        return 0
    if k == 0:
        return 1
    return line_count(n, k, m, p) if n >= k else 0


def circle_closed(n: int, k: int, m: int, p: int) -> int:
    """Circle count in integers, valid for n >= m*p*k + 1."""
    if n < m * p * k + 1:
        raise ValueError(f"circle closed form needs n >= {m * p * k + 1}")
    if k == 0:
        return 1
    value, rest = divmod(n * comb(n - p * k, k), n - p * k)
    if rest:
        raise ArithmeticError("circle closed form is not an integer")
    return value


def circle_from_line(n: int, k: int, m: int, p: int) -> int:
    """Circle count from line counts after deleting the wrap-around zone,
    valid for n >= m*p*k + 1."""
    return sum(
        comb(m, j) * p**j * _line_ext(n - p * m - (p + 1) * j, k - j, m, p)
        for j in range(min(m, k) + 1)
    )


def circle_table(m: int, p: int, n_max: int, k_max: int) -> dict:
    """Circle counts for every 0 <= n <= n_max, 0 <= k <= k_max in one scan.

    The state after position c is the chosen set among positions 1..p*m
    (``first``) and among the last p*m positions (``last``, bit t is
    position c - t).  A new position conflicts with ``last``; a finished
    circle of n = c positions is valid when no chosen pair closes a
    forbidden distance across the wrap, which only pairs from ``first``
    and ``last`` can do.
    """
    w = p * m
    diffs = [i * m for i in range(1, p + 1)]
    line_mask = sum(1 << (d - 1) for d in diffs)
    full = (1 << w) - 1
    states = {(0, 0): [1] + [0] * k_max}
    table = {(0, k): int(k == 0) for k in range(k_max + 1)}
    for c in range(1, n_max + 1):
        nxt: dict = {}
        for (first, last), vec in states.items():
            key = (first, (last << 1) & full)
            acc = nxt.setdefault(key, [0] * (k_max + 1))
            for k, v in enumerate(vec):
                acc[k] += v
            if last & line_mask:
                continue
            key = (first | (1 << (c - 1)) if c <= w else first, ((last << 1) | 1) & full)
            acc = nxt.setdefault(key, [0] * (k_max + 1))
            for k in range(k_max):
                acc[k + 1] += vec[k]
        states = nxt
        totals = [0] * (k_max + 1)
        for (first, last), vec in states.items():
            if _wraps_ok(first, last, c, w, diffs):
                for k, v in enumerate(vec):
                    totals[k] += v
        for k, v in enumerate(totals):
            table[(c, k)] = v
    return table


def _wraps_ok(first: int, last: int, n: int, w: int, diffs: list[int]) -> bool:
    heads = [i + 1 for i in range(w) if first >> i & 1]
    tails = [n - t for t in range(w) if last >> t & 1]
    for i in heads:
        for j in tails:
            if j > i and n - (j - i) in diffs:
                return False
    return True


def expected_count(op: dict) -> int:
    """The value a ``count`` op must print, by a route the op did not use."""
    q = parse_argv(op["argv"])
    n, k, m, p = q["n"], q["k"], q["m"], q["p"]
    if q["topology"] == "line":
        return line_count(n, k, m, p)
    if q["method"] in ("closed1", "auto"):
        value = circle_from_line(n, k, m, p)
    else:
        value = circle_closed(n, k, m, p)
    return value


# ---------------------------------------------------------------------------
# per-op checks


def allow_long_ints() -> None:
    """Lift the int-to-str digit limit of this process, so that expected
    values past 4300 digits can be written out."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def expected_code(op: dict) -> int:
    q = parse_argv(op["argv"])
    return 2 if q["cmd"] == "audit" and q["identity"] in PRINTED_IDENTITIES else 0


def check_output(op: dict, out: bytes, memo: dict | None = None):
    """None when ``out`` is the right stdout for ``op``, else the reason.
    ``memo`` caches expected values shared by several ops."""
    q = parse_argv(op["argv"])
    return _CHECKERS[q["cmd"]](op, q, out.decode(), {} if memo is None else memo)


def check_op(op: dict, code, out: bytes, memo: dict | None = None):
    """None when the op exited as expected and printed the right output;
    otherwise the reason it failed."""
    want = expected_code(op)
    if code != want:
        return f"exit code {code!r}, expected {want}"
    return check_output(op, out, memo)


def _check_count(op, q, text, memo):
    key = ("count", tuple(op["argv"]))
    if key not in memo:
        memo[key] = f"{expected_count(op)}\n"
    if text != memo[key]:
        return f"printed {text[:40]!r}, expected {memo[key][:40]!r}"
    return None


def _check_list(op, q, text, memo):
    from sepsets import count_brute, count_query, is_separate_circle, is_separate_line
    from sepsets.counting import SeparationParams

    n, k = q["n"], q["k"]
    params = SeparationParams(q["m"], q["p"])
    circle = q["topology"] == "circle"
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        return "output does not end with a newline"
    prev = None
    for line in lines:
        subset = tuple(int(v) for v in line.split(","))
        if len(subset) != k or subset[0] < 1 or subset[-1] > n:
            return f"line {line!r} is not a {k}-subset of 1..{n}"
        ok = (is_separate_circle(subset, n, params) if circle
              else is_separate_line(subset, params))
        if not ok:
            return f"line {line!r} is not separated"
        if prev is not None and subset <= prev:
            return f"line {line!r} does not increase"
        prev = subset
    want = count_brute(count_query(q["topology"], n, k, q["m"], q["p"]), q.get("cap", 32))
    if len(lines) != want:
        return f"{len(lines)} lines, count_brute says {want}"
    return None


def _check_table(op, q, text, memo):
    if q["topology"] != "circle" or q.get("format", "csv") != "csv":
        return "only circle CSV tables are checked"
    n_max, k_max = q["n_max"], q["k_max"]
    key = ("table", q["m"], q["p"], n_max, k_max)
    if key not in memo:
        memo[key] = circle_table(q["m"], q["p"], n_max, k_max)
    cells = memo[key]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["n", "k", "count"]:
        return "missing CSV header n,k,count"
    want = [[str(n), str(k), str(cells[(n, k)])]
            for n in range(n_max + 1) for k in range(k_max + 1)]
    if rows[1:] != want:
        bad = next((r for r, w in zip(rows[1:], want) if r != w), None)
        return f"{len(rows) - 1} rows, first wrong row {bad}"
    return None


def _check_audit(op, q, text, memo):
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"audit JSON does not parse: {exc}"
    if report.get("identity") != q["identity"] or report.get("grid") != AUDIT_GRID:
        return f"audit report names {report.get('identity')!r} on {report.get('grid')!r}"
    if not isinstance(report.get("checked"), int) or report["checked"] < 1:
        return "audit checked no points"
    failed = bool(report.get("failures"))
    if failed != (q["identity"] in PRINTED_IDENTITIES):
        return f"audit status {'FAIL' if failed else 'pass'} is unexpected"
    return None


_CHECKERS = {
    "count": _check_count,
    "list": _check_list,
    "table": _check_table,
    "audit": _check_audit,
}
