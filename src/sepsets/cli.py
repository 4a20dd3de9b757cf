"""Command-line interface: counting, enumeration, table generation, audits.

Exit codes: 0 success, 1 usage or validity error, 2 an audit found
mismatches (expected when auditing the known-bad printed variants).
Data goes to stdout, diagnostics to stderr, and output is byte-identical
for identical flags.  ``main()`` may be called repeatedly in one process;
the argument parser is built on the first call and reused after it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .audit import DEFAULT_GRID, IdentityId, parse_grid, run_audit
from .counting import (
    ROUTES,
    _check_mp,
    _route,
    circle_in_range,
    count_query,
    h_composition_row,
    line_in_range,
)
from .oracle import (
    DEFAULT_CAP,
    count_brute,
    count_brute_row,
    list_brute,
)

METHODS = ("auto", *ROUTES["line"], "brute")


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache  # built on first use, not at import; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="sepsets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_query_args(sp, with_k=True):
        sp.add_argument("--topology", required=True, choices=["line", "circle"])
        sp.add_argument("--n", required=True, type=int)
        if with_k:
            sp.add_argument("--k", required=True, type=int)
        sp.add_argument("--m", required=True, type=int)
        sp.add_argument("--p", required=True, type=int)
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="brute-force enumeration bound on n")

    sp_count = sub.add_parser("count", help="print one exact count")
    add_query_args(sp_count)
    sp_count.add_argument("--method", choices=METHODS, default="auto")

    sp_list = sub.add_parser("list", help="enumerate the subsets, one per line")
    add_query_args(sp_list)

    sp_table = sub.add_parser("table", help="emit an (n, k) grid of counts")
    sp_table.add_argument("--topology", required=True, choices=["line", "circle"])
    sp_table.add_argument("--m", required=True, type=int)
    sp_table.add_argument("--p", required=True, type=int)
    sp_table.add_argument("--n-max", required=True, type=int)
    sp_table.add_argument("--k-max", required=True, type=int)
    sp_table.add_argument("--format", choices=["csv", "json"], default="csv")
    sp_table.add_argument("--out", help="write to this file instead of stdout")
    sp_table.add_argument("--cap", type=int, default=DEFAULT_CAP)

    sp_audit = sub.add_parser("audit", help="verify identities over a grid")
    sp_audit.add_argument("--identity", required=True,
                          help="an identity id or 'all'")
    sp_audit.add_argument("--grid",
                          help="bounds like 'm<=3,p<=2,k<=4,n<=24' "
                               f"(default {DEFAULT_GRID.describe()})")
    sp_audit.add_argument("--format", choices=["json", "text"], default="text")
    sp_audit.add_argument("--cap", type=int, default=DEFAULT_CAP)

    return parser


def _auto(topology, n, k, m, p, cap):
    """The method ``auto`` picks: a closed form in its range; below it the
    composition on the line, and on the circle the oracle within the cap
    and the cycle composition past it."""
    if topology == "line":
        return "closed1" if line_in_range(n, k, m, p) else "composition"
    if not circle_in_range(n, k, m, p):
        return "brute" if n <= cap else "composition"
    return "closed1"


def _cmd_count(args) -> int:
    topology, n, k, m, p = args.topology, args.n, args.k, args.m, args.p
    method = args.method
    if method == "auto":
        method = _auto(topology, n, k, m, p, args.cap)
    if method == "brute":
        print(count_brute(count_query(topology, n, k, m, p), args.cap))
    else:
        print(_route(topology, method)(n, k, m, p))
    return 0


def _cmd_list(args) -> int:
    q = count_query(args.topology, args.n, args.k, args.m, args.p)
    for subset in list_brute(q, args.cap):
        print(",".join(str(pos) for pos in subset))
    return 0


def _cmd_table(args) -> int:
    _check_mp(args.m, args.p)
    for name, value in (("k-max", args.k_max), ("n-max", args.n_max)):
        if value < 0:
            raise ValueError(f"need {name} >= 0, got {name}={value}")
    # below the formula range, one composition product (line) or one oracle
    # scan (circle) per n answers every cell of that n
    row_method = "composition" if args.topology == "line" else "brute"

    @cache
    def row(n):
        if args.topology == "line":
            return h_composition_row(n, args.k_max, args.m, args.p)
        query = count_query(args.topology, n, args.k_max, args.m, args.p)
        return count_brute_row(query, args.cap)

    rows = []
    brute_cells = []
    for n in range(args.n_max + 1):
        for k in range(args.k_max + 1):
            method = _auto(args.topology, n, k, args.m, args.p, args.cap)
            if method == row_method:
                value = row(n)[k]
            else:
                value = _route(args.topology, method)(n, k, args.m, args.p)
            rows.append((n, k, value, method))
            if args.topology == "circle" and method == "brute":
                brute_cells.append((n, k))

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "count"])
        for n, k, value, _ in rows:
            writer.writerow([n, k, value])
        text = buf.getvalue()
    else:
        payload = []
        for n, k, value, method in rows:
            cell = {"n": n, "k": k, "count": value}
            if args.topology == "circle" and method != "closed1":
                cell["method"] = method
            payload.append(cell)
        text = json.dumps(payload, indent=2) + "\n"

    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # after the write, so a failed --out leaves the error as the only line
    if args.format == "csv" and brute_cells:
        print(
            "note: brute-force cells (below the circle formula range): "
            + " ".join(f"({n},{k})" for n, k in brute_cells),
            file=sys.stderr,
        )
    return 0


def _cmd_audit(args) -> int:
    grid = parse_grid(args.grid) if args.grid else DEFAULT_GRID
    if args.identity == "all":
        identities = list(IdentityId)
    else:
        try:
            identities = [IdentityId(args.identity)]
        except ValueError:
            valid = ", ".join(i.value for i in IdentityId)
            raise ValueError(
                f"unknown identity {args.identity!r}; expected one of "
                f"{valid} or 'all'"
            ) from None
    reports = [run_audit(identity, grid, args.cap) for identity in identities]
    vacuous = [r.identity for r in reports if not r.checked]
    if vacuous:
        # a report that checked nothing would pass with nothing to show
        raise ValueError(
            f"grid {args.grid or grid.describe()!r} leaves no case for "
            + ", ".join(vacuous)
        )
    if args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return 2 if any(not r.passed for r in reports) else 0


def main(argv=None) -> int:
    # exact counts can run past the default 4300-digit int -> str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "list": _cmd_list,
        "table": _cmd_table,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # EnumerationCapError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
