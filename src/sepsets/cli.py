"""Command-line interface: counting, enumeration, table generation, audits.

Exit codes: 0 success, 1 usage or validity error or output that cannot
be written, 2 an audit found mismatches (expected when auditing the
known-bad printed variants).
Data goes to stdout, diagnostics to stderr, and output is byte-identical
for identical flags.  ``main()`` may be called repeatedly in one process;
the argument parser is built on the first call and reused after it.

``_COMMANDS`` states every command and option once.  ``main`` reads a
plain argv (a command, then each of its flags in full at most once, each
with a value that does not start with ``-``) straight from that table.
argparse is imported and built only for an argv the reader declines, so
help, usage and every error line stay argparse's.  Repeated ``main()``
calls share the parser, the recurrences' last Newton columns and one
store of counts: the oracle rows, line rows and circle counts that
``audit`` reads, kept for the last k and cap and dropped by
``audit._counts.cache_clear()``; ``table`` builds its own rows and drops
them.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from types import SimpleNamespace

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
from .jsontext import array, cell, write_array
from .oracle import DEFAULT_CAP, count_brute, count_brute_row, list_brute

METHODS = ("auto", *ROUTES["line"], "brute")

_SLICE = 4096  # the most cells ``table`` holds at once, whatever --k-max is

# An option is (flag, int or str, choices or None, default or _REQUIRED,
# help or None).  Each command lists its help and its options in --help order.
_REQUIRED = object()
_TOPOLOGY = ("--topology", str, ("line", "circle"), _REQUIRED, None)
_QUERY = (
    _TOPOLOGY,
    ("--n", int, None, _REQUIRED, None),
    ("--k", int, None, _REQUIRED, None),
    ("--m", int, None, _REQUIRED, None),
    ("--p", int, None, _REQUIRED, None),
    ("--cap", int, None, DEFAULT_CAP, "brute-force enumeration bound on n"),
)
_COMMANDS = {
    "count": ("print one exact count", (
        *_QUERY,
        ("--method", str, METHODS, "auto", None),
    )),
    "list": ("enumerate the subsets, one per line", _QUERY),
    "table": ("emit an (n, k) grid of counts", (
        _TOPOLOGY,
        ("--m", int, None, _REQUIRED, None),
        ("--p", int, None, _REQUIRED, None),
        ("--n-max", int, None, _REQUIRED, None),
        ("--k-max", int, None, _REQUIRED, None),
        ("--format", str, ("csv", "json"), "csv", None),
        ("--out", str, None, None, "write to this file instead of stdout"),
        ("--cap", int, None, DEFAULT_CAP, None),
    )),
    "audit": ("verify identities over a grid", (
        ("--identity", str, None, _REQUIRED, "an identity id or 'all'"),
        ("--grid", str, None, None,
         f"bounds like 'm<=3,p<=2,k<=4,n<=24' (default {DEFAULT_GRID.describe()})"),
        ("--format", str, ("json", "text"), "text", None),
        ("--cap", int, None, DEFAULT_CAP, None),
    )),
}


def _read(argv):
    """The namespace argparse gives for a plain argv, read from
    ``_COMMANDS``; None for anything else (help, an abbreviated, repeated,
    unknown or missing flag, ``--flag=value``, a value starting with ``-``,
    a bad int or choice), which is left to argparse."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):  # a repeated flag
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, kind, choices, default, _ in _COMMANDS[argv[0]][1]:
        value = given.pop(flag, None)
        if value is None:
            if default is _REQUIRED:
                return None
            value = default
        elif value.startswith("-"):
            return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return None if given else args


@cache  # built on first use, not at import; parse_args leaves it unchanged
def _build_parser():
    """argparse's parser for ``_COMMANDS``; it parses what ``_read``
    declines and prints every help, usage and error line."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # usage problems must exit 1, not argparse's default 2
        def error(self, message: str):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    # the docstring's last paragraph is for maintainers, not for --help
    parser = _Parser(prog="sepsets", description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for flag, kind, choices, default, help_text in options:
            required = default is _REQUIRED
            sp.add_argument(flag, type=kind, choices=choices, required=required,
                            default=None if required else default, help=help_text)
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
    # every argument error comes before the first byte, so it writes none
    if args.out:
        try:
            with open(args.out, "w") as fh:
                brute_runs = _write_table(args, fh.write)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        brute_runs = _write_table(args, sys.stdout.write)
    if brute_runs:
        note = sys.stderr.write
        note("note: brute-force cells (below the circle formula range):")
        for n, first, last in brute_runs:
            for start in range(first, last + 1, _SLICE):
                end = min(start + _SLICE, last + 1)
                note("".join([f" ({n},{k})" for k in range(start, end)]))
        note("\n")
    return 0


def _write_table(args, write) -> list[list[int]]:
    """Stream the table to ``write``, one chunk per ``_table_rows`` slice,
    and return the brute-force cells the CSV note lists, as runs ``[n, first
    k, last k]`` of consecutive cells: a cell next to the last run's end
    extends it, any other starts a run.  An n within the cap is below the
    circle formula range at every k past some point, so it gives one run."""
    runs = []
    if args.format == "csv":
        write("n,k,count\n")
        for n, row in _table_rows(args):
            write("".join([f"{n},{k},{value}\n" for k, value, _ in row]))
            for k, _, label in row:
                if label != "brute":
                    continue
                if runs and runs[-1][0] == n and runs[-1][2] == k - 1:
                    runs[-1][2] = k
                else:
                    runs.append([n, k, k])
    else:
        write_array(write, ([cell(n, *c) for c in row] for n, row in _table_rows(args)))
        write("\n")
    return runs


def _table_rows(args):
    """``(n, [(k, count, label), ...])`` for each slice of at most ``_SLICE``
    of an n's cells, in order; the label is the method of a circle cell
    below the formula range, else None."""
    topology, m, p, k_max, cap = args.topology, args.m, args.p, args.k_max, args.cap
    circle = topology == "circle"
    row_method = "brute" if circle else "composition"
    for n in range(args.n_max + 1):
        # below the formula range, one oracle scan (circle) or composition
        # product (line) answers every cell of this n up to k = n: built on
        # the first such cell and dropped with this n
        row = None
        for start in range(0, k_max + 1, _SLICE):
            chunk = []
            for k in range(start, min(start + _SLICE, k_max + 1)):
                method = _auto(topology, n, k, m, p, cap)
                if method != row_method:
                    value = _route(topology, method)(n, k, m, p)
                elif k > n:
                    value = 0
                else:
                    if row is None:
                        top = min(k_max, n)
                        row = (count_brute_row(count_query(topology, n, top, m, p), cap)
                               if circle else h_composition_row(n, top, m, p))
                    value = row[k]
                chunk.append((k, value, method if circle and method != "closed1" else None))
            yield n, chunk


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
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(array([r.to_json(indent=2) for r in reports]))
    else:
        print("\n\n".join(r.to_text() for r in reports))
    return 2 if any(not r.passed for r in reports) else 0


def main(argv=None) -> int:
    # exact counts can run past the default 4300-digit int -> str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    handlers = {
        "count": _cmd_count,
        "list": _cmd_list,
        "table": _cmd_table,
        "audit": _cmd_audit,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except ValueError as exc:  # EnumerationCapError is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout was closed or full
        _discard_stdout()
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 1
    return code


def _discard_stdout() -> None:
    """Point stdout's file descriptor, if it has one, at the null device, so
    the bytes left in its buffer by a failed write do not fail again when
    the interpreter flushes it at exit.  A stream without one, such as an
    in-process caller's sink, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    raise SystemExit(main())
