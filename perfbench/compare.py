#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

Usage:
    python3 perfbench/compare.py OLD.json NEW.json

Prints, per workload, each end-to-end metric of both sets and new/old.
Result sets measured with different kernel backends or Python versions are
not compared: the tool names the difference and exits 1.
"""

from __future__ import annotations

import json
import sys


def compare(old: list[dict], new: list[dict]) -> tuple[int, list[str]]:
    lines = []
    status = 0
    olds = {r["conditions"]["workload"]: r for r in old}
    for res in new:
        c = res["conditions"]
        prev = olds.get(c["workload"])
        if prev is None:
            lines.append(f"{c['workload']}: not in the old result set")
            continue
        pc = prev["conditions"]
        differs = [key for key in ("kernel_backend", "python") if pc[key] != c[key]]
        if differs:
            lines.append(f"{c['workload']}: not compared, "
                         + ", ".join(f"{k} differs ({pc[k]} vs {c[k]})" for k in differs))
            status = 1
            continue
        lines.append(f"{c['workload']}: seeds {pc['seed']} -> {c['seed']}, "
                     f"git {pc['git_sha'][:10]} -> {c['git_sha'][:10]}")
        for name, value in res["e2e"].items():
            before = prev["e2e"][name]
            lines.append(f"  {name:<16} {before:>12.4f} {value:>12.4f}  x{value / before:.3f}")
    return status, lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as fh_old, open(args[1]) as fh_new:
        status, lines = compare(json.load(fh_old), json.load(fh_new))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
