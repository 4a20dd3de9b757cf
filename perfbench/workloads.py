"""Seeded op lists for the three workloads.

An op is one CLI command, ``{"argv": [...], "edge": bool}``; ``edge`` marks
ops that are expected to fail at the time of writing.  A round runs one op
list in a fresh child process; every round of a run repeats the same list.

Each workload has a fixed skeleton, so that different seeds give inputs of
about the same cost.  In big-counts the seed draws the points within each
slot of the skeleton; in audit-sweep and table-list the ops are fixed and
the seed only orders them.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("audit-sweep", "big-counts", "table-list")

IDENTITIES = (
    "Eq2.1", "Eq2.2", "Eq3.1", "Eq3.2", "Eq3.3-printed", "Eq3.3-corrected",
    "Eq3.4", "Eq3.5", "Thm-H1", "Thm-H2", "Thm-H3-printed", "Thm-H3-corrected",
    "Eq4.1", "Eq4.2-printed", "Eq4.2-corrected", "Eq4.4", "Eq4.5", "HwangWei",
    "Gould", "BijectionCount",
)

PAIRS = [(m, p) for m in (1, 2, 3) for p in (1, 2, 3)]


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The op list of one round.  ``tiny`` keeps a few ops of every slot
    kind, for smoke tests."""
    rng = random.Random(f"sepsets-bench:{workload}:{seed}")
    return _MAKERS[workload](rng, tiny)


def ops_digest(ops: list[dict]) -> str:
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def input_shares(ops: list[dict]) -> dict:
    """``input.edge_share`` and ``input.recurrence_reuse_share``: the share
    of recurrence ops whose (topology, m, p) came up earlier in the round."""
    seen, recurrences, reused = set(), 0, 0
    for op in ops:
        argv = op["argv"]
        if argv[0] == "count" and argv[-1] == "recurrence":
            key = (argv[argv.index("--topology") + 1], argv[argv.index("--m") + 1],
                   argv[argv.index("--p") + 1])
            recurrences += 1
            reused += key in seen
            seen.add(key)
    return {
        "input.edge_share": sum(op["edge"] for op in ops) / len(ops),
        "input.recurrence_reuse_share": reused / recurrences if recurrences else 0.0,
    }


def _count(topology, n, k, m, p, method=None, edge=False):
    argv = ["count", "--topology", topology, "--n", str(n), "--k", str(k),
            "--m", str(m), "--p", str(p)]
    if method:
        argv += ["--method", method]
    return {"argv": argv, "edge": edge}


def _audit_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    ids = list(IDENTITIES)
    if tiny:
        ids = ["Eq3.1", "Eq3.3-printed", "HwangWei", "Eq4.2-corrected"]
    rng.shuffle(ids)
    return [{"argv": ["audit", "--identity", i, "--format", "json"], "edge": False}
            for i in ids]


# big-counts skeleton: line closed-family k ladder, with the base n of each rung
_CLOSED_METHODS = ("closed1", "closed2", "closed3", "series")
_K_LADDER = ((20, 2000), (32, 3000), (48, 4000), (70, 6000), (100, 8000), (140, 11000),
             (190, 14000), (240, 19000))
# circle points in the closed-form range: (method, k, base n)
_CIRCLE_SLOTS = (
    ("closed1", 150, 9000), ("closed1", 250, 18000),
    ("series", 150, 9000), ("series", 250, 18000),
    ("composition", 40, 3000), ("composition", 80, 6000),
)
# recurrence scans: (topology, m, p, k, first n, step), four ops of rising n
_SCANS = (("line", 3, 2, 50, 2000, 500), ("circle", 2, 2, 50, 3000, 500))
# composition sums at moderate n: (n, k, m, p)
_COMPOSITION_SLOTS = ((36, 10, 8, 1), (30, 8, 6, 1), (28, 6, 5, 2), (44, 8, 12, 1))


def _jitter(rng: random.Random, base: int, share: float) -> int:
    return base + rng.randint(0, max(1, int(base * share)))


def _big_counts(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    slot = 0
    ladder = _K_LADDER[:2] if tiny else _K_LADDER
    for method in _CLOSED_METHODS:
        for k_base, n_base in ladder:
            m, p = PAIRS[slot % len(PAIRS)]
            slot += 1
            k = k_base + rng.randint(-k_base // 25, k_base // 25)
            n = max(_jitter(rng, n_base, 0.1), p * m * (k - 1))
            ops.append(_count("line", n, k, m, p, method))
    for method, k_base, n_base in _CIRCLE_SLOTS[::2] if tiny else _CIRCLE_SLOTS:
        m, p = PAIRS[slot % len(PAIRS)]
        slot += 1
        k = k_base + rng.randint(-k_base // 25, k_base // 25)
        n = max(_jitter(rng, n_base, 0.1), m * p * k + 1)
        ops.append(_count("circle", n, k, m, p, method))
    for n_base, k, m, p in _COMPOSITION_SLOTS[:1] if tiny else _COMPOSITION_SLOTS:
        ops.append(_count("line", n_base + rng.randint(-2, 2), k, m, p, "composition"))
    scans = []
    for topology, m, p, k_base, n_first, step in _SCANS:
        k = k_base + rng.randint(-2, 2)
        n0 = n_first + rng.randint(0, step // 5)
        scans.append([_count(topology, n0 + i * step, k, m, p, "recurrence")
                      for i in range(2 if tiny else 4)])
    ops += [op for scan in scans for op in scan]
    ops += _edge_ops(rng)
    rng.shuffle(ops)
    # each recurrence scan keeps its rising-n order in the shuffled list
    for scan in scans:
        where = sorted(i for i, op in enumerate(ops) if op in scan)
        for i, op in zip(where, scan):
            ops[i] = op
    return ops


def _edge_ops(rng: random.Random) -> list[dict]:
    """Ops the CLI accepts but cannot answer at the time of writing: a
    circle count past Python's 4300-digit int-to-str limit (these points
    have 5300 to 6000 digits), and a composition sum over m >= 1000 rows,
    deeper than the default recursion limit."""
    n = 90000 + rng.randint(0, 20000)
    k = 2800 + rng.randint(0, 400)
    m = 1000 + rng.randint(0, 600)
    return [
        _count("circle", n, k, 1, 1, edge=True),
        _count("line", 2 * m + rng.randint(0, m), 1, m, 1, "composition", edge=True),
    ]


# table-list's list ops, (topology, n, k, m, p), smallest output first: 2600
# to 62000 lines on both topologies.  Enumeration cost per line differs up to
# six-fold between shapes, so drawn points would make p50 depend on the seed;
# the points are fixed and the seed only orders the ops.
_LIST_POINTS = (
    ("line", 28, 3, 1, 1), ("circle", 30, 3, 3, 1), ("line", 23, 4, 3, 2),
    ("line", 22, 4, 2, 1), ("line", 24, 4, 3, 1), ("line", 24, 5, 2, 2),
    ("circle", 26, 5, 2, 2), ("line", 30, 5, 1, 3), ("circle", 31, 4, 3, 2),
    ("line", 24, 5, 1, 1), ("line", 31, 6, 2, 3), ("circle", 23, 8, 1, 1),
    ("line", 28, 6, 1, 2), ("circle", 27, 5, 2, 1), ("line", 31, 6, 3, 3),
    ("circle", 24, 6, 3, 1), ("line", 25, 6, 1, 1), ("line", 29, 7, 2, 2),
    ("circle", 29, 5, 3, 1), ("circle", 32, 9, 1, 2), ("line", 26, 9, 2, 1),
    ("line", 32, 9, 3, 2),
)


def _table_list(rng: random.Random, tiny: bool) -> list[dict]:
    ops = []
    for m, p in PAIRS[:2] if tiny else PAIRS:
        ops.append({"argv": ["table", "--topology", "circle", "--m", str(m), "--p", str(p),
                             "--n-max", "32", "--k-max", "8"], "edge": False})
    for topology, n, k, m, p in _LIST_POINTS[:3] if tiny else _LIST_POINTS:
        ops.append({"argv": ["list", "--topology", topology, "--n", str(n), "--k", str(k),
                             "--m", str(m), "--p", str(p)], "edge": False})
    rng.shuffle(ops)
    return ops


_MAKERS = {
    "audit-sweep": _audit_sweep,
    "big-counts": _big_counts,
    "table-list": _table_list,
}
