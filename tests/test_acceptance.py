"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (integer or rational equality); the stated
wall-clock budgets are asserted too.
"""

import random
import time
from fractions import Fraction
from itertools import product

from sepsets.audit import (
    DEFAULT_GRID,
    IdentityId,
    run_audit,
)
from sepsets.binomials import binom_nat
from sepsets.cli import main as cli_main
from sepsets.counting import (
    count_query,
    g_alternating,
    g_closed,
    g_from_h,
    g_recurrence,
    h_closed_1,
    h_closed_2,
    h_closed_3,
    h_composition,
    h_for_identity,
    h_recurrence,
)
from sepsets.omega_phi import (
    OmegaQuery,
    compositions,
    gould_check,
    hwang_wei_check,
    omega_closed_1,
    omega_closed_2,
    omega_closed_3,
    omega_direct,
    phi_closed,
    phi_direct,
)
from sepsets.oracle import count_brute, list_brute
from sepsets.counting import g_series, h_series

F = Fraction

LINE_GRID = [
    (m, p, k, n)
    for m in range(1, 4)
    for p in range(1, 4)
    for k in range(6)
    for n in range(21)
]
CIRCLE_GRID = [
    (m, p, k, n)
    for m in range(1, 4)
    for p in range(1, 3)
    for k in range(4)
    for n in range(25)
]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_paper_example():
    start = time.monotonic()
    q = count_query("circle", 5, 2, 2, 1)
    count = count_brute(q)
    listing = set(list_brute(q))
    expected = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    elapsed = time.monotonic() - start
    ok = count == 5 and listing == expected and elapsed < 1.0
    _report(1, ok, f"5-circle pair count and listing ({elapsed:.2f}s)")


def test_criterion_02_line_grand_equivalence():
    start = time.monotonic()
    mismatches = []
    for m, p, k, n in LINE_GRID:
        reference = count_brute(count_query("line", n, k, m, p))
        if h_composition(n, k, m, p) != reference:
            mismatches.append(("composition", m, p, k, n))
        if n >= p * m * (k - 1):
            values = [
                h_closed_1(n, k, m, p),
                h_closed_2(n, k, m, p),
                h_series(n, k, m, p),
                h_recurrence(n, k, m, p),
            ]
            if k >= 1:
                values.append(h_closed_3(n, k, m, p))
            if any(v != reference for v in values):
                mismatches.append(("closed", m, p, k, n))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    _report(
        2,
        ok,
        f"line evaluators vs oracle at {len(LINE_GRID)} points "
        f"({elapsed:.1f}s){'; first mismatch ' + str(mismatches[0]) if mismatches else ''}",
    )


def test_criterion_03_circle_grand_equivalence():
    start = time.monotonic()
    mismatches = []
    checked = 0
    for m, p, k, n in CIRCLE_GRID:
        if n < m * p * k + 1:
            continue
        checked += 1
        reference = count_brute(count_query("circle", n, k, m, p))
        values = [
            g_closed(n, k, m, p),
            g_from_h(n, k, m, p),
            g_series(n, k, m, p),
            g_recurrence(n, k, m, p),
        ]
        if n >= m * (p * k + 1):  # the alternating sum's own validity range
            values.append(g_alternating(n, k, m, p))
        if any(v != reference for v in values):
            mismatches.append((m, p, k, n))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    _report(
        3,
        ok,
        f"circle evaluators vs oracle at {checked} points ({elapsed:.1f}s)",
    )


def test_criterion_04_m1_specializations():
    bad = []
    for p in range(1, 4):
        for k in range(7):
            for n in range(p * (k - 1) if k else 0, 26):
                if n < 0:
                    continue
                if h_closed_1(n, k, 1, p) != binom_nat(n - p * (k - 1), k):
                    bad.append(("line", p, k, n))
            for n in range(p * k + 1, 26):
                expected = F(n, n - p * k) * binom_nat(n - p * k, k)
                if g_closed(n, k, 1, p) != expected:
                    bad.append(("circle", p, k, n))
    _report(4, not bad, "m=1 reductions to the single-row closed forms")


def test_criterion_05_randomized_lemma_identities():
    start = time.monotonic()
    rng = random.Random(20260811)
    checked = 0
    bad = []
    while checked < 100:
        m = rng.randint(1, 4)
        k = rng.randint(0, 5)
        lambdas = tuple(F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(m))
        mu = F(rng.randint(-20, 20), rng.randint(1, 20))
        q = OmegaQuery(lambdas, mu, k)
        singular = any(
            lam_i + mu * k_i == 0
            for parts in compositions(k, m)
            for lam_i, k_i in zip(lambdas, parts)
        ) or q.lambda_total + mu * k == 0
        if singular:
            continue
        checked += 1
        direct = omega_direct(q)
        if not (direct == omega_closed_1(q) == omega_closed_2(q)):
            bad.append(q)
        if k >= 1 and omega_closed_3(q, "corrected") != direct:
            bad.append(q)
        if phi_direct(q) != phi_closed(q):
            bad.append(q)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 30.0
    _report(5, ok, f"100 random rational instances ({elapsed:.1f}s)")


def test_criterion_06_errata_detection():
    reports = {
        identity: run_audit(identity, DEFAULT_GRID)
        for identity in (
            IdentityId.EQ3_3_PRINTED,
            IdentityId.THM_H3_PRINTED,
            IdentityId.EQ4_2_PRINTED,
        )
    }
    ok = all(len(r.failures) >= 1 for r in reports.values())
    witnesses = [
        (
            IdentityId.EQ3_3_PRINTED,
            {"params": {"lambdas": "(1,1)", "mu": "1", "k": 2}, "lhs": 10, "rhs": 20},
        ),
        (
            IdentityId.THM_H3_PRINTED,
            {"params": {"m": 2, "p": 1, "k": 2, "n": 6}, "lhs": 11, "rhs": 17},
        ),
        (
            IdentityId.EQ4_2_PRINTED,
            {"params": {"m": 2, "p": 1, "k": 2, "n": 7}, "lhs": 14, "rhs": 15},
        ),
    ]
    for identity, witness in witnesses:
        ok = ok and witness in reports[identity].failures
    exit_code = cli_main(
        ["audit", "--identity", "Eq4.2-printed", "--grid", DEFAULT_GRID.describe()]
    )
    ok = ok and exit_code == 2
    _report(6, ok, "printed variants each yield counterexamples, exit code 2")


def test_criterion_07_hwang_wei_and_gould():
    rng = random.Random(7171)
    bad = []
    for _ in range(50):
        m = rng.randint(1, 4)
        n_list = tuple(rng.randint(0, 10) for _ in range(m))
        k = rng.randint(0, 6)
        lhs, rhs = hwang_wei_check(n_list, k)
        if lhs != rhs:
            bad.append(("hw", n_list, k))
    checked = 0
    while checked < 50:
        a = F(rng.randint(-8, 8), rng.randint(1, 8))
        b = F(rng.randint(-8, 8), rng.randint(1, 8))
        c = F(rng.randint(-8, 8), rng.randint(1, 8))
        n = rng.randint(0, 6)
        if a + b + c * n == 0 or any(
            a + c * j == 0 or b + c * (n - j) == 0 for j in range(n + 1)
        ):
            continue
        checked += 1
        lhs, rhs = gould_check(a, b, c, n)
        if lhs != rhs:
            bad.append(("gould", a, b, c, n))
    _report(7, not bad, "50 random instances each, right sides evaluated at n")


def test_criterion_08_special_value_suite():
    bad = []
    for m, p, k, n in LINE_GRID:
        reference = count_brute(count_query("line", n, k, m, p))
        if n < k and reference != 0:
            bad.append(("line n<k", m, p, k, n))
        if k == 0 and reference != 1:
            bad.append(("line k=0", m, p, k, n))
        if k == 1 and n >= 1 and reference != n:
            bad.append(("line k=1", m, p, k, n))
    for m, p, k, n in CIRCLE_GRID:
        reference = count_brute(count_query("circle", n, k, m, p))
        if n < k and reference != 0:
            bad.append(("circle n<k", m, p, k, n))
        if k == 0 and reference != 1:
            bad.append(("circle k=0", m, p, k, n))
        if k == 1 and n >= 1 and reference != n:
            bad.append(("circle k=1", m, p, k, n))
    # vanishing windows: k in [i*m+1, (i+1)*m] needs i full blocks of slack
    for m, p in product(range(1, 4), range(1, 4)):
        for i in range(1, 5):
            for k in range(i * m + 1, min((i + 1) * m, 5) + 1):
                for n in range(0, i * m * p):
                    line = count_brute(count_query("line", n + k, k, m, p))
                    if line != 0 or h_composition(n + k, k, m, p) != 0:
                        bad.append(("H window", m, p, i, k, n))
    for m, p in product(range(1, 4), range(1, 3)):
        for i in range(1, 4):
            for k in range(i * m + 1, min((i + 1) * m, 3) + 1):
                for n in range(0, (i + 1) * m * p):
                    if count_brute(count_query("circle", n + k, k, m, p)) != 0:
                        bad.append(("G window", m, p, i, k, n))
    # NOTE: the circular vanishing window is known to be false as printed at
    # (m, p, k, n) = (2, 2, 3, 6): the 9-circle admits the three subsets with
    # spacing (3, 3, 3), e.g. {1, 4, 7}, whose gaps of 2 and 5 objects are all
    # allowed.  This criterion is kept faithful to its statement and therefore
    # fails on exactly that window point; see tests/test_oracle.py
    # (TestCircularWindowErratum) for the pinned true value.
    _report(
        8,
        not bad,
        "five special-value families against the oracle"
        + (f"; counterexamples: {bad}" if bad else ""),
    )


def test_criterion_09_bijection_cardinality():
    start = time.monotonic()
    bad = []
    for m in (2, 3):
        for p in (1, 2):
            for k in (1, 2, 3):
                for n in range(m * p * k + 1, 21):
                    lhs = count_brute(count_query("circle", n, k, m, p))
                    rhs = count_brute(count_query("circle", n, k, 1, p))
                    if lhs != rhs:
                        bad.append((m, p, k, n))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 60.0
    _report(9, ok, f"circular counts match the one-row family ({elapsed:.1f}s)")


def test_criterion_10_boundary_convention_regression():
    value = g_from_h(5, 2, 2, 1)
    oracle = count_brute(count_query("circle", 5, 2, 2, 1))
    # under the blanket zero-for-negative-n convention the j = 2 term
    # H(-1, 0) would drop and the sum comes out one short
    literal = sum(
        binom_nat(2, j)
        * (h_composition(3 - 2 * j, 2 - j, 2, 1) if 3 - 2 * j >= 0 else 0)
        for j in range(3)
    )
    ok = value == oracle == 5 and literal == 4 and h_for_identity(-1, 0, 2, 1) == 1
    _report(10, ok, f"empty-selection convention at the range boundary "
                    f"(adopted: {value}, literal reading: {literal})")
