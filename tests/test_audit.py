"""Tests for recurrence evaluators, the bijection check, and the audit engine."""

import hashlib
import json
from itertools import product

import pytest

from sepsets.audit import (
    DEFAULT_GRID,
    GridSpec,
    IdentityId,
    bijection_count_check,
    parse_grid,
    run_audit,
)
from sepsets import counting, oracle
from sepsets.counting import (
    g_alternating,
    g_closed,
    g_composition,
    g_for_identity,
    g_recurrence,
    h_composition,
    h_for_identity,
    h_from_g,
    h_recurrence,
)
from sepsets.oracle import EnumerationCapError

SMALL_GRID = GridSpec(m_max=2, p_max=2, k_max=3, n_max=14)
WIDE_GRID = GridSpec(m_max=4, p_max=3, k_max=6, n_max=30)


class TestHRecurrence:
    def test_splits_on_first_object(self):
        assert h_recurrence(5, 2, 2, 1) == 7
        assert h_recurrence(4, 1, 2, 1) == 4
        assert h_recurrence(6, 2, 2, 1) == 11

    def test_k_zero_and_one(self):
        for n in range(12):
            assert h_recurrence(n, 0, 2, 1) == 1
            assert h_recurrence(n, 1, 3, 2) == n

    def test_equals_composition_everywhere(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(5):
                for n in range(18):
                    assert h_recurrence(n, k, m, p) == h_composition(n, k, m, p), (
                        n, k, m, p,
                    )

    def test_boundary_cell_comes_from_seed(self):
        # the raw step H(1,2) + H(0,1) would give 0 at the range boundary
        assert h_recurrence(2, 2, 2, 1) == 1

    def test_newton_read_from_the_start_column(self):
        # n = x0..x0+k were read straight from the last row before every
        # n >= x0 was read from the Newton column; x0 - 1 is a seed
        for m, p, k in product(range(1, 4), range(1, 4), range(1, 9)):
            x0 = p * m * (k - 1) + 1
            for n in range(max(x0 - 1, 0), x0 + k + 2):
                assert h_recurrence(n, k, m, p) == h_composition(n, k, m, p), (
                    n, k, m, p,
                )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            h_recurrence(-1, 2, 2, 1)


class TestGRecurrence:
    def test_corrected_steps(self):
        assert g_recurrence(7, 2, 2, 1) == 14
        assert g_recurrence(8, 2, 2, 1) == 20

    def test_printed_variant_differs(self):
        assert g_recurrence(7, 2, 2, 1, "printed") == 15

    def test_equals_closed_form_on_range(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(4):
                for n in range(m * p * k + 1, 22):
                    assert g_recurrence(n, k, m, p) == g_closed(n, k, m, p), (
                        n, k, m, p,
                    )

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            g_recurrence(7, 2, 2, 1, variant="other")

    def test_newton_read_from_the_start_column(self):
        for m, p, k in product(range(1, 4), range(1, 4), range(1, 9)):
            x0 = m * (p * k + 1) + 1
            for n in range(x0 - 1, x0 + k + 2):
                assert g_recurrence(n, k, m, p) == g_composition(n, k, m, p), (
                    n, k, m, p,
                )


class TestRecurrenceColumnCache:
    """Each route keeps the Newton column of its last key: (k, m, p) on the
    line, (k, m, p, step) on the circle."""

    CACHES = (counting._line_column, counting._circle_column)

    @staticmethod
    def call(route, n, k, m, p):
        if route == "line":
            return h_recurrence(n, k, m, p)
        return g_recurrence(n, k, m, p, route)

    def test_interleaved_keys_give_fresh_values(self):
        # line and circle, two (k, m, p), and printed and corrected at the
        # same (n, k, m, p) in both orders
        sequence = []
        for k, m, p in ((5, 2, 1), (7, 3, 2)):
            x0 = m * (p * k + 1) + 1
            for n in (x0, x0 + 3, 10**4):
                sequence += [
                    ("line", n, k, m, p),
                    ("printed", n, k, m, p),
                    ("corrected", n, k, m, p),
                    ("line", n + 1, k, m, p),
                    ("corrected", n + 1, k, m, p),
                    ("printed", n + 1, k, m, p),
                ]
        sequence += sequence[::-1]
        values = [self.call(*key) for key in sequence]
        fresh = []
        for key in sequence:
            for cache in self.CACHES:
                cache.cache_clear()
            fresh.append(self.call(*key))
        assert values == fresh

    def test_each_route_keeps_at_most_one_column(self):
        for m, p, k in product(range(1, 4), range(1, 3), range(1, 6)):
            for route in ("line", "printed", "corrected"):
                self.call(route, 10**3, k, m, p)
        for cache in self.CACHES:
            assert cache.cache_info().currsize <= 1


class TestDeterminism:
    def test_repeated_grid_reproduces_values(self):
        # the recurrences keep only the last Newton column per route, so a
        # second pass over the same grid must give the same values
        grid = [
            (n, k, m, p)
            for m, p in product((1, 2), (1, 2))
            for k in range(4)
            for n in range(14)
        ]

        def values():
            return [
                (h_recurrence(n, k, m, p),
                 g_recurrence(max(n, m * p * k + 1), k, m, p))
                for n, k, m, p in grid
            ]

        assert values() == values()


class TestRowsExtendedPastTheBoundary:
    """Rows are built to boundary(k) + k and extended by Newton's forward
    formula past it; both branches must give the composition counts."""

    @staticmethod
    def points(boundary, k, below=2):
        yield from range(max(0, boundary - below), boundary + k + 4)
        yield boundary + 50
        yield 10**6

    def test_line_equals_composition_around_the_switch(self):
        # the points start at the seed columns x0-p-1 .. x0-1 below the
        # shared start x0 (below 0 at k = 1, where only n = 0 is a point)
        for m, p, k in product(range(1, 6), range(1, 5), range(9)):
            for n in self.points(p * m * (k - 1) + 1, k, p + 1):
                assert h_recurrence(n, k, m, p) == h_composition(n, k, m, p), (
                    n, k, m, p,
                )

    def test_circle_equals_composition_around_the_switch(self):
        for m, p, k in product(range(1, 4), range(1, 4), range(7)):
            for n in self.points(m * (p * k + 1) + 1, k):
                assert g_recurrence(n, k, m, p) == g_composition(n, k, m, p), (
                    n, k, m, p,
                )

    def test_printed_variant_keeps_its_values(self):
        # values of the row-by-row evaluation that summed every row out to n
        for (m, p, k), values in PRINTED_G_RECURRENCE.items():
            for n, value in enumerate(values):
                assert g_recurrence(n, k, m, p, "printed") == value, (n, k, m, p)
        for (n, k, m, p), value in PRINTED_G_RECURRENCE_FAR.items():
            assert g_recurrence(n, k, m, p, "printed") == value, (n, k, m, p)


class TestLineRecurrenceSeeds:
    def test_at_most_p_plus_one_composition_products(self, monkeypatch):
        # from x0 = p*m*(k-1) + 1 on, the seeds are p + 1 composition rows;
        # one seed product per row would make k calls.  The calls at k = 10
        # and 11 share seed column 9, and the two at k = 20 share columns
        # 37 and 38 with other (m, p), so a seed column kept from one call
        # to the next would fail or give a wrong value below.
        calls = []
        engine = counting._composition

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(counting, "_composition", counted)
        values = {}
        for m, p, k in [
            (1, 1, 2), (1, 1, 10), (1, 1, 11), (1, 2, 20), (2, 1, 20),
            (3, 2, 25), (2, 3, 40), (3, 2, 60),
        ]:
            x0 = p * m * (k - 1) + 1
            for n in (x0, x0 + k // 2, x0 + 5 * k, 10**6):
                calls.clear()
                values[n, k, m, p] = h_recurrence(n, k, m, p)
                assert len(calls) <= p + 1, (n, k, m, p, len(calls))
        for (n, k, m, p), value in values.items():
            assert value == h_composition(n, k, m, p), (n, k, m, p)


class TestGAlternating:
    def test_six_circle(self):
        assert g_alternating(6, 2, 2, 1) == 9

    def test_k_zero_telescopes_to_one(self):
        for n, m, p in [(2, 2, 1), (3, 3, 3), (12, 1, 2)]:
            assert g_alternating(n, 0, m, p) == 1

    def test_k_one(self):
        assert g_alternating(12, 1, 2, 1) == 12

    def test_equals_closed_form_on_range(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(4):
                for n in range(m * (p * k + 1), 24):
                    assert g_alternating(n, k, m, p) == g_closed(n, k, m, p)

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            g_alternating(5, 2, 2, 1)


class TestHFromG:
    def test_four_line(self):
        # 9 - 2*4 + 3*1
        assert h_from_g(4, 2, 2, 1) == 4

    def test_k_zero_and_one(self):
        assert h_from_g(9, 0, 2, 1) == 1
        for n in range(0, 14):
            assert h_from_g(n, 1, 2, 1) == n

    def test_equals_composition_above_margin(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(4):
                if k <= 1:
                    lo = 0
                elif m == 1:
                    lo = (p + 1) * (k - 1) + 1
                else:
                    lo = m * p * (k - 1) + 1
                for n in range(lo, 20):
                    assert h_from_g(n, k, m, p) == h_composition(n, k, m, p), (
                        n, k, m, p,
                    )

    def test_below_range_circle_term(self):
        # the j = 0 term G(6, 3) sits below the closed-form range
        assert h_from_g(4, 3, 2, 1) == -6

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            h_from_g(1, 2, 2, 1)


class TestFormulaRoutesNeedNoOracle:
    """With the oracle scan disabled, the circle routes below the closed-form
    range, past the default cap too, and the Eq4.x audits still run."""

    @pytest.fixture(autouse=True)
    def no_oracle(self, monkeypatch, fresh_audit_rows):
        def refuse(*args):
            raise AssertionError("a formula route called the oracle")

        monkeypatch.setattr(oracle, "_scan", refuse)

    def test_circle_routes_below_range(self):
        for m, p, k in product(range(1, 4), range(1, 3), range(1, 8)):
            for n in range(m * p * (k - 1), min(m * p * k + 1, 41)):
                value = g_composition(n, k, m, p)
                assert g_for_identity(n, k, m, p) == value
                assert g_recurrence(n, k, m, p) == value
                h_from_g(n, k, m, p)

    def test_eq4_audits(self):
        grid = GridSpec(3, 2, 6, 40)
        printed, *rest = [
            run_audit(IdentityId(name), grid)
            for name in ["Eq4.2-printed", "Eq4.1", "Eq4.2-corrected", "Eq4.4", "Eq4.5"]
        ]
        assert not printed.passed
        assert all(report.passed and report.checked for report in rest)


class TestBoundaryCounterexamples:
    """The exact boundary slices excluded from the audit sweeps really fail."""

    def test_line_recurrence_fails_at_exact_boundary(self):
        lhs = h_for_identity(2, 2, 2, 1)
        rhs = h_for_identity(1, 2, 2, 1) + h_for_identity(0, 1, 2, 1)
        assert (lhs, rhs) == (1, 0)

    def test_circle_recurrence_fails_at_m1_boundary(self):
        lhs = g_for_identity(3, 2, 1, 1)
        rhs = g_for_identity(2, 2, 1, 1) + g_for_identity(1, 1, 1, 1)
        assert (lhs, rhs) == (0, 1)

    def test_line_from_circle_fails_at_exact_boundary(self):
        assert h_from_g(2, 2, 2, 1) == 3
        assert h_composition(2, 2, 2, 1) == 1


class TestBijectionCount:
    def test_paper_example(self):
        assert bijection_count_check(5, 2, 2, 1) == (5, 5)

    def test_seven_circle(self):
        assert bijection_count_check(7, 2, 2, 1) == (14, 14)

    def test_k_one(self):
        for n in (7, 11):
            assert bijection_count_check(n, 1, 3, 2) == (n, n)

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            bijection_count_check(4, 2, 2, 1)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            bijection_count_check(40, 2, 2, 1)


class TestGrid:
    def test_parse(self):
        assert parse_grid("m<=3,p<=2,k<=4,n<=24") == GridSpec(3, 2, 4, 24)
        assert parse_grid(" m<=1 , p<=1 , k<=2 , n<=9 ") == GridSpec(1, 1, 2, 9)

    @pytest.mark.parametrize(
        "text", ["", "m<=3", "m<=3,p<=2,k<=4", "n<=2,m<=3,p<=2,k<=4", "m<=x,p<=2,k<=4,n<=5"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    @pytest.mark.parametrize("text", ["m<=0,p<=2,k<=4,n<=5", "m<=3,p<=0,k<=4,n<=5"])
    def test_rejects_empty_m_or_p_range(self, text):
        with pytest.raises(ValueError, match="empty grid"):
            parse_grid(text)

    def test_describe_roundtrip(self):
        grid = GridSpec(3, 2, 4, 24)
        assert parse_grid(grid.describe()) == grid


class TestRunAudit:
    def test_verified_identities_pass(self):
        for identity in (
            IdentityId.EQ2_1,
            IdentityId.EQ2_2,
            IdentityId.EQ3_1,
            IdentityId.EQ3_2,
            IdentityId.EQ3_3_CORRECTED,
            IdentityId.EQ3_4,
            IdentityId.EQ3_5,
            IdentityId.THM_H1,
            IdentityId.THM_H2,
            IdentityId.THM_H3_CORRECTED,
            IdentityId.EQ4_1,
            IdentityId.EQ4_2_CORRECTED,
            IdentityId.EQ4_4,
            IdentityId.EQ4_5,
            IdentityId.HWANG_WEI,
            IdentityId.GOULD,
            IdentityId.BIJECTION_COUNT,
        ):
            report = run_audit(identity, SMALL_GRID)
            assert report.passed, (identity, report.failures[:3])
            assert report.checked > 0

    def test_printed_variants_fail_with_witnesses(self):
        report = run_audit(IdentityId.EQ3_3_PRINTED, SMALL_GRID)
        assert not report.passed
        assert {
            "params": {"lambdas": "(1,1)", "mu": "1", "k": 2},
            "lhs": 10,
            "rhs": 20,
        } in report.failures

        report = run_audit(IdentityId.THM_H3_PRINTED, GridSpec(2, 1, 2, 8))
        assert {
            "params": {"m": 2, "p": 1, "k": 2, "n": 6},
            "lhs": 11,
            "rhs": 17,
        } in report.failures

        report = run_audit(IdentityId.EQ4_2_PRINTED, GridSpec(2, 1, 2, 10))
        assert {
            "params": {"m": 2, "p": 1, "k": 2, "n": 7},
            "lhs": 14,
            "rhs": 15,
        } in report.failures

    def test_reports_are_deterministic(self):
        a = run_audit(IdentityId.EQ3_1, SMALL_GRID)
        b = run_audit(IdentityId.EQ3_1, SMALL_GRID)
        assert a.to_json_dict() == b.to_json_dict()

    def test_failures_are_reproducible(self):
        report = run_audit(IdentityId.EQ4_2_PRINTED, GridSpec(2, 1, 2, 10))
        for failure in report.failures:
            params = failure["params"]
            lhs = g_for_identity(params["n"], params["k"], params["m"], params["p"])
            assert lhs == failure["lhs"]

    def test_json_round_trip(self):
        report = run_audit(IdentityId.EQ4_2_PRINTED, GridSpec(2, 1, 2, 10))
        payload = json.loads(report.to_json())
        assert set(payload) == {"identity", "grid", "checked", "failures"}
        assert payload["identity"] == "Eq4.2-printed"
        assert payload["grid"] == "m<=2,p<=1,k<=2,n<=10"
        assert payload["checked"] == report.checked
        assert all(set(f) == {"params", "lhs", "rhs"} for f in payload["failures"])

    def test_text_report(self):
        text = run_audit(IdentityId.EQ3_5, SMALL_GRID).to_text()
        assert "identity: Eq3.5" in text
        assert "status: pass" in text
        text = run_audit(IdentityId.EQ4_2_PRINTED, GridSpec(2, 1, 2, 10)).to_text()
        assert "FAIL" in text
        assert "m=2 p=1 k=2 n=7: lhs=14 rhs=15" in text

    def test_identity_ids_cover_catalogue(self):
        values = {identity.value for identity in IdentityId}
        assert len(values) == 20
        assert {"Eq3.3-printed", "Eq3.3-corrected", "Thm-H3-printed",
                "Eq4.2-printed", "HwangWei", "Gould", "BijectionCount"} <= values

    @pytest.mark.parametrize(
        "identity,checked,failed",
        [
            (IdentityId.EQ2_1, 750, 0),
            (IdentityId.EQ2_2, 540, 0),
            (IdentityId.EQ3_1, 42, 0),
            (IdentityId.EQ3_2, 42, 0),
            (IdentityId.EQ3_3_PRINTED, 42, 42),
            (IdentityId.EQ3_3_CORRECTED, 42, 0),
            (IdentityId.EQ3_4, 41, 0),
            (IdentityId.EQ3_5, 540, 0),
            (IdentityId.THM_H1, 642, 0),
            (IdentityId.THM_H2, 642, 0),
            (IdentityId.THM_H3_PRINTED, 492, 488),
            (IdentityId.THM_H3_CORRECTED, 492, 0),
            (IdentityId.EQ4_1, 474, 0),
            (IdentityId.EQ4_2_PRINTED, 368, 246),
            (IdentityId.EQ4_2_CORRECTED, 368, 0),
            (IdentityId.EQ4_4, 512, 0),
            (IdentityId.EQ4_5, 612, 0),
            (IdentityId.HWANG_WEI, 42, 0),
            (IdentityId.GOULD, 42, 0),
            (IdentityId.BIJECTION_COUNT, 396, 0),
        ],
    )
    def test_default_grid_tallies(self, identity, checked, failed):
        # Eq3.4 checks 41 of its 42 instances: one is singular and skipped
        report = run_audit(identity, DEFAULT_GRID)
        assert (report.checked, len(report.failures)) == (checked, failed)

    @pytest.mark.parametrize(
        "identity,digest",
        [
            (IdentityId.EQ3_1, "8ca4e658f92ce68b39d24cd3e9f9012613020caea7e402ce7b0bc963feaca8ef"),
            (IdentityId.EQ3_2, "e357628e48e11354fe2d4c38f013c07d490ea475f4097771347696c581fbea50"),
            (IdentityId.EQ3_3_PRINTED,
             "17e6ef97715c1673da8787c1d21f0b278df4446a7afc73fc1c33b143cfde759c"),
            (IdentityId.EQ3_3_CORRECTED,
             "d81a4b207890781f466ca682bf153da095d5f4157cdf0e61478d206174182a79"),
            (IdentityId.EQ3_4, "3cb89f0122fc9461a778cb85506b658fd3d9b3a3790d614fb36a4e26ab58901f"),
            (IdentityId.HWANG_WEI,
             "39fbe73087b09b4c2deacf5edf9606088c3563c0aa1a099c63176d0f98b20838"),
            (IdentityId.GOULD, "3ae88dc6cbd6d8a6d17be82def3e46613b3d286a08955a0ec16a534ff9ce74a2"),
        ],
    )
    def test_rational_identity_reports_are_pinned(self, identity, digest):
        # sha256 of the default-grid JSON report of each identity whose
        # left side is an Omega/Phi direct sum: any drift in the values, the
        # order or the skipped instances changes it
        report = run_audit(identity, DEFAULT_GRID)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "grid,identity,digest",
        [
            (DEFAULT_GRID, "Eq2.1",
             "ed73db9581807043ed779643a03625d900f9840aca9bcac7c9caa591dedb893f"),
            (DEFAULT_GRID, "Eq2.2",
             "908bd843f92b2eea81afdad32c433aad715233eee9ccf0cfcce82b121c967136"),
            (DEFAULT_GRID, "Eq3.5",
             "d5a0b0cc24af7aaec7e0342116d26b06c384ee9c02a576fde964e4bc64b01261"),
            (DEFAULT_GRID, "Thm-H1",
             "a25709f83247cab58fdc0b6b9343007b729c38ceca2c7782fe54060091654800"),
            (DEFAULT_GRID, "Thm-H2",
             "534c3d48c21b4e3f39f918671005b2da5df2ea748da78424ae0e4ffd91dc0135"),
            (DEFAULT_GRID, "Thm-H3-printed",
             "6fb87dd79ec0b41988ab04559f59d7f6298e6db9c61736d9455a8ce3db009f0b"),
            (DEFAULT_GRID, "Thm-H3-corrected",
             "3f5ba043a433dcee14bed0f0f1567a405cfea6a809e5201547267cac28a05668"),
            (DEFAULT_GRID, "Eq4.1",
             "092be2a340e33996f33a902e7d0536de52ec1eb135836ba29468763b2a46eca8"),
            (DEFAULT_GRID, "Eq4.2-printed",
             "48a535ba5882f0ff3063806a683229128886d735252179372d99fae6c478c699"),
            (DEFAULT_GRID, "Eq4.2-corrected",
             "1d64f38f508ef1498a1479c66f7f13f1afc3aadc48a0425c7e513d2c969bd59e"),
            (DEFAULT_GRID, "Eq4.4",
             "594068703476908c3970ab954a0263130bd6159debc64f851f07ee8fe7bb3972"),
            (DEFAULT_GRID, "Eq4.5",
             "217c0652bd2c36f8f9912a81cfb725a45a3d286386942fbdec55b4f5de11778d"),
            (DEFAULT_GRID, "BijectionCount",
             "fc2a6a5f4fb8fc51d04742ceb77f5c5009d8db9f4abe0e1ea7f9f3159bff1dc9"),
            (WIDE_GRID, "Eq2.1",
             "6843c5f3938339081c851b0a523a62a2e55f442179fe4e82e3742df32fd2b9eb"),
            (WIDE_GRID, "Eq2.2",
             "36aeed41efd3a76c322fbc5f1d0b547c7674f7ea5106ec6b5df1900c03cf4397"),
            (WIDE_GRID, "Eq3.5",
             "bd811154bc874952bb9eede3caa3171a0896977caef1bb091ceeca35098212db"),
            (WIDE_GRID, "Thm-H1",
             "9c9bd77707a60628479e0ff71f0a3764f9f4b7ade82cfa41d1494422c31826a0"),
            (WIDE_GRID, "Thm-H2",
             "1e2594013bc67cc10a6270cad93be864a4bdc01514873ef37ffb57a428f1cb7a"),
            (WIDE_GRID, "Thm-H3-printed",
             "730f9dc6cbc720985fe357867d514c38bfea0aceccad70f831f975c9f87df02f"),
            (WIDE_GRID, "Thm-H3-corrected",
             "e7390a0bcaacd95bcd40743c57b405220aa466986a148a7eac484e4bfc2780fc"),
            (WIDE_GRID, "Eq4.1",
             "641ad5169a9ea1f067f11db4b35a7394a43772a187a778b2616bdf19e4b90da2"),
            (WIDE_GRID, "Eq4.2-printed",
             "f0929f0edc4a045a94178839cbaad4c5f042db6a518cb0967141312b214dcb17"),
            (WIDE_GRID, "Eq4.2-corrected",
             "2aea9ae9dea8de74ba35ea9ed6e76cb984aa004378bf2820b32d58dbf6f552e3"),
            (WIDE_GRID, "Eq4.4",
             "00fd3e0521536bd018e1b322183360328a90b91ef02382838d21b7826ccc2989"),
            (WIDE_GRID, "Eq4.5",
             "55728100fc729a62c306e08c9070a8de80c218e00863d5e1097118e8ed507cbe"),
            (WIDE_GRID, "BijectionCount",
             "2627f18bf4e6c937b7f4f5d5646e8b4caa145039d748ff6a27cd2f9658a50ac0"),
        ],
    )
    def test_grid_identity_reports_are_pinned(self, grid, identity, digest):
        # sha256 of the JSON report of each grid identity, fixed before the
        # line counts were read from one composition row per (n, m, p)
        report = run_audit(IdentityId(identity), grid)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.usefixtures("fresh_audit_rows")
    @pytest.mark.parametrize("identity", ["Eq2.1", "Eq2.2", "Eq4.1", "Eq4.4", "Eq4.5"])
    def test_line_counts_come_from_one_row_per_n_m_p(self, identity, monkeypatch):
        # the default grid has 25 * 3 * 2 = 150 (n, m, p) rows, and Eq4.5's
        # circle terms add a few cycle compositions; one product per (n, k)
        # cell and identity term would make several hundred calls
        calls = []
        engine = counting._composition

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(counting, "_composition", counted)
        assert run_audit(IdentityId(identity), DEFAULT_GRID).passed
        assert 0 < len(calls) <= 160


# g_recurrence(n, k, m, p, "printed") for n = 0..60, keyed (m, p, k)
PRINTED_G_RECURRENCE = {
    (1, 1, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (1, 1, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (1, 1, 2): (
        0, 0, 0, 0, 3, 7, 12, 18, 25, 33, 42, 52, 63, 75, 88, 102, 117, 133, 150, 168,
        187, 207, 228, 250, 273, 297, 322, 348, 375, 403, 432, 462, 493, 525, 558, 592,
        627, 663, 700, 738, 777, 817, 858, 900, 943, 987, 1032, 1078, 1125, 1173, 1222,
        1272, 1323, 1375, 1428, 1482, 1537, 1593, 1650, 1708, 1767,
    ),
    (1, 1, 3): (
        0, 0, 0, 0, 0, 3, 10, 22, 40, 65, 98, 140, 192, 255, 330, 418, 520, 637, 770,
        920, 1088, 1275, 1482, 1710, 1960, 2233, 2530, 2852, 3200, 3575, 3978, 4410,
        4872, 5365, 5890, 6448, 7040, 7667, 8330, 9030, 9768, 10545, 11362, 12220,
        13120, 14063, 15050, 16082, 17160, 18285, 19458, 20680, 21952, 23275, 24650,
        26078, 27560, 29097, 30690, 32340, 34048,
    ),
    (1, 1, 4): (
        0, 0, 0, 0, 0, 0, 3, 13, 35, 75, 140, 238, 378, 570, 825, 1155, 1573, 2093,
        2730, 3500, 4420, 5508, 6783, 8265, 9975, 11935, 14168, 16698, 19550, 22750,
        26325, 30303, 34713, 39585, 44950, 50840, 57288, 64328, 71995, 80325, 89355,
        99123, 109668, 121030, 133250, 146370, 160433, 175483, 191565, 208725, 227010,
        246468, 267148, 289100, 312375, 337025, 363103, 390663, 419760, 450450, 482790,
    ),
    (1, 1, 5): (
        0, 0, 0, 0, 0, 0, 0, 3, 16, 51, 126, 266, 504, 882, 1452, 2277, 3432, 5005,
        7098, 9828, 13328, 17748, 23256, 30039, 38304, 48279, 60214, 74382, 91080,
        110630, 133380, 159705, 190008, 224721, 264306, 309256, 360096, 417384, 481712,
        553707, 634032, 723387, 822510, 932178, 1053208, 1186458, 1332828, 1493261,
        1668744, 1860309, 2069034, 2296044, 2542512, 2809660, 3098760, 3411135, 3748160,
        4111263, 4501926, 4921686, 5372136,
    ),
    (1, 2, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (1, 2, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (1, 2, 2): (
        0, 0, 0, 0, 0, 0, 4, 9, 15, 22, 30, 39, 49, 60, 72, 85, 99, 114, 130, 147, 165,
        184, 204, 225, 247, 270, 294, 319, 345, 372, 400, 429, 459, 490, 522, 555, 589,
        624, 660, 697, 735, 774, 814, 855, 897, 940, 984, 1029, 1075, 1122, 1170, 1219,
        1269, 1320, 1372, 1425, 1479, 1534, 1590, 1647, 1705,
    ),
    (1, 2, 3): (
        0, 0, 0, 0, 0, 0, 0, 0, 4, 13, 28, 50, 80, 119, 168, 228, 300, 385, 484, 598,
        728, 875, 1040, 1224, 1428, 1653, 1900, 2170, 2464, 2783, 3128, 3500, 3900,
        4329, 4788, 5278, 5800, 6355, 6944, 7568, 8228, 8925, 9660, 10434, 11248, 12103,
        13000, 13940, 14924, 15953, 17028, 18150, 19320, 20539, 21808, 23128, 24500,
        25925, 27404, 28938, 30528,
    ),
    (1, 2, 4): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 17, 45, 95, 175, 294, 462, 690, 990, 1375,
        1859, 2457, 3185, 4060, 5100, 6324, 7752, 9405, 11305, 13475, 15939, 18722,
        21850, 25350, 29250, 33579, 38367, 43645, 49445, 55800, 62744, 70312, 78540,
        87465, 97125, 107559, 118807, 130910, 143910, 157850, 172774, 188727, 205755,
        223905, 243225, 263764, 285572, 308700, 333200, 359125, 386529,
    ),
    (1, 2, 5): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 21, 66, 161, 336, 630, 1092, 1782, 2772,
        4147, 6006, 8463, 11648, 15708, 20808, 27132, 34884, 44289, 55594, 69069, 85008,
        103730, 125580, 150930, 180180, 213759, 252126, 295771, 345216, 401016, 463760,
        534072, 612612, 700077, 797202, 904761, 1023568, 1154478, 1298388, 1456238,
        1629012, 1817739, 2023494, 2247399, 2490624, 2754388, 3039960, 3348660, 3681860,
    ),
    (2, 1, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (2, 1, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (2, 1, 2): (
        0, 0, 1, 0, 4, 5, 9, 15, 22, 30, 39, 49, 60, 72, 85, 99, 114, 130, 147, 165,
        184, 204, 225, 247, 270, 294, 319, 345, 372, 400, 429, 459, 490, 522, 555, 589,
        624, 660, 697, 735, 774, 814, 855, 897, 940, 984, 1029, 1075, 1122, 1170, 1219,
        1269, 1320, 1372, 1425, 1479, 1534, 1590, 1647, 1705, 1764,
    ),
    (2, 1, 3): (
        0, 0, 0, 0, 0, 0, 0, 7, 16, 38, 68, 107, 156, 216, 288, 373, 472, 586, 716, 863,
        1028, 1212, 1416, 1641, 1888, 2158, 2452, 2771, 3116, 3488, 3888, 4317, 4776,
        5266, 5788, 6343, 6932, 7556, 8216, 8913, 9648, 10422, 11236, 12091, 12988,
        13928, 14912, 15941, 17016, 18138, 19308, 20527, 21796, 23116, 24488, 25913,
        27392, 28926, 30516, 32163, 33868,
    ),
    (2, 1, 4): (
        0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 25, 93, 200, 356, 572, 860, 1233, 1705, 2291,
        3007, 3870, 4898, 6110, 7526, 9167, 11055, 13213, 15665, 18436, 21552, 25040,
        28928, 33245, 38021, 43287, 49075, 55418, 62350, 69906, 78122, 87035, 96683,
        107105, 118341, 130432, 143420, 157348, 172260, 188201, 205217, 223355, 242663,
        263190, 284986, 308102, 332590, 358503, 385895, 414821, 445337, 477500,
    ),
    (2, 1, 5): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11, 36, 236, 592, 1164, 2024, 3257, 4962, 7253,
        10260, 14130, 19028, 25138, 32664, 41831, 52886, 66099, 81764, 100200, 121752,
        146792, 175720, 208965, 246986, 290273, 339348, 394766, 457116, 527022, 605144,
        692179, 788862, 895967, 1014308, 1144740, 1288160, 1445508, 1617768, 1805969,
        2011186, 2234541, 2477204, 2740394, 3025380, 3333482, 3666072, 4024575, 4410470,
        4825291, 5270628,
    ),
    (2, 2, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (2, 2, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (2, 2, 2): (
        0, 0, 1, 0, 4, 0, 9, 7, 16, 18, 25, 34, 44, 55, 67, 80, 94, 109, 125, 142, 160,
        179, 199, 220, 242, 265, 289, 314, 340, 367, 395, 424, 454, 485, 517, 550, 584,
        619, 655, 692, 730, 769, 809, 850, 892, 935, 979, 1024, 1070, 1117, 1165, 1214,
        1264, 1315, 1367, 1420, 1474, 1529, 1585, 1642, 1700,
    ),
    (2, 2, 3): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 22, 36, 65, 98, 153, 220, 300, 394, 503, 628,
        770, 930, 1109, 1308, 1528, 1770, 2035, 2324, 2638, 2978, 3345, 3740, 4164,
        4618, 5103, 5620, 6170, 6754, 7373, 8028, 8720, 9450, 10219, 11028, 11878,
        12770, 13705, 14684, 15708, 16778, 17895, 19060, 20274, 21538, 22853, 24220,
        25640, 27114, 28643, 30228,
    ),
    (2, 2, 4): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 13, 49, 75, 144, 238, 378, 678, 1072,
        1575, 2203, 2973, 3903, 5012, 6320, 7848, 9618, 11653, 13977, 16615, 19593,
        22938, 26678, 30842, 35460, 40563, 46183, 52353, 59107, 66480, 74508, 83228,
        92678, 102897, 113925, 125803, 138573, 152278, 166962, 182670, 199448, 217343,
        236403, 256677, 278215, 301068, 325288, 350928, 378042,
    ),
    (2, 2, 5): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 51, 108, 266, 500, 882, 1452,
        3027, 5230, 8203, 12106, 17118, 23438, 31286, 40904, 52557, 66534, 83149,
        102742, 125680, 152358, 183200, 218660, 259223, 305406, 357759, 416866, 483346,
        557854, 641082, 733760, 836657, 950582, 1076385, 1214958, 1367236, 1534198,
        1716868, 1916316, 2133659, 2370062, 2626739, 2904954, 3206022, 3531310,
    ),
    (3, 1, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (3, 1, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (3, 1, 2): (
        0, 0, 1, 3, 2, 5, 12, 14, 20, 27, 36, 46, 57, 69, 82, 96, 111, 127, 144, 162,
        181, 201, 222, 244, 267, 291, 316, 342, 369, 397, 426, 456, 487, 519, 552, 586,
        621, 657, 694, 732, 771, 811, 852, 894, 937, 981, 1026, 1072, 1119, 1167, 1216,
        1266, 1317, 1369, 1422, 1476, 1531, 1587, 1644, 1702, 1761,
    ),
    (3, 1, 3): (
        0, 0, 0, 1, 0, 0, 8, 7, 16, 27, 50, 77, 112, 169, 238, 320, 416, 527, 654, 798,
        960, 1141, 1342, 1564, 1808, 2075, 2366, 2682, 3024, 3393, 3790, 4216, 4672,
        5159, 5678, 6230, 6816, 7437, 8094, 8788, 9520, 10291, 11102, 11954, 12848,
        13785, 14766, 15792, 16864, 17983, 19150, 20366, 21632, 22949, 24318, 25740,
        27216, 28747, 30334, 31978, 33680,
    ),
    (3, 1, 4): (
        0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 25, 55, 108, 182, 294, 450, 770, 1186, 1713, 2367,
        3165, 4125, 5266, 6608, 8172, 9980, 12055, 14421, 17103, 20127, 23520, 27310,
        31526, 36198, 41357, 47035, 53265, 60081, 67518, 75612, 84400, 93920, 104211,
        115313, 127267, 140115, 153900, 168666, 184458, 201322, 219305, 238455, 258821,
        280453, 303402, 327720, 353460, 380676, 409423, 439757, 471735,
    ),
    (3, 1, 5): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 11, 48, 91, 196, 375, 672, 1122, 1782, 3495,
        5862, 9027, 13152, 18418, 25026, 33198, 43178, 55233, 69654, 86757, 106884,
        130404, 157714, 189240, 225438, 266795, 313830, 367095, 427176, 494694, 570306,
        654706, 748626, 852837, 968150, 1095417, 1235532, 1389432, 1558098, 1742556,
        1943878, 2163183, 2401638, 2660459, 2940912, 3244314, 3572034, 3925494, 4306170,
        4715593, 5155350,
    ),
    (3, 2, 0): (
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1,
    ),
    (3, 2, 1): (
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
        22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
        42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60,
    ),
    (3, 2, 2): (
        0, 0, 1, 3, 2, 5, 12, 7, 12, 27, 25, 33, 48, 52, 63, 75, 89, 104, 120, 137, 155,
        174, 194, 215, 237, 260, 284, 309, 335, 362, 390, 419, 449, 480, 512, 545, 579,
        614, 650, 687, 725, 764, 804, 845, 887, 930, 974, 1019, 1065, 1112, 1160, 1209,
        1259, 1310, 1362, 1415, 1469, 1524, 1580, 1637, 1695,
    ),
    (3, 2, 3): (
        0, 0, 0, 1, 0, 0, 8, 0, 0, 27, 10, 22, 64, 65, 98, 125, 192, 255, 324, 418, 520,
        637, 792, 966, 1160, 1375, 1612, 1872, 2156, 2465, 2800, 3162, 3552, 3971, 4420,
        4900, 5412, 5957, 6536, 7150, 7800, 8487, 9212, 9976, 10780, 11625, 12512,
        13442, 14416, 15435, 16500, 17612, 18772, 19981, 21240, 22550, 23912, 25327,
        26796, 28320, 29900,
    ),
    (3, 2, 4): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13, 35, 0, 140, 238, 351, 570, 825, 1176,
        1573, 2093, 2736, 3500, 4420, 5508, 7120, 8992, 11148, 13613, 16413, 19575,
        23127, 27098, 31518, 36418, 41830, 47787, 54323, 61473, 69273, 77760, 86972,
        96948, 107728, 119353, 131865, 145307, 159723, 175158, 191658, 209270, 228042,
        248023, 269263, 291813, 315725, 341052, 367848,
    ),
    (3, 2, 5): (
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 51, 162, 266, 504, 1029,
        1452, 2277, 3456, 5005, 7098, 9801, 13328, 17748, 23250, 30039, 38304, 48279,
        64692, 84267, 107394, 134492, 166010, 202428, 244258, 292045, 346368, 407841,
        477114, 554874, 641846, 738794, 846522, 965875, 1097740, 1243047, 1402770,
        1577928, 1769586, 1978856, 2206898, 2454921, 2724184, 3015997, 3331722,
    ),
}
# the same at a few points with n near 10^3: (n, k, m, p) -> value
PRINTED_G_RECURRENCE_FAR = {
    (1000, 5, 3, 2): 8083633698530,
    (999, 4, 2, 1): 41248473242,
    (1001, 3, 1, 2): 165662525,
    (1024, 5, 2, 2): 9108845151430,
    (997, 5, 1, 1): 8126541831576,
    (1003, 2, 3, 1): 502494,
}
