"""Tests for recurrence evaluators, the bijection check, and the audit engine."""

import json
from itertools import product

import pytest

from sepsets.audit import (
    DEFAULT_GRID,
    GridSpec,
    IdentityId,
    bijection_count_check,
    g_alternating,
    g_for_identity,
    g_recurrence,
    h_from_g,
    h_recurrence,
    parse_grid,
    run_audit,
)
from sepsets import oracle
from sepsets.counting import g_closed, g_composition, h_composition, h_for_identity
from sepsets.oracle import EnumerationCapError

SMALL_GRID = GridSpec(m_max=2, p_max=2, k_max=3, n_max=14)


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


class TestDeterminism:
    def test_repeated_grid_reproduces_values(self):
        # the recurrences keep no state between calls, so a second pass over
        # the same grid must give the same values
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
    def no_oracle(self, monkeypatch):
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
