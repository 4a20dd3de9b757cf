"""Tests for recurrence evaluators and the audit engine."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from sepsets.audit import (
    DEFAULT_GRID,
    GridSpec,
    IdentityId,
    parse_grid,
    run_audit,
)
from sepsets import audit, counting, oracle
from sepsets.omega_phi import OmegaQuery
from sepsets.counting import (
    circle_in_range,
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

F = Fraction
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

    def test_equals_closed_form_on_range(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(4):
                for n in range(m * p * k + 1, 22):
                    assert g_recurrence(n, k, m, p) == g_closed(n, k, m, p), (
                        n, k, m, p,
                    )

    def test_takes_no_variant(self):
        # the printed step is audited by Eq4.2-printed, not computed here; a
        # caller still asking for it must fail, not get the corrected count
        with pytest.raises(TypeError):
            g_recurrence(7, 2, 2, 1, "printed")
        with pytest.raises(TypeError):
            g_recurrence(7, 2, 2, 1, variant="other")

    def test_newton_read_from_the_start_column(self):
        for m, p, k in product(range(1, 4), range(1, 4), range(1, 9)):
            x0 = m * (p * k + 1) + 1
            for n in range(x0 - 1, x0 + k + 2):
                assert g_recurrence(n, k, m, p) == g_composition(n, k, m, p), (
                    n, k, m, p,
                )

    def test_equals_composition_at_seeded_points(self):
        # half the points within 2k of the start column x0, half anywhere
        # up to 2*10^4
        rng = random.Random(20081)
        for i in range(150):
            m, p, k = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 60)
            x0 = m * (p * k + 1) + 1
            if i % 2:
                n = rng.randint(max(0, x0 - 2 * k), x0 + 2 * k)
            else:
                n = rng.randint(0, 2 * 10**4)
            assert g_recurrence(n, k, m, p) == g_composition(n, k, m, p), (
                n, k, m, p,
            )


class TestRecurrenceColumnCache:
    """Each route keeps the Newton column of its last key, (k, m, p), on
    the line and on the circle."""

    CACHES = (counting._line_column, counting._circle_column)

    @staticmethod
    def call(route, n, k, m, p):
        if route == "line":
            return h_recurrence(n, k, m, p)
        return g_recurrence(n, k, m, p)

    def test_interleaved_keys_give_fresh_values(self):
        # line and circle, two (k, m, p), at the same (n, k, m, p) in both
        # orders
        sequence = []
        for k, m, p in ((5, 2, 1), (7, 3, 2)):
            x0 = m * (p * k + 1) + 1
            for n in (x0, x0 + 3, 10**4):
                sequence += [
                    ("line", n, k, m, p),
                    ("circle", n, k, m, p),
                    ("circle", n + 1, k, m, p),
                    ("line", n + 1, k, m, p),
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
            for route in ("line", "circle"):
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
    """Rows are built from the start column x0 to x0 + k and extended by
    Newton's forward formula past it; below x0 the answer is the seed.
    Both branches must give the composition counts."""

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


class TestCircleRecurrenceSeeds:
    def test_seeds_lie_just_below_the_start_column(self, monkeypatch):
        # every row starts at x0 = m*(p*k+1) + 1, so the seeds are read at
        # x0-p-1 .. x0-1 only; at p + 1 > k the rows below k end before x0
        # and are skipped, so only rows k - 1 and k are seeded.  Those
        # columns are at least m*p*(k-1) + 1, and row k's is m*(p*k+1)
        reads = []
        seed = counting.g_for_identity

        def recorded(n, k, m, p):
            reads.append((n, k))
            return seed(n, k, m, p)

        monkeypatch.setattr(counting, "g_for_identity", recorded)
        values = {}
        for m, p, k in [
            (1, 1, 1), (2, 2, 3), (3, 3, 2), (1, 5, 3), (2, 1, 20),
            (3, 2, 25), (1, 4, 40),
        ]:
            x0 = m * (p * k + 1) + 1
            for n in (x0, x0 + k, 10**6):
                counting._circle_column.cache_clear()
                reads.clear()
                values[n, k, m, p] = g_recurrence(n, k, m, p)
                assert reads, (n, k, m, p)
                for column, row in reads:
                    assert x0 - p - 1 <= column < x0, (n, k, m, p, column)
                    assert row >= k - 1 or p + 1 <= k, (n, k, m, p, row)
                    # so every seed past row 0 is a closed-form count
                    assert row == 0 or circle_in_range(column, row, m, p), (
                        n, k, m, p, column, row,
                    )
        monkeypatch.undo()
        for (n, k, m, p), value in values.items():
            assert value == g_composition(n, k, m, p), (n, k, m, p)


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

    def test_range_error_text(self):
        with pytest.raises(ValueError) as error:
            h_from_g(1, 2, 2, 1)
        assert str(error.value) == "h_from_g needs n >= p*m*(k-1) = 2, got n=1"

    @pytest.mark.usefixtures("fresh_audit_rows")
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(3, 2, 6, 40)])
    def test_the_audits_sum_over_kept_counts_is_the_route(self, grid):
        # Eq4.5's right side is h_from_g's sum read over the audit's circle
        # store; at every point the audit checks it equals the public route
        # and the definitional count
        store = audit._counts(grid.k_max, oracle.DEFAULT_CAP)[2]
        points = 0
        for m, p, k, n in product(range(1, grid.m_max + 1), range(1, grid.p_max + 1),
                                  range(grid.k_max + 1), range(grid.n_max + 1)):
            if audit._eq4_5_applies(n, k, m, p):
                points += 1
                value = counting._h_from_g_sum(n, k, m, p, store)
                assert value == h_from_g(n, k, m, p) == h_composition(n, k, m, p), (
                    n, k, m, p,
                )
        assert points == run_audit(IdentityId.EQ4_5, grid).checked


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

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, WIDE_GRID])
    def test_case_params_are_ints_and_strs(self, grid):
        # failures keep their formatted params unconverted, so every
        # identity's record must hold JSON scalars only (a Fraction would
        # not encode); run_audit builds records for failing cases only, so
        # this builds one for every case, passing ones included
        for identity in IdentityId:
            params, cases = audit._cases(identity, grid, oracle.DEFAULT_CAP)
            for instance, den, lhs, rhs in cases:
                failure = audit._failure(params(instance), lhs, rhs, den)
                values = [*failure["params"].values(), failure["lhs"], failure["rhs"]]
                assert {type(v) for v in values} <= {int, str}, (identity, failure)

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

    @pytest.mark.parametrize(
        "identity,digest",
        [
            ("Eq2.1", "3748bdb7bcb9c003b89e6506b286245b92f08af11d5c17837dc4f47791c568ab"),
            ("Eq2.2", "768257a65d6e6068d740bfc71bf75522690a81f25cf400c1be56deaa69bf3332"),
            ("Eq3.1", "37cdc1cdbd99dded38976689ec4c77b823f423c7757c6f4314a3260e8e00032d"),
            ("Eq3.2", "fd09c7afc8ec3a4fb44d5c65b1cfc579287a5aa8a2df797d64762e1157e7a737"),
            ("Eq3.3-printed",
             "dcccdd58bf77cca760af32fa50b31f4936e2c2e3949a0a119a87920a8872561f"),
            ("Eq3.3-corrected",
             "4ef580ae416fd68b7a86ad1d11b0ac960b5db636c694e6026bd0f8eb04939c87"),
            ("Eq3.4", "8be2200dfae4bd642d0e1475418db74ea2ff9db7dc5686c66e7946a43cb74510"),
            ("Eq3.5", "f287c5a5814d04223c148fc484ae268be7cebdc87ece0dcec0558252d981d303"),
            ("Thm-H1", "4b3364575d4a503ef1be47413a245d2690deeb29c6d4f47a2ac2d0ef09671675"),
            ("Thm-H2", "44ecb1e3e365a959b7fafbbaf1bdb155f7ef5ac30e757e3d3804d2974a2a0c81"),
            ("Thm-H3-printed",
             "30fa4a1544e3df7c4f6644344a7a29d048f14050591d5836c66d9603febab01e"),
            ("Thm-H3-corrected",
             "c9489a92869b4d11721353b2a52b101e8c419cfb98630d31a8f5743808c34fd2"),
            ("Eq4.1", "8e8ddeaa791b030cdee7c911b5ec76248963d8cbae33ea0a952547f11251c6e4"),
            ("Eq4.2-printed",
             "4c2349ac4671828d7e8845012783804b143bf1adb7e42b18da51dc85471c4392"),
            ("Eq4.2-corrected",
             "3933ad599d7124e159f3257bc22e41e7763106a2233fc2ad43aba811f3c7f4e6"),
            ("Eq4.4", "eaec2cb9e7d8ecd247491f1caff9aa962230e36d24c34cd6e074e63f7b6ce521"),
            ("Eq4.5", "7ddc2ac81946295c3826f0e51e1099186a513ff36a5c1f01ce6e332690399b5b"),
            ("HwangWei", "8546f5ec2b0afb319ec60bf390ca7e86d3d3dfd89dd158c31a1aee02ee4653c7"),
            ("Gould", "aad342f015b24108c9f40081df875ffb030e1299733bf2a68ea2b2a8ad2b19e3"),
            ("BijectionCount",
             "2bbde0864754111d6201f19fd468922d5c8df9426c3d2e6a6a50f542ce70cfe7"),
        ],
    )
    def test_text_reports_are_pinned(self, identity, digest):
        # sha256 of the default-grid text report of every identity: the
        # text formats each failure's params, so a drift in a failing
        # case's params or in their order changes it
        text = run_audit(IdentityId(identity), DEFAULT_GRID).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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
        "identity,checked,digest",
        [
            ("Eq3.1", 42, "73e395c40baad63ce3cda2ba0b5282d2ba175996752aa78bd02eced027507cfd"),
            ("Eq3.2", 42, "5ac533c43130001512c5b5a9bf28ffac9047c96041d5baec408d03906fcd44e5"),
            ("Eq3.3-printed", 42,
             "4b7954941275443367e7480ffa79529d9376febaeec4f63afb36ce19fced5c73"),
            ("Eq3.3-corrected", 42,
             "81257f44c8fde5b60cf89bc2a6d0ae575dbd819e88b752d1b7c06ae5dd66cb68"),
            ("Eq3.4", 40, "761f97aae218073d1c5c5261761dd4031c441f5fc9be4a75d6406658411ef5e6"),
            ("HwangWei", 42, "d224e8dfc52f0c25b1cdd3e3c37cf5088a996717cc35fc09548561a4072db860"),
            ("Gould", 42, "82e68fad4074f7caf2946a562076e090b02d4256efdc5a69cc63a317f6d259c7"),
        ],
    )
    def test_sampled_family_reports_are_pinned_on_the_wide_grid(
        self, identity, checked, digest
    ):
        # sha256 of the WIDE_GRID JSON report of each sampled family, fixed
        # while the families still drew Fractions and evaluated OmegaQuery
        # forms; the wide grid draws m <= 4 and k <= 5 (6 for Hwang-Wei),
        # where Eq3.4 skips two singular instances.  The default-grid
        # reports are pinned by test_rational_identity_reports_are_pinned.
        report = run_audit(IdentityId(identity), WIDE_GRID)
        assert report.checked == checked
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_passing_sampled_cases_build_no_fraction(self, monkeypatch):
        # the sampled families draw int pairs and compare int cores, and the
        # grid identities compare int counts (Thm-H3 as scaled ints), so no
        # case builds a Fraction or an OmegaQuery; a failing case's record
        # formats its params and sides from the ints, and only a failing
        # case formats params at all
        built, formatted = [], []
        for spied in (Fraction, OmegaQuery):
            monkeypatch.setattr(spied, "__new__", staticmethod(
                lambda cls, *args, new=spied.__new__, **kwargs: (
                    built.append(cls) or new(cls, *args, **kwargs)
                )
            ))
        assert Fraction(1, 2) and OmegaQuery((1,), 1, 0) and len(built) >= 2
        for name in ("_grid_params", "_omega_params", "_hwang_wei_params", "_gould_params"):
            monkeypatch.setattr(audit, name, lambda draw, f=getattr(audit, name): (
                formatted.append(draw) or f(draw)
            ))
        for identity, failed in [
            ("Eq3.1", 0), ("Eq3.2", 0), ("Eq3.3-printed", 42), ("Eq3.3-corrected", 0),
            ("Eq3.4", 0), ("HwangWei", 0), ("Gould", 0),
            ("Eq2.1", 0), ("Eq2.2", 0), ("Eq3.5", 0), ("Thm-H1", 0), ("Thm-H2", 0),
            ("Thm-H3-printed", 488), ("Thm-H3-corrected", 0), ("Eq4.1", 0),
            ("Eq4.2-printed", 246), ("Eq4.2-corrected", 0), ("Eq4.4", 0), ("Eq4.5", 0),
            ("BijectionCount", 0),
        ]:
            built.clear()
            formatted.clear()
            report = run_audit(IdentityId(identity), DEFAULT_GRID)
            assert (built, len(report.failures), len(formatted)) == ([], failed, failed), (
                identity
            )

    @pytest.mark.parametrize("identity,min_k", [("Eq3.1", 0), ("Eq3.3-corrected", 1)])
    def test_omega_draws_are_the_fraction_draws(self, identity, min_k):
        # the int pairs are the rationals the Fraction sampler drew, in the
        # same rng calls and order
        grid = DEFAULT_GRID
        rng = random.Random(f"sepsets-audit:{identity}")
        draws = list(audit._omega_draws(grid, random.Random(f"sepsets-audit:{identity}"), min_k))
        expected = [((F(4), F(4)), F(-1), 2), ((F(1), F(1)), F(1), 2)]
        while len(expected) < 42:
            m = rng.randint(1, min(grid.m_max, 4))
            k = rng.randint(min_k, max(min_k, min(grid.k_max, 5)))
            lambdas = tuple(F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(m))
            expected.append((lambdas, F(rng.randint(-20, 20), rng.randint(1, 20)), k))
        assert [
            (tuple(F(*v) for v in lambdas), F(*mu), k) for lambdas, mu, k in draws
        ] == expected

    def test_gould_draws_are_the_fraction_draws(self):
        rng = random.Random("sepsets-audit:Gould")
        draws = audit._gould_draws(random.Random("sepsets-audit:Gould"))
        expected = [(F(1), F(1), F(1), 2), (F(1), F(2), F(0), 2)]
        while len(expected) < 60:
            a, b, c = (F(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(3))
            expected.append((a, b, c, rng.randint(0, 6)))
        assert [
            (F(*a), F(*b), F(*c), n) for (a, b), c, n in islice(draws, 60)
        ] == expected

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

    @pytest.mark.parametrize(
        "identity",
        ["Eq3.1", "Eq3.2", "Eq3.3-printed", "Eq3.3-corrected", "Eq3.4", "HwangWei", "Gould"],
    )
    def test_every_draw_shape_of_the_sampled_families(self, identity):
        # the samplers draw m <= min(m_max, 4) and k <= min(k_max, 5 or 6),
        # so these 24 grids give every shape they draw; a singular instance
        # is skipped or redrawn, never raised
        for m, k in product(range(1, 5), range(6)):
            report = run_audit(IdentityId(identity), GridSpec(m, 1, k, 0))
            assert 0 < report.checked <= 42, (m, k)
