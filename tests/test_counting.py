"""Tests for domain types, the composition sum, and the closed count formulas."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets.binomials import binom_nat
from sepsets import counting
from sepsets.counting import (
    ROUTES,
    CountQuery,
    SeparationParams,
    _composition,
    _line_counts,
    _line_ways,
    _row_counts,
    Topology,
    circle_in_range,
    count_query,
    g_closed,
    g_composition,
    g_from_h,
    h_closed_1,
    h_closed_2,
    h_closed_3,
    h_closed_3_value,
    h_composition,
    h_composition_row,
    h_for_identity,
    h_recurrence,
    line_in_range,
)
from sepsets.omega_phi import compositions
from sepsets.oracle import count_brute, count_brute_row
from sepsets.counting import g_series, h_series


class TestSeparationParams:
    @pytest.mark.parametrize("m,p", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_bad_params(self, m, p):
        with pytest.raises(ValueError):
            SeparationParams(m, p)

    def test_query_rejects_negative_n(self):
        with pytest.raises(ValueError):
            CountQuery(Topology.LINE, -1, 2, SeparationParams(1, 1))


def residue_rows(n, m):
    """The lengths of the m residue rows i, i + m, ... <= n, i = 1..m."""
    return [len(range(i, n + 1, m)) for i in range(1, m + 1)]


class TestRowCounts:
    def test_row_counts_leave_out_empty_groups(self):
        assert _row_counts(5, 2) == {3: 1, 2: 1}
        assert _row_counts(6, 3) == {2: 3}
        assert _row_counts(7, 3) == {3: 1, 2: 2}
        assert _row_counts(0, 4) == {0: 4}

    @given(st.integers(0, 60), st.integers(1, 12))
    def test_row_counts_match_sizes(self, n, m):
        counts = _row_counts(n, m)
        assert 0 not in counts.values()
        assert counts == Counter(residue_rows(n, m))

    @given(st.integers(1, 60), st.integers(1, 12))
    def test_invariants(self, n, m):
        # m rows, n positions, lengths r + 1 and r for n = r*m + ell
        counts = _row_counts(n, m)
        assert sum(counts.values()) == m
        assert sum(s * c for s, c in counts.items()) == n
        assert max(counts) - min(counts) <= 1
        assert counts.get((n - 1) // m + 1, 0) == n - (n - 1) // m * m


class TestCompositions:
    def test_two_into_two(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]

    def test_zero(self):
        assert list(compositions(0, 4)) == [(0, 0, 0, 0)]

    def test_count(self):
        assert len(list(compositions(3, 2))) == 4

    def test_many_parts_do_not_recurse(self):
        items = list(compositions(1, 1500))
        assert len(items) == 1500
        assert items[0] == (0,) * 1499 + (1,)
        assert items[-1] == (1,) + (0,) * 1499

    @given(st.integers(0, 7), st.integers(1, 5))
    @settings(max_examples=60)
    def test_exhaustive_lexicographic(self, k, m):
        items = list(compositions(k, m))
        assert len(items) == binom_nat(k + m - 1, m - 1)
        assert items == sorted(items)
        assert len(set(items)) == len(items)
        assert all(sum(c) == k and len(c) == m and min(c) >= 0 for c in items)


class TestHComposition:
    def test_six_line(self):
        assert h_composition(6, 2, 2, 1) == 11

    def test_restriction_excludes_overfull_row(self):
        # k_1 = 3 > 1 + 3/2, so the only composition is filtered out
        assert h_composition(3, 3, 1, 2) == 0

    @pytest.mark.parametrize("n,m,p", [(0, 1, 1), (4, 2, 2), (19, 3, 1)])
    def test_empty_selection(self, n, m, p):
        assert h_composition(n, 0, m, p) == 1

    def test_matches_oracle_everywhere(self):
        for m, p in product(range(1, 4), range(1, 4)):
            for k in range(5):
                for n in range(16):
                    expected = count_brute(count_query("line", n, k, m, p))
                    assert h_composition(n, k, m, p) == expected, (n, k, m, p)

    def test_default_split_never_builds_the_rows(self):
        # a billion rows, five of them holding one object each
        assert h_composition(5, 1, 10**9, 1) == 5

    def test_explicit_sizes_reproduce_balanced_split(self):
        assert _composition(Counter((3, 3)), 2, _line_ways(1)) == 11

    def test_independent_of_split_when_rows_long_enough(self):
        # any split whose rows all reach p*(k-1) gives the same value
        rng = random.Random(414)
        for _ in range(200):
            m = rng.randint(1, 4)
            p = rng.randint(1, 3)
            k = rng.randint(0, 4)
            lo = p * (k - 1)
            sizes = [max(lo, 0) + rng.randint(0, 4) for _ in range(m)]
            n = sum(sizes)
            if n == 0:
                continue
            assert _composition(Counter(sizes), k, _line_ways(p)) == h_composition(
                n, k, m, p
            ), (sizes, k, m, p)

    def test_split_with_short_row_differs(self):
        # degenerate rows below p*(k-1) break the equivalence; this anchors
        # the qualified form of the independence property
        assert _composition(Counter((6, 0)), 2, _line_ways(1)) == 10
        assert h_composition(6, 2, 2, 1) == 11

    def test_restriction_redundant_on_formula_range(self):
        # dropping the row restriction changes nothing once n >= p*m*(k-1):
        # compare against the unrestricted sum computed via huge fake rows cap
        for m, p, k in product(range(1, 4), range(1, 3), range(1, 5)):
            for n in range(p * m * (k - 1), p * m * (k - 1) + 8):
                if n < 1:
                    continue
                sizes = residue_rows(n, m)
                unrestricted = 0
                for parts in compositions(k, m):
                    term = 1
                    for k_i, s in zip(parts, sizes):
                        term *= binom_nat(s - p * (k_i - 1), k_i)
                    unrestricted += term
                assert unrestricted == h_composition(n, k, m, p)


class TestHCompositionRow:
    @given(
        st.integers(0, 80), st.integers(0, 14), st.integers(1, 6), st.integers(1, 4)
    )
    @settings(max_examples=150, deadline=None)
    @example(0, 14, 1, 1)
    @example(0, 0, 6, 4)
    @example(5, 14, 6, 4)
    def test_entries_are_the_single_counts(self, n, k, m, p):
        row = h_composition_row(n, k, m, p)
        assert len(row) == k + 1
        assert all(type(value) is int for value in row)
        assert row == [h_composition(n, j, m, p) for j in range(k + 1)]

    def test_zero_past_n(self):
        # of the three 2-subsets of 1..3, {1, 3} is at the forbidden distance 2
        row = h_composition_row(3, 6, 2, 1)
        assert row == [1, 3, 2, 0, 0, 0, 0]
        assert tuple(row) == count_brute_row(count_query("line", 3, 6, 2, 1))

    def test_line_counts_read_rows_with_identity_conventions(self):
        h = _line_counts(5)
        for m, p in product(range(1, 4), range(1, 3)):
            for n in range(-3, 14):
                for k in range(-1, 6):
                    assert h(n, k, m, p) == h_for_identity(n, k, m, p), (n, k, m, p)

    @pytest.mark.parametrize(
        "n,k,m,p", [(5, 2, 0, 1), (5, 2, 1, 0), (5, -1, 1, 1), (-1, 2, 1, 1)]
    )
    def test_rejects_what_the_single_count_rejects(self, n, k, m, p):
        with pytest.raises(ValueError) as single:
            h_composition(n, k, m, p)
        with pytest.raises(ValueError, match=f"^{single.value}$"):
            h_composition_row(n, k, m, p)


class TestHClosedForms:
    def test_values(self):
        assert h_closed_1(6, 2, 2, 1) == 11
        assert h_closed_2(6, 2, 2, 1) == 11
        assert h_closed_3(6, 2, 2, 1) == 11

    def test_m1_reduces_to_kaplansky(self):
        assert h_closed_1(8, 2, 1, 2) == binom_nat(6, 2) == 15

    def test_printed_third_variant_is_wrong_here(self):
        assert h_closed_3_value(6, 2, 2, 1, "printed") == 17
        assert h_closed_3_value(6, 2, 2, 1, "corrected") == 11

    def test_agree_with_composition_on_range(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(5):
                for n in range(max(0, p * m * (k - 1)), 18):
                    expected = h_composition(n, k, m, p)
                    assert h_closed_1(n, k, m, p) == expected
                    assert h_closed_2(n, k, m, p) == expected
                    if k >= 1:
                        assert h_closed_3(n, k, m, p) == expected

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            h_closed_1(1, 2, 2, 1)
        with pytest.raises(ValueError):
            h_closed_2(3, 3, 2, 1)
        with pytest.raises(ValueError):
            h_closed_3(6, 0, 2, 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            h_closed_3(6, 2, 2, 1, variant="fixed")


class TestGClosed:
    def test_paper_example(self):
        assert g_closed(5, 2, 2, 1) == 5

    def test_nine_circle(self):
        assert g_closed(9, 2, 2, 1) == 27

    @pytest.mark.parametrize("n,m,p", [(3, 1, 1), (8, 2, 3), (20, 3, 2)])
    def test_single_selection(self, n, m, p):
        assert g_closed(n, 1, m, p) == n

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            g_closed(4, 2, 2, 1)
        with pytest.raises(ValueError):
            g_closed(0, 0, 1, 1)

    def test_always_integral(self):
        for m, p in product(range(1, 4), range(1, 4)):
            for k in range(5):
                for n in range(m * p * k + 1, 40):
                    value = g_closed(n, k, m, p)
                    assert value >= 0
                    assert Fraction(n, n - p * k) * binom_nat(n - p * k, k) == value


class TestGFromH:
    def test_six_circle_term_by_term(self):
        # H(4,2) + 2*H(2,1) + H(0,0) = 4 + 4 + 1
        assert h_composition(4, 2, 2, 1) == 4
        assert h_composition(2, 1, 2, 1) == 2
        assert g_from_h(6, 2, 2, 1) == 9

    def test_boundary_needs_empty_selection_convention(self):
        # at n = m*p*k + 1 the j = k term is H(-1, 0), which must count 1
        assert g_from_h(5, 2, 2, 1) == 5
        assert h_for_identity(-1, 0, 2, 1) == 1
        # under the blanket "zero for n < 0" reading the sum would be 4
        literal = sum(
            binom_nat(2, j)
            * 1**j
            * (h_composition(5 - 2 - 2 * j, 2 - j, 2, 1) if 5 - 2 - 2 * j >= 0 else 0)
            for j in range(3)
        )
        assert literal == 4

    @pytest.mark.parametrize("n,m,p", [(1, 1, 1), (9, 2, 2), (14, 3, 1)])
    def test_empty_selection(self, n, m, p):
        assert g_from_h(n, 0, m, p) == 1

    def test_matches_closed_form_on_range(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for k in range(4):
                for n in range(m * p * k + 1, 22):
                    assert g_from_h(n, k, m, p) == g_closed(n, k, m, p)

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            g_from_h(4, 2, 2, 1)


class TestGComposition:
    def test_empty_circle(self):
        assert (g_composition(0, 0, 2, 1), g_composition(0, 2, 2, 1)) == (1, 0)

    def test_separation_longer_than_the_circle(self):
        # m >= n: no two positions are m apart, so every k-subset counts
        assert g_composition(7, 3, 10, 1) == comb(7, 3) == 35

    def test_window_erratum_witness(self):
        # {1,4,7} and its two rotations on the 9-circle at (m, p) = (2, 2)
        assert g_composition(9, 3, 2, 2) == 3

    def test_matches_oracle_on_the_full_small_grid(self):
        for m, p, n in product(range(1, 7), range(1, 5), range(27)):
            row = count_brute_row(count_query("circle", n, 11, m, p))
            assert [g_composition(n, k, m, p) for k in range(12)] == list(row), (
                n, m, p,
            )

    def test_matches_closed_form_at_large_n(self):
        rng = random.Random(7)
        for _ in range(60):
            m, p, k = rng.randint(1, 6), rng.randint(1, 4), rng.randint(0, 40)
            n = m * p * k + 1 + rng.randint(0, 4000)
            assert g_composition(n, k, m, p) == g_closed(n, k, m, p), (n, k, m, p)

    def test_rejects_bad_args(self):
        for args in [(5, -1, 2, 1), (-1, 2, 2, 1), (5, 2, 0, 1), (5, 2, 2, 0)]:
            with pytest.raises(ValueError):
                g_composition(*args)


class TestRoutesAgree:
    """Every count route equals the others and the oracle wherever its
    precondition holds; ``test_line_routes`` and ``test_circle_routes`` take
    the routes from ``counting.ROUTES``.

    ``h_series`` and ``h_closed_1`` are the same sum term by term, both
    ``[y^k] (1+y)**(n+p*m+m-p*k-1) * (1+(p+1)*y)**(-(m-1))``, so their
    agreement checks nothing; the line closed forms are checked by
    ``h_composition``, the recurrence and the oracle.  The ``*_in_range``
    tests draw n as an offset above the range bound, so every draw is in
    range, up to k = 120.
    """

    params = st.integers(1, 4), st.integers(1, 4), st.integers(0, 12)

    @staticmethod
    def check_routes(topology, in_range, n, k, m, p):
        # every ``ROUTES`` entry of the topology that applies, and the oracle
        expected = count_brute(count_query(topology, n, k, m, p), cap=200)
        for method, name in ROUTES[topology].items():
            if method in ("composition", "recurrence") or (
                in_range and (k >= 1 or method != "closed3")
            ):
                assert getattr(counting, name)(n, k, m, p) == expected, method

    @given(st.integers(0, 200), *params)
    @settings(max_examples=150, deadline=None)
    def test_line_routes(self, n, m, p, k):
        self.check_routes("line", line_in_range(n, k, m, p), n, k, m, p)

    @given(st.integers(0, 32), *params)
    @settings(max_examples=150, deadline=None)
    def test_line_composition_matches_oracle(self, n, m, p, k):
        assert h_composition(n, k, m, p) == count_brute(
            count_query("line", n, k, m, p)
        )

    @given(st.integers(0, 200), *params)
    @settings(max_examples=150, deadline=None)
    def test_circle_routes(self, n, m, p, k):
        self.check_routes("circle", circle_in_range(n, k, m, p), n, k, m, p)
        if circle_in_range(n, k, m, p):
            assert g_from_h(n, k, m, p) == g_composition(n, k, m, p)

    def test_recurrence_at_a_large_point(self):
        assert h_recurrence(3000, 50, 3, 2) == h_closed_1(3000, 50, 3, 2)

    in_range = st.integers(1, 4), st.integers(1, 4), st.integers(0, 120), st.integers(0, 300)

    @given(*in_range)
    @settings(max_examples=40, deadline=None)
    def test_line_formulas_in_range(self, m, p, k, offset):
        n = max(0, p * m * (k - 1)) + offset
        value = h_composition(n, k, m, p)
        routes = [h_closed_1, h_closed_2, h_series] + [h_closed_3] * (k >= 1)
        assert [route(n, k, m, p) for route in routes] == [value] * len(routes)

    @given(*in_range)
    @settings(max_examples=40, deadline=None)
    def test_circle_formulas_in_range(self, m, p, k, offset):
        n = m * p * k + 1 + offset
        value = g_composition(n, k, m, p)
        assert [g_closed(n, k, m, p), g_series(n, k, m, p)] == [value, value]


class TestLargeK:
    """The formula routes take O(k) big-int steps, so k = 1000 is quick; the
    line recurrence, O(k^2) steps, is checked at k = 400."""

    def test_line_routes_agree(self):
        n, k, m, p = 10**6 + 6 * 999, 1000, 3, 2
        values = [route(n, k, m, p) for route in (h_closed_1, h_closed_2, h_closed_3, h_series)]
        assert all(type(value) is int for value in values)
        assert values == [values[0]] * 4

    def test_circle_routes_agree(self):
        n, k, m, p = 10**6, 1000, 3, 2
        value = g_series(n, k, m, p)
        assert type(value) is int and value == g_closed(n, k, m, p)

    def test_line_recurrence_at_k_400(self):
        # p + 1 seed products and O(k^2) row steps: well under a second
        assert h_recurrence(10**5, 400, 3, 2) == h_closed_1(10**5, 400, 3, 2)
