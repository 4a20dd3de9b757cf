"""Tests for the brute-force oracle: predicates, counting and enumeration."""

import hashlib
import tracemalloc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets.binomials import binom_nat
from sepsets.counting import (
    SeparationParams,
    count_query,
    g_closed,
    h_closed_1,
    h_composition,
)
from sepsets.oracle import (
    EnumerationCapError,
    _forbidden,
    _order,
    count_brute,
    count_brute_row,
    is_separate_circle,
    is_separate_line,
    kernel_backend,
    list_brute,
)


class TestPredicates:
    def test_line_gap_of_one_object_forbidden(self):
        params = SeparationParams(2, 1)
        assert not is_separate_line((1, 3), params)

    def test_line_adjacent_allowed_for_m2(self):
        assert is_separate_line((1, 2), SeparationParams(2, 1))

    @pytest.mark.parametrize("positions", [(), (4,)])
    def test_trivial_subsets(self, positions):
        params = SeparationParams(3, 2)
        assert is_separate_line(positions, params)
        assert is_separate_circle(positions, 9, params)

    def test_circle_checks_both_arcs(self):
        params = SeparationParams(2, 1)
        # one arc between positions 1 and 3 holds exactly one object
        assert not is_separate_circle((1, 3), 5, params)
        # wrap-around pair: arcs hold 0 and 3 objects, both allowed
        assert is_separate_circle((1, 5), 5, params)

    def test_validation(self):
        params = SeparationParams(1, 1)
        with pytest.raises(ValueError):
            is_separate_line((3, 2), params)
        with pytest.raises(ValueError):
            is_separate_line((0, 2), params)
        with pytest.raises(ValueError):
            is_separate_circle((1, 7), 5, params)

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_pairs_follow_the_literal_definition(self, topology):
        # a pair conflicts exactly when some arc between the two holds
        # m-1, 2m-1, ..., pm-1 objects; the line has only the inner arc
        for n, m, p in product(range(1, 15), range(1, 6), range(1, 5)):
            params = SeparationParams(m, p)
            gaps = {i * m - 1 for i in range(1, p + 1)}
            for a, b in combinations(range(1, n + 1), 2):
                between = [b - a - 1]
                if topology == "circle":
                    between.append(n - (b - a) - 1)
                    separate = is_separate_circle((a, b), n, params)
                else:
                    separate = is_separate_line((a, b), params)
                assert separate == gaps.isdisjoint(between), (n, m, p, a, b)

    def test_huge_p_answers_at_once(self):
        # only the multiples of m below n can conflict, so p = 10**12 is as
        # cheap as p = n
        huge = 10**12
        assert not is_separate_line((1, 2), SeparationParams(1, huge))
        assert is_separate_line((1, 3), SeparationParams(5, huge))
        assert not is_separate_circle((1, 3), 5, SeparationParams(2, huge))
        for topology, m, k in product(("line", "circle"), (1, 2, 3), (2, 3)):
            assert list(list_brute(count_query(topology, 14, k, m, huge))) == list(
                list_brute(count_query(topology, 14, k, m, 14))
            )


class TestCountAndList:
    def test_paper_circle_example(self):
        q = count_query("circle", 5, 2, 2, 1)
        assert count_brute(q) == 5
        assert set(list_brute(q)) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}

    def test_line_no_adjacent(self):
        assert count_brute(count_query("line", 5, 2, 1, 1)) == 6

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_empty_selection(self, topology):
        q = count_query(topology, 7, 0, 2, 1)
        assert count_brute(q) == 1
        assert list(list_brute(q)) == [()]

    def test_k_exceeds_n(self):
        assert count_brute(count_query("line", 3, 4, 1, 1)) == 0

    def test_list_is_lexicographic_and_matches_count(self):
        for topology in ("line", "circle"):
            for m, p, k, n in product((1, 2), (1, 2), (2, 3), (6, 9)):
                q = count_query(topology, n, k, m, p)
                subsets = list(list_brute(q))
                assert subsets == sorted(subsets)
                assert len(set(subsets)) == len(subsets)
                assert len(subsets) == count_brute(q)

    def test_list_agrees_with_predicates(self):
        params = SeparationParams(2, 2)
        q = count_query("circle", 9, 3, 2, 2)
        expected = [
            c
            for c in combinations(range(1, 10), 3)
            if is_separate_circle(c, 9, params)
        ]
        assert list(list_brute(q)) == expected

    def test_list_order_is_pinned(self):
        # sha256 of every subset listed over m <= 4, p <= 3, n <= 14, k <= 6
        # on both topologies, one header line per query and one line per
        # subset, taken from the listing before the pair rule was shared
        digest = hashlib.sha256()
        for topology in ("line", "circle"):
            for m, p, n, k in product(range(1, 5), range(1, 4), range(15), range(7)):
                digest.update(f"{topology} n={n} k={k} m={m} p={p}\n".encode())
                for subset in list_brute(count_query(topology, n, k, m, p)):
                    digest.update((",".join(map(str, subset)) + "\n").encode())
        assert digest.hexdigest() == (
            "40195a340b78f7282a4571bd89c1267ac3581af4e07627157b27dba86966efa0"
        )

    def test_cap(self):
        q = count_query("line", 33, 2, 1, 1)
        with pytest.raises(EnumerationCapError) as err:
            count_brute(q)
        assert err.value.n == 33
        assert count_brute(q, cap=40) == binom_nat(32, 2)
        with pytest.raises(EnumerationCapError):
            list(list_brute(q))


class TestCountMatchesEnumeration:
    """The transfer-matrix scan against the independent DFS enumeration and
    the closed forms."""

    def test_backend_is_python(self):
        assert kernel_backend() == "python"

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_small_grid(self, topology):
        # n runs through n <= p*m and n = j*m, where the wrap and window
        # masks of the circle scan overlap
        for m, p, k, n in product(range(1, 7), range(1, 4), range(7), range(19)):
            q = count_query(topology, n, k, m, p)
            assert count_brute(q) == len(list(list_brute(q))), (n, k, m, p)

    @pytest.mark.parametrize("topology", ["line", "circle"])
    @pytest.mark.parametrize("m", [12, 16, 20, 24, 32, 40])
    def test_long_separations_against_enumeration(self, topology, m):
        for p, k in product(range(1, 4), range(4)):
            q = count_query(topology, 32, k, m, p)
            assert count_brute(q) == len(list(list_brute(q))), (k, m, p)

    @staticmethod
    def most_states(topology, n, m, p):
        # the scan's state set, walked with the oracle's own order and masks
        diffs = sorted(_forbidden(n, m, p, topology == "circle"))
        states, most = {0}, 1
        for _, ahead in _order(n, diffs):
            states = {b >> 1 for b in states} | {
                (b | ahead) >> 1 for b in states if not b & 1
            }
            most = max(most, len(states))
        return most

    @staticmethod
    def state_bound(topology, n, m, p):
        # p' + 1 on the line, (p' + 1)^2 on the circle, p' = min(p, (n-1)//m)
        reach = min(p, (n - 1) // m) + 1
        return reach if topology == "line" else reach * reach

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_states_stay_within_the_bound(self, topology):
        for n, p in product(range(1, 41), range(1, 7)):
            for m in range(1, n + 2):
                most = self.most_states(topology, n, m, p)
                assert most <= self.state_bound(topology, n, m, p), (n, m, p, most)

    @pytest.mark.parametrize(
        "topology, n, m, p, most",
        [
            ("circle", 1000, 5, 4, 25),
            ("circle", 2000, 7, 3, 16),
            ("circle", 1500, 1, 6, 49),
            ("line", 2000, 3, 2, 3),
        ],
    )
    def test_state_bound_is_reached_at_large_n(self, topology, n, m, p, most):
        assert self.most_states(topology, n, m, p) == most
        assert self.state_bound(topology, n, m, p) == most

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_memory_grows_linearly_when_every_pair_conflicts(self, topology):
        # at m = 1, p = n every pair conflicts, but the scan keeps O(n) ints
        # for its n - 1 differences: the traced peak about doubles with n,
        # where a peak quadratic in n would grow about 4x
        def peak(n):
            tracemalloc.start()
            try:
                count_brute_row(count_query(topology, n, 2, 1, n), cap=n)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-call allocations stay out of the comparison
        assert peak(300) <= 3 * peak(150)

    def test_circle_near_cap(self):
        for m, p, k, n in product(range(1, 4), range(1, 4), range(9), range(25, 33)):
            q = count_query("circle", n, k, m, p)
            if n >= m * p * k + 1:
                expected = g_closed(n, k, m, p)
            else:
                expected = len(list(list_brute(q)))
            assert count_brute(q) == expected, (n, k, m, p)

    @pytest.mark.parametrize("m", [12, 16, 20, 40])
    @pytest.mark.parametrize("p", [1, 2])
    def test_long_separations_at_the_cap(self, m, p):
        # p*m reaches past n = 32, where a scan over raw p*m-bit windows
        # would need up to 2^32 states
        n = 32
        for k in (0, 1, 2, 3, 5, 8, 16):
            line = count_brute(count_query("line", n, k, m, p))
            circle = count_brute(count_query("circle", n, k, m, p))
            assert line == h_composition(n, k, m, p), (k, m, p)
            if m > n:
                assert line == circle == comb(n, k), (k, m, p)
            if n >= m * p * k + 1:
                assert circle == g_closed(n, k, m, p), (k, m, p)

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_row_entries_are_the_single_counts(self, topology):
        for m, p, n in product(range(1, 4), range(1, 3), (0, 1, 7, 12, 20)):
            row = count_brute_row(count_query(topology, n, 8, m, p))
            assert len(row) == 9
            assert list(row) == [
                count_brute(count_query(topology, n, c, m, p)) for c in range(9)
            ], (n, m, p)

    def test_row_is_capped(self):
        with pytest.raises(EnumerationCapError):
            count_brute_row(count_query("circle", 33, 2, 1, 1))

    @given(
        st.integers(0, 200), st.integers(0, 12), st.integers(1, 6), st.integers(1, 4)
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_far_past_the_default_cap(self, n, k, m, p):
        if n >= p * m * (k - 1):
            line = count_brute(count_query("line", n, k, m, p), cap=200)
            assert line == h_closed_1(n, k, m, p)
        if n >= m * p * k + 1:
            circle = count_brute(count_query("circle", n, k, m, p), cap=200)
            assert circle == g_closed(n, k, m, p)

    def test_order_is_a_breadth_first_search_by_index(self):
        # the 5-circle with m = 2, p = 1 is the 5-cycle 0-2-4-1-3-0
        # and each position's mask marks its later neighbours by distance
        steps = list(_order(5, sorted(_forbidden(5, 2, 1, True))))
        assert steps == [(0, 0b110), (2, 0b100), (3, 0b100), (4, 0b10), (1, 0)]
        # the 4-line with m = 3 joins only 0-3; isolated positions follow
        assert [v for v, _ in _order(4, [3])] == [0, 3, 1, 2]

    def test_order_is_pinned(self):
        # sha256 of every order and mask over both topologies, n <= 40,
        # 1 <= m <= n + 1 and p <= 6, one line per conflict graph, taken
        # from the order that found each position's neighbours by bisecting
        # a list of signed offsets
        digest = hashlib.sha256()
        for circular, n, p in product((False, True), range(41), range(1, 7)):
            for m in range(1, n + 2):
                steps = list(_order(n, sorted(_forbidden(n, m, p, circular))))
                digest.update(f"{steps}\n".encode())
        assert digest.hexdigest() == (
            "cb1c420f622fb09ab53727b822adfd2e06042ea41eccc7afffb7a47841f38f78"
        )

    @pytest.mark.parametrize("topology", ["line", "circle"])
    def test_edge_cases(self, topology):
        assert count_brute(count_query(topology, 0, 0, 1, 1)) == 1
        assert count_brute(count_query(topology, 0, 1, 1, 1)) == 0
        assert count_brute(count_query(topology, 4, 5, 2, 1)) == 0


class TestCircularWindowErratum:
    """The circular vanishing window G(n+k, k) = 0 for n < (i+1)*m*p is false
    as printed at (m, p, k, n) = (2, 2, 3, 6); these pin the true values."""

    def test_nine_circle_admits_three_triangles(self):
        q = count_query("circle", 9, 3, 2, 2)
        assert count_brute(q) == 3
        assert list(list_brute(q)) == [(1, 4, 7), (2, 5, 8), (3, 6, 9)]
        # every gap of the triangle is 2 or 5 objects, neither 1 nor 3
        assert is_separate_circle((1, 4, 7), 9, SeparationParams(2, 2))

    def test_adjacent_window_points_do_vanish(self):
        assert count_brute(count_query("circle", 8, 3, 2, 2)) == 0
        assert count_brute(count_query("circle", 10, 3, 2, 2)) == 0


class TestCountingLaws:
    def test_pair_count_complement_line(self):
        for m, p in product(range(1, 4), range(1, 4)):
            for n in range(2, 20):
                expected = binom_nat(n, 2) - sum(
                    n - d for d in range(m, p * m + 1, m) if d < n
                )
                assert count_brute(count_query("line", n, 2, m, p)) == expected

    def test_pair_count_complement_circle(self):
        for m, p in product(range(1, 4), range(1, 3)):
            for n in range(2 * p * m + 1, 24):
                expected = binom_nat(n, 2) - p * n
                assert count_brute(count_query("circle", n, 2, m, p)) == expected

    def test_monotone_in_p(self):
        for topology in ("line", "circle"):
            for m, k, n in product((1, 2, 3), (2, 3), (8, 13)):
                counts = [
                    count_brute(count_query(topology, n, k, m, p))
                    for p in (1, 2, 3)
                ]
                assert counts == sorted(counts, reverse=True)

    def test_circle_without_wraparound_is_line_separate(self):
        for m, p, k, n in product((1, 2), (1, 2), (2, 3), (8, 11)):
            params = SeparationParams(m, p)
            q = count_query("circle", n, k, m, p)
            for subset in list_brute(q):
                near_wrap = any(
                    n - (b - a) <= p * m
                    for a in subset
                    for b in subset
                    if a < b
                )
                if not near_wrap:
                    assert is_separate_line(subset, params)
