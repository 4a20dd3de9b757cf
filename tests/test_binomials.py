"""Tests for the two binomial conventions and the falling factorial."""

from fractions import Fraction
from math import comb, factorial, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets import binomials
from sepsets.binomials import binom_gen, binom_nat, falling_factorial


class TestBinomNat:
    def test_basic(self):
        assert binom_nat(5, 2) == 10

    def test_lower_exceeds_upper(self):
        assert binom_nat(3, 5) == 0

    def test_kaplansky_line_value(self):
        # binom(8 - 2*(2-1), 2): the m=1, p=2 line count at n=8, k=2
        assert binom_nat(6, 2) == 15

    @pytest.mark.parametrize("a,k", [(-1, 0), (-1, 2), (-3, 1), (2, -1)])
    def test_zero_outside_counting_range(self, a, k):
        assert binom_nat(a, k) == 0

    @given(st.integers(1, 60), st.integers(0, 60))
    def test_pascal(self, a, k):
        assert binom_nat(a, k) == binom_nat(a - 1, k) + binom_nat(a - 1, k - 1)

    @given(st.integers(0, 60))
    def test_symmetry(self, a):
        for k in range(a + 1):
            assert binom_nat(a, k) == binom_nat(a, a - k)


K0, R = binomials._FACTOR_K, binomials._FACTOR_RATIO


@st.composite
def near_the_rule(draw):
    """(a, k) on both sides of each constant of binom_nat's rule: k' =
    min(k, a - k) near K0, a up to just past R*k', and k below or above a/2."""
    small = draw(st.sampled_from([K0 - 1, K0, K0 + 1]) | st.integers(K0 - 30, K0 + 300))
    a = draw(
        st.sampled_from([R * small, R * small + 1, 2 * small])
        | st.integers(2 * small, R * small + R)
    )
    return a, draw(st.sampled_from([small, a - small]))


class TestFactoredBinomial:
    @settings(max_examples=60, deadline=None)
    @given(near_the_rule())
    def test_equals_math_comb_near_the_rule(self, ak):
        a, k = ak
        assert binom_nat(a, k) == comb(a, k)

    @given(st.integers(2, 2000), st.integers(0, 1000))
    def test_helper_equals_math_comb_below_the_rule(self, a, j):
        # the prime split holds for every isqrt(a) <= k <= a - k, not only
        # where the rule sends binomials to it
        k = isqrt(a) + j % (a // 2 - isqrt(a) + 1)
        assert binomials._binom_factored(a, k) == comb(a, k)

    @pytest.mark.parametrize(
        "a,k,factored",
        [
            (2 * K0 - 2, K0 - 1, False),
            (2 * K0, K0, True),
            (2 * K0 + 2, K0 + 1, True),
            (R * K0, K0, True),
            (R * K0 + 1, K0, False),
            (R * K0, R * K0 - K0, True),
            (R * K0 + 1, R * K0 + 1 - K0, False),
            (4 * K0, 4 * K0 - K0 + 1, False),
            (4 * K0, 0, False),
            (4 * K0, 4 * K0, False),
        ],
    )
    def test_the_rule_picks_the_path(self, monkeypatch, a, k, factored):
        calls = []
        helper = binomials._binom_factored
        monkeypatch.setattr(
            binomials, "_binom_factored", lambda *args: calls.append(args) or helper(*args)
        )
        assert binom_nat(a, k) == comb(a, k)
        assert calls == ([(a, min(k, a - k))] if factored else [])

    @pytest.mark.parametrize(
        "a,k", [(K0, K0 + 1), (R * K0, R * K0 + 1), (-2 * K0, K0), (2 * K0, -K0)]
    )
    def test_zero_outside_counting_range(self, a, k):
        assert binom_nat(a, k) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3000), st.integers(K0, K0 + 200))
    def test_negative_int_upper_past_the_rule(self, a, k):
        value = binom_gen(-a, k)
        assert type(value) is int and value == (-1) ** k * comb(a + k - 1, k)


class TestBinomGen:
    def test_negative_one_upper(self):
        assert binom_gen(-1, 3) == -1
        for j in range(8):
            assert binom_gen(-1, j) == (-1) ** j

    def test_half(self):
        assert binom_gen(Fraction(1, 2), 2) == Fraction(-1, 8)

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_vanishes_on_integer_gap(self, j):
        # a factor of the falling product is zero when a = j - 1 < j
        assert binom_gen(j - 1, j) == 0

    def test_negative_lower_is_zero(self):
        assert binom_gen(Fraction(7, 3), -1) == 0

    def test_k_zero_is_one_for_any_upper(self):
        assert binom_gen(-5, 0) == 1
        assert binom_gen(Fraction(-2, 7), 0) == 1

    @given(st.integers(-40, 40), st.integers(0, 12))
    def test_integer_upper_gives_the_same_int(self, a, k):
        value = binom_gen(a, k)
        assert type(value) is int
        assert value == binom_gen(Fraction(a), k)

    @given(st.integers(0, 40))
    def test_agrees_with_nat_on_counting_range(self, a):
        for k in range(a + 1):
            assert binom_gen(a, k) == binom_nat(a, k)


class TestFallingFactorial:
    def test_basic(self):
        assert falling_factorial(4, 2) == 12

    def test_empty_product(self):
        assert falling_factorial(Fraction(-13, 7), 0) == 1

    def test_half(self):
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            falling_factorial(3, -1)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
        st.integers(0, 10),
    )
    def test_relates_to_binom_gen(self, a, k):
        assert binom_gen(a, k) * factorial(k) == falling_factorial(a, k)

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=40),
        st.integers(0, 12),
    )
    def test_matches_the_fraction_loop(self, a, k):
        # the product built one Fraction factor at a time
        expected = Fraction(1)
        for i in range(k):
            expected *= a - i
        value = falling_factorial(a, k)
        assert value == expected and type(value) is Fraction


class TestFallingProductTree:
    LEAF = binomials._PRODUCT_LEAF

    @pytest.mark.parametrize("k", [0, 1, 2, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 3, 1000])
    @pytest.mark.parametrize("top", [-7, 0, 5, 1016000, -(10**9)])
    @pytest.mark.parametrize("step", [1, 7])
    def test_equals_one_prod(self, top, k, step):
        assert binomials._falling(top, k, step) == prod(range(top, top - k * step, -step))

    def test_a_short_product_is_one_prod_call(self, monkeypatch):
        # every k up to the leaf keeps the single pass it had before the tree
        calls = []
        monkeypatch.setattr(binomials, "prod", lambda r: calls.append(len(r)) or prod(r))
        binomials._falling(1016000, 256, 1)
        assert calls == [256]
        binomials._falling(1016000, 1000, 3)
        assert sum(calls[1:]) == 1000 and max(calls) <= self.LEAF
