"""Tests for the truncated power-series engine and the series-based counts."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets.binomials import binom_gen
from sepsets.counting import g_closed, h_composition
from sepsets.oracle import count_brute
from sepsets.counting import count_query, g_series, h_series
from sepsets.series import (
    PowerSeries,
    binomial_coeffs,
    coefficient,
    kernel_coefficient,
    phi_residue,
    power_product,
    truncated_product,
)

F = Fraction


class TestBinomialSeries:
    """The binomial series (1 + c*x)**a, as ``binomial_coeffs`` builds it."""

    def test_square(self):
        assert binomial_coeffs(2, 1, 3) == [1, 2, 1, 0]

    def test_geometric(self):
        assert binomial_coeffs(-1, 1, 3) == [1, -1, 1, -1]

    def test_negative_cube_with_scale(self):
        f = binomial_coeffs(-3, 2, 2)
        assert f == [1, -6, 24]
        # multiplying by the inverse kernel must give 1 up to the order
        assert truncated_product(f, binomial_coeffs(3, 2, 2), 2) == [1, 0, 0]

    def test_coefficients_are_binom_gen(self):
        for a in range(-4, 5):
            for c in range(-3, 4):
                f = binomial_coeffs(a, c, 6)
                assert f == [binom_gen(a, j) * c**j for j in range(7)]
        a, c = F(5, 3), F(-2, 7)
        f = binomial_coeffs(5 * 7, -2 * 3, 6, 21)
        for j in range(7):
            assert f[j] == binom_gen(a, j) * c**j * 21 ** (3 * j)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            binomial_coeffs(2, 1, -1)

    def test_integer_parameters_stay_int(self):
        f = truncated_product(binomial_coeffs(-4, 3, 6), [1, 5], 6)
        assert all(type(c) is int for c in f)
        g = truncated_product(
            [binom_gen(F(-4), j) * F(3) ** j for j in range(7)], [F(1), F(5)], 6
        )
        assert f == g


class TestCoefficient:
    def test_reads_one_coefficient_of_the_product(self):
        a, b = [1, 2, 3], [4, 5, 6, 7]
        product = truncated_product(a, b, 6)
        assert [coefficient(a, b, k) for k in range(7)] == product

    def test_short_factors(self):
        assert coefficient([1, -1], [1, 1], 1) == 0
        assert coefficient([5], [1, 2, 3], 2) == 15
        assert coefficient([1, 2], [3], 2) == 0
        assert coefficient([], [1], 0) == 0

    def test_binomial_coeffs_is_the_series(self):
        for a, c in [(7, 1), (-3, 2), (0, 4)]:
            expected = [binom_gen(a, j) * c**j for j in range(7)]
            assert binomial_coeffs(a, c, 6) == expected
        # rational parameters go through their common denominator d
        for a, c in [(F(5, 3), F(-2, 7)), (F(-1, 2), F(3, 4)), (F(7), F(-1, 5))]:
            d = a.denominator * c.denominator
            scaled = binomial_coeffs(int(a * d), int(c * d), 6, d)
            assert scaled == [binom_gen(a, j) * c**j * d ** (3 * j) for j in range(7)]

    def test_binomial_coeffs_past_a_nonnegative_upper_index(self):
        assert binomial_coeffs(2, 3, 4) == [1, 6, 9, 0, 0]
        with pytest.raises(ValueError):
            binomial_coeffs(2, 1, -1)

    @given(
        st.integers(-40, 40),
        st.integers(-6, 6),
        st.integers(1, 12),
        st.integers(0, 12),
    )
    @example(a=-7, c=0, d=5, order=4)
    @example(a=3, c=2, d=12, order=0)
    @example(a=-1, c=-5, d=12, order=12)
    @settings(max_examples=200)
    def test_binomial_coeffs_is_the_scaled_definition(self, a, c, d, order):
        # int numerators a, c over d: entry j is d**(3j) * binom(a/d, j) * (c/d)**j
        coeffs = binomial_coeffs(a, c, order, d)
        assert len(coeffs) == order + 1
        assert all(type(x) is int for x in coeffs)
        expected = [
            binom_gen(F(a, d), j) * F(c, d) ** j * d ** (3 * j)
            for j in range(order + 1)
        ]
        assert coeffs == expected

    @given(
        st.integers(-40, 40),
        st.integers(-6, 6),
        st.integers(1, 12),
        st.lists(st.integers(-9, 9), min_size=1, max_size=12),
    )
    @example(a=-7, c=0, d=5, b=[3, 1, 4])
    @example(a=4, c=3, d=1, b=[2])
    @settings(max_examples=200)
    def test_kernel_coefficient_is_one_pass_of_coefficient(self, a, c, d, b):
        k = len(b) - 1
        value = kernel_coefficient(a, c, b, k, d)
        assert type(value) is int
        assert value == coefficient(binomial_coeffs(a, c, k, d), b, k)
        # the definition, read without either helper
        assert value == sum(
            binom_gen(F(a, d), j) * F(c, d) ** j * d ** (3 * j) * b[k - j]
            for j in range(k + 1)
        )

    def test_fraction_kernels_are_refused(self):
        # the true values, 11/8 and [1, 1/2, -1/8], are not what ``//`` gives
        with pytest.raises(TypeError):
            kernel_coefficient(F(1, 2), 1, [1, 1, 1], 2)
        with pytest.raises(TypeError):
            binomial_coeffs(F(1, 2), 1, 2)
        with pytest.raises(TypeError):
            binomial_coeffs(1, 0.5, 2)
        with pytest.raises(TypeError):
            kernel_coefficient(1, 1, [1, 1], 1, F(2))
        # the same kernel as numerators over d = 2: with b[i] scaled by
        # d**(3i) as well, the value is d**(3k) times the true one
        assert F(kernel_coefficient(1, 2, [1, 8, 64], 2, 2), 2**6) == F(11, 8)
        assert binomial_coeffs(1, 2, 2, 2) == [1, 8 * F(1, 2), 64 * F(-1, 8)]

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_is_refused(self, d):
        with pytest.raises(ValueError, match=rf"^need d >= 1, got d={d}$"):
            binomial_coeffs(3, 1, 2, d)
        with pytest.raises(ValueError, match=rf"^need d >= 1, got d={d}$"):
            kernel_coefficient(3, 1, [1, 1, 1], 2, d)


class TestPowerProduct:
    rows = st.lists(st.integers(-5, 5), min_size=1, max_size=6)
    factors = st.lists(st.tuples(rows, st.integers(1, 9)), min_size=1, max_size=4)

    @given(
        factors, st.integers(0, 12), st.sampled_from([coefficient, truncated_product])
    )
    @example(factors=[([1, 1], 1)], k=0, read=coefficient)
    @example(factors=[([1, 2, 1], 9), ([3], 1)], k=12, read=truncated_product)
    @settings(max_examples=300, deadline=None)
    def test_is_the_left_to_right_product(self, factors, k, read):
        total = [1]
        for row, count in factors:
            for _ in range(count):
                total = truncated_product(total, row, k)
        expected = total[k] if read is coefficient else total
        assert power_product(factors, k, read) == expected


class TestMulAndCoeff:
    def test_difference_of_squares(self):
        f = PowerSeries([1, 1, 0]) * PowerSeries([1, -1, 0])
        assert f.coeffs == (1, 0, -1)

    def test_int_coefficients_stay_int(self):
        f = PowerSeries([1, -12, 96]) * PowerSeries([1, 5, 0])
        assert f.coeffs == (1, -7, 36)
        assert all(type(c) is int for c in f.coeffs)
        assert f == PowerSeries([F(1), F(-12), F(96)]) * PowerSeries([F(1), F(5), F(0)])

    def test_one_is_identity(self):
        f = PowerSeries(binom_gen(F(4, 3), j) * 2**j for j in range(6))
        assert f * PowerSeries([1, 0, 0, 0, 0, 0]) == f

    @pytest.mark.parametrize(
        "a,b",
        [(F(1), F(2)), (F(-1, 2), F(5, 3)), (F(7), F(-7)), (F(0), F(3, 4))],
    )
    def test_exponent_law(self, a, b):
        lhs = PowerSeries(binom_gen(a, j) for j in range(7)) * PowerSeries(
            binom_gen(b, j) for j in range(7)
        )
        assert lhs == PowerSeries(binom_gen(a + b, j) for j in range(7))

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            PowerSeries([1, 1, 0, 0]) * PowerSeries([1, 1, 0, 0, 0])

    def test_coeff_examples(self):
        assert PowerSeries(binom_gen(5, j) for j in range(6)).coeff(2) == 10
        f = PowerSeries(binom_gen(F(-3, 5), j) * 4**j for j in range(4))
        assert f.coeff(0) == 1

    def test_coeff_rejects_out_of_range(self):
        f = PowerSeries([1, 0, 0, 0])
        with pytest.raises(ValueError):
            f.coeff(4)
        with pytest.raises(ValueError):
            f.coeff(-1)

    def test_quotient_coefficient(self):
        # x^2 coefficient of (1+x)^7 / (1+2x) is 21 - 14 + 4 = 11
        f = PowerSeries([1, 7, 21]) * PowerSeries([1, -2, 4])
        assert f.coeff(2) == 11

    small_series = st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=4,
        max_size=4,
    ).map(lambda vals: PowerSeries(tuple(vals)))

    @given(small_series, small_series)
    @settings(max_examples=60)
    def test_commutative(self, f, g):
        assert f * g == g * f

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)


class TestHSeries:
    def test_line_count(self):
        assert h_series(6, 2, 2, 1) == 11  # brute-force count on a 6-line

    def test_empty_selection(self):
        for n, m, p in [(0, 1, 1), (5, 2, 3), (17, 3, 2)]:
            assert h_series(n, 0, m, p) == 1

    def test_m1_reduction(self):
        assert h_series(8, 2, 1, 2) == 15

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            h_series(1, 2, 2, 1)
        with pytest.raises(ValueError):
            h_series(5, 2, 0, 1)
        with pytest.raises(ValueError):
            h_series(5, -1, 2, 1)

    def test_matches_composition_sum_on_grid(self):
        for m in range(1, 4):
            for p in range(1, 3):
                for k in range(5):
                    for n in range(p * m * (k - 1), 18):
                        if n < 0:
                            continue
                        assert h_series(n, k, m, p) == h_composition(n, k, m, p)


class TestGSeries:
    def test_circle_counts(self):
        assert g_series(5, 2, 2, 1) == 5
        assert g_series(6, 2, 2, 1) == 9

    @pytest.mark.parametrize("n,m,p", [(4, 1, 1), (7, 2, 2), (12, 3, 1)])
    def test_single_selection(self, n, m, p):
        assert g_series(n, 1, m, p) == n

    def test_rejects_below_range(self):
        with pytest.raises(ValueError):
            g_series(4, 2, 2, 1)

    def test_matches_closed_form_on_grid(self):
        for m in range(1, 4):
            for p in range(1, 3):
                for k in range(4):
                    for n in range(m * p * k + 1, 22):
                        assert g_series(n, k, m, p) == g_closed(n, k, m, p)


class TestPhiResidue:
    def test_examples(self):
        assert phi_residue(2, 1, 2) == 3
        assert phi_residue(F(7, 5), F(-3), 0) == 1
        assert phi_residue(1, 1, 1) == 1

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            phi_residue(1, 1, -1)

    # int and Fraction parameters; a = lam + mu*k - 1 runs negative
    params = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=12))

    @given(params, params, st.integers(0, 25))
    @example(lam=-3, mu=2, k=0)
    @example(lam=F(-7, 2), mu=F(1, 3), k=0)
    @example(lam=-5, mu=-1, k=4)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_binomial_list(self, lam, mu, k):
        # the two binomials read directly equal the whole product's x^k
        a = lam + mu * k - 1
        expected = coefficient([binom_gen(a, j) for j in range(k + 1)], [1, 1 - mu], k)
        assert phi_residue(lam, mu, k) == expected

    def test_matches_weighted_binomial_randomized(self):
        rng = random.Random(1207)
        checked = 0
        while checked < 200:
            lam = F(rng.randint(-20, 20), rng.randint(1, 20))
            mu = F(rng.randint(-20, 20), rng.randint(1, 20))
            k = rng.randint(0, 8)
            if lam + mu * k == 0:
                continue
            checked += 1
            expected = lam / (lam + mu * k) * binom_gen(lam + mu * k, k)
            assert phi_residue(lam, mu, k) == expected

    def test_oracle_sanity(self):
        # the circle kernel is the same residue with lam = n, mu = -p
        for n, k, m, p in [(7, 2, 2, 1), (9, 2, 2, 1), (13, 3, 1, 2)]:
            value = phi_residue(n, -p, k)
            assert value == count_brute(count_query("circle", n, k, m, p))
