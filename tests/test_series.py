"""Tests for the truncated power-series engine and the series-based counts."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets import binomials, counting, series
from sepsets.binomials import binom_gen
from sepsets.counting import g_closed, h_composition
from sepsets.oracle import count_brute
from sepsets.counting import count_query, g_series, h_series
from sepsets.series import (
    PACK_MIN_TERMS,
    PACK_WIDTH_SCALE,
    PowerSeries,
    binomial_product_coefficients,
    coefficient,
    power_product,
    truncated_product,
)

F = Fraction


def schoolbook(a, b, order):
    """[x^t] of the product of a and b for t = 0..order by the definition,
    the sum of a[i] * b[t - i] over every pair, zeros included."""
    return [
        sum(a[i] * b[t - i] for i in range(max(0, t + 1 - len(b)), min(len(a), t + 1)))
        for t in range(order + 1)
    ]


def width_cap(terms):
    """The widest field, in bytes, that ``truncated_product`` packs for
    products with ``terms`` terms: width**2 <= PACK_WIDTH_SCALE * terms."""
    return isqrt(PACK_WIDTH_SCALE * terms)


def packed_calls():
    """A spy on the packed path, for a ``with`` block."""
    return mock.patch.object(series, "_packed_product", wraps=series._packed_product)


def binomial_series(a, c, order, d=1):
    """Coefficients of (1 + (c/d)*x)**(a/d) up to x^order, each scaled by
    d**(3*j): the product with (1 + 0*x)**0."""
    return [binomial_product_coefficients(a, c, 0, 0, j, d)[0] for j in range(order + 1)]


def scaled_definition(a1, c1, a2, c2, j, d):
    """d**(3*j) * [x^j] (1+(c1/d)x)**(a1/d) * (1+(c2/d)x)**(a2/d), summed
    term by term in Fractions; 0 for j < 0."""
    return d ** (3 * j) * sum(
        binom_gen(F(a1, d), i) * F(c1, d) ** i
        * binom_gen(F(a2, d), j - i) * F(c2, d) ** (j - i)
        for i in range(j + 1)
    )


class TestBinomialSeries:
    """The binomial series (1 + c*x)**a, as the product helper reads it."""

    def test_square(self):
        assert binomial_series(2, 1, 3) == [1, 2, 1, 0]

    def test_geometric(self):
        assert binomial_series(-1, 1, 3) == [1, -1, 1, -1]

    def test_negative_cube_with_scale(self):
        f = binomial_series(-3, 2, 2)
        assert f == [1, -6, 24]
        # multiplying by the inverse kernel must give 1 up to the order
        assert truncated_product(f, binomial_series(3, 2, 2), 2) == [1, 0, 0]
        assert [binomial_product_coefficients(-3, 2, 3, 2, j)[0] for j in range(3)] == [1, 0, 0]

    def test_coefficients_are_binom_gen(self):
        for a in range(-4, 5):
            for c in range(-3, 4):
                f = binomial_series(a, c, 6)
                assert f == [binom_gen(a, j) * c**j for j in range(7)]
        a, c = F(5, 3), F(-2, 7)
        f = binomial_series(5 * 7, -2 * 3, 6, 21)
        for j in range(7):
            assert f[j] == binom_gen(a, j) * c**j * 21 ** (3 * j)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match=r"^need k >= 0, got k=-1$"):
            binomial_product_coefficients(2, 1, 0, 0, -1)

    def test_integer_parameters_stay_int(self):
        f = truncated_product(binomial_series(-4, 3, 6), [1, 5], 6)
        assert all(type(c) is int for c in f)
        g = truncated_product(
            [binom_gen(F(-4), j) * F(3) ** j for j in range(7)], [F(1), F(5)], 6
        )
        assert f == g


class TestTruncatedProduct:
    """The schoolbook loop and the packed path give the same coefficients;
    the gate sends only long rows of nonnegative ints with narrow fields to
    the packed path."""

    @st.composite
    def rows_at_the_gate(draw):
        # lengths from just below the cutoff; a field width of one byte,
        # half the cap, the cap or one byte past it, split between the two
        # rows' largest entries; zero runs (all-zero rows at 0 bits); an
        # order below both lengths or past both; squares and tuples
        la = draw(st.integers(PACK_MIN_TERMS - 2, PACK_MIN_TERMS + 30))
        square = draw(st.booleans())
        lb = la if square else draw(st.integers(PACK_MIN_TERMS - 2, 2 * la))
        order = draw(st.one_of(st.integers(0, la + lb), st.integers(la + lb, la + lb + 4)))
        terms = min(la, lb, order + 1)
        cap = width_cap(terms)
        width = draw(st.sampled_from([1, max(1, cap // 2), cap, cap + 1]))
        bits = 8 * width - terms.bit_length()
        high = bits // 2 if square else draw(st.integers(0, bits))

        def row(length, top_bits):
            top = (1 << top_bits) - 1
            entries = draw(st.lists(
                st.one_of(st.just(0), st.integers(0, top)), min_size=length, max_size=length
            ))
            entries[draw(st.integers(0, length - 1))] = top
            return tuple(entries) if as_tuple else entries

        as_tuple = draw(st.booleans())
        a = row(la, high)
        b = a if square else row(lb, bits - high)
        return a, b, order, terms >= PACK_MIN_TERMS and width <= cap

    @given(rows_at_the_gate())
    @example(([0] * 20, [0] * 20, 25, True))
    @example((list(range(PACK_MIN_TERMS)), list(range(PACK_MIN_TERMS)), 40, True))
    @example((list(range(PACK_MIN_TERMS - 1)), list(range(PACK_MIN_TERMS)), 40, False))
    @example((list(range(30)), list(range(30)), PACK_MIN_TERMS - 2, False))
    @example((list(range(30)), list(range(30)), PACK_MIN_TERMS - 1, True))
    @settings(max_examples=400, deadline=None)
    def test_is_the_schoolbook_product(self, case):
        a, b, order, packs = case
        with packed_calls() as packed:
            value = truncated_product(a, b, order)
        assert value == schoolbook(a, b, order)
        assert len(value) == order + 1 and all(type(x) is int for x in value)
        assert packed.call_count == packs

    @given(
        st.lists(st.integers(0, 2**20), min_size=PACK_MIN_TERMS, max_size=40),
        st.sampled_from([F(1, 3), F(4), -1, -(2**70), True, False]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_other_entries_take_the_loop(self, row, entry, data):
        # a Fraction, a negative int or a bool anywhere keeps the loop's values
        other = data.draw(st.sampled_from(["square", "row", "tuple"]))
        row[data.draw(st.integers(0, len(row) - 1))] = entry
        b = {"square": row, "row": row[::-1], "tuple": tuple(row)}[other]
        order = data.draw(st.integers(0, 2 * len(row)))
        with packed_calls() as packed:
            assert truncated_product(row, b, order) == schoolbook(row, b, order)
        assert packed.call_count == 0

    @pytest.mark.parametrize("terms", [64, 300])
    @pytest.mark.parametrize("square", [True, False])
    def test_packed_peak_is_a_few_operand_sizes(self, terms, square):
        # the packed ints, the product, its bytes, the multiplication's own
        # scratch and the output: at fields of the cap's width about 5x the
        # packed operands for a square and 6x otherwise.  (At the cutoff's
        # 16-byte fields each output int's 28-byte header adds about 2x.)
        rng = random.Random(terms)
        width = width_cap(terms)
        bits = 8 * width - terms.bit_length()
        a = [rng.getrandbits(bits // 2) for _ in range(terms)]
        b = a if square else [rng.getrandbits(bits - bits // 2) for _ in range(2 * terms)]
        with packed_calls() as packed:
            assert truncated_product(a, b, len(a) + len(b)) == schoolbook(a, b, len(a) + len(b))
        assert packed.call_args.args[3] == width
        tracemalloc.start()
        try:
            truncated_product(a, b, len(a) + len(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (len(a) + len(b)) * width, peak


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


class TestBinomialProductCoefficients:
    """(g_k, g_(k-1)) of a product of two binomial series over d, read by
    the product's three-term recurrence."""

    @st.composite
    def product_args(draw):
        # upper indices in about +-60, or nonnegative multiples of d below k,
        # which make a series vanish past its exponent; c = 0 included
        d, k = draw(st.integers(1, 12)), draw(st.integers(0, 24))
        uppers = st.one_of(
            st.integers(-60, 60), st.integers(0, max(k - 1, 0)).map(d.__mul__)
        )
        a1, a2 = draw(uppers), draw(uppers)
        c1, c2 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        return a1, c1, a2, c2, k, d

    @given(product_args())
    @example((-7, 3, 40, -2, 0, 1))
    @example((7, 0, -3, 0, 5, 4))
    @example((-50, 0, 11, 4, 12, 1))
    @example((9, -1, 12, 0, 9, 5))
    @example((0, 1, 0, 1, 6, 1))
    @example((30, 2, 45, -3, 20, 3))
    @example((-1, -5, 12, 5, 24, 12))
    @settings(max_examples=200, deadline=None)
    def test_is_the_scaled_definition(self, args):
        a1, c1, a2, c2, k, d = args
        value = binomial_product_coefficients(a1, c1, a2, c2, k, d)
        assert all(type(x) is int for x in value)
        assert value == (
            scaled_definition(a1, c1, a2, c2, k, d),
            scaled_definition(a1, c1, a2, c2, k - 1, d),
        )

    def test_k_zero_is_one_then_zero(self):
        for args in [(3, 1, -4, 2, 1), (0, 0, 0, 0, 1), (-7, 5, 11, -3, 12)]:
            a1, c1, a2, c2, d = args
            assert binomial_product_coefficients(a1, c1, a2, c2, 0, d) == (1, 0)

    def test_vanishes_past_a_nonnegative_upper_index(self):
        # (1+3x)^2 = 1 + 6x + 9x^2
        assert binomial_product_coefficients(2, 3, 0, 0, 2) == (9, 6)
        assert binomial_product_coefficients(2, 3, 0, 0, 3) == (0, 9)
        assert binomial_product_coefficients(2, 3, 0, 0, 4) == (0, 0)
        # (1+x)^2 * (1+2x)^3 has degree 5
        assert binomial_product_coefficients(6, 3, 9, 6, 6, 3) == (0, 8 * 3**15)

    @pytest.mark.parametrize(
        "args",
        [(-7, 3, 40, -2, 1), (30, 2, 45, -3, 3), (-50, 0, 11, 4, 1),
         (6000, 7, -13, 2, 7), (24, -1, 36, 5, 12)],
    )
    def test_large_k_is_the_convolution(self, args):
        # the product of the two series, each read alone, at k past 100
        a1, c1, a2, c2, d = args
        k = 150
        first = binomial_series(a1, c1, k, d)
        second = binomial_series(a2, c2, k, d)
        assert binomial_product_coefficients(a1, c1, a2, c2, k, d) == (
            coefficient(first, second, k),
            coefficient(first, second, k - 1),
        )

    def test_fraction_kernels_are_refused(self):
        # the true value, 11/8, is not what ``//`` gives
        with pytest.raises(TypeError):
            binomial_product_coefficients(F(1, 2), 1, -1, -1, 2)
        with pytest.raises(TypeError):
            binomial_product_coefficients(1, 0.5, 0, 0, 2)
        with pytest.raises(TypeError):
            binomial_product_coefficients(1, 1, 1, F(1, 2), 2)
        with pytest.raises(TypeError):
            binomial_product_coefficients(1, 1, 1, 1, 1, F(2))
        # the same series as numerators over d = 2: (1+x)^(1/2) / (1-x) at
        # x^2, scaled by d**(3k)
        g, _ = binomial_product_coefficients(1, 2, -2, -2, 2, 2)
        assert F(g, 2**6) == F(11, 8)

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_is_refused(self, d):
        with pytest.raises(ValueError, match=rf"^need d >= 1, got d={d}$"):
            binomial_product_coefficients(3, 1, 3, 1, 2, d)
        with pytest.raises(ValueError, match=rf"^need d >= 1, got d={d}$"):
            binomial_product_coefficients(3, 1, 3, 1, 0, d)


class TestPowerProduct:
    # short signed rows, and rows long enough for the packed path
    rows = st.one_of(
        st.lists(st.integers(-5, 5), min_size=1, max_size=6),
        st.lists(st.integers(0, 2**40), min_size=PACK_MIN_TERMS, max_size=PACK_MIN_TERMS + 10),
    )
    factors = st.lists(st.tuples(rows, st.integers(1, 9)), min_size=1, max_size=4)

    @given(
        factors, st.integers(0, 40), st.sampled_from([coefficient, truncated_product])
    )
    @example(factors=[([1, 1], 1)], k=0, read=coefficient)
    @example(factors=[([1, 2, 1], 9), ([3], 1)], k=12, read=truncated_product)
    @example(factors=[(list(range(1, 21)), 3), ([1, 1], 2)], k=40, read=truncated_product)
    @settings(max_examples=300, deadline=None)
    def test_is_the_left_to_right_product(self, factors, k, read):
        total = [1]
        for row, count in factors:
            for _ in range(count):
                total = schoolbook(total, row, k)
        expected = total[k] if read is coefficient else total
        assert power_product(factors, k, read) == expected

    def test_first_factor_costs_no_product(self, monkeypatch):
        # the first row is the running product as it is and the last meets
        # it only in the read, so three distinct rows cost one product
        calls = []
        product = series.truncated_product
        monkeypatch.setattr(
            series, "truncated_product", lambda *args: calls.append(args) or product(*args)
        )
        rows = [[1, 2, 3], [1, 1], [1, 0, 5]]
        assert power_product(((row, 1) for row in rows), 4) == 25
        assert len(calls) == 1


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

    @pytest.mark.parametrize("n,k,m,p", [(7, 2, 2, 1), (9, 2, 2, 1), (13, 3, 1, 2)])
    def test_matches_the_oracle(self, n, k, m, p):
        assert g_series(n, k, m, p) == count_brute(count_query("circle", n, k, m, p))

    @pytest.mark.parametrize("n,m,p", [(1, 1, 1), (5, 2, 3), (40, 3, 2)])
    def test_empty_selection(self, n, m, p):
        assert g_series(n, 0, m, p) == 1

    def test_zero_where_the_circle_is_too_short_at_m1(self):
        # pk + 1 <= n < (p+1)k: in range, but k positions need (p+1)k
        for p in range(1, 4):
            for k in range(1, 6):
                for n in range(p * k + 1, (p + 1) * k):
                    assert g_series(n, k, 1, p) == 0 == count_brute(
                        count_query("circle", n, k, 1, p)
                    )

    def test_matches_closed_form_randomized(self):
        rng = random.Random(1207)
        for _ in range(300):
            m, p, k = rng.randint(1, 6), rng.randint(1, 5), rng.randint(0, 40)
            n = m * p * k + 1 + rng.randint(0, 200)
            assert g_series(n, k, m, p) == g_closed(n, k, m, p), (n, k, m, p)

    @pytest.mark.parametrize("n,k,m,p", [(109054, 2898, 1, 1), (60000, 3000, 2, 3)])
    def test_one_binomial_from_prime_factors(self, monkeypatch, n, k, m, p):
        # C(n - p*k - 1, k - 1) is past binom_nat's rule at both points
        calls = []
        helper = binomials._binom_factored
        monkeypatch.setattr(
            binomials, "_binom_factored", lambda a, j: calls.append((a, j)) or helper(a, j)
        )
        value = g_series(n, k, m, p)
        assert calls == [(n - p * k - 1, k - 1)]
        assert value == n * comb(n - p * k, k) // (n - p * k)

    def test_reads_one_binomial(self, monkeypatch):
        calls = []
        helper = counting.binom_nat
        monkeypatch.setattr(
            counting, "binom_nat", lambda a, j: calls.append((a, j)) or helper(a, j)
        )
        for k in range(1, 8):
            calls.clear()
            g_series(30, k, 1, 2)
            assert calls == [(30 - 2 * k - 1, k - 1)]

