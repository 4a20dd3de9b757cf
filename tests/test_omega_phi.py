"""Tests for the composition-sum family and its closed forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsets.binomials import binom_gen
from sepsets.omega_phi import (
    OmegaQuery,
    SingularTermError,
    _omega_1,
    _omega_2,
    _omega_3,
    _omega_direct,
    _phi_closed,
    _phi_direct,
    _scaled,
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

F = Fraction


class Two:
    def __index__(self):
        return 2


def q(lambdas, mu, k):
    return OmegaQuery(tuple(F(v) for v in lambdas), F(mu), k)


def random_query(rng, m_max=4, k_max=5, k_min=0):
    m = rng.randint(1, m_max)
    k = rng.randint(k_min, k_max)
    lambdas = tuple(
        F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(m)
    )
    mu = F(rng.randint(-20, 20), rng.randint(1, 20))
    return OmegaQuery(lambdas, mu, k)


def phi_singular(query):
    return any(
        lam_i + query.mu * k_i == 0
        for parts in compositions(query.k, query.m)
        for lam_i, k_i in zip(query.lambdas, parts)
    )


class TestOmegaDirect:
    def test_integer_instance(self):
        # the three compositions contribute 1 + 9 + 1
        assert omega_direct(q((4, 4), -1, 2)) == 11

    def test_single_row_collapses_to_one_binomial(self):
        for lam, mu, k in [(F(5, 2), F(3), 3), (F(-1), F(1, 2), 4)]:
            assert omega_direct(q((lam,), mu, k)) == binom_gen(lam + mu * k, k)

    def test_k_zero(self):
        assert omega_direct(q((F(1, 3), F(-2)), F(7), 0)) == 1

    def test_rejects_bad_query(self):
        with pytest.raises(ValueError):
            OmegaQuery((), F(1), 2)
        with pytest.raises(ValueError):
            OmegaQuery((F(1),), F(1), -1)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", F(5, 2), None])
    def test_rejects_non_integral_k_at_construction(self, k):
        # one ValueError when the query is built, not a TypeError from a
        # comparison or from a later range()
        with pytest.raises(ValueError, match="k must be an integer"):
            OmegaQuery((1,), 1, k)

    def test_k_is_read_through_index(self):
        query = OmegaQuery((1,), 1, Two())
        assert type(query.k) is int and query == OmegaQuery((1,), 1, 2)


def reference_omega(query):
    """The composition sum, one Fraction product per composition."""
    total = F(0)
    for parts in compositions(query.k, query.m):
        term = F(1)
        for lam_i, k_i in zip(query.lambdas, parts):
            term *= binom_gen(lam_i + query.mu * k_i, k_i)
        total += term
    return total


def reference_phi(query):
    """The weighted composition sum, raising at its first zero denominator."""
    total = F(0)
    for parts in compositions(query.k, query.m):
        term = F(1)
        for i, (lam_i, k_i) in enumerate(zip(query.lambdas, parts)):
            denom = lam_i + query.mu * k_i
            if denom == 0:
                raise SingularTermError(
                    f"lambda_{i + 1} + mu*k_{i + 1} = 0 in composition {parts}"
                )
            term *= lam_i / denom * binom_gen(denom, k_i)
        total += term
    return total


def outcome(f, query):
    try:
        value = f(query)
    except SingularTermError as exc:
        return "singular", str(exc)
    return type(value), value


# rational, integer and zero parameters; small integers make singular
# Phi terms common
parameter = st.one_of(
    st.fractions(-6, 6, max_denominator=5), st.integers(-6, 6), st.just(0)
)


class TestDirectSumsMatchTheCompositionLoop:
    @given(st.lists(parameter, min_size=1, max_size=4), parameter, st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_omega(self, lambdas, mu, k):
        query = OmegaQuery(tuple(lambdas), mu, k)
        assert outcome(omega_direct, query) == (Fraction, reference_omega(query))

    @given(st.lists(parameter, min_size=1, max_size=4), parameter, st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_phi_values_and_singular_messages(self, lambdas, mu, k):
        query = OmegaQuery(tuple(lambdas), mu, k)
        assert outcome(phi_direct, query) == outcome(reference_phi, query)

    @pytest.mark.parametrize(
        "lambdas,mu,k",
        [
            ((0, 1), 1, 0),  # lambda_1 + mu*0 = 0 at the first composition
            ((3, -2), 1, 3),  # (1, 2) is the first composition with k_2 = 2
            ((F(1, 2), F(-3, 2)), F(1, 2), 4),  # k_2 = 3, after k_1 hits nothing
            ((-4,), 2, 2),  # m = 1: only k itself is a part
            ((-4,), 2, 3),  # m = 1, lambda + mu*j = 0 at j = 2 < k: regular
        ],
    )
    def test_phi_singular_edges(self, lambdas, mu, k):
        query = q(lambdas, mu, k)
        assert outcome(phi_direct, query) == outcome(reference_phi, query)

    def test_large_k_against_closed_forms(self):
        # 861 compositions of 40 into 3 parts, with 40-factor binomials
        lambdas, mu = (F(1, 3), F(-5, 2), F(7, 4)), F(2, 5)
        query = q(lambdas, mu, 40)
        assert omega_direct(query) == omega_closed_1(query)
        assert phi_direct(query) == phi_closed(query)
        integral = q((4, -7, 2), -3, 40)
        assert omega_direct(integral) == omega_closed_1(integral)


class TestOmegaClosedForms:
    def test_first_expansion_instance(self):
        # binom(7,2) - 2*binom(7,1) + 4 = 11
        assert omega_closed_1(q((4, 4), -1, 2)) == 11

    def test_second_expansion_instance(self):
        # 21 - 70 + 60 = 11
        assert omega_closed_2(q((4, 4), -1, 2)) == 11

    def test_third_expansion_printed_vs_corrected(self):
        query = q((1, 1), 1, 2)
        assert omega_direct(query) == 10
        assert omega_closed_3(query, "printed") == 20
        assert omega_closed_3(query, "corrected") == 10

    def test_printed_third_stays_exact_on_integer_parameters(self):
        # the printed third expansion is not an integer here: its core gives
        # the exact ratio of ints, never a float, and the query form the same
        total, denom = _omega_3(1, -2, 0, 2, 3, "printed")
        assert type(total) is type(denom) is int and F(total, denom) == F(20, 3)
        assert omega_closed_3(q((-2, 0), 0, 3), "printed") == F(20, 3)

    @pytest.mark.parametrize(
        "lam,mu,m,k",
        [
            (5, -2, 3, 2),
            (3, -1, 2, 0),
            (-7, 4, 1, 3),
            (9, -2, 2, 64),
            (9, 1, 2, 80),
        ],
    )
    def test_return_type_follows_the_parameters(self, lam, mu, m, k):
        # the cores at D = 1, as the closed line counts call them: int
        # parameters give int values over the denominator 1 from the first
        # two expansions, and the third's ratio is the direct sum
        direct = omega_direct(OmegaQuery((lam,) + (0,) * (m - 1), mu, k))
        for core in (_omega_1, _omega_2):
            total, denom = core(1, lam, mu, m, k)
            assert type(total) is int and denom == 1 and total == direct
        if k >= 1:
            assert F(*_omega_3(1, lam, mu, m, k, "corrected")) == direct

    @pytest.mark.parametrize(
        "lam,mu,m,k",
        [
            (F(3), F(-1), 2, 0),
            (F(3), F(-1), 2, 3),
            (F(-26, 9), F(-7, 3), 5, 0),
            (F(-26, 9), F(-7, 3), 5, 2),
            (4, F(1, 2), 2, 0),
            (F(1, 2), -1, 3, 1),
            # larger k; mu = 1 and mu = 0 make one of the second
            # expansion's two series constant (c = 0)
            (F(7, 3), F(-1, 2), 1, 64),
            (F(-26, 9), F(5, 3), 2, 80),
            (F(1, 2), F(0), 2, 64),
            (F(5, 4), F(1), 1, 80),
        ],
    )
    def test_query_forms_at_one_rational_lambda(self, lam, mu, m, k):
        # a Fraction parameter reaches the cores only through the query
        # forms, also when the common denominator is 1 and at k = 0
        query = OmegaQuery((lam,) + (0,) * (m - 1), mu, k)
        direct = omega_direct(query)
        for closed in (omega_closed_1, omega_closed_2):
            value = closed(query)
            assert type(value) is Fraction and value == direct
        if k >= 1:
            value = omega_closed_3(query)
            assert type(value) is Fraction and value == direct

    @pytest.mark.parametrize(
        "lam,mu", [(F(3), -1), (3, F(-1)), (F(7, 2), -1), (3, F(-1, 2))]
    )
    def test_cores_refuse_a_fraction_at_d_one(self, lam, mu):
        # D = 1 means int L and M: a Fraction, integral or not, is refused,
        # never floored
        for core in (_omega_1, _omega_2):
            with pytest.raises(TypeError):
                core(1, lam, mu, 2, 3)
        for variant in ("printed", "corrected"):
            with pytest.raises(TypeError):
                _omega_3(1, lam, mu, 2, 3, variant)

    def test_third_rejects_k_zero(self):
        with pytest.raises(ValueError):
            omega_closed_3(q((1,), 1, 0))

    def test_depends_only_on_lambda_sum_at_fixed_m(self):
        a = q((F(7, 2), F(1, 2)), F(-2, 3), 3)
        b = q((F(-1), F(5)), F(-2, 3), 3)
        assert omega_direct(a) == omega_direct(b) == omega_closed_1(a)

    def test_randomized_agreement(self):
        rng = random.Random(31)
        for _ in range(100):
            query = random_query(rng)
            direct = omega_direct(query)
            assert omega_closed_1(query) == direct
            assert omega_closed_2(query) == direct
            if query.k >= 1:
                assert omega_closed_3(query, "corrected") == direct


    small = st.fractions(-6, 6, max_denominator=4)

    @given(st.lists(small, min_size=1, max_size=3), small, st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_direct_at_rational_points(self, lambdas, mu, k):
        query = OmegaQuery(tuple(lambdas), mu, k)
        direct = omega_direct(query)
        assert omega_closed_1(query) == direct
        assert omega_closed_2(query) == direct
        if k >= 1:
            assert omega_closed_3(query, "corrected") == direct

    @given(
        st.lists(st.integers(-12, 12), min_size=1, max_size=3),
        st.integers(-4, 4),
        st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_totals_match_direct(self, lambdas, mu, k):
        # the int path divides exactly, negative upper indices included:
        # lam + (mu-1)*k is negative at most of these points
        lam, m = sum(lambdas), len(lambdas)
        direct = omega_direct(OmegaQuery(tuple(lambdas), mu, k))
        for core in (_omega_1, _omega_2):
            total, denom = core(1, lam, mu, m, k)
            assert type(total) is int and denom == 1 and total == direct
        if k >= 1:
            assert F(*_omega_3(1, lam, mu, m, k, "corrected")) == direct

    def test_int_totals_at_negative_upper_indices(self):
        # lam + (mu-1)*k = -11 and lam + mu*k + m - 1 = -6
        lam, mu, m, k = -3, -1, 2, 4
        direct = omega_direct(q((-1, -2), mu, k))
        assert _omega_1(1, lam, mu, m, k) == (direct, 1)
        assert _omega_2(1, lam, mu, m, k) == (direct, 1)
        assert F(*_omega_3(1, lam, mu, m, k, "corrected")) == direct


# pairwise coprime denominators, for queries whose common denominator is
# their product
PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def rational_queries(draw, singular=False):
    """A query with m = 1..4 lambdas and k = 0..6, its lambdas and mu over
    one shared denominator or over pairwise coprime ones.  ``singular``
    sets the last lambda so that lam + mu*k = 0 for the lambdas' sum lam."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    nums = draw(st.lists(st.integers(-12, 12), min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        dens = [draw(st.integers(1, 12))] * (m + 1)
    else:
        dens = draw(st.permutations(PRIMES))[: m + 1]
    mu, *lambdas = (F(a, b) for a, b in zip(nums, dens))
    if singular:
        lambdas[-1] = -(sum(lambdas[:-1], F(0)) + mu * k)
    return OmegaQuery(lambdas, mu, k)


def reference_phi_closed(query):
    """``lam/(lam + mu*k) * binom_gen(lam + mu*k, k)`` in Fractions, with
    lam the sum of the lambdas."""
    lam = sum(query.lambdas, F(0))
    denom = lam + query.mu * query.k
    if denom == 0:
        raise SingularTermError("lambda + mu*k = 0")
    return lam / denom * binom_gen(denom, query.k)


class TestQueryClosedFormsAtRationalPoints:
    """The query forms run on the scaled ints of one ``_scaled`` call; each
    must equal its Fraction definition."""

    @given(rational_queries())
    @example(q((F(3, 4),), F(-2, 3), 5))  # m = 1, coprime denominators
    @example(q((F(1, 6), F(5, 6)), F(7, 6), 0))  # k = 0, shared denominator
    @example(q((F(1, 2), F(2, 3), F(4, 5)), F(6, 7), 6))
    @settings(max_examples=200, deadline=None)
    def test_omega_closed_forms_equal_the_reference(self, query):
        expected = reference_omega(query)
        assert outcome(omega_closed_1, query) == (Fraction, expected)
        assert outcome(omega_closed_2, query) == (Fraction, expected)
        if query.k >= 1:
            assert outcome(omega_closed_3, query) == (Fraction, expected)

    @given(st.one_of(rational_queries(), rational_queries(singular=True)))
    @example(q((F(3, 4),), F(-2, 3), 5))
    @example(q((F(1, 6), F(5, 6)), F(7, 6), 0))
    @example(q((F(1, 3), F(-1, 3)), F(5, 2), 0))  # k = 0 with lam = 0: singular
    @example(q((F(2, 3),), F(-1, 6), 4))  # m = 1, lam + mu*k = 0
    @settings(max_examples=300, deadline=None)
    def test_phi_closed_equals_the_reference(self, query):
        # values and singular queries alike: both raise SingularTermError
        # on the same queries, with the same message
        assert outcome(phi_closed, query) == outcome(reference_phi_closed, query)


def scaled_ints(query, t):
    """D, the L_i and M of a query, each times t: any common denominator of
    mu and the lambdas, as the audit's unreduced draws give, not only
    their lcm."""
    d, big_ls, big_m = _scaled(
        query.mu.as_integer_ratio(), [lam.as_integer_ratio() for lam in query.lambdas]
    )
    return d * t, [v * t for v in big_ls], big_m * t


@st.composite
def phi_direct_singular_queries(draw):
    """A query with lambda_i + mu*j = 0 for a part j of some composition."""
    query = draw(rational_queries())
    i = draw(st.integers(0, query.m - 1))
    j = query.k if query.m == 1 else draw(st.integers(0, query.k))
    lambdas = list(query.lambdas)
    lambdas[i] = -query.mu * j
    return OmegaQuery(lambdas, query.mu, query.k)


class TestIntCores:
    """Each int core, read as ``Fraction(num, den)``, equals its query form
    and the Fraction definition, at any common denominator; on a singular
    query the core and the query form raise the same SingularTermError."""

    @given(rational_queries(), st.integers(1, 3))
    @example(q((F(3, 4),), F(-2, 3), 5), 1)  # m = 1, coprime denominators
    @example(q((F(1, 6), F(5, 6)), F(7, 6), 0), 2)  # k = 0, shared denominator
    @settings(max_examples=150, deadline=None)
    def test_omega_direct(self, query, t):
        d, big_ls, big_m = scaled_ints(query, t)
        value = F(*_omega_direct(d, big_ls, big_m, query.k))
        assert value == omega_direct(query) == reference_omega(query)

    @given(st.one_of(rational_queries(), phi_direct_singular_queries()), st.integers(1, 3))
    @example(q((F(3, 4),), F(-2, 3), 5), 1)  # m = 1
    @example(q((F(-2, 3),), F(1, 3), 2), 2)  # m = 1, singular at j = k
    @example(q((F(1, 6), F(5, 6)), F(7, 6), 0), 2)  # k = 0
    @example(q((F(0), F(5, 6)), F(7, 6), 0), 1)  # k = 0, lambda_1 = 0
    @settings(max_examples=200, deadline=None)
    def test_phi_direct(self, query, t):
        d, big_ls, big_m = scaled_ints(query, t)
        expected = outcome(reference_phi, query)
        assert outcome(lambda _: F(*_phi_direct(d, big_ls, big_m, query.k)), query) == expected
        assert outcome(phi_direct, query) == expected

    @given(st.one_of(rational_queries(), rational_queries(singular=True)), st.integers(1, 3))
    @example(q((F(3, 4),), F(-2, 3), 5), 3)  # m = 1
    @example(q((F(2, 3),), F(-1, 6), 4), 1)  # m = 1, lam + mu*k = 0
    @example(q((F(1, 6), F(5, 6)), F(7, 6), 0), 2)  # k = 0
    @example(q((F(1, 3), F(-1, 3)), F(5, 2), 0), 1)  # k = 0 with lam = 0
    @settings(max_examples=200, deadline=None)
    def test_phi_closed(self, query, t):
        d, big_ls, big_m = scaled_ints(query, t)
        expected = outcome(reference_phi_closed, query)
        assert outcome(lambda _: F(*_phi_closed(d, sum(big_ls), big_m, query.k)), query) == (
            expected
        )
        assert outcome(phi_closed, query) == expected


class TestPhi:
    def test_weighted_sum(self):
        assert phi_direct(q((1, 1), 1, 2)) == 3

    def test_closed_form(self):
        assert phi_closed(q((1, 1), 1, 2)) == 3

    def test_k_zero(self):
        assert phi_closed(q((F(2, 3), F(1, 3)), F(-5), 0)) == 1

    def test_single_row(self):
        query = q((F(3, 2),), F(1, 4), 3)
        assert phi_direct(query) == phi_closed(query)

    def test_direct_reports_singular_composition(self):
        # lambda_1 + mu*k_1 = -2 + 2 = 0 in the composition (2, 0)
        with pytest.raises(SingularTermError, match="composition"):
            phi_direct(q((-2, 5), 1, 2))

    def test_closed_rejects_singular_total(self):
        with pytest.raises(SingularTermError):
            phi_closed(q((1, 1), -1, 2))

    def test_randomized_agreement(self):
        rng = random.Random(32)
        checked = 0
        while checked < 100:
            query = random_query(rng)
            if phi_singular(query) or query.lambda_total + query.mu * query.k == 0:
                continue
            checked += 1
            assert phi_direct(query) == phi_closed(query)


class TestHwangWei:
    def test_two_rows_of_three(self):
        assert hwang_wei_check((3, 3), 2) == (11, 11)

    def test_k_zero(self):
        assert hwang_wei_check((4, 1, 2), 0) == (1, 1)

    def test_single_row(self):
        assert hwang_wei_check((2,), 1) == (2, 2)

    @pytest.mark.parametrize("k", [2.5, "2", F(5, 2), None])
    def test_rejects_non_integral_k(self, k):
        # one ValueError naming k, not a TypeError from its comparison with 0
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            hwang_wei_check((3, 3), k)

    def test_k_is_read_through_index(self):
        assert hwang_wei_check((3, 3), Two()) == (11, 11)
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            hwang_wei_check((3, 3), -1)

    def test_rejects_no_rows(self):
        # an empty list gave a TypeError from the empty product's None
        with pytest.raises(ValueError, match=r"^need at least one row length$"):
            hwang_wei_check((), 2)

    @pytest.mark.parametrize("n_i", [F(3), "3", 2.5])
    def test_rejects_non_integral_row_lengths(self, n_i):
        # one ValueError, not a TypeError from range or +
        with pytest.raises(ValueError, match=r"^n_i must be an integer, got "):
            hwang_wei_check((n_i, 3), 2)

    def test_row_lengths_are_read_through_index(self):
        assert hwang_wei_check((Two(), 3), 2) == hwang_wei_check((2, 3), 2) == (7, 7)
        assert hwang_wei_check([Two()], 1) == (2, 2)
        # negative lengths are evaluated as before
        assert hwang_wei_check((-2, 3), 2) == (1, 1)
        assert hwang_wei_check((-3, -1, 4), 3) == (-12, -12)

    def test_randomized(self):
        rng = random.Random(33)
        for _ in range(60):
            m = rng.randint(1, 4)
            n_list = tuple(rng.randint(0, 10) for _ in range(m))
            k = rng.randint(0, 6)
            lhs, rhs = hwang_wei_check(n_list, k)
            assert lhs == rhs, (n_list, k)


class TestGould:
    def test_unit_instance(self):
        assert gould_check(1, 1, 1, 2) == (3, 3)

    def test_n_zero(self):
        assert gould_check(F(5, 7), F(2), F(-1, 3), 0) == (1, 1)

    def test_c_zero_is_vandermonde(self):
        assert gould_check(1, 2, 0, 2) == (3, 3)

    def test_rejects_singular_denominator(self):
        with pytest.raises(SingularTermError):
            gould_check(-2, 5, 1, 3)  # a + c*k = 0 at k = 2
        with pytest.raises(SingularTermError):
            gould_check(1, 1, -1, 2)  # a + b + c*n = 0

    @pytest.mark.parametrize("n", [2.5, "2", F(5, 2), None])
    def test_rejects_non_integral_n(self, n):
        # the message names n, the argument, not the query's k
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            gould_check(1, 1, 1, n)

    def test_n_is_read_through_index(self):
        assert gould_check(1, 1, 1, Two()) == (3, 3)
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            gould_check(1, 1, 1, -1)

    def test_randomized(self):
        rng = random.Random(34)
        checked = 0
        while checked < 60:
            a = F(rng.randint(-8, 8), rng.randint(1, 8))
            b = F(rng.randint(-8, 8), rng.randint(1, 8))
            c = F(rng.randint(-8, 8), rng.randint(1, 8))
            n = rng.randint(0, 6)
            if a + b + c * n == 0:
                continue
            if any(a + c * j == 0 or b + c * (n - j) == 0 for j in range(n + 1)):
                continue
            checked += 1
            lhs, rhs = gould_check(a, b, c, n)
            assert lhs == rhs, (a, b, c, n)
