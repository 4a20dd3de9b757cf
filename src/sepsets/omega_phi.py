"""Composition sums over rational parameters and their closed forms.

Omega sums products of generalized binomials ``binom(lam_i + mu*k_i, k_i)``
over all weak compositions ``k_1 + ... + k_m = k``; Phi weights each factor
by ``lam_i / (lam_i + mu*k_i)``.  Remarkably, both collapse to expressions
that depend on the lambdas only through their sum: Omega has three
equivalent single-sum expansions and Phi a single closed form.

The third Omega expansion is implemented in two variants: ``printed`` is
the form that fails desk verification (kept so the audit subsystem can
exhibit the discrepancy) and ``corrected`` shifts the inner binomial's
lower index from ``k-j`` to ``k-1-j``, which agrees with the direct sum
everywhere.  ``corrected`` is the default.

The direct sums are evaluated as [y^k] of a product of one row polynomial
per lambda, through ``series.power_product``, the engine of the line and
circle composition sums.  Every row entry is an integer over one
common denominator (the lcm D of the parameters' denominators), so the
sum costs O(m*k^2) int steps and builds a single Fraction at the end.
The closed forms have one int path for every parameter: they scale lambda
and mu by their common denominator D (1 for ints), take one
``series.kernel_coefficient`` over D, and divide once at the end.

All parameters are exact rationals.  The identities are polynomial in the
parameters, so exact verification at rational points is what the test
suite and the audit subsystem rely on.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

from .binomials import Rational, _falling, binom_gen
from .series import binomial_coeffs, kernel_coefficient, power_product


class SingularTermError(ValueError):
    """A weighted composition term has a vanishing denominator."""


class OmegaQuery(namedtuple("OmegaQuery", "lambdas mu k")):
    """Parameters (lambda_1..lambda_m, mu, k) of one composition-sum
    evaluation; the lambdas and mu are stored as ``Fraction``s."""

    __slots__ = ()

    def __new__(
        cls, lambdas: Iterable[Rational], mu: Rational, k: int
    ) -> OmegaQuery:
        lambdas = tuple(Fraction(v) for v in lambdas)
        mu = Fraction(mu)
        if len(lambdas) < 1:
            raise ValueError("need at least one lambda")
        if k < 0:
            raise ValueError("k must be >= 0")
        return tuple.__new__(cls, (lambdas, mu, k))

    @property
    def m(self) -> int:
        return len(self.lambdas)

    @property
    def lambda_total(self) -> Fraction:
        return sum(self.lambdas, Fraction(0))


def compositions(k: int, m: int) -> Iterator[tuple[int, ...]]:
    """All length-m tuples of nonnegative integers summing to k, lexicographic.

    Stars and bars: each choice of m-1 bar places among k+m-1 slots gives
    the parts as the gaps between consecutive bars.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    for bars in combinations(range(k + m - 1), m - 1):
        edges = (-1, *bars, k + m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def omega_direct(q: OmegaQuery) -> Fraction:
    """Direct composition sum of products binom_gen(lam_i + mu*k_i, k_i).

    Row i holds D**j * j! * binom_gen(lam_i + mu*j, j) =
    prod_{t<j} (L_i + M*j - t*D) at y^j (see ``_direct_sum``).  The
    expanded row product is the composition sum term by term, so this stays
    definitional and the audits' reference side.
    """
    d, big_ls, big_m = _scaled(q.mu, q.lambdas)
    rows = (
        [_falling(big_l + big_m * j, j, d) for j in range(q.k + 1)]
        for big_l in big_ls
    )
    return _direct_sum(q, d, rows)


def phi_direct(q: OmegaQuery) -> Fraction:
    """Weighted composition sum: each factor of ``omega_direct``'s terms
    times ``lam_i/(lam_i + mu*k_i)``.  Raises SingularTermError when some
    composition makes that denominator 0, naming the first such composition
    in lexicographic order.

    The weight cancels the falling product's first factor, so row i is 1 at
    y^0 and ``L_i * prod_{1<=t<j} (L_i + M*j - t*D)`` at y^j, j >= 1.  The
    sum stays definitional in the same way as ``omega_direct``.
    """
    d, big_ls, big_m = _scaled(q.mu, q.lambdas)
    # for m >= 2 each j in 0..k is a part of some composition; for m = 1 only k
    parts = range(q.k, q.k + 1) if q.m == 1 else range(q.k + 1)
    if any(big_l + big_m * j == 0 for big_l in big_ls for j in parts):
        for comp in compositions(q.k, q.m):
            for i, (lam_i, k_i) in enumerate(zip(q.lambdas, comp)):
                if lam_i + q.mu * k_i == 0:
                    raise SingularTermError(
                        f"lambda_{i + 1} + mu*k_{i + 1} = 0 in composition {comp}"
                    )
    rows = (
        [1, *(
            big_l * _falling(big_l + big_m * j - d, j - 1, d)
            for j in range(1, q.k + 1)
        )]
        for big_l in big_ls
    )
    return _direct_sum(q, d, rows)


def _scaled(
    mu: Rational, lambdas: Sequence[Rational]
) -> tuple[int, list[int], int]:
    """The common denominator D of mu and the lambdas, each L_i = lam_i*D,
    and M = mu*D."""
    d = lcm(mu.denominator, *(lam.denominator for lam in lambdas))
    big_ls = [lam.numerator * (d // lam.denominator) for lam in lambdas]
    return d, big_ls, mu.numerator * (d // mu.denominator)


def _direct_sum(q: OmegaQuery, d: int, rows: Iterable[list[int]]) -> Fraction:
    """[y^k] of the product of the m integer rows, each entry j scaled by
    k!/j!, over ``D**k * (k!)**m``.

    Entry j of row i is D**j * j! times the i-th factor of a composition
    term at k_i = j, so every composition's term is its entries' product
    over that one denominator: O(m*k^2) int steps through
    ``power_product`` instead of one Fraction product per composition.
    """
    k = q.k
    scale = [factorial(k) // factorial(j) for j in range(k + 1)]
    factors = (([x * s for x, s in zip(row, scale)], 1) for row in rows)
    return Fraction(power_product(factors, k), d**k * factorial(k) ** q.m)


# The closed forms depend on the lambdas only through their sum, so the
# integer counting formulas reuse these helpers directly.  Each is the
# coefficient of x^k (x^(k-shift) for the third) in a product of two
# binomial series, so it costs O(k) big-int steps: binom(m+j-2, j) * (mu-1)^j
# is the x^j coefficient of (1+(1-mu)x)^(1-m), binom(a+j, j) * (1-mu)^j that
# of (1+(mu-1)x)^(-a-1), and binom(upper, k-j) * c^(k-j) that of
# (1+cx)^upper at x^(k-j).  Every parameter takes the one int path: lam, mu
# and the kernels' numerators are scaled by the common denominator D of lam
# and mu, ``binomial_coeffs``/``kernel_coefficient`` scale the x^j entry by
# D^(3j), and the sum is divided once at the end.  Int parameters (D = 1)
# get an int from the first two expansions; rational ones get one Fraction.

def omega_closed_1_total(lam: Rational, mu: Rational, m: int, k: int) -> Rational:
    d, big_l, big_m, upper = _scaled_upper(lam, mu, m, k)
    total = kernel_coefficient(
        (1 - m) * d, d - big_m, binomial_coeffs(upper, d, k, d), k, d
    )
    return _unscaled(total, d ** (3 * k), lam, mu)


def omega_closed_2_total(lam: Rational, mu: Rational, m: int, k: int) -> Rational:
    d, big_l, big_m, upper = _scaled_upper(lam, mu, m, k)
    total = kernel_coefficient(
        -big_l - (big_m - d) * k - d,
        big_m - d,
        binomial_coeffs(upper, big_m, k, d),
        k,
        d,
    )
    return _unscaled(total, d ** (3 * k), lam, mu)


def omega_closed_3_total(
    lam: Rational, mu: Rational, m: int, k: int, variant: str = "corrected"
) -> Fraction:
    if k < 1:
        raise ValueError("the third expansion needs k >= 1")
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    top = k - (0 if variant == "printed" else 1)
    d, big_l, big_m, upper = _scaled_upper(lam, mu, m, k)
    # the weight lam + mu*(m+j) = (L + M*(m+j))/D of the x^j term of
    # (1+(1-mu)x)^(-m), carried by its partner x^(top-j) of (1+x)^upper;
    # its 1/D joins the final denominator
    partner = [
        (big_l + big_m * (m + top - i)) * term
        for i, term in enumerate(binomial_coeffs(upper, d, top, d))
    ]
    total = kernel_coefficient(-m * d, d - big_m, partner, top, d)
    return Fraction(total, d ** (3 * top + 1) * k)


def _scaled_upper(
    lam: Rational, mu: Rational, m: int, k: int
) -> tuple[int, int, int, int]:
    """``_scaled(mu, (lam,))``: D, L = lam*D and M = mu*D, and the closed
    forms' upper index lam + mu*k + m - 1 times D.  Written out for one
    lambda, since every closed line count makes this call: ``_scaled``'s
    generic form costs more than the rest of a small count."""
    d = lcm(lam.denominator, mu.denominator)
    big_l = lam.numerator * (d // lam.denominator)
    big_m = mu.numerator * (d // mu.denominator)
    return d, big_l, big_m, big_l + big_m * k + (m - 1) * d


def _unscaled(total: int, denom: int, lam: Rational, mu: Rational) -> Rational:
    """``total / denom`` in the parameters' type: the int ``total`` itself
    for int lam and mu (D = 1, so denom = 1), else one Fraction, also when
    D = 1."""
    return Fraction(total, denom) if isinstance(lam + mu, Fraction) else total


def omega_closed_1(q: OmegaQuery) -> Fraction:
    return omega_closed_1_total(q.lambda_total, q.mu, q.m, q.k)


def omega_closed_2(q: OmegaQuery) -> Fraction:
    return omega_closed_2_total(q.lambda_total, q.mu, q.m, q.k)


def omega_closed_3(q: OmegaQuery, variant: str = "corrected") -> Fraction:
    return omega_closed_3_total(q.lambda_total, q.mu, q.m, q.k, variant)


def phi_closed(q: OmegaQuery) -> Fraction:
    """``lam/(lam + mu*k) * binom_gen(lam + mu*k, k)``; singular if the denominator is 0."""
    lam = q.lambda_total
    denom = lam + q.mu * q.k
    if denom == 0:
        raise SingularTermError("lambda + mu*k = 0")
    return lam / denom * binom_gen(denom, q.k)


def hwang_wei_check(n_list: Sequence[int], k: int) -> tuple[Fraction, int]:
    """Both sides of the mu = -1 specialization.

    Left: the direct composition sum with lambdas ``n_i + 1`` and mu = -1.
    Right: ``sum_j binom(m+j-2, j) * binom(n+1-k-2j, k-2j)`` with n = sum n_i.
    The caller asserts equality.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    m = len(n_list)
    left = omega_direct(
        OmegaQuery(tuple(Fraction(v + 1) for v in n_list), Fraction(-1), k)
    )
    n = sum(n_list)
    right = sum(
        binom_gen(m + j - 2, j) * binom_gen(n + 1 - k - 2 * j, k - 2 * j)
        for j in range(k + 1)
    )
    return left, right


def gould_check(
    a: Rational, b: Rational, c: Rational, n: int
) -> tuple[Fraction, Fraction]:
    """Both sides of the two-part convolution identity: Phi with the two
    lambdas (a, b) and mu = c at k = n, as its direct sum and its closed form.

    Left: ``sum_{k=0}^{n} a/(a+ck) binom(a+ck, k) * b/(b+c(n-k)) binom(b+c(n-k), n-k)``.
    Right: ``(a+b)/(a+b+cn) * binom(a+b+cn, n)`` (evaluated at n).
    Raises SingularTermError if any denominator vanishes.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    q = OmegaQuery((a, b), c, n)
    return phi_direct(q), phi_closed(q)
