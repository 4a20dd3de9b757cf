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

Each quantity has one int core.  It takes mu and the lambdas scaled by a
common denominator D (the lcm of theirs; 1 for ints), M = mu*D and L_i =
lam_i*D, and returns the exact value as a (numerator, denominator) pair
of ints.  The query forms read D, L_i and M from an ``OmegaQuery``'s
Fractions and build one Fraction from the pair.  The audit draws its
rationals as int pairs and the closed line counts call the Omega cores at
D = 1, so neither builds a Fraction for a value it only compares or
returns whole.  The direct sums are [y^k] of a product of one int row per
lambda through ``series.power_product``, O(m*k^2) int steps; each closed
Omega expansion is one O(k) loop of
``series.binomial_product_coefficients``, and Phi's closed form one
falling product.  The identities are polynomial in the parameters, so
exact verification at rational points is what the tests and the audit
rely on.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from operator import index

from .binomials import Rational, binom_gen
from .series import binomial_product_coefficients, power_product


class SingularTermError(ValueError):
    """A weighted composition term has a vanishing denominator."""


class OmegaQuery(namedtuple("OmegaQuery", "lambdas mu k")):
    """Parameters (lambda_1..lambda_m, mu, k) of one composition-sum
    evaluation; the lambdas and mu are stored as ``Fraction``s, k as an
    int (anything ``operator.index`` accepts)."""

    __slots__ = ()

    def __new__(
        cls, lambdas: Iterable[Rational], mu: Rational, k: int
    ) -> OmegaQuery:
        lambdas = tuple(v if type(v) is Fraction else Fraction(v) for v in lambdas)
        if type(mu) is not Fraction:
            mu = Fraction(mu)
        if len(lambdas) < 1:
            raise ValueError("need at least one lambda")
        return tuple.__new__(cls, (lambdas, mu, _count(k, "k")))

    @property
    def m(self) -> int:
        return len(self.lambdas)

    @property
    def lambda_total(self) -> Fraction:
        d, big_ls, _ = _query_scaled(self)
        return Fraction(sum(big_ls), d)


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
    """Direct composition sum of products binom_gen(lam_i + mu*k_i, k_i)."""
    return Fraction(*_omega_direct(*_query_scaled(q), q.k))


def phi_direct(q: OmegaQuery) -> Fraction:
    """Weighted composition sum: each factor of ``omega_direct``'s terms
    times ``lam_i/(lam_i + mu*k_i)``.  Raises SingularTermError when some
    composition makes that denominator 0, naming the first such composition
    in lexicographic order."""
    return Fraction(*_phi_direct(*_query_scaled(q), q.k))


def _omega_direct(d: int, big_ls: Sequence[int], big_m: int, k: int) -> tuple[int, int]:
    """``omega_direct`` at the scaled ints, as (numerator, denominator).

    Row i holds D**j * j! * binom_gen(lam_i + mu*j, j) =
    prod_{t<j} (L_i + M*j - t*D) at y^j, times k!/j!, so each composition's
    term is its entries' product over one denominator, D**k * (k!)**m.  The
    expanded row product is the composition sum term by term, so this stays
    definitional and the audits' reference side.
    """
    scale = _scales(k)
    return _direct_sum(d, k, [
        [prod(range(big_l + big_m * j, big_l + (big_m - d) * j, -d), start=scale[j])
         for j in range(k + 1)]
        for big_l in big_ls
    ])


def _phi_direct(d: int, big_ls: Sequence[int], big_m: int, k: int) -> tuple[int, int]:
    """``phi_direct`` at the scaled ints; L_i + M*j = D*(lam_i + mu*j), so
    the singular compositions are read from the ints.

    The weight cancels the falling product's first factor, so row i is k!
    at y^0 and ``L_i * prod_{1<=t<j} (L_i + M*j - t*D)`` times k!/j! at
    y^j, j >= 1.  The sum stays definitional in the same way as
    ``_omega_direct``.
    """
    m = len(big_ls)
    # for m >= 2 each j in 0..k is a part of some composition; for m = 1 only k
    parts = range(k, k + 1) if m == 1 else range(k + 1)
    if any(big_l + big_m * j == 0 for big_l in big_ls for j in parts):
        for comp in compositions(k, m):
            for i, (big_l, k_i) in enumerate(zip(big_ls, comp)):
                if big_l + big_m * k_i == 0:
                    raise SingularTermError(
                        f"lambda_{i + 1} + mu*k_{i + 1} = 0 in composition {comp}"
                    )
    scale = _scales(k)
    return _direct_sum(d, k, [
        [scale[0], *(
            prod(range(big_l + big_m * j - d, big_l + (big_m - d) * j, -d),
                 start=big_l * scale[j])
            for j in range(1, k + 1)
        )]
        for big_l in big_ls
    ])


def _scaled(mu: tuple[int, int], lambdas: Sequence[tuple]) -> tuple[int, list[int], int]:
    """The common denominator D of mu and the lambdas, each given as a
    (numerator, denominator) pair, each L_i = lam_i*D, and M = mu*D."""
    d = lcm(mu[1], *(den for _, den in lambdas))
    return d, [num * (d // den) for num, den in lambdas], mu[0] * (d // mu[1])


def _query_scaled(q: OmegaQuery) -> tuple[int, list[int], int]:
    return _scaled(q.mu.as_integer_ratio(), [lam.as_integer_ratio() for lam in q.lambdas])


def _scales(k: int) -> list[int]:
    """k!/j! for j = 0..k."""
    return [factorial(k) // factorial(j) for j in range(k + 1)]


def _direct_sum(d: int, k: int, rows: list[list[int]]) -> tuple[int, int]:
    """[y^k] of the product of the m int rows over ``D**k * (k!)**m``: O(m*k^2)
    int steps through ``power_product``, not one product per composition."""
    return power_product(((row, 1) for row in rows), k), d**k * factorial(k) ** len(rows)


# The closed forms depend on the lambdas only through their sum, so the
# closed line counts call these cores directly, at D = 1.  Each is the
# coefficient of x^k (x^top for the third) in a product of two binomial
# series, read by ``series.binomial_product_coefficients``.  Here
# binom(m+j-2, j) * (mu-1)^j is the x^j coefficient of (1+(1-mu)x)^(1-m),
# binom(a+j, j) * (1-mu)^j that of (1+(mu-1)x)^(-a-1), and
# binom(upper, k-j) * c^(k-j) that of (1+cx)^upper at x^(k-j), with the
# upper index lam + mu*k + m - 1.
#
# The third weighs the x^j term of K = (1+gx)^(-m), g = 1-mu, by
# lam + mu*(m+j).  That weight is linear in j, and x*K' = -m*g*x*(1+gx)^(-m-1),
# so the weighted kernel is
#   sum_j (lam + mu*m + mu*j) K_j x^j
#     = (1+gx)^(-m-1) * ((lam + mu*m)(1+gx) - mu*m*g*x)
#     = (1+gx)^(-m-1) * ((lam + mu*m) + g*lam*x),
# and its x^top coefficient against (1+x)^upper is
# (lam + mu*m) * h_top + g*lam * h_(top-1), with h the coefficients of
# (1+gx)^(-m-1) * (1+x)^upper: the helper's pair.
#
# The helper scales the x^j coefficient by D^(3j), and each core divides
# once at the end.  At D = 1 the first two denominators are 1; L and M must
# then be ints, since the helper refuses a Fraction with TypeError rather
# than floor it.

def _omega_1(d: int, big_l: int, big_m: int, m: int, k: int) -> tuple[int, int]:
    upper = big_l + big_m * k + (m - 1) * d
    total, _ = binomial_product_coefficients((1 - m) * d, d - big_m, upper, d, k, d)
    return total, d ** (3 * k)


def _omega_2(d: int, big_l: int, big_m: int, m: int, k: int) -> tuple[int, int]:
    upper = big_l + big_m * k + (m - 1) * d
    total, _ = binomial_product_coefficients(
        -big_l - (big_m - d) * k - d, big_m - d, upper, big_m, k, d
    )
    return total, d ** (3 * k)


def _omega_3(
    d: int, big_l: int, big_m: int, m: int, k: int, variant: str
) -> tuple[int, int]:
    if k < 1:
        raise ValueError("the third expansion needs k >= 1")
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    top = k - (0 if variant == "printed" else 1)
    upper = big_l + big_m * k + (m - 1) * d
    # the fold above over D^(3*top + 1): h is scaled by D^(3*top), h_before
    # by D^(3*top - 3), so lam + mu*m gains D and g*lam = (D - M)*L/D^2
    # gains D^4
    h, h_before = binomial_product_coefficients(
        -(m + 1) * d, d - big_m, upper, d, top, d
    )
    total = (big_l + big_m * m) * h + (d - big_m) * d * d * big_l * h_before
    return total, d ** (3 * top + 1) * k


def omega_closed_1(q: OmegaQuery) -> Fraction:
    d, big_ls, big_m = _query_scaled(q)
    return Fraction(*_omega_1(d, sum(big_ls), big_m, q.m, q.k))


def omega_closed_2(q: OmegaQuery) -> Fraction:
    d, big_ls, big_m = _query_scaled(q)
    return Fraction(*_omega_2(d, sum(big_ls), big_m, q.m, q.k))


def omega_closed_3(q: OmegaQuery, variant: str = "corrected") -> Fraction:
    d, big_ls, big_m = _query_scaled(q)
    return Fraction(*_omega_3(d, sum(big_ls), big_m, q.m, q.k, variant))


def phi_closed(q: OmegaQuery) -> Fraction:
    """``lam/(lam + mu*k) * binom_gen(lam + mu*k, k)`` with lam the lambdas'
    sum; singular if the denominator is 0."""
    d, big_ls, big_m = _query_scaled(q)
    return Fraction(*_phi_closed(d, sum(big_ls), big_m, q.k))


def _phi_closed(d: int, big_l: int, big_m: int, k: int) -> tuple[int, int]:
    """``phi_closed`` at the scaled ints, as (numerator, denominator): with
    a = L + M*k, ``L * prod_{t<k} (a - t*D) / (a * D**k * k!)``, which is 1
    at k = 0."""
    a = big_l + big_m * k
    if a == 0:
        raise SingularTermError("lambda + mu*k = 0")
    return big_l * prod(range(a, a - k * d, -d)), a * d**k * factorial(k)


def hwang_wei_check(n_list: Sequence[int], k: int) -> tuple[Fraction, int]:
    """Both sides of the mu = -1 specialization, for at least one int row
    length n_i (each read through ``operator.index``).

    Left: the direct composition sum with lambdas ``n_i + 1`` and mu = -1.
    Right: ``sum_j binom(m+j-2, j) * binom(n+1-k-2j, k-2j)`` with n = sum n_i.
    The caller asserts equality.
    """
    n_list = [_integer(v, "n_i") for v in n_list]
    if not n_list:
        raise ValueError("need at least one row length")
    num, den, right = _hwang_wei(n_list, _count(k, "k"))
    return Fraction(num, den), right


def _hwang_wei(n_list: Sequence[int], k: int) -> tuple[int, int, int]:
    """``hwang_wei_check``'s left side as (numerator, denominator), and its right."""
    m, n = len(n_list), sum(n_list)
    right = sum(
        binom_gen(m + j - 2, j) * binom_gen(n + 1 - k - 2 * j, k - 2 * j)
        for j in range(k + 1)
    )
    return *_omega_direct(1, [v + 1 for v in n_list], -1, k), right


def gould_check(a: Rational, b: Rational, c: Rational, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the two-part convolution identity: Phi with the two
    lambdas (a, b) and mu = c at k = n, as its direct sum and its closed form.

    Left: ``sum_{k=0}^{n} a/(a+ck) binom(a+ck, k) * b/(b+c(n-k)) binom(b+c(n-k), n-k)``.
    Right: ``(a+b)/(a+b+cn) * binom(a+b+cn, n)`` (evaluated at n).
    Raises SingularTermError if any denominator vanishes.
    """
    q = OmegaQuery((a, b), c, _count(n, "n"))
    return phi_direct(q), phi_closed(q)


def _integer(value: int, name: str) -> int:
    """``operator.index(value)``; one ValueError unless that is an int."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _count(value: int, name: str) -> int:
    """``operator.index(value)``; one ValueError unless that is an int >= 0."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")
    return value
