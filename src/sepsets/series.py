"""Truncated formal power series over exact coefficients: pure algebra,
with no counting semantics and no validity rules.

This is the coefficient-extraction engine behind the counting formulas:
every residue that appears in their derivations has the shape
"coefficient of y^k in an explicit product of polynomials", and only that
one coefficient is ever read.

``power_product`` is the one product of row polynomials: the line's
residue rows, the circle's residue cycles and the Omega/Phi direct sums'
rows are each a list of (coefficient list, count) factors, raised by
repeated squaring with ``truncated_product`` and read at y^k by
``coefficient`` (or taken whole by ``truncated_product``).  The closed
sums and the series routes use four helpers, the first three O(k) big-int
steps:

* ``binomial_coeffs`` lists the coefficients of ``(1 + c*x)**a`` up to
  x^order, each built from the one before in one loop, in ``int``: a and
  c are int numerators over one common denominator d (d = 1 for the
  counts), and entry j is scaled by d**(3*j);
* ``coefficient`` reads x^k of a product of two coefficient lists,
  ``sum_j a[j] * b[k-j]``, without building the product;
* ``kernel_coefficient`` is ``coefficient`` with a binomial kernel as its
  first factor, built in the same pass as it is read: the first and third
  closed line sums and ``h_series`` are each one call.  It repeats
  ``coefficient(binomial_coeffs(a, c, k, d), b, k)`` on purpose: at the
  default audit grid's k <= 5, one call took 0.4-1.0 us against 1.5-2.2 us
  for building the list first (CPython 3.11, 2-vCPU Xeon VM), and the
  two-step form made the Thm-H1, Thm-H2 and Thm-H3-corrected audits about
  a fifth slower;
* ``binomial_pair_coefficient`` is x^k of a product of two binomial
  series, the second closed line sum.  Both its series have exponents of
  order n, so each loop step would multiply two ints of about k*log(n)
  bits; from k = ``SPLIT_MIN_K`` = 64 on it sums by binary splitting
  instead, whose large products are few and balanced.  The other three
  sums pair the big series with a short kernel, (1+(p+1)x)^(1-m) or
  (1+(1-mu)x)^(-m), so their loop steps already multiply a big int by a
  far smaller one: on ``closed1``'s arguments the split ran at 0.94x the
  loop's speed at k = 64 and 1.5x at 240, against 1.5x and 3.6x on
  ``closed2``'s, so they keep the loop until a workload at large k can
  show their gain.

``phi_residue`` (so ``g_series``) needs no helper: its linear second
factor meets only two binomials, read directly with ``binom_gen``.

``PowerSeries`` wraps a coefficient tuple with a checked product.  No
count route uses it; it stays because the benchmark's tracer wraps its
``__mul__`` and ``coeff``.  The series count routes ``h_series`` and
``g_series`` live in ``counting``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from math import factorial
from operator import index, mul

from .binomials import Rational, _falling, binom_gen


def truncated_product(a: Sequence, b: Sequence, order: int) -> list:
    """Coefficients of x^0 .. x^order of the product of two coefficient
    sequences, in exact arithmetic; zero terms are skipped."""
    out = [0] * (order + 1)
    for i in range(min(len(a), order + 1)):
        x = a[i]
        if x:
            for j in range(min(len(b), order + 1 - i)):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


class PowerSeries:
    """Coefficients of x^0 .. x^order, kept as the tuple ``coeffs``;
    arithmetic never reads beyond order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a PowerSeries needs at least the constant coefficient")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Rational:
        """Coefficient of x^k; rejects k outside 0..order."""
        if k < 0 or k > self.order:
            raise ValueError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"truncation orders differ: {self.order} != {other.order}"
            )
        product = truncated_product(self.coeffs, other.coeffs, self.order)
        return PowerSeries(tuple(product))


def binomial_coeffs(a: int, c: int, order: int, d: int = 1) -> list[int]:
    """Coefficients of x^0 .. x^order of ``(1 + (c/d)*x)**(a/d)``, for int
    a, c and d >= 1, each scaled to the int ``d**(3*j) * binom(a/d, j) *
    (c/d)**j`` and built from the one before; d = 1 gives
    ``binom_gen(a, j) * c**j``.

    Each step ``term * top * (d*c) // (j + 1)`` divides exactly, because
    ``d**(2*j) * binom(a/d, j) = d**j * a(a-d)...(a-(j-1)d) / j!`` is an
    integer: a prime dividing d meets d**j against v_p(j!) < j, and for any
    other prime the j terms of a progression whose step d is coprime to it
    carry at least v_p(j!) of its factors, as j consecutive integers do.
    a, c and d must be ints, since ``//`` would floor a ``Fraction`` step
    silently: pass a rational kernel as its numerators over d.  A
    ``Fraction`` or ``float`` raises ``TypeError``, and d < 1 ``ValueError``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    a, c, d = _int_kernel(a, c, d)
    coeffs = [term := 1]
    top, step = a, d * c
    for j in range(order):
        coeffs.append(term := term * top * step // (j + 1))
        top -= d
    return coeffs


def coefficient(a: Sequence, b: Sequence, k: int) -> Rational:
    """Coefficient of x^k in the product of two coefficient sequences,
    ``sum_j a[j] * b[k-j]``: at most k + 1 multiplications, and no product
    is built."""
    lo, hi = max(0, k + 1 - len(b)), min(len(a), k + 1)
    return sum(map(mul, a[lo:hi], reversed(b[k + 1 - hi : k + 1 - lo])))


def power_product(
    factors: Iterable[tuple[Sequence, int]], k: int, read: Callable = coefficient
):
    """[x^k] of the product of ``row ** count`` over ``factors``, at least
    one (coefficient list, count >= 1) pair; equal factors are raised by
    repeated squaring.  Each factor waits in ``last`` until the next one
    arrives, so the final one meets the product only in
    ``read(total, last, k)``: ``coefficient`` reads x^k alone,
    ``truncated_product`` gives the list of x^0..x^k."""
    total, last = [1], None
    for row, count in factors:
        while count:
            if count & 1:
                if last is not None:
                    total = truncated_product(total, last, k)
                last = row
            count >>= 1
            if count:
                row = truncated_product(row, row, k)
    return read(total, last, k)


def kernel_coefficient(a: int, c: int, b: Sequence, k: int, d: int = 1) -> int:
    """Coefficient of x^k in ``binomial_coeffs(a, c, k, d)`` times a series
    with at least k + 1 coefficients ``b``:
    ``coefficient(binomial_coeffs(a, c, k, d), b, k)`` in one pass, each
    binomial built from the one before as it is read; a, c and d are
    checked as in ``binomial_coeffs``."""
    a, c, d = _int_kernel(a, c, d)
    term, top, step = 1, a, d * c
    total = b[k]
    for j in range(k):
        term = term * top * step // (j + 1)
        top -= d
        total += term * b[k - 1 - j]
    return total


# From this k on, ``binomial_pair_coefficient`` sums by binary splitting.
# Interleaved medians of 31 pairs on ``closed2``'s own arguments at
# n = 10^6 + 6(k-1), m = 3, p = 2 (CPython 3.11, 2-vCPU Xeon VM) put the
# split at 1.1x the loop's speed at k = 32, 1.3x at 48, 1.5x at 64, 1.9x at
# 96, 2.3x at 128, 2.9x at 190 and 3.6x at 240; at the audit grid's k <= 5
# it took 4-6 us against the loop's 2-3.4 us.  Below 64 the gain is at most
# a few us, so the small-k loop that every audit takes is left as it was.
SPLIT_MIN_K = 64
_LEAF = 16  # terms per leaf of the split, summed by a loop


def binomial_pair_coefficient(
    a1: int, c1: int, a2: int, c2: int, k: int, d: int = 1
) -> int:
    """``kernel_coefficient(a1, c1, binomial_coeffs(a2, c2, k, d), k, d)``:
    x^k of the product of two scaled binomial series, a, c and d checked
    as there.

    Below ``SPLIT_MIN_K`` it is that expression.  From there on, where the
    loop would multiply two big ints per term, the terms
    ``t_j = A_j * B_(k-j)`` are summed by binary splitting (Haible and
    Papanikolaou, 1998) over their ratio ``t_(j+1)/t_j = c1*(a1 - j*d)*(k - j)
    / ((j + 1)*c2*(a2 - (k-j-1)*d))``, from the first nonzero term to the
    last: A_j vanishes past a1/d and B_i past a2/d when a1 or a2 is a
    nonnegative multiple of d, so no denominator in that range is 0.  The
    first term is computed directly, the ratios' (P, Q, T) in leaves of
    ``_LEAF`` terms merged in a balanced tree, and the sum is
    ``first * (Q + T) / Q``, one exact division.
    """
    if k < SPLIT_MIN_K:
        return kernel_coefficient(a1, c1, binomial_coeffs(a2, c2, k, d), k, d)
    a1, c1, d = _int_kernel(a1, c1, d)
    a2, c2, d = _int_kernel(a2, c2, d)
    if c1 == 0:  # A is 1 + 0x: only t_0 = B_k
        return _binomial_term(a2, c2, k, d)
    if c2 == 0:  # only t_k = A_k
        return _binomial_term(a1, c1, k, d)
    lo = max(0, k - a2 // d) if a2 >= 0 and a2 % d == 0 else 0
    hi = min(k, a1 // d) if a1 >= 0 and a1 % d == 0 else k
    if lo > hi:
        return 0
    first = _binomial_term(a1, c1, lo, d) * _binomial_term(a2, c2, k - lo, d)
    if lo == hi:
        return first

    def split(i: int, j: int) -> tuple[int, int, int]:
        # P and Q: the ratios' numerators and denominators over i <= s < j;
        # T / Q = sum over i <= s < j of the product of the ratios i..s
        if j - i <= _LEAF:
            p, q, t = 1, 1, 0
            for s in range(i, j):
                p *= c1 * (a1 - s * d) * (k - s)
                qs = (s + 1) * c2 * (a2 - (k - s - 1) * d)
                t = t * qs + p
                q *= qs
            return p, q, t
        mid = (i + j) // 2
        p1, q1, t1 = split(i, mid)
        p2, q2, t2 = split(mid, j)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(lo, hi)
    return first * (q + t) // q


def _binomial_term(a: int, c: int, j: int, d: int) -> int:
    """Entry j of ``binomial_coeffs(a, c, j, d)``,
    ``d**j * c**j * a(a-d)...(a-(j-1)d) / j!``, without the entries before."""
    return (d * c) ** j * _falling(a, j, d) // factorial(j)


def _int_kernel(a: int, c: int, d: int) -> tuple[int, int, int]:
    """a, c and d as ints, once per call: ``TypeError`` for a ``Fraction``
    or ``float``, ``ValueError`` for d < 1."""
    a, c, d = index(a), index(c), index(d)
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    return a, c, d


def phi_residue(lam: Rational, mu: Rational, k: int) -> Rational:
    """Coefficient of x^k in ``(1+x)**(lam + mu*k - 1) * (1 - (mu-1)*x)``.

    Whenever ``lam + mu*k != 0`` this equals
    ``lam/(lam + mu*k) * binom_gen(lam + mu*k, k)``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = lam + mu * k - 1  # only C(a, k) and C(a, k-1) meet the linear factor
    return binom_gen(a, k) + (1 - mu) * binom_gen(a, k - 1)
