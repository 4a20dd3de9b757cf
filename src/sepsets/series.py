"""Truncated formal power series over exact coefficients: pure algebra,
with no counting semantics and no validity rules.

This is the coefficient-extraction engine behind the counting formulas:
every residue that appears in their derivations has the shape
"coefficient of y^k in an explicit product of binomial kernels", and only
that one coefficient is ever read.  So the counts use three helpers, each
O(k) big-int steps:

* ``binomial_coeffs`` lists the coefficients of ``(1 + c*x)**a`` up to
  x^order, each built from the one before in one loop, in ``int``: a and
  c are int numerators over one common denominator d (d = 1 for the
  counts), and entry j is scaled by d**(3*j);
* ``coefficient`` reads x^k of a product of two coefficient lists,
  ``sum_j a[j] * b[k-j]``, without building the product;
* ``kernel_coefficient`` is ``coefficient`` with a binomial kernel as its
  first factor, built in the same pass as it is read: the three closed
  line sums and ``h_series`` are each one call.

``phi_residue`` (so ``g_series``) needs no helper: its linear second
factor meets only two binomials, read directly with ``binom_gen``.

``truncated_product`` is the one full polynomial product; the composition
sums of both topologies square with it and answer their last product with
``coefficient``.  ``PowerSeries`` wraps a coefficient tuple with a checked
product, and ``binomial_series`` gives it the coefficients
``binom_gen(a, j) * c**j`` for int or ``Fraction`` parameters.  The series
count routes ``h_series`` and ``g_series`` live in ``counting``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import index, mul

from .binomials import Rational, binom_gen


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


def from_coeffs(values, order: int) -> PowerSeries:
    """Series with the given low-order coefficients, zero-padded/truncated."""
    if order < 0:
        raise ValueError("order must be >= 0")
    vals = list(values)[: order + 1]
    vals += [0] * (order + 1 - len(vals))
    return PowerSeries(tuple(vals))


def one(order: int) -> PowerSeries:
    return from_coeffs([1], order)


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


def binomial_series(a: Rational, c: Rational, order: int) -> PowerSeries:
    """Truncation of ``(1 + c*x)**a`` as a series: entry j is
    ``binom_gen(a, j) * c**j``."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return PowerSeries(tuple(binom_gen(a, j) * c**j for j in range(order + 1)))


def coefficient(a: Sequence, b: Sequence, k: int) -> Rational:
    """Coefficient of x^k in the product of two coefficient sequences,
    ``sum_j a[j] * b[k-j]``: at most k + 1 multiplications, and no product
    is built."""
    lo, hi = max(0, k + 1 - len(b)), min(len(a), k + 1)
    return sum(map(mul, a[lo:hi], reversed(b[k + 1 - hi : k + 1 - lo])))


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
