"""Truncated formal power series over exact coefficients: pure algebra,
with no counting semantics and no validity rules.

This is the coefficient-extraction engine behind the counting formulas:
every residue that appears in their derivations has the shape
"coefficient of y^k in an explicit product of binomial kernels", so a
plain truncated series with a Cauchy product is all that is needed.
Truncation order is always the target degree; callers pass T = k.  The
series count routes ``h_series`` and ``g_series`` live in ``counting``.

Coefficients are kept as given: integer parameters give ``int``
coefficients and rational ones ``Fraction``.  ``truncated_product`` is the
one polynomial product; the composition sums of both topologies use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .binomials import Rational


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


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients of x^0 .. x^order; arithmetic never reads beyond order."""

    coeffs: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a PowerSeries needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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


def binomial_series(a: Rational, c: Rational, order: int) -> PowerSeries:
    """Truncation of ``(1 + c*x)**a``: coefficient of x^j is binom_gen(a, j) * c^j."""
    if order < 0:
        raise ValueError("order must be >= 0")
    exact = isinstance(a, int) and isinstance(c, int)
    if not exact:
        a, c = Fraction(a), Fraction(c)
    coeffs = []
    term = 1  # binom_gen(a, j) * c^j, built incrementally
    for j in range(order + 1):
        coeffs.append(term)
        term = term * (a - j) * c
        # binom_gen(a, j+1) is an integer for integer a, so // is exact
        term = term // (j + 1) if exact else term / (j + 1)
    return PowerSeries(tuple(coeffs))


def phi_residue(lam: Rational, mu: Rational, k: int) -> Rational:
    """Coefficient of x^k in ``(1+x)**(lam + mu*k - 1) * (1 - (mu-1)*x)``.

    Whenever ``lam + mu*k != 0`` this equals
    ``lam/(lam + mu*k) * binom_gen(lam + mu*k, k)``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    kernel = binomial_series(lam + mu * k - 1, 1, k)
    linear = from_coeffs([1, -(mu - 1)], k)
    return (kernel * linear).coeff(k)
