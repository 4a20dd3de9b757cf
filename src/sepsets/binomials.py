"""Exact binomial coefficients in the two conventions the counting formulas need.

Nothing here ever rounds: an integer upper index gives an ``int`` and a
rational one a ``fractions.Fraction``, both arbitrary precision.

Two distinct binomial conventions coexist on purpose:

* ``binom_nat`` is the counting convention: it returns 0 whenever the
  upper index is negative or smaller than the lower index.  Every
  subset-counting formula uses this one.
* ``binom_gen`` is the generalized coefficient ``a(a-1)...(a-k+1)/k!``
  for an arbitrary rational upper index.  It is nonzero for negative
  upper indices (e.g. ``binom_gen(-1, j) == (-1)**j``) and is the right
  convention for the algebraic identities.

Mixing them up silently produces wrong counts, hence the two names.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

Rational = int | Fraction


def binom_nat(a: int, k: int) -> int:
    """Counting binomial: 0 if ``k < 0``, ``a < 0`` or ``a < k``."""
    if k < 0 or a < 0 or a < k:
        return 0
    return comb(a, k)


def falling_factorial(a: Rational, k: int) -> Fraction:
    """``a(a-1)...(a-k+1)`` for rational ``a``; the empty product is 1.

    For a = p/q it is ``prod_{i<k} (p - i*q) / q**k``: one Fraction, built
    from an int product.
    """
    if k < 0:
        raise ValueError(f"falling_factorial needs k >= 0, got k={k}")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction(_falling(p, k, q), q**k)


# up to this many factors one ``math.prod`` pass is fastest; so every
# k <= 256 stays one call, as it was before the tree
_FALLING_LEAF = 256


def _falling(top: int, k: int, step: int) -> int:
    """``top * (top - step) * ... * (top - (k-1)*step)`` for ``step >= 1``;
    1 for k = 0.  Past ``_FALLING_LEAF`` factors the two halves are
    multiplied recursively, a balanced product tree, so the big products
    meet operands of similar size instead of growing by one small factor
    at a time."""
    if k <= _FALLING_LEAF:
        return prod(range(top, top - k * step, -step))
    half = k // 2
    return _falling(top, half, step) * _falling(top - half * step, k - half, step)


def binom_gen(a: Rational, k: int) -> Rational:
    """Generalized binomial ``falling_factorial(a, k) / k!``; 0 for ``k < 0``.

    An ``int`` upper index gives an ``int``, through the sign rule
    ``binom(-a, k) = (-1)**k * binom(a+k-1, k)`` when it is negative.
    """
    if k < 0:
        return 0
    if isinstance(a, int):
        return comb(a, k) if a >= 0 else (-1) ** k * comb(k - a - 1, k)
    return falling_factorial(a, k) / factorial(k)
