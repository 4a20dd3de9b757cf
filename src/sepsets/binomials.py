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

A binomial is evaluated in one of three ways.  A rational upper index
gives the falling product ``falling_factorial(a, k) / k!``.  An integer
one goes through ``binom_nat``, which ``binom_gen``'s int path reads too,
and that calls ``math.comb`` except in one case.  When k' = min(k, a - k)
is at least ``_FACTOR_K`` and a is at most ``_FACTOR_RATIO * k'``, the third
evaluation multiplies C(a, k)'s prime powers instead (Goetgheluck,
"Computing binomial coefficients", Amer. Math. Monthly 94, 1987).  It
exists because CPython 3.11's ``math.comb`` divides at every level of its
recursion, and those long divisions are quadratic, so at large k' they
take most of its time: C(3*10**6, 10**6) costs about 41 s there and
0.6 s from its primes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, islice
from math import comb, factorial, isqrt, prod

Rational = int | Fraction

# binom_nat's rule, read from a grid of timings against math.comb: the prime
# factors win at every measured k' >= _FACTOR_K with a <= _FACTOR_RATIO * k'
# (by 1.15x at the corner, C(96000, 1500)); math.comb wins by 1.3x at
# C(64000, 1000)
_FACTOR_K = 1500
_FACTOR_RATIO = 64


def binom_nat(a: int, k: int) -> int:
    """Counting binomial: 0 if ``k < 0``, ``a < 0`` or ``a < k``.

    With k' = min(k, a - k), C(a, k) is built from its prime factors when
    ``k' >= _FACTOR_K`` and ``a <= _FACTOR_RATIO * k'``, and is
    ``math.comb`` everywhere else.  The factored path holds a sieve of
    about a/2 bytes, at most 32 bytes per unit of k', and multiplies the
    prime factors in runs as it reads them, so it holds a few times the
    answer's size besides; its memory grows about linearly with a.
    """
    if k < 0 or a < 0 or a < k:
        return 0
    if k < _FACTOR_K:
        return comb(a, k)
    k = min(k, a - k)
    if k < _FACTOR_K or a > _FACTOR_RATIO * k:
        return comb(a, k)
    return _binom_factored(a, k)


def _binom_factored(a: int, k: int) -> int:
    """C(a, k) as a product of prime powers, for ``isqrt(a) <= k <= a - k``.

    One sieve of the odd numbers up to a serves three kinds of prime.  An
    odd p <= sqrt(a) has Legendre's exponent, the sum over p**i of
    a//p**i - k//p**i - b//p**i with b = a - k.  For sqrt(a) < p <= k that
    sum has one term, 0 or 1, and it is 1 when a % p < k % p (a carry
    when adding b and k in base p).  A prime p > k divides C(a, k) once
    when a multiple j*p lies in (b, a], and then a//p == j: so the primes
    of each j are the sieve slice (max(a//(j+1), b//j, k), a//j].  The
    power of 2 is the carry count of b + k in binary.

    The factors are read lazily and multiplied in runs of
    ``_PRODUCT_LEAF // 4``, as fast on a binomial's primes as the halving
    of ``_product`` on their list (runs of 128 or 256 were slower); one
    balanced tree then multiplies the runs' products.
    """
    b = a - k
    size = (a + 1) // 2  # index i stands for 2i + 1; index 0, for 1, is never read
    sieve = bytearray(b"\x01") * size
    r = isqrt(a)
    root_end, k_end = (r + 1) // 2, (k + 1) // 2  # the indices just past r and k
    for i in range(1, root_end):
        if sieve[i]:
            p, start = 2 * i + 1, 2 * i * (i + 1)  # start is the index of p*p
            sieve[start::p] = bytes((size - 1 - start) // p + 1)
    factors = []
    for p in compress(range(3, 2 * root_end + 1, 2), sieve[1:root_end]):
        e, q = 0, p
        while q <= a:
            e += a // q - k // q - b // q
            q *= p
        if e:
            factors.append(p**e)
    middle = compress(range(2 * root_end + 1, 2 * k_end + 1, 2), sieve[root_end:k_end])
    slices = (
        ((max(a // (j + 1), b // j, k) + 1) // 2, (a // j + 1) // 2)
        for j in range(1, a // (k + 1) + 1)
    )
    high = (compress(range(2 * lo + 1, 2 * hi + 1, 2), sieve[lo:hi]) for lo, hi in slices)
    factors = chain(factors, (p for p in middle if a % p < k % p), chain.from_iterable(high))
    runs = iter(lambda: list(islice(factors, _PRODUCT_LEAF // 4)), [])
    return _product(list(map(prod, runs)), 1) << (k.bit_count() + b.bit_count() - a.bit_count())


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


# up to this many factors of a falling product one ``math.prod`` pass is
# fastest; ``_product``'s halving leaves runs of half to all of it
_PRODUCT_LEAF = 256


def _product(factors, leaf: int = _PRODUCT_LEAF) -> int:
    """The product of a list or range of ints; 1 when it is empty.  Past
    ``leaf`` factors the two halves are multiplied recursively, a balanced
    product tree, so the big products meet operands of similar size
    instead of growing by one small factor at a time; ``leaf=1`` makes the
    whole tree balanced, for operands that are already big."""
    if len(factors) <= leaf:
        return prod(factors)
    half = len(factors) // 2
    return _product(factors[:half], leaf) * _product(factors[half:], leaf)


def _falling(top: int, k: int, step: int) -> int:
    """``top * (top - step) * ... * (top - (k-1)*step)`` for ``step >= 1``;
    1 for k = 0."""
    return _product(range(top, top - k * step, -step))


def binom_gen(a: Rational, k: int) -> Rational:
    """Generalized binomial ``falling_factorial(a, k) / k!``; 0 for ``k < 0``.

    An ``int`` upper index gives an ``int``, through the sign rule
    ``binom(-a, k) = (-1)**k * binom(a+k-1, k)`` when it is negative.
    """
    if k < 0:
        return 0
    if isinstance(a, int):
        return binom_nat(a, k) if a >= 0 else (-1) ** k * binom_nat(k - a - 1, k)
    return falling_factorial(a, k) / factorial(k)
