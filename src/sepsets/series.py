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
``coefficient`` (or taken whole by ``truncated_product``).

The closed line sums and ``h_series`` each read x^k of a product of two
binomial series, f = (1+alpha*x)**A * (1+beta*x)**B, with alpha = c1/d,
A = a1/d, beta = c2/d and B = a2/d for int numerators over one common
denominator d (d = 1 for the counts).  ``binomial_product_coefficients``
reads it by f's differential equation, (1+alpha*x)(1+beta*x) f' =
(A*alpha*(1+beta*x) + B*beta*(1+alpha*x)) f (f is D-finite: Stanley,
*Enumerative Combinatorics II*, section 6.4).  Its x^j coefficient, with
g_j = d**(3*j) * [x^j] f, is the three-term recurrence

    (j+1) g_(j+1) = (u - v*j) g_j + w*(s - j*d) g_(j-1),
    u = d(a1*c1 + a2*c2), v = d^2 (c1 + c2), w = d^3 c1*c2, s = a1 + a2 + d,

from g_0 = 1 and g_(-1) = 0.  The division by j + 1 is exact, because
every g_j is an integer: it is a sum of products of the two series' scaled
coefficients d**(3*i) * binom(a/d, i) * (c/d)**i, and each of those is
an integer, since ``d**(2*i) * binom(a/d, i) = d**i * a(a-d)...(a-(i-1)d)
/ i!`` is one (a prime dividing d meets d**i against v_p(i!) < i, and for
any other prime the i terms of a progression whose step d is coprime to it
carry at least v_p(i!) of its factors, as i consecutive integers do).
Each of the k steps multiplies the last two big ints by small ones, and
nothing is listed, so memory stays at a few ints of the answer's size.

``truncated_product`` multiplies rows of nonnegative ints as one int when
that is faster (Kronecker substitution, 1882): each row becomes one int
with coefficient i in byte field i, the two ints are multiplied once, and
the product's fields are the convolution sums, since a field is wide
enough to hold any of them and so no carry crosses a field.  The
schoolbook loop does about len(a) * len(b) interpreter steps; the packed
product moves the work into one multiplication, which pays while the
coefficients are a few machine words.  Every field is as wide as the
largest sum, though, and most coefficients of a row are far smaller, so
wide fields multiply mostly zero padding; on a 2-vCPU CPython 3.11 the
loop wins again past a width of about 5.5 * sqrt(terms) bytes.  Only rows
of at least ``PACK_MIN_TERMS`` terms whose width stays within
``width**2 <= PACK_WIDTH_SCALE * terms`` are packed; short rows, wide
coefficients, negative entries (the Omega/Phi direct sums) and anything
but ``int`` (``PowerSeries``' ``Fraction``s, ``bool``) take the loop.

``PowerSeries`` wraps a coefficient tuple with a checked product.  No
count route uses it; it stays because the benchmark's tracer wraps its
``__mul__`` and ``coeff``.  The series count routes ``h_series`` and
``g_series`` live in ``counting``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from operator import index, mul

from .binomials import Rational


# The packed path's gate (see the module docstring): the fewest terms, and
# the largest width**2 / terms, at which one int multiplication beats the
# loop; both measured on squares of real composition rows.
PACK_MIN_TERMS = 14
PACK_WIDTH_SCALE = 20


def truncated_product(a: Sequence, b: Sequence, order: int) -> list:
    """Coefficients of x^0 .. x^order of the product of two coefficient
    sequences, in exact arithmetic.

    Rows of nonnegative ``int``s with at least ``PACK_MIN_TERMS`` terms
    up to x^order, whose field width stays within the module's gate, are
    multiplied as one packed int (``_packed_product``); every other
    product takes the schoolbook loop, which skips zero terms."""
    if (
        len(a) >= PACK_MIN_TERMS <= len(b)
        and order >= PACK_MIN_TERMS - 1
        and {*map(type, a), *map(type, b)} == {int}
        and min(a) >= 0 <= min(b)
    ):
        terms = min(len(a), len(b), order + 1)
        width = (max(a).bit_length() + max(b).bit_length() + terms.bit_length() + 7) // 8
        if width * width <= PACK_WIDTH_SCALE * terms:
            return _packed_product(a, b, order, width)
    out = [0] * (order + 1)
    for i in range(min(len(a), order + 1)):
        x = a[i]
        if x:
            for j in range(min(len(b), order + 1 - i)):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def _packed_product(a: Sequence, b: Sequence, order: int, width: int) -> list:
    """``truncated_product`` of two rows of nonnegative ints by one int
    multiplication, with ``width``-byte little-endian fields.  A field
    holds any convolution sum when width * 8 bits >= the bits of max(a)
    and of max(b) plus those of the number of terms a sum has (at most
    min(len(a), len(b), order + 1)); then no carry crosses a field, and
    the product's fields 0..order are the coefficients.  A square packs
    once."""
    top = order + 1
    square, a, b = b is a, a[:top], b[:top]
    packed = _pack(a, width)
    product = packed * (packed if square else _pack(b, width))
    fields = len(a) + len(b) - 1
    data = product.to_bytes(fields * width, "little")
    out = [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, min(fields, top) * width, width)
    ]
    return out + [0] * (top - len(out))


def _pack(row: Sequence, width: int) -> int:
    """The int whose byte field i, ``width`` bytes wide, holds row[i]."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in row]), "little")


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
    arrives; the first becomes the product as it is, with no product
    taken, and the final one meets the product only in
    ``read(total, last, k)``, against ``[1]`` when no other came:
    ``coefficient`` reads x^k alone, ``truncated_product`` gives the list of
    x^0..x^k."""
    total = last = None
    for row, count in factors:
        while count:
            if count & 1:
                if last is not None:
                    total = last if total is None else truncated_product(total, last, k)
                last = row
            count >>= 1
            if count:
                row = truncated_product(row, row, k)
    return read([1] if total is None else total, last, k)


def binomial_product_coefficients(
    a1: int, c1: int, a2: int, c2: int, k: int, d: int = 1
) -> tuple[int, int]:
    """The coefficients (g_k, g_(k-1)) of x^k and x^(k-1) in
    ``(1 + (c1/d)*x)**(a1/d) * (1 + (c2/d)*x)**(a2/d)``, for int a1, c1,
    a2, c2 and d >= 1, each scaled to the int ``g_j = d**(3*j) * [x^j]``;
    g_(-1) = 0, so k = 0 gives (1, 0).

    One loop of k steps by the product's three-term recurrence (see the
    module docstring).  a, c and d must be ints, since ``//`` would floor a
    ``Fraction`` step silently: pass a rational series as its numerators
    over d.  A ``Fraction`` or ``float`` raises ``TypeError``, d < 1 or
    k < 0 ``ValueError``.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    a1, c1, a2, c2, d = map(index, (a1, c1, a2, c2, d))
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    u, v = d * (a1 * c1 + a2 * c2), d * d * (c1 + c2)
    w, s = d**3 * c1 * c2, a1 + a2 + d
    g, prev = 1, 0
    for j in range(k):
        g, prev = ((u - v * j) * g + w * (s - j * d) * prev) // (j + 1), g
    return g, prev
