"""Core domain types, every count route and the validity rules they share.

The routes are the composition sums, the closed forms, the series, the
recurrences in n and the alternating sums between line and circle; one
composition engine serves the line's residue rows and the circle's residue
cycles.  ``ROUTES`` names the routes that ``count --method`` selects.
Nothing here calls the brute-force oracle.

Conventions, fixed once here:

* Objects sit at positions 1..n on a line or a circle.
* A pair of chosen positions is in conflict when their distance (on the
  circle: either arc's distance) is one of m, 2m, ..., p*m; a k-subset
  counts when no pair conflicts.
* ``h_*`` evaluators count line subsets, ``g_*`` circle subsets.
* Every route, the CLI's ``auto`` and the audit read the validity rules
  from here: ``_check_hg_args`` (n, k >= 0; m, p >= 1) and one range
  predicate per formula family, such as ``line_in_range``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import takewhile
from math import gcd

from .binomials import binom_nat
from .omega_phi import (
    omega_closed_1_total,
    omega_closed_2_total,
    omega_closed_3_total,
)
from .series import (
    binomial_coeffs,
    coefficient,
    kernel_coefficient,
    phi_residue,
    power_product,
    truncated_product,
)


class Topology(Enum):
    LINE = "line"
    CIRCLE = "circle"


class SeparationParams(namedtuple("SeparationParams", "m p")):
    """The pair (m, p): no two chosen positions at distance m, 2m, ..., p*m."""

    __slots__ = ()

    def __new__(cls, m: int, p: int) -> SeparationParams:
        _check_mp(m, p)
        return tuple.__new__(cls, (m, p))


class CountQuery(namedtuple("CountQuery", "topology n k params")):
    """One counting request: topology, (n, k) and the separation parameters."""

    __slots__ = ()

    def __new__(
        cls, topology: Topology, n: int, k: int, params: SeparationParams
    ) -> CountQuery:
        _check_hg_args(n, k, params.m, params.p)
        return tuple.__new__(cls, (topology, n, k, params))


def _row_counts(n: int, m: int) -> dict[int, int]:
    """How many of the m residue rows ``range(i, n + 1, m)``, i = 1..m, have
    each length, without building them: with n = r*m + ell, 1 <= ell <= m,
    ell rows hold r + 1 positions and m - ell rows r; lengths no row has are
    left out (at n = 0, r = -1 and all m rows are empty)."""
    r = (n - 1) // m
    ell = n - r * m
    return {s: count for s, count in ((r + 1, ell), (r, m - ell)) if count}


def h_composition(n: int, k: int, m: int, p: int) -> int:
    """Definitional line count: sum over row-wise compositions of k.

    Each composition (k_1..k_m) contributes
    ``prod_i binom_nat(|A_i| - p*(k_i - 1), k_i)``.  That sum is the
    coefficient of y^k in the product of the row polynomials
    ``sum_j binom_nat(|A_i| - p*(j - 1), j) * y^j``, which is how it is
    evaluated; equal rows are raised by repeated squaring.  Valid for all
    n, k >= 0 and always equals the brute-force count.
    """
    _check_hg_args(n, k, m, p)
    return _composition(_row_counts(n, m), k, _line_ways(p))


def h_composition_row(n: int, k: int, m: int, p: int) -> list[int]:
    """``[H(n, 0), ..., H(n, k)]`` from one product: ``h_composition``'s
    row polynomials, with the last product taken whole by
    ``truncated_product`` up to y^min(k, n) instead of read at y^k alone;
    zero past n.  This is what ``count_brute_row`` is to ``count_brute``."""
    _check_hg_args(n, k, m, p)
    top = min(k, n)
    row = _composition(_row_counts(n, m), top, _line_ways(p), truncated_product)
    return row + [0] * (k - top)


def _line_ways(p: int) -> Callable[[int, int], int]:
    """Entry j of the row polynomial of a length-s residue row: the
    j-subsets of a path of s objects with every two chosen ones more than p
    places apart."""
    return lambda s, j: binom_nat(s - p * (j - 1), j)


def g_composition(n: int, k: int, m: int, p: int) -> int:
    """Definitional circle count for all n, k >= 0: Kaplansky's circular
    count (1943) per residue cycle.

    With p' = min(p, (n-1)//m), as only distances below n are real, the
    conflicts split Z_n into g = gcd(n, m) cycles of length L = n/g, each
    the p'-th power of an L-cycle with ``c_j = L/j * binom_nat(L - p'*j - 1,
    j - 1)`` separated j-subsets; the count is [y^k] c(y)^g.
    """
    _check_hg_args(n, k, m, p)
    g, q = gcd(n, m), min(p, (n - 1) // m)
    return _composition(
        {n // g: g}, k, lambda s, j: s * binom_nat(s - q * j - 1, j - 1) // j
    )


def _composition(
    rows: dict[int, int],
    k: int,
    ways: Callable[[int, int], int],
    read: Callable = coefficient,
) -> int | list[int]:
    """[y^k] of the product over ``rows`` ({length s: count}) of
    ``(1 + sum_j ways(s, j) * y^j) ** count`` (every count >= 1), up to
    the first zero ``ways(s, j)``, by ``series.power_product``; ``read``
    is passed on: ``coefficient`` reads y^k alone, ``truncated_product``
    gives the list of y^0..y^k.  The count is 0 when k exceeds the total
    length, before any list is built; a caller passing
    ``truncated_product`` keeps k within that length."""
    if k > sum(s * count for s, count in rows.items()):
        return 0
    factors = (
        ([1, *takewhile(bool, (ways(s, j) for j in range(1, min(k, s) + 1)))], count)
        for s, count in rows.items()
    )
    return power_product(factors, k, read)


def h_closed_1(n: int, k: int, m: int, p: int) -> int:
    """First single-sum line formula, valid where ``line_in_range`` holds.

    Term by term it is ``h_series``'s sum,
    ``[y^k] (1+y)**(n+p*m+m-p*k-1) * (1+(p+1)*y)**(-(m-1))``, so the two
    routes do not check each other; ``h_composition``, ``h_recurrence`` and
    the oracle do."""
    _check_range("closed line formulas need", "line", n, k, m, p)
    return omega_closed_1_total(n + m * p, -p, m, k)


def h_closed_2(n: int, k: int, m: int, p: int) -> int:
    """Second single-sum line formula, valid where ``line_in_range`` holds."""
    _check_range("closed line formulas need", "line", n, k, m, p)
    return omega_closed_2_total(n + m * p, -p, m, k)


def h_closed_3(n: int, k: int, m: int, p: int, variant: str = "corrected") -> int:
    """Third single-sum line formula (needs ``k >= 1``).

    ``corrected`` shifts the inner binomial's lower index to ``k-1-j`` and
    matches the definitional count; ``printed`` keeps ``k-j`` and is wrong
    (the audit subsystem exhibits its counterexamples).
    """
    _check_range("closed line formulas need", "line", n, k, m, p)
    if k < 1:
        raise ValueError("h_closed_3 needs k >= 1")
    return _as_count(
        h_closed_3_value(n, k, m, p, variant), f"h_closed_3({variant})"
    )


def h_closed_3_value(
    n: int, k: int, m: int, p: int, variant: str = "corrected"
) -> Fraction:
    """Exact rational value of the third formula (the printed variant is not
    guaranteed to be an integer)."""
    return omega_closed_3_total(n + m * p, -p, m, k, variant)


def g_closed(n: int, k: int, m: int, p: int) -> int:
    """Circle count ``n/(n - p*k) * binom(n - p*k, k)``, valid where
    ``circle_in_range`` holds."""
    _check_range("g_closed needs", "circle", n, k, m, p)
    value, rest = divmod(n * binom_nat(n - p * k, k), n - p * k)
    if rest:
        raise ValueError(f"g_closed produced a non-integer value at n={n}, k={k}")
    return value


def h_for_identity(n: int, k: int, m: int, p: int) -> int:
    """Line count extended to all integer n for use inside identity sums:
    the empty selection counts 1 for every n (even n < 0); with k >= 1 a
    too-short line counts 0."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < k:
        return 0
    return h_composition(n, k, m, p)


def _line_counts(k: int) -> Callable[[int, int, int, int], int]:
    """``h_for_identity`` for every kk <= k, as ``h(nn, kk, m, p)``: each
    (nn, m, p) is read from one ``h_composition_row(nn, k, m, p)``, cached
    for as long as the returned function lives.  The empty selection counts
    1 for every nn, even nn < 0, and a negative kk counts 0."""
    @cache
    def row(nn: int, m: int, p: int) -> list[int]:
        return h_composition_row(nn, k, m, p)

    def h(nn: int, kk: int, m: int, p: int) -> int:
        if kk <= 0 or nn < 0:
            return int(kk == 0)
        return row(nn, m, p)[kk]

    return h


def g_for_identity(n: int, k: int, m: int, p: int) -> int:
    """Circle count extended to all integer n for identity sums: the empty
    selection counts 1 for every n; k >= 1 on a too-short circle counts 0.
    In-range points use the closed form, the rest the cycle composition."""
    if k <= 0 or n < k:
        return int(k == 0)
    if circle_in_range(n, k, m, p):
        return g_closed(n, k, m, p)
    return g_composition(n, k, m, p)


def g_from_h(n: int, k: int, m: int, p: int) -> int:
    """Circle count assembled from line counts by deleting the wrap-around
    zone: ``sum_j binom(m, j) p^j H(n - p*m - (p+1)*j, k - j)``.

    Valid where ``circle_in_range`` holds.  The j = k boundary term relies
    on the empty-selection convention H(n, 0) = 1 for every n.
    """
    _check_range("g_from_h needs", "circle", n, k, m, p)
    return _g_from_h_sum(n, k, m, p, h_for_identity)


def _g_from_h_sum(n: int, k: int, m: int, p: int, h: Callable[..., int]) -> int:
    """``g_from_h``'s sum with no range check, each line count H(nn, kk)
    taken from ``h(nn, kk, m, p)``; ``h`` keeps ``h_for_identity``'s
    conventions, so the audit can pass one that reads a cached row."""
    total = 0
    for j in range(min(m, k) + 1):
        total += binom_nat(m, j) * p**j * h(n - p * m - (p + 1) * j, k - j, m, p)
    return total


def _recurrence(
    n: int, k: int, step: int,
    boundary: Callable[[int], int], seed: Callable[[int, int], int],
) -> int:
    """T(n, k) for T(nn, kk) = T(nn-1, kk) + T(nn-step, kk-1), applied for
    nn >= boundary(kk); below the boundary and on row 0, T = seed.

    Rows kk = 1..k are built in turn up to ``top = min(n, boundary(k) + k)``
    (row kk stops at ``top - step*(k - kk)``, as far as row k needs), and
    only the previous row is kept.  If n lies past ``top``, row k's k + 1
    values from x0 = boundary(k) on are extended to n by Newton's forward
    formula ``sum_j Delta^j T(x0, k) * binom(n - x0, j)``.  That is exact
    whenever row k is a polynomial of degree k from x0 - 1 on.  Two ways
    to get there:

    * Per-row starts: (1) seed(nn, 0) is the same for every nn, and (2)
      boundary(kk) - step >= boundary(kk-1) - 1.  Then row kk, from
      boundary(kk) - 1 on, is a seed plus a prefix sum of row kk-1 over a
      stretch where that row is a polynomial of degree kk-1.  Each row
      reads its seeds near its own start, so there are about k of them;
      with boundary(kk) spaced p*m apart the rows cost
      O(k*(top - x0) + p*m*k^2) big-int operations.
    * One start column shared by every row (boundary constant at x0): the
      seeds are read only at columns x0 - step .. x0 - 1.  If they are the
      true counts and the true counts obey the recurrence on every row
      from x0 on, every row equals the true count from x0 on; so the
      extension is exact when the true count of row k is a polynomial of
      degree k from x0 - 1 on.  This costs the step seed columns plus
      O(k^2) row and Newton steps.

    Either way the cost is the same at any n."""
    if k == 0 or n < boundary(k):
        return seed(n, k)
    x0 = boundary(k)
    top = min(n, x0 + k)
    prev_lo, prev = top + 1, []  # row 0 comes from the seed
    for kk in range(1, k + 1):
        lo, hi = boundary(kk), top - step * (k - kk)
        row = []
        left = seed(lo - 1, kk) if lo <= hi else 0
        for nn in range(lo, hi + 1):
            i = nn - step - prev_lo
            left += prev[i] if i >= 0 else seed(nn - step, kk - 1)
            row.append(left)
        prev_lo, prev = lo, row
    if top == n:
        return prev[-1]
    total, binom, x = 0, 1, n - x0
    for j in range(k + 1):
        total += prev[0] * binom
        prev = [b - a for a, b in zip(prev, prev[1:])]
        binom = binom * (x - j) // (j + 1)
    return total


def h_recurrence(n: int, k: int, m: int, p: int) -> int:
    """Line count via the recurrence H(n,k) = H(n-1,k) + H(n-p-1,k-1).

    Row kk obeys the recurrence from p*m*(kk-1) + 1 on, so every row
    starts at the one column x0 = p*m*(k-1) + 1.  The seeds are the
    definitional counts at the p + 1 columns x0-p-1 .. x0-1, each column
    one ``h_composition_row`` product (a column below 0 counts only the
    empty selection), so the result equals ``h_composition`` for every
    n, k >= 0.  Row k is a polynomial of degree k from x0 - 1 on, where
    the closed line sums hold, so it is built only to x0 + k and extended
    by Newton's forward formula.  Cost: p + 1 composition products plus
    O(k^2) row and Newton steps, the same at any n.  Below x0 and at
    k = 0 the answer is ``h_for_identity``.
    """
    _check_hg_args(n, k, m, p)
    x0 = p * m * (k - 1) + 1
    if k == 0 or n < x0:
        return h_for_identity(n, k, m, p)

    h = _line_counts(k)
    return _recurrence(n, k, p + 1, lambda kk: x0, lambda nn, kk: h(nn, kk, m, p))


def g_recurrence(n: int, k: int, m: int, p: int, variant: str = "corrected") -> int:
    """Circle count via the recurrence in n.

    ``corrected`` uses G(n,k) = G(n-1,k) + G(n-p-1,k-1) and equals the
    closed form on its whole validity range; ``printed`` uses the
    G(n-p,k-1) step and is kept for the audit.  The recurrence is applied
    for n >= m*(p*k+1) + 1; cells below are seeded from the closed form
    when in range, else from the cycle composition, so it equals
    ``g_composition`` for every n, k >= 0.  Rows are built only to
    m*(p*k+1) + 1 + k and extended by Newton's forward formula, so the cost
    does not grow with n.

    Unlike ``h_recurrence``, each row kk keeps its own start,
    m*(p*kk+1) + 1.  The ``printed`` step is not the true recurrence, so
    its values depend on where each row starts, and the audit pins them.
    On the corrected circle one shared start column measured no faster at
    k near 50 and slower at (n, k, m, p) = (10^5, 400, 2, 2), because its
    seeds are cheap closed forms in range.
    """
    _check_hg_args(n, k, m, p)
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")
    delta = 1 if variant == "corrected" else 0
    return _recurrence(
        n, k, p + delta, lambda kk: m * (p * kk + 1) + 1,
        lambda nn, kk: g_for_identity(nn, kk, m, p),
    )


def g_alternating(n: int, k: int, m: int, p: int) -> int:
    """Circle count as an alternating sum of line counts:
    ``sum_j (-1)^j binom(m,j) p^j (p+1)^(m-j) H(n-p*m-j, k)``.

    Valid where ``alternating_in_range`` holds.
    """
    _check_range("g_alternating needs", "alternating", n, k, m, p)
    return _g_alternating_sum(n, k, m, p, h_for_identity)


def _g_alternating_sum(n: int, k: int, m: int, p: int, h: Callable[..., int]) -> int:
    """``g_alternating``'s sum with no range check, each line count
    H(nn, k) taken from ``h(nn, k, m, p)`` with ``h_for_identity``'s
    conventions, so the audit can pass one that reads a cached row."""
    total = 0
    for j in range(m + 1):
        total += (
            (-1) ** j
            * binom_nat(m, j)
            * p**j
            * (p + 1) ** (m - j)
            * h(n - p * m - j, k, m, p)
        )
    return total


def h_from_g(n: int, k: int, m: int, p: int) -> int:
    """Line count as an alternating sum of circle counts:
    ``sum_j (-1)^j binom(m+j-1,j) p^j G(n+p*m-(p+1)*j, k-j)``.

    Stated where ``line_in_range`` holds; circle terms below the closed-form
    range come from the cycle composition.
    """
    _check_range("h_from_g needs", "line", n, k, m, p)
    total = 0
    for j in range(k + 1):
        total += (
            (-1) ** j
            * binom_nat(m + j - 1, j)
            * p**j
            * g_for_identity(n + p * m - (p + 1) * j, k - j, m, p)
        )
    return total


def h_series(n: int, k: int, m: int, p: int) -> int:
    """Line count via coefficient extraction, valid where ``line_in_range``
    holds: ``[y^k] (1+y)**(n+p*m+m-p*k-1) * (1+(p+1)*y)**(-(m-1))``, in
    O(k) big-int steps.

    This is ``h_closed_1``'s sum term by term (``omega_closed_1_total`` at
    lam = n + p*m, mu = -p is the same coefficient), so the two routes do
    not check each other; ``h_composition``, ``h_recurrence`` and the oracle
    do."""
    _check_range("h_series needs", "line", n, k, m, p)
    return kernel_coefficient(
        1 - m, p + 1, binomial_coeffs(n + p * m + m - p * k - 1, 1, k), k
    )


def g_series(n: int, k: int, m: int, p: int) -> int:
    """Circle count via coefficient extraction, valid where
    ``circle_in_range`` holds: ``[y^k] (1+y)**(n-p*k-1) * (1+(p+1)*y)``,
    which is ``phi_residue(n, -p, k)``."""
    _check_range("g_series needs", "circle", n, k, m, p)
    return phi_residue(n, -p, k)


def count_query(topology: str | Topology, n: int, k: int, m: int, p: int) -> CountQuery:
    """Convenience constructor used by the CLI and tests."""
    topo = Topology(topology) if not isinstance(topology, Topology) else topology
    return CountQuery(topo, n, k, SeparationParams(m, p))


# each ``count --method`` route by topology: method name -> name of the
# counting function here (the CLI's method list is the line's keys)
ROUTES = {
    "line": {
        "closed1": "h_closed_1",
        "closed2": "h_closed_2",
        "closed3": "h_closed_3",
        "composition": "h_composition",
        "series": "h_series",
        "recurrence": "h_recurrence",
    },
    "circle": {
        "closed1": "g_closed",
        "composition": "g_composition",
        "series": "g_series",
        "recurrence": "g_recurrence",
    },
}


def _route(topology: str, method: str) -> Callable[..., int]:
    """The counting function behind ``method`` on ``topology``."""
    name = ROUTES[topology].get(method)
    if name is None:
        raise ValueError(
            f"method {method} applies only to line topology; the circle has a "
            "single closed form (use closed1)"
        )
    # read from the module namespace at each call, never stored: a tracer
    # or a test that rebinds a module attribute must see every route call
    return globals()[name]


# each formula family's range of n, stated only here: (the rule as range
# errors print it, the least valid n for (k, m, p))

_RANGES = {
    "line": ("p*m*(k-1)", lambda k, m, p: p * m * (k - 1)),
    "circle": ("m*p*k+1", lambda k, m, p: m * p * k + 1),
    "alternating": ("m*(p*k+1)", lambda k, m, p: m * (p * k + 1)),
}


def line_in_range(n: int, k: int, m: int, p: int) -> bool:
    """Whether n is in the range of the closed line forms, ``h_series`` and
    ``h_from_g``."""
    return n >= _RANGES["line"][1](k, m, p)


def circle_in_range(n: int, k: int, m: int, p: int) -> bool:
    """Whether n is in the range of ``g_closed``, ``g_series``, ``g_from_h``
    and the bijection check."""
    return n >= _RANGES["circle"][1](k, m, p)


def alternating_in_range(n: int, k: int, m: int, p: int) -> bool:
    """Whether n is in the range of the alternating sum ``g_alternating``."""
    return n >= _RANGES["alternating"][1](k, m, p)


def _check_mp(m: int, p: int) -> None:
    if m < 1 or p < 1:
        raise ValueError(f"need m, p >= 1, got m={m}, p={p}")


def _check_hg_args(n: int, k: int, m: int, p: int) -> None:
    _check_mp(m, p)
    if k < 0:
        raise ValueError(f"need k >= 0, got k={k}")
    if n < 0:
        raise ValueError(f"need n >= 0, got n={n}")


def _check_range(what: str, family: str, n: int, k: int, m: int, p: int) -> None:
    """The argument check, then the range error when n is below the range
    of ``family``; ``what`` is the message's subject with its verb."""
    _check_hg_args(n, k, m, p)
    rule, bound = _RANGES[family]
    if n < bound(k, m, p):
        raise ValueError(f"{what} n >= {rule} = {bound(k, m, p)}, got n={n}")


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} produced a non-integer value {value}")
    return int(value)


__all__ = [
    "Topology",
    "SeparationParams",
    "CountQuery",
    "h_composition",
    "h_composition_row",
    "g_composition",
    "h_closed_1",
    "h_closed_2",
    "h_closed_3",
    "h_closed_3_value",
    "g_closed",
    "g_from_h",
    "h_from_g",
    "h_recurrence",
    "g_recurrence",
    "g_alternating",
    "h_series",
    "g_series",
    "line_in_range",
    "circle_in_range",
    "alternating_in_range",
    "h_for_identity",
    "g_for_identity",
    "count_query",
    "ROUTES",
]
