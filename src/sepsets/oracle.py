"""Brute-force ground truth: test, count and enumerate subsets directly
from the separation definition.

The pair rule is stated once, in ``_forbidden``: the differences in 1..n-1
that are one of m, 2m, ..., p*m or, on the circle, n minus one of them.
The predicates, the scan and ``list_brute`` all read that set, whose size
is bounded by n, not by p.

``count_brute_row`` counts by a transfer-matrix scan (Stanley, *Enumerative
Combinatorics I*, section 4.7) that decides the positions one at a time in
a breadth-first order, reading each one's conflicts straight from the
forbidden differences F, so it keeps O(n + |F|) ints besides its states.
A state is the set of positions ahead that the choices so far rule out.
With p' = min(p, (n-1)//m), the scan holds at most p' + 1 states on the
line and (p' + 1)^2 on the circle: a measured bound, which tests pin at
every m <= n + 1 for n <= 40, p <= 6 and at large points that reach it.
Each state's value packs the counts for every size 0..k into one int, so
one scan gives the whole row; ``count_brute`` reads one entry of it, and
``_brute_reader`` reads each row it is asked for once, at every size.  The
scan never splits the positions into residue rows, so it stays
independent of the composition sums and closed forms it checks.
``list_brute`` enumerates the subsets by an iterative depth-first walk that
shares only the rule with the scan, not its algorithm; tests check that the
two agree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import cache
from itertools import combinations

from .counting import CountQuery, SeparationParams, Topology, count_query

DEFAULT_CAP = 32


class EnumerationCapError(ValueError):
    """Raised when a brute-force request exceeds the configured cap."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"brute force capped at n <= {cap}, got n={n}")
        self.n = n
        self.cap = cap


def kernel_backend() -> str:
    """Name of the counting implementation; always 'python'."""
    return "python"


def is_separate_line(positions: Sequence[int], params: SeparationParams) -> bool:
    """True iff no pair of positions differs by m, 2m, ..., p*m."""
    _check_positions(positions)
    return _separate(positions, positions[-1] if positions else 0, params, False)


def is_separate_circle(
    positions: Sequence[int], n: int, params: SeparationParams
) -> bool:
    """True iff no pair conflicts along either arc: neither the position
    difference d nor its complement n - d may be m, 2m, ..., p*m."""
    _check_positions(positions)
    if positions and positions[-1] > n:
        raise ValueError(f"position {positions[-1]} outside 1..{n}")
    return _separate(positions, n, params, True)


def _separate(
    positions: Sequence[int], n: int, params: SeparationParams, circular: bool
) -> bool:
    """True iff no pair of the positions, all in 1..n, conflicts."""
    forbidden = _forbidden(n, params.m, params.p, circular)
    return all(b - a not in forbidden for a, b in combinations(positions, 2))


def _forbidden(n: int, m: int, p: int, circular: bool) -> frozenset[int]:
    """The differences in 1..n-1 at which two of n positions conflict: m,
    2m, ..., p*m and, on the circle, n minus each of them.  Only the
    multiples below n are built, so a huge p builds no huge set."""
    diffs = range(m, min(p * m, n - 1) + 1, m)
    if circular:
        return frozenset(diffs).union(n - d for d in diffs)
    return frozenset(diffs)


def count_brute(q: CountQuery, cap: int = DEFAULT_CAP) -> int:
    """Count the valid k-subsets from the definition; rejects n above the cap."""
    if q.n > cap:
        raise EnumerationCapError(q.n, cap)
    # a k above n counts 0, and a huge k would build a row of k + 1 zeros
    if q.k > q.n:
        return 0
    return count_brute_row(q, cap)[q.k]


def count_brute_row(q: CountQuery, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The counts of valid c-subsets for c = 0..q.k, from one scan; rejects
    n above the cap."""
    if q.n > cap:
        raise EnumerationCapError(q.n, cap)
    # sizes above n count 0: the scan stops at n and the row is padded
    k = min(q.k, q.n)
    circular = q.topology is Topology.CIRCLE
    diffs = sorted(_forbidden(q.n, q.params.m, q.params.p, circular))
    return _scan(q.n, diffs, k) + (0,) * (q.k - k)


def _brute_reader(k: int, cap: int) -> Callable[[Topology, int, int, int, int], int]:
    """``count_brute`` for every kk <= k, as ``brute(topology, n, kk, m, p)``:
    each (topology, n, m, p) is read from one ``count_brute_row`` scan to
    min(k, n) with the cap ``cap``, built on first read, and a kk above n
    counts 0, so a row holds at most n + 1 counts whatever k is.  A row
    past the cap raises each time it is read, as ``count_brute`` does at
    every kk, since exceptions are not cached.  A negative kk raises
    ``count_query``'s argument error before the row is read, so a row past
    the cap gets that error first, as ``count_brute`` does."""
    @cache
    def row(topology: Topology, n: int, m: int, p: int) -> tuple[int, ...]:
        return count_brute_row(count_query(topology, n, min(k, n), m, p), cap)

    def brute(topology: Topology, n: int, kk: int, m: int, p: int) -> int:
        if kk < 0:  # a negative index would read the row from its end
            count_query(topology, n, kk, m, p)
        counts = row(topology, n, m, p)
        return counts[kk] if kk <= n else 0

    return brute


def _order(n: int, diffs: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The positions 0..n-1 (position x+1 is x) in the scan's order, each
    with the set of later positions that choosing it rules out (bit j: the
    position j places on).  The order is a breadth-first search, each
    component from its least unvisited position; the neighbours of v come
    out in index order with no sort and no neighbour list: v - d for the
    sorted ``diffs`` walked backwards, skipping d > v, then v + d walked
    forwards, stopping at the first past n - 1.
    """
    where = [-1] * n  # each position's place in the order, once reached
    order: list[int] = []
    size = 0  # len(order)
    start = 0
    for i in range(n):
        if i == size:  # the component is done: start the next one
            while where[start] >= 0:
                start += 1
            where[start] = i
            order.append(start)
            size += 1
        v = order[i]
        ahead = 0
        for d in reversed(diffs):
            if d > v:
                continue
            u = v - d
            w = where[u]
            if w < 0:
                w = where[u] = size
                order.append(u)
                size += 1
            if w > i:
                ahead |= 1 << (w - i)
        for d in diffs:
            u = v + d
            if u >= n:
                break
            w = where[u]
            if w < 0:
                w = where[u] = size
                order.append(u)
                size += 1
            if w > i:
                ahead |= 1 << (w - i)
        yield v, ahead


def _scan(n: int, diffs: Sequence[int], k: int) -> tuple[int, ...]:
    """The counts of valid c-subsets of n positions for c = 0..k, where two
    positions conflict when their difference is in the sorted ``diffs``.

    Positions are decided one at a time in ``_order``.  A state B is the
    set of positions ahead that earlier choices rule out: bit i is set when
    the i-th position from the one about to be decided conflicts with a
    chosen one.  Its value packs the counts by size into one int, size c at
    bits [c*W, (c+1)*W) with W = n + 1, since every count is below 2^n
    (Kronecker substitution); choosing a position shifts the value up one
    size, dropping sizes above k.  Besides the states, whose bound the
    module docstring states, it keeps O(n + len(diffs)) ints.
    """
    width = n + 1
    keep = (1 << (k + 1) * width) - 1
    states = {0: 1}
    for _, ahead in _order(n, diffs):
        nxt: dict[int, int] = {}
        for b, ways in states.items():
            key = b >> 1
            nxt[key] = nxt.get(key, 0) + ways
            if not b & 1:
                chosen = (ways << width) & keep
                if chosen:
                    key = (b | ahead) >> 1
                    nxt[key] = nxt.get(key, 0) + chosen
        states = nxt
    total = sum(states.values())
    mask = (1 << width) - 1
    return tuple(total >> c * width & mask for c in range(k + 1))


def list_brute(q: CountQuery, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every valid k-subset as a tuple of positions, lexicographically."""
    if q.n > cap:
        raise EnumerationCapError(q.n, cap)
    n, k = q.n, q.k
    forbidden = _forbidden(n, q.params.m, q.params.p, q.topology is Topology.CIRCLE)
    chosen: list[int] = []

    def conflicts(c: int) -> bool:
        for b in chosen:
            if c - b in forbidden:
                return True
        return False

    if k == 0:
        yield ()
        return
    # depth-first with an explicit stack: stack[d] iterates the candidates
    # for the (d+1)-th position, chosen holds the d positions picked so far
    stack = [iter(range(1, n - k + 2))]
    while stack:
        for c in stack[-1]:
            if not conflicts(c):
                break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        chosen.append(c)
        if len(chosen) == k:
            yield tuple(chosen)
            chosen.pop()
        else:
            stack.append(iter(range(c + 1, n - (k - len(chosen)) + 2)))


def _check_positions(positions: Sequence[int]) -> None:
    for a, b in zip(positions, positions[1:]):
        if a >= b:
            raise ValueError("positions must be strictly increasing")
    if positions and positions[0] < 1:
        raise ValueError("positions are 1-based")
