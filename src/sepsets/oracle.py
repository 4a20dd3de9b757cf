"""Brute-force ground truth: test, count and enumerate subsets directly
from the separation definition.

``count_brute`` counts with a transfer-matrix scan over the positions
(Stanley, *Enumerative Combinatorics I*, section 4.7): it never splits the
positions into residue rows, so it stays independent of the composition
sums and closed forms it checks.  ``list_brute`` enumerates the subsets by
a depth-first walk that shares no code with the scan; tests check that the
two agree.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .counting import CountQuery, SeparationParams, Topology

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
    forbidden = params.forbidden_diffs
    pos = list(positions)
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if pos[j] - pos[i] in forbidden:
                return False
    return True


def is_separate_circle(
    positions: Sequence[int], n: int, params: SeparationParams
) -> bool:
    """True iff no pair conflicts along either arc: neither the position
    difference d nor its complement n - d may be m, 2m, ..., p*m."""
    _check_positions(positions)
    if positions and positions[-1] > n:
        raise ValueError(f"position {positions[-1]} outside 1..{n}")
    forbidden = params.forbidden_diffs
    pos = list(positions)
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            d = pos[j] - pos[i]
            if d in forbidden or (n - d) in forbidden:
                return False
    return True


def count_brute(q: CountQuery, cap: int = DEFAULT_CAP) -> int:
    """Count the valid k-subsets from the definition; rejects n above the cap."""
    if q.n > cap:
        raise EnumerationCapError(q.n, cap)
    return _count_scan(
        q.n, q.k, q.params.m, q.params.p, q.topology is Topology.CIRCLE
    )


def _count_scan(n: int, k: int, m: int, p: int, circular: bool) -> int:
    """Scan positions 1..n once, deciding for each whether it is chosen.

    A state (F, W, c) holds c, the number chosen so far; W, the chosen
    positions among the last p*m (bit d-1 set when x-d is chosen, for the
    position x about to be decided); and, on the circle only, F, the chosen
    positions among 1..p*m (bit a-1 for position a).  x conflicts with an
    earlier a at distance m, 2m, ..., p*m when W has a bit of ``forb``, and
    across the wrap when n - (x - a) is such a distance; that a is at most
    p*m, so F holds it.
    """
    pm = p * m
    window = (1 << pm) - 1
    forb = 0
    for j in range(1, p + 1):
        forb |= 1 << (j * m - 1)
    states = {(0, 0, 0): 1}
    for x in range(1, n + 1):
        wrap = 0
        if circular:
            for j in range(1, p + 1):
                a = x - n + j * m
                if 1 <= a < x:
                    wrap |= 1 << (a - 1)
        mark = 1 << (x - 1) if circular and x <= pm else 0
        nxt: dict[tuple[int, int, int], int] = {}
        for (f, w, c), ways in states.items():
            key = (f, (w << 1) & window, c)
            nxt[key] = nxt.get(key, 0) + ways
            if c < k and not w & forb and not f & wrap:
                key = (f | mark, ((w << 1) | 1) & window, c + 1)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(ways for (_, _, c), ways in states.items() if c == k)


def list_brute(q: CountQuery, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, ...]]:
    """Yield every valid k-subset as a tuple of positions, lexicographically."""
    if q.n > cap:
        raise EnumerationCapError(q.n, cap)
    n, k, m, p = q.n, q.k, q.params.m, q.params.p
    circular = q.topology is Topology.CIRCLE
    pm = p * m
    chosen: list[int] = []

    def conflicts(c: int) -> bool:
        for b in chosen:
            d = c - b
            if d <= pm and d % m == 0:
                return True
            if circular:
                cd = n - d
                if cd <= pm and cd % m == 0:
                    return True
        return False

    def walk(start: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == k:
            yield tuple(chosen)
            return
        for c in range(start, n - (k - len(chosen)) + 2):
            if not conflicts(c):
                chosen.append(c)
                yield from walk(c + 1)
                chosen.pop()

    yield from walk(1)


def _check_positions(positions: Sequence[int]) -> None:
    for a, b in zip(positions, positions[1:]):
        if a >= b:
            raise ValueError("positions must be strictly increasing")
    if positions and positions[0] < 1:
        raise ValueError("positions are 1-based")
