"""Brute-force ground truth: test, count and enumerate subsets directly
from the separation definition.

``count_brute`` counts with a transfer-matrix scan over the positions
(Stanley, *Enumerative Combinatorics I*, section 4.7) whose state is the
set of positions ahead that the choices so far rule out; both topologies
share it, the circle only adding the wrap-around distances.  It never
splits the positions into residue rows, so it stays independent of the
composition sums and closed forms it checks.  ``list_brute`` enumerates
the subsets by an iterative depth-first walk that shares no code with the
scan; tests check that the two agree.
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

    A state (B, c) holds c, the number chosen so far, and B, the positions
    ahead that an earlier choice rules out: bit i is set when position x+i
    conflicts with a chosen one, for the position x about to be decided.
    Choosing x rules out x+s for s in m, 2m, ..., p*m and, on the circle,
    for s in n-m, n-2m, ..., n-p*m (the pair's other arc); only 0 < s <= n-x
    is kept, so B never holds more than n-x bits.
    """
    steps = set(range(m, min(p * m, n - 1) + 1, m))
    if circular:
        steps |= set(range(n - m, max(n - p * m - 1, 0), -m))
    rule = sum(1 << s for s in steps)
    states = {(0, 0): 1}
    for x in range(1, n + 1):
        ahead = rule & ((2 << (n - x)) - 1)
        nxt: dict[tuple[int, int], int] = {}
        for (b, c), ways in states.items():
            key = (b >> 1, c)
            nxt[key] = nxt.get(key, 0) + ways
            if c < k and not b & 1:
                key = ((b | ahead) >> 1, c + 1)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(ways for (_, c), ways in states.items() if c == k)


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
