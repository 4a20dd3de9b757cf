"""Identity audits: the catalogue of identities and the one loop that
verifies them and records counterexamples.  The count routes the
catalogue checks live in ``counting``.

Each identity in the catalogue is a generator of ``(raw, lhs, rhs)``
cases, paired with the function that formats a case's raw parameters (a
grid point, an ``OmegaQuery`` or a sampled instance) as the report's
params dict.  ``run_audit`` counts and compares the cases, and formats
the params of a failing case only.  Each identity is checked at every
grid point satisfying its validity precondition; mismatches are
collected as data (never raised).  The catalogue
deliberately includes the known-bad ``printed`` formula variants so their
counterexamples are reproduced, witnesses included.  Only the oracle
sides read the brute-force cap.

The grid identities read the oracle and the line counts from the rows
their engines keep, ``oracle._brute_counts`` for the last (k, cap) and
``counting._line_counts`` for the last k, so every audit with that k_max
and cap, in one command or across calls, builds each row once; nothing
else reads those stores, so no other command evicts them.  A caller
that patches an engine the rows are built from must clear both stores
before it audits.  A sampled instance that ``omega_phi`` finds singular
is skipped (Omega and Phi) or redrawn (Gould).

Validity preconditions are the count-level ones.  Three families need a
small margin over the ranges stated alongside the formulas, because at
the extreme boundary a term of the identity falls outside the regime
where the closed form equals the count (see the ``_eq4_*_applies``
rules).  The excluded boundary slices are exercised in the test
suite as regression counterexamples.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from collections.abc import Callable, Iterator
from enum import Enum
from fractions import Fraction
from functools import partial

from .counting import (
    Topology,
    _g_alternating_sum,
    _g_from_h_sum,
    _line_counts,
    alternating_in_range,
    circle_in_range,
    g_closed,
    g_for_identity,
    h_closed_1,
    h_closed_2,
    h_closed_3_value,
    h_from_g,
    line_in_range,
)
from .jsontext import report
from .omega_phi import (
    OmegaQuery,
    SingularTermError,
    gould_check,
    hwang_wei_check,
    omega_closed_1,
    omega_closed_2,
    omega_closed_3,
    omega_direct,
    phi_closed,
    phi_direct,
)
from .oracle import DEFAULT_CAP, _brute_counts


class IdentityId(str, Enum):
    EQ2_1 = "Eq2.1"
    EQ2_2 = "Eq2.2"
    EQ3_1 = "Eq3.1"
    EQ3_2 = "Eq3.2"
    EQ3_3_PRINTED = "Eq3.3-printed"
    EQ3_3_CORRECTED = "Eq3.3-corrected"
    EQ3_4 = "Eq3.4"
    EQ3_5 = "Eq3.5"
    THM_H1 = "Thm-H1"
    THM_H2 = "Thm-H2"
    THM_H3_PRINTED = "Thm-H3-printed"
    THM_H3_CORRECTED = "Thm-H3-corrected"
    EQ4_1 = "Eq4.1"
    EQ4_2_PRINTED = "Eq4.2-printed"
    EQ4_2_CORRECTED = "Eq4.2-corrected"
    EQ4_4 = "Eq4.4"
    EQ4_5 = "Eq4.5"
    HWANG_WEI = "HwangWei"
    GOULD = "Gould"
    BIJECTION_COUNT = "BijectionCount"


class GridSpec(namedtuple("GridSpec", "m_max p_max k_max n_max")):
    """Upper bounds of the parameter sweep (each range starts at its natural
    minimum: m, p >= 1 and k, n >= 0)."""

    __slots__ = ()

    def describe(self) -> str:
        return f"m<={self.m_max},p<={self.p_max},k<={self.k_max},n<={self.n_max}"


DEFAULT_GRID = GridSpec(m_max=3, p_max=2, k_max=4, n_max=24)

_GRID_RE = re.compile(
    r"^\s*m<=(\d+)\s*,\s*p<=(\d+)\s*,\s*k<=(\d+)\s*,\s*n<=(\d+)\s*$"
)


def parse_grid(text: str) -> GridSpec:
    """Parse a grid description of the form ``m<=A,p<=B,k<=C,n<=D``.

    A and B must be at least 1: m and p start at 1, so a smaller bound
    would leave no point to check.
    """
    match = _GRID_RE.match(text)
    if not match:
        raise ValueError(f"malformed grid {text!r}; expected m<=A,p<=B,k<=C,n<=D")
    grid = GridSpec(*(int(g) for g in match.groups()))
    if grid.m_max < 1 or grid.p_max < 1:
        raise ValueError(f"empty grid {text!r}; need m<=A and p<=B with A, B >= 1")
    return grid


class AuditReport(namedtuple("AuditReport", "identity grid checked failures")):
    """Outcome of sweeping one identity over a grid: the identity's name, the
    grid's description, the number of points checked and one dict per
    mismatch."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return self._asdict()

    def to_json(self, indent: int = 0) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``'s bytes, nested
        ``indent`` spaces deep (so a list of reports can hold it)."""
        return report(*self, indent=indent)

    def to_text(self) -> str:
        lines = [
            f"identity: {self.identity}",
            f"grid: {self.grid}",
            f"checked: {self.checked}",
            f"status: {'pass' if self.passed else f'FAIL ({len(self.failures)} failures)'}",
        ]
        for f in self.failures:
            params = " ".join(f"{key}={val}" for key, val in f["params"].items())
            lines.append(f"  {params}: lhs={f['lhs']} rhs={f['rhs']}")
        return "\n".join(lines)


def _jsonable(value: int | Fraction) -> int | str:
    """An int as it is; a Fraction as an int when whole, else as "a/b"."""
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def _failure(params: dict, lhs, rhs) -> dict:
    # params comes from the identity's formatter, whose values are ints and
    # strs already
    return {"params": params, "lhs": _jsonable(lhs), "rhs": _jsonable(rhs)}


# ---------------------------------------------------------------------------
# the catalogue: every identity is a generator of (raw, lhs, rhs) cases and
# the formatter of their raw parameters

Case = tuple[object, object, object]
Params = Callable[[object], dict]
Route = Callable[[int, int, int, int], object]


def _grid_cases(
    grid: GridSpec, applies: Callable[[int, int, int, int], bool], lhs: Route, rhs: Route
) -> Iterator[Case]:
    """Both sides at every grid point where the identity applies, the raw
    point (n, k, m, p) in the routes' own argument order."""
    for m in range(1, grid.m_max + 1):
        for p in range(1, grid.p_max + 1):
            for k in range(grid.k_max + 1):
                for n in range(grid.n_max + 1):
                    if applies(n, k, m, p):
                        yield (n, k, m, p), lhs(n, k, m, p), rhs(n, k, m, p)


def _grid_params(point: tuple[int, int, int, int]) -> dict:
    n, k, m, p = point
    return {"m": m, "p": p, "k": k, "n": n}


def _eq4_1_applies(n: int, k: int, m: int, p: int) -> bool:
    # count-level validity: at n == p*m*(k-1) with m, k >= 2 the H(n-1, k)
    # term falls below the closed-form regime and the identity fails; the
    # k == 1, n == 0 cell fails because H(n-p-1, 0) = 1 has no subset to
    # extend.  Both slices are regression-tested as counterexamples.
    if k < 1 or not line_in_range(n, k, m, p):
        return False
    if k == 1 and n == 0:
        return False
    if k >= 2 and m >= 2 and not line_in_range(n - 1, k, m, p):
        return False
    return True


def _eq4_2_applies(n: int, k: int, m: int, p: int) -> bool:
    # at m == 1, n == p*k + 1 the G(n-1, k) term sits where the closed form
    # is singular and the count-level identity fails; skipped (regression-
    # tested as a counterexample).
    if k < 1 or not alternating_in_range(n, k, m, p):
        return False
    if m == 1 and k >= 2 and not circle_in_range(n - 1, k, m, p):
        return False
    return True


def _eq4_5_applies(n: int, k: int, m: int, p: int) -> bool:
    # count-level validity needs a margin over n >= m*p*(k-1) for k >= 2:
    # the j = 0 circle term G(n + p*m, k) must reach the closed-form range
    # (m >= 2), and for m == 1 the late terms dominate instead.
    if k <= 1:
        return n >= 0
    if m == 1:
        return n >= (p + 1) * (k - 1) + 1
    return n >= m * p * (k - 1) + 1


def _random_fraction(rng: random.Random, num_bound: int = 20, den_bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _omega_cases(
    grid: GridSpec,
    rng: random.Random,
    lhs: Callable[[OmegaQuery], Fraction],
    rhs: Callable[[OmegaQuery], Fraction],
    min_k: int = 0,
) -> Iterator[Case]:
    """42 instances: two witnesses at k = 2, then seeded random ones with
    k >= min_k.  An instance with a singular side is skipped."""
    queries = [
        OmegaQuery((Fraction(4), Fraction(4)), Fraction(-1), 2),
        OmegaQuery((Fraction(1), Fraction(1)), Fraction(1), 2),
    ]
    m_hi = max(1, min(grid.m_max, 4))
    k_hi = max(min_k, min(grid.k_max, 5))
    while len(queries) < 42:
        m = rng.randint(1, m_hi)
        k = rng.randint(min_k, k_hi)
        lambdas = tuple(_random_fraction(rng) for _ in range(m))
        queries.append(OmegaQuery(lambdas, _random_fraction(rng), k))
    for q in queries:
        try:
            sides = lhs(q), rhs(q)
        except SingularTermError:
            continue
        yield q, *sides


def _omega_params(q: OmegaQuery) -> dict:
    lambdas = "(" + ",".join(str(v) for v in q.lambdas) + ")"
    return {"lambdas": lambdas, "mu": str(q.mu), "k": q.k}


def _hwang_wei_cases(grid: GridSpec, rng: random.Random) -> Iterator[Case]:
    instances: list[tuple[tuple[int, ...], int]] = [((3, 3), 2), ((2,), 1)]
    m_hi = max(1, min(grid.m_max, 4))
    while len(instances) < 42:
        m = rng.randint(1, m_hi)
        k = rng.randint(0, min(grid.k_max, 6))
        instances.append((tuple(rng.randint(0, 10) for _ in range(m)), k))
    for n_list, k in instances:
        yield (n_list, k), *hwang_wei_check(n_list, k)


def _hwang_wei_params(instance: tuple[tuple[int, ...], int]) -> dict:
    n_list, k = instance
    return {"n_list": str(n_list), "k": k}


def _gould_cases(rng: random.Random) -> Iterator[Case]:
    """42 instances: two witnesses, then seeded random ones; a draw that
    ``gould_check`` finds singular is redrawn."""
    witnesses = [
        (Fraction(1), Fraction(1), Fraction(1), 2),
        (Fraction(1), Fraction(2), Fraction(0), 2),
    ]
    checked = 0
    while checked < 42:
        if witnesses:
            a, b, c, n = witnesses.pop(0)
        else:
            a, b, c = (_random_fraction(rng, 8, 8) for _ in range(3))
            n = rng.randint(0, 6)
        try:
            sides = gould_check(a, b, c, n)
        except SingularTermError:
            continue
        checked += 1
        yield (a, b, c, n), *sides


def _gould_params(instance: tuple[Fraction, Fraction, Fraction, int]) -> dict:
    a, b, c, n = instance
    return {"a": str(a), "b": str(b), "c": str(c), "n": n}


def _cases(
    identity: IdentityId, grid: GridSpec, cap: int, rng: random.Random
) -> tuple[Params, Iterator[Case]]:
    """The catalogue: the params formatter and the cases of one identity on
    one grid, reading the oracle and the line counts from the rows kept for
    (grid.k_max, cap)."""
    brute, line = _brute_counts(grid.k_max, cap), _line_counts(grid.k_max)
    line_brute = partial(brute, Topology.LINE)
    circle_brute = partial(brute, Topology.CIRCLE)

    # a grid identity sets (applies, lhs, rhs); a sampled family returns
    match identity:
        case IdentityId.EQ2_1:
            sides = (lambda *_: True), line_brute, line
        case IdentityId.EQ2_2:
            sides = (
                circle_in_range,
                circle_brute,
                lambda n, k, m, p: _g_from_h_sum(n, k, m, p, line),
            )
        case IdentityId.EQ3_1:
            return _omega_params, _omega_cases(grid, rng, omega_direct, omega_closed_1)
        case IdentityId.EQ3_2:
            return _omega_params, _omega_cases(grid, rng, omega_direct, omega_closed_2)
        case IdentityId.EQ3_3_PRINTED | IdentityId.EQ3_3_CORRECTED:
            variant = "printed" if identity is IdentityId.EQ3_3_PRINTED else "corrected"
            closed = partial(omega_closed_3, variant=variant)
            return _omega_params, _omega_cases(grid, rng, omega_direct, closed, min_k=1)
        case IdentityId.EQ3_4:
            return _omega_params, _omega_cases(grid, rng, phi_direct, phi_closed)
        case IdentityId.EQ3_5:
            sides = circle_in_range, circle_brute, g_closed
        case IdentityId.THM_H1:
            sides = line_in_range, line, h_closed_1
        case IdentityId.THM_H2:
            sides = line_in_range, line, h_closed_2
        case IdentityId.THM_H3_PRINTED | IdentityId.THM_H3_CORRECTED:
            variant = "printed" if identity is IdentityId.THM_H3_PRINTED else "corrected"
            sides = (
                lambda n, k, m, p: k >= 1 and line_in_range(n, k, m, p),
                line,
                partial(h_closed_3_value, variant=variant),
            )
        case IdentityId.EQ4_1:
            sides = (
                _eq4_1_applies,
                line,
                lambda n, k, m, p: line(n - 1, k, m, p) + line(n - p - 1, k - 1, m, p),
            )
        case IdentityId.EQ4_2_PRINTED | IdentityId.EQ4_2_CORRECTED:
            delta = 0 if identity is IdentityId.EQ4_2_PRINTED else 1
            sides = (
                _eq4_2_applies,
                g_for_identity,
                lambda n, k, m, p: g_for_identity(n - 1, k, m, p)
                + g_for_identity(n - p - delta, k - 1, m, p),
            )
        case IdentityId.EQ4_4:
            sides = (
                alternating_in_range,
                g_for_identity,
                lambda n, k, m, p: _g_alternating_sum(n, k, m, p, line),
            )
        case IdentityId.EQ4_5:
            sides = _eq4_5_applies, line, h_from_g
        case IdentityId.HWANG_WEI:
            return _hwang_wei_params, _hwang_wei_cases(grid, rng)
        case IdentityId.GOULD:
            return _gould_params, _gould_cases(rng)
        case IdentityId.BIJECTION_COUNT:
            sides = (
                lambda n, k, m, p: k >= 1 and circle_in_range(n, k, m, p),
                circle_brute,
                lambda n, k, m, p: circle_brute(n, k, 1, p),
            )
        case _:
            raise ValueError(f"unknown identity {identity!r}")
    return _grid_params, _grid_cases(grid, *sides)


def run_audit(identity: IdentityId, grid: GridSpec, cap: int = DEFAULT_CAP) -> AuditReport:
    """Check one identity at every in-range grid point, collecting mismatches.

    Deterministic: randomized instance families are seeded per identity.
    Failures are data, not errors.
    """
    rng = random.Random(f"sepsets-audit:{identity.value}")
    params, cases = _cases(identity, grid, cap, rng)
    checked = 0
    failures = []
    for raw, lhs, rhs in cases:
        checked += 1
        if lhs != rhs:
            failures.append(_failure(params(raw), lhs, rhs))
    return AuditReport(
        identity=identity.value,
        grid=grid.describe(),
        checked=checked,
        failures=failures,
    )

