"""Identity audits: the catalogue of identities, the one loop that verifies
them and records counterexamples, and the bijection cardinality check.
The count routes the catalogue checks live in ``counting``.

Each identity in the catalogue is a generator of ``(params, lhs, rhs)``
cases; ``run_audit`` counts, compares and records them.  Each identity is
checked at every grid point satisfying its validity precondition;
mismatches are collected as data (never raised).  The catalogue
deliberately includes the known-bad ``printed`` formula variants so their
counterexamples are reproduced, witnesses included.  Only the oracle
sides and ``bijection_count_check`` read the brute-force cap.

Validity preconditions are the count-level ones.  Three families need a
small margin over the ranges stated alongside the formulas, because at
the extreme boundary a term of the identity falls outside the regime
where the closed form equals the count (see the ``_eq4_*_applies``
rules).  The excluded boundary slices are exercised in the test
suite as regression counterexamples.
"""

from __future__ import annotations

import json
import random
import re
from collections import namedtuple
from collections.abc import Callable, Iterator
from enum import Enum
from fractions import Fraction
from functools import cache, partial

from .counting import (
    CountQuery,
    SeparationParams,
    Topology,
    _check_range,
    _g_alternating_sum,
    _g_from_h_sum,
    _line_counts,
    alternating_in_range,
    circle_in_range,
    count_query,
    g_closed,
    g_for_identity,
    h_closed_1,
    h_closed_2,
    h_closed_3_value,
    h_from_g,
    line_in_range,
)
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
from .oracle import DEFAULT_CAP, count_brute, count_brute_row


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

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


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return str(value)


def _failure(params: dict, lhs, rhs) -> dict:
    return {
        "params": {key: _jsonable(val) for key, val in params.items()},
        "lhs": _jsonable(lhs),
        "rhs": _jsonable(rhs),
    }


def bijection_count_check(
    n: int, k: int, m: int, p: int, cap: int = DEFAULT_CAP
) -> tuple[int, int]:
    """Both brute-force circle counts compared by the bijection-cardinality
    audit: separation parameters (m, p) versus (1, p).  They agree where
    ``circle_in_range`` holds (the catalogue's BijectionCount claim)."""
    _check_range("bijection check needs", "circle", n, k, m, p)
    lhs = count_brute(CountQuery(Topology.CIRCLE, n, k, SeparationParams(m, p)), cap)
    rhs = count_brute(CountQuery(Topology.CIRCLE, n, k, SeparationParams(1, p)), cap)
    return lhs, rhs


# ---------------------------------------------------------------------------
# the catalogue: every identity is a generator of (params, lhs, rhs) cases

Case = tuple[dict, object, object]
Route = Callable[[int, int, int, int], object]


def _grid_cases(
    grid: GridSpec, applies: Callable[[int, int, int, int], bool], lhs: Route, rhs: Route
) -> Iterator[Case]:
    """Both sides at every grid point where the identity applies.  The
    callables take the routes' own argument order (n, k, m, p)."""
    for m in range(1, grid.m_max + 1):
        for p in range(1, grid.p_max + 1):
            for k in range(grid.k_max + 1):
                for n in range(grid.n_max + 1):
                    if applies(n, k, m, p):
                        params = {"m": m, "p": p, "k": k, "n": n}
                        yield params, lhs(n, k, m, p), rhs(n, k, m, p)


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
    k >= min_k.  An instance whose left side is singular is skipped."""
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
            left = lhs(q)
        except SingularTermError:
            continue
        lambdas = "(" + ",".join(str(v) for v in q.lambdas) + ")"
        yield {"lambdas": lambdas, "mu": str(q.mu), "k": q.k}, left, rhs(q)


def _hwang_wei_cases(grid: GridSpec, rng: random.Random) -> Iterator[Case]:
    instances: list[tuple[tuple[int, ...], int]] = [((3, 3), 2), ((2,), 1)]
    m_hi = max(1, min(grid.m_max, 4))
    while len(instances) < 42:
        m = rng.randint(1, m_hi)
        k = rng.randint(0, min(grid.k_max, 6))
        instances.append((tuple(rng.randint(0, 10) for _ in range(m)), k))
    for n_list, k in instances:
        yield {"n_list": str(n_list), "k": k}, *hwang_wei_check(n_list, k)


def _gould_cases(rng: random.Random) -> Iterator[Case]:
    instances = [
        (Fraction(1), Fraction(1), Fraction(1), 2),
        (Fraction(1), Fraction(2), Fraction(0), 2),
    ]
    while len(instances) < 42:
        a, b, c = (_random_fraction(rng, 8, 8) for _ in range(3))
        n = rng.randint(0, 6)
        if a + b + c * n == 0 or any(
            a + c * k == 0 or b + c * (n - k) == 0 for k in range(n + 1)
        ):
            continue
        instances.append((a, b, c, n))
    for a, b, c, n in instances:
        params = {"a": str(a), "b": str(b), "c": str(c), "n": n}
        yield params, *gould_check(a, b, c, n)


def _cases(
    identity: IdentityId, grid: GridSpec, cap: int, rng: random.Random
) -> Iterator[Case]:
    """The catalogue: the cases of one identity on one grid."""
    @cache
    def brute_row(topology: Topology, n: int, m: int, p: int) -> tuple[int, ...]:
        # one oracle scan gives the counts for every k of the grid
        return count_brute_row(count_query(topology, n, grid.k_max, m, p), cap)

    def brute(topology: Topology, n: int, k: int, m: int, p: int) -> int:
        return brute_row(topology, n, m, p)[k]

    line_brute = partial(brute, Topology.LINE)
    circle_brute = partial(brute, Topology.CIRCLE)

    # one composition product gives the line counts for every k of the grid
    line = _line_counts(grid.k_max)

    match identity:
        case IdentityId.EQ2_1:
            return _grid_cases(grid, lambda *_: True, line_brute, line)
        case IdentityId.EQ2_2:
            return _grid_cases(
                grid,
                circle_in_range,
                circle_brute,
                lambda n, k, m, p: _g_from_h_sum(n, k, m, p, line),
            )
        case IdentityId.EQ3_1:
            return _omega_cases(grid, rng, omega_direct, omega_closed_1)
        case IdentityId.EQ3_2:
            return _omega_cases(grid, rng, omega_direct, omega_closed_2)
        case IdentityId.EQ3_3_PRINTED | IdentityId.EQ3_3_CORRECTED:
            variant = "printed" if identity is IdentityId.EQ3_3_PRINTED else "corrected"
            closed = partial(omega_closed_3, variant=variant)
            return _omega_cases(grid, rng, omega_direct, closed, min_k=1)
        case IdentityId.EQ3_4:
            return _omega_cases(grid, rng, phi_direct, phi_closed)
        case IdentityId.EQ3_5:
            return _grid_cases(grid, circle_in_range, circle_brute, g_closed)
        case IdentityId.THM_H1:
            return _grid_cases(grid, line_in_range, line, h_closed_1)
        case IdentityId.THM_H2:
            return _grid_cases(grid, line_in_range, line, h_closed_2)
        case IdentityId.THM_H3_PRINTED | IdentityId.THM_H3_CORRECTED:
            variant = "printed" if identity is IdentityId.THM_H3_PRINTED else "corrected"
            return _grid_cases(
                grid,
                lambda n, k, m, p: k >= 1 and line_in_range(n, k, m, p),
                line,
                partial(h_closed_3_value, variant=variant),
            )
        case IdentityId.EQ4_1:
            return _grid_cases(
                grid,
                _eq4_1_applies,
                line,
                lambda n, k, m, p: line(n - 1, k, m, p) + line(n - p - 1, k - 1, m, p),
            )
        case IdentityId.EQ4_2_PRINTED | IdentityId.EQ4_2_CORRECTED:
            delta = 0 if identity is IdentityId.EQ4_2_PRINTED else 1
            return _grid_cases(
                grid,
                _eq4_2_applies,
                g_for_identity,
                lambda n, k, m, p: g_for_identity(n - 1, k, m, p)
                + g_for_identity(n - p - delta, k - 1, m, p),
            )
        case IdentityId.EQ4_4:
            return _grid_cases(
                grid,
                alternating_in_range,
                g_for_identity,
                lambda n, k, m, p: _g_alternating_sum(n, k, m, p, line),
            )
        case IdentityId.EQ4_5:
            return _grid_cases(grid, _eq4_5_applies, line, h_from_g)
        case IdentityId.HWANG_WEI:
            return _hwang_wei_cases(grid, rng)
        case IdentityId.GOULD:
            return _gould_cases(rng)
        case IdentityId.BIJECTION_COUNT:
            return _grid_cases(
                grid,
                lambda n, k, m, p: k >= 1 and circle_in_range(n, k, m, p),
                circle_brute,
                lambda n, k, m, p: circle_brute(n, k, 1, p),
            )
    raise ValueError(f"unknown identity {identity!r}")


def run_audit(
    identity: IdentityId, grid: GridSpec, cap: int = DEFAULT_CAP
) -> AuditReport:
    """Check one identity at every in-range grid point, collecting mismatches.

    Deterministic: randomized instance families are seeded per identity.
    Failures are data, not errors.
    """
    rng = random.Random(f"sepsets-audit:{identity.value}")
    checked = 0
    failures = []
    for params, lhs, rhs in _cases(identity, grid, cap, rng):
        checked += 1
        if lhs != rhs:
            failures.append(_failure(params, lhs, rhs))
    return AuditReport(
        identity=identity.value,
        grid=grid.describe(),
        checked=checked,
        failures=failures,
    )

