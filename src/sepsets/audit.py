"""Identity audits: the catalogue of identities and the one loop that
verifies them and records counterexamples.  The count routes the
catalogue checks live in ``counting``.

Each identity in the catalogue is a generator of ``(instance, den, lhs,
rhs)`` cases, both sides already scaled by den, paired with the function
that formats an instance's params; the one loop builds every failing
case's record from the two, alike for every family.  A grid identity
compares two counts (den 1) at every grid point satisfying its validity
precondition.  A sampled family (Eq3.1 to Eq3.4, Hwang-Wei, Gould) draws
its rationals as (numerator, denominator) int pairs and calls the
``omega_phi`` int cores, so its sides a/b and c/e are compared as the
ints a*e and c*b over den b*e; only a failing case's record formats its
params and its sides, in lowest terms.  An instance a core finds singular is
skipped (Omega and Phi) or redrawn (Gould).  Mismatches are collected as
data (never raised).  The catalogue deliberately includes the known-bad
``printed`` formula variants so their counterexamples are reproduced,
witnesses included.  Only the oracle sides read the brute-force cap.

The grid identities read every count from one store, ``_counts``, kept
here for the last (k_max, cap): the oracle rows of an
``oracle._brute_reader``, the line rows of a ``counting._line_reader``
and each circle count of ``counting.g_for_identity``.  So every audit
with that k_max and cap, in one command or across calls, builds each row
and evaluates each circle count once; nothing else reads the store, so
no other command fills or evicts it.  A caller that patches an engine
the store reads must drop it first, by ``_counts.cache_clear()``.
The Thm-H3 audits read the third formula's int core as a (numerator,
denominator) pair and compare the line count as the scaled int
line*denominator with the numerator, as the sampled families do, so no
``Fraction`` is built.

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
from functools import cache, lru_cache, partial
from math import gcd
from itertools import islice

from . import counting
from .counting import (
    Topology,
    _g_alternating_sum,
    _g_from_h_sum,
    _h_from_g_sum,
    _line_reader,
    alternating_in_range,
    circle_in_range,
    h_closed_1,
    h_closed_2,
    line_in_range,
)
from .jsontext import report
from .omega_phi import (
    SingularTermError,
    _hwang_wei,
    _omega_1,
    _omega_2,
    _omega_3,
    _omega_direct,
    _phi_closed,
    _phi_direct,
    _scaled,
)
from .oracle import DEFAULT_CAP, _brute_reader


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


def _ratio(num: int, den: int) -> int | str:
    """num/den as a Fraction prints it, or as an int when whole; no Fraction is built."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g if den == g else f"{num // g}/{den // g}"


def _failure(params: dict, lhs: int, rhs: int, den: int) -> dict:
    # params comes from the identity's formatter, whose values are ints and
    # strs already; the two sides are over den
    return {"params": params, "lhs": _ratio(lhs, den), "rhs": _ratio(rhs, den)}


# ---------------------------------------------------------------------------
# the catalogue: every identity is a generator of (instance, den, lhs, rhs)
# cases, whose sides are over den, and the formatter of an instance's params

Case = tuple[object, int, int, int]
Route = Callable[[int, int, int, int], object]


def _grid_cases(
    grid: GridSpec, applies: Callable[[int, int, int, int], bool], lhs: Route, rhs: Route
) -> Iterator[Case]:
    """Both sides over den 1 at every grid point where the identity
    applies, the instance the point (n, k, m, p) in the routes' own
    argument order."""
    for m in range(1, grid.m_max + 1):
        for p in range(1, grid.p_max + 1):
            for k in range(grid.k_max + 1):
                for n in range(grid.n_max + 1):
                    if applies(n, k, m, p):
                        yield (n, k, m, p), 1, lhs(n, k, m, p), rhs(n, k, m, p)


def _scaled_grid_cases(
    grid: GridSpec,
    applies: Callable[[int, int, int, int], bool],
    lhs: Route,
    rhs: Callable[[int, int, int, int], tuple[int, int]],
) -> Iterator[Case]:
    """``_grid_cases`` for an rhs that is a (numerator, denominator) pair:
    lhs is compared as lhs*den with the numerator."""
    for point, _, left, (num, den) in _grid_cases(grid, applies, lhs, rhs):
        yield point, den, left * den, num


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


def _random_pair(rng: random.Random, bound: int = 20) -> tuple[int, int]:
    """A rational drawn as its (numerator, denominator), numerator first."""
    return rng.randint(-bound, bound), rng.randint(1, bound)


def _rational_cases(draws: Iterator[tuple], lhs: Callable, rhs: Callable) -> Iterator[Case]:
    """Both sides of each drawn (lambdas, mu, k), scaled once to (D, L_i, M):
    a/b = lhs(D, L_i, M, k) and c/e = rhs(D, sum L_i, M, m, k) as the ints
    a*e and c*b over den b*e.  A singular draw is skipped."""
    for draw in draws:
        lambdas, mu, k = draw
        d, big_ls, big_m = _scaled(mu, lambdas)
        try:
            a, b = lhs(d, big_ls, big_m, k)
            c, e = rhs(d, sum(big_ls), big_m, len(big_ls), k)
        except SingularTermError:
            continue
        yield draw, b * e, a * e, c * b


def _phi_closed_m(d: int, big_l: int, big_m: int, m: int, k: int) -> tuple[int, int]:
    return _phi_closed(d, big_l, big_m, k)


def _omega_draws(grid: GridSpec, rng: random.Random, min_k: int = 0) -> Iterator[tuple]:
    """Two witnesses at k = 2, then 40 seeded random ones with k >= min_k."""
    yield ((4, 1), (4, 1)), (-1, 1), 2
    yield ((1, 1), (1, 1)), (1, 1), 2
    m_hi = max(1, min(grid.m_max, 4))
    k_hi = max(min_k, min(grid.k_max, 5))
    for _ in range(40):
        m = rng.randint(1, m_hi)
        k = rng.randint(min_k, k_hi)
        yield tuple(_random_pair(rng) for _ in range(m)), _random_pair(rng), k


def _omega_params(draw: tuple) -> dict:
    lambdas, mu, k = draw
    lambdas = "(" + ",".join(str(_ratio(*v)) for v in lambdas) + ")"
    return {"lambdas": lambdas, "mu": str(_ratio(*mu)), "k": k}


def _hwang_wei_cases(grid: GridSpec, rng: random.Random) -> Iterator[Case]:
    instances: list[tuple[tuple[int, ...], int]] = [((3, 3), 2), ((2,), 1)]
    m_hi = max(1, min(grid.m_max, 4))
    while len(instances) < 42:
        m = rng.randint(1, m_hi)
        k = rng.randint(0, min(grid.k_max, 6))
        instances.append((tuple(rng.randint(0, 10) for _ in range(m)), k))
    for n_list, k in instances:
        left, den, right = _hwang_wei(n_list, k)
        yield (n_list, k), den, left, right * den


def _hwang_wei_params(instance: tuple[tuple[int, ...], int]) -> dict:
    n_list, k = instance
    return {"n_list": str(n_list), "k": k}


def _gould_draws(rng: random.Random) -> Iterator[tuple]:
    """Lambdas (a, b), mu = c and k = n: two witnesses, then seeded random
    ones without end."""
    yield ((1, 1), (1, 1)), (1, 1), 2
    yield ((1, 1), (2, 1)), (0, 1), 2
    while True:
        a, b, c = (_random_pair(rng, 8) for _ in range(3))
        yield (a, b), c, rng.randint(0, 6)


def _gould_params(draw: tuple) -> dict:
    (a, b), c, n = draw
    return {"a": str(_ratio(*a)), "b": str(_ratio(*b)), "c": str(_ratio(*c)), "n": n}


@lru_cache(maxsize=1)
def _counts(k: int, cap: int) -> tuple[Callable, Callable, Callable]:
    """The store: ``(brute, line, circle)``, the oracle, line and circle
    counts for every kk <= k, each row or circle count evaluated on first
    read and kept while k and the cap stay the same.  ``circle`` calls the
    ``counting.g_for_identity`` bound at that read."""
    circle = cache(lambda nn, kk, m, p: counting.g_for_identity(nn, kk, m, p))
    return _brute_reader(k, cap), _line_reader(k), circle


def _cases(
    identity: IdentityId, grid: GridSpec, cap: int
) -> tuple[Callable[[object], dict], Iterator[Case]]:
    """The catalogue: the params formatter and the cases of one identity on
    one grid, reading the oracle, line and circle counts from the store
    kept for (grid.k_max, cap).  A sampled family draws from an rng seeded
    by the identity, so every report is deterministic."""
    brute, line, circle = _counts(grid.k_max, cap)
    rng = random.Random(f"sepsets-audit:{identity.value}")
    omega_draws = partial(_omega_draws, grid, rng)
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
            return _omega_params, _rational_cases(omega_draws(), _omega_direct, _omega_1)
        case IdentityId.EQ3_2:
            return _omega_params, _rational_cases(omega_draws(), _omega_direct, _omega_2)
        case IdentityId.EQ3_3_PRINTED | IdentityId.EQ3_3_CORRECTED:
            variant = "printed" if identity is IdentityId.EQ3_3_PRINTED else "corrected"
            closed = partial(_omega_3, variant=variant)
            return _omega_params, _rational_cases(omega_draws(1), _omega_direct, closed)
        case IdentityId.EQ3_4:
            return _omega_params, _rational_cases(omega_draws(), _phi_direct, _phi_closed_m)
        case IdentityId.EQ3_5:
            sides = circle_in_range, circle_brute, circle
        case IdentityId.THM_H1:
            sides = line_in_range, line, h_closed_1
        case IdentityId.THM_H2:
            sides = line_in_range, line, h_closed_2
        case IdentityId.THM_H3_PRINTED | IdentityId.THM_H3_CORRECTED:
            variant = "printed" if identity is IdentityId.THM_H3_PRINTED else "corrected"
            return _grid_params, _scaled_grid_cases(
                grid,
                lambda n, k, m, p: k >= 1 and line_in_range(n, k, m, p),
                line,
                lambda n, k, m, p: _omega_3(1, n + m * p, -p, m, k, variant),
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
                circle,
                lambda n, k, m, p: circle(n - 1, k, m, p) + circle(n - p - delta, k - 1, m, p),
            )
        case IdentityId.EQ4_4:
            sides = (
                alternating_in_range,
                circle,
                lambda n, k, m, p: _g_alternating_sum(n, k, m, p, line),
            )
        case IdentityId.EQ4_5:
            sides = (
                _eq4_5_applies,
                line,
                lambda n, k, m, p: _h_from_g_sum(n, k, m, p, circle),
            )
        case IdentityId.HWANG_WEI:
            return _hwang_wei_params, _hwang_wei_cases(grid, rng)
        case IdentityId.GOULD:
            # a singular draw is redrawn: the first 42 regular ones count
            cases = _rational_cases(_gould_draws(rng), _phi_direct, _phi_closed_m)
            return _gould_params, islice(cases, 42)
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
    Failures are data, not errors: each is recorded from the case's
    instance, formatted only then, and its two sides over den.
    """
    params, cases = _cases(identity, grid, cap)
    checked = 0
    failures = []
    for instance, den, lhs, rhs in cases:
        checked += 1
        if lhs != rhs:
            failures.append(_failure(params(instance), lhs, rhs, den))
    return AuditReport(
        identity=identity.value,
        grid=grid.describe(),
        checked=checked,
        failures=failures,
    )

