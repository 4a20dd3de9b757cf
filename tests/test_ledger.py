"""Exact counts of kernel calls at fixed points, pinned.

A count is the same on every machine, where a timing is not, so these pins
show where a kernel is reached and how often.  A change that moves one
re-pins it and says so in CHANGES.md.
"""

from fractions import Fraction

import pytest

from sepsets import counting, oracle, series
from sepsets.cli import main


@pytest.fixture
def cold():
    """Drop every row, count and column store, so each count is a cold one."""
    for cached in (oracle._brute_counts, counting._line_counts, counting._circle_counts,
                   counting._line_column, counting._circle_column):
        cached.cache_clear()


@pytest.fixture
def packed(monkeypatch, cold):
    """The argument tuples of every packed product from now on, with every
    store dropped first."""
    calls, product = [], series._packed_product
    monkeypatch.setattr(
        series, "_packed_product", lambda *args: calls.append(args) or product(*args)
    )
    return calls


def test_line_recurrence_packs_its_seed_products(packed):
    # three seed columns, each a square and one product of 33- and 50-term
    # rows, with fields of 14 and 20-21 bytes
    assert counting.h_recurrence(2019, 49, 3, 2) == counting.h_closed_1(2019, 49, 3, 2)
    assert [(len(a), len(b), order) for a, b, order, _ in packed] == [
        (33, 33, 49), (33, 50, 49), (33, 33, 49), (33, 50, 49), (33, 33, 49), (50, 33, 49),
    ]
    assert [width for *_, width in packed] == [14, 21, 14, 20, 14, 21]


def test_audit_makes_no_packed_product(packed, capsys):
    # every row on the default grid is shorter than the cutoff
    assert main(["audit", "--identity", "all"]) == 2  # the printed errata fail
    assert packed == []


@pytest.mark.parametrize(
    "topology, n_max, k_max, count",
    [("circle", 60, 20, 0), ("circle", 150, 50, 342), ("line", 150, 50, 82)],
)
def test_table_packed_products(packed, capsys, topology, n_max, k_max, count):
    assert main(["table", "--topology", topology, "--m", "3", "--p", "2",
                 "--n-max", str(n_max), "--k-max", str(k_max)]) == 0
    assert len(packed) == count


def test_audit_evaluates_each_circle_count_once(cold, monkeypatch, capsys):
    # the default grid's audits read 641 distinct circle cells: 468 in the
    # closed form's range, 6 compositions below it, and empty or too-short
    # cells that call no engine.  Evaluating every read made 3,918 closed
    # forms (3,378 through counting's name) and 10 compositions.  Thm-H3
    # compares scaled ints, where Thm-H3-printed built 132 Fractions
    calls = {"g_closed": 0, "g_composition": 0, "Fraction": 0}

    def counted(name, function):
        def spy(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return spy

    for name in ("g_closed", "g_composition"):
        monkeypatch.setattr(counting, name, counted(name, getattr(counting, name)))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", Fraction.__new__)))
    assert main(["audit", "--identity", "all"]) == 2  # the printed errata fail
    assert calls == {"g_closed": 468, "g_composition": 6, "Fraction": 0}
    store = counting._circle_counts(4).cache_info()
    assert (store.misses, store.currsize) == (641, 641)
    counting._circle_counts.cache_clear()
    assert counting._circle_counts.cache_info().currsize == 0
