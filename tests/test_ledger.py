"""Exact counts of kernel calls at fixed points, pinned.

A count is the same on every machine, where a timing is not, so these pins
show where a kernel is reached and how often.  A change that moves one
re-pins it and says so in CHANGES.md.
"""

from fractions import Fraction

import pytest

from sepsets import audit, counting, oracle, series
from sepsets.cli import main


@pytest.fixture
def cold(fresh_audit_rows):
    """Drop the audit's store and both recurrence columns, so each count is a
    cold one."""
    counting._line_column.cache_clear()
    counting._circle_column.cache_clear()


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
    # compares scaled ints, where Thm-H3-printed built 132 Fractions.  The
    # oracle and line rows are the 294 scans and 144 rows the audit reads
    calls = dict.fromkeys(("count_brute_row", "h_composition_row", "g_for_identity",
                           "g_closed", "g_composition", "Fraction"), 0)

    def counted(name, function):
        def spy(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(oracle, "count_brute_row",
                        counted("count_brute_row", oracle.count_brute_row))
    for name in ("h_composition_row", "g_for_identity", "g_closed", "g_composition"):
        monkeypatch.setattr(counting, name, counted(name, getattr(counting, name)))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", Fraction.__new__)))
    assert main(["audit", "--identity", "all"]) == 2  # the printed errata fail
    assert calls == {"count_brute_row": 294, "h_composition_row": 144, "g_for_identity": 641,
                     "g_closed": 468, "g_composition": 6, "Fraction": 0}
    store = audit._counts(4, oracle.DEFAULT_CAP)[2].cache_info()
    assert (store.misses, store.currsize) == (641, 641)
    audit._counts.cache_clear()
    assert audit._counts.cache_info().currsize == 0
