import pytest

from sepsets import counting, oracle


@pytest.fixture
def fresh_audit_rows():
    """Drop the oracle and line rows and the circle counts kept beside their
    engines, so a test that counts or refuses engine calls sees every row
    built and every circle count evaluated, whatever ran before."""
    oracle._brute_counts.cache_clear()
    counting._line_counts.cache_clear()
    counting._circle_counts.cache_clear()
