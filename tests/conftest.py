import pytest

from sepsets import counting, oracle


@pytest.fixture
def fresh_audit_rows():
    """Drop the oracle and line rows kept beside their engines, so a test
    that counts or refuses engine calls sees every row built, whatever ran
    before."""
    oracle._brute_counts.cache_clear()
    counting._line_counts.cache_clear()
