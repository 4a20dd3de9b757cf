import pytest

from sepsets import audit


@pytest.fixture
def fresh_audit_rows():
    """Drop the audit's store of oracle and line rows and circle counts, so
    a test that counts or refuses engine calls sees every row built and
    every circle count evaluated, whatever ran before."""
    audit._counts.cache_clear()
