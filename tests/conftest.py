import pytest

from sepsets import audit


@pytest.fixture
def fresh_audit_rows():
    """Drop the audit's kept oracle and line rows, so a test that counts
    or refuses engine calls sees every row built, whatever ran before."""
    audit._row_caches.cache_clear()
