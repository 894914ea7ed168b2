import pytest

from framelab import bspline, exponentials


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts and ends with empty memos: no test reads a painless column that
    another one left, computed with _overlap_sums, _scan_grid or _horner replaced, and
    every test that counts Gram entry evaluations sees all of its own."""
    bspline._painless_bounds.cache_clear()
    exponentials._gram_entry.cache_clear()
    yield
    bspline._painless_bounds.cache_clear()
    exponentials._gram_entry.cache_clear()
