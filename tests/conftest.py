import pytest

from framelab import bspline, exponentials, gabor


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts and ends with empty memos: no test reads a painless (N, a) column
    that another one left, computed with _overlap_sums, _least, _horner or _MAX_HALVINGS
    replaced, every test that counts Gram entry evaluations sees all of its own, and every
    test that looks at the lattice tables starts from none."""
    bspline._painless_bounds.cache_clear()
    exponentials._gram_entry.cache_clear()
    gabor._lattice_tables.clear()
    yield
    bspline._painless_bounds.cache_clear()
    exponentials._gram_entry.cache_clear()
    gabor._lattice_tables.clear()
