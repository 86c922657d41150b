"""Property tests for the cover kernel and its hit table on random small
inputs.  Skipped when hypothesis is not installed; `tests/conftest.py`
makes them deterministic in CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import make_field  # noqa: E402
from ecic._cover import class_table  # noqa: E402

from helpers import pack, reference_hit_sets  # noqa: E402
from test_cover_kernel import check_against_oracle  # noqa: E402

# one field order per lane layout of `PackedRows`: GF(2)'s one-bit symbols,
# p = 2 extensions up to 9-bit symbols, odd primes, and odd-p extensions
# whose symbols are wider than a byte
ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 121, 125, 243, 256)
# most column classes a drawn table has, so that GF(256) reaches n = 2
MAX_CLASSES = 300


@st.composite
def cover_questions(draw):
    """(hit_sets, quotas, size): at most 8 classes over at most 6 targets,
    quotas 0..3, size at most 5."""
    targets = draw(st.integers(1, 6))
    hit_sets = draw(
        st.lists(st.frozensets(st.integers(0, targets - 1)), min_size=1, max_size=8)
    )
    quotas = draw(st.lists(st.integers(0, 3), min_size=targets, max_size=targets))
    return hit_sets, quotas, draw(st.integers(0, 5))


@settings(deadline=None)
@given(cover_questions())
def test_kernel_returns_the_first_feasible_multiset(question):
    check_against_oracle(*question)


@pytest.mark.parametrize("q", ORDERS)
@settings(deadline=None)
@given(data=st.data())
def test_class_table_rows_are_the_reference_hit_sets(q, data):
    """`class_table` reads each hit row off a lane sum's support; byte for
    byte it is the table of nonzero inner products, with no targets too."""
    field = make_field(q)
    top = max(n for n in range(1, 9) if (q**n - 1) // (q - 1) <= MAX_CLASSES)
    n = data.draw(st.integers(1, top))
    targets = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=12))
    columns, rows = class_table(field, n, targets)
    assert rows == pack(reference_hit_sets(field, columns, targets))
