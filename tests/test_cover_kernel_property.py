"""Property test for the cover kernel on random small inputs.  Skipped when
hypothesis is not installed; `tests/conftest.py` makes it deterministic in
CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from test_cover_kernel import check_against_oracle  # noqa: E402


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
