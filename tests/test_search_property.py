"""Property test: the top-down optimal-length search (local-search
witnesses, one exhaustive proof) agrees with the exhaustive upward scan on
random small instances.  Skipped when hypothesis is not installed."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import IcsiInstance, _cover, construct_search, make_field, verify_ecic_direct  # noqa: E402

from helpers import upward_scan  # noqa: E402


@st.composite
def questions(draw):
    """An instance with 1..5 receivers over at most 5 messages (4 at q=3),
    and delta in 0..2."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5 if q == 2 else 4))
    demands, sides = [], []
    for _ in range(draw(st.integers(1, 5))):
        f = draw(st.integers(0, n - 1))
        demands.append(f)
        sides.append(frozenset(draw(st.sets(st.integers(0, n - 1)))) - {f})
    inst = IcsiInstance(len(demands), n, tuple(demands), tuple(sides))
    return inst, make_field(q), draw(st.integers(0, 2))


# A cap of 0 keeps only the greedy start, so short caps make the scan mix
# local-search witnesses with exhaustive ones on the way down.
@settings(deadline=None)
@given(questions(), st.sampled_from([0, 1, 4, _cover.LOCAL_SEARCH_ITERATIONS]))
def test_top_down_search_matches_the_upward_scan(question, cap):
    inst, field, delta = question
    optimum, reference = upward_scan(inst, field, delta)
    with mock.patch.object(_cover, "LOCAL_SEARCH_ITERATIONS", cap):
        out = construct_search.optimal_length_search(inst, field, delta)
    assert out.optimal_length == optimum
    assert out.infeasible_below == optimum - 1
    assert out.witness.length == optimum
    assert verify_ecic_direct(out.witness, delta).ok
    assert verify_ecic_direct(reference, delta).ok
