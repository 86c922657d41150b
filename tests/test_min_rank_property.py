"""Property test: min-rank from the delta = 0 cover search against the
brute-force oracle that enumerates every side-information completion, on
random small instances.  Skipped when hypothesis is not installed."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    _cover,
    IcsiInstance,
    LinearIndexCode,
    make_field,
    mat_rank,
    min_rank,
    verify_ic,
)

from helpers import brute_min_rank  # noqa: E402

# completions the oracle may enumerate for one instance
ORACLE_LIMIT = 4096


@st.composite
def instances(draw):
    """Up to 4 receivers over up to 4 messages at q in {2, 3}, and up to
    3 x 3 at q = 4; side information is trimmed so that the oracle's
    q^(total side information) completions stay within ORACLE_LIMIT."""
    q = draw(st.sampled_from([2, 3, 4]))
    top = 4 if q < 4 else 3
    n = draw(st.integers(1, top))
    left = max(k for k in range(13) if q**k <= ORACLE_LIMIT)
    demands, sides = [], []
    for _ in range(draw(st.integers(1, top))):
        f = draw(st.integers(0, n - 1))
        side = sorted(draw(st.sets(st.integers(0, n - 1))) - {f})[:left]
        left -= len(side)
        demands.append(f)
        sides.append(frozenset(side))
    return IcsiInstance(len(demands), n, tuple(demands), tuple(sides)), make_field(q)


# Short caps make tabu miss above kappa and make the probe at alpha trip, so
# kappa's fallbacks are checked too.
@settings(deadline=None)
@given(instances(), st.sampled_from([0, 1, 4, _cover.LOCAL_SEARCH_ITERATIONS]))
def test_min_rank_matches_the_completion_oracle(case, cap):
    inst, field = case
    with mock.patch.object(_cover, "LOCAL_SEARCH_ITERATIONS", cap):
        res = min_rank(inst, field)
    assert res.kappa == brute_min_rank(inst, field)
    assert mat_rank(res.witness) == res.kappa
    for i in range(inst.num_receivers):
        row = res.witness.row(i)
        assert row.entries[inst.demands[i]] == 1
        assert {j for j, x in enumerate(row.entries) if x} <= set(inst.side_info[i]) | {inst.demands[i]}
    inner = min_rank(inst, field).ic_matrix
    assert (inner.nrows, inner.ncols) == (inst.num_messages, res.kappa)
    assert verify_ic(LinearIndexCode(inst, field, inner))
