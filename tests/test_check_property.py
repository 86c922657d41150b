"""Differential property test of `exhaustive_correctness_check` against
the per-decode reference in `helpers.check_reference`, on random codes
that pass and fail, and of the leader table the check fills.  Skipped when
hypothesis is not installed; `tests/conftest.py` makes it deterministic in
CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    IcsiInstance,
    LinearIndexCode,
    coset_leader,
    correction_radius,
    decode,
    exhaustive_correctness_check,
    make_field,
)
from ecic import decoder  # noqa: E402
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402

from helpers import check_reference  # noqa: E402

# (most messages, longest code) per field order, so that the reference's
# q^n * V_q(N, 2) * m decodes stay within a few thousand
LIMITS = {2: (4, 7), 3: (3, 4), 4: (2, 4), 5: (2, 3)}


@st.composite
def checks(draw):
    """(code, delta): a random code over GF(2..5) with up to four receivers,
    and delta in 0..2, cut to the code's correction radius when asked so
    that passing codes are drawn too.  Half the codes start with an
    identity block, which keeps every demanded row out of the others'
    span; then, one time in four, receiver 0's demanded row is redrawn
    inside the span of its complement rows."""
    q = draw(st.sampled_from(sorted(LIMITS)))
    field = make_field(q)
    max_n, max_N = LIMITS[q]
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 4))
    demands = tuple(draw(st.integers(0, n - 1)) for _ in range(m))
    side = tuple(
        frozenset(j for j in range(n) if j != d and draw(st.booleans())) for d in demands
    )
    inst = IcsiInstance(m, n, demands, side)
    N = draw(st.integers(n, max_N))
    head = n if draw(st.booleans()) else 0
    tail = st.tuples(*[st.integers(0, q - 1)] * (N - head))
    rows = [tuple(int(j == r) for j in range(head)) + draw(tail) for r in range(n)]
    if draw(st.integers(0, 3)) == 0:
        combo = [0] * N
        for j in sorted(inst.complement(0)):
            c = draw(st.integers(0, q - 1))
            combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, rows[j])]
        rows[demands[0]] = tuple(combo)
    code = LinearIndexCode(inst, field, FMatrix(field, tuple(rows), N))
    delta = draw(st.integers(0, 2))
    radius = correction_radius(code)
    if radius is not None and draw(st.booleans()):
        delta = min(delta, radius)
    return code, delta


@settings(deadline=None)
@given(checks())
def test_check_matches_the_per_decode_reference(case):
    code, delta = case
    built, searched = [], []
    with pytest.MonkeyPatch.context() as mp:
        build, search = decoder.build_receiver_decoder, decoder.coset_leader
        mp.setattr(
            decoder, "build_receiver_decoder", lambda *a, **k: built.append(build(*a, **k)) or built[-1]
        )
        mp.setattr(decoder, "coset_leader", lambda *a: searched.append(a) or search(*a))
        report = exhaustive_correctness_check(code, delta)
    assert searched == []  # every syndrome met is in the leader table
    try:
        expected = check_reference(code, delta)
    except InternalContradiction:
        ce = report.counterexample
        assert not report.ok and ce.kind == "undetermined-demand" and ce.outcome is None
        assert built[ce.receiver].demand_functional is None
        assert all(dec.demand_functional is not None for dec in built[: ce.receiver])
        assert ce.x.is_zero() and ce.error.is_zero() and report.decodes == ce.receiver
    else:
        assert report == expected
    assert report.ok == (correction_radius(code) is not None and delta <= correction_radius(code))
    for dec in built:
        for key, (leader, weight, value) in dec.leaders.items():
            syndrome = dec.parity.mul_col(leader)
            assert dec.lanes.unpack(key, dec.syndrome_lanes) == syndrome.entries
            assert leader == coset_leader(dec.parity, syndrome, delta)
            assert weight == leader.weight()
            lam = dec.demand_functional
            assert value == (0 if lam is None else leader.dot(lam))
            if weight:
                side = [0] * dec.side_rows.nrows
                with pytest.raises(WeightCapExceeded):
                    decode(dec, leader, side, weight - 1)
