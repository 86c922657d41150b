"""Differential property tests of `exhaustive_correctness_check` against
the per-decode reference in `helpers.check_reference`, on random codes
that pass and fail, of the leader table the check fills, and of the
reading it hands `decode` against the public `decode`'s.  Skipped when
hypothesis is not installed; `tests/conftest.py` makes them deterministic
in CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    FVector,
    IcsiInstance,
    LinearIndexCode,
    coset_leader,
    correction_radius,
    decode,
    encode,
    exhaustive_correctness_check,
    make_field,
    mat_rank,
)
from ecic import decoder  # noqa: E402
from ecic.field_linalg import _weight_ordered, all_vectors  # noqa: E402
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402

from helpers import check_reference, view_demand_functional  # noqa: E402

# (most messages, longest code, largest delta) per field order, so that the
# reference's q^n * V_q(N, delta) * m decodes stay within a few thousand (at
# most 8,100); q >= 7 stops at delta 1 to afford a second message, without
# which no receiver holds side information
LIMITS = {
    2: (4, 7, 2), 3: (3, 4, 2), 4: (2, 4, 2), 5: (2, 3, 2),
    7: (2, 3, 1), 8: (2, 3, 1), 9: (2, 3, 1),
}


def _reads_demand(field, rows, demand, complement):
    """Whether the demanded row lies outside the complement rows' span."""
    span, N = [rows[j] for j in sorted(complement)], len(rows[demand])
    rank = mat_rank(FMatrix(field, tuple(span), N))
    return mat_rank(FMatrix(field, (*span, rows[demand]), N)) > rank


@st.composite
def checks(draw, fields=tuple(LIMITS)):
    """(code, delta): a random code over GF(q), q in `fields`, with up to
    four receivers, and delta up to the field's limit, cut to the code's
    correction radius when asked so that passing codes are drawn too.  A
    third of the codes start with an identity block and a third have rows
    nonzero at a drawn pivot and zero at the earlier rows' pivots; either
    keeps every demanded row out of the others' span.  The last third have
    free random rows, so that codes of rank n - 2 or lower and undetermined
    receivers after determined ones are drawn too.  Then, one time in four,
    the rows after the first `keep` (drawn in 1..n-1) are redrawn as
    combinations of those, row 0's coefficient nonzero (rank deficient,
    down to rank 1, so that views reduce by several rows), and each
    receiver whose demanded row this puts in its complement rows' span
    holds every other message instead; or else, one time in four, a drawn
    receiver's demanded row is redrawn inside the span of its complement
    rows."""
    q = draw(st.sampled_from(fields))
    field = make_field(q)
    max_n, max_N, max_delta = LIMITS[q]
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 4))
    demands = tuple(draw(st.integers(0, n - 1)) for _ in range(m))
    side = tuple(
        frozenset(j for j in range(n) if j != d and draw(st.booleans())) for d in demands
    )
    inst = IcsiInstance(m, n, demands, side)
    N = draw(st.integers(n, max_N))
    shape = draw(st.sampled_from(("identity", "pivoted", "free")))
    head = n if shape == "identity" else 0
    tail = st.tuples(*[st.integers(0, q - 1)] * (N - head))
    rows = [tuple(int(j == r) for j in range(head)) + draw(tail) for r in range(n)]
    if shape == "pivoted":
        pivots = draw(st.permutations(range(N)))[:n]
        for r, c in enumerate(pivots):
            lead = draw(st.integers(1, q - 1))
            rows[r] = tuple(
                lead if k == c else 0 if k in pivots[:r] else x for k, x in enumerate(rows[r])
            )
    redraw = draw(st.integers(0, 3))
    if n > 1 and redraw == 0:
        keep = draw(st.integers(1, n - 1))
        for r in range(keep, n):
            combo = [0] * N
            for j, row in enumerate(rows[:keep]):
                c = draw(st.integers(int(j == 0), q - 1))
                combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, row)]
            rows[r] = tuple(combo)
        side = tuple(
            s if _reads_demand(field, rows, d, inst.complement(i)) else frozenset(range(n)) - {d}
            for i, (d, s) in enumerate(zip(demands, side))
        )
        inst = IcsiInstance(m, n, demands, side)
    elif redraw == 1:
        k = draw(st.integers(0, m - 1))
        combo = [0] * N
        for j in sorted(inst.complement(k)):
            c = draw(st.integers(0, q - 1))
            combo = [field.add(a, field.mul(c, b)) for a, b in zip(combo, rows[j])]
        rows[demands[k]] = tuple(combo)
    code = LinearIndexCode(inst, field, FMatrix(field, tuple(rows), N))
    delta = draw(st.integers(0, max_delta))
    radius = correction_radius(code)
    if radius is not None and draw(st.booleans()):
        delta = min(delta, radius)
    return code, delta


def _assert_matches_reference(code, delta):
    """The check's report is the per-decode reference's, every syndrome it
    meets is in the leader table, and the table's entries are the coset
    leaders `decode` would search for."""
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
        assert not built[ce.receiver].determined
        assert all(dec.determined for dec in built[: ce.receiver])
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
            lam = view_demand_functional(dec)
            if lam is not None:
                assert value == leader.dot(lam)
            if weight:
                side = [0] * len(dec.frame.side_info)
                with pytest.raises(WeightCapExceeded):
                    decode(dec, leader, side, weight - 1)


@settings(deadline=None)
@given(checks())
def test_check_matches_the_per_decode_reference(case):
    _assert_matches_reference(*case)


@pytest.mark.parametrize("q", sorted(LIMITS))
@settings(deadline=None)
@given(data=st.data())
def test_check_matches_the_per_decode_reference_at_each_q(q, data):
    """The same comparison with every example at one field order, so that
    no q gets few codes or none."""
    _assert_matches_reference(*data.draw(checks((q,))))


@pytest.mark.parametrize("q", sorted(LIMITS))
@settings(deadline=None)
@given(data=st.data())
def test_check_reads_each_word_as_the_public_decode_does(q, data):
    """The check hands `decode` a reading taken by linearity (x's reading
    plus the error's, each through the receiver's own view): for every
    (x, error, receiver) it decodes, that is what the public `decode`
    reads off the received word y + e and x's side values, and the public
    outcome has the fields the check got back, which it gets as a plain
    tuple."""
    code, delta = data.draw(checks((q,)))
    calls = []

    def record(dec, *args, _read=None, **kwargs):
        outcome = decode(dec, *args, _read=_read, **kwargs)
        calls.append((dec, _read, outcome))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "decode", record)
        report = exhaustive_correctness_check(code, delta)
    assert len(calls) == report.decodes
    field, inst = code.field, code.inst
    words = ((x, e) for x in all_vectors(field, inst.num_messages)
             for e in _weight_ordered(field.q, code.length, delta))
    for dec, read, outcome in calls:
        if dec.frame.index == 0:
            x, e = next(words)
        side = [x.entries[j] for j in sorted(dec.frame.side_info)]
        received = encode(code, x).add(FVector(field, e))
        assert read == decoder._word_reading(dec, received.entries, side)
        assert type(outcome) is tuple
        assert decode(dec, received, side, delta, x.entries[dec.frame.demand]) == outcome
