"""Differential property tests of the one-elimination receiver decoder
against the four-elimination reference in `helpers.reference_decoder`, and
of its packed reading against dense products, on random codes.  Skipped
when hypothesis is not installed; `tests/conftest.py` makes them
deterministic in CI."""

from operator import getitem

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    FVector,
    IcsiInstance,
    LinearIndexCode,
    build_receiver_decoder,
    decode,
    make_field,
    mat_rank,
)
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402

from helpers import reference_decoder  # noqa: E402

# longest code per field order, so that a leader search below any cap stays
# within q^N candidates of about a thousand
MAX_LENGTH = {2: 8, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}


@st.composite
def codes(draw):
    """A random code with up to five receivers; when asked, receiver 0's
    demanded row is redrawn inside the span of its complement rows."""
    field = make_field(draw(st.sampled_from(sorted(MAX_LENGTH))))
    q = field.q
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    demands = tuple(draw(st.integers(0, n - 1)) for _ in range(m))
    side = tuple(
        frozenset(j for j in range(n) if j != d and draw(st.booleans())) for d in demands
    )
    inst = IcsiInstance(m, n, demands, side)
    N = draw(st.integers(min(n, MAX_LENGTH[q]), MAX_LENGTH[q]))
    row = st.tuples(*[st.integers(0, q - 1)] * N)
    rows = [draw(row) for _ in range(n)]
    if draw(st.booleans()):
        complement = sorted(inst.complement(0))
        coeffs = [draw(st.integers(0, q - 1)) for _ in complement]
        combo = [0] * N
        for c, j in zip(coeffs, complement):
            for k in range(N):
                combo[k] = field.add(combo[k], field.mul(c, rows[j][k]))
        rows[demands[0]] = tuple(combo)
    return LinearIndexCode(inst, field, FMatrix(field, tuple(rows), N))


def _outcome(dec, received, side, cap):
    try:
        return decode(dec, received, side, cap, truth=0)
    except (WeightCapExceeded, InternalContradiction) as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None)
@given(codes(), st.data())
def test_one_elimination_decoder_matches_the_four_elimination_reference(code, data):
    field, N = code.field, code.length
    word = st.tuples(*[st.integers(0, field.q - 1)] * N)
    for i in range(code.inst.num_receivers):
        dec, ref = build_receiver_decoder(code, i), reference_decoder(code, i)
        assert dec.complement_parity.rows == ref.complement_parity.rows
        U = dec.unknown_rows
        assert U.rows == ref.unknown_rows.rows
        assert dec.parity.nrows == N - mat_rank(U)
        for r in range(U.nrows):
            assert dec.parity.mul_col(U.row(r)).is_zero()
        lam = dec.demand_functional
        assert (lam is None) == (ref.demand_functional is None)
        if lam is not None:
            assert U.mul_col(lam) == FVector.unit(field, U.nrows, 0)
        received = FVector(field, data.draw(word))
        side = [data.draw(st.integers(0, field.q - 1)) for _ in code.inst.side_info[i]]
        for cap in range(N + 1):
            assert _outcome(dec, received, side, cap) == _outcome(ref, received, side, cap), cap


@settings(deadline=None)
@given(codes(), st.data())
def test_packed_reading_equals_the_dense_products(code, data):
    """A word and side values read through the packed columns and side
    images, unpacked, give lambda . a and H a for a = word - side @ side_rows
    (lane 0 reads 0 when the demand is undetermined)."""
    field, N = code.field, code.length
    for i in range(code.inst.num_receivers):
        dec = build_receiver_decoder(code, i)
        word = data.draw(st.tuples(*[st.integers(0, field.q - 1)] * N))
        side = data.draw(st.tuples(*[st.integers(0, field.q - 1)] * dec.side_rows.nrows))
        terms = [*map(getitem, dec.columns, word), *map(getitem, dec.sides, side)]
        reading = dec.lanes.unpack(dec.lanes.lane_sum(terms), 1 + dec.parity.nrows)
        a = FVector(field, word).sub(dec.side_rows.left_mul(FVector(field, side)))
        lam = dec.demand_functional
        assert reading == (0 if lam is None else lam.dot(a), *dec.parity.mul_col(a).entries)
