"""Differential property tests of the receiver views on one reading per
code against the four-elimination reference in `helpers.reference_decoder`,
and of the views' packed reading against dense products, on random codes:
rank-deficient ones, with repeated rows, zero matrices and length 0
included.  Skipped when hypothesis is not installed; `tests/conftest.py`
makes them deterministic in CI."""

from functools import partial
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
from ecic.decoder import code_reading  # noqa: E402
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402

from helpers import reference_decoder  # noqa: E402

# longest code per field order, so that a leader search below any cap stays
# within q^N candidates of about a thousand
MAX_LENGTH = {2: 8, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}

# code shapes, by weight: the zero matrix is one matrix per size, so it
# is drawn least
SHAPES = ["long"] * 6 + ["any length", "repeated rows"] * 2 + ["zero"]


@st.composite
def codes(draw):
    """A random code with up to five receivers, of one of four shapes, drawn
    by their weight in SHAPES: at least as long as the message count, with
    rows of full rank as far as the length allows; any length from 0, so
    often shorter; rows that repeat earlier rows; the zero matrix.  One
    time in four, receiver 0's demanded row is then redrawn inside the
    span of its complement rows.  Over 1,500 draws about 55-60% of the
    receivers have a determined demand."""
    field = make_field(draw(st.sampled_from(sorted(MAX_LENGTH))))
    q = field.q
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    demands = tuple(draw(st.integers(0, n - 1)) for _ in range(m))
    side = tuple(
        frozenset(j for j in range(n) if j != d and draw(st.booleans())) for d in demands
    )
    inst = IcsiInstance(m, n, demands, side)
    shape = draw(st.sampled_from(SHAPES))
    N = draw(st.integers(0 if shape != "long" else min(n, MAX_LENGTH[q]), MAX_LENGTH[q]))
    row = st.tuples(*[st.integers(0, q - 1)] * N)
    rows = [draw(row) for _ in range(n)]
    if shape == "long":  # row i is nonzero at pivots[i] and zero at the earlier pivots
        pivots = draw(st.permutations(range(N)))[:n]
        for i, c in enumerate(pivots):
            lead = draw(st.integers(1, q - 1))
            rows[i] = tuple(
                lead if k == c else 0 if k in pivots[:i] else x for k, x in enumerate(rows[i])
            )
    if shape == "repeated rows":
        rows = [rows[draw(st.integers(0, k))] for k in range(n)]
    if shape == "zero":
        rows = [(0,) * N] * n
    if draw(st.integers(0, 3)) == 0:
        complement = sorted(inst.complement(0))
        coeffs = [draw(st.integers(0, q - 1)) for _ in complement]
        combo = [0] * N
        for c, j in zip(coeffs, complement):
            for k in range(N):
                combo[k] = field.add(combo[k], field.mul(c, rows[j][k]))
        rows[demands[0]] = tuple(combo)
    return LinearIndexCode(inst, field, FMatrix(field, tuple(rows), N))


def _outcome(decode_one, received, side, cap):
    try:
        return decode_one(received, side, cap, truth=0)
    except (WeightCapExceeded, InternalContradiction) as exc:
        return type(exc).__name__, str(exc)


@settings(deadline=None)
@given(codes(), st.data())
def test_one_elimination_decoder_matches_the_four_elimination_reference(code, data):
    field, N = code.field, code.length
    word = st.tuples(*[st.integers(0, field.q - 1)] * N)
    reading = code_reading(code)
    for i in range(code.inst.num_receivers):
        dec, ref = build_receiver_decoder(code, i, _reading=reading), reference_decoder(code, i)
        assert dec.complement_parity.rows == ref.complement_parity.rows
        assert dec.side_rows.rows == ref.side_rows.rows
        U = dec.unknown_rows
        assert U.rows == ref.unknown_rows.rows
        assert dec.parity.nrows == N - mat_rank(U) == ref.parity.nrows
        for r in range(U.nrows):
            assert dec.parity.mul_col(U.row(r)).is_zero()
        lam = dec.demand_functional
        assert dec.determined == (lam is not None) == (ref.demand_functional is not None)
        if lam is not None:
            assert U.mul_col(lam) == FVector(field, (1,) + (0,) * (U.nrows - 1))
        received = FVector(field, data.draw(word))
        side = [data.draw(st.integers(0, field.q - 1)) for _ in code.inst.side_info[i]]
        for cap in range(N + 1):
            got = _outcome(partial(decode, dec), received, side, cap)
            assert got == _outcome(ref.decode, received, side, cap), cap


def _reading(dec, word, side):
    """The view's packed reading of a word and its side values (below full
    row rank the view's columns and side images carry its reduction)."""
    return dec.lanes.lane_sum([*map(getitem, dec.columns, word), *map(getitem, dec.sides, side)])


@settings(deadline=None)
@given(codes(), st.data())
def test_packed_reading_equals_the_dense_products(code, data):
    """Each view reads a word and side values, a = word - side @ side_rows,
    as the dense products: its syndrome lanes give H a for its parity check
    H, its other masked lanes are zero, and its demand lane gives
    lambda . a.  Against the reference: two words share a syndrome exactly
    when the reference parity check does not tell them apart, and then
    their demand lanes differ by the reference lambda applied to their
    difference."""
    field, N = code.field, code.length
    reading = code_reading(code)
    q, symbol = field.q, (1 << reading.lanes._width) - 1
    for i in range(code.inst.num_receivers):
        dec, ref = build_receiver_decoder(code, i, _reading=reading), reference_decoder(code, i)
        lanes, lam = dec.lanes, dec.demand_functional
        seen = []
        for _ in range(2):
            word = data.draw(st.tuples(*[st.integers(0, q - 1)] * N))
            side = data.draw(st.tuples(*[st.integers(0, q - 1)] * dec.side_rows.nrows))
            a = FVector(field, word).sub(dec.side_rows.left_mul(FVector(field, side)))
            acc = _reading(dec, word, side)
            key = acc & dec.mask
            assert lanes.unpack(key, dec.syndrome_lanes) == dec.parity.mul_col(a).entries
            lanes_read = lanes.unpack(key, range(lanes.ncols))
            assert not any(v for lane, v in enumerate(lanes_read) if lane not in dec.syndrome_lanes)
            demand = lanes._labels[acc >> dec.shift & symbol]
            if lam is not None:
                assert demand == lam.dot(a)
            seen.append((a, key, demand))
        (a1, key1, d1), (a2, key2, d2) = seen
        diff = a1.sub(a2)
        assert (key1 == key2) == ref.parity.mul_col(diff).is_zero()
        if key1 == key2 and ref.demand_functional is not None:
            assert field.sub(d1, d2) == diff.dot(ref.demand_functional)
