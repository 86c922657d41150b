"""Property tests for the minimum-weight kernel, the decoder's
coset-leader memo and the decoder's packed-lane fast path against its
references, on random small inputs.  Skipped when hypothesis is not
installed; `tests/conftest.py` makes them deterministic in CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    FVector,
    IcsiInstance,
    LinearIndexCode,
    build_receiver_decoder,
    code_min_distance,
    decode,
    encode,
    in_relevant_error_set,
    make_field,
    no_side_info,
)
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402
from ecic.index_codes import _margins_with_minimizers  # noqa: E402

from helpers import (  # noqa: E402
    brute_min_distance,
    lightest_combination,
    lightest_gf2_xor,
    recover_demand,
    reference_decoder,
)
from test_min_weight_kernel import max_rows, oracle  # noqa: E402


@st.composite
def spans(draw, qs=(2, 3, 4, 5, 7, 8, 9)):
    """(field, target, rows) with up to `max_rows` rows of length up to six."""
    field = make_field(draw(st.sampled_from(qs)))
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * n)
    rows = draw(st.lists(vector, max_size=max_rows(field)))
    return field, draw(vector), rows


@settings(deadline=None)
@given(spans())
def test_lightest_combination_is_the_first_lexicographic_minimum(span):
    field, target, rows = span
    assert lightest_combination(field, target, rows) == oracle(field, target, rows)


@settings(deadline=None)
@given(spans(qs=(2,)))
def test_packed_gf2_equals_generic(span):
    """The lane kernel on GF(2) against the XOR path's suffix sums."""
    field, target, rows = span
    assert lightest_combination(field, target, rows) == lightest_gf2_xor(target, rows)


@settings(deadline=None)
@given(spans())
def test_min_distance_equals_span_oracle(span):
    field, target, rows = span
    rows = [target] + rows
    if any(any(r) for r in rows):
        G = FMatrix(field, tuple(rows), len(target))
        assert code_min_distance(G) == brute_min_distance(field, rows, len(target))


@settings(deadline=None)
@given(spans(qs=(2, 3)), st.data())
def test_memoised_leaders_match_fresh_decoders_at_any_cap_order(span, data):
    """One decoder decodes received words under a sequence of caps; each
    answer equals a fresh decoder's at that cap."""
    field, demand_row, rows = span
    rows = [demand_row] + rows  # the demanded row, then the complement rows
    N = len(demand_row)
    code = LinearIndexCode(no_side_info(len(rows)), field, FMatrix(field, tuple(rows), N))
    words = [
        FVector(field, data.draw(st.tuples(*[st.integers(0, field.q - 1)] * N)))
        for _ in range(2)
    ]
    dec = build_receiver_decoder(code, 0)
    for cap in data.draw(st.lists(st.integers(-1, N), min_size=1, max_size=6)):
        for word in words:
            outcomes = []
            for d in (dec, build_receiver_decoder(code, 0)):
                try:
                    out = decode(d, word, (), cap)
                    outcomes.append((out.recovered, out.error_estimate, out.estimate_weight))
                except (WeightCapExceeded, InternalContradiction) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1]


@st.composite
def receiver_codes(draw, qs=(2, 3, 4, 5)):
    """(code, receiver) over q in `qs`: up to three receivers, up to
    `max_rows` messages and length up to six."""
    field = make_field(draw(st.sampled_from(qs)))
    n = draw(st.integers(1, max_rows(field)))
    m = draw(st.integers(1, 3))
    demands = tuple(draw(st.integers(0, n - 1)) for _ in range(m))
    side = tuple(
        frozenset(draw(st.sets(st.sampled_from([j for j in range(n) if j != d]))) if n > 1 else ())
        for d in demands
    )
    N = draw(st.integers(1, 6))
    entries = st.integers(0, field.q - 1)
    rows = tuple(draw(st.tuples(*[entries] * N)) for _ in range(n))
    code = LinearIndexCode(IcsiInstance(m, n, demands, side), field, FMatrix(field, rows, N))
    return code, draw(st.integers(0, m - 1))


@settings(deadline=None)
@given(receiver_codes(qs=(2, 3, 4, 5, 7, 8, 9)), st.data())
def test_fast_decode_and_relevant_set_match_their_references(case, data):
    """`decode` recovers what the full `recover_demand` solve recovers with
    the same estimate, and `in_relevant_error_set` agrees with the dense
    complement-parity product."""
    code, i = case
    field, n, N = code.field, code.inst.num_messages, code.length
    word = st.tuples(*[st.integers(0, field.q - 1)] * N)
    x = FVector(field, data.draw(st.tuples(*[st.integers(0, field.q - 1)] * n)))
    err = FVector(field, data.draw(word))
    received = encode(code, x).add(err)
    side = [x.entries[j] for j in sorted(code.inst.side_info[i])]
    dec = build_receiver_decoder(code, i)
    try:
        out = decode(dec, received, side, N)
    except InternalContradiction:
        assert not dec.determined
        return
    ref = reference_decoder(code, i)
    assert out.recovered == recover_demand(ref, received, side, out.error_estimate)
    for candidate in (out.error_estimate, err, FVector(field, data.draw(word))):
        dense = dec.complement_parity.mul_col(candidate.sub(err)).is_zero()
        assert in_relevant_error_set(dec, candidate, err) == dense


@settings(deadline=None)
@given(receiver_codes(qs=(2, 3, 4, 5, 7, 8, 9)))
def test_margins_and_minimizers_equal_the_oracle(case):
    """Margins packed once per code equal the oracle's per receiver."""
    code, _ = case
    inst, L = code.inst, code.matrix
    want = [
        oracle(code.field, L.rows[inst.demands[i]], [L.rows[j] for j in sorted(inst.complement(i))])
        for i in range(inst.num_receivers)
    ]
    assert list(_margins_with_minimizers(code, 1 << 20)) == want
