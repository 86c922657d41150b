"""Property tests for the minimum-weight kernel and the decoder's
coset-leader memo, on random small inputs.  Skipped when hypothesis is not
installed; `tests/conftest.py` makes them deterministic in CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    FVector,
    LinearIndexCode,
    build_receiver_decoder,
    code_min_distance,
    decode,
    make_field,
    no_side_info,
)
from ecic.errors import InternalContradiction, WeightCapExceeded  # noqa: E402
from ecic.field_linalg import _lightest_generic, _lightest_gf2, lightest_combination  # noqa: E402

from helpers import brute_min_distance  # noqa: E402
from test_min_weight_kernel import oracle  # noqa: E402


@st.composite
def spans(draw, qs=(2, 3, 4, 5)):
    """(field, target, rows) with up to four rows of length up to six."""
    field = make_field(draw(st.sampled_from(qs)))
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * n)
    rows = draw(st.lists(vector, max_size=4 if field.q < 5 else 3))
    return field, draw(vector), rows


@settings(deadline=None)
@given(spans())
def test_lightest_combination_is_the_first_lexicographic_minimum(span):
    field, target, rows = span
    assert lightest_combination(field, target, rows) == oracle(field, target, rows)


@settings(deadline=None)
@given(spans(qs=(2,)))
def test_packed_gf2_equals_generic(span):
    field, target, rows = span
    assert _lightest_gf2(target, rows) == _lightest_generic(field, target, rows)


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
