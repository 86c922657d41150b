"""Property tests: the packed direct route (`verify_ecic_direct`) against
the per-vector reference, the margin route and the decoder, and its walk
up to scaling against the full walk and the brute-force confusable set,
on random small instances over q in {2, 3, 4, 5, 7, 8, 9}.  Skipped when
hypothesis is not installed; `tests/conftest.py` makes it deterministic in
CI."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import (  # noqa: E402
    FMatrix,
    IcsiInstance,
    LinearIndexCode,
    exhaustive_correctness_check,
    make_field,
    sphere_volume,
    verify_ecic,
    verify_ecic_direct,
)

from helpers import check_walks, direct_reference, full_walk_direct  # noqa: E402

# decodes the exhaustive check may spend on one code
CHECK_LIMIT = 3000


@st.composite
def codes(draw):
    """(code, delta): an instance with 1..4 receivers over at most 4
    messages (3 from q = 7 on), and either a random matrix of length 0..7
    or a random one repeated 2*delta + 1 times, which passes whenever the
    matrix it repeats is an index code."""
    field = make_field(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    n = draw(st.integers(1, 4 if field.q < 7 else 3))
    demands, sides = [], []
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.integers(0, n - 1))
        demands.append(f)
        sides.append(frozenset(draw(st.sets(st.integers(0, n - 1)))) - {f})
    inst = IcsiInstance(len(demands), n, tuple(demands), tuple(sides))
    delta = draw(st.integers(0, 2))
    repeats = draw(st.sampled_from([1, 2 * delta + 1]))
    length = draw(st.integers(0, 7 if repeats == 1 else 3))
    entry = st.integers(0, field.q - 1)
    rows = draw(st.lists(st.tuples(*[entry] * length), min_size=n, max_size=n))
    matrix = FMatrix(field, tuple(row * repeats for row in rows), length * repeats)
    return LinearIndexCode(inst, field, matrix), delta


@settings(deadline=None)
@given(codes())
def test_direct_route_matches_reference_margins_and_decoder(case):
    code, delta = case
    verdict = verify_ecic_direct(code, delta)
    assert verdict == direct_reference(code, delta)
    assert verdict.ok == verify_ecic(code, delta).ok
    q, n, m = code.field.q, code.inst.num_messages, code.inst.num_receivers
    if verdict.ok and q**n * sphere_volume(q, code.length, delta) * m <= CHECK_LIMIT:
        assert exhaustive_correctness_check(code, delta).ok


@settings(deadline=None)
@given(codes())
def test_walk_up_to_scaling_matches_the_full_walk(case):
    """Same verdict and same certificate, byte for byte, as walking every
    confusable vector once per receiver that confuses it."""
    code, delta = case
    assert verify_ecic_direct(code, delta) == full_walk_direct(code, delta)


@settings(deadline=None)
@given(codes())
def test_walk_up_to_scaling_meets_every_confusable_vector_first(case):
    """Each walked vector is confusable with demand entry 1, and each
    confusable vector of the brute-force oracle has a scaling walked no
    later in receiver order (`helpers.check_walks`)."""
    check_walks(case[0].inst, case[0].field)
