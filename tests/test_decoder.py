import itertools
import random

import pytest

from ecic import (
    Field,
    FMatrix,
    FVector,
    IcsiInstance,
    LinearIndexCode,
    build_receiver_decoder,
    decode,
    encode,
    exhaustive_correctness_check,
    in_relevant_error_set,
    make_field,
    margins,
    no_side_info,
    simulate_round,
    verify_ecic,
)
from ecic.errors import (
    BudgetExceeded,
    InternalContradiction,
    LengthMismatch,
    WeightCapExceeded,
)
from ecic import decoder, field_linalg
from ecic.decoder import CheckReport
from ecic.field_linalg import row_basis

from helpers import (
    F2,
    F3,
    check_reference,
    example1_code,
    pentagon_code,
    random_instance,
    random_matrix,
    recover_demand,
    reference_decoder,
)


# ---------------------------------------------------------------------------
# decoder construction


def test_build_example1_receiver():
    code = example1_code()
    dec = build_receiver_decoder(code, 0)
    basis = row_basis(reference_decoder(code, 0).unknown_rows)
    assert basis.rows == ((1, 1, 1, 0),)
    assert dec.parity.nrows == 3
    for r in range(basis.nrows):
        assert dec.parity.mul_col(basis.row(r)).is_zero()


def test_build_full_space_receiver_has_empty_parity():
    code = LinearIndexCode(no_side_info(3), F2, FMatrix.identity(F2, 3))
    dec = build_receiver_decoder(code, 0)
    assert row_basis(reference_decoder(code, 0).unknown_rows).nrows == 3
    assert dec.parity.nrows == 0


def test_build_pentagon_receiver():
    code = pentagon_code()
    dec = build_receiver_decoder(code, 0)
    unknown_rows = reference_decoder(code, 0).unknown_rows
    assert row_basis(unknown_rows).nrows == 3  # rows {1, 3, 4} of L are independent
    assert dec.parity.nrows == 6


def test_build_runs_one_elimination(monkeypatch):
    """One reduction of [L | I_n] reads a code of full row rank, and every
    receiver's decoder is a view on that reading, its dense parity check
    included: no build eliminates again.  The complement parity check comes
    from its own elimination, on first use; a build without a reading makes
    its own, with one elimination."""
    calls = []
    original = field_linalg._rref
    counting = lambda *a: calls.append(a) or original(*a)  # noqa: E731
    monkeypatch.setattr(field_linalg, "_rref", counting)
    monkeypatch.setattr(decoder, "_rref", counting)
    for code in (example1_code(), pentagon_code()):
        calls.clear()
        reading = decoder.code_reading(code)
        assert not reading.left_kernel  # full row rank
        for i in range(code.inst.num_receivers):
            dec = build_receiver_decoder(code, i, _reading=reading)
            assert dec.columns is reading.columns and not dec.reduction and dec.determined
            dec.parity
        assert len(calls) == 1
        dec.complement_parity
        assert len(calls) == 2
        calls.clear()
        build_receiver_decoder(code, 0)
        assert len(calls) == 1


def test_rank_deficient_views_reduce_by_the_left_kernel(monkeypatch):
    """Below full row rank each view reduces its side lanes by the left
    kernel's projection, one small elimination per receiver; the repeated
    rows of this pentagon code (rank 3 of 5) leave every demand
    determined."""
    calls = []
    original = decoder._rref
    monkeypatch.setattr(decoder, "_rref", lambda *a: calls.append(a) or original(*a))
    rows = ((1, 1, 0, 0, 1, 0), (1, 0, 0, 1, 1, 1), (1, 0, 0, 1, 1, 1),
            (0, 0, 1, 1, 1, 0), (0, 0, 1, 1, 1, 0))
    code = LinearIndexCode(pentagon_code().inst, F2, FMatrix(F2, rows, 6))
    reading = decoder.code_reading(code)
    assert len(reading.left_kernel) == 2 and len(calls) == 1
    decs = [build_receiver_decoder(code, i, _reading=reading) for i in range(5)]
    assert len(calls) == 6
    assert all(dec.determined for dec in decs)
    assert any(dec.reduction for dec in decs)
    assert exhaustive_correctness_check(code, 1) == CheckReport(True, 1120, None)


# ---------------------------------------------------------------------------
# decoding


def test_worked_decode_trace():
    """x = (1,0,1), broadcast 0101, error 0100, receiver 1 with side (0, 1)."""
    code = example1_code()
    dec = build_receiver_decoder(code, 0)
    y = encode(code, FVector(F2, (1, 0, 1))).add(FVector(F2, (0, 1, 0, 0)))
    out = decode(dec, y, side_values=(0, 1), weight_cap=1)
    assert out.recovered == 1
    assert out.error_estimate.entries == (0, 1, 0, 0)
    assert out.estimate_weight == 1


def test_zero_error_decodes_with_zero_estimate():
    code = pentagon_code()
    x = FVector(F2, (1, 0, 1, 1, 0))
    for out in simulate_round(code, x, FVector(F2, (0,) * 9), delta=2):
        assert out.success
        assert out.error_estimate.is_zero()


def test_syndrome_invariant_holds_for_every_decode():
    code = example1_code()
    dec = build_receiver_decoder(code, 1)
    side_rows = reference_decoder(code, 1).side_rows
    rng = random.Random(3)
    for _ in range(30):
        received = FVector(F2, tuple(rng.randrange(2) for _ in range(4)))
        side = tuple(rng.randrange(2) for _ in range(2))
        out = decode(dec, received, side, weight_cap=4)
        syndrome = dec.parity.mul_col(received.sub(side_rows.left_mul(FVector(F2, side))))
        assert dec.parity.mul_col(out.error_estimate).entries == syndrome.entries


@pytest.mark.parametrize(
    "word, side, exc",
    [
        (FVector(F2, (0, 1, 0)), (0, 1), LengthMismatch),  # one entry short
        (FVector(F3, (0, 1, 0, 0)), (0, 1), LengthMismatch),  # over another field
        (FVector(F2, (0, 1, 0, 0)), (0,), LengthMismatch),  # one side value short
        (FVector(F2, (0, 1, 0, 0)), (0, 2), ValueError),  # side value outside GF(2)
        (FVector(F2, (0, 1, 0, 0)), (-1, 0), ValueError),
        (FVector(F2, (0, 1, 0, 0, 1)), (0, 1), LengthMismatch),  # one entry long
    ],
)
def test_decode_rejects_malformed_input(word, side, exc):
    dec = build_receiver_decoder(example1_code(), 0)
    with pytest.raises(exc):
        decode(dec, word, side, weight_cap=1)


def test_decode_accepts_an_equal_field_built_apart():
    """The field check tests identity first, then equality: a word over a
    directly built GF(2) decodes exactly like one over the cached field."""
    dec = build_receiver_decoder(example1_code(), 0)
    other = Field(2)
    assert other is not F2 and other == F2
    got = decode(dec, FVector(other, (0, 1, 0, 0)), (0, 1), weight_cap=1, truth=1)
    assert got == decode(dec, FVector(F2, (0, 1, 0, 0)), (0, 1), weight_cap=1, truth=1)


@pytest.mark.parametrize(
    "candidate, reference",
    [
        (FVector(F2, (0, 1, 0)), FVector(F2, (0, 1, 0, 0))),
        (FVector(F2, (0, 1, 0)), FVector(F2, (0, 1, 0))),
        (FVector(F3, (0, 1, 0, 0)), FVector(F2, (0, 1, 0, 0))),
        (FVector(F3, (0, 1, 0, 0)), FVector(F3, (0, 1, 0, 0))),
    ],
)
def test_relevant_set_rejects_mismatched_vectors(candidate, reference):
    dec = build_receiver_decoder(example1_code(), 0)
    with pytest.raises(LengthMismatch):
        in_relevant_error_set(dec, candidate, reference)


def test_weight_cap_exceeded():
    code = example1_code()
    dec = build_receiver_decoder(code, 0)
    y = encode(code, FVector(F2, (1, 0, 1))).add(FVector(F2, (0, 1, 0, 0)))
    with pytest.raises(WeightCapExceeded):
        decode(dec, y, side_values=(0, 1), weight_cap=0)


def test_negative_weight_cap_is_exceeded_even_by_the_zero_error():
    """No vector has weight <= -1, so a negative cap is exceeded at every
    entry point, a remembered weight-0 leader included."""
    code = pentagon_code()
    dec = build_receiver_decoder(code, 0)
    assert list(field_linalg._weight_ordered(2, 9, -1)) == []
    with pytest.raises(WeightCapExceeded):
        field_linalg.coset_leader(dec.parity, FVector(F2, (0,) * dec.parity.nrows), -1)
    x = FVector(F2, (1, 0, 1, 1, 0))
    y, side = encode(code, x), [x.entries[j] for j in sorted(code.inst.side_info[0])]
    assert decode(dec, y, side, 0).estimate_weight == 0
    with pytest.raises(WeightCapExceeded):
        decode(dec, y, side, -1)
    with pytest.raises(WeightCapExceeded):
        simulate_round(code, x, FVector(F2, (0,) * 9), delta=0, weight_cap=-1)


def test_beyond_radius_can_be_wrong_but_is_flagged():
    report = exhaustive_correctness_check(example1_code(), 2)
    assert not report.ok
    ce = report.counterexample
    assert ce.kind == "wrong-output"
    out = simulate_round(example1_code(), ce.x, ce.error, delta=2)[ce.receiver]
    assert out.success is False


def _decode_or_cap(dec, received, side, cap):
    try:
        return decode(dec, received, side, cap, truth=1)
    except WeightCapExceeded as exc:
        return str(exc)


def test_leader_memo_answers_every_cap_order_like_a_fresh_decoder():
    code = pentagon_code()
    dec = build_receiver_decoder(code, 0)
    x = FVector(F2, (1, 0, 1, 1, 0))
    y = encode(code, x).add(FVector(F2, (1, 0, 0, 0, 0, 0, 0, 1, 0)))
    side = [x.entries[j] for j in sorted(code.inst.side_info[0])]
    seen = []
    for cap in (9, 0, 2, 1, 9):
        got = _decode_or_cap(dec, y, side, cap)
        assert got == _decode_or_cap(build_receiver_decoder(code, 0), y, side, cap), cap
        seen.append(got if isinstance(got, str) else got.estimate_weight)
    assert seen == [2, "no solution of weight <= 0", 2, "no solution of weight <= 1", 2]


def test_demand_in_complement_span_raises_contradiction():
    # receiver 1 demands row 0, which equals complement row 1
    code = LinearIndexCode(no_side_info(2), F2, FMatrix(F2, ((1, 0, 1), (1, 0, 1)), 3))
    dec, ref = build_receiver_decoder(code, 0), reference_decoder(code, 0)
    assert not dec.determined and ref.demand_functional is None
    received = FVector(F2, (1, 1, 0))
    with pytest.raises(InternalContradiction, match="not uniquely determined"):
        decode(dec, received, (), weight_cap=3)
    with pytest.raises(InternalContradiction, match="not uniquely determined"):
        recover_demand(ref, received, (), FVector(F2, (0, 1, 1)))
    with pytest.raises(WeightCapExceeded):  # the cap is checked first, as before
        decode(dec, received, (), weight_cap=0)


# ---------------------------------------------------------------------------
# relevant error patterns


def test_relevant_set_contains_reference():
    dec = build_receiver_decoder(pentagon_code(), 0)
    err = FVector(F2, (0, 1, 0, 0, 0, 0, 1, 0, 0))
    assert in_relevant_error_set(dec, err, err)


def test_relevant_set_is_singleton_when_complement_empty():
    dec = build_receiver_decoder(example1_code(), 0)
    err = FVector(F2, (0, 1, 0, 0))
    other = FVector(F2, (1, 1, 0, 0))
    assert in_relevant_error_set(dec, err, err)
    assert not in_relevant_error_set(dec, other, err)


def test_relevant_set_accepts_complement_row_translates():
    code = pentagon_code()
    dec = build_receiver_decoder(code, 0)  # complement rows: indices 2, 3
    err = FVector(F2, (0, 0, 0, 1, 0, 0, 0, 0, 0))
    assert in_relevant_error_set(dec, err.add(code.matrix.row(2)), err)
    assert in_relevant_error_set(dec, err.add(code.matrix.row(3)), err)
    assert in_relevant_error_set(dec, err.add(code.matrix.row(2)).add(code.matrix.row(3)), err)


def test_any_relevant_member_recovers_the_demand():
    """Solving with any member of the relevant set gives the same symbol."""
    code = pentagon_code()
    x = FVector(F2, (0, 1, 1, 0, 1))
    err = FVector(F2, (1, 0, 0, 0, 0, 0, 0, 1, 0))
    y = encode(code, x).add(err)
    for i in range(5):
        ref = reference_decoder(code, i)
        side = [x.entries[j] for j in sorted(code.inst.side_info[i])]
        comp_rows = [code.matrix.row(j) for j in sorted(code.inst.complement(i))]
        for coeffs in itertools.product((0, 1), repeat=len(comp_rows)):
            member = err
            for c, row in zip(coeffs, comp_rows):
                if c:
                    member = member.add(row)
            assert recover_demand(ref, y, side, member) == x.entries[code.inst.demands[i]]


def test_decode_estimate_lands_in_relevant_set():
    code = pentagon_code()
    rng = random.Random(7)
    for _ in range(25):
        x = FVector(F2, tuple(rng.randrange(2) for _ in range(5)))
        err_entries = [0] * 9
        for pos in rng.sample(range(9), rng.randint(0, 2)):
            err_entries[pos] = 1
        err = FVector(F2, tuple(err_entries))
        y = encode(code, x).add(err)
        for i in range(5):
            dec = build_receiver_decoder(code, i)
            side = [x.entries[j] for j in sorted(code.inst.side_info[i])]
            out = decode(dec, y, side, weight_cap=2)
            assert in_relevant_error_set(dec, out.error_estimate, err)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_round_pentagon_weight_two_errors():
    code = pentagon_code()
    rng = random.Random(11)
    for _ in range(10):
        x = FVector(F2, tuple(rng.randrange(2) for _ in range(5)))
        entries = [0] * 9
        for pos in rng.sample(range(9), 2):
            entries[pos] = 1
        outs = simulate_round(code, x, FVector(F2, tuple(entries)), delta=2)
        assert all(o.success for o in outs)


def test_simulate_round_per_receiver_errors():
    code = example1_code()
    x = FVector(F2, (1, 1, 0))
    errors = [
        FVector(F2, (1, 0, 0, 0)),
        FVector(F2, (0, 0, 1, 0)),
        FVector(F2, (0, 0, 0, 1)),
    ]
    outs = simulate_round(code, x, errors, delta=1)
    assert all(o.success for o in outs)


# ---------------------------------------------------------------------------
# exhaustive check


def test_exhaustive_check_example1():
    report = exhaustive_correctness_check(example1_code(), 1)
    assert report.ok
    assert report.decodes == 120  # 8 messages x 5 errors x 3 receivers


def test_exhaustive_check_without_receivers_decodes_nothing(monkeypatch):
    """No receiver, nothing to decode: the check returns at once instead of
    walking all 2^40 message vectors."""
    monkeypatch.setattr(decoder, "all_vectors", lambda *a: pytest.fail("walked the messages"))
    inst = IcsiInstance(0, 40, (), ())
    code = LinearIndexCode(inst, F2, FMatrix(F2, tuple((1,) for _ in range(40)), 1))
    assert exhaustive_correctness_check(code, 1) == CheckReport(True, 0, None)
    empty = LinearIndexCode(IcsiInstance(0, 0, (), ()), F2, FMatrix(F2, (), 0))
    assert simulate_round(empty, FVector(F2, ()), FVector(F2, ()), 1) == []


def test_estimate_outside_the_relevant_set_is_a_counterexample(monkeypatch):
    """With the relevance test answering no, the first decode whose
    estimate is not the true error fails the check: at x = 0, error
    e_1 + e_4 and receiver 1, as the per-decode reference finds too."""
    monkeypatch.setattr(decoder, "_relevant", lambda *a: False)
    report = exhaustive_correctness_check(pentagon_code(), 2)
    ce = report.counterexample
    assert (report.ok, report.decodes, ce.kind, ce.receiver) == (
        False, 102, "estimate-outside-relevant-set", 1
    )
    assert ce.x.is_zero() and ce.error.entries == (0, 1, 0, 0, 1, 0, 0, 0, 0)
    assert ce.outcome.success and ce.outcome.error_estimate != ce.error
    assert report == check_reference(pentagon_code(), 2)


def test_exhaustive_check_budget():
    with pytest.raises(BudgetExceeded):
        exhaustive_correctness_check(pentagon_code(), 2, enum_budget=100)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_check_agrees_with_verifier_on_random_codes(q):
    """Decoder success over all within-radius patterns iff the margin
    verdict says so; a zero margin (the demanded row lies in the span of
    the complement rows) fails at once, at x = 0 and error 0, as an
    undetermined demand."""
    field = make_field(q)
    rng = random.Random(13 + q)
    tested = {True: 0, False: 0, "zero margin": 0}
    for _ in range(40):
        inst = random_instance(rng, max_receivers=4, max_messages=4 if q < 5 else 3)
        L = random_matrix(field, inst.num_messages, rng.randint(1, 6), rng)
        code = LinearIndexCode(inst, field, L)
        zero_margin = any(m == 0 for m in margins(code))
        for delta in (0, 1):
            expected = verify_ecic(code, delta).ok
            report = exhaustive_correctness_check(code, delta)
            assert report.ok == expected
            if zero_margin:
                ce = report.counterexample
                assert ce.kind == "undetermined-demand" and ce.outcome is None
                assert ce.x.is_zero() and ce.error.is_zero()
                assert margins(code).index(0) == ce.receiver
                assert report.decodes == ce.receiver
                tested["zero margin"] += 1
                continue
            tested[expected] += 1
    assert min(tested.values()) >= 5, tested
