import itertools
import random

import pytest

from ecic import (
    FMatrix,
    FVector,
    IcsiInstance,
    LinearIndexCode,
    code_min_distance,
    correction_radius,
    encode,
    generalized_independence_number,
    in_support_family,
    instance,
    instance_params,
    make_field,
    margins,
    mat_rank,
    min_rank,
    no_side_info,
    odd_cycle_complement,
    pentagon,
    example1,
    verify_ecic,
    verify_ecic_direct,
    verify_ic,
)
from ecic.errors import BudgetExceeded, CapExceeded, LengthMismatch
from ecic.index_codes import _min_rank_parts

from helpers import (
    F2,
    F3,
    brute_min_rank,
    direct_reference,
    example1_code,
    pentagon_code,
    random_full_rank_matrix,
    random_instance,
    random_matrix,
)


# ---------------------------------------------------------------------------
# encoding


def test_encode_example1():
    out = encode(example1_code(), FVector(F2, (1, 0, 1)))
    assert out.entries == (0, 1, 0, 1)


def test_encode_zero_and_identity():
    code = pentagon_code()
    assert encode(code, FVector(F2, (0,) * 5)).is_zero()
    ident = LinearIndexCode(no_side_info(4), F2, FMatrix.identity(F2, 4))
    x = FVector(F2, (1, 0, 1, 1))
    assert encode(ident, x).entries == x.entries


def test_encode_length_mismatch():
    with pytest.raises(LengthMismatch):
        encode(example1_code(), FVector(F2, (1, 0)))


# ---------------------------------------------------------------------------
# margins / verification


def test_example1_margins_and_radius():
    code = example1_code()
    assert margins(code) == (3, 3, 3)
    assert margins(code)[0] == 3
    assert correction_radius(code) == 1


def test_pentagon_margins_and_radius():
    code = pentagon_code()
    assert margins(code)[0] >= 5
    assert margins(code) == (5, 5, 5, 5, 5)
    assert correction_radius(code) == 2


def test_identity_margins_no_side_info():
    code = LinearIndexCode(no_side_info(4), F2, FMatrix.identity(F2, 4))
    assert margins(code) == (1, 1, 1, 1)


def test_verify_examples():
    assert verify_ecic(example1_code(), 1).ok
    assert verify_ecic(pentagon_code(), 2).ok
    verdict = verify_ecic(example1_code(), 2)
    assert not verdict.ok
    assert verdict.certificate.entries == (1, 0, 0)
    assert encode(example1_code(), verdict.certificate).weight() <= 4


def test_radius_of_zero_matrix_is_none():
    code = LinearIndexCode(example1(), F2, FMatrix.zero(F2, 3, 4))
    assert correction_radius(code) is None


def test_verify_ic_examples():
    ident = LinearIndexCode(pentagon(), F2, FMatrix.identity(F2, 5))
    assert verify_ic(ident)
    ones_col = FMatrix(F2, tuple((1,) for _ in range(5)), 1)
    assert not verify_ic(LinearIndexCode(pentagon(), F2, ones_col))
    ones_col3 = FMatrix(F2, tuple((1,) for _ in range(3)), 1)
    assert verify_ic(LinearIndexCode(example1(), F2, ones_col3))


def test_verify_ic_is_delta_zero_verification():
    rng = random.Random(31)
    for _ in range(60):
        inst = random_instance(rng, max_messages=4)
        field = F2 if rng.random() < 0.5 else F3
        L = random_matrix(field, inst.num_messages, rng.randint(1, 5), rng)
        code = LinearIndexCode(inst, field, L)
        assert verify_ic(code) == verify_ecic(code, 0).ok


def test_direct_and_margin_routes_agree():
    rng = random.Random(37)
    for _ in range(60):
        inst = random_instance(rng, max_messages=4)
        field = F2 if rng.random() < 0.5 else F3
        L = random_matrix(field, inst.num_messages, rng.randint(1, 5), rng)
        code = LinearIndexCode(inst, field, L)
        for delta in (0, 1, 2):
            assert verify_ecic(code, delta).ok == verify_ecic_direct(code, delta).ok


def _confusable_total(inst, field):
    return sum(
        (field.q - 1) * field.q ** len(inst.complement(i)) for i in range(inst.num_receivers)
    )


@pytest.mark.parametrize("q", [2, 3])
def test_direct_budget_is_checked_before_any_vector(monkeypatch, q):
    field = make_field(q)
    code = LinearIndexCode(pentagon(), field, random_matrix(field, 5, 6, random.Random(q)))
    total = _confusable_total(code.inst, field)

    def no_walk(*args):
        raise AssertionError("a vector was walked")

    with monkeypatch.context() as patched:
        patched.setattr(instance, "_odometer", no_walk)
        with pytest.raises(BudgetExceeded) as exc:
            verify_ecic_direct(code, 1, enum_budget=total - 1)
    assert str(exc.value) == f"receivers contribute {total} vectors, over budget {total - 1}"
    for delta in (0, 1, 2):
        assert verify_ecic_direct(code, delta, enum_budget=total) == direct_reference(code, delta)


@pytest.mark.parametrize("q", [8, 9])
def test_direct_certificates_on_multi_digit_lanes(q):
    """GF(8) and GF(9) symbols span several base-p lanes; the first failing
    z must still be the reference's, and confusable."""
    field = make_field(q)
    rng = random.Random(q)
    inst = IcsiInstance(
        4, 4, (0, 1, 2, 3), (frozenset({1}), frozenset({2, 3}), frozenset(), frozenset({0}))
    )
    certificates = []
    while len(certificates) < 6:
        code = LinearIndexCode(inst, field, random_matrix(field, 4, rng.randint(2, 5), rng))
        verdict = verify_ecic_direct(code, 1)
        assert verdict == direct_reference(code, 1)
        if not verdict.ok:
            z = verdict.certificate.entries
            assert any(z[inst.demands[i]] and not any(z[j] for j in inst.side_info[i])
                       for i in range(inst.num_receivers))
            assert in_support_family(inst, {j for j, x in enumerate(z) if x})
            assert encode(code, verdict.certificate).weight() <= 2
            certificates.append(z)
    assert any(x >= field.p for z in certificates for x in z)  # a digit above the lowest lane


def test_radius_consistent_with_verify():
    rng = random.Random(41)
    for _ in range(40):
        inst = random_instance(rng, max_messages=4)
        L = random_matrix(F2, inst.num_messages, rng.randint(1, 6), rng)
        code = LinearIndexCode(inst, F2, L)
        radius = correction_radius(code)
        for delta in (0, 1, 2, 3):
            expected = radius is not None and radius >= delta
            assert verify_ecic(code, delta).ok == expected


def test_classical_reduction_full_rank_no_side_info():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 4)
        N = rng.randint(n, 7)
        L = random_full_rank_matrix(F2, n, N, rng)
        code = LinearIndexCode(no_side_info(n), F2, L)
        d = code_min_distance(L)
        for delta in (0, 1, 2):
            assert verify_ecic(code, delta).ok == (d >= 2 * delta + 1)


def test_margin_budget():
    code = LinearIndexCode(no_side_info(5), F2, FMatrix.identity(F2, 5))
    with pytest.raises(BudgetExceeded):
        margins(code, enum_budget=3)


# ---------------------------------------------------------------------------
# alpha


def test_alpha_examples():
    alpha, witness = generalized_independence_number(pentagon())
    assert alpha == 2
    assert witness == (0, 2)  # 1-based {1, 3}
    assert generalized_independence_number(no_side_info(4))[0] == 4
    assert generalized_independence_number(example1())[0] == 1


def test_alpha_witness_is_generalized_independent():
    from ecic import in_support_family

    for inst in (pentagon(), example1(), odd_cycle_complement(2)):
        _, witness = generalized_independence_number(inst)
        for r in range(1, len(witness) + 1):
            for sub in itertools.combinations(witness, r):
                assert in_support_family(inst, sub)


def test_alpha_cap():
    with pytest.raises(CapExceeded):
        generalized_independence_number(no_side_info(30))


# ---------------------------------------------------------------------------
# min-rank


def test_min_rank_examples():
    assert min_rank(pentagon(), F2).kappa == 3
    assert min_rank(no_side_info(4), F2).kappa == 4
    res = min_rank(example1(), F2)
    assert res.kappa == 1
    assert all(all(v == 1 for v in row) for row in res.witness.rows)


def test_min_rank_witness_validates():
    rng = random.Random(47)
    insts = [pentagon(), example1(), odd_cycle_complement(2)] + [
        random_instance(rng, max_messages=4) for _ in range(15)
    ]
    for inst in insts:
        for field in (F2, F3):
            res = min_rank(inst, field)
            assert mat_rank(res.witness) == res.kappa
            for i in range(inst.num_receivers):
                row = res.witness.row(i)
                assert row.entries[inst.demands[i]] == 1
                allowed = set(inst.side_info[i]) | {inst.demands[i]}
                assert {j for j, x in enumerate(row.entries) if x} <= allowed


def test_min_rank_is_minimum_by_exhaustion():
    rng = random.Random(53)
    for _ in range(8):
        inst = random_instance(rng, max_receivers=3, max_messages=3)
        for field in (F2, F3):
            assert min_rank(inst, field).kappa == brute_min_rank(inst, field)
    for _ in range(6):
        inst = random_instance(rng, max_receivers=4, max_messages=4)
        assert min_rank(inst, F2).kappa == brute_min_rank(inst, F2)


def test_min_rank_gf7_witness_validates():
    f7 = make_field(7)
    inst = odd_cycle_complement(2)
    res = min_rank(inst, f7)
    assert res.kappa == 3
    assert mat_rank(res.witness) == 3
    for i in range(inst.num_receivers):
        row = res.witness.row(i)
        assert row.entries[inst.demands[i]] == 1
        assert {j for j, x in enumerate(row.entries) if x} <= set(inst.side_info[i]) | {inst.demands[i]}


def test_min_rank_budget():
    inst = odd_cycle_complement(4)  # 9 messages, 6 side infos each
    # the hit-set table would hold (8^9 - 1) / 7 = 19,173,961 column classes
    with pytest.raises(BudgetExceeded, match="19173961 column classes"):
        min_rank(inst, make_field(8))


def test_min_rank_budget_counts_every_part():
    """Two disjoint pentagons over GF(2) are two parts, each settled by a
    56-node probe at alpha = 2; one node short of both, the second probe
    trips, and the error carries the nodes of both parts and kappa's
    bracket: the first part's kappa 3 plus the second's [2, 3].  Tripped in
    the first part, the bracket adds the second part's alpha 2 below and
    its size 5 above."""
    p = pentagon()
    inst = IcsiInstance(
        10, 10, p.demands + tuple(d + 5 for d in p.demands),
        p.side_info + tuple(frozenset(x + 5 for x in side) for side in p.side_info),
    )
    assert [msgs for msgs, _ in _min_rank_parts(inst)] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    assert min_rank(inst, F2, node_budget=112).kappa == 6
    with pytest.raises(BudgetExceeded, match=r"messages \[6, 7, 8, 9, 10\]") as err:
        min_rank(inst, F2, node_budget=111)
    assert err.value.nodes == 112
    assert (err.value.infeasible_below, err.value.feasible_at) == (5, 6)
    with pytest.raises(BudgetExceeded, match=r"messages \[1, 2, 3, 4, 5\]") as err:
        min_rank(inst, F2, node_budget=10)
    assert (err.value.infeasible_below, err.value.feasible_at) == (4, 8)


def test_min_rank_beyond_the_alpha_cap():
    # every message is a part of its own, so kappa = 30 needs neither the
    # capped alpha search of the whole instance nor any table
    res = min_rank(no_side_info(30), F2)
    assert res.kappa == 30
    assert res.witness == res.ic_matrix == FMatrix.identity(F2, 30)


def test_min_rank_of_a_one_way_chain_beyond_the_caps():
    # receiver 1 also holds message 2, which nobody points back from: 25
    # one-message parts, although 25 messages exceed the alpha cap and the
    # whole instance's 2^25 - 1 classes the table budget
    inst = IcsiInstance(25, 25, tuple(range(25)), (frozenset({1}),) + (frozenset(),) * 24)
    res = min_rank(inst, F2)
    assert res.kappa == 25
    assert res.ic_matrix == FMatrix.identity(F2, 25)
    assert mat_rank(res.witness) == 25


def test_min_rank_splits_a_two_cycle_from_fourteen_lone_demands():
    # receivers 1 and 2 hold each other's demand, the other 14 hold nothing:
    # alpha = 15 < 16 demands, yet only the two-cycle needs a search
    inst = IcsiInstance(
        16, 16, tuple(range(16)), (frozenset({1}), frozenset({0})) + (frozenset(),) * 14
    )
    res = min_rank(inst, F2)
    assert res.kappa == 15
    assert verify_ic(LinearIndexCode(inst, F2, res.ic_matrix))
    assert res.ic_matrix.rows[0] == res.ic_matrix.rows[1] == (1,) + (0,) * 14


@pytest.mark.parametrize("field, top", [(F2, 9), (F3, 6)])
def test_min_rank_of_a_directed_cycle_needs_no_exhaustive_search(monkeypatch, field, top):
    """On the directed n-cycle (receiver i demands i and holds i + 1 mod n)
    alpha = kappa = n - 1 is the first length the descent tries, so tabu
    goes first there and its code ends the descent with no proof."""
    from ecic import index_codes

    def refuse(*args, **kwargs):
        raise AssertionError("exhaustive cover search called")

    monkeypatch.setattr(index_codes, "multiset_cover_search", refuse)
    for n in range(2, top + 1):
        side = tuple(frozenset({(i + 1) % n}) for i in range(n))
        inst = IcsiInstance(n, n, tuple(range(n)), side)
        res = min_rank(inst, field)
        assert res.kappa == n - 1, n
        assert verify_ic(LinearIndexCode(inst, field, res.ic_matrix))


@pytest.mark.parametrize("field", [F2, F3])
def test_min_rank_parts_linked_one_way_add_up(field):
    # two two-cycles, {1, 2} and {3, 4}; receiver 1 also holds message 3
    inst = IcsiInstance(
        4, 4, (0, 1, 2, 3), (frozenset({1, 2}), frozenset({0}), frozenset({3}), frozenset({2}))
    )
    assert [msgs for msgs, _ in _min_rank_parts(inst)] == [[0, 1], [2, 3]]
    assert min_rank(inst, field).kappa == brute_min_rank(inst, field) == 2


def test_min_rank_degenerate_no_receivers():
    from ecic import IcsiInstance

    inst = IcsiInstance(0, 3, (), ())
    res = min_rank(inst, F2)
    assert res.kappa == 0 and res.witness.nrows == 0
    assert generalized_independence_number(inst) == (0, ())


def test_alpha_never_exceeds_kappa():
    rng = random.Random(59)
    insts = [pentagon(), example1(), odd_cycle_complement(2), no_side_info(3)] + [
        random_instance(rng, max_messages=4) for _ in range(15)
    ]
    for inst in insts:
        alpha, _ = generalized_independence_number(inst)
        for field in (F2, F3):
            assert alpha <= min_rank(inst, field).kappa <= inst.num_messages


def test_instance_params_bundle():
    params = instance_params(pentagon(), F2)
    assert (params.alpha, params.kappa) == (2, 3)
    assert params.alpha_witness == (0, 2)
    assert mat_rank(params.kappa_witness) == 3
