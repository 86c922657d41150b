import random

import pytest

from ecic import (
    FMatrix,
    LinearIndexCode,
    code_min_distance,
    concatenate_construction,
    exists_ecic,
    find_code_generator,
    make_field,
    mat_rank,
    mds_generator,
    min_rank,
    no_side_info,
    optimal_ic_matrix,
    optimal_length_search,
    pentagon,
    example1,
    random_construct,
    verify_ecic,
    verify_ic,
)
from ecic.errors import (
    BudgetExceeded,
    InvalidInnerIC,
    OutOfRegime,
    OuterDistanceTooSmall,
    UnknownCodeLength,
)

from helpers import F2, F3, random_instance, random_matrix


# ---------------------------------------------------------------------------
# MDS generators


def test_mds_repetition_identity():
    rep = mds_generator(F2, 1, 5)
    assert rep.rows == ((1, 1, 1, 1, 1),)
    assert code_min_distance(rep) == 5
    ident = mds_generator(make_field(7), 4, 4)
    assert ident == FMatrix.identity(make_field(7), 4)
    assert code_min_distance(ident) == 1


def test_mds_reed_solomon_distance():
    f7 = make_field(7)
    G = mds_generator(f7, 3, 7)
    assert mat_rank(G) == 3
    assert code_min_distance(G) == 5  # N - k + 1


def test_mds_extended_column():
    f5 = make_field(5)
    G = mds_generator(f5, 2, 6)  # q + 1 columns
    assert code_min_distance(G) == 5


def test_mds_every_regime_has_designed_distance():
    for q, k, N in [(2, 1, 7), (3, 2, 4), (4, 3, 5), (5, 2, 5), (7, 5, 8)]:
        field = make_field(q)
        G = mds_generator(field, k, N)
        assert mat_rank(G) == k
        assert code_min_distance(G) == N - k + 1


def test_mds_out_of_regime():
    with pytest.raises(OutOfRegime):
        mds_generator(F2, 2, 4)  # needs N <= q + 1 = 3
    with pytest.raises(OutOfRegime):
        mds_generator(F2, 3, 2)
    with pytest.raises(OutOfRegime):
        mds_generator(F2, 0, 2)


# ---------------------------------------------------------------------------
# concatenation


def test_optimal_ic_matrix_is_an_index_code_of_min_rank_width():
    for inst in (pentagon(), example1()):
        for field in (F2, F3):
            inner = optimal_ic_matrix(inst, field)
            assert inner.ncols == min_rank(inst, field).kappa
            assert verify_ic(LinearIndexCode(inst, field, inner))


def test_concatenation_reaches_kappa_bound_for_pentagon():
    inner = optimal_ic_matrix(pentagon(), F2)
    outer = find_code_generator(2, 3, 5, 10)
    code = concatenate_construction(pentagon(), F2, 2, inner, outer)
    assert code.length == 10
    assert verify_ecic(code, 2).ok


def test_concatenation_with_identity_outer_is_plain_ic():
    inner = optimal_ic_matrix(pentagon(), F2)
    code = concatenate_construction(pentagon(), F2, 0, inner, FMatrix.identity(F2, 3))
    assert code.length == 3
    assert verify_ic(code)


def test_concatenation_mds_matches_singleton():
    f7 = make_field(7)
    inner = optimal_ic_matrix(pentagon(), f7)
    kappa = inner.ncols
    outer = mds_generator(f7, kappa, kappa + 2)
    code = concatenate_construction(pentagon(), f7, 1, inner, outer)
    assert code.length == kappa + 2
    assert verify_ecic(code, 1).ok


def test_concatenation_rejects_bad_inner():
    ones_col = FMatrix(F2, tuple((1,) for _ in range(5)), 1)
    with pytest.raises(InvalidInnerIC):
        concatenate_construction(pentagon(), F2, 0, ones_col, FMatrix.identity(F2, 1))


def test_concatenation_rejects_weak_outer():
    inner = optimal_ic_matrix(pentagon(), F2)
    with pytest.raises(OuterDistanceTooSmall):
        concatenate_construction(pentagon(), F2, 2, inner, FMatrix.identity(F2, 3))


def test_concatenation_rejects_rank_deficient_outer():
    inner = optimal_ic_matrix(example1(), F2)  # 3 x 1
    outer = FMatrix(F2, ((0, 0, 0),), 3)
    with pytest.raises(OuterDistanceTooSmall):
        concatenate_construction(example1(), F2, 1, inner, outer)


def test_concatenation_property_random_valid_inputs():
    rng = random.Random(67)
    done = 0
    while done < 10:
        inst = random_instance(rng, max_messages=4)
        kappa = min_rank(inst, F2).kappa
        if kappa == 0:
            continue
        delta = rng.randint(0, 1)
        need = 2 * delta + 1
        length = None
        from ecic import shortest_code_length

        length = shortest_code_length(2, kappa, need)
        outer = find_code_generator(2, kappa, need, length)
        inner = optimal_ic_matrix(inst, F2)
        code = concatenate_construction(inst, F2, delta, inner, outer)
        assert verify_ecic(code, delta).ok
        done += 1


# ---------------------------------------------------------------------------
# random construction


def test_random_construct_reproducible():
    a = random_construct(pentagon(), F2, 2, 16, trials=50, seed=9)
    b = random_construct(pentagon(), F2, 2, 16, trials=50, seed=9)
    assert a is not None and b is not None
    assert a.matrix == b.matrix
    c = random_construct(pentagon(), F2, 2, 16, trials=50, seed=10)
    assert c is not None  # different seed still succeeds at this length


def test_random_construct_below_alpha_bound_is_absent():
    assert random_construct(pentagon(), F2, 2, 7, trials=40, seed=1) is None


# ---------------------------------------------------------------------------
# existence and optimal length


def test_exists_example1_brackets():
    res3 = exists_ecic(example1(), F2, 1, 3)
    assert res3.feasible and verify_ecic(res3.witness, 1).ok
    res2 = exists_ecic(example1(), F2, 1, 2)
    assert not res2.feasible


def test_exists_at_kappa_for_delta_zero():
    for inst in (pentagon(), example1(), no_side_info(3)):
        kappa = min_rank(inst, F2).kappa
        res = exists_ecic(inst, F2, 0, kappa)
        assert res.feasible
        if kappa > 0:
            assert not exists_ecic(inst, F2, 0, kappa - 1).feasible


def test_exists_degenerate_no_receivers():
    from ecic import IcsiInstance

    res = exists_ecic(IcsiInstance(0, 2, (), ()), F2, 3, 0)
    assert res.feasible and res.witness.length == 0
    out = optimal_length_search(IcsiInstance(0, 2, (), ()), F2, 1)
    assert out.optimal_length == 0 and out.infeasible_below == -1


def test_exists_budget():
    with pytest.raises(BudgetExceeded):
        exists_ecic(pentagon(), F2, 2, 9, node_budget=5)


def test_exists_agrees_with_brute_force_over_all_matrices():
    """Oracle: try literally every n x N matrix over GF(2)."""
    import itertools

    rng = random.Random(79)
    for _ in range(12):
        inst = random_instance(rng, max_receivers=3, max_messages=3)
        n = inst.num_messages
        N = rng.randint(1, 3)
        delta = rng.randint(0, 1)
        brute = False
        for bits in itertools.product((0, 1), repeat=n * N):
            rows = tuple(tuple(bits[r * N : (r + 1) * N]) for r in range(n))
            code = LinearIndexCode(inst, F2, FMatrix(F2, rows, N))
            if verify_ecic(code, delta).ok:
                brute = True
                break
        assert exists_ecic(inst, F2, delta, N).feasible == brute


def test_optimal_length_small_cases():
    assert optimal_length_search(example1(), F2, 1).optimal_length == 3
    assert optimal_length_search(pentagon(), F2, 0).optimal_length == 3
    assert optimal_length_search(pentagon(), F2, 1).optimal_length == 6
    out = optimal_length_search(no_side_info(3), F2, 1)
    assert out.optimal_length == 6  # classical: shortest [N, 3, 3] code
    assert out.infeasible_below == 5


def test_optimal_length_budget_error_carries_bracket():
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(pentagon(), F2, 2, node_budget=10)
    assert "infeasible below" in str(err.value)


def test_optimal_length_bound_scans_respect_budget():
    from ecic import kappa_bound

    # N_2[3,5] = 10 needs more than 10 nodes, so the kappa bound is unknown
    # and the scan's upper end falls back to kappa * (2*delta + 1) = 15
    with pytest.raises(UnknownCodeLength):
        kappa_bound(pentagon(), F2, 2, node_budget=10)
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(pentagon(), F2, 2, node_budget=10)
    assert "infeasible below 8, feasible at 15" in str(err.value)


def test_optimal_length_respects_sandwich():
    from ecic import alpha_bound, kappa_bound, singleton_bound

    rng = random.Random(71)
    for _ in range(8):
        inst = random_instance(rng, max_messages=4)
        delta = rng.randint(0, 1)
        out = optimal_length_search(inst, F2, delta)
        assert alpha_bound(inst, F2, delta) <= out.optimal_length
        assert singleton_bound(inst, F2, delta) <= out.optimal_length
        assert out.optimal_length <= kappa_bound(inst, F2, delta)
        assert verify_ecic(out.witness, delta).ok
        assert out.infeasible_below == out.optimal_length - 1


def test_parallel_search_matches_serial():
    s = exists_ecic(pentagon(), F2, 1, 5)
    p = exists_ecic(pentagon(), F2, 1, 5, jobs=2)
    assert s.feasible == p.feasible
    assert s.nodes == p.nodes
    s8 = exists_ecic(pentagon(), F2, 1, 4, jobs=1)
    p8 = exists_ecic(pentagon(), F2, 1, 4, jobs=2)
    assert s8.feasible == p8.feasible is False
    assert s8.nodes == p8.nodes


def test_full_pipeline_over_extension_field():
    """Everything end to end over GF(4): parameters, search, decoding."""
    from ecic import (
        bounds_report,
        exhaustive_correctness_check,
        generalized_independence_number,
    )

    f4 = make_field(4)
    inst = example1()
    assert generalized_independence_number(inst)[0] == 1
    assert min_rank(inst, f4).kappa == 1
    rep = bounds_report(inst, f4, 1)
    assert rep.lower == rep.upper == 3  # repetition regime, MDS equality
    assert rep.mds_equality is True
    out = optimal_length_search(inst, f4, 1)
    assert out.optimal_length == 3
    check = exhaustive_correctness_check(out.witness, 1)
    assert check.ok and check.decodes == 64 * 10 * 3


def test_column_symmetry_small():
    """Permuting and scaling columns never changes the verdict."""
    rng = random.Random(73)
    for _ in range(60):
        inst = random_instance(rng, max_messages=4)
        field = F2 if rng.random() < 0.5 else F3
        N = rng.randint(1, 5)
        L = random_matrix(field, inst.num_messages, N, rng)
        perm = list(range(N))
        rng.shuffle(perm)
        scales = [rng.randrange(1, field.q) for _ in range(N)]
        transformed = FMatrix(
            field,
            tuple(
                tuple(field.mul(scales[j], row[perm[j]]) for j in range(N))
                for row in L.rows
            ),
            N,
        )
        delta = rng.randint(0, 2)
        a = verify_ecic(LinearIndexCode(inst, field, L), delta).ok
        b = verify_ecic(LinearIndexCode(inst, field, transformed), delta).ok
        assert a == b
