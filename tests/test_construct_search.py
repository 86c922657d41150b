import functools
import itertools
import random

import pytest

from ecic import (
    FMatrix,
    LinearIndexCode,
    code_exists,
    code_min_distance,
    concatenate_construction,
    exists_ecic,
    make_field,
    mat_rank,
    mds_generator,
    min_rank,
    no_side_info,
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
            inner = min_rank(inst, field).ic_matrix
            assert inner.ncols == min_rank(inst, field).kappa
            assert verify_ic(LinearIndexCode(inst, field, inner))


def test_concatenation_reaches_kappa_bound_for_pentagon():
    inner = min_rank(pentagon(), F2).ic_matrix
    outer = code_exists(2, 3, 5, 10)
    code = concatenate_construction(pentagon(), F2, 2, inner, outer)
    assert code.length == 10
    assert verify_ecic(code, 2).ok


def test_concatenation_with_identity_outer_is_plain_ic():
    inner = min_rank(pentagon(), F2).ic_matrix
    code = concatenate_construction(pentagon(), F2, 0, inner, FMatrix.identity(F2, 3))
    assert code.length == 3
    assert verify_ic(code)


def test_concatenation_mds_matches_singleton():
    f7 = make_field(7)
    inner = min_rank(pentagon(), f7).ic_matrix
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
    inner = min_rank(pentagon(), F2).ic_matrix
    with pytest.raises(OuterDistanceTooSmall):
        concatenate_construction(pentagon(), F2, 2, inner, FMatrix.identity(F2, 3))


def test_concatenation_rejects_rank_deficient_outer():
    inner = min_rank(example1(), F2).ic_matrix  # 3 x 1
    outer = FMatrix(F2, ((0, 0, 0),), 3)
    with pytest.raises(OuterDistanceTooSmall):
        concatenate_construction(example1(), F2, 1, inner, outer)


def test_outer_check_matches_a_brute_force_walk():
    """On seeded k x N outers over GF(2), GF(3) and GF(4), a third of them
    rank deficient (a zero row or a multiple of another row), the outer
    check raises OuterDistanceTooSmall exactly when some nonzero message
    encodes to a word of weight below 2*delta + 1.  The inner code is the
    identity of no-side-info:k, so an accepted outer comes back as the
    code."""
    rng = random.Random(71)
    seen = {"rejected": 0, "accepted": 0, "deficient": 0}
    for field in (F2, F3, make_field(4)):
        for _ in range(60):
            k, N, delta = rng.randint(1, 3), rng.randint(0, 7), rng.randint(0, 2)
            rows = [[rng.randrange(field.q) for _ in range(N)] for _ in range(k)]
            if k > 1 and rng.random() < 1 / 3:
                c = rng.randrange(field.q)
                rows[-1] = [field.mul(c, x) for x in rows[rng.randrange(k - 1)]]
                seen["deficient"] += 1
            lightest = min(
                sum(1 for col in zip(*rows) if functools.reduce(
                    field.add, (field.mul(a, x) for a, x in zip(msg, col)), 0))
                for msg in itertools.product(range(field.q), repeat=k) if any(msg)
            )
            inst, outer = no_side_info(k), FMatrix(field, tuple(map(tuple, rows)), N)
            inner = FMatrix.identity(field, k)
            if lightest < 2 * delta + 1:
                with pytest.raises(OuterDistanceTooSmall):
                    concatenate_construction(inst, field, delta, inner, outer)
                seen["rejected"] += 1
            else:
                assert concatenate_construction(inst, field, delta, inner, outer).matrix == outer
                seen["accepted"] += 1
    assert min(seen.values()) >= 20, seen


def test_outer_check_budget_comes_first():
    outer = FMatrix.identity(F2, 3)
    with pytest.raises(BudgetExceeded, match=r"outer check needs 2\^3 messages"):
        concatenate_construction(no_side_info(3), F2, 0, outer, outer, enum_budget=7)
    assert concatenate_construction(no_side_info(3), F2, 0, outer, outer, enum_budget=8)


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
        outer = code_exists(2, kappa, need, length)
        inner = min_rank(inst, F2).ic_matrix
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
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (8, 9, 11)


def test_search_kappa_on_an_instance_of_several_parts():
    # a two-cycle {1, 2} beside a lone demand 3: kappa = 1 + 1, so the
    # scan's shared analysis (of the whole instance) must not stand in for
    # a part's
    from ecic import IcsiInstance

    inst = IcsiInstance(3, 3, (0, 1, 2), (frozenset({1}), frozenset({0}), frozenset()))
    assert min_rank(inst, F2).kappa == 2
    assert optimal_length_search(inst, F2, 0).optimal_length == 2


def test_optimal_length_bound_scans_respect_budget():
    from ecic import kappa_bound, shortest_code_length

    # N_2[3, 5] = 10 is constructed with no node, but N_2[5, 5], the outer
    # code of the 5 demands' unit columns that serves while kappa is
    # unknown, needs more than 10 nodes, so the scan starts from 5 * 5 = 25;
    # local search carries the witness down to 9, and the N=8 proof runs
    # out of budget
    assert shortest_code_length(2, 3, 5, node_budget=10) == 10
    with pytest.raises(UnknownCodeLength):
        shortest_code_length(2, 5, 5, node_budget=10)
    # kappa_bound spends the same budget on kappa first, whose length-2
    # proof needs more than 10 nodes
    with pytest.raises(BudgetExceeded) as err:
        kappa_bound(pentagon(), F2, 2, node_budget=10)
    assert (err.value.nodes, err.value.infeasible_below, err.value.feasible_at) == (11, 2, 3)
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(pentagon(), F2, 2, node_budget=10)
    assert "at length 8; infeasible below 8, feasible at 9" in str(err.value)


def test_hit_set_table_over_budget_exits_with_the_bracket():
    """no-side-info:10 over GF(3): every nonzero class is a target, and the
    29,524 x 29,524 hit-set table exceeds the enumeration budget.  alpha =
    kappa = 10 needs no table, and N_3[10, 3] = 13, the shortened Hamming
    code, needs none either, so the bracket closes at 13 with no witness
    built."""
    with pytest.raises(BudgetExceeded, match="analysing the instance") as err:
        optimal_length_search(no_side_info(10), F3, 1)
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (13, 13, 0)


def directed_cycle(n):
    """Receiver i demands message i and holds message i + 1 (mod n)."""
    from ecic import IcsiInstance

    return IcsiInstance(n, n, tuple(range(n)), tuple(frozenset({(i + 1) % n}) for i in range(n)))


def test_a_one_part_instance_over_budget_is_analysed_once(monkeypatch):
    """The directed 16-cycle is one min-rank part, and its cover table
    (65,535 classes) exceeds the enumeration budget: kappa stays unknown
    with no second analysis, and the bracket is N_2[15, 3] = 20 at alpha
    15 and N_2[16, 3] = 21 at the 16 demands' unit columns."""
    from ecic import construct_search, index_codes

    calls = []
    real = index_codes._analyse

    def analyse(inst, field, enum_budget):
        calls.append(inst.num_messages)
        return real(inst, field, enum_budget)

    monkeypatch.setattr(index_codes, "_analyse", analyse)
    monkeypatch.setattr(construct_search, "_analyse", analyse)
    with pytest.raises(BudgetExceeded, match="analysing the instance") as err:
        optimal_length_search(directed_cycle(16), F2, 1)
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (20, 21, 0)
    assert calls == [16]


@pytest.mark.parametrize("q", [2, 3])
def test_search_stays_inside_the_bounds_bracket(q):
    """`search` answers inside `bounds`' lower..upper under the same node
    budget, or exits 3 with lower as its floor and a ceiling no higher than
    upper.  Ten nodes leave some of these instances' kappa unsettled."""
    from ecic import bounds_report

    field = make_field(q)
    rng = random.Random(q)
    exits = []
    for delta, budget in itertools.product([0, 1], [{"node_budget": 10}, {"node_budget": 1000}, {}]):
        for _ in range(10):
            inst = random_instance(rng, max_receivers=10, max_messages=8 if q == 2 else 6)
            report = bounds_report(inst, field, delta, **budget)
            try:
                out = optimal_length_search(inst, field, delta, **budget)
            except BudgetExceeded as exc:
                exits.append(budget)
                assert exc.infeasible_below == report.lower
                assert exc.feasible_at <= report.upper
            else:
                assert report.lower <= out.optimal_length <= report.upper
                assert verify_ecic(out.witness, delta).ok
    assert 0 < len(exits) < 60


def always_miss(hit_sets, quotas, size, iterations, stream):
    return None, 0


def test_node_budget_is_shared_by_the_whole_scan(monkeypatch):
    """Without local-search witnesses the scan decides pentagon q=2 delta=2
    by exhaustion at N = 10, 9 (feasible) and 8 (infeasible): 134,739 +
    45,172 + 230 nodes.  Each call fits a budget one node short of the
    total, but the scan does not."""
    from ecic import _cover

    monkeypatch.setattr(_cover, "local_cover_search", always_miss)
    total = 134_739 + 45_172 + 230
    out = optimal_length_search(pentagon(), F2, 2, node_budget=total)
    assert (out.optimal_length, out.stats.nodes, out.stats.local_iterations) == (9, total, 0)
    assert verify_ecic(out.witness, 2).ok
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(pentagon(), F2, 2, node_budget=total - 1)
    assert "at length 8; infeasible below 8, feasible at 9" in str(err.value)
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (8, 9, total)
    # the case that once returned 279,056 nodes under a 278,400 budget: the
    # N = 13 witness hunt alone now trips it
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(pentagon(), F2, 3, node_budget=278_400)
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (11, 13, 278_401)


def test_scan_starts_at_the_cover_cap_when_the_upper_bound_is_beyond_it(monkeypatch):
    from ecic import construct_search
    from ecic.errors import CapExceeded

    # pentagon q=2 delta=2: optimum 9, concatenation bound 10
    monkeypatch.setattr(construct_search, "_MAX_SIZE", 9)
    out = optimal_length_search(pentagon(), F2, 2)
    assert (out.optimal_length, out.infeasible_below, out.witness.length) == (9, 8, 9)
    monkeypatch.setattr(construct_search, "_MAX_SIZE", 8)
    with pytest.raises(CapExceeded):
        optimal_length_search(pentagon(), F2, 2)


# (instance, q, delta, optimum, nodes, tabu moves) in the built-in labelling:
# the bottom length is infeasible and its probe is the proof, so no tabu
# move is made there
PROBE_PROOFS = [
    ("pentagon", 2, 1, 6, 165, 0),
    ("pentagon", 2, 2, 9, 230, 2),
    ("pentagon", 2, 3, 12, 485, 44),
    ("odd-cycle-complement:3", 2, 1, 6, 3_822, 0),
]


@pytest.mark.parametrize("name, q, delta, optimum, nodes, moves", PROBE_PROOFS)
def test_probe_at_the_lower_bound_is_the_proof(name, q, delta, optimum, nodes, moves):
    from ecic import builtin_instance

    inst, field = builtin_instance(name), make_field(q)
    out = optimal_length_search(inst, field, delta)
    assert (out.optimal_length, out.infeasible_below) == (optimum, optimum - 1)
    assert (out.stats.nodes, out.stats.local_iterations) == (nodes, moves)
    assert exists_ecic(inst, field, delta, optimum - 1).nodes == nodes


def test_probe_finds_the_witness_at_a_feasible_lower_bound():
    """pentagon q=3 delta=1: the lower bound 5 is the optimum, and the
    probe's exhaustive search returns its witness."""
    from ecic import verify_ecic_direct

    inst, field = pentagon(), make_field(3)
    out = optimal_length_search(inst, field, 1)
    assert (out.optimal_length, out.infeasible_below, out.stats.nodes) == (5, 4, 155)
    assert out.witness == exists_ecic(inst, field, 1, 5).witness
    assert verify_ecic_direct(out.witness, 1).ok


def test_tripped_probe_falls_back_to_tabu_and_the_full_proof(monkeypatch):
    """With 4 tabu moves per length the probe at odd-cycle-complement:3
    q=2 delta=1 N=5 gets 4 x 127 nodes, short of the 3,822-node proof: it
    trips, its nodes are charged, and the tabu run and the full proof
    decide."""
    from ecic import _cover, builtin_instance

    inst = builtin_instance("odd-cycle-complement:3")
    proof = exists_ecic(inst, F2, 1, 5).nodes
    monkeypatch.setattr(_cover, "LOCAL_SEARCH_ITERATIONS", 4)
    out = optimal_length_search(inst, F2, 1)
    assert (out.optimal_length, out.infeasible_below) == (6, 5)
    assert (out.stats.nodes, out.stats.local_iterations) == (4 * 127 + 1 + proof, 4)


def test_probe_capped_by_the_node_budget_raises_at_once(monkeypatch):
    """A probe whose budget is the scan's remaining budget spends it by
    tripping, so the scan exits with the bracket and runs no tabu search at
    the bottom length.  Only the scan's tabu runs (quota 2 * delta + 1) are
    recorded, not kappa's (quota 1)."""
    from ecic import _cover, builtin_instance

    inst = builtin_instance("odd-cycle-complement:3")
    lengths = []
    original = _cover.local_cover_search

    def recorded(hit_sets, quotas, size, iterations, stream):
        if max(quotas) == 3:
            lengths.append(size)
        return original(hit_sets, quotas, size, iterations, stream)

    monkeypatch.setattr(_cover, "local_cover_search", recorded)
    with pytest.raises(BudgetExceeded) as err:
        optimal_length_search(inst, F2, 1, node_budget=3_821)
    assert (err.value.infeasible_below, err.value.feasible_at, err.value.nodes) == (5, 6, 3_822)
    assert lengths == [6]
    assert optimal_length_search(inst, F2, 1, node_budget=3_822).stats.nodes == 3_822


# (instance, q, delta, optimum): questions the exhaustive upward scan could
# not answer within the default budget, or took seconds to
FRONTIER = [
    ("odd-cycle-complement:3", 2, 2, 9),
    ("pentagon", 3, 2, 8),
    ("pentagon", 2, 4, 16),
    ("pentagon", 5, 2, 7),  # the Singleton bound; concatenation needs 8
    ("no-side-info:5", 2, 2, 13),  # N_2[5,5]; the bounds meet
]


@pytest.mark.parametrize("name, q, delta, optimum", FRONTIER)
def test_frontier_questions_are_answered_within_default_budgets(name, q, delta, optimum):
    from ecic import builtin_instance, verify_ecic_direct

    field = make_field(q)
    out = optimal_length_search(builtin_instance(name), field, delta)
    assert out.optimal_length == optimum and out.infeasible_below == optimum - 1
    assert out.witness.length == optimum
    assert verify_ecic(out.witness, delta).ok
    assert verify_ecic_direct(out.witness, delta).ok


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


def test_arguments_after_node_budget_are_keyword_only():
    """A positional value after the node budget (where `jobs` once went)
    fails at the call instead of landing in the next parameter."""
    from ecic._cover import multiset_cover_search

    with pytest.raises(TypeError):
        exists_ecic(pentagon(), F2, 1, 5, 1000, 2)
    with pytest.raises(TypeError):
        optimal_length_search(pentagon(), F2, 1, 1000, 2)
    with pytest.raises(TypeError):
        multiset_cover_search([1], [1], 1, 1000, [0])


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
