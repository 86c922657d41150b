import random

import pytest

from ecic import (
    alpha_bound,
    bounds_report,
    builtin_instance,
    code_exists,
    code_min_distance,
    find_code_generator,
    kappa_bound,
    make_field,
    mat_rank,
    mds_generator,
    min_rank,
    no_side_info,
    odd_cycle_complement,
    pentagon,
    example1,
    random_coding_length,
    shortest_code_length,
    singleton_bound,
    sphere_volume,
)
from ecic.errors import BudgetExceeded, OutOfRegime, UnknownCodeLength

from helpers import F2, random_instance


# ---------------------------------------------------------------------------
# sphere volume


def test_sphere_volume_examples():
    assert sphere_volume(2, 7, 0) == 1
    assert sphere_volume(2, 4, 1) == 5
    assert sphere_volume(2, 9, 4) == 256
    assert sphere_volume(3, 4, 2) == 1 + 4 * 2 + 6 * 4


def test_sphere_volume_saturates_at_full_space():
    assert sphere_volume(2, 5, 5) == 32
    assert sphere_volume(2, 5, 9) == 32  # radius beyond length adds nothing


# ---------------------------------------------------------------------------
# shortest code lengths


def scan_from_max_k_d(q, k, d):
    """Shortest length by the plain scan from max(k, d), without any bound."""
    length = max(k, d)
    while not code_exists(q, k, d, length):
        length += 1
    return length


def griesmer(q, k, d):
    return sum(-(-d // q**i) for i in range(k))


def assert_scan_agrees(q, k, d):
    """The Griesmer-started answer equals the plain scan, and every length
    the Griesmer start skips is exhaustively infeasible."""
    n = shortest_code_length(q, k, d)
    assert n == scan_from_max_k_d(q, k, d)
    g = griesmer(q, k, d)
    assert n >= g
    if g - 1 >= max(k, d):
        assert not code_exists(q, k, d, g - 1)
    return n


def test_shortest_length_closed_forms():
    assert shortest_code_length(2, 4, 1) == 4
    assert shortest_code_length(5, 1, 7) == 7
    assert shortest_code_length(3, 0, 3) == 0


def test_shortest_length_verified_table_values():
    assert shortest_code_length(2, 2, 5) == 8
    assert shortest_code_length(2, 3, 5) == 10


def test_shortest_length_table_reverified_by_search():
    """The former table entries (2,2,5) -> 8 and (2,3,5) -> 10 sit exactly
    on the Griesmer bound."""
    for (q, k, d), value in {(2, 2, 5): 8, (2, 3, 5): 10}.items():
        assert griesmer(q, k, d) == value
        assert assert_scan_agrees(q, k, d) == value


def test_shortest_length_small_searches():
    assert assert_scan_agrees(2, 2, 3) == 5
    assert assert_scan_agrees(2, 3, 3) == 6
    assert assert_scan_agrees(3, 2, 3) == 4  # MDS regime
    assert assert_scan_agrees(5, 3, 3) == 5
    assert assert_scan_agrees(3, 3, 3) == 6  # one above its Griesmer bound, 5
    # closed forms re-derived by the plain scan
    assert assert_scan_agrees(3, 3, 1) == 3
    assert assert_scan_agrees(2, 1, 4) == 4


def test_shortest_length_budget_to_unknown():
    with pytest.raises(UnknownCodeLength):
        shortest_code_length(2, 5, 7, node_budget=10)


def test_shortest_length_table_over_budget_is_unknown():
    # 29,524 column classes x 29,524 message classes: refused before any is built
    with pytest.raises(UnknownCodeLength, match="29524 column classes"):
        shortest_code_length(3, 10, 3)


def test_code_tables_take_the_enumeration_budget():
    """N_2[6, 5] = 14 needs a 63 x 63 code table: 1,000 bytes leave it
    unknown before any search, bracketed by Griesmer 13 and 6 * 5, and
    pentagon's min-rank part table (31 x 15) does not fit 3 bytes."""
    from ecic.bounds import _code_length_bracket

    with pytest.raises(UnknownCodeLength, match="63 column classes x 63 targets"):
        shortest_code_length(2, 6, 5, enum_budget=1000)
    assert _code_length_bracket(2, 6, 5, 1 << 27, enum_budget=1000) == (13, 30)
    assert _code_length_bracket(2, 3, 3, 1 << 27, enum_budget=1000) == (6, 6)
    with pytest.raises(BudgetExceeded):
        min_rank(pentagon(), F2, enum_budget=3)
    assert min_rank(pentagon(), F2).kappa == 3


def test_code_exists_and_generator_agree():
    assert not code_exists(2, 2, 5, 7)
    assert code_exists(2, 2, 5, 8)
    G = find_code_generator(2, 2, 5, 8)
    assert mat_rank(G) == 2
    assert code_min_distance(G) >= 5
    assert find_code_generator(2, 3, 5, 9) is None


def test_code_exists_agrees_with_brute_force_over_all_generators():
    """Oracle: every k x N binary matrix, checked for rank and distance."""
    import itertools

    from ecic import FMatrix

    for k, d, N in [(2, 3, 4), (2, 3, 5), (2, 2, 3), (3, 2, 4), (2, 4, 5)]:
        brute = False
        for bits in itertools.product((0, 1), repeat=k * N):
            rows = tuple(tuple(bits[r * N : (r + 1) * N]) for r in range(k))
            G = FMatrix(F2, rows, N)
            if mat_rank(G) == k and code_min_distance(G) >= d:
                brute = True
                break
        assert code_exists(2, k, d, N) == brute


def test_found_generators_hit_exact_distance():
    for (q, k, d) in [(2, 2, 3), (2, 3, 4), (3, 2, 3), (5, 2, 3)]:
        n = assert_scan_agrees(q, k, d)
        G = find_code_generator(q, k, d, n)
        assert G is not None
        assert mat_rank(G) == k
        assert code_min_distance(G) >= d


# ---------------------------------------------------------------------------
# instance bounds


def test_pentagon_bounds_at_delta_two():
    pent = pentagon()
    assert alpha_bound(pent, F2, 2) == 8
    assert kappa_bound(pent, F2, 2) == 10
    assert singleton_bound(pent, F2, 2) == 7


def test_bounds_at_delta_zero_collapse_to_parameters():
    for inst in (pentagon(), example1(), no_side_info(3)):
        from ecic import generalized_independence_number

        alpha = generalized_independence_number(inst)[0]
        kappa = min_rank(inst, F2).kappa
        assert alpha_bound(inst, F2, 0) == alpha
        assert kappa_bound(inst, F2, 0) == kappa
        assert singleton_bound(inst, F2, 0) == kappa


def test_singleton_bound_takes_a_node_budget():
    """kappa's search may spend 2^27 nodes by default (seconds on the
    pentagon over GF(9)); a budget of 1000 nodes stops it with the bracket
    proved so far."""
    with pytest.raises(BudgetExceeded) as info:
        singleton_bound(pentagon(), make_field(9), 2, node_budget=1000)
    exc = info.value
    assert (exc.nodes, exc.infeasible_below, exc.feasible_at) == (1001, 2, 3)


def test_example1_bounds_delta_one():
    e1 = example1()
    assert alpha_bound(e1, F2, 1) == 3
    assert kappa_bound(e1, F2, 1) == 3
    assert singleton_bound(e1, F2, 1) == 3


def test_random_coding_lengths():
    assert random_coding_length(pentagon(), F2, 2) == 16
    f7 = make_field(7)
    assert random_coding_length(odd_cycle_complement(2), f7, 0) == 3
    assert random_coding_length(no_side_info(1), F2, 0) == 1


def test_random_coding_tightness_for_cycle_complement():
    f7 = make_field(7)
    inst = odd_cycle_complement(2)
    assert min_rank(inst, f7).kappa == random_coding_length(inst, f7, 0) == 3


def test_mds_optimal_length():
    assert bounds_report(pentagon(), F2, 2).mds_equality is False  # q too small
    f5 = make_field(5)
    rep = bounds_report(pentagon(), f5, 1)
    assert rep.mds_equality is True and rep.singleton == 5
    rep = bounds_report(example1(), F2, 0)
    assert rep.mds_equality is True and rep.singleton == 1


def test_bounds_report_pentagon():
    rep = bounds_report(pentagon(), F2, 2)
    assert (rep.alpha, rep.kappa) == (2, 3)
    assert (rep.alpha_bound, rep.kappa_bound, rep.singleton) == (8, 10, 7)
    assert rep.alpha_bound >= rep.singleton  # the better lower bound here
    assert (rep.lower, rep.upper) == (8, 10)
    assert rep.random_coding == 16
    assert rep.mds_equality is False


def test_bounds_report_no_side_info_is_tight():
    rep = bounds_report(no_side_info(3), F2, 1)
    assert rep.lower == rep.upper == shortest_code_length(2, 3, 3)


def test_bounds_report_scans_each_code_length_once(monkeypatch):
    """alpha = kappa = 3 without side information: both bounds are
    N_2[3, 3], and one scan answers both."""
    from ecic import bounds

    calls = []

    def counted(q, k, d, node_budget, **budgets):
        calls.append((q, k, d))
        return shortest_code_length(q, k, d, node_budget=node_budget, **budgets)

    monkeypatch.setattr(bounds, "shortest_code_length", counted)
    rep = bounds_report(no_side_info(3), F2, 1)
    assert rep.alpha_bound == rep.kappa_bound == 6
    assert calls == [(2, 3, 3)]


def test_bounds_report_mds_equality():
    rep = bounds_report(pentagon(), make_field(5), 1)
    assert rep.mds_equality is True
    assert rep.lower == rep.upper == rep.kappa + 2


def test_bounds_report_mds_equality_in_the_repetition_and_identity_regimes():
    """kappa = 1 (the repetition code) and delta = 0 (the identity) are MDS
    concatenations at any q, as `mds_generator` builds them."""
    rep = bounds_report(example1(), F2, 2)
    assert rep.kappa == 1 and rep.lower == rep.upper == 5
    assert rep.mds_equality is True
    rep = bounds_report(no_side_info(5), F2, 0)
    assert rep.kappa == 5 and rep.lower == rep.upper == 5
    assert rep.mds_equality is True


MDS_BUILT_INS = [
    (name, q)
    for name in ("example1", "pentagon", "no-side-info:1", "no-side-info:2",
                 "no-side-info:3", "no-side-info:4", "odd-cycle-complement:3")
    for q in (2, 3, 4, 5, 7)
    if name != "odd-cycle-complement:3" or q <= 3  # kappa's search grows fast in q
]


@pytest.mark.parametrize("name, q", MDS_BUILT_INS)
def test_mds_equality_is_exactly_the_mds_generator_regime(name, q):
    """`mds_equality` holds exactly when `mds_generator` builds the
    [kappa + 2*delta, kappa] outer code, and then the bounds meet there."""
    field = make_field(q)
    for delta in (0, 1, 2):
        rep = bounds_report(builtin_instance(name), field, delta)
        try:
            mds_generator(field, rep.kappa, rep.kappa + 2 * delta)
            built = True
        except OutOfRegime:
            built = False
        assert rep.mds_equality is built, delta
        if built:
            assert rep.lower == rep.upper == rep.kappa + 2 * delta


def test_bounds_monotone_in_delta():
    for inst in (pentagon(), example1(), no_side_info(3)):
        prev = None
        for delta in (0, 1, 2):
            rep = bounds_report(inst, F2, delta)
            vals = (rep.alpha_bound, rep.kappa_bound, rep.singleton, rep.random_coding)
            assert all(v is not None for v in vals)
            if prev is not None:
                assert all(a >= b for a, b in zip(vals, prev))
            prev = vals


def test_alpha_bound_never_exceeds_kappa_bound():
    rng = random.Random(61)
    for _ in range(12):
        inst = random_instance(rng, max_messages=4)
        for delta in (0, 1):
            assert alpha_bound(inst, F2, delta) <= kappa_bound(inst, F2, delta)


def test_bounds_report_partial_on_budget_failure():
    inst = odd_cycle_complement(4)  # min-rank over GF(8) is out of budget
    rep = bounds_report(inst, make_field(8), 1)
    assert rep.kappa is None and rep.singleton is None and rep.kappa_bound is None
    assert rep.mds_equality is None
    # the unit columns of the 9 distinct demands, concatenated with an outer
    # code of N_8[9, 3], which the scan leaves unsettled in 11..27
    assert rep.upper == 27
    assert rep.alpha is not None
    assert rep.random_coding is not None


def test_bounds_report_degenerate_no_receivers():
    from ecic import IcsiInstance

    rep = bounds_report(IcsiInstance(0, 2, (), ()), F2, 1)
    assert rep.lower == rep.upper == 0
    assert rep.singleton == 0
