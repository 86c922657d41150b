import random
import time
from dataclasses import replace

import pytest

from ecic import (
    alpha_bound,
    bounds_report,
    builtin_instance,
    code_exists,
    code_min_distance,
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
    shortest_code,
    shortest_code_length,
    singleton_bound,
    sphere_volume,
)
from ecic.errors import BudgetExceeded, NotPrimePower, OutOfRegime, UnknownCodeLength

from helpers import F2, random_instance, upward_code_scan


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


def test_sphere_volume_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="negative radius"):
        sphere_volume(2, 5, -1)


# ---------------------------------------------------------------------------
# shortest code lengths


def scan_from_max_k_d(q, k, d):
    """Shortest length by the plain scan from max(k, d), without any bound."""
    length = max(k, d)
    while code_exists(q, k, d, length) is None:
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
        assert code_exists(q, k, d, g - 1) is None
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


@pytest.mark.parametrize("k, d", [(-1, 3), (2, 0)])
def test_shortest_length_rejects_its_parameters(k, d):
    with pytest.raises(ValueError, match="need k >= 0 and d >= 1"):
        shortest_code_length(2, k, d)


@pytest.mark.parametrize("q, k, d", [(6, 3, 2), (6, 1, 5), (0, 2, 2), (6, 3, 3)])
def test_shortest_length_needs_a_field(q, k, d):
    """No field has 6 or 0 elements, so there is no code to measure, even
    where a closed form (k <= 1 or d <= 2) would answer without a search."""
    with pytest.raises(NotPrimePower):
        shortest_code_length(q, k, d)


def test_shortest_length_budget_to_unknown():
    """N_2[5, 6] = 14 is not constructed (16 - 6 = 1010 in base 2 asks
    for subspaces on 2 and 4 of the 5 coordinates), so it is N_2[5, 5] + 1,
    whose scan runs out of 10 nodes in the probe at its floor 12."""
    with pytest.raises(UnknownCodeLength, match="d=6 unknown .*d=5 unknown") as err:
        shortest_code_length(2, 5, 6, node_budget=10)
    assert (err.value.q, err.value.k, err.value.d) == (2, 5, 6)


def test_shortest_length_table_over_budget_is_unknown():
    """N_3[10, 4] is not constructed, and its 29,524 column classes x
    29,524 message classes are refused before any is built; N_3[10, 3] =
    13 is the shortened Hamming code, verified with no table."""
    with pytest.raises(UnknownCodeLength, match="29524 column classes"):
        shortest_code_length(3, 10, 4)
    assert shortest_code_length(3, 10, 3) == 13


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
    assert code_exists(2, 2, 5, 7) is None
    G = code_exists(2, 2, 5, 8)
    assert (G.nrows, G.ncols) == (2, 8)
    assert mat_rank(G) == 2
    assert code_min_distance(G) >= 5
    assert code_exists(2, 3, 5, 9) is None


def test_code_exists_input_checks():
    with pytest.raises(ValueError, match="dimension must be positive"):
        code_exists(2, 0, 3, 5)
    assert code_exists(2, 3, 3, 2) is None  # shorter than k
    assert code_exists(2, 3, 5, 4) is None  # shorter than d


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
        assert (code_exists(2, k, d, N) is not None) == brute


def test_found_generators_hit_exact_distance():
    for (q, k, d) in [(2, 2, 3), (2, 3, 4), (3, 2, 3), (5, 2, 3)]:
        n = assert_scan_agrees(q, k, d)
        G = code_exists(q, k, d, n)
        assert G is not None and G.ncols == n
        assert mat_rank(G) == k
        assert code_min_distance(G) >= d


# ---------------------------------------------------------------------------
# the witness-first scan: probe, tabu witness, residual-code bound, proof


def test_shortest_length_at_distance_two_is_k_plus_one():
    """[I_k | 1] attains the Griesmer bound k + 1 at d = 2: the closed form
    equals the exhaustive scan, and needs no table even where one of
    2^30 - 1 classes could not be built."""
    for q in (2, 3, 4):
        for k in range(1, 6):
            assert shortest_code_length(q, k, 2) == k + 1 == upward_code_scan(q, k, 2)
    assert shortest_code_length(2, 30, 2) == 31


def scan_route(monkeypatch, q, k, d, **budgets):
    """(answer, log) of one scan: each `code_exists` call as ("exists", k,
    length, node budget, outcome, nodes), the outcome True (a generator),
    False (None) or "trip", and each tabu run as ("tabu", its stream key,
    moves, found)."""
    from ecic import bounds

    log = []
    nodes = []
    keys = []
    real_exists, real_tabu, real_cover, real_stream = (
        bounds.code_exists, bounds.local_cover_search, bounds.multiset_cover_search,
        bounds._seeded_bytes,
    )

    def cover(table, quotas, size, node_budget):
        res = real_cover(table, quotas, size, node_budget)
        nodes.append(res.nodes)
        return res

    def exists(q, k, d, length, node_budget, **kw):
        try:
            found = real_exists(q, k, d, length, node_budget, **kw)
        except BudgetExceeded as exc:
            log.append(("exists", k, length, node_budget, "trip", exc.nodes))
            raise
        log.append(("exists", k, length, node_budget, found is not None, nodes.pop()))
        return found

    def stream(key, q):
        keys.append(key)
        return real_stream(key, q)

    def tabu(hit_sets, quotas, size, iterations, stream):
        picks, moves = real_tabu(hit_sets, quotas, size, iterations, stream)
        log.append(("tabu", keys.pop(), moves, picks is not None))
        return picks, moves

    monkeypatch.setattr(bounds, "code_exists", exists)
    monkeypatch.setattr(bounds, "local_cover_search", tabu)
    monkeypatch.setattr(bounds, "multiset_cover_search", cover)
    monkeypatch.setattr(bounds, "_seeded_bytes", stream)
    return bounds.shortest_code_length(q, k, d, **budgets), log


def test_scan_route_witness_from_tabu(monkeypatch):
    """N_3[3, 7] = 11 on its Griesmer bound (9 - 7 = 2 is a digit 2, so
    no anticode construction): the probe (128 x 13 nodes) trips, and a
    two-move tabu run finds the witness."""
    assert scan_route(monkeypatch, 3, 3, 7) == (11, [
        ("exists", 3, 11, 1664, "trip", 1665),
        ("tabu", "ecic:code:3:3:7:11", 2, True),
    ])


def test_scan_route_settled_by_probes(monkeypatch):
    """N_4[4, 4] = 8, which no construction covers: the Griesmer bound and
    the sphere-packing floor both start the scan at 7, and the probe proves
    7 infeasible and finds the witness at 8, with no tabu run."""
    assert scan_route(monkeypatch, 4, 4, 4) == (8, [
        ("exists", 4, 7, 10880, False, 84),
        ("exists", 4, 8, 10880, True, 30),
    ])


def test_scan_route_starts_at_the_sphere_packing_floor(monkeypatch):
    """N_2[9, 5] = 17, which no construction covers: 2^(16-9) < 1 + 16 +
    120, so the sphere-packing floor rules out the Griesmer bound 16 with
    no probe; the probe at 17 trips and a tabu run finds the witness."""
    assert scan_route(monkeypatch, 2, 9, 5) == (17, [
        ("exists", 9, 17, 65408, "trip", 65409),
        ("tabu", "ecic:code:2:9:5:17", 55, True),
    ])


def test_scan_route_residual_bound_rules_out_griesmer(monkeypatch):
    """N_2[6, 5] = 14: at the Griesmer bound 13 the probe trips and tabu
    misses, so the residual-code bound 5 + N_2[5, 3] = 14 rules 13 out with
    no full proof (the inner length is the shortened Hamming code, with no
    search); at 14 tabu finds the witness."""
    assert scan_route(monkeypatch, 2, 6, 5) == (14, [
        ("exists", 6, 13, 8064, "trip", 8065),
        ("tabu", "ecic:code:2:6:5:13", 128, False),
        ("exists", 6, 14, 8064, "trip", 8065),
        ("tabu", "ecic:code:2:6:5:14", 2, True),
    ])


def tabu_misses(hit_sets, quotas, size, iterations, stream):
    return None, iterations


def test_scan_route_full_proof_after_a_tabu_miss(monkeypatch):
    """N_3[3, 7] with tabu missing: the probe at the Griesmer bound 11
    trips, the inner N_3[2, 3] = 4 is constructed with no search, so the
    residual-code bound 7 + 4 rules nothing out, and the full search at
    11 finds the generator under what the probe left."""
    from ecic import bounds

    monkeypatch.setattr(bounds, "local_cover_search", tabu_misses)
    assert scan_route(monkeypatch, 3, 3, 7) == (11, [
        ("exists", 3, 11, 1664, "trip", 1665),
        ("tabu", "ecic:code:3:3:7:11", 128, False),
        ("exists", 3, 11, (1 << 27) - 1665, True, 1868),
    ])


def test_scan_route_residual_floor_falls_back_to_griesmer(monkeypatch):
    """The scan above with the inner N_3[2, 3] unknown: the residual-code
    bound falls back to d plus the inner Griesmer bound, 7 + 4 = 11, and
    the same full proof follows."""
    from ecic import bounds

    real_scan = bounds.shortest_code_length
    inner = []

    def scan(q, k, d, *args, **kwargs):
        if k == 2:
            inner.append((q, k, d))
            raise UnknownCodeLength(q, k, d)
        return real_scan(q, k, d, *args, **kwargs)

    monkeypatch.setattr(bounds, "local_cover_search", tabu_misses)
    monkeypatch.setattr(bounds, "shortest_code_length", scan)
    assert scan_route(monkeypatch, 3, 3, 7) == (11, [
        ("exists", 3, 11, 1664, "trip", 1665),
        ("tabu", "ecic:code:3:3:7:11", 128, False),
        ("exists", 3, 11, (1 << 27) - 1665, True, 1868),
    ])
    assert inner == [(3, 2, 3)]


def test_tabu_witness_is_reverified(monkeypatch):
    from ecic import bounds
    from ecic.errors import InternalContradiction

    monkeypatch.setattr(bounds, "code_min_distance", lambda G, budget: 6)
    with pytest.raises(InternalContradiction, match="tabu's"):
        shortest_code_length(3, 3, 7)


def test_kernel_witness_is_reverified(monkeypatch):
    """N_3[3, 4] = 7 is a generator the exhaustive kernel picks; with every
    pick turned into one class, a message misses it, and the code's
    distance check catches the corrupted generator."""
    from ecic import bounds
    from ecic.errors import InternalContradiction

    assert shortest_code_length(3, 3, 4) == 7
    real = bounds.multiset_cover_search

    def corrupted(table, quotas, size, node_budget):
        res = real(table, quotas, size, node_budget)
        return replace(res, classes=(0,) * size) if res.found else res

    monkeypatch.setattr(bounds, "multiset_cover_search", corrupted)
    with pytest.raises(InternalContradiction, match=r"the cover kernel's \[7, 3\] code"):
        shortest_code_length(3, 3, 4)
    with pytest.raises(InternalContradiction, match="the cover kernel's"):
        code_exists(2, 2, 5, 8)


@pytest.mark.parametrize("k, answer", [(6, 14), (7, 15)])
def test_residual_bound_settles_the_frontier(k, answer):
    """N_2[6, 5] took a 5.8M-node scan, and N_2[7, 5] did not settle in
    2^27 nodes; the residual-code bound and tabu witnesses answer each in
    well under a second."""
    started = time.perf_counter()
    assert shortest_code_length(2, k, 5) == answer
    assert time.perf_counter() - started < 1


# ---------------------------------------------------------------------------
# the anticode construction: Griesmer lengths settled with no search


def anticode_applies(q, k, d):
    """The construction's condition by brute force: s * q^(k-1) - d, with
    s = ceil(d / q^(k-1)), has only digits 0 and 1 in base q, and the
    sizes b + 1 of its digits b that are 1 split into s groups of sum at
    most k (tried over every assignment)."""
    import itertools

    s = -(-d // q ** (k - 1))
    excess, digits = s * q ** (k - 1) - d, []
    while excess:
        excess, digit = divmod(excess, q)
        digits.append(digit)
    if any(x > 1 for x in digits):
        return False
    sizes = [b + 1 for b, x in enumerate(digits) if x]
    return any(
        all(sum(u for u, g in zip(sizes, groups) if g == j) <= k for j in range(s))
        for groups in itertools.product(range(s), repeat=len(sizes))
    )


def test_anticode_generators_meet_griesmer_and_their_distance():
    """Every generator the construction builds, for q^k <= 256, d <= 12,
    has the Griesmer length, full rank and a brute-force minimum distance
    >= d, and it declines exactly where a digit exceeds 1 or the subspaces
    do not fit the copies."""
    from ecic.bounds import _anticode_generator, _griesmer_length

    from helpers import brute_min_distance, brute_rank

    built = 0
    for q in (2, 3, 4, 5):
        field = make_field(q)
        for k in range(2, 7):
            if q**k > 256:
                break
            for d in range(3, 13):
                G = _anticode_generator(field, k, d, 1 << 26)
                assert (G is not None) == anticode_applies(q, k, d), (q, k, d)
                if G is None:
                    continue
                built += 1
                assert G.ncols == _griesmer_length(q, k, d)
                assert brute_rank(field, G.rows, G.ncols) == k
                assert brute_min_distance(field, G.rows, G.ncols) >= d
    assert built == 58


def test_constructed_length_spends_no_search(monkeypatch):
    """N_2[4, 7] = 14 and N_2[3, 7] = 13 sit on the Griesmer bound and are
    constructed: no `code_exists` call, no tabu run and no code table."""
    from ecic import bounds

    def no_table(*args, **kwargs):
        raise AssertionError("a constructed length built a code table")

    monkeypatch.setattr(bounds, "_code_table", no_table)
    assert scan_route(monkeypatch, 2, 4, 7) == (14, [])
    assert scan_route(monkeypatch, 2, 3, 7) == (13, [])


def test_simplex_code_past_the_kernel_cap():
    """N_2[8, 128] = 255, the simplex code: 255 picks exceed the cover
    kernel's 120, so no scan could answer it; the construction does."""
    assert shortest_code_length(2, 8, 128) == 255


def test_construction_over_the_enumeration_budget_is_unknown():
    """Verifying the N_2[4, 7] generator walks 2^4 messages: 15 bytes of
    enumeration budget leave the length unknown, bracketed by Griesmer 14
    and 4 * 7."""
    from ecic.bounds import _code_length_bracket

    with pytest.raises(UnknownCodeLength, match="2\\^4 codewords exceed"):
        shortest_code_length(2, 4, 7, enum_budget=15)
    assert _code_length_bracket(2, 4, 7, 1 << 27, enum_budget=15) == (14, 28)
    assert shortest_code_length(2, 4, 7, enum_budget=16) == 14


def test_constructed_generator_is_reverified(monkeypatch):
    from ecic import bounds
    from ecic.errors import InternalContradiction

    monkeypatch.setattr(bounds, "code_min_distance", lambda G, budget: 6)
    with pytest.raises(InternalContradiction, match="anticode"):
        shortest_code_length(2, 4, 7)


def test_budget_bracket_starts_at_the_sphere_packing_floor():
    """10 nodes do not settle N_2[9, 5] = 17, and its bracket starts at
    the scan's floor: the Griesmer bound is 16, but 2^(16-9) < V_2(16, 2) =
    137 rules 16 out."""
    from ecic.bounds import _code_floor, _code_length_bracket, _griesmer_length

    assert (_griesmer_length(2, 9, 5), _code_floor(2, 9, 5)) == (16, 17)
    assert _code_length_bracket(2, 9, 5, 10) == (17, 45)


# ---------------------------------------------------------------------------
# shortened Hamming and extended Reed-Solomon codes, the binary parity
# extension


def test_hamming_generators_meet_the_sphere_packing_bound():
    """The shortened Hamming generator has the sphere-packing length at
    d = 3 (which is the floor), full rank and a brute-force minimum
    distance of 3 wherever q^k <= 2,401."""
    from ecic.bounds import _code_floor, _hamming_code

    from helpers import brute_min_distance, brute_rank

    for q in (2, 3, 4, 5, 7):
        field = make_field(q)
        for k in range(2, 12):
            if q**k > 2401:
                break
            G = _hamming_code(field, k)
            assert G.ncols == _code_floor(q, k, 3), (q, k)
            assert brute_rank(field, G.rows, G.ncols) == k
            assert brute_min_distance(field, G.rows, G.ncols) == 3


def test_reed_solomon_generators_meet_the_singleton_bound():
    """Every extended Reed-Solomon generator of the MDS range k >= 2,
    d >= 3, k + d - 1 <= q + 1 with q^k <= 2,401 has the floor's length
    k + d - 1, full rank and a brute-force minimum distance of d."""
    from ecic.bounds import _code_floor, mds_generator

    from helpers import brute_min_distance, brute_rank

    built = 0
    for q in (3, 4, 5, 7):
        field = make_field(q)
        for k in range(2, q + 1):
            if q**k > 2401:
                break
            for d in range(3, q + 3 - k):
                G = mds_generator(field, k, k + d - 1)
                assert G.ncols == _code_floor(q, k, d), (q, k, d)
                assert brute_rank(field, G.rows, G.ncols) == k
                assert brute_min_distance(field, G.rows, G.ncols) == d
                built += 1
    assert built == 22


@pytest.mark.parametrize("family, q, k, d", [
    ("shortened Hamming", 2, 5, 3),
    ("extended Reed-Solomon", 5, 3, 4),
])
def test_classical_generators_are_reverified(monkeypatch, family, q, k, d):
    """The family's generator with its last column zeroed keeps the floor's
    length and rank k but not distance d: the Reed-Solomon code fails
    `code_min_distance`, the Hamming code its parity check, and either
    failure names the family."""
    from ecic import FMatrix, bounds
    from ecic.errors import InternalContradiction

    def zeroed(G):
        return FMatrix(G.field, tuple(r[:-1] + (0,) for r in G.rows), G.ncols)

    hamming, mds = bounds._hamming_code, bounds.mds_generator
    if family == "shortened Hamming":
        monkeypatch.setattr(bounds, "_hamming_code", lambda field, k: zeroed(hamming(field, k)))
    else:
        monkeypatch.setattr(bounds, "mds_generator", lambda *args: zeroed(mds(*args)))
    with pytest.raises(InternalContradiction, match=f"the {family} generator is no"):
        shortest_code_length(q, k, d)


HAMMING_CORRUPTIONS = {
    "zero": lambda field, B: [tuple(0 for _ in B[0])] + B[1:],
    "unit": lambda field, B: [tuple(int(i == 0) for i in range(len(B[0])))] + B[1:],
    "proportional": lambda field, B: [B[0], tuple(field.mul(2, x) for x in B[0])] + B[2:],
}


@pytest.mark.parametrize("corruption", sorted(HAMMING_CORRUPTIONS))
def test_hamming_parity_check_refuses_dependent_columns(monkeypatch, corruption):
    """Over GF(3), B's first point made zero or a unit vector, or its second
    twice its first: G = [I_k | -B^T] is still systematic of rank k, but
    its parity check [B | I_r] has a zero column or two proportional ones,
    so G has a codeword of weight 1 or 2; the parity check refuses it and
    names the family."""
    from ecic import FMatrix, bounds
    from ecic.errors import InternalContradiction

    F3, k = make_field(3), 5
    G = bounds._hamming_code(F3, k)
    B = HAMMING_CORRUPTIONS[corruption](F3, [tuple(map(F3.neg, row[k:])) for row in G.rows])
    G = FMatrix(F3, tuple(row[:k] + tuple(map(F3.neg, b)) for row, b in zip(G.rows, B)), G.ncols)
    monkeypatch.setattr(bounds, "_hamming_code", lambda field, k: G)
    assert mat_rank(G) == k and code_min_distance(G) <= 2
    assert not bounds._parity_certifies(G)
    with pytest.raises(InternalContradiction, match="the shortened Hamming generator is no"):
        shortest_code_length(3, k, 3)


def test_parity_check_certifies_every_hamming_code():
    """The parity check accepts each shortened Hamming code, whose distance
    is 3, and refuses it once a row's parity part is zero (a weight-1 row,
    so a zero column of H)."""
    from ecic import FMatrix
    from ecic.bounds import _hamming_code, _parity_certifies

    for q in (2, 3, 4, 5, 7):
        field = make_field(q)
        for k in range(2, 9):
            G = _hamming_code(field, k)
            assert _parity_certifies(G), (q, k)
            zeroed = (G.rows[0][:k] + (0,) * (G.ncols - k),) + G.rows[1:]
            assert not _parity_certifies(FMatrix(field, zeroed, G.ncols)), (q, k)


def test_hamming_length_needs_no_enumeration():
    """N_2[25, 3] = 30: the parity check takes O(k * r * N) work where
    `code_min_distance` walked 2^25 - 1 messages (over 2 s)."""
    started = time.perf_counter()
    assert shortest_code_length(2, 25, 3) == 30
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("q, k, d, length", [
    (2, 12, 3, 17), (4, 7, 3, 10), (5, 7, 3, 10), (7, 6, 3, 8), (11, 5, 5, 9),
])
def test_classical_lengths_spend_no_search(monkeypatch, q, k, d, length):
    """N_2[12, 3] and N_4[7, 3] took a scan of seconds; N_5[7, 3],
    N_7[6, 3] and N_11[5, 5] were unknown, their tables over the
    enumeration budget.  Each is now a constructed length: no `code_exists`
    call, no tabu run and no code table."""
    from ecic import bounds

    def no_table(*args, **kwargs):
        raise AssertionError("a constructed length built a code table")

    monkeypatch.setattr(bounds, "_code_table", no_table)
    assert scan_route(monkeypatch, q, k, d) == (length, [])


def test_classical_construction_over_the_enumeration_budget_is_unknown():
    """The [17, 12, 3] Hamming generator has 2^12 messages: its parity
    check enumerates none of them, but the route keeps the budget of the
    families whose distance check walks them, so every answer under a
    budget stays as it was."""
    from ecic.bounds import _code_length_bracket

    with pytest.raises(UnknownCodeLength, match="2\\^12 codewords exceed"):
        shortest_code_length(2, 12, 3, enum_budget=4095)
    assert _code_length_bracket(2, 12, 3, 1 << 27, enum_budget=4095) == (17, 36)
    assert shortest_code_length(2, 12, 3, enum_budget=4096) == 17


# ---------------------------------------------------------------------------
# every route of `shortest_code` yields a verified generator


def assert_shortest_generator(q, k, d):
    """`shortest_code` is a k x N_q[k, d] generator of rank k and distance
    >= d (the empty code at k = 0 has no distance to check)."""
    G = shortest_code(q, k, d)
    assert (G.nrows, G.ncols) == (k, shortest_code_length(q, k, d))
    assert mat_rank(G) == k
    if k:
        assert code_min_distance(G) >= d
    return G


def test_shortest_code_generators_over_small_questions():
    for q in (2, 3, 4, 5):
        for k in range(5):
            for d in range(1, 7):
                assert_shortest_generator(q, k, d)


SHORTEST_CODE_ROUTES = {
    "k=0": (2, 0, 3), "k=1": (3, 1, 5), "d=1": (2, 4, 1), "d=2": (4, 3, 2),
    "anticode": (2, 4, 7), "shortened Hamming": (3, 5, 3),
    "extended Reed-Solomon": (5, 3, 4), "parity extension": (2, 5, 6),
    "tabu": (3, 3, 7), "exhaustive": (4, 4, 4),
}


@pytest.mark.parametrize("route", sorted(SHORTEST_CODE_ROUTES))
def test_shortest_code_generator_on_each_route(route):
    """One question per route: the closed forms, the three constructed
    families (each the family's own generator), the parity extension (the
    generator at d - 1 with each row's sum appended), the tabu witness of
    N_3[3, 7] = 11 and the exhaustive probe's witness of N_4[4, 4] = 8."""
    from ecic.bounds import _anticode_generator, _hamming_code

    q, k, d = SHORTEST_CODE_ROUTES[route]
    G = assert_shortest_generator(q, k, d)
    field = make_field(q)
    built = {
        "d=1": lambda: mds_generator(field, k, k),
        "anticode": lambda: _anticode_generator(field, k, d, 1 << 26),
        "shortened Hamming": lambda: _hamming_code(field, k),
        "extended Reed-Solomon": lambda: mds_generator(field, k, k + d - 1),
    }.get(route)
    if built is not None:
        assert G == built()
    if route == "parity extension":
        inner = shortest_code(q, k, d - 1)
        assert G.rows == tuple(r + (sum(r) % 2,) for r in inner.rows)


# N_2[k, d] for even d from the standard tables of binary linear codes
# (MacWilliams & Sloane, ch. 17, and Brouwer's tables); N_2[7, 8] = 19 is
# the extended Golay code shortened 5 times
BINARY_EVEN = {
    (2, 4): 6, (2, 6): 9, (2, 8): 12,
    (3, 4): 7, (3, 6): 11, (3, 8): 14,
    (4, 4): 8, (4, 6): 12, (4, 8): 15,
    (5, 4): 10, (5, 6): 14, (5, 8): 16,
    (6, 4): 11, (6, 6): 15, (6, 8): 18,
    (7, 4): 12, (7, 6): 16, (7, 8): 19,
}


@pytest.mark.parametrize("k, d", sorted(BINARY_EVEN))
def test_binary_even_distance_is_one_past_the_odd(k, d):
    """N_2[k, d] = N_2[k, d - 1] + 1 for even d matches the tables, and,
    where the two searches are cheap, the exhaustive search: a code at the
    length and none one shorter."""
    length = shortest_code_length(2, k, d)
    assert length == BINARY_EVEN[k, d] == shortest_code_length(2, k, d - 1) + 1
    if k <= 5 or d == 4:
        assert code_exists(2, k, d, length) is not None
        assert code_exists(2, k, d, length - 1) is None


def test_binary_parity_extension_answers_past_the_frontier():
    """N_2[8, 8] exhausted 2^27 nodes; as N_2[8, 7] + 1 it is 20, the
    extended Golay code shortened 4 times."""
    assert shortest_code_length(2, 8, 8) == 20


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


def test_bounds_report_with_alpha_over_its_cap():
    """alpha of 25 messages is over the 24-message cap, so it and its bound
    are unknown; kappa = 25 still gives the Singleton bound 27 as the lower
    end, and N_2[25, 3] = 30, the shortened Hamming code, the upper end."""
    rep = bounds_report(no_side_info(25), F2, 1)
    assert (rep.alpha, rep.alpha_bound, rep.kappa_bound) == (None, None, 30)
    assert (rep.kappa, rep.singleton, rep.lower, rep.upper) == (25, 27, 27, 30)


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
