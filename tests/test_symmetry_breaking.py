"""Exact symmetry breaking in the cover search: systematic-form code
searches, and isomorph rejection at every depth under the instance's
automorphisms and the coordinate permutations of a code scan, each checked
against the unrestricted search or the first-pick oracle it replaces."""

import itertools
import math

import pytest

from ecic import (
    IcsiInstance,
    code_exists,
    code_min_distance,
    exists_ecic,
    find_code_generator,
    make_field,
    mat_rank,
    no_side_info,
    odd_cycle_complement,
    pentagon,
    shortest_code_length,
)
from ecic._cover import (
    CoverTable,
    class_permutations,
    class_symmetries,
    class_table,
    classes_matrix,
    multiset_cover_search,
    projective_classes,
)
from ecic.bounds import _code_table, _griesmer_length
from ecic.index_codes import _analyse
from ecic.instance import automorphisms

from helpers import (
    F2,
    F3,
    class_orbits,
    class_permutation_reference,
    first_pick_cover_search,
    pack,
    random_instance,
    reference_hit_sets,
)


def relabel(inst, perm):
    """The same instance with message j renamed perm[j]."""
    return IcsiInstance(
        inst.num_receivers,
        inst.num_messages,
        tuple(perm[f] for f in inst.demands),
        tuple(frozenset(perm[x] for x in xs) for xs in inst.side_info),
    )


def receiver_multiset(inst):
    return sorted((f, sorted(xs)) for f, xs in zip(inst.demands, inst.side_info))


# ---------------------------------------------------------------------------
# systematic form for [N, k, d] searches


def griesmer(q, k, d):
    return sum(-(-d // q**i) for i in range(k))


def test_systematic_search_agrees_with_unrestricted_search():
    """On q in {2,3,4}, k <= 4, d <= 5 and N from max(k,d) to Griesmer+1.
    For q=4, k=4 (85 classes) the unrestricted search needs over 10^8 nodes
    to prove N_4[4,3] > 6, so there only the generators are checked."""
    for q in (2, 3, 4):
        field = make_field(q)
        for k in range(1, 5):
            classes, hit_sets = class_table(field, k)
            unpruned = CoverTable(hit_sets)
            units = {tuple(int(r == i) for r in range(k)) for i in range(k)}
            for d in range(1, 6):
                for n in range(max(k, d), griesmer(q, k, d) + 2):
                    G = find_code_generator(q, k, d, n)
                    assert code_exists(q, k, d, n) == (G is not None)
                    if n < griesmer(q, k, d):
                        assert G is None, (q, k, d, n)
                    if (q, k) != (4, 4):
                        plain = multiset_cover_search(unpruned, [d] * len(classes), n, 1 << 27)
                        assert plain.found == (G is not None), (q, k, d, n)
                    if G is None:
                        continue
                    assert G.nrows == k and G.ncols == n
                    cols = {tuple(G.rows[r][c] for r in range(k)) for c in range(n)}
                    assert units <= cols, (q, k, d, n)
                    assert mat_rank(G) == k
                    assert code_min_distance(G) >= d


def test_systematic_search_answers_the_former_frontier():
    assert code_exists(2, 5, 3, 8) is False
    assert shortest_code_length(2, 5, 5) == 13


# ---------------------------------------------------------------------------
# instance automorphisms


def test_automorphism_group_orders():
    assert automorphisms(pentagon())[1] == 10
    assert automorphisms(odd_cycle_complement(3))[1] == 14
    assert automorphisms(no_side_info(4))[1] == 24
    assert automorphisms(relabel(pentagon(), [3, 0, 4, 2, 1]))[1] == 10
    assert automorphisms(IcsiInstance(0, 3, (), ()))[1] == 6


def test_automorphisms_match_brute_force_on_random_instances():
    import random

    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, max_receivers=5, max_messages=5)
        want = receiver_multiset(inst)
        brute = sum(
            receiver_multiset(relabel(inst, p)) == want
            for p in itertools.permutations(range(inst.num_messages))
        )
        gens, order = automorphisms(inst)
        assert order == brute
        assert all(receiver_multiset(relabel(inst, g)) == want for g in gens)
        # the generators generate a group of exactly that order
        group = {tuple(range(inst.num_messages))}
        frontier = list(group)
        while frontier:
            p = frontier.pop()
            for g in gens:
                composed = tuple(g[x] for x in p)
                if composed not in group:
                    group.add(composed)
                    frontier.append(composed)
        assert len(group) == order


@pytest.mark.parametrize(
    "inst, field",
    [(pentagon(), F2), (pentagon(), F3), (odd_cycle_complement(3), F2), (no_side_info(3), F3)],
)
def test_class_permutations_map_hit_sets_onto_hit_sets(inst, field):
    table = _analyse(inst, field, 1 << 20)
    columns, zs = table.columns, table.targets
    assert columns == projective_classes(field, inst.num_messages)
    hit_sets = reference_hit_sets(field, columns, zs)
    assert table.hit_sets == pack(hit_sets)
    gens, _ = automorphisms(inst)
    assert gens
    for g in gens:
        sigma, = class_permutations(field, columns, [g])
        tau, = class_permutations(field, zs, [g])
        assert sorted(sigma) == list(range(len(columns)))
        assert sorted(tau) == list(range(len(zs)))
        for c, hits in enumerate(hit_sets):
            assert hit_sets[sigma[c]] == frozenset(tau[t] for t in hits)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 256])
def test_class_permutations_match_the_per_class_reference(q):
    """Every coordinate permutation of F_q^n for n up to 4 (or the largest
    n with at most 5,000 classes), on all classes and on the classes whose
    nonzero symbols are all 1 (a subset closed under the permutations)."""
    field = make_field(q)
    n = 1
    while n < 4 and (q ** (n + 1) - 1) // (q - 1) <= 5_000:
        n += 1
    for m in range(1, n + 1):
        classes = projective_classes(field, m)
        plain = [c for c in classes if set(c) <= {0, 1}]
        perms = list(itertools.permutations(range(m)))
        for subset in (classes, plain):
            want = [class_permutation_reference(field, subset, p) for p in perms]
            assert class_permutations(field, subset, perms) == want


def test_class_orbits_are_labelled_by_their_smallest_class():
    """The first-pick oracle's orbit labels (`helpers.class_orbits`)."""
    assert class_orbits(5, [[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]]) == [0, 0, 2, 2, 2]
    assert class_orbits(3, []) == [0, 1, 2]


def test_cover_search_quotas_are_per_target():
    table = CoverTable(pack([{0}, {1}]))
    assert multiset_cover_search(table, [0, 0], 2, 1000).classes == (0, 0)
    assert not multiset_cover_search(table, [3, 1], 3, 1000).found
    assert multiset_cover_search(table, [3, 1], 4, 1000).classes == (0, 0, 0, 1)
    assert not multiset_cover_search(table, [5, 0], 4, 1000).found


def test_cover_search_orbits_skip_first_picks_only():
    """Each class hits one of two targets, and swapping the targets swaps
    them.  The swap fixes no class, so no pick has a symmetry fixing it and
    only first picks are skipped, as the first-pick oracle skips them."""
    hit_sets = pack([{0}, {1}])
    unpruned = CoverTable(hit_sets)
    swapped = CoverTable(hit_sets, [bytes([1, 0])])
    for size, found in ((3, False), (4, True)):
        plain = multiset_cover_search(unpruned, [2, 2], size, 1000)
        pruned = multiset_cover_search(swapped, [2, 2], size, 1000)
        oracle = first_pick_cover_search(hit_sets, [2, 2], size, 1000, orbits=[0, 0])
        assert plain.found == pruned.found == found
        assert plain.classes == pruned.classes
        assert pruned == oracle
        if not found:
            assert pruned.nodes < plain.nodes
    assert pruned.classes == (0, 0, 1, 1)


def test_cover_search_rejects_isomorphs_below_the_root():
    """Classes A = {0, 1}, B = {0, 2} and C = {0, 3}, each target once.
    Swapping targets 2 and 3 swaps B and C and fixes A.  At the root C is
    skipped, as the first-pick oracle skips it; below the first pick A the
    swap still applies (it fixes A), so C is skipped there too, where the
    oracle tries it."""
    hit_sets = pack([{0, 1}, {0, 2}, {0, 3}])
    swap = bytes([0, 2, 1])
    unpruned, swapped = CoverTable(hit_sets), CoverTable(hit_sets, [swap])
    for size, found, nodes, oracle_nodes in ((2, False, 4, 5), (3, True, 7, 8)):
        plain = multiset_cover_search(unpruned, [1] * 4, size, 1000)
        pruned = multiset_cover_search(swapped, [1] * 4, size, 1000)
        oracle = first_pick_cover_search(
            hit_sets, [1] * 4, size, 1000, orbits=class_orbits(3, [swap])
        )
        assert plain.found == pruned.found == oracle.found == found
        assert plain.classes == pruned.classes == oracle.classes
        assert (pruned.nodes, oracle.nodes) == (nodes, oracle_nodes)
    assert pruned.classes == (0, 1, 2)


# ---------------------------------------------------------------------------
# isomorph rejection in exists_ecic


@pytest.mark.parametrize(
    "inst, delta, optimum",
    [(pentagon(), 1, 6), (pentagon(), 2, 9), (odd_cycle_complement(3), 1, 6)],
)
def test_orbit_skipping_keeps_answers_and_witnesses(inst, delta, optimum):
    table = _analyse(inst, F2, 1 << 20)
    unpruned = CoverTable(table.hit_sets)
    for length in (optimum - 1, optimum):
        pruned = exists_ecic(inst, F2, delta, length)
        plain = multiset_cover_search(unpruned, [2 * delta + 1] * len(table.targets), length, 1 << 27)
        assert pruned.feasible == plain.found == (length == optimum)
        if pruned.feasible:
            plain_matrix = classes_matrix(F2, table.columns, plain.classes, inst.num_messages)
            assert pruned.witness.matrix == plain_matrix
        else:
            assert pruned.nodes < plain.nodes


# ---------------------------------------------------------------------------
# the listed symmetries


@pytest.mark.parametrize(
    "inst, field",
    [(pentagon(), F2), (pentagon(), F3), (odd_cycle_complement(3), F2), (no_side_info(3), F3)],
)
def test_listed_symmetries_are_the_automorphism_group(inst, field):
    """Every automorphism but the identity, once each, as a column class
    permutation that maps hit sets onto hit sets."""
    table = _analyse(inst, field, 1 << 20)
    columns, zs = table.columns, table.targets
    hit_sets = reference_hit_sets(field, columns, zs)
    _, order = automorphisms(inst)
    listed = [tuple(g) for g in table.symmetries]
    assert len(set(listed)) == len(listed) == order - 1
    assert tuple(range(len(columns))) not in listed
    where = {columns.index(z): t for t, z in enumerate(zs)}
    for g in listed:
        tau = {t: where[g[c]] for c, t in where.items()}
        for c, hits in enumerate(hit_sets):
            assert hit_sets[g[c]] == frozenset(tau[t] for t in hits)


def test_code_scan_lists_the_coordinate_permutations():
    field = make_field(3)
    table = _code_table(3, 3)
    assert table.columns == projective_classes(field, 3)
    perms = itertools.permutations(range(3))
    want = set(class_permutations(field, table.columns, perms))
    assert {tuple(g) for g in table.symmetries} == want - {tuple(range(13))}
    assert len(table.symmetries) == 5
    assert _code_table(2, 1).symmetries == []


# N, k, d over GF(q) with the kernel's nodes at each length of the scan
# from the Griesmer bound up: infeasible below the last, found at it
CODE_SCAN_NODES = [
    (2, 4, 5, {11: 2_073}),
    (2, 4, 7, {14: 10_803}),
    (3, 4, 4, {8: 829}),
    (2, 5, 3, {8: 111, 9: 153}),
    (4, 3, 5, {8: 354}),
    (2, 3, 7, {13: 343}),
    (2, 8, 3, {11: 549, 12: 22_999}),  # the byte listing of S_8
]


@pytest.mark.parametrize(
    "q, k, d, nodes", CODE_SCAN_NODES, ids=[f"{q}-{k}-{d}" for q, k, d, _ in CODE_SCAN_NODES]
)
def test_code_scan_node_counts_are_pinned(q, k, d, nodes):
    """The systematic residual search of `find_code_generator` on the
    shared (q, k) table, node for node, so that a change to the table, its
    symmetry listing or the kernel's pruning shows here."""
    table = _code_table(q, k)
    residual = [max(0, d - sum(1 for x in z if x)) for z in table.columns]
    assert min(nodes) == _griesmer_length(q, k, d)
    for length, want in nodes.items():
        res = multiset_cover_search(table, residual, length - k, 1 << 27)
        assert (res.found, res.nodes) == (length == max(nodes), want), length


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_code_table_is_the_ecic_table_without_side_information(q, k):
    """The paper's reduction of the shortest classical code to the
    shortest ECIC: without side information every nonzero vector is
    confusable, so the table of no-side-info:k is the (q, k) code table
    with its targets in another order, and its automorphisms (all k!
    message permutations) are the code scan's coordinate permutations,
    neither list cut."""
    field = make_field(q)
    code = _code_table(q, k)
    table = _analyse(no_side_info(k), field, 1 << 20)
    assert table.columns == code.columns
    assert sorted(table.targets) == sorted(code.targets)
    assert code.targets == code.columns

    def hit(row, targets):
        return frozenset(z for t, z in enumerate(targets) if row >> (8 * t) & 1)

    ecic_rows = [hit(row, table.targets) for row in table.hit_sets]
    code_rows = [hit(row, code.columns) for row in code.hit_sets]
    assert sorted(ecic_rows, key=sorted) == sorted(code_rows, key=sorted)
    assert ecic_rows == code_rows  # class by class, as the columns agree
    ecic_symmetries = {tuple(g) for g in table.symmetries}
    assert ecic_symmetries == {tuple(g) for g in code.symmetries}
    assert len(ecic_symmetries) == len(code.symmetries) == math.factorial(k) - 1


def test_symmetry_list_stops_at_the_budget():
    """Each listed element of S_4 on the 15 classes of F_2^4 costs 15
    bytes; a shorter list is a prefix of the full one."""
    classes = projective_classes(F2, 4)
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    full = class_symmetries(F2, classes, gens, 1 << 20)
    assert len(full) == 23
    assert class_symmetries(F2, classes, gens, 15 * 5 + 14) == full[:5]
    assert class_symmetries(F2, classes, gens, 14) == []


@pytest.mark.parametrize("count", [1, 5, 256, 257, 600])
@pytest.mark.parametrize("m", [1, 8, 9, 17, 65])
def test_stabilizer_masks_match_a_per_class_loop(count, m):
    """The kernel's per-position bitmasks against a plain loop, for
    symmetries listed as tuples and, up to 256 classes, as bytes (the two
    layouts of `class_symmetries`), across lane widths of 1 to 9 bytes."""
    import random

    from ecic._cover import _stabilizer_masks

    rng = random.Random(count * 100 + m)
    order = list(range(count))
    rng.shuffle(order)
    symmetries = []
    for _ in range(m):
        g = list(range(count))
        for _ in range(3):  # a few swaps, so that some classes stay fixed
            a, b = rng.randrange(count), rng.randrange(count)
            g[a], g[b] = g[b], g[a]
        symmetries.append(tuple(g))
    pos = {c: i for i, c in enumerate(order)}
    fixes, earlier = [0] * count, [0] * count
    for j, g in enumerate(symmetries):
        for i, c in enumerate(order):
            if pos[g[c]] < i:
                earlier[i] |= 1 << j
            elif pos[g[c]] == i:
                fixes[i] |= 1 << j
    assert _stabilizer_masks(symmetries, order) == (fixes, earlier)
    if count <= 256:
        assert _stabilizer_masks([bytes(g) for g in symmetries], order) == (fixes, earlier)
