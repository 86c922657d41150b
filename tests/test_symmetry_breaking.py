"""Exact symmetry breaking in the cover search: systematic-form code
searches and automorphism-orbit first picks, each checked against the
unrestricted search it replaces."""

import itertools

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
    class_hit_sets,
    class_orbits,
    class_permutation,
    classes_matrix,
    multiset_cover_search,
    projective_classes,
)
from ecic.index_codes import _analyse
from ecic.instance import automorphisms

from helpers import F2, F3, random_instance


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
            classes = projective_classes(field, k)
            hit_sets = class_hit_sets(field, classes, classes)
            units = {tuple(int(r == i) for r in range(k)) for i in range(k)}
            for d in range(1, 6):
                for n in range(max(k, d), griesmer(q, k, d) + 2):
                    G = find_code_generator(q, k, d, n)
                    assert code_exists(q, k, d, n) == (G is not None)
                    if n < griesmer(q, k, d):
                        assert G is None, (q, k, d, n)
                    if (q, k) != (4, 4):
                        plain = multiset_cover_search(hit_sets, [d] * len(classes), n, 1 << 27)
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
    an = _analyse(inst, field, 1 << 20)
    columns, zs, hit_sets = an.columns, an.targets, an.hit_sets
    assert columns == projective_classes(field, inst.num_messages)
    assert hit_sets == class_hit_sets(field, columns, zs)
    gens, _ = automorphisms(inst)
    assert gens
    for g in gens:
        sigma = class_permutation(field, columns, g)
        tau = class_permutation(field, zs, g)
        assert sorted(sigma) == list(range(len(columns)))
        assert sorted(tau) == list(range(len(zs)))
        for c, hits in enumerate(hit_sets):
            assert hit_sets[sigma[c]] == frozenset(tau[t] for t in hits)


def test_class_orbits_are_labelled_by_their_smallest_class():
    assert class_orbits(5, [[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]]) == [0, 0, 2, 2, 2]
    assert class_orbits(3, []) == [0, 1, 2]


def test_cover_search_quotas_are_per_target():
    hit_sets = [frozenset({0}), frozenset({1})]
    assert multiset_cover_search(hit_sets, [0, 0], 2, 1000).classes == (0, 0)
    assert not multiset_cover_search(hit_sets, [3, 1], 3, 1000).found
    assert multiset_cover_search(hit_sets, [3, 1], 4, 1000).classes == (0, 0, 0, 1)
    assert not multiset_cover_search(hit_sets, [5, 0], 4, 1000).found


def test_cover_search_orbits_skip_first_picks_only():
    # each class hits one of two targets; swapping the targets swaps them
    hit_sets = [frozenset({0}), frozenset({1})]
    for size, found in ((3, False), (4, True)):
        plain = multiset_cover_search(hit_sets, [2, 2], size, 1000)
        pruned = multiset_cover_search(hit_sets, [2, 2], size, 1000, orbits=[0, 0])
        assert plain.found == pruned.found == found
        assert plain.classes == pruned.classes
        if not found:
            assert pruned.nodes < plain.nodes
    assert pruned.classes == (0, 0, 1, 1)


# ---------------------------------------------------------------------------
# first-pick orbit skipping in exists_ecic


@pytest.mark.parametrize(
    "inst, delta, optimum",
    [(pentagon(), 1, 6), (pentagon(), 2, 9), (odd_cycle_complement(3), 1, 6)],
)
def test_orbit_skipping_keeps_answers_and_witnesses(inst, delta, optimum):
    an = _analyse(inst, F2, 1 << 20)
    for length in (optimum - 1, optimum):
        pruned = exists_ecic(inst, F2, delta, length)
        plain = multiset_cover_search(
            an.hit_sets, [2 * delta + 1] * len(an.targets), length, 1 << 27, orbits=None
        )
        parallel = exists_ecic(inst, F2, delta, length, jobs=2)
        assert pruned.feasible == plain.found == parallel.feasible == (length == optimum)
        if pruned.feasible:
            plain_matrix = classes_matrix(F2, an.columns, plain.classes, inst.num_messages)
            assert pruned.witness.matrix == plain_matrix == parallel.witness.matrix
        else:
            assert pruned.nodes < plain.nodes
            assert parallel.nodes == pruned.nodes
