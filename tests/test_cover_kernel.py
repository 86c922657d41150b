"""The cover kernel against a brute-force oracle, and the optima and
witnesses its pruning must not move."""

import itertools
import random

import pytest

from ecic import builtin_instance, exists_ecic, format_matrix, make_field, optimal_length_search
from ecic._cover import _visit_order, multiset_cover_search


def oracle(hit_sets, quotas, size):
    """(found, classes): the first feasible tuple of visit-order positions
    in combinations_with_replacement order, mapped back to class indices."""
    order = _visit_order(hit_sets)
    for picks in itertools.combinations_with_replacement(range(len(order)), size):
        hits = [0] * len(quotas)
        for p in picks:
            for t in hit_sets[order[p]]:
                hits[t] += 1
        if all(h >= need for h, need in zip(hits, quotas)):
            return True, tuple(sorted(order[p] for p in picks))
    return False, None


def check_against_oracle(hit_sets, quotas, size):
    res = multiset_cover_search(hit_sets, quotas, size, 1 << 20)
    found, classes = oracle(hit_sets, quotas, size)
    assert res.found == found
    if max(quotas) > 0:
        assert res.classes == classes
    else:  # every multiset is feasible; the documented answer is class 0 repeated
        assert res.classes == (0,) * size


def random_case(rng):
    targets = rng.randint(1, 6)
    hit_sets = [
        frozenset(t for t in range(targets) if rng.random() < rng.random())
        for _ in range(rng.randint(1, 8))
    ]
    quotas = [rng.randint(0, 3) for _ in range(targets)]
    return hit_sets, quotas, rng.randint(0, 5)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_brute_force_on_a_fixed_grid(seed):
    rng = random.Random(seed)
    for _ in range(60):
        check_against_oracle(*random_case(rng))


def test_kernel_matches_brute_force_on_hand_picked_cases():
    # ties in hit-set size, a class that hits nothing, a zero quota among
    # positive ones, and a size that is exactly the total deficit
    hit_sets = [frozenset({0}), frozenset({1}), frozenset(), frozenset({0, 1}), frozenset({2})]
    for quotas in ([1, 1, 1], [2, 0, 1], [3, 3, 0], [0, 0, 3], [2, 2, 2]):
        for size in range(6):
            check_against_oracle(hit_sets, quotas, size)


# Witnesses and optima pinned from exhaustive runs before the deficit bound.
PINNED = [
    ("pentagon", 1, "2 5 6\n1 1 1 1 0 0\n0 1 1 1 1 0\n0 0 1 1 1 1\n0 0 1 1 0 1\n1 0 1 1 0 0\n"),
    (
        "pentagon", 2,
        "2 5 9\n1 1 1 1 1 1 0 0 0\n0 0 1 1 1 1 1 0 0\n0 0 0 1 1 1 1 1 0\n"
        "0 1 0 0 1 1 0 1 1\n1 1 0 0 1 1 0 0 1\n",
    ),
    (
        "pentagon", 3,
        "2 5 12\n1 1 1 1 1 1 1 1 0 0 0 0\n0 0 1 1 1 1 1 1 1 1 0 0\n"
        "0 0 0 0 1 1 1 1 1 1 1 0\n0 1 0 0 0 1 1 1 0 1 1 1\n1 1 0 1 0 1 1 1 0 0 0 1\n",
    ),
    (
        "odd-cycle-complement:3", 1,
        "2 7 6\n1 1 1 1 1 0\n0 0 0 1 1 1\n0 1 1 1 1 0\n1 0 0 1 1 0\n"
        "0 0 1 1 1 1\n1 1 0 1 1 0\n0 0 0 1 1 1\n",
    ),
]


@pytest.mark.parametrize(
    "name, delta, witness", PINNED, ids=[f"{name}-delta{delta}" for name, delta, _ in PINNED]
)
def test_searched_optima_and_witnesses_are_pinned(name, delta, witness):
    out = optimal_length_search(builtin_instance(name), make_field(2), delta)
    assert out.optimal_length == int(witness.split()[2])
    assert out.infeasible_below == out.optimal_length - 1
    assert format_matrix(out.witness.matrix) == witness


def test_odd_cycle_complement_3_delta_2_needs_more_than_8_columns():
    res = exists_ecic(builtin_instance("odd-cycle-complement:3"), make_field(2), 2, 8)
    assert not res.feasible
