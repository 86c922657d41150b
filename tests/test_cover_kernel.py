"""The cover kernel and the local search against a brute-force oracle,
and the optima and witnesses the kernel's pruning must not move."""

import functools
import itertools
import operator
import random

import pytest

from ecic import (
    builtin_instance,
    exists_ecic,
    format_matrix,
    make_field,
    optimal_length_search,
    verify_ecic_direct,
)
from ecic import _cover
from ecic._cover import (
    CoverResult,
    CoverTable,
    Descent,
    descend,
    local_cover_search,
    multiset_cover_search,
)
from ecic.bounds import _code_table
from ecic.errors import BudgetExceeded, CapExceeded
from ecic.construct_search import _seeded_bytes
from ecic.index_codes import _analyse

from helpers import pack, random_instance, reference_hit_sets


def oracle(hit_sets, quotas, size):
    """(found, classes): the first feasible tuple of visit-order positions
    in combinations_with_replacement order, mapped back to class indices;
    visit order is by non-increasing hit-set size, ties by index."""
    order = sorted(range(len(hit_sets)), key=lambda c: (-len(hit_sets[c]), c))
    for picks in itertools.combinations_with_replacement(range(len(order)), size):
        hits = [0] * len(quotas)
        for p in picks:
            for t in hit_sets[order[p]]:
                hits[t] += 1
        if all(h >= need for h, need in zip(hits, quotas)):
            return True, tuple(sorted(order[p] for p in picks))
    return False, None


def check_against_oracle(hit_sets, quotas, size):
    res = multiset_cover_search(CoverTable(pack(hit_sets)), quotas, size, 1 << 20)
    found, classes = oracle(hit_sets, quotas, size)
    assert res.found == found
    if max(quotas) > 0:
        assert res.classes == classes
    else:  # every multiset is feasible; the documented answer is class 0 repeated
        assert res.classes == (0,) * size


def check_local_search(hit_sets, quotas, size):
    """A local-search hit is a feasible multiset of the right size, it
    never claims one where the oracle finds none, and the same stream
    gives the same run."""
    found, _ = oracle(hit_sets, quotas, size)
    rows = pack(hit_sets)
    runs = [local_cover_search(rows, quotas, size, 50, _seeded_bytes("t", 256)) for _ in "ab"]
    assert runs[0] == runs[1]
    classes, moves = runs[0]
    assert 0 <= moves <= 50
    if classes is None:
        return
    assert found and len(classes) == size and list(classes) == sorted(classes)
    hits = [0] * len(quotas)
    for c in classes:
        for t in hit_sets[c]:
            hits[t] += 1
    assert all(h >= need for h, need in zip(hits, quotas))


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


@pytest.mark.parametrize("seed", range(4))
def test_local_search_hits_only_feasible_multisets(seed):
    rng = random.Random(100 + seed)
    for _ in range(60):
        check_local_search(*random_case(rng))


def test_local_search_finds_the_easy_cases():
    # one class hits every target: greedy takes it at once
    assert local_cover_search(pack([{0}, {0, 1}]), [2, 2], 2, 0, iter(())) == ((1, 1), 0)
    # greedy takes the big class first and ends one target short; one swap
    # trades it for the class that covers the rest
    rows = pack([{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}])
    assert local_cover_search(rows, [1] * 6, 2, 20, _seeded_bytes("t", 256)) == ((1, 2), 1)
    assert local_cover_search(rows, [1] * 6, 2, 0, _seeded_bytes("t", 256)) == (None, 0)


def test_zero_quotas_without_classes_have_no_multiset():
    empty = CoverTable([])
    assert multiset_cover_search(empty, [0], 2, 10) == CoverResult(False, None, 0)
    assert multiset_cover_search(empty, [0], 0, 10) == CoverResult(True, (), 0)
    assert local_cover_search([], [0], 2, 10, iter(())) == (None, 0)


def test_multiset_size_above_the_packed_count_cap_is_refused():
    """Counts of up to 120 picks fit the packed bytes; 121 would not."""
    with pytest.raises(CapExceeded):
        multiset_cover_search(CoverTable(pack([{0}])), [1], 121, 10)
    assert multiset_cover_search(CoverTable(pack([{0}])), [1], 120, 10).found


SUFFIX_TABLES = {
    "pentagon-3": lambda: _analyse(builtin_instance("pentagon"), make_field(3), 1 << 20),
    "odd-cycle-complement:3-2":
        lambda: _analyse(builtin_instance("odd-cycle-complement:3"), make_field(2), 1 << 20),
    "code-2-5": lambda: _code_table(2, 5),
}


@pytest.mark.parametrize("name", SUFFIX_TABLES)
def test_visit_keeps_each_suffix_union_once(name):
    """live_low[s] is the union of the hit rows from visit position s on,
    and positions holding the same union share one int."""
    visit = SUFFIX_TABLES[name]().visit
    adds, live_low = visit[1], visit[3]
    assert live_low == [functools.reduce(operator.or_, adds[s:], 0) for s in range(len(adds) + 1)]
    assert len({id(union) for union in live_low}) == len(set(live_low)) < len(live_low)


# two classes, each hitting one of two targets: a multiset meets quotas
# (2, 2) from length 4 on
TWO = pack([{0}, {1}])
TWO_TABLE = CoverTable(TWO)


def kernel_decides(length, budget):
    res = multiset_cover_search(TWO_TABLE, [2, 2], length, budget)
    return res.classes, res.nodes


def test_descent_returns_known_when_top_is_infeasible():
    proof = multiset_cover_search(TWO_TABLE, [2, 2], 3, 100).nodes
    out = descend(TWO, [2, 2], 3, 1, 4, 100, "t", tuple, kernel_decides)
    assert out == Descent(4, None, proof, _cover.LOCAL_SEARCH_ITERATIONS)


def test_descent_charges_every_length_to_one_budget(monkeypatch):
    """With tabu missing everywhere, lengths 5 and 4 are found and 3 is the
    proof, each by the kernel; one node short of their sum, the probe at the
    bottom spends what is left and the descent raises with every node and
    the bracket."""
    monkeypatch.setattr(_cover, "local_cover_search", lambda *args: (None, 0))
    spent = [multiset_cover_search(TWO_TABLE, [2, 2], n, 100).nodes for n in (5, 4, 3)]
    total = sum(spent)
    assert total < _cover.LOCAL_SEARCH_ITERATIONS * len(TWO)  # the probe is not capped
    out = descend(TWO, [2, 2], 5, 3, 6, total, "t", tuple, kernel_decides)
    assert out == Descent(4, (0, 0, 1, 1), total, 0)
    with pytest.raises(BudgetExceeded) as err:
        descend(TWO, [2, 2], 5, 3, 6, total - 1, "t", tuple, kernel_decides)
    assert str(err.value) == "budget exhausted at length 3; infeasible below 3, feasible at 4"
    assert (err.value.nodes, err.value.infeasible_below, err.value.feasible_at) == (total, 3, 4)


def test_kernel_matches_brute_force_on_hand_picked_cases():
    # ties in hit-set size, a class that hits nothing, a zero quota among
    # positive ones, and a size that is exactly the total deficit
    hit_sets = [frozenset({0}), frozenset({1}), frozenset(), frozenset({0, 1}), frozenset({2})]
    for quotas in ([1, 1, 1], [2, 0, 1], [3, 3, 0], [0, 0, 3], [2, 2, 2]):
        for size in range(6):
            check_against_oracle(hit_sets, quotas, size)


# Witnesses and optima pinned from exhaustive runs before the deficit bound:
# the kernel's witness at the optimum.  The optimal-length search takes its
# witnesses from the local search first, so it pins only the optimum.
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
    assert verify_ecic_direct(out.witness, delta).ok
    res = exists_ecic(builtin_instance(name), make_field(2), delta, out.optimal_length)
    assert format_matrix(res.witness.matrix) == witness


def test_odd_cycle_complement_3_delta_2_needs_more_than_8_columns():
    res = exists_ecic(builtin_instance("odd-cycle-complement:3"), make_field(2), 2, 8)
    assert not res.feasible


@pytest.mark.parametrize(
    "name, q",
    [(name, q) for name in ("example1", "pentagon") for q in (2, 3, 4, 5)]
    + [("no-side-info:3", 9)],
)
def test_analysis_table_is_the_packed_reference(name, q):
    field = make_field(q)
    table = _analyse(builtin_instance(name), field, 1 << 20)
    assert table.hit_sets == pack(reference_hit_sets(field, table.columns, table.targets))


def test_analysis_table_is_the_packed_reference_on_random_instances():
    rng = random.Random(5)
    for q in (2, 3, 4):
        field = make_field(q)
        for _ in range(10):
            table = _analyse(random_instance(rng), field, 1 << 20)
            want = reference_hit_sets(field, table.columns, table.targets)
            assert table.hit_sets == pack(want)
