"""Differential property tests of isomorph rejection at every depth of the
cover search against the first-pick oracle (`helpers.first_pick_cover_search`,
symmetry at the root only): on ECIC questions under the instance's
automorphisms and on shortest-code questions under the coordinate
permutations, both searches give the same answer and the same witness, and
the every-depth rule never visits more nodes.  Any subset of the listed
symmetries gives the same answer and witness too, and a search through the
shared table is the search through a table rebuilt from its rows and its
symmetry list.  Skipped
when hypothesis is not installed; `tests/conftest.py` makes them
deterministic in CI."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import IcsiInstance, builtin_instance, make_field  # noqa: E402
from ecic._cover import CoverTable, class_permutations, multiset_cover_search  # noqa: E402
from ecic.bounds import _code_table  # noqa: E402
from ecic.errors import BudgetExceeded  # noqa: E402
from ecic.index_codes import _analyse  # noqa: E402
from ecic.instance import automorphisms  # noqa: E402

from helpers import class_orbits, first_pick_cover_search  # noqa: E402

BUDGET = 30_000
BUILT_INS = ["pentagon", "example1", "odd-cycle-complement:3", "no-side-info:3", "no-side-info:4"]


def directed_cycle(n):
    """Receiver i demands message i and holds message i + 1 (mod n)."""
    return IcsiInstance(
        n, n, tuple(range(n)), tuple(frozenset({(i + 1) % n}) for i in range(n))
    )


def relabel(inst, perm):
    return IcsiInstance(
        inst.num_receivers,
        inst.num_messages,
        tuple(perm[f] for f in inst.demands),
        tuple(frozenset(perm[x] for x in xs) for xs in inst.side_info),
    )


@st.composite
def ecic_questions(draw):
    """A relabelled built-in or directed cycle over GF(q), q in {2,3,4,5},
    with at most 1,100 column classes, delta <= 2 and a length near the
    quota."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    pool = [builtin_instance(name) for name in BUILT_INS]
    pool += [directed_cycle(n) for n in range(3, 7)]
    pool = [inst for inst in pool if (q**inst.num_messages - 1) // (q - 1) <= 1_100]
    inst = draw(st.sampled_from(pool))
    inst = relabel(inst, draw(st.permutations(range(inst.num_messages))))
    delta = draw(st.integers(0, 2))
    length = draw(st.integers(2 * delta + 1, 2 * delta + 5))
    return inst, make_field(q), delta, length


_TABLES = {}


def code_table(q, k):
    if (q, k) not in _TABLES:
        _TABLES[q, k] = _code_table(q, k)
    return _TABLES[q, k]


@st.composite
def code_questions(draw):
    """The systematic residual search for an [N, k, d]_q code, q in
    {2,3,4}, k <= 5, d <= 6, N from max(k, d) to the Griesmer bound + 1."""
    q = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(2, 5))
    d = draw(st.integers(2, 6))
    griesmer = sum(-(-d // q**i) for i in range(k))
    length = draw(st.integers(max(k, d), griesmer + 1))
    return q, k, d, length


def _compare(table, quotas, size, orbits):
    """The every-depth search against the oracle on the table's raw rows,
    or None when the oracle runs out of budget; the same search through
    the shared `table` returns the same result."""
    hit_sets = table.hit_sets
    try:
        oracle = first_pick_cover_search(hit_sets, quotas, size, BUDGET, orbits=orbits)
    except BudgetExceeded:
        return None
    rebuilt = CoverTable(hit_sets, table.symmetries)
    res = multiset_cover_search(rebuilt, quotas, size, BUDGET)
    assert (res.found, res.classes) == (oracle.found, oracle.classes)
    assert res.nodes <= oracle.nodes
    assert multiset_cover_search(table, quotas, size, BUDGET) == res
    return res


def _code_search(q, k, d, length):
    table = code_table(q, k)
    residual = [max(0, d - sum(1 for x in z if x)) for z in table.columns]
    return table, residual, length - k


@settings(deadline=None)
@given(ecic_questions())
def test_every_depth_matches_the_first_pick_oracle_on_ecic_questions(question):
    inst, field, delta, length = question
    table = _analyse(inst, field, 1 << 20)
    gens, _ = automorphisms(inst)
    columns = table.columns
    orbits = class_orbits(len(columns), class_permutations(field, columns, gens))
    quotas = [2 * delta + 1] * len(table.targets)
    _compare(table, quotas, length, orbits)


@settings(deadline=None)
@given(code_questions())
def test_every_depth_matches_the_first_pick_oracle_on_code_questions(question):
    q, k, d, length = question
    table, residual, size = _code_search(q, k, d, length)
    field = make_field(q)
    gens = [(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)]
    orbits = class_orbits(len(table.columns), class_permutations(field, table.columns, gens))
    _compare(table, residual, size, orbits)


@settings(deadline=None)
@given(st.one_of(ecic_questions(), code_questions()), st.integers(0, 2**32 - 1))
def test_any_subset_of_the_symmetries_gives_the_same_answer(question, seed):
    """The generators alone, or a seeded half of the listed group, in
    place of the whole list."""
    if len(question) == 4 and isinstance(question[0], IcsiInstance):
        inst, field, delta, length = question
        table = _analyse(inst, field, 1 << 20)
        quotas, size = [2 * delta + 1] * len(table.targets), length
        gens = class_permutations(field, table.columns, automorphisms(inst)[0])
    else:
        q, k, d, length = question
        table, quotas, size = _code_search(q, k, d, length)
        moves = [(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)]
        gens = class_permutations(make_field(q), table.columns, moves)
    hit_sets, listed = table.hit_sets, table.symmetries
    identity = tuple(range(len(hit_sets)))
    gens = [g for g in gens if g != identity]
    rng = random.Random(seed)
    half = rng.sample(listed, len(listed) // 2)
    try:
        full = multiset_cover_search(table, quotas, size, BUDGET)
    except BudgetExceeded:
        return
    for subset in (gens, half):
        try:
            res = multiset_cover_search(
                CoverTable(hit_sets, subset), quotas, size, 4 * BUDGET
            )
        except BudgetExceeded:
            continue
        assert (res.found, res.classes) == (full.found, full.classes)
