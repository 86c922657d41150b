"""Property test: isomorph rejection under the automorphisms never changes
what `exists_ecic` answers, on random small instances under random relabelling.
Skipped when hypothesis is not installed."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ecic import IcsiInstance, exists_ecic, make_field  # noqa: E402
from ecic._cover import CoverTable, classes_matrix, multiset_cover_search  # noqa: E402
from ecic.index_codes import _analyse  # noqa: E402
from ecic.instance import automorphisms  # noqa: E402


@st.composite
def questions(draw):
    """A small instance, half the time closed under a random message
    permutation so that it has automorphisms, plus a relabelling."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4 if q == 2 else 3))
    receivers = set()
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.integers(0, n - 1))
        receivers.add((f, frozenset(draw(st.sets(st.integers(0, n - 1))) - {f})))
    if draw(st.booleans()):
        g = draw(st.permutations(range(n)))
        frontier = list(receivers)
        while frontier:
            f, xs = frontier.pop()
            image = (g[f], frozenset(g[x] for x in xs))
            if image not in receivers:
                receivers.add(image)
                frontier.append(image)
    receivers = sorted(receivers, key=lambda r: (r[0], sorted(r[1])))
    inst = IcsiInstance(
        len(receivers), n, tuple(f for f, _ in receivers), tuple(xs for _, xs in receivers)
    )
    perm = draw(st.permutations(range(n)))
    delta = draw(st.integers(0, 1))
    length = draw(st.integers(1, 6))
    return inst, perm, q, delta, length


def relabel(inst, perm):
    return IcsiInstance(
        inst.num_receivers,
        inst.num_messages,
        tuple(perm[f] for f in inst.demands),
        tuple(frozenset(perm[x] for x in xs) for xs in inst.side_info),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(questions())
def test_pruned_search_matches_unpruned_search(question):
    inst, perm, q, delta, length = question
    field = make_field(q)
    moved = relabel(inst, perm)
    assert automorphisms(moved)[1] == automorphisms(inst)[1]
    answers = set()
    for case in (inst, moved):
        pruned = exists_ecic(case, field, delta, length, node_budget=1 << 22)
        table = _analyse(case, field, 1 << 20)
        unpruned = CoverTable(table.hit_sets)
        plain = multiset_cover_search(unpruned, [2 * delta + 1] * len(table.targets), length, 1 << 22)
        assert pruned.feasible == plain.found
        assert pruned.nodes <= plain.nodes
        if pruned.feasible:
            plain_matrix = classes_matrix(field, table.columns, plain.classes, case.num_messages)
            assert pruned.witness.matrix == plain_matrix
        answers.add(pruned.feasible)
    assert len(answers) == 1  # relabelling messages cannot change feasibility
