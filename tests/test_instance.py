import itertools
import json
import random

import pytest

from ecic import (
    IcsiInstance,
    builtin_instance,
    enumerate_error_vectors,
    example1,
    in_support_family,
    instance_to_doc,
    make_field,
    no_side_info,
    odd_cycle_complement,
    parse_instance,
    pentagon,
    receiver_frame,
)
from ecic import instance
from ecic.errors import (
    BudgetExceeded,
    DemandInSideInfo,
    IndexOutOfRange,
    MalformedDocument,
)

from helpers import F2, F3, check_walks, random_instance, walked

F4 = make_field(4)


PENTAGON_DOC = {
    "m": 5,
    "n": 5,
    "f": [1, 2, 3, 4, 5],
    "X": [[2, 5], [1, 3], [2, 4], [3, 5], [1, 4]],
}

EXAMPLE1_DOC = {"m": 3, "n": 3, "f": [1, 2, 3], "X": [[2, 3], [1, 3], [1, 2]]}


def test_parse_pentagon_document():
    inst = parse_instance(json.dumps(PENTAGON_DOC))
    assert inst == pentagon()
    assert instance_to_doc(inst) == PENTAGON_DOC


def test_parse_example1_document():
    assert parse_instance(json.dumps(EXAMPLE1_DOC)) == example1()


def test_parse_rejects_demand_in_side_info():
    doc = {"m": 1, "n": 2, "f": [1], "X": [[1, 2]]}
    with pytest.raises(DemandInSideInfo):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_documents():
    with pytest.raises(MalformedDocument):
        parse_instance("not json at all {")
    with pytest.raises(MalformedDocument):
        parse_instance(json.dumps({"m": 1, "n": 1}))
    with pytest.raises(MalformedDocument):
        parse_instance(json.dumps({"m": 2, "n": 2, "f": [1], "X": [[], []]}))
    with pytest.raises(MalformedDocument):
        parse_instance(json.dumps({"m": 1, "n": 3, "f": [1], "X": [[2, 2]]}))
    with pytest.raises(IndexOutOfRange):
        parse_instance(json.dumps({"m": 1, "n": 2, "f": [3], "X": [[]]}))
    with pytest.raises(IndexOutOfRange):
        parse_instance(json.dumps({"m": 1, "n": 2, "f": [1], "X": [[5]]}))


def test_builtin_names():
    assert builtin_instance("pentagon") == pentagon()
    assert builtin_instance("example1") == example1()
    assert builtin_instance("odd-cycle-complement:2") == odd_cycle_complement(2)
    assert builtin_instance("no-side-info:4") == no_side_info(4)
    with pytest.raises(MalformedDocument):
        builtin_instance("heptagon")


def test_odd_cycle_complement_shape():
    inst = odd_cycle_complement(2)
    assert inst.num_messages == 5
    assert all(len(x) == 2 for x in inst.side_info)
    # receiver 0 (1-based 1) holds everything but itself and its neighbours
    assert inst.side_info[0] == frozenset({2, 3})


def test_receiver_frames():
    fr = receiver_frame(pentagon(), 0)
    assert fr.demand == 0
    assert fr.side_info == frozenset({1, 4})
    assert fr.complement == frozenset({2, 3})

    assert receiver_frame(example1(), 0).complement == frozenset()

    fr = receiver_frame(no_side_info(4), 1)
    assert fr.complement == frozenset({0, 2, 3})

    with pytest.raises(IndexOutOfRange):
        receiver_frame(pentagon(), 5)


def test_frame_partition_invariant():
    rng = random.Random(2)
    insts = [pentagon(), example1(), odd_cycle_complement(3)] + [
        random_instance(rng) for _ in range(10)
    ]
    for inst in insts:
        for i in range(inst.num_receivers):
            fr = receiver_frame(inst, i)
            parts = [{fr.demand}, set(fr.side_info), set(fr.complement)]
            union = set().union(*parts)
            assert union == set(range(inst.num_messages))
            assert sum(len(p) for p in parts) == inst.num_messages


def test_support_family_examples():
    pent = pentagon()
    assert in_support_family(pent, {0, 2})  # 1-based {1, 3}
    assert not in_support_family(pent, {0, 1})  # 1-based {1, 2}
    assert in_support_family(example1(), {0})
    with pytest.raises(MalformedDocument):
        in_support_family(pent, set())
    with pytest.raises(IndexOutOfRange):
        in_support_family(pent, {9})


def test_error_vectors_example1():
    check_walks(example1(), F2)
    vecs = {z for _, vectors in walked(example1(), F2) for z in vectors}
    assert vecs == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_error_vectors_no_side_info_are_all_nonzero_vectors():
    inst = no_side_info(3)
    for field in (F2, F3):
        everything = {t for t in itertools.product(field.elements(), repeat=3) if any(t)}
        assert check_walks(inst, field).keys() == everything
        # one walk per receiver, each past the earlier demands: every
        # projective class exactly once
        vecs = [z for _, vectors in walked(inst, field) for z in vectors]
        assert len(vecs) == len(set(vecs)) == len(everything) // (field.q - 1)


def test_error_vectors_pentagon_count_matches_predicate_oracle():
    pent = pentagon()
    oracle = check_walks(pent, F2)
    assert len(oracle) == 15
    # over GF(2) the walk up to scaling meets every confusable vector
    assert {z for _, vectors in walked(pent, F2) for z in vectors} == oracle.keys()


def test_supports_match_family_and_are_field_independent():
    rng = random.Random(17)
    insts = [pentagon(), example1(), odd_cycle_complement(2)] + [
        random_instance(rng, max_messages=4) for _ in range(8)
    ]
    for inst in insts:
        n = inst.num_messages
        predicate = {
            frozenset(k)
            for r in range(1, n + 1)
            for k in itertools.combinations(range(n), r)
            if in_support_family(inst, k)
        }
        for field in (F2, F3, F4):
            oracle = check_walks(inst, field)
            supports = {
                frozenset(j for j, x in enumerate(z) if x)
                for _, vectors in walked(inst, field)
                for z in vectors
            }
            assert supports == predicate
            assert {frozenset(j for j, x in enumerate(z) if x) for z in oracle} == predicate


def test_error_vector_budget(monkeypatch):
    # raised by the call itself, before the odometer takes a step
    monkeypatch.setattr(instance, "_odometer", lambda *a: pytest.fail("stepped the odometer"))
    with pytest.raises(BudgetExceeded, match="receivers contribute 34992 vectors, over budget 100"):
        enumerate_error_vectors(no_side_info(8), F3, budget=100)


def test_error_vector_budget_is_total_over_receivers(monkeypatch):
    # each of the 4 receivers contributes 2^3 = 8 vectors; together 32
    with monkeypatch.context() as patched:
        patched.setattr(instance, "_odometer", lambda *a: pytest.fail("stepped the odometer"))
        with pytest.raises(BudgetExceeded, match="receivers contribute 32 vectors, over budget 31"):
            enumerate_error_vectors(no_side_info(4), F2, budget=31)
    assert sum(len(vectors) for _, vectors in walked(no_side_info(4), F2, budget=32)) == 15


def test_instance_validation():
    with pytest.raises(DemandInSideInfo):
        IcsiInstance(1, 2, (0,), (frozenset({0}),))
    with pytest.raises(IndexOutOfRange):
        IcsiInstance(1, 2, (4,), (frozenset(),))
    with pytest.raises(MalformedDocument):
        IcsiInstance(2, 2, (0,), (frozenset(),))
