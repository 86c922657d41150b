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


# ---------------------------------------------------------------------------
# value semantics of the instance, the code, the cover table and the decoder


def relabelled_pentagon():
    """The pentagon built again from fresh tuples and sets."""
    return IcsiInstance(5, 5, tuple(range(5)), tuple(frozenset(s) for s in pentagon().side_info))


def test_rebuilt_instances_are_equal_and_share_the_alpha_cache():
    from ecic.index_codes import generalized_independence_number

    a, b = pentagon(), relabelled_pentagon()
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != no_side_info(5) and a != (5, 5, a.demands, a.side_info)
    assert repr(IcsiInstance(1, 1, (0,), (frozenset(),))) == (
        "IcsiInstance(num_receivers=1, num_messages=1, demands=(0,), side_info=(frozenset(),))"
    )
    generalized_independence_number(a)
    hits = generalized_independence_number.cache_info().hits
    assert generalized_independence_number(b) == (2, (0, 2))
    assert generalized_independence_number.cache_info().hits == hits + 1


def test_rebuilt_codes_and_tables_are_equal():
    from ecic import FMatrix, LinearIndexCode
    from ecic._cover import CoverTable

    rows = ((1, 0), (0, 1), (1, 1), (1, 0), (0, 1))
    code = LinearIndexCode(pentagon(), F2, FMatrix(F2, rows, 2))
    again = LinearIndexCode(relabelled_pentagon(), make_field(2), FMatrix(F2, rows, 2))
    assert code == again and hash(code) == hash(again)
    assert code != LinearIndexCode(pentagon(), F2, FMatrix(F2, rows[::-1], 2))
    table = CoverTable((3, 5, 6), ((0, 2, 1),), ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1)))
    same = CoverTable((3, 5, 6), ((0, 2, 1),), ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1)))
    table.visit  # made on first use and kept out of equality
    assert table == same and hash(table) == hash(same)
    assert table != CoverTable((3, 5, 6)) and CoverTable((3,)) == CoverTable((3,), (), (), ())
    assert table.visit is table.visit


def test_instances_codes_and_tables_survive_pickle_and_copy():
    import copy
    import pickle

    from ecic import FMatrix, LinearIndexCode
    from ecic._cover import CoverTable

    table = CoverTable((3, 5, 6), ((0, 2, 1),))
    table.visit
    code = LinearIndexCode(example1(), F2, FMatrix(F2, ((1,), (1,), (1,)), 1))
    for obj in (pentagon(), code, table):
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert again == obj and hash(again) == hash(obj)
    assert pickle.loads(pickle.dumps(table)).visit == table.visit


def test_instances_codes_tables_and_decoders_are_immutable():
    from ecic import FMatrix, LinearIndexCode, build_receiver_decoder
    from ecic._cover import CoverTable

    code = LinearIndexCode(
        example1(), F2, FMatrix(F2, ((1,), (1,), (1,)), 1)
    )
    objects = [
        (example1(), "demands"), (code, "matrix"), (CoverTable((1,)), "hit_sets"),
        (CoverTable((1,)), "visit"), (build_receiver_decoder(code, 0), "leaders"),
    ]
    for obj, name in objects:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_code_input_checks():
    from ecic import FMatrix, LinearIndexCode
    from ecic.errors import LengthMismatch

    with pytest.raises(LengthMismatch, match="^matrix field differs from code field$"):
        LinearIndexCode(example1(), F3, FMatrix(F2, ((1,), (1,), (1,)), 1))
    with pytest.raises(
        LengthMismatch, match=r"^matrix must have one row per message \(3\), got 2$"
    ):
        LinearIndexCode(example1(), F2, FMatrix(F2, ((1,), (1,)), 1))


def test_instance_input_messages():
    cases = [
        ((-1, 0, (), ()), MalformedDocument, "negative receiver or message count"),
        ((1, 1, (), ()), MalformedDocument, "demand/side-information arity mismatch"),
        ((1, 2, (2,), (frozenset(),)), IndexOutOfRange, "demand of receiver 1 out of range"),
        ((1, 2, (0,), (frozenset({5}),)), IndexOutOfRange,
         "side information of receiver 1 out of range"),
        ((1, 2, (1,), (frozenset({1}),)), DemandInSideInfo,
         "receiver 1 demands message 2 it already holds"),
    ]
    for args, error, message in cases:
        with pytest.raises(error) as raised:
            IcsiInstance(*args)
        assert type(raised.value) is error and str(raised.value) == message


def test_decoders_compare_by_identity():
    from ecic import FMatrix, LinearIndexCode, build_receiver_decoder

    code = LinearIndexCode(example1(), F2, FMatrix(F2, ((1,), (1,), (1,)), 1))
    a, b = build_receiver_decoder(code, 0), build_receiver_decoder(code, 0)
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) == object.__hash__(a)
    assert a.leaders is not b.leaders


def test_package_import_defines_no_generated_classes():
    """Records are NamedTuples and the value types slots classes, so
    neither the package nor its CLI imports dataclasses (or inspect,
    which dataclasses brought in)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, ecic, ecic.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
