"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random

import pytest

from ecic import (
    FMatrix,
    FVector,
    LinearIndexCode,
    bounds_report,
    build_receiver_decoder,
    code_min_distance,
    concatenate_construction,
    correction_radius,
    decode,
    encode,
    generalized_independence_number,
    in_relevant_error_set,
    make_field,
    mds_generator,
    min_rank,
    no_side_info,
    odd_cycle_complement,
    optimal_length_search,
    pentagon,
    random_coding_length,
    shortest_code_length,
    verify_ecic,
    verify_ecic_direct,
)
from ecic.field_linalg import _weight_ordered

from helpers import (
    F2,
    F3,
    example1_code,
    pentagon_code,
    random_full_rank_matrix,
    random_instance,
    random_matrix,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def run_all_decodes(code: LinearIndexCode, delta: int):
    """Every (message, weight<=delta error, receiver) decode, with success
    and relevant-set membership recorded per decode."""
    from ecic.field_linalg import all_vectors

    inst, field = code.inst, code.field
    decoders = [build_receiver_decoder(code, i) for i in range(inst.num_receivers)]
    sides = [sorted(s) for s in inst.side_info]
    results = []
    for x in all_vectors(field, inst.num_messages):
        y = encode(code, x)
        for entries in _weight_ordered(field.q, code.length, delta):
            err = FVector(field, entries)
            received = y.add(err)
            for i in range(inst.num_receivers):
                out = decode(
                    decoders[i],
                    received,
                    [x.entries[j] for j in sides[i]],
                    delta,
                    truth=x.entries[inst.demands[i]],
                )
                relevant = in_relevant_error_set(decoders[i], out.error_estimate, err)
                results.append((out.success, relevant))
    return results


@pytest.fixture(scope="module")
def decode_grids():
    return {
        "example1": run_all_decodes(example1_code(), 1),
        "pentagon": run_all_decodes(pentagon_code(), 2),
    }


def test_criterion_01_example_reproduction():
    code = example1_code()
    verdict = verify_ecic(code, 1)
    radius = correction_radius(code)
    dist = code_min_distance(code.matrix)
    ok = verdict.ok and radius == 1 and dist == 1
    report(1, ok, f"valid 1-error code, radius {radius}, classical distance {dist}")
    assert ok


def test_criterion_02_pentagon_parameters():
    alpha, witness = generalized_independence_number(pentagon())
    kappa = min_rank(pentagon(), F2).kappa
    ok = alpha == 2 and kappa == 3
    report(2, ok, f"alpha = {alpha} (witness {witness}), kappa_2 = {kappa}")
    assert ok


def test_criterion_03_pentagon_bounds_with_searched_lengths():
    rep = bounds_report(pentagon(), F2, 2)
    searched_25 = shortest_code_length(2, 2, 5)
    searched_35 = shortest_code_length(2, 3, 5)
    ok = (
        rep.alpha_bound == 8
        and rep.kappa_bound == 10
        and rep.singleton == 7
        and searched_25 == 8
        and searched_35 == 10
    )
    report(
        3,
        ok,
        f"alpha-bound {rep.alpha_bound}, kappa-bound {rep.kappa_bound}, "
        f"singleton {rep.singleton}; searched shortest lengths {searched_25}, {searched_35}",
    )
    assert ok


def test_criterion_04_pentagon_optimum():
    outcome = optimal_length_search(pentagon(), F2, 2)
    paper_ok = verify_ecic(pentagon_code(), 2).ok
    witness_ok = verify_ecic(outcome.witness, 2).ok
    ok = (
        outcome.optimal_length == 9
        and outcome.infeasible_below == 8
        and witness_ok
        and paper_ok
    )
    report(
        4,
        ok,
        f"optimal length {outcome.optimal_length} "
        f"(exhausted through {outcome.infeasible_below}, {outcome.stats.nodes} nodes); "
        f"published 5x9 matrix verifies: {paper_ok}",
    )
    assert ok


def test_criterion_05_decoder_total_correctness(decode_grids):
    e1 = decode_grids["example1"]
    pent = decode_grids["pentagon"]
    ok = (
        len(e1) == 120
        and all(success for success, _ in e1)
        and len(pent) == 7360
        and all(success for success, _ in pent)
    )
    report(5, ok, f"{len(e1)} + {len(pent)} exhaustive decodes all correct")
    assert ok


def test_criterion_06_estimates_stay_relevant(decode_grids):
    violations = sum(
        not relevant
        for grid in decode_grids.values()
        for _, relevant in grid
    )
    ok = violations == 0
    report(6, ok, f"{violations} error estimates left the relevant-pattern set")
    assert ok


def test_criterion_07_classical_reduction():
    rng = random.Random(101)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        N = rng.randint(n, 9)
        L = random_full_rank_matrix(F2, n, N, rng)
        code = LinearIndexCode(no_side_info(n), F2, L)
        dist = code_min_distance(L)
        for delta in (0, 1, 2):
            if verify_ecic(code, delta).ok != (dist >= 2 * delta + 1):
                mismatches += 1
    ok = mismatches == 0
    report(7, ok, f"{mismatches} mismatches over 200 full-rank matrices x 3 deltas")
    assert ok


def test_criterion_08_margin_and_enumeration_routes_agree():
    rng = random.Random(103)
    mismatches = 0
    for _ in range(200):
        inst = random_instance(rng, max_receivers=4, max_messages=4)
        field = F2 if rng.random() < 0.5 else F3
        L = random_matrix(field, inst.num_messages, rng.randint(1, 5), rng)
        code = LinearIndexCode(inst, field, L)
        delta = rng.randint(0, 2)
        if verify_ecic(code, delta).ok != verify_ecic_direct(code, delta).ok:
            mismatches += 1
    ok = mismatches == 0
    report(8, ok, f"{mismatches} verdict mismatches over 200 (instance, matrix) pairs")
    assert ok


def test_criterion_09_random_coding_bound_tight_on_cycle_complement():
    f7 = make_field(7)
    inst = odd_cycle_complement(2)
    length = random_coding_length(inst, f7, 0)
    kappa = min_rank(inst, f7).kappa
    ok = length == 3 and kappa == 3
    report(9, ok, f"random-coding length {length}, brute-forced kappa_7 {kappa}")
    assert ok


def test_criterion_10_mds_equality():
    f5 = make_field(5)
    kappa = min_rank(pentagon(), f5).kappa
    assert f5.q >= kappa + 1
    inner = min_rank(pentagon(), f5).ic_matrix
    outer = mds_generator(f5, kappa, kappa + 2)
    code = concatenate_construction(pentagon(), f5, 1, inner, outer)
    rep = bounds_report(pentagon(), f5, 1)
    ok = (
        code.length == kappa + 2
        and verify_ecic(code, 1).ok
        and rep.lower == rep.upper == kappa + 2
        and rep.mds_equality is True
    )
    report(
        10,
        ok,
        f"GF(5) concatenation of length {code.length} verified; "
        f"bounds collapse to {rep.lower}",
    )
    assert ok


def test_criterion_11_column_symmetry():
    rng = random.Random(107)
    mismatches = 0
    for _ in range(500):
        inst = random_instance(rng, max_receivers=4, max_messages=4)
        field = F2 if rng.random() < 0.5 else F3
        N = rng.randint(1, 5)
        L = random_matrix(field, inst.num_messages, N, rng)
        perm = list(range(N))
        rng.shuffle(perm)
        scales = [rng.randrange(1, field.q) for _ in range(N)]
        transformed = FMatrix(
            field,
            tuple(
                tuple(field.mul(scales[j], row[perm[j]]) for j in range(N))
                for row in L.rows
            ),
            N,
        )
        delta = rng.randint(0, 2)
        before = verify_ecic(LinearIndexCode(inst, field, L), delta).ok
        after = verify_ecic(LinearIndexCode(inst, field, transformed), delta).ok
        if before != after:
            mismatches += 1
    ok = mismatches == 0
    report(11, ok, f"{mismatches} verdict changes over 500 permutation/scaling triples")
    assert ok
