"""The minimum-weight kernel against brute-force oracles.

`PackedRows.lightest` walks coefficient tuples with an odometer on
packed digit lanes (`helpers.lightest_combination` packs a target and
rows together for it); the oracle here rebuilds every combination from
scratch with plain field operations and takes the first lightest one in
lexicographic order.  The fields cover odd p with e = 1 and 2 (q = 3, 5,
7, 9) and p = 2 with e = 1, 2 and 3 (q = 2, 4, 8).
"""

import itertools
import random

import pytest

from ecic import (
    FMatrix,
    LinearIndexCode,
    code_min_distance,
    make_field,
    no_side_info,
    pentagon,
    verify_ecic,
)
from ecic import field_linalg
from ecic.index_codes import _margins_with_minimizers

from helpers import (
    F2,
    brute_min_distance,
    lightest_combination,
    lightest_gf2_xor,
    pentagon_code,
    random_instance,
    random_matrix,
)

FIELDS = [make_field(q) for q in (2, 3, 4, 5, 7, 8, 9)]


def max_rows(field):
    """Rows per span, capped so that the oracle's q^k walk stays small."""
    return 4 if field.q < 5 else 3 if field.q < 7 else 2


def oracle(field, target, rows):
    """(weight, coefficients) of the first lightest target - sum c_j rows_j
    in lexicographic coefficient order."""
    best = None
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        acc = list(target)
        for c, row in zip(coeffs, rows):
            acc = [field.sub(a, field.mul(c, b)) for a, b in zip(acc, row)]
        w = sum(1 for a in acc if a)
        if best is None or w < best[0]:
            best = (w, coeffs)
    return best


def special_rows(field, rng, n):
    """Rows with the structure random draws rarely hit: a zero row, a
    repeated row and a scaled copy, so that the span is degenerate."""
    base = tuple(rng.randrange(field.q) for _ in range(n))
    c = rng.randrange(1, field.q)
    return [(0,) * n, base, base, tuple(field.mul(c, x) for x in base)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_lightest_combination_matches_oracle(field):
    rng = random.Random(field.q)
    for trial in range(60):
        n = rng.randint(1, 6)
        k = rng.randint(0, max_rows(field))
        rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
        if trial % 3 == 0:
            rows = (special_rows(field, rng, n) + rows)[: max(k, 2)]
        target = rows[0] if trial % 5 == 0 and rows else tuple(rng.randrange(field.q) for _ in range(n))
        assert lightest_combination(field, target, rows) == oracle(field, target, rows)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_margins_and_minimizers_match_oracle(field):
    rng = random.Random(100 + field.q)
    for trial in range(40):
        inst = random_instance(rng, max_receivers=4, max_messages=1 + max_rows(field))
        N = rng.randint(1, 6)
        L = random_matrix(field, inst.num_messages, N, rng)
        if trial % 2:
            # make message 1 a copy of message 0 (or zero) to force dependent rows
            rows = list(L.rows)
            if len(rows) > 1:
                rows[1] = rows[0] if trial % 4 == 1 else (0,) * N
            L = FMatrix(field, tuple(rows), N)
        code = LinearIndexCode(inst, field, L)
        got = list(_margins_with_minimizers(code, 1 << 20))
        want = [
            oracle(field, L.rows[inst.demands[i]], [L.rows[j] for j in sorted(inst.complement(i))])
            for i in range(inst.num_receivers)
        ]
        assert got == want


def test_empty_complement_is_the_target_weight():
    field = make_field(3)
    assert lightest_combination(field, (0, 2, 1, 0), []) == (2, ())
    code = LinearIndexCode(no_side_info(1), field, FMatrix(field, ((2, 0, 1),), 3))
    assert list(_margins_with_minimizers(code, 1)) == [(2, ())]


def test_zero_weight_stops_at_first_cancelling_tuple():
    field = make_field(5)
    row = (1, 2, 3)
    target = tuple(field.mul(3, x) for x in row)
    # (0, 3) cancels first: the second row varies fastest
    assert lightest_combination(field, target, [row, row]) == (0, (0, 3))


def test_packed_gf2_path_matches_generic_path():
    """The lane kernel on GF(2) against the XOR path's suffix sums."""
    rng = random.Random(31)
    for _ in range(200):
        n, k = rng.randint(1, 12), rng.randint(0, 7)
        rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(k)]
        target = tuple(rng.randrange(2) for _ in range(n))
        assert lightest_combination(F2, target, rows) == lightest_gf2_xor(target, rows)


def test_gf4_step_depends_on_the_label():
    """GF(4) labels 0, 1, 2 = x, 3 = x + 1: moving a coefficient from label
    c to c+1 adds (c - (c+1)) * row, that is row, 3 * row, then row again.
    Adding the row at every step would come back to the target at label 2
    and miss the cancellation there."""
    field = make_field(4)
    row = (1, 2, 3)
    target = tuple(field.mul(2, x) for x in row)
    assert target == (2, 3, 1)
    assert lightest_combination(field, target, [row]) == (0, (2,))
    # (0, 1, 1) varies fastest: the wrap back to 0 must add 3 * (0, 1, 1)
    assert lightest_combination(field, target, [row, (0, 1, 1)]) == (0, (2, 0))
    # x * (0, 1, 1) + (x + 1) * row = (3, 3, 0), met after 3 wraps of the row
    assert lightest_combination(field, (3, 3, 0), [(0, 1, 1), row]) == (0, (2, 3))
    assert oracle(field, (3, 3, 0), [(0, 1, 1), row]) == (0, (2, 3))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_walk_over_several_blocks_matches_oracle(monkeypatch, field):
    """With a block of at most 4 precomputed steps, every walk over two or
    more digits is entered block by block through the slower digits."""
    monkeypatch.setattr(field_linalg, "_BLOCK", 4)
    field_linalg._lane_layout.cache_clear()
    try:
        rng = random.Random(400 + field.q)
        for _ in range(15):
            n, k = rng.randint(1, 5), rng.randint(2, max_rows(field))
            rows = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(k)]
            target = tuple(rng.randrange(field.q) for _ in range(n))
            assert lightest_combination(field, target, rows) == oracle(field, target, rows)
    finally:
        field_linalg._lane_layout.cache_clear()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"q{f.q}")
def test_min_distance_matches_span_oracle(field):
    rng = random.Random(200 + field.q)
    tested = 0
    while tested < 25:
        m = random_matrix(field, rng.randint(1, min(3, max_rows(field) + 1)), rng.randint(1, 6), rng)
        if not any(any(r) for r in m.rows):
            continue
        assert code_min_distance(m) == brute_min_distance(field, list(m.rows), m.ncols)
        tested += 1


def test_pentagon_fail_certificate_at_delta_three():
    verdict = verify_ecic(pentagon_code(), 3)
    assert not verdict.ok
    assert verdict.margins == (5, 5, 5, 5, 5)
    assert verdict.certificate.entries == (1, 0, 0, 0, 0)


def test_gf3_fail_certificate_from_a_nonzero_minimizer():
    """Receiver 1's lightest combination uses both complement rows (3 and
    4, coefficients 1 and 2); the certificate negates them."""
    field = make_field(3)
    L = FMatrix(
        field,
        ((1, 1, 0, 0, 1), (1, 2, 2, 1, 0), (2, 1, 2, 1, 2), (0, 0, 0, 1, 1), (0, 2, 1, 0, 1)),
        5,
    )
    code = LinearIndexCode(pentagon(), field, L)
    assert list(_margins_with_minimizers(code, 1 << 10)) == [
        (2, (1, 2)), (2, (1, 2)), (2, (0, 2)), (2, (0, 0)), (2, (0, 2)),
    ]
    verdict = verify_ecic(code, 1)
    assert (verdict.ok, verdict.margins) == (False, (2, 2, 2, 2, 2))
    assert verdict.certificate.entries == (1, 0, 2, 1, 0)
