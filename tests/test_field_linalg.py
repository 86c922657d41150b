import itertools
import random

import pytest

from ecic import (
    FMatrix,
    FVector,
    code_min_distance,
    coset_leader,
    format_matrix,
    make_field,
    mat_rank,
    parity_check_matrix,
    parse_matrix,
)
from ecic.errors import (
    BudgetExceeded,
    CapExceeded,
    LengthMismatch,
    MalformedDocument,
    NoSolution,
    NotPrimePower,
    WeightCapExceeded,
)
from ecic import field_linalg

from helpers import (
    F2,
    F3,
    brute_coset_min_weight,
    brute_dual,
    brute_min_distance,
    brute_rank,
    pentagon_matrix,
    random_matrix,
)


# ---------------------------------------------------------------------------
# fields


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_gf2_addition_is_xor():
    for a in range(2):
        for b in range(2):
            assert F2.add(a, b) == a ^ b


def test_gf7_inverse_example():
    f7 = make_field(7)
    assert f7.mul(3, 5) == 1


def test_gf4_against_polynomial_oracle():
    """Multiply in GF(4) independently: polynomials over GF(2) mod x^2+x+1."""
    f4 = make_field(4)
    assert f4.modulus == (1, 1, 1)

    def poly_mul_mod(a, b):
        # coefficients (low bit = constant term)
        prod = 0
        for i in range(2):
            if (b >> i) & 1:
                prod ^= a << i
        for i in (3, 2):
            if (prod >> i) & 1:
                prod ^= 0b111 << (i - 2)
        return prod & 0b11

    for a in range(4):
        for b in range(4):
            assert f4.mul(a, b) == poly_mul_mod(a, b)
    assert f4.mul(2, 2) == 3  # x * x = x + 1


def test_fixed_moduli_are_lowest_lexicographic():
    assert make_field(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert make_field(9).modulus == (1, 0, 1)  # x^2 + 1 over GF(3)


def test_make_field_rejections():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(12)
    with pytest.raises(NotPrimePower):
        make_field(1)
    with pytest.raises(CapExceeded):
        make_field(512)


def test_make_field_is_cached():
    assert make_field(4) is make_field(4)


# ---------------------------------------------------------------------------
# weight / distance


def test_hamming_weight_examples():
    assert FVector(F2, (0, 0, 0, 0)).weight() == 0
    assert FVector(F2, (1, 1, 1, 0)).weight() == 3
    f7 = make_field(7)
    assert FVector(f7, (0, 3, 0, 5, 6)).weight() == 3


def test_distance_is_weight_of_difference_exhaustive():
    for field in (F2, F3):
        for u in itertools.product(field.elements(), repeat=3):
            for v in itertools.product(field.elements(), repeat=3):
                fu, fv = FVector(field, u), FVector(field, v)
                assert fu.sub(fv).weight() == sum(a != b for a, b in zip(u, v))


def test_triangle_inequality_small_sample():
    rng = random.Random(11)
    for field in (F2, F3):
        for _ in range(200):
            u, v, w = (
                FVector(field, tuple(rng.randrange(field.q) for _ in range(5)))
                for _ in range(3)
            )
            assert u.sub(w).weight() <= u.sub(v).weight() + v.sub(w).weight()


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert mat_rank(FMatrix.identity(F2, 3)) == 3
    assert mat_rank(FMatrix(F2, tuple((1,) for _ in range(5)), 1)) == 1
    pent = pentagon_matrix()
    assert mat_rank(pent) == 5
    assert brute_rank(F2, list(pent.rows), 9) == 5


def test_rank_against_span_oracle():
    rng = random.Random(5)
    for field in (F2, F3):
        for _ in range(25):
            m = random_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            assert mat_rank(m) == brute_rank(field, list(m.rows), m.ncols)


# ---------------------------------------------------------------------------
# products


@pytest.mark.parametrize("q", [4, 9])
def test_matmul_against_triple_loop(q):
    """Over GF(4) and GF(9), where + and * are no residues mod q."""
    field = make_field(q)
    rng = random.Random(q)
    for _ in range(20):
        a, b, c = (rng.randint(0, 4) for _ in range(3))
        A, B = random_matrix(field, a, b, rng), random_matrix(field, b, c, rng)
        expected = [[0] * c for _ in range(a)]
        for i, j, t in itertools.product(range(a), range(c), range(b)):
            expected[i][j] = field.add(expected[i][j], field.mul(A.rows[i][t], B.rows[t][j]))
        product = A.matmul(B)
        assert (product.nrows, product.ncols) == (a, c)
        assert [list(row) for row in product.rows] == expected
    with pytest.raises(LengthMismatch):
        A.matmul(random_matrix(field, b + 1, c, rng))


# ---------------------------------------------------------------------------
# parity check


def test_parity_check_example_spans_brute_dual():
    G = FMatrix(F2, ((1, 1, 1, 0),), 4)
    H = parity_check_matrix(G)
    assert H.nrows == 3 and mat_rank(H) == 3
    from helpers import span_elements

    assert span_elements(F2, list(H.rows)) == brute_dual(F2, list(G.rows), 4)


def test_parity_check_identity_and_empty():
    assert parity_check_matrix(FMatrix.identity(F3, 4)).nrows == 0
    H = parity_check_matrix(FMatrix(F3, (), 4))
    assert H.nrows == 4 and mat_rank(H) == 4


def test_parity_check_rank_and_orthogonality_random():
    rng = random.Random(13)
    for q in (2, 3, 4):
        field = make_field(q)
        for _ in range(20):
            N = rng.randint(1, 12)
            G = random_matrix(field, rng.randint(0, N), N, rng)
            H = parity_check_matrix(G)
            assert mat_rank(G) + H.nrows == N
            assert mat_rank(H) == H.nrows
            for r in range(G.nrows):
                assert H.mul_col(G.row(r)).is_zero()


# ---------------------------------------------------------------------------
# coset leaders


def test_coset_leader_zero_syndrome():
    H = FMatrix(F2, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)), 4)
    assert coset_leader(H, FVector(F2, (0, 0, 0)), 4).is_zero()


def test_coset_leader_weight_one_example():
    H = FMatrix(F2, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)), 4)
    leader = coset_leader(H, FVector(F2, (1, 1, 0)), 4)
    assert leader.entries == (0, 1, 0, 0)


def test_coset_leader_identity_parity():
    f5 = make_field(5)
    H = FMatrix.identity(f5, 4)
    s = FVector(f5, (0, 3, 0, 2))
    assert coset_leader(H, s, 4).entries == s.entries


def test_coset_leader_never_heavier_than_any_preimage():
    rng = random.Random(3)
    for field in (F2, F3):
        for _ in range(10):
            N = rng.randint(2, 4)
            rcount = rng.randint(1, 3)
            H = random_matrix(field, rcount, N, rng)
            for e in itertools.product(field.elements(), repeat=N):
                ev = FVector(field, e)
                s = H.mul_col(ev)
                leader = coset_leader(H, s, N)
                assert leader.weight() <= ev.weight()
                assert H.mul_col(leader).entries == s.entries
                brute = brute_coset_min_weight(field, list(H.rows), N, s.entries)
                assert leader.weight() == brute


def test_coset_leader_no_solution():
    """An inconsistent syndrome raises NoSolution at every cap, also when
    the search below the cap finds nothing and H is rank-deficient."""
    cases = [
        FMatrix(F2, ((0, 0, 0),), 3),
        FMatrix(F2, ((1, 1, 0), (1, 1, 0)), 3),
        FMatrix(F3, ((1, 0, 2, 1), (2, 0, 1, 2), (0, 1, 1, 0)), 4),  # row 2 = 2 * row 1
    ]
    syndromes = [(1,), (1, 0), (1, 1, 0)]
    for H, s in zip(cases, syndromes):
        assert mat_rank(H) < H.nrows
        for cap in (0, 1, H.ncols):
            with pytest.raises(NoSolution):
                coset_leader(H, FVector(H.field, s), cap)


def test_coset_leader_weight_cap():
    """A consistent syndrome whose lightest preimage is heavier than the cap
    raises WeightCapExceeded, not NoSolution."""
    H = FMatrix(F2, ((1, 0), (0, 1)), 2)
    with pytest.raises(WeightCapExceeded):
        coset_leader(H, FVector(F2, (1, 1)), 1)
    H = FMatrix(F3, ((1, 0, 2, 1), (2, 0, 1, 2), (0, 1, 1, 0)), 4)  # rank-deficient
    s = FVector(F3, (1, 2, 1))
    assert coset_leader(H, s, 4).weight() == 2
    for cap in (0, 1):
        with pytest.raises(WeightCapExceeded):
            coset_leader(H, s, cap)


def test_coset_leader_eliminates_only_on_a_miss(monkeypatch):
    """A found leader proves the syndrome consistent, so `solve_linear` runs
    only when the search below the cap comes back empty."""
    calls = []
    original = field_linalg.solve_linear
    monkeypatch.setattr(
        field_linalg, "solve_linear", lambda *a: calls.append(a) or original(*a)
    )
    H = FMatrix(F2, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)), 4)
    for s in itertools.product((0, 1), repeat=3):
        coset_leader(H, FVector(F2, s), 4)
    assert calls == []
    with pytest.raises(WeightCapExceeded):
        coset_leader(H, FVector(F2, (1, 1, 1)), 1)
    with pytest.raises(NoSolution):
        coset_leader(FMatrix(F2, ((0, 0, 0),), 3), FVector(F2, (1,)), 3)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# minimum distance


def test_min_distance_examples():
    assert code_min_distance(FMatrix.identity(F2, 4)) == 1
    G = FMatrix(F2, ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)), 4)
    assert code_min_distance(G) == 1  # rows sum to a unit vector
    assert code_min_distance(FMatrix(F2, ((1, 1, 1, 1, 1),), 5)) == 5


def test_min_distance_against_span_oracle():
    rng = random.Random(23)
    for field in (F2, F3):
        for _ in range(25):
            nrows, ncols = rng.randint(1, 3), rng.randint(1, 5)
            m = random_matrix(field, nrows, ncols, rng)
            if mat_rank(m) == 0:
                continue
            assert code_min_distance(m) == brute_min_distance(field, list(m.rows), ncols)


def test_min_distance_packed_matches_generic_enumeration():
    rng = random.Random(29)
    for _ in range(25):
        m = random_matrix(F2, rng.randint(1, 4), rng.randint(1, 7), rng)
        if mat_rank(m) == 0:
            continue
        packed = code_min_distance(m)
        assert packed == brute_min_distance(F2, list(m.rows), m.ncols)


def test_min_distance_budget():
    with pytest.raises(BudgetExceeded):
        code_min_distance(FMatrix.identity(F2, 10), budget=100)


def test_min_distance_of_zero_code_rejected():
    with pytest.raises(ValueError):
        code_min_distance(FMatrix(F2, ((0, 0),), 2))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 256])
def test_packed_support_is_one_byte_per_symbol(q):
    """Every lane layout: GF(2)'s bits, p = 2 extensions with a spare top
    bit, odd-prime lanes and odd-p extensions; no symbols give no bytes."""
    field, rng = make_field(q), random.Random(q)
    for ncols in (0, 1, 2, 7, 40):
        for _ in range(5):
            row = [rng.choice((0, rng.randrange(q))) for _ in range(ncols)]
            packed = field_linalg.PackedRows(field, [row], ncols)
            assert packed.support(packed.multiples(0)[1]) == bytes(int(x != 0) for x in row)


# ---------------------------------------------------------------------------
# matrix text format


def test_matrix_format_round_trip():
    m = pentagon_matrix()
    assert parse_matrix(format_matrix(m)) == m
    f9 = make_field(9)
    m9 = FMatrix(f9, ((0, 8, 3), (1, 2, 7)), 3)
    assert parse_matrix(format_matrix(m9)) == m9


def test_matrix_parse_errors():
    with pytest.raises(MalformedDocument):
        parse_matrix("")
    with pytest.raises(MalformedDocument):
        parse_matrix("2 1\n1 0\n")
    with pytest.raises(MalformedDocument):
        parse_matrix("2 2 2\n1 0\n")
    with pytest.raises(MalformedDocument):
        parse_matrix("2 1 2\n1 5\n")
    with pytest.raises(MalformedDocument):
        parse_matrix("2 1 3\n1 0\n")
