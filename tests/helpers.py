"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own elimination and
search kernels: spans and duals are enumerated element by element so that
the fast paths have something independent to be checked against.
"""

from __future__ import annotations

import itertools
import random

from ecic import FMatrix, LinearIndexCode, make_field, pentagon, example1

F2 = make_field(2)
F3 = make_field(3)


def example1_matrix() -> FMatrix:
    return FMatrix(F2, ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)), 4)


def example1_code() -> LinearIndexCode:
    return LinearIndexCode(example1(), F2, example1_matrix())


def pentagon_matrix() -> FMatrix:
    return FMatrix(
        F2,
        (
            (1, 1, 1, 1, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 1, 0, 1, 1, 0),
            (1, 1, 0, 0, 0, 1, 1, 1, 0),
            (0, 1, 1, 0, 0, 1, 0, 1, 1),
            (1, 0, 1, 0, 1, 0, 0, 1, 1),
        ),
        9,
    )


def pentagon_code() -> LinearIndexCode:
    return LinearIndexCode(pentagon(), F2, pentagon_matrix())


# ---------------------------------------------------------------------------
# oracles


def span_elements(field, rows):
    """Every vector in the span of `rows`, by plain coefficient enumeration."""
    n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        acc = [0] * n
        for c, row in zip(coeffs, rows):
            for j in range(n):
                acc[j] = field.add(acc[j], field.mul(c, row[j]))
        out.add(tuple(acc))
    return out


def brute_rank(field, rows, n):
    """log_q of the span size."""
    size = len(span_elements(field, rows)) if rows else 1
    r = 0
    while field.q**r < size:
        r += 1
    assert field.q**r == size
    return r


def brute_min_rank(inst, field):
    """Min-rank by enumerating every completion outright: each receiver's
    demand unit row plus every assignment of values to its side
    information, the minimum rank over all of them."""
    from ecic import mat_rank

    best = None
    spaces = [sorted(inst.side_info[i]) for i in range(inst.num_receivers)]
    for choice in itertools.product(
        *(itertools.product(field.elements(), repeat=len(s)) for s in spaces)
    ):
        rows = []
        for i, vals in enumerate(choice):
            row = [0] * inst.num_messages
            row[inst.demands[i]] = 1
            for pos, v in zip(spaces[i], vals):
                row[pos] = v
            rows.append(tuple(row))
        r = mat_rank(FMatrix(field, tuple(rows), inst.num_messages))
        best = r if best is None else min(best, r)
    return best


def brute_dual(field, rows, n):
    """All vectors orthogonal to every row, by full enumeration of F_q^n."""
    out = set()
    for cand in itertools.product(field.elements(), repeat=n):
        if all(
            not _dot(field, row, cand)
            for row in rows
        ):
            out.add(cand)
    return out


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def brute_min_distance(field, rows, n):
    """Minimum weight over the nonzero span, from the span oracle."""
    weights = [
        sum(1 for x in vec if x)
        for vec in span_elements(field, rows)
        if any(vec)
    ]
    return min(weights)


def brute_coset_min_weight(field, h_rows, n, syndrome):
    """Minimum weight solution of H e^T = s by enumerating all of F_q^n."""
    best = None
    for cand in itertools.product(field.elements(), repeat=n):
        if tuple(_dot(field, row, cand) for row in h_rows) == syndrome:
            w = sum(1 for x in cand if x)
            best = w if best is None else min(best, w)
    return best


def random_matrix(field, nrows, ncols, rng: random.Random) -> FMatrix:
    rows = tuple(
        tuple(rng.randrange(field.q) for _ in range(ncols)) for _ in range(nrows)
    )
    return FMatrix(field, rows, ncols)


def random_full_rank_matrix(field, nrows, ncols, rng: random.Random) -> FMatrix:
    from ecic import mat_rank

    while True:
        m = random_matrix(field, nrows, ncols, rng)
        if mat_rank(m) == nrows:
            return m


def random_instance(rng: random.Random, max_receivers=5, max_messages=5):
    """A random valid instance with at least one receiver."""
    from ecic import IcsiInstance

    n = rng.randint(1, max_messages)
    m = rng.randint(1, max_receivers)
    demands = tuple(rng.randrange(n) for _ in range(m))
    side = []
    for i in range(m):
        pool = [j for j in range(n) if j != demands[i]]
        k = rng.randint(0, len(pool))
        side.append(frozenset(rng.sample(pool, k)))
    return IcsiInstance(m, n, demands, tuple(side))


def upward_scan(inst, field, delta):
    """(optimum, witness) from the exhaustive scan upward from length 0:
    the first length `exists_ecic` decides feasible.  The reference the
    top-down optimal-length search is checked against."""
    from ecic import exists_ecic

    length = 0
    while True:
        res = exists_ecic(inst, field, delta, length)
        if res.feasible:
            return length, res.witness
        length += 1


def direct_reference(code, delta):
    """The error-correction verdict by definition, rebuilt per vector: every
    confusable z in stream order (receiver by receiver, the demand value,
    then the sorted complement values, the last fastest), with
    weight(z @ L) from `encode`.  Certificate: the first z of weight
    <= 2*delta.  The enumeration is spelled out with itertools.product so
    that it shares no code with the stream's odometer."""
    from ecic import EcicVerdict, FVector, encode

    inst, field = code.inst, code.field
    for i in range(inst.num_receivers):
        free = sorted(inst.complement(i))
        for dval in field.nonzero():
            for tail in itertools.product(field.elements(), repeat=len(free)):
                entries = [0] * inst.num_messages
                entries[inst.demands[i]] = dval
                for pos, val in zip(free, tail):
                    entries[pos] = val
                z = FVector(field, tuple(entries))
                if encode(code, z).weight() < 2 * delta + 1:
                    return EcicVerdict(False, delta, None, z)
    return EcicVerdict(True, delta, None, None)


def reference_decoder(code, i):
    """A receiver decoder built by four separate eliminations: a row basis of
    the demanded and complement rows, the parity check of that basis, the
    demand functional from `solve_linear`, and a parity check of the
    complement rows alone.  The reference the one-elimination
    `build_receiver_decoder` is checked against; it decodes with the same
    `decode`, so outcomes can be compared call by call."""
    from ecic import FVector, ReceiverDecoder, parity_check_matrix
    from ecic.decoder import _sparse
    from ecic.errors import InternalContradiction
    from ecic.field_linalg import row_basis, solve_linear
    from ecic.instance import receiver_frame

    frame = receiver_frame(code.inst, i)
    complement = sorted(frame.complement)
    unknown_rows = code.matrix.rows_at([frame.demand] + complement)
    basis = row_basis(unknown_rows)
    parity = parity_check_matrix(basis)
    for r in range(basis.nrows):
        if not parity.mul_col(basis.row(r)).is_zero():
            raise InternalContradiction("parity check does not annihilate the code space")
    side_rows = code.matrix.rows_at(sorted(frame.side_info))
    solution = solve_linear(unknown_rows, FVector.unit(code.field, unknown_rows.nrows, 0))
    lam = None if solution is None else solution[0]
    complement_parity = parity_check_matrix(code.matrix.rows_at(complement))
    return ReceiverDecoder(
        code, frame, parity, side_rows, unknown_rows,
        demand_functional=lam,
        complement_parity=complement_parity,
        sparse_parity=_sparse(parity.rows),
        sparse_complement_parity=_sparse(complement_parity.rows),
        sparse_side_rows=_sparse(side_rows.rows),
        sparse_demand=None if lam is None else _sparse([lam.entries])[0],
    )
