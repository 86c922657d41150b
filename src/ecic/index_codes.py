"""Linear index codes: encoding, decodability margins, error-correction
verification, and the instance parameters alpha (generalized independence
number) and kappa (min-rank).

A length-N linear index code for an instance with n messages is an n x N
matrix L; the sender broadcasts x @ L.  Receiver i can tolerate delta
symbol errors exactly when its margin -- the Hamming distance from row
L[f(i)] to the span of the rows its complement set indexes -- is at least
2*delta + 1.  Verification therefore runs per receiver over those spans;
an independent route checking every confusable vector, on packed lanes
and sharing no code with the margin kernel, is kept alongside for
cross-checking (`verify_ecic_direct`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, CapExceeded, IndexOutOfRange, LengthMismatch
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    Field,
    FMatrix,
    FVector,
    lightest_combination,
    mat_rank,
    solve_linear,
)
from .instance import IcsiInstance, enumerate_error_vectors, in_support_family

DEFAULT_ALPHA_VERTEX_CAP = 24
DEFAULT_MIN_RANK_BUDGET_EXPONENT = 30


@dataclass(frozen=True)
class LinearIndexCode:
    """An n x N matrix over GF(q) bound to an instance."""

    inst: IcsiInstance
    field: Field
    matrix: FMatrix

    def __post_init__(self):
        if self.matrix.field != self.field:
            raise LengthMismatch("matrix field differs from code field")
        if self.matrix.nrows != self.inst.num_messages:
            raise LengthMismatch(
                f"matrix must have one row per message "
                f"({self.inst.num_messages}), got {self.matrix.nrows}"
            )

    @property
    def length(self) -> int:
        return self.matrix.ncols


def encode(code: LinearIndexCode, x: FVector) -> FVector:
    """Broadcast word for message vector x: the product x @ L."""
    return code.matrix.left_mul(x)


def _margin_with_minimizer(
    code: LinearIndexCode, i: int, enum_budget: int
) -> tuple[int, tuple[int, ...]]:
    """Margin of receiver i plus the coefficient tuple (over its complement
    rows, sorted ascending) achieving it.  First minimizer in lexicographic
    coefficient order wins."""
    inst, field, L = code.inst, code.field, code.matrix
    free = sorted(inst.complement(i))
    if field.q ** len(free) > enum_budget:
        raise BudgetExceeded(
            f"receiver {i + 1} span needs {field.q}^{len(free)} combinations"
        )
    return lightest_combination(field, L.rows[inst.demands[i]], [L.rows[j] for j in free])


def receiver_margin(
    code: LinearIndexCode, i: int, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> int:
    """Hamming distance from the demanded row to the span of the rows the
    receiver neither holds nor demands."""
    if not (0 <= i < code.inst.num_receivers):
        raise IndexOutOfRange(f"receiver index {i} out of range")
    return _margin_with_minimizer(code, i, enum_budget)[0]


def _check_delta(delta: int) -> None:
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")


def _margins_with_minimizers(
    code: LinearIndexCode, enum_budget: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(margin, minimizer) per receiver, lazily in receiver order;
    receivers sharing (demand, complement) are computed once."""
    inst = code.inst
    cache: dict[tuple[int, frozenset[int]], tuple[int, tuple[int, ...]]] = {}
    for i in range(inst.num_receivers):
        key = (inst.demands[i], inst.complement(i))
        if key not in cache:
            cache[key] = _margin_with_minimizer(code, i, enum_budget)
        yield cache[key]


def margins(code: LinearIndexCode, enum_budget: int = DEFAULT_ENUM_BUDGET) -> tuple[int, ...]:
    """All receiver margins."""
    return tuple(m for m, _ in _margins_with_minimizers(code, enum_budget))


@dataclass(frozen=True)
class EcicVerdict:
    """Outcome of an error-correction check, with a counterexample on failure.

    `certificate`, when present, is a message-difference vector z with
    weight(z @ L) <= 2*delta.
    """

    ok: bool
    delta: int
    margins: Optional[tuple[int, ...]]
    certificate: Optional[FVector]


def verify_ecic(
    code: LinearIndexCode, delta: int, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> EcicVerdict:
    """Check that every receiver margin is at least 2*delta + 1.

    Every margin is reported.  On failure the certificate is built from the
    first failing receiver's minimizing span combination: z has a 1 at the
    demand and the negated combination coefficients across the complement
    set.
    """
    _check_delta(delta)
    inst, field = code.inst, code.field
    need = 2 * delta + 1
    table = list(_margins_with_minimizers(code, enum_budget))
    vals = tuple(m for m, _ in table)
    for i, (margin, coeffs) in enumerate(table):
        if margin < need:
            z = [0] * inst.num_messages
            z[inst.demands[i]] = 1
            for pos, c in zip(sorted(inst.complement(i)), coeffs):
                z[pos] = field.neg(c)
            return EcicVerdict(False, delta, vals, FVector(field, tuple(z)))
    return EcicVerdict(True, delta, vals, None)


def verify_ecic_direct(
    code: LinearIndexCode, delta: int, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> EcicVerdict:
    """Same verdict as `verify_ecic`, by checking weight(z @ L) >= 2*delta+1
    for every confusable z, with the first failing z as certificate.  Shares
    no code with the margin kernel: each odometer step of the stream adds a
    precomputed change to z @ L, kept as base-p digit lanes of w bits
    (symbol j's from bit j*e*w) and reduced mod p in all lanes at once."""
    _check_delta(delta)
    inst, field, L = code.inst, code.field, code.matrix
    need = 2 * delta + 1
    walks = enumerate_error_vectors(inst, field, enum_budget).receiver_walks()
    q, p, e, n, N = field.q, field.p, field.e, inst.num_messages, L.ncols
    add, mul, neg = field._add, field._mul, field._neg
    w = p.bit_length() + 1  # a lane holds the sum of two digits below p
    width = e * w
    digit_lanes = [sum(x // p**r % p << r * w for r in range(e)) for x in range(q)]
    lane_ones = sum(1 << i * w for i in range(N * e))
    symbol_ones = sum(1 << j * width for j in range(N))
    # `bias` lifts a lane >= p onto its top bit, `sym_bias` a nonzero symbol
    bias, top = lane_ones * ((1 << (w - 1)) - p), lane_ones << (w - 1)
    sym_bias, sym_top = symbol_ones * ((1 << (width - 1)) - 1), symbol_ones << (width - 1)

    def lane_add(a: int, b: int) -> int:
        s = a + b
        return s - (((s + bias) & top) >> (w - 1)) * p

    # multiples[r][a]: row r of L scaled by a, packed
    multiples = [
        [sum(digit_lanes[mul[a][x]] << j * width for j, x in enumerate(row)) for a in range(q)]
        for row in L.rows
    ]
    for positions, steps in walks:
        # changes[t][c] raises digit t from c to c+1, adding (c+1 - c) times
        # its row, and wraps the later digits from q-1 to 0, adding `wrap`
        changes, wrap = [], 0
        for pos in reversed(positions):
            row = multiples[pos]
            changes.insert(0, [lane_add(wrap, row[add[c + 1][neg[c]]]) for c in range(q - 1)])
            wrap = lane_add(wrap, row[neg[q - 1]])
        acc = 0  # so the first step (t = 0, c = 0) lands on the demand row
        changes[0][0] = multiples[positions[0]][1]
        for t, c, key in steps:
            s = acc + changes[t][c]
            acc = s - (((s + bias) & top) >> (w - 1)) * p  # lane_add, inlined
            if ((acc + sym_bias) & sym_top).bit_count() < need:
                z = tuple(key // q ** (n - 1 - j) % q for j in range(n))
                return EcicVerdict(False, delta, None, FVector(field, z))
    return EcicVerdict(True, delta, None, None)


def correction_radius(
    code: LinearIndexCode, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> Optional[int]:
    """Largest delta the code verifies at: (min margin - 1) // 2.

    Returns None when some margin is zero, i.e. the matrix is not an index
    code for the instance at all."""
    return radius_from_margins(margins(code, enum_budget), code.length)


def radius_from_margins(vals: Sequence[int], length: int) -> Optional[int]:
    """`correction_radius` of a code of this length with these margins."""
    if not vals:
        return length  # no receivers: every cap up to the length works
    m = min(vals)
    if m == 0:
        return None
    return (m - 1) // 2


def verify_ic(code: LinearIndexCode) -> bool:
    """Whether every receiver can decode with zero channel errors.

    Decided by column-space membership: for each receiver there must exist
    a vector supported on its side information whose sum with the demand
    unit vector is a combination of L's columns.  (Equivalent to every
    margin being positive; implemented independently of the margin route.)
    """
    inst, field, L = code.inst, code.field, code.matrix
    n = inst.num_messages
    for i in range(inst.num_receivers):
        keep = [r for r in range(n) if r not in inst.side_info[i]]
        sub = L.rows_at(keep)
        target = [0] * len(keep)
        target[keep.index(inst.demands[i])] = 1
        if solve_linear(sub, FVector(field, tuple(target))) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# generalized independence number


def generalized_independence_number(
    inst: IcsiInstance, vertex_cap: int = DEFAULT_ALPHA_VERTEX_CAP
) -> tuple[int, tuple[int, ...]]:
    """Size of a maximum set of messages all of whose nonempty subsets lie
    in the instance's support family, plus the lexicographically smallest
    maximum witness (0-based, sorted).

    Generalized independence is closed downward, so the search extends
    candidates vertex by vertex, testing only the subsets that contain the
    newly added vertex.
    """
    n = inst.num_messages
    if n > vertex_cap:
        raise CapExceeded(f"{n} messages exceed the search cap {vertex_cap}")
    candidates = [v for v in range(n) if in_support_family(inst, {v})]
    best: tuple[int, ...] = ()

    def extend(current: list[int], start: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = tuple(current)
        for idx in range(start, len(candidates)):
            if len(current) + (len(candidates) - idx) <= len(best):
                break
            v = candidates[idx]
            ok = True
            for r in range(len(current) + 1):
                for sub in itertools.combinations(current, r):
                    if not in_support_family(inst, set(sub) | {v}):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                current.append(v)
                extend(current, idx + 1)
                current.pop()

    extend([], 0)
    return len(best), best


# ---------------------------------------------------------------------------
# min-rank


@dataclass(frozen=True)
class MinRankResult:
    """Min-rank value with a rank-achieving witness.

    `witness` has one row per receiver: the demand unit vector plus a
    vector supported on that receiver's side information (`assignment`,
    values aligned to the sorted side-information sets)."""

    kappa: int
    witness: FMatrix
    assignment: tuple[tuple[int, ...], ...]


def min_rank(
    inst: IcsiInstance,
    field: Field,
    budget_exponent: int = DEFAULT_MIN_RANK_BUDGET_EXPONENT,
) -> MinRankResult:
    """Minimum rank over all side-information completions of the demand rows.

    Exhausts target ranks from below: for each target r it runs a
    depth-first search over receivers (sorted by side-information size,
    completions in lexicographic value order, incremental row reduction)
    that prunes any branch whose partial rank exceeds r.  Once the partial
    rank reaches r, the remaining rows are forced into the current span and
    are found by direct linear solves instead of enumeration.  The first
    feasible target is exact.
    """
    m, n = inst.num_receivers, inst.num_messages
    if m == 0:
        return MinRankResult(0, FMatrix(field, (), n), ())
    total_free = sum(len(x) for x in inst.side_info)
    if total_free * math.log2(field.q) > budget_exponent:
        raise BudgetExceeded(
            f"{field.q}^{total_free} completions exceed budget exponent {budget_exponent}"
        )

    order = sorted(range(m), key=lambda i: (len(inst.side_info[i]), i))
    receivers = [(inst.demands[i], sorted(inst.side_info[i])) for i in order]

    upper = mat_rank(
        FMatrix.from_rows(
            field,
            [tuple(1 if j == d else 0 for j in range(n)) for d, _ in receivers],
            n,
        )
    )
    for target in range(1, upper + 1):
        assignment = _min_rank_decision(receivers, field, n, target)
        if assignment is not None:
            by_receiver: dict[int, tuple[int, ...]] = dict(zip(order, assignment))
            rows = []
            final_assignment = []
            for i in range(m):
                vals = by_receiver[i]
                row = [0] * n
                row[inst.demands[i]] = 1
                for pos, val in zip(sorted(inst.side_info[i]), vals):
                    row[pos] = val
                rows.append(tuple(row))
                final_assignment.append(vals)
            witness = FMatrix(field, tuple(rows), n)
            if mat_rank(witness) != target:
                raise AssertionError("min-rank witness does not achieve its rank")
            return MinRankResult(target, witness, tuple(final_assignment))
    raise AssertionError("min-rank search failed to terminate at the trivial bound")


def _solve_in_span(
    basis: list[list[int]], demand: int, side: list[int], field: Field, n: int
) -> tuple[int, ...] | None:
    """Find values on `side` making demand-unit-plus-values lie in the span
    of `basis`.  Returns the first solution in the deterministic order of
    the elimination, or None."""
    constrained = [c for c in range(n) if c not in side]
    rows = [[b[c] for b in basis] for c in constrained]
    rhs = [1 if c == demand else 0 for c in constrained]
    A = FMatrix(field, tuple(tuple(r) for r in rows), len(basis))
    sol = solve_linear(A, FVector(field, tuple(rhs)))
    if sol is None:
        return None
    coeffs = sol[0].entries
    add, mul = field._add, field._mul
    values = []
    for pos in side:
        acc = 0
        for c, b in zip(coeffs, basis):
            if c and b[pos]:
                acc = add[acc][mul[c][b[pos]]]
        values.append(acc)
    return tuple(values)


def _min_rank_decision(
    receivers: list[tuple[int, list[int]]], field: Field, n: int, target: int
) -> list[tuple[int, ...]] | None:
    """Depth-first feasibility search for an assignment of rank <= target."""
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv

    def insert(row: list[int], basis: list[list[int]], pivots: list[int]):
        """Reduce `row` against the basis; on a nonzero residual return the
        extended (still fully reduced) basis, else None."""
        for b, p in zip(basis, pivots):
            c = row[p]
            if c:
                nc = neg[c]
                for j in range(n):
                    if b[j]:
                        row[j] = add[row[j]][mul[nc][b[j]]]
        pivot = next((j for j in range(n) if row[j]), None)
        if pivot is None:
            return None
        c = inv[row[pivot]]
        if c != 1:
            row = [mul[c][x] for x in row]
        new_basis = []
        for b in basis:
            bc = b[pivot]
            if bc:
                nb = neg[bc]
                b = [add[x][mul[nb][y]] for x, y in zip(b, row)]
            new_basis.append(b)
        new_basis.append(row)
        return new_basis, pivots + [pivot]

    def rec(idx: int, basis: list[list[int]], pivots: list[int]) -> list[tuple[int, ...]] | None:
        if idx == len(receivers):
            return []
        demand, side = receivers[idx]

        # in-span completion first (leaves the basis unchanged); a single
        # child suffices since the subtree depends only on the basis
        vals = _solve_in_span(basis, demand, side, field, n)
        if vals is not None:
            rest = rec(idx + 1, basis, pivots)
            if rest is not None:
                return [vals] + rest
        if len(basis) == target:
            return None  # no rank headroom and not in span

        for combo in itertools.product(field.elements(), repeat=len(side)):
            row = [0] * n
            row[demand] = 1
            for pos, val in zip(side, combo):
                row[pos] = val
            extended = insert(row, basis, pivots)
            if extended is None:
                continue  # in-span, already covered
            rest = rec(idx + 1, *extended)
            if rest is not None:
                return [combo] + rest
        return None

    return rec(0, [], [])


@dataclass(frozen=True)
class InstanceParams:
    """Alpha and kappa for one instance over one field, with witnesses."""

    field: Field
    alpha: int
    alpha_witness: tuple[int, ...]
    kappa: int
    kappa_witness: FMatrix


def instance_params(
    inst: IcsiInstance,
    field: Field,
    vertex_cap: int = DEFAULT_ALPHA_VERTEX_CAP,
    budget_exponent: int = DEFAULT_MIN_RANK_BUDGET_EXPONENT,
) -> InstanceParams:
    alpha, witness = generalized_independence_number(inst, vertex_cap)
    mr = min_rank(inst, field, budget_exponent)
    return InstanceParams(field, alpha, witness, mr.kappa, mr.witness)
