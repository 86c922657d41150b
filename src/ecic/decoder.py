"""Syndrome decoding for linear index codes, with exhaustive checking.

Each receiver precomputes, once, a parity check of the span of the rows
it cannot cancel (its demanded row plus the rows it neither holds nor
demands), a parity check of the complement rows alone, and the demand
functional: a column vector lambda with unknown_rows @ lambda = e_0,
which reads the demanded symbol off any word of the span.  All three come
from one elimination, of the complement rows (see
`build_receiver_decoder`).  Decoding subtracts the known side-information
contribution, reads off the syndrome, takes a minimum-weight error
estimate from the coset, and applies lambda to what is left.  Any basis of
the span's dual cuts out the same coset, so the leader found does not
depend on which parity check is kept.  The estimate need not equal the
true error; it only has to land in the true error's translate of the
unwanted-row span, and then the demanded symbol comes out right whenever
the true error weight is within the code's radius.

`build_receiver_decoder` also stores, once, the sparse form of every row
the decoder multiplies by: the (position, value) pairs of the nonzero
entries of the parity check, the complement parity check, the side rows
and the demand functional.  `decode` and
`in_relevant_error_set` validate their vectors at the boundary and then
work on plain tuples and lists through the field's tables; no `FVector`
is built per call except the syndrome on a memo miss.

Found coset leaders are remembered per syndrome.  The memo is exact for
every weight cap because the leader search tries weights 0, 1, 2, ... in a
fixed order: a leader of weight w is what every cap >= w returns.  A
smaller cap searches again, and `coset_leader` raises WeightCapExceeded
itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from .bounds import sphere_volume
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InternalContradiction,
    LengthMismatch,
    WeightCapExceeded,
)
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    Field,
    FMatrix,
    FVector,
    all_vectors,
    coset_leader,
    parity_check_matrix,
    solve_row_combination,
    vectors_of_weight_at_most,
)
from .index_codes import LinearIndexCode, _check_delta, encode
from .instance import ReceiverFrame, receiver_frame


@dataclass(frozen=True)
class ReceiverDecoder:
    """Precomputed decoding state for one receiver.

    parity: a parity check of the span of the demanded row and the
    complement rows; side_rows: the rows the receiver can cancel, ordered by
    ascending message index; demand_functional: lambda with
    unknown_rows @ lambda = e_0, or None when the demanded row lies in the
    span of the complement rows (the symbol is then not determined);
    complement_parity: a parity check of the complement rows' span; the
    sparse_* fields: the same rows as (position, value) pairs of their
    nonzero entries; leaders: the coset-leader memo, syndrome ->
    (leader, its weight, lambda . leader).
    """

    code: LinearIndexCode
    frame: ReceiverFrame
    parity: FMatrix
    side_rows: FMatrix
    unknown_rows: FMatrix  # demanded row first, then sorted complement rows
    demand_functional: Optional[FVector]
    complement_parity: FMatrix
    sparse_parity: tuple = dataclasses.field(compare=False, repr=False)
    sparse_complement_parity: tuple = dataclasses.field(compare=False, repr=False)
    sparse_side_rows: tuple = dataclasses.field(compare=False, repr=False)
    sparse_demand: Optional[tuple] = dataclasses.field(compare=False, repr=False)
    leaders: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)


def _sparse(rows) -> tuple:
    """Each row as the (position, value) pairs of its nonzero entries."""
    return tuple([tuple([(j, v) for j, v in enumerate(row) if v]) for row in rows])


def _dot(field: Field, sparse_row: tuple, entries: Sequence[int]) -> int:
    add, mul = field._add, field._mul
    acc = 0
    for j, v in sparse_row:
        acc = add[acc][mul[v][entries[j]]]
    return acc


def build_receiver_decoder(code: LinearIndexCode, i: int) -> ReceiverDecoder:
    """One elimination, of the complement rows C, gives everything: its
    kernel basis h_1..h_r is the complement parity check, and s_j = u . h_j
    for the demanded row u decides the rest.  All s_j = 0 puts u in span(C):
    no functional, and the parity check of span(u, C) is the kernel itself.
    Otherwise, with j0 the first j where s_j != 0, lambda = h_j0 / s_j0 reads
    u's coefficient, and h_j - (s_j / s_j0) h_j0 for j != j0 span the dual
    of span(u, C).  Both are checked against the unknown rows."""
    if not (0 <= i < code.inst.num_receivers):
        raise IndexOutOfRange(f"receiver index {i} out of range")
    field, N = code.field, code.length
    add, mul, neg = field._add, field._mul, field._neg
    frame = receiver_frame(code.inst, i)
    complement = sorted(frame.complement)
    unknown_rows = code.matrix.rows_at([frame.demand] + complement)
    unknown = unknown_rows.rows
    complement_parity = parity_check_matrix(code.matrix.rows_at(complement))
    kernel = complement_parity.rows
    sparse_kernel = _sparse(kernel)
    s = [_dot(field, h, unknown[0]) for h in sparse_kernel]
    j0 = next((j for j, v in enumerate(s) if v), None)
    if j0 is None:
        lam, parity, sparse_parity = None, kernel, sparse_kernel
    else:
        h0, inv = kernel[j0], field._inv[s[j0]]
        lam = tuple([mul[inv][v] for v in h0])
        parity = []
        for j, h in enumerate(kernel):
            if j != j0:
                m = mul[neg[mul[s[j]][inv]]]  # h_j - (s_j / s_j0) h_j0
                parity.append(tuple([add[a][m[b]] for a, b in zip(h, h0)]))
        sparse_parity = _sparse(parity)
    for row in unknown:
        if any(_dot(field, h, row) for h in sparse_parity):
            raise InternalContradiction("parity check does not annihilate the unknown rows")
    sparse_demand = None if lam is None else _sparse([lam])[0]
    if lam is not None:
        if [_dot(field, sparse_demand, row) for row in unknown] != [1] + [0] * len(complement):
            raise InternalContradiction("demand functional does not read the demanded row")
    side_rows = code.matrix.rows_at(sorted(frame.side_info))
    return ReceiverDecoder(
        code, frame, FMatrix._unchecked(field, tuple(parity), N), side_rows, unknown_rows,
        demand_functional=None if lam is None else FVector(field, lam),
        complement_parity=complement_parity,
        sparse_parity=sparse_parity,
        sparse_complement_parity=sparse_kernel,
        sparse_side_rows=_sparse(side_rows.rows),
        sparse_demand=sparse_demand,
    )


@dataclass(frozen=True)
class DecodeOutcome:
    recovered: int
    error_estimate: FVector
    estimate_weight: int
    success: Optional[bool]  # None when ground truth was not supplied


def _side_contribution(dec: ReceiverDecoder, side_values: Sequence[int]) -> FVector:
    field = dec.code.field
    if len(side_values) != dec.side_rows.nrows:
        raise LengthMismatch("side-information values must match the side set size")
    return dec.side_rows.left_mul(FVector(field, tuple(side_values)))


def recover_demand(
    dec: ReceiverDecoder, received: FVector, side_values: Sequence[int], error_estimate: FVector
) -> int:
    """Final solving step alone: given any error estimate in the right
    coset, subtract it and the side contribution and solve for the demanded
    symbol.  The demanded coordinate of the solution is required to be
    unique (its alternatives differ only across the complement rows).
    `decode` reads the same symbol off the precomputed demand functional;
    this full solve is kept as the independent route."""
    adjusted = received.sub(error_estimate).sub(_side_contribution(dec, side_values))
    sol = solve_row_combination(dec.unknown_rows, adjusted)
    if sol is None:
        raise InternalContradiction("residual left the receiver's code space")
    particular, kernel = sol
    if any(v.entries[0] for v in kernel):
        raise InternalContradiction("demanded symbol is not uniquely determined")
    return particular.entries[0]


def _memo_coset_leader(
    dec: ReceiverDecoder, syndrome: tuple[int, ...], weight_cap: int
) -> tuple[FVector, int, int]:
    """(leader, weight, lambda . leader) for the syndrome entries, from the
    memo when it decides this cap (see the module docstring), else from
    `coset_leader`, whose answer is checked and remembered."""
    entry = dec.leaders.get(syndrome)
    if entry is not None and entry[1] <= weight_cap:
        return entry
    target = FVector(dec.code.field, syndrome)
    estimate = coset_leader(dec.parity, target, weight_cap)
    if not dec.parity.mul_col(estimate).sub(target).is_zero():
        raise InternalContradiction("coset leader does not reproduce the syndrome")
    lam = dec.demand_functional
    entry = (estimate, estimate.weight(), 0 if lam is None else estimate.dot(lam))
    dec.leaders[syndrome] = entry
    return entry


def decode(
    dec: ReceiverDecoder,
    received: FVector,
    side_values: Sequence[int],
    weight_cap: int,
    truth: Optional[int] = None,
) -> DecodeOutcome:
    """Syndrome-decode one received word.

    Subtract the side contribution, compute the parity syndrome, take the
    minimum-weight coset solution under `weight_cap`, then apply the demand
    functional to the corrected word.  Raises WeightCapExceeded when even
    the lightest coset member is heavier than the cap (more channel errors
    than allowed for).
    """
    field = dec.code.field
    word = received.entries
    if len(word) != dec.code.length:
        raise LengthMismatch("received word length mismatch")
    if len(side_values) != len(dec.sparse_side_rows):
        raise LengthMismatch("side-information values must match the side set size")
    q = field.q
    for c in side_values:
        if not 0 <= c < q:
            raise ValueError("vector entry outside field range")
    if received.field != field:
        raise LengthMismatch("vector field/length mismatch")
    add, mul = field._add, field._mul
    adjusted = list(word)
    for c, row in zip(side_values, dec.sparse_side_rows):
        if c:
            mc = mul[field._neg[c]]  # subtracts c * row
            for j, v in row:
                adjusted[j] = add[adjusted[j]][mc[v]]
    syndrome = []
    for row in dec.sparse_parity:
        acc = 0
        for j, v in row:
            acc = add[acc][mul[v][adjusted[j]]]
        syndrome.append(acc)
    estimate, weight, estimate_value = _memo_coset_leader(dec, tuple(syndrome), weight_cap)
    if dec.sparse_demand is None:
        raise InternalContradiction("demanded symbol is not uniquely determined")
    value = 0
    for j, v in dec.sparse_demand:
        value = add[value][mul[v][adjusted[j]]]
    recovered = add[value][field._neg[estimate_value]]
    return DecodeOutcome(
        recovered=recovered,
        error_estimate=estimate,
        estimate_weight=weight,
        success=None if truth is None else recovered == truth,
    )


def in_relevant_error_set(
    dec: ReceiverDecoder, candidate: FVector, reference_error: FVector
) -> bool:
    """Whether candidate differs from the reference error only by a
    combination of the receiver's complement rows."""
    field = dec.code.field
    cand, ref = candidate.entries, reference_error.entries
    if len(cand) != len(ref) or candidate.field != reference_error.field:
        raise LengthMismatch("vector field/length mismatch")
    if len(cand) != dec.code.length or candidate.field != field:
        raise LengthMismatch(f"expected column vector of length {dec.code.length}")
    if cand == ref:  # a zero difference has a zero syndrome
        return True
    add, mul, neg = field._add, field._mul, field._neg
    for row in dec.sparse_complement_parity:
        acc = 0
        for j, v in row:
            acc = add[acc][mul[v][add[cand[j]][neg[ref[j]]]]]
        if acc:
            return False
    return True


def simulate_round(
    code: LinearIndexCode,
    x: FVector,
    error: FVector | Sequence[FVector],
    delta: int,
    weight_cap: Optional[int] = None,
) -> list[DecodeOutcome]:
    """Broadcast x, corrupt it, and decode at every receiver.

    `error` is either one vector applied to all receivers or a per-receiver
    sequence.  The weight cap defaults to delta; success flags compare
    against the true demanded symbols.
    """
    _check_delta(delta)
    decoders = [build_receiver_decoder(code, i) for i in range(code.inst.num_receivers)]
    return _decode_round(code, decoders, x, error, delta if weight_cap is None else weight_cap)


def _decode_round(
    code: LinearIndexCode,
    decoders: Sequence[ReceiverDecoder],
    x: FVector,
    error: FVector | Sequence[FVector],
    weight_cap: int,
) -> list[DecodeOutcome]:
    """One `simulate_round` on decoders built once per code (one per
    receiver, in order), so many rounds share their precomputation and
    leader memos."""
    inst = code.inst
    y = encode(code, x)
    if isinstance(error, FVector):
        errors = [error] * inst.num_receivers
    else:
        errors = list(error)
        if len(errors) != inst.num_receivers:
            raise LengthMismatch("need one error vector per receiver")
    outcomes = []
    for i, dec in enumerate(decoders):
        side = [x.entries[j] for j in sorted(inst.side_info[i])]
        outcomes.append(
            decode(dec, y.add(errors[i]), side, weight_cap, truth=x.entries[inst.demands[i]])
        )
    return outcomes


@dataclass(frozen=True)
class Counterexample:
    kind: str  # "wrong-output" or "estimate-outside-relevant-set"
    x: FVector
    error: FVector
    receiver: int
    outcome: DecodeOutcome


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    decodes: int
    counterexample: Optional[Counterexample]


def exhaustive_correctness_check(
    code: LinearIndexCode, delta: int, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> CheckReport:
    """Decode every (message vector, error of weight <= delta, receiver)
    combination and confirm the demanded symbol always comes back right and
    the error estimate always lands in the true error's relevant set."""
    _check_delta(delta)
    inst, field = code.inst, code.field
    n, N, m = inst.num_messages, code.length, inst.num_receivers
    total = field.q**n * sphere_volume(field.q, N, delta) * m
    if total > enum_budget:
        raise BudgetExceeded(f"{total} decodes exceed enumeration budget {enum_budget}")
    decoders = [build_receiver_decoder(code, i) for i in range(m)]
    sides = [sorted(inst.side_info[i]) for i in range(m)]
    decodes = 0
    for x in all_vectors(field, n):
        y = encode(code, x)
        side_values = [[x.entries[j] for j in side] for side in sides]
        truths = [x.entries[d] for d in inst.demands]
        for err in vectors_of_weight_at_most(field, N, delta):
            received = y.add(err)
            for i in range(m):
                outcome = decode(decoders[i], received, side_values[i], delta, truth=truths[i])
                decodes += 1
                if not outcome.success:
                    return CheckReport(
                        False, decodes, Counterexample("wrong-output", x, err, i, outcome)
                    )
                if not in_relevant_error_set(decoders[i], outcome.error_estimate, err):
                    return CheckReport(
                        False,
                        decodes,
                        Counterexample("estimate-outside-relevant-set", x, err, i, outcome),
                    )
    return CheckReport(True, decodes, None)
