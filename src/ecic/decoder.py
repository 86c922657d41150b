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

Making a decoder packs, once, the matrix R whose lane 0 is lambda (zero
when the demand is undetermined) and whose lanes 1..r are the parity
check's rows, column by column in the lanes of `PackedRows`, with every
multiple of each column and of each side row's image.  Reading a word and
its side values is then one lane sum (an XOR in characteristic 2): above
lane 0 lies the packed syndrome, in lane 0 lambda applied to the word less
its side contribution.  The same sum over the unknown rows checks H,
lambda and their packing when the decoder is made.  `decode` validates
its inputs at the boundary and builds no `FVector` except a leader on a
memo miss.  `exhaustive_correctness_check` checks its inputs once per
check and runs the relevant-set test on raw entries.

Found coset leaders are remembered per packed syndrome.  The memo is exact
for every weight cap because the leader search tries weights 0, 1, 2, ...
in a fixed order: a leader of weight w is what every cap >= w returns.  A
miss walks `coset_leader`'s own order through the packed columns, so its
first match is the leader `coset_leader` would return; a walk that comes
up empty goes to `coset_leader`, which raises WeightCapExceeded or
NoSolution itself.  Before decoding, the exhaustive check fills the memo
as a leader table: one pass per decoder over its weight-ordered error
list, keeping the first error seen for each syndrome, so each entry is the
leader the search would return; every entry is checked against the dense
parity check like a searched one.  A received word less its side rows is
a combination of the unknown rows, which the parity check annihilates,
plus the error; so every syndrome the check meets is in the table, and
the check never searches.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import chain
from operator import getitem
from typing import NamedTuple, Optional, Sequence

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
    PackedRows,
    _weight_ordered,
    all_vectors,
    coset_leader,
    parity_check_matrix,
    solve_row_combination,
)
from .index_codes import LinearIndexCode, _check_delta, encode
from .instance import ReceiverFrame, receiver_frame


@dataclass(frozen=True)
class ReceiverDecoder:
    """Precomputed decoding state for one receiver.

    parity: a parity check H of the span of the demanded row and the
    complement rows; side_rows: the rows the receiver can cancel, ordered by
    ascending message index; demand_functional: lambda with
    unknown_rows @ lambda = e_0, or None when the demanded row lies in the
    span of the complement rows (the symbol is then not determined);
    complement_parity: a parity check of the complement rows' span.  The
    rest is derived: with R = (lambda or 0; H) packed in `lanes`,
    columns[j][a] reads a times column j of R and sides[k][c] reads
    -c * (R @ side row k); leaders maps a packed syndrome to (leader, its
    weight, lambda . leader).
    """

    code: LinearIndexCode
    frame: ReceiverFrame
    parity: FMatrix
    side_rows: FMatrix
    unknown_rows: FMatrix  # demanded row first, then sorted complement rows
    demand_functional: Optional[FVector]
    complement_parity: FMatrix
    lanes: PackedRows = dataclasses.field(init=False, compare=False, repr=False)
    columns: tuple = dataclasses.field(init=False, compare=False, repr=False)
    sides: tuple = dataclasses.field(init=False, compare=False, repr=False)
    leaders: dict = dataclasses.field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        """Pack R by column and read every unknown row through the packed
        columns: the demanded row must read 1 in lane 0 and every other
        lane 0 (all zero without lambda), which checks the derivation of H
        and lambda and their packing at once."""
        field, lam, N = self.code.field, self.demand_functional, self.code.length
        mul, neg = field._mul, field._neg
        units = [mul[field.p**b] for b in range(field.e)]  # times x^b, label p^b
        lanes = PackedRows(field, (), 1 + self.parity.nrows)
        R = ((0,) * N if lam is None else lam.entries, *self.parity.rows)
        columns = tuple(zip(*lanes.scaled([lanes.pack_columns(R, m) for m in units])))
        width = lanes._width
        for t, row in enumerate(self.unknown_rows.rows):
            reading = lanes.lane_sum(map(getitem, columns, row))
            if reading >> width:
                raise InternalContradiction("parity check does not annihilate the unknown rows")
            if reading != (lam is not None and t == 0):
                raise InternalContradiction("demand functional does not read the demanded row")
        images = lanes.scaled([  # R @ (x^b * side row), one lane sum of columns each
            [lanes.lane_sum([columns[j][m[x]] for j, x in enumerate(row) if x])
             for row in self.side_rows.rows]
            for m in units
        ])
        sides = tuple(zip(*[images[neg[c]] for c in range(field.q)]))
        for name, value in (("lanes", lanes), ("columns", columns), ("sides", sides)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def sparse_complement_parity(self) -> tuple:
        """The complement parity check's rows as (position, value) pairs of
        their nonzero entries, made on the first relevant-set test."""
        return _sparse(self.complement_parity.rows)


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
    of span(u, C).  Both are checked against the unknown rows when the
    decoder is made."""
    if not (0 <= i < code.inst.num_receivers):
        raise IndexOutOfRange(f"receiver index {i} out of range")
    field, N = code.field, code.length
    add, mul, neg = field._add, field._mul, field._neg
    frame = receiver_frame(code.inst, i)
    complement = sorted(frame.complement)
    unknown_rows = code.matrix.rows_at([frame.demand] + complement)
    complement_parity = parity_check_matrix(code.matrix.rows_at(complement))
    kernel = complement_parity.rows
    u = _sparse(unknown_rows.rows[:1])[0]
    s = [_dot(field, u, h) for h in kernel]
    j0 = next((j for j, v in enumerate(s) if v), None)
    if j0 is None:
        lam, parity = None, kernel
    else:
        h0, inv = kernel[j0], field._inv[s[j0]]
        lam = FVector._unchecked(field, tuple([mul[inv][v] for v in h0]))
        parity = []
        for j, h in enumerate(kernel):
            if j != j0:
                m = mul[neg[mul[s[j]][inv]]]  # h_j - (s_j / s_j0) h_j0
                parity.append(tuple([add[a][m[b]] for a, b in zip(h, h0)]))
    return ReceiverDecoder(
        code, frame, FMatrix._unchecked(field, tuple(parity), N),
        code.matrix.rows_at(sorted(frame.side_info)), unknown_rows,
        demand_functional=lam, complement_parity=complement_parity,
    )


class DecodeOutcome(NamedTuple):
    recovered: int
    error_estimate: FVector
    estimate_weight: int
    success: Optional[bool]  # None when ground truth was not supplied


# DecodeOutcome from one tuple of its fields: the class's generated
# Python-level __new__ costs a sixth of a decode
_outcome = functools.partial(tuple.__new__, DecodeOutcome)


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


def _remember(dec: ReceiverDecoder, key: int, leader: FVector) -> tuple:
    """Check that leader has the packed syndrome key, then memoise (leader,
    weight, lambda . leader) under it."""
    if dec.parity.mul_col(leader).entries != dec.lanes.unpack(key, dec.parity.nrows):
        raise InternalContradiction("coset leader does not reproduce the syndrome")
    lam = dec.demand_functional
    entry = (leader, leader.weight(), 0 if lam is None else leader.dot(lam))
    dec.leaders[key] = entry
    return entry


def _search(dec: ReceiverDecoder, key: int, weight_cap: int) -> tuple:
    """Memoise and return the leader of packed syndrome key under
    weight_cap: the first vector of `coset_leader`'s weight-ordered walk
    whose packed reading has these syndrome lanes, so the one it would
    return.  When none does, `coset_leader` walks again and decides
    between WeightCapExceeded and NoSolution."""
    field, lanes, columns = dec.code.field, dec.lanes, dec.columns
    width = lanes._width
    for e in _weight_ordered(field.q, len(columns), weight_cap):
        if lanes.lane_sum([columns[j][v] for j, v in enumerate(e) if v]) >> width == key:
            leader = FVector._unchecked(field, e)
            break
    else:
        syndrome = FVector._unchecked(field, lanes.unpack(key, dec.parity.nrows))
        coset_leader(dec.parity, syndrome, weight_cap)  # raises, as its walk found nothing
        raise InternalContradiction("the packed walk missed a coset leader")
    return _remember(dec, key, leader)


def decode(
    dec: ReceiverDecoder,
    received: FVector,
    side_values: Sequence[int],
    weight_cap: int,
    truth: Optional[int] = None,
) -> DecodeOutcome:
    """Syndrome-decode one received word.

    Read the word less its side contribution through the packed columns:
    the syndrome, and lambda applied to it.  Take the minimum-weight coset
    solution under `weight_cap` and subtract lambda applied to it.  Raises
    WeightCapExceeded when even the lightest coset member is heavier than
    the cap (more channel errors than allowed for).
    """
    word, columns, sides = received.entries, dec.columns, dec.sides
    if len(word) != len(columns):
        raise LengthMismatch("received word length mismatch")
    if len(side_values) != len(sides):
        raise LengthMismatch("side-information values must match the side set size")
    field = dec.code.field
    if received.field is not field and received.field != field:
        raise LengthMismatch("vector field/length mismatch")
    q = field.q
    for c in side_values:  # a negative c would index sides from the end
        if not 0 <= c < q:
            raise ValueError("vector entry outside field range")
    lanes = dec.lanes
    acc = lanes.lane_sum(chain(map(getitem, columns, word), map(getitem, sides, side_values)))
    width = lanes._width
    key = acc >> width
    entry = dec.leaders.get(key)
    if entry is None or entry[1] > weight_cap:  # not decided at this cap: search
        entry = _search(dec, key, weight_cap)
    estimate, weight, estimate_value = entry
    if dec.demand_functional is None:
        raise InternalContradiction("demanded symbol is not uniquely determined")
    value = lanes._labels[acc & ((1 << width) - 1)]
    recovered = field._add[value][field._neg[estimate_value]]
    return _outcome((recovered, estimate, weight, None if truth is None else recovered == truth))


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
    return cand == ref or _relevant(dec, cand, ref)


def _relevant(dec: ReceiverDecoder, cand: tuple[int, ...], ref: tuple[int, ...]) -> bool:
    """`in_relevant_error_set` on entry tuples already checked: the
    difference has a zero complement syndrome.  Callers test cand == ref
    first, as a zero difference needs no product."""
    field = dec.code.field
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
    # "wrong-output", "estimate-outside-relevant-set", or "undetermined-demand"
    # (the receiver's demanded row lies in the span of its complement rows,
    # so no decoder reads it; outcome is then None)
    kind: str
    x: FVector
    error: FVector
    receiver: int
    outcome: Optional[DecodeOutcome]


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
    the error estimate always lands in the true error's relevant set.  A
    receiver whose demanded symbol no decoder can read fails at its first
    combination, x = 0 and error 0, before it is decoded."""
    _check_delta(delta)
    inst, field = code.inst, code.field
    n, N, m = inst.num_messages, code.length, inst.num_receivers
    total = field.q**n * sphere_volume(field.q, N, delta) * m
    if total > enum_budget:
        raise BudgetExceeded(f"{total} decodes exceed enumeration budget {enum_budget}")
    decoders = [build_receiver_decoder(code, i) for i in range(m)]
    errors = [(e, FVector._unchecked(field, e)) for e in _weight_ordered(field.q, N, delta)]
    supports = [[(j, v) for j, v in enumerate(e) if v] for e, _ in errors]
    for dec in decoders:  # the leader table: the first error seen per syndrome
        columns, lane_sum, width = dec.columns, dec.lanes.lane_sum, dec.lanes._width
        for (e, err), support in zip(errors, supports):
            key = lane_sum([columns[j][v] for j, v in support]) >> width
            if key not in dec.leaders:
                _remember(dec, key, err)
    determined = next((i for i, dec in enumerate(decoders) if dec.demand_functional is None), m)
    receivers = list(enumerate(decoders[:determined]))
    sides = [sorted(inst.side_info[i]) for i in range(m)]
    add = field._add
    decodes = 0
    for x in all_vectors(field, n):
        plus = [add[a] for a in encode(code, x).entries]  # plus[j][b] = y_j + b
        side_values = [[x.entries[j] for j in side] for side in sides]
        truths = [x.entries[d] for d in inst.demands]
        for e, err in errors:
            received = FVector._unchecked(field, tuple(map(getitem, plus, e)))
            for i, dec in receivers:
                outcome = decode(dec, received, side_values[i], delta, truths[i])
                decodes += 1
                if not outcome.success:
                    return CheckReport(
                        False, decodes, Counterexample("wrong-output", x, err, i, outcome)
                    )
                estimate = outcome.error_estimate.entries
                if estimate != e and not _relevant(dec, estimate, e):
                    return CheckReport(
                        False,
                        decodes,
                        Counterexample("estimate-outside-relevant-set", x, err, i, outcome),
                    )
            if determined < m:
                return CheckReport(
                    False, decodes, Counterexample("undetermined-demand", x, err, determined, None)
                )
    return CheckReport(True, decodes, None)
