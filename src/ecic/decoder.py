"""Syndrome decoding for linear index codes, with exhaustive checking.

A code is read once, from one elimination of [L | I_n] (`code_reading`).
A word's reading has n message lanes, its coefficients over L's rows when
it lies in L's row space (unique modulo a basis Lambda of L's left
kernel), and N - r parity lanes, the whole code's parity check.  It is
packed by column in the lanes of `PackedRows`, with every multiple of each
column and of each row's reading, so reading a word and its side values is
one lane sum (an XOR in characteristic 2).

Each receiver's decoder is a view on that reading (`build_receiver_decoder`).
A received word less its side rows is a combination of the unknown rows
(the demanded row and the complement rows) plus the error.  Its syndrome is
the parity lanes and the side set's message lanes, these reduced modulo
Lambda's projection on the side set (at full row rank, a mask alone; else
the linear reduction is applied once to the receiver's packed terms); the
demand lane reads the demanded symbol off any word of the unknown rows'
span.  Decoding takes a minimum-weight error estimate from the coset and
subtracts its demand reading.  Any basis of the span's dual cuts out the
same coset, so the leader does not depend on the lanes that read it.  The
estimate need not equal the true error; it only has to land in the true
error's translate of the unwanted-row span, and then the demanded symbol
comes out right whenever the true error weight is within the code's radius.

Found coset leaders are remembered per packed syndrome, each with the
demand lane of its own reading (the value `decode` subtracts).  The memo
is exact for every weight cap because the leader search tries weights 0,
1, 2, ... in a fixed order: a leader of weight w is what every cap >= w
returns.  A miss walks `coset_leader`'s own order through the packed
columns, so its first match is the leader `coset_leader` would return; a
walk that comes up empty goes to `coset_leader`, which raises
WeightCapExceeded or NoSolution itself.

The exhaustive check reads by linearity.  Before decoding it reads each
error of its weight-ordered list once per code and once more per view
below full rank (the reduction), and fills the memo as a leader table
with the first error seen for each syndrome (the leader the search would
return, checked like a searched one), so every syndrome the check meets
is in the table and the check never searches.  Per message vector x and
receiver it reads y = xL with x's side values once; y + e then reads as
that plus e's reading, one lane add handed to `decode` per (x, e,
receiver) in place of a lane sum over the word.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import chain
from operator import getitem
from typing import NamedTuple, Optional, Sequence

from .bounds import sphere_volume
from .errors import BudgetExceeded, InternalContradiction, LengthMismatch
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    FMatrix,
    FVector,
    PackedRows,
    _kernel_rows,
    _rref,
    _weight_ordered,
    all_vectors,
    coset_leader,
    parity_check_matrix,
)
# no longer called here, but bench/tracing.py wraps it under this module's name
from .field_linalg import solve_row_combination  # noqa: F401
from .index_codes import LinearIndexCode, _check_delta, encode
from .instance import ReceiverFrame, receiver_frame


class CodeReading(NamedTuple):
    """A code read once (`code_reading`): lanes 0..n-1 are message lanes,
    the rest parity lanes; matrix[l] is what lane l reads, columns[j][a] the
    packed reading of a * e_j, side_images[k][c] that of -c * (row k of L),
    and left_kernel a reduced echelon basis of L's left kernel."""

    lanes: PackedRows
    matrix: tuple
    columns: tuple
    side_images: tuple
    left_kernel: tuple


def _negated_multiples(lanes: PackedRows, entries) -> list[int]:
    """At index a, -a times the vector with x in lane l per (l, x), packed."""
    field, digits, width, entries = lanes.field, lanes._digits, lanes._width, list(entries)
    negated = [field._mul[field._neg[a]] for a in range(field.q)]
    return [sum(digits[m[x]] << lane * width for lane, x in entries) for m in negated]


def _reduce(lanes: PackedRows, acc: int, reduction: tuple) -> int:
    """acc less v * mu for each (pivot, multiples of -mu) of `reduction`, v
    acc's pivot lane: one pass, as each mu is zero on the others' pivots."""
    labels, width, mask = lanes._labels, lanes._width, (1 << lanes._width) - 1
    return lanes.lane_sum([acc, *[t[labels[acc >> p * width & mask]] for p, t in reduction]])


def code_reading(code: LinearIndexCode) -> CodeReading:
    """One elimination of [L | I_n]: its rows with pivots q_t among L's N
    columns are the row-space basis and its row-operation record T, the
    others (0 | Lambda).  Message lane m reads b_m(w) = sum_t T[t][m]
    w_{q_t}; the parity lanes are the row space's standard kernel basis.
    Checked when made: row k of L reads e_k modulo Lambda."""
    field, L, n, N = code.field, code.matrix, code.inst.num_messages, code.length
    augmented = [(*row, *[int(k == m) for k in range(n)]) for m, row in enumerate(L.rows)]
    reduced, pivots = _rref(augmented, N + n, field)
    r = sum(p < N for p in pivots)
    basis = dict(zip(pivots[:r], reduced))
    M = [[basis[j][N + m] if j in basis else 0 for j in range(N)] for m in range(n)]
    M += _kernel_rows(reduced, pivots[:r], N, field)
    lanes, neg, mul = PackedRows(field, (), len(M)), field._neg, field._mul
    units = [mul[field.p**b] for b in range(field.e)]  # times x^b, label p^b
    columns = tuple(zip(*lanes.scaled([lanes.pack_columns(M, m) for m in units])))
    images = lanes.scaled([  # each row of L read at x^b: one lane sum of columns
        [lanes.lane_sum([columns[j][m[x]] for j, x in enumerate(row) if x]) for row in L.rows]
        for m in units
    ])
    side_images = tuple(zip(*[images[neg[c]] for c in range(field.q)]))
    left_kernel = tuple(row[N:] for row in reduced[r:])
    reduction = [(p - N, _negated_multiples(lanes, enumerate(lam)))
                 for lam, p in zip(left_kernel, pivots[r:])]
    for k, row in enumerate(side_images):
        less_e_k = lanes.lane_sum([row[neg[1]], lanes._digits[neg[1]] << k * lanes._width])
        if _reduce(lanes, less_e_k, reduction):
            raise InternalContradiction(f"row {k} does not read e_{k} modulo the left kernel")
    return CodeReading(lanes, tuple(map(tuple, M)), columns, side_images, left_kernel)


def _on_first_use(make):
    """A property made on first use and kept in the decoder's `dense` dict:
    adding it to the instance's own dict would slow every field read."""
    def get(dec):
        if make.__name__ not in dec.dense:
            dec.dense[make.__name__] = make(dec)
        return dec.dense[make.__name__]
    return property(get, doc=make.__doc__)


@dataclass(frozen=True, eq=False)
class ReceiverDecoder:
    """One receiver's view on its code's reading.  A word's syndrome is its
    reading under `mask`, side lanes reduced by `reduction` (empty at full row
    rank, else folded into `columns` and `sides`); `syndrome_lanes` are those
    it leaves free.  The demand lane, read when `determined`, is at bit
    `shift`.  sides[k][c] reads -c * (side row k); leaders maps a syndrome to
    (leader, weight, the leader's demand reading)."""

    code: LinearIndexCode
    frame: ReceiverFrame
    lanes: PackedRows
    matrix: tuple
    columns: tuple
    sides: tuple
    mask: int
    shift: int
    reduction: tuple
    determined: bool
    syndrome_lanes: tuple
    leaders: dict = dataclasses.field(default_factory=dict)
    dense: dict = dataclasses.field(default_factory=dict)

    @_on_first_use
    def complement_parity(self) -> FMatrix:  # its own elimination: independent of the reading
        return parity_check_matrix(self.code.matrix.rows_at(sorted(self.frame.complement)))

    @_on_first_use
    def sparse_complement_parity(self) -> tuple:  # each row's nonzero (position, value) pairs
        rows = self.complement_parity.rows
        return tuple([tuple([(j, v) for j, v in enumerate(h) if v]) for h in rows])

    @_on_first_use
    def parity(self) -> FMatrix:
        """A parity check of the unknown rows' span: what the syndrome lanes
        read after reduction, as dense rows."""
        add, mul, rows = self.code.field._add, self.code.field._mul, []
        for lane in self.syndrome_lanes:
            row = self.matrix[lane]
            for p, table in self.reduction:  # plus -mu[lane] times the pivot's row
                m = mul[self.lanes.unpack(table[1], [lane])[0]]
                row = tuple([add[a][m[b]] for a, b in zip(row, self.matrix[p])])
            rows.append(row)
        return FMatrix._unchecked(self.code.field, tuple(rows), self.code.length)


def build_receiver_decoder(
    code: LinearIndexCode, i: int, _reading: Optional[CodeReading] = None
) -> ReceiverDecoder:
    """Receiver i's view on the code's reading (`_reading` passes in one a
    code's decoders share).  A word less its side rows is in the unknown
    rows' span exactly when its parity lanes are zero and its side lanes
    lie in Lambda's projection on them.  Reducing by that projection, the
    demand lane carried along, leaves the syndrome and the demanded
    coefficient, unless a projected row is zero but in the demand lane."""
    frame, reading = receiver_frame(code.inst, i), _reading or code_reading(code)
    lanes, side, n = reading.lanes, sorted(frame.side_info), code.inst.num_messages
    width, reduction, determined, pivots = lanes._width, (), True, []
    if reading.left_kernel:
        cols = [*side, frame.demand]  # Lambda's projection on the side set, then the demand lane
        projected = [[lam[k] for k in cols] for lam in reading.left_kernel]
        proj, pivots = _rref(projected, len(cols), code.field)
        determined = not pivots or pivots[-1] < len(side)
        reduction = tuple((side[p], _negated_multiples(lanes, zip(cols, row)))
                          for row, p in zip(proj, pivots) if p < len(side))
    symbol, parity = (1 << width) - 1, range(n, lanes.ncols)
    mask = sum(symbol << k * width for k in (*side, *parity))
    free = (*[k for j, k in enumerate(side) if j not in pivots], *parity)
    columns, sides = reading.columns, tuple([reading.side_images[k] for k in side])
    if reduction:  # reduce each packed term once, not each word: the reduction is linear
        columns = [[_reduce(lanes, a, reduction) for a in t] for t in columns]
        sides = tuple([[_reduce(lanes, a, reduction) for a in t] for t in sides])
    return ReceiverDecoder(code, frame, lanes, reading.matrix, columns, sides, mask,
                           frame.demand * width, reduction, determined, free)


class DecodeOutcome(NamedTuple):
    recovered: int
    error_estimate: FVector
    estimate_weight: int
    success: Optional[bool]  # None when ground truth was not supplied


# DecodeOutcome from one tuple of its fields: the class's generated
# Python-level __new__ costs a sixth of a decode
_outcome = functools.partial(tuple.__new__, DecodeOutcome)


def _remember(dec: ReceiverDecoder, leader: FVector, read: int) -> tuple:
    """Check that leader has the syndrome of its packed reading `read`, then
    memoise (leader, weight, its demand reading) under that syndrome."""
    lanes, key = dec.lanes, read & dec.mask
    if dec.parity.mul_col(leader).entries != lanes.unpack(key, dec.syndrome_lanes):
        raise InternalContradiction("coset leader does not reproduce the syndrome")
    value = lanes._labels[read >> dec.shift & ((1 << lanes._width) - 1)]
    entry = dec.leaders[key] = (leader, leader.weight(), value)
    return entry


def _search(dec: ReceiverDecoder, key: int, weight_cap: int) -> tuple:
    """Memoise and return the leader of packed syndrome key under
    weight_cap: the first vector of `coset_leader`'s weight-ordered walk
    whose reading has this syndrome, so the one it would return.  When none
    does, `coset_leader` walks again and decides between WeightCapExceeded
    and NoSolution."""
    lanes, columns, mask = dec.lanes, dec.columns, dec.mask
    for e in _weight_ordered(dec.code.field.q, len(columns), weight_cap):
        read = lanes.lane_sum([columns[j][v] for j, v in enumerate(e) if v])
        if read & mask == key:
            return _remember(dec, FVector._unchecked(dec.code.field, e), read)
    syndrome = FVector._unchecked(dec.code.field, lanes.unpack(key, dec.syndrome_lanes))
    coset_leader(dec.parity, syndrome, weight_cap)  # raises, as its walk found nothing
    raise InternalContradiction("the packed walk missed a coset leader")


def _word_reading(dec: ReceiverDecoder, word: Sequence[int], side_values: Sequence[int]) -> int:
    """The packed reading of a word less its side contribution, through the
    receiver's own columns and side images: one lane sum."""
    return dec.lanes.lane_sum(
        chain(map(getitem, dec.columns, word), map(getitem, dec.sides, side_values))
    )


def decode(
    dec: ReceiverDecoder,
    received: Optional[FVector],
    side_values: Optional[Sequence[int]],
    weight_cap: int,
    truth: Optional[int] = None,
    *,
    _read: Optional[int] = None,
) -> DecodeOutcome:
    """Syndrome-decode one received word.

    Read the word less its side contribution through the packed columns:
    the syndrome and the demand lane.  Take the minimum-weight coset
    solution under `weight_cap` and subtract its demand reading.  Raises
    WeightCapExceeded when even the lightest coset member is heavier than
    the cap (more channel errors than allowed for).  `_read` passes in
    that reading already taken (the exhaustive check adds a message
    vector's and an error's); `received` and `side_values` are then unread
    and may be None.
    """
    field, lanes = dec.code.field, dec.lanes
    if _read is None:
        if len(received.entries) != len(dec.columns):
            raise LengthMismatch("received word length mismatch")
        if len(side_values) != len(dec.sides):
            raise LengthMismatch("side-information values must match the side set size")
        if received.field is not field and received.field != field:
            raise LengthMismatch("vector field/length mismatch")
        for c in side_values:  # a negative c would index sides from the end
            if not 0 <= c < field.q:
                raise ValueError("vector entry outside field range")
        _read = _word_reading(dec, received.entries, side_values)
    key = _read & dec.mask
    entry = dec.leaders.get(key)
    if entry is None or entry[1] > weight_cap:  # not decided at this cap: search
        entry = _search(dec, key, weight_cap)
    estimate, weight, estimate_value = entry
    if not dec.determined:
        raise InternalContradiction("demanded symbol is not uniquely determined")
    value = lanes._labels[_read >> dec.shift & ((1 << lanes._width) - 1)]
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
    reading, m = code_reading(code), code.inst.num_receivers
    decoders = [build_receiver_decoder(code, i, _reading=reading) for i in range(m)]
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
        received = [y.add(error)] * inst.num_receivers
    else:
        received = [y.add(e) for e in error]
        if len(received) != inst.num_receivers:
            raise LengthMismatch("need one error vector per receiver")
    outcomes = []
    for i, dec in enumerate(decoders):
        side = [x.entries[j] for j in sorted(inst.side_info[i])]
        outcomes.append(
            decode(dec, received[i], side, weight_cap, truth=x.entries[inst.demands[i]])
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
    combination, x = 0 and error 0, before it is decoded.  With no
    receivers there is nothing to decode."""
    _check_delta(delta)
    inst, field = code.inst, code.field
    n, N, m = inst.num_messages, code.length, inst.num_receivers
    if not m:
        return CheckReport(True, 0, None)
    total = field.q**n * sphere_volume(field.q, N, delta) * m
    if total > enum_budget:
        raise BudgetExceeded(f"{total} decodes exceed enumeration budget {enum_budget}")
    reading = code_reading(code)
    decoders = [build_receiver_decoder(code, i, _reading=reading) for i in range(m)]
    errors = [(e, FVector._unchecked(field, e)) for e in _weight_ordered(field.q, N, delta)]
    lanes, columns = reading.lanes, reading.columns
    readings = [lanes.lane_sum([columns[j][v] for j, v in enumerate(e) if v]) for e, _ in errors]
    error_reads = []  # per decoder, each error's reading through its view
    for dec in decoders:  # and the leader table: the first error seen per syndrome
        reads = [_reduce(lanes, a, dec.reduction) for a in readings] if dec.reduction else readings
        for (e, err), acc in zip(errors, reads):
            if acc & dec.mask not in dec.leaders:
                _remember(dec, err, acc)
        error_reads.append(reads)
    determined = next((i for i, dec in enumerate(decoders) if not dec.determined), m)
    receivers = list(zip(decoders[:determined], error_reads))
    sides = [sorted(inst.side_info[i]) for i in range(m)]
    add, decodes = lanes._add, 0
    for x in all_vectors(field, n):
        y, xs = encode(code, x).entries, x.entries
        # x's reading per receiver: y = xL read with x's side values, so that
        # y + e reads as this plus e's reading (the reading is linear)
        bases = [_word_reading(dec, y, [xs[j] for j in sides[i]])
                 for i, (dec, _) in enumerate(receivers)]
        truths = [xs[d] for d in inst.demands]
        for t, (e, err) in enumerate(errors):
            for i, ((dec, reads), base) in enumerate(zip(receivers, bases)):
                outcome = decode(dec, None, None, delta, truths[i], _read=add(base, reads[t]))
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
