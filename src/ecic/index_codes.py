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

Kappa is the length of a shortest delta = 0 code, so `min_rank` finds it
with the descent of the optimal-length scan (`_cover.descend`) at quota 1,
on the (instance, q) cover table (`_analyse`) the scan shares.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ._cover import (
    DEFAULT_NODE_BUDGET,
    CoverTable,
    canonical_class,
    classes_matrix,
    cover_table,
    descend,
    multiset_cover_search,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InternalContradiction,
    LengthMismatch,
)
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    Field,
    FMatrix,
    FVector,
    PackedRows,
    mat_rank,
    solve_linear,
)
from .instance import IcsiInstance, automorphisms, enumerate_error_vectors, in_support_family

DEFAULT_ALPHA_VERTEX_CAP = 24


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


def _check_delta(delta: int) -> None:
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")


def _margins_with_minimizers(
    code: LinearIndexCode, enum_budget: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(margin, minimizer) per receiver, lazily in receiver order, on rows
    packed once per code.  Receiver i's margin is the Hamming distance from
    its demanded row to the span of the rows it neither holds nor demands,
    and the minimizer is the coefficient tuple (over those rows, sorted
    ascending) achieving it, the first in lexicographic order.  Receivers
    sharing (demand, complement) are computed once."""
    inst, q = code.inst, code.field.q
    packed = PackedRows(code.field, code.matrix.rows, code.length)
    cache: dict[tuple[int, frozenset[int]], tuple[int, tuple[int, ...]]] = {}
    for i in range(inst.num_receivers):
        key = (inst.demands[i], inst.complement(i))
        if key not in cache:
            free = sorted(key[1])
            if q ** len(free) > enum_budget:
                raise BudgetExceeded(f"receiver {i + 1} span needs {q}^{len(free)} combinations")
            cache[key] = packed.lightest(key[0], free)
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
    for every confusable z, with the first failing z, receiver by receiver
    in odometer order, as certificate.  Scaling z keeps weight(z @ L), so
    only the walk up to scaling is checked (`enumerate_error_vectors`); the
    first failing z has demand entry 1 and is met there first.  Shares no
    code with the margin kernel: each odometer step of the walk adds a
    precomputed change to z @ L, kept as base-p digit lanes of w bits
    (symbol j's from bit j*e*w) and reduced mod p in all lanes at once."""
    _check_delta(delta)
    inst, field, L = code.inst, code.field, code.matrix
    need = 2 * delta + 1
    walks = enumerate_error_vectors(inst, field, enum_budget)
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
        # its row, and wraps the later digits from q-1 to 0, adding `wrap`;
        # the demand digit only takes its first step, from 0 to 1
        changes, wrap = [], 0
        for pos in reversed(positions[1:]):
            row = multiples[pos]
            changes.insert(0, [lane_add(wrap, row[add[c + 1][neg[c]]]) for c in range(q - 1)])
            wrap = lane_add(wrap, row[neg[q - 1]])
        changes.insert(0, [multiples[positions[0]][1]])  # acc = 0 lands on the demand row
        acc = 0
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
    return all(lam is not None for lam in _decoding_combinations(code))


def _decoding_combinations(code: LinearIndexCode) -> Iterator[Optional[FVector]]:
    """Per receiver, lazily, a column combination lambda whose product
    L @ lambda is 1 at the demand and 0 at every other message outside the
    side information, or None if there is none."""
    inst, field, L = code.inst, code.field, code.matrix
    n = inst.num_messages
    for i in range(inst.num_receivers):
        keep = [r for r in range(n) if r not in inst.side_info[i]]
        target = [0] * len(keep)
        target[keep.index(inst.demands[i])] = 1
        sol = solve_linear(L.rows_at(keep), FVector(field, tuple(target)))
        yield None if sol is None else sol[0]


# ---------------------------------------------------------------------------
# generalized independence number


@functools.lru_cache(maxsize=None)
def generalized_independence_number(inst: IcsiInstance) -> tuple[int, tuple[int, ...]]:
    """Size of a maximum set of messages all of whose nonempty subsets lie
    in the instance's support family, plus the lexicographically smallest
    maximum witness (0-based, sorted).  Cached per instance, so that the
    bounds, min-rank and the length search of one question share one run.

    Generalized independence is closed downward, so the search extends
    candidates vertex by vertex, testing only the subsets that contain the
    newly added vertex.  Instances over more than DEFAULT_ALPHA_VERTEX_CAP
    messages raise CapExceeded.
    """
    n = inst.num_messages
    if n > DEFAULT_ALPHA_VERTEX_CAP:
        raise CapExceeded(f"{n} messages exceed the search cap {DEFAULT_ALPHA_VERTEX_CAP}")
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
# the (instance, q) cover table and min-rank


def _analyse(inst: IcsiInstance, field: Field, enum_budget: int) -> CoverTable:
    """What the cover searches need from one (instance, q), whatever delta
    and length: the cover table whose targets are the confusable vectors
    up to scaling, sorted for determinism (the projective classes of the
    keys walked by `enumerate_error_vectors`), and whose symmetries are
    the instance's automorphisms (message permutations carrying receivers
    to receivers) as column class permutations; each maps hit rows onto
    hit rows, permuting the targets, which share one quota.  That walk,
    the hit rows and the automorphism list are bounded by `enum_budget`."""
    q, n = field.q, inst.num_messages
    places = [q ** (n - 1 - j) for j in range(n)]
    targets = sorted({
        canonical_class([key // place % q for place in places], field)
        for _, steps in enumerate_error_vectors(inst, field, enum_budget)
        for _, _, key in steps
    })
    if not targets:  # no receivers: every matrix works, columns are moot
        return CoverTable([])
    gens, _ = automorphisms(inst)
    return cover_table(field, n, targets, gens, enum_budget)


def _min_rank_parts(inst: IcsiInstance) -> list[tuple[list[int], IcsiInstance]]:
    """Parts (messages, instance on them) whose kappas add up to kappa.

    Message d points to message x when a receiver demanding d holds x, and
    the parts are the strongly connected components of the demanded
    messages.  Ordering the parts so that every pointer runs forward, the
    rows of a completion (grouped by their demand's part) are block upper
    triangular, with each part's instance on the diagonal and the messages
    nobody demands last; such a rank is at least the sum of the diagonal
    blocks' ranks, and zeroing every other block reaches it.  Each part is
    renumbered onto its messages in order, receivers kept in order.
    """
    demanded = set(inst.demands)
    points: dict[int, set[int]] = {d: set() for d in demanded}
    for d, xs in zip(inst.demands, inst.side_info):
        points[d] |= xs & demanded
    reach = {}
    for d in demanded:
        seen, todo = {d}, [d]
        while todo:
            for x in points[todo.pop()] - seen:
                seen.add(x)
                todo.append(x)
        reach[d] = seen
    parts = []
    for msgs in sorted({tuple(sorted(x for x in reach[d] if d in reach[x])) for d in demanded}):
        index = {x: k for k, x in enumerate(msgs)}
        rs = [i for i in range(inst.num_receivers) if inst.demands[i] in index]
        part = IcsiInstance(
            len(rs), len(msgs), tuple(index[inst.demands[i]] for i in rs),
            tuple(frozenset(index[x] for x in inst.side_info[i] if x in index) for i in rs),
        )
        parts.append((list(msgs), part))
    return parts


@dataclass(frozen=True)
class MinRankResult:
    """Min-rank value with its witnesses: `ic_matrix`, an n x kappa plain
    index code, and `witness`, of rank kappa, with one row per receiver --
    the demand unit vector plus a vector supported on that receiver's side
    information."""

    kappa: int
    witness: FMatrix
    ic_matrix: FMatrix


def min_rank(
    inst: IcsiInstance,
    field: Field,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    _table: Optional[CoverTable | BudgetExceeded] = None,
) -> MinRankResult:
    """Minimum rank over all side-information completions of the demand
    rows, found as the length of a shortest plain index code: a delta = 0
    code is a multiset of column classes hitting every confusable class at
    least once, so kappa is the cover search's optimum at quota 1.

    The instance is first split exactly into parts (`_min_rank_parts`),
    each solved on its own and placed as a diagonal block of the code.  In
    a part every message is demanded, and its identity matrix is a code;
    below that length `_cover.descend` walks down to the part's alpha <=
    its kappa (tabu codes, and the exhaustive `multiset_cover_search` on
    the part's cover table, under its automorphisms, as the one proof; its
    docstring holds the policy).  `node_budget` bounds the exhaustive nodes, tripped probes
    included, summed over the parts; BudgetExceeded carries that sum and
    means kappa is unknown, with kappa's bracket: the settled parts' kappa
    plus the open part's bracket plus each later part's alpha (below) or
    size (above).  `enum_budget` bounds each part's cover table
    (`_analyse`).
    Row i of the witness is L @ lambda_i for the found code L, where
    lambda_i solves receiver i's decoding system (see `verify_ic`).
    `_table` passes in the (instance, q) cover table (`_analyse`) a
    length scan shares, or the BudgetExceeded its analysis raised; it is
    used, or raised, when the instance is one part as it stands.
    """
    n = inst.num_messages
    blocks = []
    nodes = 0
    parts = _min_rank_parts(inst)
    for at, (msgs, part) in enumerate(parts):
        alpha = generalized_independence_number(part)[0]
        code = FMatrix.identity(field, len(msgs))
        if alpha < len(msgs):
            table = (_table if part == inst else None) or _analyse(part, field, enum_budget)
            if isinstance(table, BudgetExceeded):  # the instance's analysis, not run twice
                raise table
            quotas = [1] * len(table.targets)

            def exhaustive(length: int, budget: int) -> tuple[Optional[tuple[int, ...]], int]:
                res = multiset_cover_search(table, quotas, length, budget)
                return res.classes, res.nodes

            try:
                out = descend(
                    table.hit_sets, quotas, len(msgs) - 1, alpha, len(msgs), node_budget - nodes,
                    "ecic:kappa", tuple, exhaustive,  # witnesses stay class multisets
                )
            except BudgetExceeded as exc:
                # kappa's bracket: the settled parts' kappa, this part's
                # bracket, and each later part's alpha below and size above
                settled = sum(block.ncols for _, block in blocks)
                later = parts[at + 1:]
                where = f"min-rank of messages {[x + 1 for x in msgs]}"
                raise BudgetExceeded(
                    f"{where}: {exc}", nodes=nodes + exc.nodes,
                    infeasible_below=settled + exc.infeasible_below
                    + sum(generalized_independence_number(rest)[0] for _, rest in later),
                    feasible_at=settled + exc.feasible_at + sum(len(m) for m, _ in later),
                ) from exc
            nodes += out.nodes
            if out.witness is not None:
                code = classes_matrix(field, table.columns, out.witness, len(msgs))
        blocks.append((msgs, code))
    kappa = sum(code.ncols for _, code in blocks)
    rows = [[0] * kappa for _ in range(n)]
    col = 0
    for msgs, code in blocks:
        for x, row in zip(msgs, code.rows):
            rows[x][col:col + code.ncols] = row
        col += code.ncols
    L = FMatrix(field, tuple(map(tuple, rows)), kappa)
    witness = []
    for lam in _decoding_combinations(LinearIndexCode(inst, field, L)):
        if lam is None:
            raise InternalContradiction("min-rank code fails to decode")
        witness.append(L.mul_col(lam).entries)
    result = MinRankResult(kappa, FMatrix(field, tuple(witness), n), L)
    if mat_rank(result.witness) != kappa:
        raise AssertionError("min-rank witness does not achieve its rank")
    return result


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
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> InstanceParams:
    alpha, witness = generalized_independence_number(inst)
    mr = min_rank(inst, field, node_budget)
    return InstanceParams(field, alpha, witness, mr.kappa, mr.witness)
