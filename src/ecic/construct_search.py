"""Constructions of error-correcting index codes and the exact
optimal-length search.

Three constructions: concatenating an optimal plain index code with a
distance-(2*delta+1) outer code, extended Reed-Solomon generators for the
MDS regime, and seeded random sampling.  The exact search reduces the
candidate space to multisets of projective column classes -- the
verification predicate only sees columns up to order and nonzero scaling
-- and exhausts them with quota pruning, walking candidate lengths upward
from the best lower bound until the first feasible length.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from ._cover import (
    canonical_class,
    class_hit_sets,
    class_orbits,
    class_permutation,
    classes_matrix,
    multiset_cover_search,
    projective_classes,
)
from .bounds import DEFAULT_NODE_BUDGET, _griesmer_length, alpha_bound, kappa_bound, singleton_bound
from .errors import (
    BudgetExceeded,
    InternalContradiction,
    InvalidInnerIC,
    LengthMismatch,
    OutOfRegime,
    OuterDistanceTooSmall,
    UnknownCodeLength,
)
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    Field,
    FMatrix,
    all_vectors,
    row_basis,
)
from .index_codes import (
    DEFAULT_MIN_RANK_BUDGET_EXPONENT,
    LinearIndexCode,
    _check_delta,
    _margins_with_minimizers,
    generalized_independence_number,
    min_rank,
    verify_ecic,
    verify_ic,
)
from .instance import IcsiInstance, automorphisms, enumerate_error_vectors


def mds_generator(field: Field, k: int, length: int) -> FMatrix:
    """Generator of an MDS [length, k, length - k + 1] code.

    Regimes: length == k (identity), k == 1 (repetition, any length), and
    k <= length <= q + 1 (extended Reed-Solomon on the fixed evaluation
    sequence 0, 1, g, g^2, ... with g the smallest primitive element, plus
    the point at infinity when length == q + 1).
    """
    if k < 1 or length < k:
        raise OutOfRegime(f"need 1 <= k <= length, got k={k}, length={length}")
    if length == k:
        return FMatrix.identity(field, k)
    if k == 1:
        return FMatrix(field, ((1,) * length,), length)
    if length > field.q + 1:
        raise OutOfRegime(
            f"length {length} exceeds q + 1 = {field.q + 1} for dimension {k}"
        )
    g = _smallest_primitive(field)
    points = [0, 1]
    x = g
    while len(points) < field.q:
        points.append(x)
        x = field.mul(x, g)
    rows = []
    for r in range(k):
        row = [field.pow(pt, r) for pt in points[: min(length, field.q)]]
        if length == field.q + 1:
            row.append(1 if r == k - 1 else 0)
        rows.append(tuple(row))
    return FMatrix(field, tuple(rows), length)


def _smallest_primitive(field: Field) -> int:
    for g in field.nonzero():
        x = g
        order = 1
        while x != 1:
            x = field.mul(x, g)
            order += 1
        if order == field.q - 1:
            return g
    raise AssertionError("no primitive element found")


def optimal_ic_matrix(
    inst: IcsiInstance,
    field: Field,
    budget_exponent: int = DEFAULT_MIN_RANK_BUDGET_EXPONENT,
) -> FMatrix:
    """An n x kappa matrix that is a shortest plain index code: the
    transposed row basis of a min-rank witness, so that every witness row
    lies in its column space."""
    result = min_rank(inst, field, budget_exponent)
    return row_basis(result.witness).transpose()


def concatenate_construction(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    ic_matrix: FMatrix,
    outer: FMatrix,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> LinearIndexCode:
    """Index code correcting delta errors as inner-times-outer product.

    `ic_matrix` (n x kappa) must be a valid plain index code for the
    instance; `outer` (kappa x N') must generate a code of dimension kappa
    and minimum distance >= 2*delta + 1 (checked over all q^kappa nonzero
    messages, which also rejects rank-deficient outers).  The product is
    re-verified before being returned.
    """
    _check_delta(delta)
    if ic_matrix.ncols != outer.nrows:
        raise LengthMismatch("inner columns must match outer rows")
    inner_code = LinearIndexCode(inst, field, ic_matrix)
    if not verify_ic(inner_code):
        raise InvalidInnerIC("inner matrix is not an index code for this instance")
    need = 2 * delta + 1
    k = outer.nrows
    if k:
        if field.q**k > enum_budget:
            raise BudgetExceeded(f"outer check needs {field.q}^{k} messages")
        for msg in all_vectors(field, k):
            if msg.is_zero():
                continue
            if outer.left_mul(msg).weight() < need:
                raise OuterDistanceTooSmall(
                    f"outer code has a nonzero word of weight < {need}"
                )
    product = ic_matrix.matmul(outer)
    code = LinearIndexCode(inst, field, product)
    verdict = verify_ecic(code, delta, enum_budget)
    if not verdict.ok:
        raise InternalContradiction("concatenated code failed verification")
    return code


def _seeded_bytes(key: str, q: int) -> Iterator[int]:
    """Counter-mode SHA-256 stream keyed `{key}:{counter}`.  Bytes at or
    above the largest multiple of q are rejected, so each kept byte is
    uniform mod q."""
    limit = (256 // q) * q
    for counter in itertools.count():
        block = hashlib.sha256(f"{key}:{counter}".encode()).digest()
        yield from (b for b in block if b < limit)


def random_construct(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    length: int,
    trials: int,
    seed: int,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> Optional[LinearIndexCode]:
    """First verifying code among `trials` seeded random n x length
    matrices, or None.  Trial t fills its matrix row by row from the seeded
    stream keyed `ecic:{seed}:{t}`, so the result is fully determined by
    (seed, trials, length).  `trials` must be at least 1."""
    _check_delta(delta)
    if length < 1:
        raise LengthMismatch("length must be positive")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    q, n = field.q, inst.num_messages
    for trial in range(trials):
        stream = _seeded_bytes(f"ecic:{seed}:{trial}", q)
        rows = tuple(tuple(next(stream) % q for _ in range(length)) for _ in range(n))
        code = LinearIndexCode(inst, field, FMatrix(field, rows, length))
        # the margins verify_ecic checks, stopping at the first failing one
        if all(m > 2 * delta for m, _ in _margins_with_minimizers(code, enum_budget)):
            return code
    return None


# ---------------------------------------------------------------------------
# exact existence and optimal length


@dataclass(frozen=True)
class ExistsResult:
    feasible: bool
    witness: Optional[LinearIndexCode]
    nodes: int


def _confusable_classes(inst: IcsiInstance, field: Field, enum_budget: int) -> list[tuple[int, ...]]:
    """The instance's confusable vectors reduced to projective classes,
    sorted for determinism."""
    seen = set()
    for z in enumerate_error_vectors(inst, field, enum_budget):
        seen.add(canonical_class(z.entries, field))
    return sorted(seen)


def exists_ecic(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    symmetry_breaking: bool = True,
) -> ExistsResult:
    """Exhaustively decide whether any n x length matrix corrects delta
    errors for the instance.

    The verification predicate counts, per confusable vector z, the columns
    c with <z, c> != 0; it is invariant under column order and nonzero
    column scaling, so the search ranges over multisets of projective
    column classes with quota-based pruning.  It is also invariant under
    the instance's automorphisms (message permutations carrying receivers
    to receivers), which permute both the column classes and the
    confusable classes; with `symmetry_breaking` the search tries only one
    first column class per automorphism orbit, which changes the node count
    but neither the answer nor the witness.  An infeasible answer is a
    proof by exhaustion; BudgetExceeded means unknown, never infeasible.
    A returned witness has been re-verified through the margin route.
    """
    _check_delta(delta)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if length < 0:
        raise LengthMismatch("length must be nonnegative")
    n = inst.num_messages
    zs = _confusable_classes(inst, field, enum_budget)
    if not zs:
        witness = LinearIndexCode(inst, field, FMatrix.zero(field, n, length))
        return ExistsResult(True, witness, 0)
    columns = projective_classes(field, n)
    orbits = None
    if symmetry_breaking:
        gens, _ = automorphisms(inst)
        orbits = class_orbits(len(columns), (class_permutation(field, columns, g) for g in gens))
    res = multiset_cover_search(
        class_hit_sets(field, columns, zs), [2 * delta + 1] * len(zs), length, node_budget,
        jobs, orbits,
    )
    if not res.found:
        return ExistsResult(False, None, res.nodes)
    code = LinearIndexCode(inst, field, classes_matrix(field, columns, res.classes, n))
    if not verify_ecic(code, delta, enum_budget).ok:
        raise InternalContradiction("search witness failed margin verification")
    return ExistsResult(True, code, res.nodes)


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    wall_seconds: float
    node_budget: int


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the exact optimal-length search.

    `infeasible_below` is optimal_length - 1: every shorter length is ruled
    out either by the lower bounds or by exhaustion."""

    optimal_length: int
    witness: LinearIndexCode
    infeasible_below: int
    stats: SearchStats


def optimal_length_search(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    budget_exponent: int = DEFAULT_MIN_RANK_BUDGET_EXPONENT,
) -> SearchOutcome:
    """Exact optimal code length for (instance, field, delta).

    Scans lengths upward from the best lower bound, exhausting each until
    the first feasible one; the concatenation bound caps the scan, so
    termination is guaranteed.  When the alpha or kappa bound is not
    settled within the node budget, the scan falls back to bounds that need
    no search: the Griesmer bound at alpha below, and kappa * (2*delta + 1)
    above (the outer code that repeats each identity column).  On budget
    exhaustion the raised error carries the bracket explored so far.
    """
    _check_delta(delta)
    started = time.perf_counter()
    d = 2 * delta + 1
    try:
        a_bound = alpha_bound(inst, field, delta, node_budget=node_budget)
    except UnknownCodeLength:
        a_bound = _griesmer_length(field.q, generalized_independence_number(inst)[0], d)
    lower = max(a_bound, singleton_bound(inst, field, delta, budget_exponent=budget_exponent))
    try:
        upper = kappa_bound(inst, field, delta, budget_exponent, node_budget)
    except UnknownCodeLength:
        upper = min_rank(inst, field, budget_exponent).kappa * d
    nodes = 0
    for length in range(lower, upper + 1):
        try:
            res = exists_ecic(
                inst, field, delta, length,
                node_budget=node_budget, jobs=jobs, enum_budget=enum_budget,
            )
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"budget exhausted at length {length}; infeasible below {length}, "
                f"feasible at {upper}",
                nodes=nodes + (exc.nodes or 0),
            ) from exc
        nodes += res.nodes
        if res.feasible:
            return SearchOutcome(
                optimal_length=length,
                witness=res.witness,
                infeasible_below=length - 1,
                stats=SearchStats(nodes, time.perf_counter() - started, node_budget),
            )
    raise InternalContradiction(
        "no feasible length up to the concatenation bound; this cannot happen"
    )
