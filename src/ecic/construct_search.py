"""Constructions of error-correcting index codes and the exact
optimal-length search.

Three constructions: concatenating an optimal plain index code with a
distance-(2*delta+1) outer code, extended Reed-Solomon generators for the
MDS regime (`bounds.mds_generator`, which the code-length scan shares),
and seeded random sampling.  The exact search reduces the
candidate space to multisets of projective column classes -- the
verification predicate only sees columns up to order and nonzero scaling
-- and walks candidate lengths down from the concatenation bound with
`_cover.descend`: a tabu search supplies witnesses, and exhaustion with
quota pruning supplies the one proof below the shortest of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ._cover import (
    _MAX_SIZE,
    DEFAULT_NODE_BUDGET,
    CoverTable,
    _seeded_bytes,
    classes_matrix,
    descend,
    multiset_cover_search,
)
# alpha_bound, kappa_bound, singleton_bound, min_rank and
# enumerate_error_vectors are not called here, but bench/tracing.py wraps
# them under this module's names
from .bounds import alpha_bound, bounds_report, kappa_bound, singleton_bound  # noqa: F401
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InternalContradiction,
    InvalidInnerIC,
    LengthMismatch,
    OuterDistanceTooSmall,
)
from .field_linalg import DEFAULT_ENUM_BUDGET, Field, FMatrix, code_min_distance, mat_rank
from .index_codes import (
    LinearIndexCode,
    _analyse,
    _check_delta,
    _margins_with_minimizers,
    generalized_independence_number,
    min_rank,  # noqa: F401
    verify_ecic,
    verify_ic,
)
from .instance import IcsiInstance, enumerate_error_vectors  # noqa: F401


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
    and minimum distance >= 2*delta + 1 (checked by its rank and by
    `code_min_distance`, within `enum_budget` >= q^kappa).  The product is
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
        if mat_rank(outer) < k or code_min_distance(outer, enum_budget) < need:
            raise OuterDistanceTooSmall(f"outer code has a nonzero word of weight < {need}")
    product = ic_matrix.matmul(outer)
    code = LinearIndexCode(inst, field, product)
    verdict = verify_ecic(code, delta, enum_budget)
    if not verdict.ok:
        raise InternalContradiction("concatenated code failed verification")
    return code


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


def _verified(
    inst: IcsiInstance, field: Field, delta: int, table: CoverTable, classes: tuple[int, ...],
    enum_budget: int,
) -> LinearIndexCode:
    """The code whose columns are the picked classes, re-verified through
    the margin route."""
    code = LinearIndexCode(
        inst, field, classes_matrix(field, table.columns, classes, inst.num_messages)
    )
    if not verify_ecic(code, delta, enum_budget).ok:
        raise InternalContradiction("search witness failed margin verification")
    return code


def exists_ecic(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    _table: Optional[CoverTable] = None,
) -> ExistsResult:
    """Exhaustively decide whether any n x length matrix corrects delta
    errors for the instance.

    The verification predicate counts, per confusable vector z, the columns
    c with <z, c> != 0; it is invariant under column order and nonzero
    column scaling, so the search ranges over multisets of projective
    column classes with quota-based pruning.  It is also invariant under
    the instance's automorphisms (message permutations carrying receivers
    to receivers), which permute both the column classes and the
    confusable classes, so the search skips every column class that an
    automorphism fixing the columns picked so far sends to an earlier
    class (the symmetries of the (instance, q) cover table; see `_cover`),
    which changes the node count but neither the answer nor the witness.
    An infeasible answer is a proof by exhaustion; BudgetExceeded means
    unknown, never infeasible.  A returned witness has been re-verified
    through the margin route.
    `_table` passes in the (instance, q) cover table (`_analyse`) a length
    scan shares.
    """
    _check_delta(delta)
    if length < 0:
        raise LengthMismatch("length must be nonnegative")
    table = _table or _analyse(inst, field, enum_budget)
    if not table.targets:
        witness = LinearIndexCode(inst, field, FMatrix.zero(field, inst.num_messages, length))
        return ExistsResult(True, witness, 0)
    res = multiset_cover_search(table, [2 * delta + 1] * len(table.targets), length, node_budget)
    if not res.found:
        return ExistsResult(False, None, res.nodes)
    witness = _verified(inst, field, delta, table, res.classes, enum_budget)
    return ExistsResult(True, witness, res.nodes)


@dataclass(frozen=True)
class SearchStats:
    nodes: int  # exhaustive cover-search nodes, summed over the lengths
    wall_seconds: float
    node_budget: int
    local_iterations: int  # tabu moves, summed over the lengths


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
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> SearchOutcome:
    """Exact optimal code length for (instance, field, delta).

    The length is found by `_cover.descend` (tabu witnesses, each
    re-verified, and one exhaustive proof by `exists_ecic`; its docstring
    holds the policy), walking down from `upper` (or from the cover
    search's cap, if that is lower) to `lower`, both read from
    `bounds.bounds_report` on the same cover table.  The node budget is
    shared by the whole descent, and `enum_budget` bounds every table the
    search builds: the instance's and each min-rank part's cover table,
    the code tables of the bounds, and the margins.  On its exhaustion,
    or the instance table's, the raised error carries the bracket proved
    so far: every length below `infeasible_below` is infeasible, and
    `feasible_at` has a verified witness (or is the concatenation bound).
    """
    _check_delta(delta)
    started = time.perf_counter()
    d = 2 * delta + 1
    generalized_independence_number(inst)  # over alpha's vertex cap: CapExceeded first
    try:
        table = _analyse(inst, field, enum_budget)
    except BudgetExceeded as exc:
        table = exc  # min_rank raises it again rather than analyse the instance twice
    report = bounds_report(inst, field, delta, node_budget, _enum_budget=enum_budget, _table=table)
    lower, upper = report.lower, report.upper
    if isinstance(table, BudgetExceeded):
        raise BudgetExceeded(
            f"budget exhausted analysing the instance; infeasible below {lower}, "
            f"feasible at {upper}",
            nodes=table.nodes or 0, infeasible_below=lower, feasible_at=upper,
        ) from table

    def exhaustive(length: int, budget: int) -> tuple[Optional[LinearIndexCode], int]:
        res = exists_ecic(
            inst, field, delta, length, node_budget=budget, enum_budget=enum_budget, _table=table
        )
        return res.witness, res.nodes

    out = descend(
        table.hit_sets, [d] * len(table.targets), min(upper, _MAX_SIZE), lower, upper, node_budget,
        "ecic:local", lambda classes: _verified(inst, field, delta, table, classes, enum_budget),
        exhaustive,
    )
    if out.witness is None:
        if upper > _MAX_SIZE:  # whatever is feasible lies beyond the cover search's cap
            raise CapExceeded(f"no length up to the cover-search cap {_MAX_SIZE} is feasible")
        raise InternalContradiction("infeasible at the concatenation bound; this cannot happen")
    return SearchOutcome(
        optimal_length=out.size,
        witness=out.witness,
        infeasible_below=out.size - 1,
        stats=SearchStats(out.nodes, time.perf_counter() - started, node_budget, out.moves),
    )
