"""Bounds on the optimal length of an error-correcting index code.

Four length bounds for correcting delta errors: two derived from the
shortest classical code of a given dimension and distance (applied at the
generalized independence number and at the min-rank), the Singleton-style
bound kappa + 2*delta, and the smallest length at which a uniformly random
matrix works with positive probability.  Shortest codes (`shortest_code`)
are settled in order: a closed form; else a verified classical generator
on the floor, the larger of the Griesmer and sphere-packing bounds (the
anticode code of Solomon-Stiffler and Belov, the shortened Hamming code at
d = 3, the extended Reed-Solomon code up to length q + 1); else, over
GF(2) at even d, the code at d - 1 with a parity column; else a scan
upward from the floor, where every shorter length falls to a bound or an
exhaustive proof.  All threshold arithmetic is exact big-integer; nothing
here rounds through floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from ._cover import (
    DEFAULT_NODE_BUDGET,
    LOCAL_SEARCH_ITERATIONS,
    CoverTable,
    _seeded_bytes,
    canonical_class,
    classes_matrix,
    cover_table,
    local_cover_search,
    multiset_cover_search,
    projective_classes,
    settle,
)
from .errors import (
    BudgetExceeded, CapExceeded, InternalContradiction, OutOfRegime, UnknownCodeLength,
)
from .field_linalg import (
    DEFAULT_ENUM_BUDGET, Field, FMatrix, code_min_distance, make_field, mat_rank,
    parity_check_matrix,
)
from .index_codes import _check_delta, generalized_independence_number, min_rank
from .instance import IcsiInstance


def sphere_volume(q: int, length: int, radius: int) -> int:
    """Number of vectors of F_q^length within Hamming distance `radius`."""
    if radius < 0:
        raise ValueError("negative radius")
    return sum(math.comb(length, i) * (q - 1) ** i for i in range(radius + 1))


def code_exists(
    q: int, k: int, d: int, length: int, node_budget: int = DEFAULT_NODE_BUDGET,
    *, _table: Optional[CoverTable] = None,
) -> Optional[FMatrix]:
    """A k x length generator of minimum distance >= d over GF(q), or None
    if none exists (exhaustively established).  Both the columns and the
    nonzero messages range over the projective classes of F_q^k.

    The search is over systematic generators only: the k unit columns are
    forced in, and the remaining length - k columns must give each message
    class z at least d - wt(z) further nonzero coordinates.  Nothing is
    lost, since a generator with d >= 1 has full rank and so has k
    independent columns B; B^-1 times it is a systematic generator of a
    code with the same weights.  A permutation of the k coordinates maps
    the unit columns onto themselves and keeps every weight and inner
    product, so the coordinate permutations are the table's symmetries:
    they prune isomorphic branches and change neither the answer nor the
    generator.  A returned generator contains the unit columns and has
    been re-verified (`_checked_generator`).  `_table` passes in the (q, k)
    table (`_code_table`) a length scan shares.
    """
    if k < 1:
        raise ValueError("dimension must be positive")
    if length < k or length < d:
        return None
    table = _table or _code_table(q, k)
    units, residual = _systematic(table, k, d)
    res = multiset_cover_search(table, residual, length - k, node_budget)
    if not res.found:
        return None
    return _checked_generator(make_field(q), table, units, res.classes, d, "the cover kernel")


def _code_table(q: int, k: int, enum_budget: int = DEFAULT_ENUM_BUDGET) -> CoverTable:
    """The cover table every length of a (q, k) code scan shares: the
    projective classes of F_q^k as columns and as messages, and the
    coordinate permutations of F_q^k, generated by a transposition and a
    k-cycle, as its symmetries; BudgetExceeded when the table needs more
    than `enum_budget` bytes."""
    moves = [(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)] if k > 1 else []
    return cover_table(make_field(q), k, None, moves, enum_budget)


def _checked_generator(
    field: Field, table: CoverTable, units: list[int], picks: Sequence[int], d: int, route: str,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> FMatrix:
    """The systematic generator of a (q, k) code table's unit columns plus
    `picks`, re-verified to have distance >= d by `code_min_distance`
    (within `enum_budget`); InternalContradiction naming `route`, the
    search that picked the columns, otherwise."""
    k = len(units)
    G = classes_matrix(field, table.columns, sorted(units + list(picks)), k)
    if code_min_distance(G, enum_budget) < d:
        raise InternalContradiction(f"{route}'s [{G.ncols}, {k}] code has distance < {d}")
    return G


def _systematic(table: CoverTable, k: int, d: int) -> tuple[list[int], list[int]]:
    """The class indices of the k unit columns of a (q, k) code table, and
    the residual quotas d - wt(z) that the other columns of a systematic
    generator must meet on each message class z."""
    units = [table.columns.index(tuple(int(r == i) for r in range(k))) for i in range(k)]
    return units, [max(0, d - sum(1 for x in z if x)) for z in table.targets]


def _griesmer_length(q: int, k: int, d: int) -> int:
    """Griesmer bound sum_{i<k} ceil(d / q^i): no linear [N, k, >= d]
    code over GF(q) is shorter."""
    return sum(-(-d // q**i) for i in range(k))


def _code_floor(q: int, k: int, d: int) -> int:
    """The larger of the Griesmer and sphere-packing bounds (the least N
    with q^(N-k) >= V_q(N, (d-1)//2)): no linear [N, k, >= d] code over
    GF(q) is shorter."""
    length = _griesmer_length(q, k, d)
    # sphere packing: q^k disjoint balls of radius (d - 1) // 2 fit in F_q^N
    while q ** (length - k) < sphere_volume(q, length, (d - 1) // 2):
        length += 1
    return length


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


def _hamming_code(field: Field, k: int) -> FMatrix:
    """The shortened Hamming code [k + r, k, 3] with r least such that
    (q^r - 1)/(q - 1) - r >= k: G = [I_k | -B^T], B's columns the first k
    points of PG(r-1, q) of weight >= 2, so no two of the k + r columns of
    its parity check [B | I_r] are dependent."""
    q, r = field.q, 1
    while (q**r - 1) // (q - 1) - r < k:
        r += 1
    points = [c for c in projective_classes(field, r) if sum(1 for x in c if x) >= 2][:k]
    return FMatrix(field, tuple(tuple(int(i == j) for j in range(k)) + tuple(map(field.neg, b))
                                for i, b in enumerate(points)), k + r)


def _parity_certifies(G: FMatrix) -> bool:
    """Whether the columns of G's parity check (`parity_check_matrix`) are
    nonzero and pairwise non-proportional: then no nonzero codeword has
    weight 1 or 2, so the distance is at least 3, in O(k * r * N) work for
    a systematic G."""
    columns = parity_check_matrix(G).transpose().rows
    return all(map(any, columns)) and len(
        {canonical_class(c, G.field) for c in columns}) == len(columns)


def _anticode_generator(field: Field, k: int, d: int, enum_budget: int) -> Optional[FMatrix]:
    """A k x N generator of distance >= d at the Griesmer bound N by the
    anticode construction (Solomon & Stiffler 1965; Belov; Hill, "Optimal
    linear codes", 1992), or None where this form of it does not apply.

    s = ceil(d / q^(k-1)) copies of PG(k-1, q) give every nonzero message
    weight s * q^(k-1).  When s * q^(k-1) - d has only digits 0 and 1 in
    base q, each 1 at digit b removes a subspace PG(b, q), which lowers
    any weight by at most q^b.  Subspaces on disjoint coordinates meet only
    in 0, so the sizes b + 1 are packed first-fit, largest first, into the
    s copies of the k coordinates; None when they do not fit.  Each
    projective class is a column as often as the copies keep it.
    BudgetExceeded where q^k exceeds `enum_budget`, before any column is
    built, as the distance check would."""
    q = field.q
    s = -(-d // q ** (k - 1))
    excess, sizes, u = s * q ** (k - 1) - d, [], 1
    while excess:
        excess, digit = divmod(excess, q)
        if digit > 1:
            return None
        if digit:
            sizes.append(u)
        u += 1
    free = [k] * s
    cuts = []  # (first, stop) coordinates of each subspace cut
    for u in reversed(sizes):
        block = next((j for j in range(s) if free[j] >= u), None)
        if block is None:
            return None
        cuts.append((k - free[block], k - free[block] + u))
        free[block] -= u
    if q**k > enum_budget:
        raise BudgetExceeded(f"{q}^{k} codewords exceed enumeration budget {enum_budget}")
    classes = projective_classes(field, k)
    picks = []
    for i, c in enumerate(classes):
        support = [j for j, x in enumerate(c) if x]
        picks += [i] * (s - sum(a <= support[0] and support[-1] < b for a, b in cuts))
    return classes_matrix(field, classes, picks, k)


def _constructed_generator(
    field: Field, k: int, d: int, enum_budget: int
) -> Optional[tuple[str, FMatrix]]:
    """(family, generator) of a classical code on the floor `_code_floor`,
    for k >= 2 and d >= 3, or None where no family below applies: the
    anticode construction on the Griesmer bound, the shortened Hamming code
    on the sphere-packing bound at d = 3, and the extended Reed-Solomon
    code on the Singleton bound k + d - 1 <= q + 1.  BudgetExceeded where
    q^k > `enum_budget`."""
    G = _anticode_generator(field, k, d, enum_budget)
    if G is not None:
        return "anticode", G
    if d == 3:
        if field.q**k > enum_budget:
            raise BudgetExceeded(f"{field.q}^{k} codewords exceed enumeration budget {enum_budget}")
        return "shortened Hamming", _hamming_code(field, k)
    if k + d - 1 <= field.q + 1:
        return "extended Reed-Solomon", mds_generator(field, k, k + d - 1)
    return None


def shortest_code(
    q: int, k: int, d: int, node_budget: int = DEFAULT_NODE_BUDGET,
    *, enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> FMatrix:
    """A verified generator of a shortest [N, k, d'] linear code with d'
    >= d: a k x N matrix of rank k, so its `ncols` is N_q[k, d].

    No code is shorter than the floor `_code_floor`.  Questions are settled
    in this order, with no table, probe, tabu run or node until the scan:
    - k <= 1 or d <= 2: I_k and floor - k all-ones columns;
    - `_constructed_generator`'s code, re-verified: the floor's length,
      rank k and a distance >= d (by `_parity_certifies` for the Hamming
      code, else `code_min_distance`), InternalContradiction naming the
      family otherwise;
    - q = 2 and even d: the code at d - 1 with a parity column (each row's
      sum), since puncturing an [N, k, d] code leaves [N - 1, k, d - 1]
      and a parity bit lifts an odd distance by one;
    - a scan from the floor up over systematic generators (`code_exists`),
      each length decided by `_cover.settle`: `code_exists` under
      LOCAL_SEARCH_ITERATIONS x classes nodes, then tabu
      (`local_cover_search`, stream `ecic:code:{q}:{k}:{d}:{length}`),
      then `code_exists` under what is left of `node_budget`, each route's
      generator re-verified (`_checked_generator`).  At the first tabu
      miss, the residual-code bound
      N_q[k, d] >= d + N_q[k - 1, ceil(d / q)] (Huffman & Pless, Thm
      2.7.1; the inner term by `shortest_code_length`, or its floor) rules
      out every length below it with no search.

    `node_budget` is spent afresh at each length and at each of the inner
    scan's (`code_exists`, which holds every kernel call, returns no node
    count); no budget charges tabu moves.  Raises NotPrimePower when q is
    no field order, and UnknownCodeLength when a length's budget runs out
    or the (q, k) cover table (`_code_table`) or the constructed
    generator's q^k messages exceed `enum_budget`.
    """
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    field = make_field(q)
    floor = _code_floor(q, k, d)
    if k <= 1 or d <= 2:  # I_k, then all-ones columns: empty, repetition, I_k, [I_k | 1]
        ones = (1,) * (floor - k)
        return FMatrix(field, tuple(r + ones for r in FMatrix.identity(field, k).rows), floor)
    residual_bound = 0  # set at the first tabu miss

    def tabu(length: int) -> tuple[Optional[FMatrix], int]:
        nonlocal residual_bound
        picks, moves = local_cover_search(
            table.hit_sets, residual, length - k, LOCAL_SEARCH_ITERATIONS,
            _seeded_bytes(f"ecic:code:{q}:{k}:{d}:{length}", 256),
        )
        if picks is not None:
            return _checked_generator(field, table, units, picks, d, "tabu", enum_budget), moves
        if not residual_bound:
            inner = _code_length_bracket(q, k - 1, -(-d // q), node_budget, enum_budget=enum_budget)
            residual_bound = d + inner[0]
        return None, moves

    def exhaustive(length: int, budget: int) -> tuple[Optional[FMatrix], int]:
        found = length >= residual_bound and code_exists(q, k, d, length, budget, _table=table)
        return found or None, 0

    try:
        built = _constructed_generator(field, k, d, enum_budget)
        if built is not None:
            family, G = built
            certified = _parity_certifies(G) if family == "shortened Hamming" else (
                code_min_distance(G, enum_budget) >= d)
            if G.ncols != floor or mat_rank(G) < k or not certified:
                raise InternalContradiction(f"the {family} generator is no [{floor}, {k}, {d}] code")
            return G
        if q == 2 and d % 2 == 0:
            try:
                G = shortest_code(q, k, d - 1, node_budget, enum_budget=enum_budget)
            except UnknownCodeLength as exc:
                raise UnknownCodeLength(q, k, d, str(exc)) from exc
            return FMatrix(field, tuple(r + (sum(r) % 2,) for r in G.rows), G.ncols + 1)
        table = _code_table(q, k, enum_budget)
        units, residual = _systematic(table, k, d)
        probe = LOCAL_SEARCH_ITERATIONS * len(table.hit_sets)
        # each identity column d times is a [k*d, k, d] code: the scan ends
        for length in range(floor, k * d + 1):
            if (G := settle(length, probe, node_budget, tabu, exhaustive)[0]) is not None:
                return G
    except (BudgetExceeded, CapExceeded) as exc:
        raise UnknownCodeLength(q, k, d, str(exc)) from exc
    raise AssertionError("shortest-length scan passed its guaranteed upper end")


def shortest_code_length(
    q: int, k: int, d: int, node_budget: int = DEFAULT_NODE_BUDGET,
    *, enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> int:
    """N_q[k, d], the length of `shortest_code`'s generator."""
    return shortest_code(q, k, d, node_budget, enum_budget=enum_budget).ncols


def _code_length_bracket(
    q: int, k: int, d: int, node_budget: int, *, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[int, int]:
    """N_q[k, d] as (lower, upper): the exact length twice, or, when the
    budgets do not settle it, the floor `_code_floor` and k * d (each
    identity column repeated d times).  The ends meet only when the length
    is known: the scan searches only at k, d >= 2, where the floor is below
    k * d."""
    try:
        length = shortest_code_length(q, k, d, node_budget=node_budget, enum_budget=enum_budget)
    except UnknownCodeLength:
        return _code_floor(q, k, d), k * d
    return length, length


def alpha_bound(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Lower bound: the shortest code of dimension alpha and distance
    2*delta + 1."""
    alpha, _ = generalized_independence_number(inst)
    return shortest_code_length(field.q, alpha, 2 * delta + 1, node_budget=node_budget)


def kappa_bound(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Upper bound: the shortest code of dimension kappa and distance
    2*delta + 1 (achieved by concatenation with an optimal plain index
    code).  `node_budget` bounds kappa's search, and the code-length scan
    per length."""
    kappa = min_rank(inst, field, node_budget).kappa
    return shortest_code_length(field.q, kappa, 2 * delta + 1, node_budget=node_budget)


def singleton_bound(
    inst: IcsiInstance, field: Field, delta: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Lower bound kappa + 2*delta (zero for the degenerate receiverless
    instance, where length 0 is feasible).  `node_budget` bounds kappa's
    search."""
    if inst.num_receivers == 0:
        return 0
    kappa = min_rank(inst, field, node_budget).kappa
    return kappa + 2 * delta


def random_coding_length(inst: IcsiInstance, field: Field, delta: int) -> int:
    """Smallest N at which a uniformly random n x N matrix is a valid
    delta-error-correcting index code with positive probability: the union
    bound sum_i q^(n - |X_i| - 1) must fall below q^N / V_q(N, 2*delta).
    Exact integer comparison throughout."""
    q = field.q
    n = inst.num_messages
    lhs = sum(q ** (n - len(x) - 1) for x in inst.side_info)
    N = 0
    while lhs * sphere_volume(q, N, 2 * delta) >= q**N:
        N += 1
    return N


class BoundsReport(NamedTuple):
    """All length bounds for one (instance, field, delta).

    Fields are None when their computation exceeded its budget, but an
    unsettled code length's bracket still serves `lower`, the best lower
    bound available, and `upper`, the concatenation bound; when
    `mds_equality` holds the two coincide at kappa + 2*delta.  With kappa
    unknown, `upper` concatenates the unit columns of the distinct demands.
    """

    q: int
    delta: int
    alpha: Optional[int]
    kappa: Optional[int]
    alpha_bound: Optional[int]
    kappa_bound: Optional[int]
    singleton: Optional[int]
    random_coding: Optional[int]
    mds_equality: Optional[bool]
    lower: Optional[int]
    upper: Optional[int]

    def to_doc(self) -> dict:
        return self._asdict()

    def to_text(self) -> str:
        rows = [
            ("alpha", self.alpha),
            ("kappa", self.kappa),
            ("alpha bound (lower)", self.alpha_bound),
            ("singleton (lower)", self.singleton),
            ("kappa bound (upper)", self.kappa_bound),
            ("random coding (upper, existential)", self.random_coding),
            ("mds equality", self.mds_equality),
            ("lower", self.lower),
            ("upper", self.upper),
        ]
        width = max(len(k) for k, _ in rows)
        fmt = lambda v: "unknown" if v is None else str(v)
        lines = [f"bounds for q={self.q}, delta={self.delta}"]
        lines += [f"  {k.ljust(width)}  {fmt(v)}" for k, v in rows]
        return "\n".join(lines)


def bounds_report(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    _enum_budget: int = DEFAULT_ENUM_BUDGET,
    _table: Optional[CoverTable | BudgetExceeded] = None,
) -> BoundsReport:
    """Assemble every bound, leaving fields unknown (None) rather than
    failing when a computation runs out of budget.  `node_budget` bounds
    kappa's search, and each code scan afresh per length and per inner scan
    (`shortest_code_length`); no budget charges tabu moves.
    `optimal_length_search` takes its bracket from here: its
    `_enum_budget` bounds every table built, and `_table` is its (instance,
    q) cover table or its analysis's BudgetExceeded (`min_rank`'s)."""
    _check_delta(delta)
    d = 2 * delta + 1
    alpha = kappa = None
    try:
        alpha, _ = generalized_independence_number(inst)
    except (BudgetExceeded, CapExceeded):
        pass
    try:
        kappa = min_rank(inst, field, node_budget, enum_budget=_enum_budget, _table=_table).kappa
    except (BudgetExceeded, CapExceeded):
        pass
    # without kappa, concatenate the unit columns of the distinct demands
    inner = len(set(inst.demands)) if kappa is None else kappa
    # alpha and kappa are often equal: one scan per distinct dimension
    brackets = {k: _code_length_bracket(field.q, k, d, node_budget, enum_budget=_enum_budget)
                for k in sorted({alpha, inner} - {None})}
    a_low, a_high = brackets.get(alpha, (None, None))
    k_low, k_high = brackets.get(kappa, (None, None))
    if kappa is None:
        singleton = None
        mds = None
    else:
        singleton = 0 if inst.num_receivers == 0 else kappa + 2 * delta
        # the regimes of `mds_generator`: identity, repetition, extended RS
        mds = kappa >= 1 and (delta == 0 or kappa == 1 or kappa + 2 * delta <= field.q + 1)
    random_len = random_coding_length(inst, field, delta)
    lower_candidates = [v for v in (a_low, singleton) if v is not None]
    lower = max(lower_candidates) if lower_candidates else None
    return BoundsReport(
        q=field.q,
        delta=delta,
        alpha=alpha,
        kappa=kappa,
        alpha_bound=a_low if a_low == a_high else None,
        kappa_bound=k_low if k_low == k_high else None,
        singleton=singleton,
        random_coding=random_len,
        mds_equality=mds,
        lower=lower,
        upper=brackets[inner][1],
    )
