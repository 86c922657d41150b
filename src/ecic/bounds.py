"""Bounds on the optimal length of an error-correcting index code.

Four length bounds for correcting delta errors: two derived from the
shortest classical code of a given dimension and distance (applied at the
generalized independence number and at the min-rank), the Singleton-style
bound kappa + 2*delta, and the smallest length at which a uniformly random
matrix works with positive probability.  Shortest code lengths come from an
exhaustive scan over systematic generators that starts at the Griesmer
bound, so every length below the answer is ruled out by that bound or by
exhaustion.  All threshold
arithmetic is exact big-integer; nothing here rounds through floats.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from ._cover import DEFAULT_NODE_BUDGET, class_table, classes_matrix, multiset_cover_search
from .errors import BudgetExceeded, CapExceeded, UnknownCodeLength
from .field_linalg import Field, FMatrix, make_field
from .index_codes import (
    DEFAULT_ALPHA_VERTEX_CAP,
    _check_delta,
    generalized_independence_number,
    min_rank,
)
from .instance import IcsiInstance


def sphere_volume(q: int, length: int, radius: int) -> int:
    """Number of vectors of F_q^length within Hamming distance `radius`."""
    if radius < 0:
        raise ValueError("negative radius")
    return sum(math.comb(length, i) * (q - 1) ** i for i in range(radius + 1))


def code_exists(q: int, k: int, d: int, length: int, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exhaustively decide whether a linear [length, k, >= d] code over GF(q)
    exists, via column-multiset search."""
    return find_code_generator(q, k, d, length, node_budget) is not None


def find_code_generator(
    q: int, k: int, d: int, length: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Optional[FMatrix]:
    """A k x length generator of minimum distance >= d, or None if none
    exists (exhaustively established).  Both the columns and the nonzero
    messages range over the projective classes of F_q^k.

    The search is over systematic generators only: the k unit columns are
    forced in, and the remaining length - k columns must give each message
    class z at least d - wt(z) further nonzero coordinates.  Nothing is
    lost, since a generator with d >= 1 has full rank and so has k
    independent columns B; B^-1 times it is a systematic generator of a
    code with the same weights.  A returned generator contains the unit
    columns.
    """
    if k < 1:
        raise ValueError("dimension must be positive")
    if length < k or length < d:
        return None
    field = make_field(q)
    classes, hit_sets = class_table(field, k)
    units = [classes.index(tuple(int(r == i) for r in range(k))) for i in range(k)]
    residual = [max(0, d - sum(1 for x in z if x)) for z in classes]
    res = multiset_cover_search(hit_sets, residual, length - k, node_budget)
    if not res.found:
        return None
    return classes_matrix(field, classes, sorted(units + list(res.classes)), k)


def _griesmer_length(q: int, k: int, d: int) -> int:
    """Griesmer bound sum_{i<k} ceil(d / q^i): no linear [N, k, >= d]
    code over GF(q) is shorter."""
    return sum(-(-d // q**i) for i in range(k))


def shortest_code_length(q: int, k: int, d: int, node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Exact length of the shortest [N, k, d'] linear code with d' >= d.

    Scans lengths upward from the Griesmer bound sum_{i<k} ceil(d / q^i),
    which holds for every linear code, deciding each by exhaustive
    column-multiset search over systematic generators (see
    `find_code_generator`: every code with d >= 1 has one, so each "no" is
    still a proof for all linear codes).  For k <= 1 or d = 1 the bound is
    attained (by the empty, repetition and identity codes) and is returned
    without search.
    Raises UnknownCodeLength when the node budget runs out mid-scan.
    """
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    griesmer = _griesmer_length(q, k, d)
    if k <= 1 or d == 1:
        return griesmer
    # identity columns repeated d times give an [k*d, k, d] code, so the
    # scan below terminates
    try:
        for length in range(griesmer, k * d + 1):
            if code_exists(q, k, d, length, node_budget):
                return length
    except (BudgetExceeded, CapExceeded) as exc:
        raise UnknownCodeLength(q, k, d, str(exc)) from exc
    raise AssertionError("shortest-length scan passed its guaranteed upper end")


def alpha_bound(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    vertex_cap: int = DEFAULT_ALPHA_VERTEX_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Lower bound: the shortest code of dimension alpha and distance
    2*delta + 1."""
    alpha, _ = generalized_independence_number(inst, vertex_cap)
    return shortest_code_length(field.q, alpha, 2 * delta + 1, node_budget=node_budget)


def kappa_bound(
    inst: IcsiInstance,
    field: Field,
    delta: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Upper bound: the shortest code of dimension kappa and distance
    2*delta + 1 (achieved by concatenation with an optimal plain index
    code).  `node_budget` bounds kappa's search and the code-length scan
    each."""
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


@dataclass(frozen=True)
class BoundsReport:
    """All length bounds for one (instance, field, delta).

    Fields are None when their computation exceeded its budget.  `lower`
    is the best lower bound available, `upper` the concatenation bound;
    when `mds_equality` holds the two coincide at kappa + 2*delta.
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
        return {
            "q": self.q,
            "delta": self.delta,
            "alpha": self.alpha,
            "kappa": self.kappa,
            "alpha_bound": self.alpha_bound,
            "kappa_bound": self.kappa_bound,
            "singleton": self.singleton,
            "random_coding": self.random_coding,
            "mds_equality": self.mds_equality,
            "lower": self.lower,
            "upper": self.upper,
        }

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
    vertex_cap: int = DEFAULT_ALPHA_VERTEX_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BoundsReport:
    """Assemble every bound, leaving fields unknown (None) rather than
    failing when an individual computation runs out of budget."""
    _check_delta(delta)
    d = 2 * delta + 1
    alpha = kappa = None
    try:
        alpha, _ = generalized_independence_number(inst, vertex_cap)
    except (BudgetExceeded, CapExceeded):
        pass
    try:
        kappa = min_rank(inst, field, node_budget).kappa
    except (BudgetExceeded, CapExceeded):
        pass

    @functools.cache  # alpha and kappa are often equal: one scan per distinct dimension
    def code_len(k: Optional[int]) -> Optional[int]:
        if k is None:
            return None
        try:
            return shortest_code_length(field.q, k, d, node_budget=node_budget)
        except UnknownCodeLength:
            return None

    a_bound = code_len(alpha)
    k_bound = code_len(kappa)
    if kappa is None:
        singleton = None
        mds = None
    else:
        singleton = 0 if inst.num_receivers == 0 else kappa + 2 * delta
        mds = field.q >= kappa + 2 * delta - 1
    random_len = random_coding_length(inst, field, delta)
    lower_candidates = [v for v in (a_bound, singleton) if v is not None]
    lower = max(lower_candidates) if lower_candidates else None
    return BoundsReport(
        q=field.q,
        delta=delta,
        alpha=alpha,
        kappa=kappa,
        alpha_bound=a_bound,
        kappa_bound=k_bound,
        singleton=singleton,
        random_coding=random_len,
        mds_equality=mds,
        lower=lower,
        upper=k_bound,
    )
