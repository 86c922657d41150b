"""Backtracking search for column multisets meeting per-target hit quotas.

Shared kernel behind the existence searches: a candidate matrix is a
multiset of N column classes (columns identified up to nonzero scaling),
and each target t must be hit -- have a nonzero inner product -- by at
least quotas[t] of the chosen columns.  Columns are enumerated in
non-decreasing class order, so every multiset is visited exactly once, by
one serial depth-first search whose every node is charged to one node
budget.

The hit table is packed once, by `class_table`: class c's row is one int
whose byte t is 1 if c hits target t and 0 if not, so a row's `bit_count()`
is the number of targets it hits.  `PackedRows` computes the products, as
it does every other GF(q) combination.  Every search reads these rows as
they are.  Per-target hit counts and quotas use the same eight-bit lanes,
so a pick adds its row to the counts, and the per-target prune ("some
target cannot reach its quota even if every remaining pick hits it,
counting only classes still allowed") is a single SWAR comparison.
Counts, quotas and prune bounds never exceed the multiset size, so that
size is capped at 120 to keep every packed byte below 128, where the
byte-wise comparison is exact.

Deficit bound: the deficit D = sum_t max(0, quota_t - hits_t) is carried
down the search, exactly (a pick lowers it by the number of still-short
targets it hits), so D = 0 is the satisfaction test.  A pick of a class with
hit set H lowers D by at most |H|, and visit order sorts classes by
non-increasing |H|, so a node with r picks left whose picks may start at
class s is infeasible when D > r * |H_s|.  Every child is tested this way
(with the per-target prune) in its parent's loop before any recursion, and
the sibling loop stops at the first class where the parent's D exceeds r
times its size, since every later sibling fails too; those siblings are not
counted as nodes.  First picks are always counted.  The bound removes only
subtrees that hold no feasible multiset, so the first feasible multiset in
visit order, and with it the witness, is the one an unpruned scan returns.

Symmetry: when a group of class permutations maps hit sets onto hit sets
(under a matching permutation of targets with equal quotas), a multiset is
feasible iff its image is.  Given the group's class orbits, the scan skips
every first pick that has an earlier class (in visit order) in its orbit.
This stays exhaustive: if some feasible multiset has smallest class c0 and
g maps c0 to an earlier class, the feasible image g(M) has a smaller first
pick, so the earliest first pick whose subtree holds a feasible multiset is
always an orbit representative.  For the same reason the witness returned
is the one the unpruned scan returns.

`local_cover_search` is the heuristic beside this exhaustive kernel: a
tabu search on the same packed rows, counts and deficit that finds witnesses
fast and proves nothing when it misses.  `descend` walks lengths down with
the two, for the optimal-length scan and for kappa alike; its docstring
holds the policy.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceeded, CapExceeded
from .field_linalg import DEFAULT_ENUM_BUDGET, Field, FMatrix, PackedRows

_WIDTH = 8
_MAX_SIZE = 120
DEFAULT_NODE_BUDGET = 1 << 27


@dataclass(frozen=True)
class CoverResult:
    found: bool
    classes: tuple[int, ...] | None  # multiset of class indices, non-decreasing
    nodes: int


def projective_classes(field: Field, n: int) -> list[tuple[int, ...]]:
    """Representatives of the nonzero vectors of F_q^n up to scaling: first
    nonzero coordinate normalized to 1, ordered lexicographically."""
    reps = []
    for lead in range(n):
        for tail in itertools.product(field.elements(), repeat=n - lead - 1):
            reps.append((0,) * lead + (1,) + tail)
    return reps


def class_table(
    field: Field, n: int, targets: Sequence[tuple[int, ...]] | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[list[tuple[int, ...]], list[int]]:
    """The projective classes of F_q^n and each one's packed hit row over
    the targets (the classes themselves when `targets` is None): an int
    whose byte t is 1 if the class has a nonzero inner product with target
    t, else 0.  Row j of the packed rows holds every target's j-th entry,
    so a class's products with all targets are one lane sum, and its hit
    row is that sum's support.  BudgetExceeded is raised before anything
    is built when classes x targets exceeds `budget`, so the rows hold at
    most `budget` bytes."""
    count = (field.q**n - 1) // (field.q - 1)
    width = count if targets is None else len(targets)
    if count * width > budget:
        raise BudgetExceeded(f"{count} column classes x {width} targets exceed budget {budget}")
    columns = projective_classes(field, n)
    targets = columns if targets is None else targets
    lanes = PackedRows(field, [[z[j] for z in targets] for j in range(n)], len(targets))
    multiples = [lanes.multiples(j) for j in range(n)]
    sums = (lanes.lane_sum([multiples[j][a] for j, a in enumerate(col) if a]) for col in columns)
    return columns, [int.from_bytes(lanes.support(s), "little") for s in sums]


def classes_matrix(
    field: Field, columns: Sequence[tuple[int, ...]], picks: Sequence[int], nrows: int
) -> FMatrix:
    """The nrows x len(picks) matrix whose columns are the picked classes."""
    rows = tuple(tuple(columns[c][r] for c in picks) for r in range(nrows))
    return FMatrix(field, rows, len(picks))


def canonical_class(vec: Sequence[int], field: Field) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next(x for x in vec if x)
    if lead == 1:
        return tuple(vec)
    c = field.inv(lead)
    mul = field._mul
    return tuple(mul[c][x] for x in vec)


def class_permutation(
    field: Field, classes: Sequence[tuple[int, ...]], perm: Sequence[int]
) -> list[int]:
    """Where each class goes when coordinate j is moved to perm[j].  The
    class list must be closed under that coordinate permutation."""
    index = {c: i for i, c in enumerate(classes)}
    out = []
    for c in classes:
        moved = [0] * len(c)
        for j, x in enumerate(c):
            moved[perm[j]] = x
        out.append(index[canonical_class(moved, field)])
    return out


def class_orbits(num_classes: int, permutations: Iterable[Sequence[int]]) -> list[int]:
    """Orbit label per class under the group the permutations generate: the
    smallest class index in its orbit."""
    parent = list(range(num_classes))

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for perm in permutations:
        for c, image in enumerate(perm):
            a, b = root(c), root(image)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [root(c) for c in range(num_classes)]


def _lanes(values: Sequence[int]) -> int:
    """values[t] (each 0..255) packed into byte t."""
    return int.from_bytes(bytes(values), "little")


def _visit_order(hit_sets: Sequence[int]) -> list[int]:
    """High-coverage classes first; ties by original index."""
    return sorted(range(len(hit_sets)), key=lambda c: (-hit_sets[c].bit_count(), c))


def multiset_cover_search(
    hit_sets: Sequence[int],
    quotas: Sequence[int],
    size: int,
    node_budget: int,
    *,
    orbits: Sequence[int] | None = None,
) -> CoverResult:
    """Decide whether some size-`size` multiset of classes hits every
    target t at least quotas[t] >= 0 times.

    hit_sets[c] is class c's packed hit row (see `class_table`).
    Exhaustive unless the node budget trips (then BudgetExceeded carries
    the node count); a returned found=False is a proof of infeasibility.
    `orbits`, if given, labels each class with its orbit under a group of
    symmetries of the instance (see the module docstring); first picks
    that are not orbit representatives are skipped, and the outcome and
    witness do not change.
    """
    need = max(quotas, default=0)
    if need <= 0:
        fill = _trivial_fill(hit_sets, size)
        return CoverResult(fill is not None, fill, 0)
    if size > _MAX_SIZE:
        raise CapExceeded(f"multiset size {size} exceeds packed-count cap {_MAX_SIZE}")
    if need > size:
        return CoverResult(False, None, 0)  # each target gets at most one hit per pick

    order = _visit_order(hit_sets)
    adds = [hit_sets[c] for c in order]
    # non-increasing along visit order, so a deficit bound at one class holds
    # for every later one
    sizes = [h.bit_count() for h in adds]
    high = _lanes([0x80] * len(quotas))
    thresh_low = _lanes(quotas)
    # live_low[s]: packed 1 per target hit by some class with index >= s
    live_low = [0] * (len(order) + 1)
    for s in range(len(order) - 1, -1, -1):
        live_low[s] = live_low[s + 1] | adds[s]
    nodes = 0
    path: list[int] = []

    def dfs(picks: Iterable[int], rem: int, cnt: int, deficit: int, cut: bool = True) -> bool:
        """Try each class of `picks` as the next of `rem` picks below a node
        with hit counts `cnt` that passed every check.  With `cut`, stop at
        the first class from which no `rem` picks close the deficit."""
        nonlocal nodes
        # (cnt | high) - thresh_low never borrows across bytes, so this marks
        # exactly the targets still short of their quota.
        short_low = (high ^ (((cnt | high) - thresh_low) & high)) >> (_WIDTH - 1)
        below = rem - 1  # picks left under a child
        for c in picks:
            if cut and deficit > rem * sizes[c]:
                break
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded("cover search node budget exhausted", nodes=nodes)
            left = deficit - (short_low & adds[c]).bit_count()
            if not left:
                path.extend([c] * rem)
                return True
            if left > below * sizes[c]:  # every leaf too, since left > 0
                continue
            # bound: every remaining pick hits each still-coverable target
            child = cnt + adds[c]
            ub = child + below * live_low[c]
            if ((ub | high) - thresh_low) & high != high:
                continue
            path.append(c)
            if dfs(range(c, len(adds)), below, child, left):
                return True
            path.pop()
        return False

    # First picks: one class per orbit, the earliest in visit order.  The
    # root is not cut: every one of them counts as a node, so orbit pruning
    # shows in the count even where the bound refutes the whole scan.
    seen: set[int] = set()
    firsts = []
    for i, c in enumerate(order):
        label = c if orbits is None else orbits[c]
        if label not in seen:
            firsts.append(i)
            seen.add(label)
    if not dfs(firsts, size, 0, sum(quotas), cut=False):
        return CoverResult(False, None, nodes)
    return CoverResult(True, tuple(sorted(order[i] for i in path)), nodes)


def _trivial_fill(hit_sets: Sequence, size: int) -> tuple[int, ...] | None:
    if size == 0:
        return ()
    if not hit_sets:
        return None
    return (0,) * size


# ---------------------------------------------------------------------------
# local search

_TABU_TENURE = 7
# tabu moves tried per length before an exhaustive search takes over
LOCAL_SEARCH_ITERATIONS = 128


def _seeded_bytes(key: str, q: int) -> Iterator[int]:
    """Counter-mode SHA-256 stream keyed `{key}:{counter}`.  Bytes at or
    above the largest multiple of q are rejected, so each kept byte is
    uniform mod q."""
    limit = (256 // q) * q
    for counter in itertools.count():
        block = hashlib.sha256(f"{key}:{counter}".encode()).digest()
        yield from (b for b in block if b < limit)


def _draw(stream: Iterator[int], n: int) -> int:
    """An index below n from two stream bytes (0..255 each); near uniform
    for the move lists the local search draws from."""
    if n == 1:
        return 0
    return ((next(stream) << 8) | next(stream)) % n


def local_cover_search(
    hit_sets: Sequence[int],
    quotas: Sequence[int],
    size: int,
    iterations: int,
    stream: Iterator[int],
) -> tuple[tuple[int, ...] | None, int]:
    """Tabu search for a size-`size` multiset of classes meeting every
    quota, as in covering-code constructions (Östergård 1997).  Returns
    (classes, moves made); classes is None when `iterations` moves found
    none.  A heuristic: a miss proves nothing, which is what
    `multiset_cover_search` is for.

    The state is a multiset with its packed hit counts, and the cost is the
    total deficit D of the exhaustive kernel.  A move swaps one picked
    class a for a class b.  With the targets still short of their quota
    and those exactly at it as bitsets, D' = D + |H_a & (short | exact)|
    - |H_b & (short | (H_a & exact))|.  Each move is a best one among those
    whose b was not swapped out in the last _TABU_TENURE moves, or that
    reaches D' = 0.  The start is greedy (each pick hits the most
    still-short targets).  Ties are broken by `stream`, an iterator of
    bytes 0..255, so a run is determined by it.
    """
    need = max(quotas, default=0)
    if need <= 0:
        return _trivial_fill(hit_sets, size), 0
    if need > size or size > _MAX_SIZE or not hit_sets:
        return None, 0
    high = _lanes([0x80] * len(quotas))
    thresh = _lanes(quotas)
    ones = high >> (_WIDTH - 1)

    def below(cnt: int, limit: int) -> int:
        """Packed 1 per target whose count is below its packed limit."""
        return (high ^ (((cnt | high) - limit) & high)) >> (_WIDTH - 1)

    picks: list[int] = []
    cnt, deficit = 0, sum(quotas)
    for _ in range(size):
        short = below(cnt, thresh)
        gains = [(h & short).bit_count() for h in hit_sets]
        top = max(gains)
        best = [c for c, g in enumerate(gains) if g == top]
        c = best[_draw(stream, len(best))]
        picks.append(c)
        cnt += hit_sets[c]
        deficit -= top
    removed: list[int] = []  # the class each move took out, in order
    for it in range(1, iterations + 1):
        if not deficit:
            return tuple(sorted(picks)), it - 1
        short = below(cnt, thresh)
        at_most = below(cnt, thresh + ones)  # short or exactly at quota
        tabu = set(removed[-_TABU_TENURE:])
        best_cost = None
        moves: list[tuple[int, int]] = []
        for a in sorted(set(picks)):
            lost = hit_sets[a] & at_most
            base = deficit + lost.bit_count()  # D after taking a out
            open_ = short | lost
            gains = [(h & open_).bit_count() for h in hit_sets]
            gains[a] = -1
            for b in tabu:
                if gains[b] != base:  # a tabu move must reach D' = 0
                    gains[b] = -1
            top = max(gains)
            if top < 0 or (best_cost is not None and base - top > best_cost):
                continue
            if best_cost is None or base - top < best_cost:
                best_cost, moves = base - top, []
            moves += [(a, b) for b, g in enumerate(gains) if g == top]
        if not moves:
            break
        a, b = moves[_draw(stream, len(moves))]
        picks[picks.index(a)] = b
        cnt += hit_sets[b] - hit_sets[a]
        deficit = best_cost
        removed.append(a)
    if not deficit:
        return tuple(sorted(picks)), iterations
    return None, iterations


# ---------------------------------------------------------------------------
# the witness-first descent


@dataclass(frozen=True)
class Descent:
    size: int  # the shortest length with a witness, or `known`
    witness: Any  # the witness at `size`; None when `size` is `known`
    nodes: int  # exhaustive nodes, tripped probes included
    moves: int  # tabu moves


def descend(
    hit_sets: Sequence[int], quotas: Sequence[int],
    top: int, bottom: int, known: int, node_budget: int, key: str,
    witness: Callable[[tuple[int, ...]], Any],
    exhaustive: Callable[[int, int], tuple[Any, int]],
) -> Descent:
    """The shortest length in `bottom`..`known` at which some multiset of
    classes meets `quotas`, given that `known` is feasible and nothing below
    `bottom` is.  Feasibility is monotone in the length (an added pick
    lowers no count), so the answer needs one witness and one proof.

    The lengths are tried from `top` down.  At each, a tabu search
    (`local_cover_search`, LOCAL_SEARCH_ITERATIONS moves, tie-breaks from
    the stream keyed `{key}:{length}`) looks for a multiset, which
    `witness(classes)` turns into the caller's witness.  Where it finds
    none, `exhaustive(length, budget)` decides the length, returning
    (witness or None, nodes) or raising BudgetExceeded: None ends the
    descent one length above, with this length as the proof.  Reaching
    `bottom` ends it too.  At `bottom`, when the descent started above it,
    a tabu miss is the common case and proves nothing, so `exhaustive` goes
    first there under one tabu run's work of nodes
    (LOCAL_SEARCH_ITERATIONS x classes); tabu and the full search follow
    only if that probe trips.  A probe cut short by the budget itself ends
    the descent at once.

    Every exhaustive node, a tripped probe's included, is charged to
    `node_budget`.  On its exhaustion the raised BudgetExceeded carries
    every node spent and the bracket: infeasible below `bottom`, feasible
    at the shortest length found (or `known`).
    """
    size, best = known, None
    nodes = moves = 0
    for length in range(top, bottom - 1, -1):
        try:
            spent = None  # until the length is settled
            if bottom == length < top:
                budget = min(LOCAL_SEARCH_ITERATIONS * len(hit_sets), node_budget - nodes)
                try:
                    found, spent = exhaustive(length, budget)
                except BudgetExceeded as exc:
                    if budget == node_budget - nodes:
                        raise
                    nodes += exc.nodes
            if spent is None:
                classes, made = local_cover_search(
                    hit_sets, quotas, length, LOCAL_SEARCH_ITERATIONS,
                    _seeded_bytes(f"{key}:{length}", 256),
                )
                moves += made
                if classes is not None:
                    found, spent = witness(classes), 0
                else:
                    found, spent = exhaustive(length, node_budget - nodes)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"budget exhausted at length {length}; "
                f"infeasible below {bottom}, feasible at {size}",
                nodes=nodes + (exc.nodes or 0), infeasible_below=bottom, feasible_at=size,
            ) from exc
        nodes += spent
        if found is None:
            break
        size, best = length, found
    return Descent(size, best, nodes, moves)
