"""Backtracking search for column multisets meeting per-target hit quotas.

Shared kernel behind the existence searches: a candidate matrix is a
multiset of N column classes (columns identified up to nonzero scaling),
and each target t must be hit -- have a nonzero inner product -- by at
least quotas[t] of the chosen columns.  Columns are enumerated in
non-decreasing class order, so every multiset is visited exactly once.

Per-target hit counts and quotas are packed eight bits per target into big
integers; the per-target prune ("some target cannot reach its quota even if
every remaining pick hits it, counting only classes still allowed") is a
single SWAR comparison.  Counts, quotas and prune bounds never exceed the
multiset size, so that size is capped at 120 to keep every packed byte below
128, where the byte-wise comparison is exact.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceeded, CapExceeded
from .field_linalg import Field, FMatrix

_WIDTH = 8
_MAX_SIZE = 120


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


def class_hit_sets(
    field: Field, columns: Sequence[tuple[int, ...]], targets: Sequence[tuple[int, ...]]
) -> list[frozenset[int]]:
    """For each column class, the indices of the targets it has a nonzero
    inner product with."""
    add, mul = field._add, field._mul
    out = []
    for col in columns:
        support = [(j, a) for j, a in enumerate(col) if a]
        hits = []
        for ti, z in enumerate(targets):
            acc = 0
            for j, a in support:
                if z[j]:
                    acc = add[acc][mul[a][z[j]]]
            if acc:
                hits.append(ti)
        out.append(frozenset(hits))
    return out


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


def _packed(indices: Iterable[int]) -> int:
    acc = 0
    for i in indices:
        acc |= 1 << (_WIDTH * i)
    return acc


def _visit_order(hit_sets: Sequence) -> list[int]:
    """High-coverage classes first; ties by original index."""
    return sorted(range(len(hit_sets)), key=lambda c: (-len(hit_sets[c]), c))


class _Kernel:
    """Packed tables plus the depth-first search over one class range."""

    def __init__(
        self, hit_sets: Sequence, quotas: Sequence[int], size: int,
        orbits: Sequence[int] | None = None,
    ):
        self.order = _visit_order(hit_sets)
        self.adds = [_packed(sorted(hit_sets[c])) for c in self.order]
        # non-increasing along visit order, so a deficit bound at one class
        # holds for every later one
        self.sizes = [len(hit_sets[c]) for c in self.order]
        self.size = size
        self.high = _packed(range(len(quotas))) << (_WIDTH - 1)
        self.thresh_low = sum(need << (_WIDTH * t) for t, need in enumerate(quotas))
        self.deficit = sum(quotas)
        # live_low[s]: packed 1 per target hit by some class with index >= s
        self.live_low = [0] * (len(self.order) + 1)
        alive: set[int] = set()
        for s in range(len(self.order) - 1, -1, -1):
            alive |= set(hit_sets[self.order[s]])
            self.live_low[s] = _packed(sorted(alive))
        # first_ok[s]: no class before s in visit order shares its orbit
        seen: set[int] = set()
        self.first_ok = []
        for c in self.order:
            label = c if orbits is None else orbits[c]
            self.first_ok.append(label not in seen)
            seen.add(label)

    def scan(self, first_lo: int, first_hi: int, node_budget: int) -> tuple[bool, list[int], int]:
        """Exhaust all multisets whose smallest class index (in visit order)
        lies in [first_lo, first_hi), skipping first picks that are not
        orbit representatives."""
        adds, live_low, sizes = self.adds, self.live_low, self.sizes
        high, thresh_low = self.high, self.thresh_low
        nodes = 0
        path: list[int] = []

        def dfs(picks: Iterable[int], rem: int, cnt: int, deficit: int, cut: bool = True) -> bool:
            """Try each class of `picks` as the next of `rem` picks below a
            node with hit counts `cnt` that passed every check.  With `cut`,
            stop at the first class from which no `rem` picks close the
            deficit."""
            nonlocal nodes
            # (cnt | high) - thresh_low never borrows across bytes, so this
            # marks exactly the targets still short of their quota.
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

        # The root is not cut: every orbit-representative first pick counts as
        # a node, so orbit pruning shows in the count even where the bound
        # refutes the whole scan.
        firsts = [c for c in range(first_lo, min(first_hi, len(adds))) if self.first_ok[c]]
        if dfs(firsts, self.size, 0, self.deficit, cut=False):
            return True, path, nodes
        return False, [], nodes


_WORKER_ARGS: dict = {}


def _init_worker(hit_sets, quotas, size, orbits, node_budget):
    _WORKER_ARGS["kernel"] = _Kernel(hit_sets, quotas, size, orbits)
    _WORKER_ARGS["budget"] = node_budget


def _run_chunk(bounds: tuple[int, int]):
    kernel: _Kernel = _WORKER_ARGS["kernel"]
    try:
        return kernel.scan(bounds[0], bounds[1], _WORKER_ARGS["budget"])
    except BudgetExceeded as exc:
        return False, [], exc.nodes  # budget + 1, so the merged total trips too


def multiset_cover_search(
    hit_sets: Sequence[frozenset[int] | set[int]],
    quotas: Sequence[int],
    size: int,
    node_budget: int,
    jobs: int = 1,
    orbits: Sequence[int] | None = None,
) -> CoverResult:
    """Decide whether some size-`size` multiset of classes hits every
    target t at least quotas[t] >= 0 times.

    hit_sets[c] lists the target indices class c hits.  Exhaustive unless
    the node budget trips (then BudgetExceeded carries the node count); a
    returned found=False is a proof of infeasibility.  `orbits`, if given,
    labels each class with its orbit under a group of symmetries of the
    instance (see the module docstring); first picks that are not orbit
    representatives are skipped, and the outcome and witness do not change.
    With jobs > 1 the first-class subtrees are split into contiguous chunks
    searched in parallel and merged in serial order, charging each chunk's
    nodes to one running total; the outcome, the witness and where the node
    budget trips are identical to the serial scan.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    need = max(quotas, default=0)
    if need <= 0:
        return CoverResult(True, _trivial_fill(hit_sets, size), 0)
    if size > _MAX_SIZE:
        raise CapExceeded(f"multiset size {size} exceeds packed-count cap {_MAX_SIZE}")
    if need > size:
        return CoverResult(False, None, 0)  # each target gets at most one hit per pick

    num_classes = len(hit_sets)
    if jobs > 1 and num_classes > 1:
        found, path, nodes = _scan_parallel(hit_sets, quotas, size, orbits, node_budget, jobs)
    else:
        kernel = _Kernel(hit_sets, quotas, size, orbits)
        found, path, nodes = kernel.scan(0, num_classes, node_budget)
    if not found:
        return CoverResult(False, None, nodes)
    order = _visit_order(hit_sets)
    return CoverResult(True, tuple(sorted(order[c] for c in path)), nodes)


def _scan_parallel(hit_sets, quotas, size, orbits, node_budget, jobs):
    import multiprocessing

    num_classes = len(hit_sets)
    chunks = []
    per = max(1, num_classes // (jobs * 4))
    lo = 0
    while lo < num_classes:
        chunks.append((lo, min(lo + per, num_classes)))
        lo += per
    ctx = multiprocessing.get_context()
    with ctx.Pool(
        jobs,
        initializer=_init_worker,
        initargs=(tuple(map(frozenset, hit_sets)), quotas, size, orbits, node_budget),
    ) as pool:
        # Merged in serial order, the running total is the serial scan's node
        # count at the end of each chunk, so the budget trips exactly where
        # the serial scan's would.
        nodes = 0
        for found, path, chunk_nodes in pool.imap(_run_chunk, chunks):
            nodes += chunk_nodes
            if nodes > node_budget:
                pool.terminate()
                raise BudgetExceeded("cover search node budget exhausted", nodes=node_budget + 1)
            if found:
                pool.terminate()
                return True, path, nodes
    return False, [], nodes


def _trivial_fill(hit_sets: Sequence, size: int) -> tuple[int, ...] | None:
    if size == 0:
        return ()
    if not hit_sets:
        return None
    return (0,) * size
