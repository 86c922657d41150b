"""Backtracking search for column multisets meeting per-target hit quotas.

Shared kernel behind the existence searches: a candidate matrix is a
multiset of N column classes (columns identified up to nonzero scaling),
and each target t must be hit -- have a nonzero inner product -- by at
least quotas[t] of the chosen columns.  Columns are enumerated in
non-decreasing class order, so every multiset is visited exactly once, by
one serial depth-first search whose every node is charged to one node
budget.

Every search reads one `CoverTable`, built once per (instance, q) and per
(q, k) of a code scan by `cover_table`: the column classes, the targets,
their hit rows and the symmetries, with the kernel's visit order and masks
made on its first search.  Class c's row is
one int whose byte t is 1 if c hits target t and 0 if not, so a row's
`bit_count()` is the number of targets it hits; `PackedRows` computes the
products, as it does every other GF(q) combination (`class_table`).
Per-target hit counts and quotas use the same eight-bit lanes, so a pick
adds its row to the counts, and the per-target prune ("some target cannot
reach its quota even if every remaining pick hits it, counting only
classes still allowed") is a single SWAR comparison.  Counts, quotas and
prune bounds never exceed the multiset size, so that size is capped at 120
to keep every packed byte below 128, where the byte-wise comparison is
exact.

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

Symmetry (isomorph rejection at every depth, as in code classification:
Kaski & Östergård 2006): a symmetry is a class permutation g that maps hit
sets onto hit sets under a permutation of targets with equal quotas, so a
multiset M is feasible iff g(M) is.  Given a list of symmetries, a child c
below picks P is skipped when some listed g fixes every class of P and
sends c to an earlier class in visit order.  At the root P is empty and
this skips every first pick that is not the earliest of its orbit.  The
rule keeps the first feasible multiset M in visit order: if g fixes M's
first d picks and sent its pick c_d earlier, the feasible g(M) would
contain those picks and a class before c_d, so sorted it would come before
M.  Nothing in that argument needs the list to be a group, so any subset
of the symmetries is exact too: the answer, the witness and every proof
stay those of the unpruned scan, and only node counts fall.  The work is
bounded by the list's length, never by a stabilizer's size: per visit
position two bitmasks over the list mark the symmetries that fix the
class and those that send it earlier (made once per table, with the
visit order), and a node carries the bitmask of those fixing all its
picks (the pointwise stabilizer, as one int).  The first time a search
meets a stabilizer it ANDs it with every class's mask into one byte per
class, kept for the search, and a node with that stabilizer reads its
children through those bytes.  Stabilizers are few: at most 120 in one
search of the questions measured, 0.3 MB with their keys (N_2[12, 8, 3]
under the 40,319 permutations of S_8).  `cover_table` cuts the list at
its enumeration budget (`class_symmetries`); the rule runs at every
depth, which measured faster than stopping it at depth 1, 2, 3 or 4.

`local_cover_search` is the heuristic beside this exhaustive kernel: a
tabu search on the same packed rows, counts and deficit that finds witnesses
fast and proves nothing when it misses.  `descend` walks lengths down with
the two, for the optimal-length scan and for kappa alike; its docstring
holds the policy.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceeded, CapExceeded
from .field_linalg import DEFAULT_ENUM_BUDGET, Field, FMatrix, PackedRows

# SHA-256 from CPython's built-in module, so no process loads OpenSSL's
# libcrypto through `hashlib` for the seeded stream; the same function, so
# the same bytes.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

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


def class_permutations(
    field: Field, classes: Sequence[tuple[int, ...]], perms: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Where each class goes when coordinate j is moved to perm[j], one
    tuple per perm.  The class list must be closed under each of them.

    Coordinate j of every class is one byte of a column, so moving the
    coordinates reorders the columns.  Each moved vector is then scaled by
    the inverse of its first nonzero symbol: per symbol value a, one byte
    translation of each column, kept on the classes whose lead is a."""
    count = len(classes)
    columns = [bytes(col) for col in zip(*classes)]
    index = dict(zip(classes, range(count)))
    nonzero = bytes(1) + b"\xff" * 255
    # per nonzero symbol a: 0xff where a byte is a, and the product by 1/a
    scalings = [
        (bytes(255 * (x == a) for x in range(256)),
         bytes(field._mul[field.inv(a)]) + bytes(256 - field.q))
        for a in range(1, field.q)
    ]
    out = []
    for perm in perms:
        moved = [b""] * len(perm)
        for j, to in enumerate(perm):
            moved[to] = columns[j]
        lead = 0  # byte c: class c's first nonzero moved symbol
        for col in reversed(moved):
            keep = int.from_bytes(col.translate(nonzero), "little")
            lead = lead & ~keep | int.from_bytes(col, "little") & keep
        leads = lead.to_bytes(count, "little")
        scaled = [0] * len(moved)
        for lead_is, times in scalings:
            mine = int.from_bytes(leads.translate(lead_is), "little")
            for t, col in enumerate(moved):
                scaled[t] |= int.from_bytes(col.translate(times), "little") & mine
        out.append(tuple(map(index.__getitem__, zip(*(x.to_bytes(count, "little") for x in scaled)))))
    return out


def class_symmetries(
    field: Field, classes: Sequence[tuple[int, ...]],
    generators: Iterable[Sequence[int]], budget: int,
) -> list[Sequence[int]]:
    """The group that the coordinate permutations `generators` generate,
    as permutations of `classes` (see `class_permutations`), identity left
    out, in breadth-first order from the generators.  Each element is a
    bytes when there are at most 256 classes, else a tuple, and the list
    stops at `budget` bytes (a class is one byte, or eight as a tuple
    slot): any subset of the group serves `multiset_cover_search` exactly.
    """
    count = len(classes)
    small = count <= 256
    room = budget // (count * (1 if small else 8)) if count else 0
    identity = tuple(range(count))
    gens = set(class_permutations(field, classes, generators)) - {identity}
    if small:
        pad = bytes(range(count, 256))
        identity = bytes(identity)
        steps = [bytes(g) + pad for g in sorted(gens)]
        compose = bytes.translate  # p.translate(t)[c] = t[p[c]]
    else:
        steps = sorted(gens)
        compose = lambda p, g: operator.itemgetter(*p)(g)  # [g[p[c]] for c]
    seen = {identity}
    out: list[Sequence[int]] = []
    frontier = [identity]
    while frontier and len(out) < room:
        later = []
        for p in frontier:
            for t in steps:
                g = compose(p, t)
                if g not in seen:
                    seen.add(g)
                    later.append(g)
                    out.append(g)
                    if len(out) == room:
                        return out
        frontier = later
    return out


def _lanes(values: Sequence[int]) -> int:
    """values[t] (each 0..255) packed into byte t."""
    return int.from_bytes(bytes(values), "little")


def _stabilizer_masks(
    symmetries: Sequence[Sequence[int]], order: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Per visit position i, two bitmasks over the symmetries: bit j of
    fixes[i] is set if symmetry j maps class order[i] to itself, and bit j
    of earlier[i] if it maps that class to one earlier in visit order.

    Each symmetry is read once: the visit positions of every class and of
    its image sit in 32-bit lanes of two ints, whose top bits guard the
    subtractions that compare all the lanes at once.  Eight symmetries fill
    a byte per class, written into that class's lane of bytes."""
    count = len(order)
    pos = [0] * count
    for i, c in enumerate(order):
        pos[c] = i
    pack = struct.Struct(f"<{count}I").pack
    top = int.from_bytes(b"\0\0\0\x80" * count, "little")
    at = int.from_bytes(pack(*pos), "little") | top
    width = (len(symmetries) + 7) // 8
    lanes = (bytearray(width * count), bytearray(width * count))
    for k in range(0, len(symmetries), 8):
        same = sooner = 0  # bit j of lane c: symmetry k + j fixes c, or sends it earlier
        for j, g in enumerate(symmetries[k:k + 8]):
            to = int.from_bytes(pack(*map(pos.__getitem__, g)), "little")
            up = (at - to) & top  # top bit of lane c: pos[c] >= pos[g[c]]
            down = ((to | top) - (at ^ top)) & top  # pos[g[c]] >= pos[c]
            same |= (up & down) >> (31 - j)
            sooner |= (up & ~down) >> (31 - j)
        lanes[0][k // 8::width] = same.to_bytes(4 * count, "little")[::4]
        lanes[1][k // 8::width] = sooner.to_bytes(4 * count, "little")[::4]

    def by_visit(buf: bytearray) -> list[int]:
        return [int.from_bytes(buf[c * width:(c + 1) * width], "little") for c in order]

    return by_visit(lanes[0]), by_visit(lanes[1])


@dataclass(frozen=True)
class CoverTable:
    """One hit table as every cover search reads it, whatever the quotas
    and the size: the column classes' packed hit rows in class order, the
    symmetries listed for them, the classes and the targets (none for a
    table of bare rows).  The (instance, q) table (`index_codes._analyse`)
    is all the ECIC search and kappa share.  The kernel's arrays are made
    from these on the first search and kept for every later one (`visit`)."""

    hit_sets: Sequence[int]
    symmetries: Sequence[Sequence[int]] = ()  # class permutations (see the module docstring)
    columns: Sequence[tuple[int, ...]] = ()
    targets: Sequence[tuple[int, ...]] = ()

    @cached_property
    def visit(self) -> tuple[list[int], ...]:
        """By visit position: the class indices (high-coverage first, ties
        by index), their hit rows, the rows' sizes (non-increasing, so a
        deficit bound at one class holds for every later one), live_low[s]
        (packed 1 per target hit by some class at position >= s), and the
        masks fixes and earlier (`_stabilizer_masks`); the unions saturate
        after a few classes, and each distinct one is one int.  Made on
        first use: a table that no search reads, as in kappa's descent on a
        directed cycle, where tabu's code ends it, never builds them."""
        rows = self.hit_sets
        order = sorted(range(len(rows)), key=lambda c: (-rows[c].bit_count(), c))
        adds = [rows[c] for c in order]
        live_low = [0] * (len(order) + 1)
        union = 0
        for s in range(len(order) - 1, -1, -1):
            if adds[s] | union != union:
                union |= adds[s]
            live_low[s] = union
        return (order, adds, [h.bit_count() for h in adds], live_low,
                *_stabilizer_masks(self.symmetries, order))


def cover_table(
    field: Field, n: int, targets: Sequence[tuple[int, ...]] | None,
    generators: Iterable[Sequence[int]], budget: int,
) -> CoverTable:
    """The table of the projective classes of F_q^n over `targets` (the
    classes themselves when None; `class_table`) under the group that the
    coordinate permutations `generators` generate (`class_symmetries`),
    within `budget` bytes."""
    columns, hit_sets = class_table(field, n, targets, budget)
    symmetries = class_symmetries(field, columns, generators, budget)
    return CoverTable(hit_sets, symmetries, columns, columns if targets is None else targets)


def multiset_cover_search(
    table: CoverTable, quotas: Sequence[int], size: int, node_budget: int
) -> CoverResult:
    """Decide whether some size-`size` multiset of the table's classes
    hits every target t at least quotas[t] >= 0 times.

    Exhaustive unless the node budget trips (then BudgetExceeded carries
    the node count); a returned found=False is a proof of infeasibility.
    Each of `table.symmetries` must map hit rows onto hit rows under a
    permutation of targets with equal quotas (see the module docstring); a
    child that one of them fixing every pick so far sends to an earlier
    class is skipped, and the outcome and witness do not change.
    """
    need = max(quotas, default=0)
    if need <= 0:
        fill = _trivial_fill(table.hit_sets, size)
        return CoverResult(fill is not None, fill, 0)
    if size > _MAX_SIZE:
        raise CapExceeded(f"multiset size {size} exceeds packed-count cap {_MAX_SIZE}")
    if need > size:
        return CoverResult(False, None, 0)  # each target gets at most one hit per pick

    order, adds, sizes, live_low, fixes, earlier = table.visit
    high = _lanes([0x80] * len(quotas))
    thresh_low = _lanes(quotas)
    nodes = 0
    path: list[int] = []
    everywhere = range(len(adds))
    # per stabilizer met, a byte per visit position: 1 where no symmetry of
    # it sends the class earlier
    kept: dict[int, memoryview] = {}

    def dfs(start: int, stab: int, rem: int, cnt: int, deficit: int,
            cut: bool = True) -> bool:
        """Try each class from visit position `start` on as the next of
        `rem` picks below a node with hit counts `cnt` that passed every
        check, and whose picks every symmetry in the bitmask `stab` fixes.
        With `cut`, stop at the first class from which no `rem` picks close
        the deficit."""
        nonlocal nodes
        picks: Iterable[int] = everywhere[start:]
        if stab:  # skip each class that a symmetry fixing every pick sends earlier
            keep = kept.get(stab)
            if keep is None:
                keep = kept[stab] = memoryview(bytes(not stab & e for e in earlier))
            picks = itertools.compress(picks, keep[start:])
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
            if dfs(c, stab & fixes[c], below, child, left):
                return True
            path.pop()
        return False

    # The root is not cut: every first pick that survives the symmetries
    # counts as a node, so they show in the count even where the bound
    # refutes the whole scan.
    if not dfs(0, (1 << len(table.symmetries)) - 1, size, 0, sum(quotas), cut=False):
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
        block = sha256(f"{key}:{counter}".encode()).digest()
        yield from (b for b in block if b < limit)


def _draw(stream: Iterator[int], n: int) -> int:
    """An index below n from stream bytes (0..255 each) read big-endian:
    two for n <= 2^16 (near uniform for the short move lists the local
    search mostly draws from), else enough for (n - 1).bit_length() + 8
    bits, so that every index is reachable and each one's probability is
    within a factor 1 +- 2^-8 of 1/n."""
    if n == 1:
        return 0
    if n <= 1 << 16:
        return ((next(stream) << 8) | next(stream)) % n
    width = ((n - 1).bit_length() + 15) // 8
    return int.from_bytes(bytes(next(stream) for _ in range(width)), "big") % n


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
