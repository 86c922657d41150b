"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own elimination and
search kernels: spans and duals are enumerated element by element so that
the fast paths have something independent to be checked against.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from ecic import FMatrix, LinearIndexCode, make_field, pentagon, example1
from ecic.field_linalg import DEFAULT_ENUM_BUDGET, PackedRows

F2 = make_field(2)
F3 = make_field(3)


def example1_matrix() -> FMatrix:
    return FMatrix(F2, ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)), 4)


def example1_code() -> LinearIndexCode:
    return LinearIndexCode(example1(), F2, example1_matrix())


def pentagon_matrix() -> FMatrix:
    return FMatrix(
        F2,
        (
            (1, 1, 1, 1, 1, 0, 0, 0, 0),
            (0, 1, 0, 1, 1, 0, 1, 1, 0),
            (1, 1, 0, 0, 0, 1, 1, 1, 0),
            (0, 1, 1, 0, 0, 1, 0, 1, 1),
            (1, 0, 1, 0, 1, 0, 0, 1, 1),
        ),
        9,
    )


def pentagon_code() -> LinearIndexCode:
    return LinearIndexCode(pentagon(), F2, pentagon_matrix())


# ---------------------------------------------------------------------------
# oracles


def span_elements(field, rows):
    """Every vector in the span of `rows`, by plain coefficient enumeration."""
    n = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        acc = [0] * n
        for c, row in zip(coeffs, rows):
            for j in range(n):
                acc[j] = field.add(acc[j], field.mul(c, row[j]))
        out.add(tuple(acc))
    return out


def brute_rank(field, rows, n):
    """log_q of the span size."""
    size = len(span_elements(field, rows)) if rows else 1
    r = 0
    while field.q**r < size:
        r += 1
    assert field.q**r == size
    return r


def brute_min_rank(inst, field):
    """Min-rank by enumerating every completion outright: each receiver's
    demand unit row plus every assignment of values to its side
    information, the minimum rank over all of them."""
    from ecic import mat_rank

    best = None
    spaces = [sorted(inst.side_info[i]) for i in range(inst.num_receivers)]
    for choice in itertools.product(
        *(itertools.product(field.elements(), repeat=len(s)) for s in spaces)
    ):
        rows = []
        for i, vals in enumerate(choice):
            row = [0] * inst.num_messages
            row[inst.demands[i]] = 1
            for pos, v in zip(spaces[i], vals):
                row[pos] = v
            rows.append(tuple(row))
        r = mat_rank(FMatrix(field, tuple(rows), inst.num_messages))
        best = r if best is None else min(best, r)
    return best


def brute_dual(field, rows, n):
    """All vectors orthogonal to every row, by full enumeration of F_q^n."""
    out = set()
    for cand in itertools.product(field.elements(), repeat=n):
        if all(
            not _dot(field, row, cand)
            for row in rows
        ):
            out.add(cand)
    return out


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def reference_hit_sets(field, columns, targets):
    """For each column, the set of indices of the targets it has a nonzero
    inner product with: the table the cover kernel's packed rows hold."""
    return [frozenset(t for t, z in enumerate(targets) if _dot(field, col, z)) for col in columns]


def pack(hit_sets):
    """Hit sets as the cover kernel's packed rows: byte t of row c is 1
    where hit_sets[c] holds t, else 0."""
    return [sum(1 << (8 * t) for t in hits) for hits in hit_sets]


def brute_min_distance(field, rows, n):
    """Minimum weight over the nonzero span, from the span oracle."""
    weights = [
        sum(1 for x in vec if x)
        for vec in span_elements(field, rows)
        if any(vec)
    ]
    return min(weights)


def lightest_combination(field, target, rows):
    """`PackedRows.lightest` of target - sum_j c_j * rows[j], all packed together."""
    return PackedRows(field, [target, *rows], len(target)).lightest(0, range(1, len(rows) + 1))


def lightest_gf2_xor(target, rows):
    """(weight, coefficients) of the first lightest target + sum c_j rows_j
    over GF(2), on packed words: stepping from tuple i-1 to i flips the
    trailing run of digits, which is one XOR with a suffix sum of the rows."""
    def pack(entries):
        return sum(1 << j for j, x in enumerate(entries) if x)

    combo = pack(target)
    best_w, best_i = combo.bit_count(), 0
    suffix, acc = [], 0
    for row in reversed(rows):
        acc ^= pack(row)
        suffix.append(acc)
    for i in range(1, 1 << len(rows)):
        if not best_w:
            break
        combo ^= suffix[(i & -i).bit_length() - 1]
        if combo.bit_count() < best_w:
            best_w, best_i = combo.bit_count(), i
    k = len(rows)
    return best_w, tuple(best_i >> (k - 1 - j) & 1 for j in range(k))


def brute_coset_min_weight(field, h_rows, n, syndrome):
    """Minimum weight solution of H e^T = s by enumerating all of F_q^n."""
    best = None
    for cand in itertools.product(field.elements(), repeat=n):
        if tuple(_dot(field, row, cand) for row in h_rows) == syndrome:
            w = sum(1 for x in cand if x)
            best = w if best is None else min(best, w)
    return best


def random_matrix(field, nrows, ncols, rng: random.Random) -> FMatrix:
    rows = tuple(
        tuple(rng.randrange(field.q) for _ in range(ncols)) for _ in range(nrows)
    )
    return FMatrix(field, rows, ncols)


def random_full_rank_matrix(field, nrows, ncols, rng: random.Random) -> FMatrix:
    from ecic import mat_rank

    while True:
        m = random_matrix(field, nrows, ncols, rng)
        if mat_rank(m) == nrows:
            return m


def random_instance(rng: random.Random, max_receivers=5, max_messages=5):
    """A random valid instance with at least one receiver."""
    from ecic import IcsiInstance

    n = rng.randint(1, max_messages)
    m = rng.randint(1, max_receivers)
    demands = tuple(rng.randrange(n) for _ in range(m))
    side = []
    for i in range(m):
        pool = [j for j in range(n) if j != demands[i]]
        k = rng.randint(0, len(pool))
        side.append(frozenset(rng.sample(pool, k)))
    return IcsiInstance(m, n, demands, tuple(side))


def upward_scan(inst, field, delta):
    """(optimum, witness) from the exhaustive scan upward from length 0:
    the first length `exists_ecic` decides feasible.  The reference the
    top-down optimal-length search is checked against."""
    from ecic import exists_ecic

    length = 0
    while True:
        res = exists_ecic(inst, field, delta, length)
        if res.feasible:
            return length, res.witness
        length += 1


def upward_code_scan(q, k, d, node_budget=1 << 27):
    """N_q[k, d] by the exhaustive scan upward from the Griesmer bound: the
    first length `code_exists` decides feasible, with no probe, tabu run or
    residual-code bound.  The reference `shortest_code_length` is checked
    against."""
    from ecic import code_exists

    length = sum(-(-d // q**i) for i in range(k))
    if k <= 1 or d == 1:
        return length
    while code_exists(q, k, d, length, node_budget) is None:
        length += 1
    return length


def confusable_oracle(inst, field):
    """Every z in F_q^n that is nonzero at some receiver's demand and zero on
    its side information, mapped to the first such receiver: the
    definition, by brute force over all q^n vectors."""
    out = {}
    for z in itertools.product(range(field.q), repeat=inst.num_messages):
        for i in range(inst.num_receivers):
            if z[inst.demands[i]] and not any(z[x] for x in inst.side_info[i]):
                out[z] = i
                break
    return out


def walked(inst, field, budget=DEFAULT_ENUM_BUDGET):
    """The walks of `enumerate_error_vectors`, as (positions, vectors) with
    each step's key decoded to its entry tuple."""
    from ecic import enumerate_error_vectors

    q, n = field.q, inst.num_messages
    return [
        (positions, [tuple(key // q ** (n - 1 - j) % q for j in range(n)) for _, _, key in steps])
        for positions, steps in enumerate_error_vectors(inst, field, budget)
    ]


def check_walks(inst, field):
    """The walk up to scaling against `confusable_oracle`: every walked
    vector is confusable and has demand entry 1, and every confusable z
    has a scaling walked no later in receiver order -- each walk is
    assigned the first receiver after the previous walk's that confuses
    all of its vectors, and z's scaling lies in a walk whose receiver is
    at most the first receiver confusing z.  Returns the oracle."""
    oracle = confusable_oracle(inst, field)
    first_walk = {}  # walked vector -> receiver of the first walk meeting it
    receiver = -1
    for positions, vectors in walked(inst, field):
        for z in vectors:
            assert z in oracle and z[positions[0]] == 1, (positions, z)
        receiver = next((
            i for i in range(receiver + 1, inst.num_receivers)
            if inst.demands[i] == positions[0]
            and all(not any(z[x] for x in inst.side_info[i]) for z in vectors)
        ), None)
        assert receiver is not None, ("no receiver in order for the walk", positions)
        for z in vectors:
            first_walk.setdefault(z, receiver)
    for z, i in oracle.items():
        scalings = {tuple(field.mul(a, x) for x in z) for a in field.nonzero()}
        assert any(first_walk[w] <= i for w in scalings & first_walk.keys()), z
    return oracle


def direct_reference(code, delta):
    """The error-correction verdict by definition, rebuilt per vector: every
    confusable z in stream order (receiver by receiver, the demand value,
    then the sorted complement values, the last fastest), with
    weight(z @ L) from `encode`.  Certificate: the first z of weight
    <= 2*delta.  The enumeration is spelled out with itertools.product so
    that it shares no code with the stream's odometer."""
    from ecic import EcicVerdict, FVector, encode

    inst, field = code.inst, code.field
    for i in range(inst.num_receivers):
        free = sorted(inst.complement(i))
        for dval in field.nonzero():
            for tail in itertools.product(field.elements(), repeat=len(free)):
                entries = [0] * inst.num_messages
                entries[inst.demands[i]] = dval
                for pos, val in zip(free, tail):
                    entries[pos] = val
                z = FVector(field, tuple(entries))
                if encode(code, z).weight() < 2 * delta + 1:
                    return EcicVerdict(False, delta, None, z)
    return EcicVerdict(True, delta, None, None)


class ReferenceDecoder(NamedTuple):
    """The dense state `reference_decoder` builds: a parity check of the
    span of the demanded and complement rows, the side rows, the unknown
    rows (demanded row first), the demand functional lambda (None when the
    demand is undetermined) and a parity check of the complement rows."""

    parity: FMatrix
    side_rows: FMatrix
    unknown_rows: FMatrix
    demand_functional: object
    complement_parity: FMatrix

    def decode(self, received, side_values, weight_cap, truth=None):
        """Dense syndrome decoding: y' = received less the side rows, the
        leader `coset_leader` returns for the syndrome of y', then
        lambda . (y' - leader).  Raises what `decode` raises on a valid
        word, in the same order: the weight cap first, then an
        undetermined demand."""
        from ecic import DecodeOutcome, FVector, coset_leader
        from ecic.errors import InternalContradiction

        field = received.field
        adjusted = received.sub(self.side_rows.left_mul(FVector(field, tuple(side_values))))
        leader = coset_leader(self.parity, self.parity.mul_col(adjusted), weight_cap)
        if self.demand_functional is None:
            raise InternalContradiction("demanded symbol is not uniquely determined")
        recovered = adjusted.sub(leader).dot(self.demand_functional)
        success = None if truth is None else recovered == truth
        return DecodeOutcome(recovered, leader, leader.weight(), success)


def reference_decoder(code, i) -> ReferenceDecoder:
    """A receiver decoder built by four separate eliminations: a row basis of
    the demanded and complement rows, the parity check of that basis, the
    demand functional from `solve_linear`, and a parity check of the
    complement rows alone.  The reference the receiver views on one
    elimination per code are checked against; it decodes densely on its
    own, so outcomes can be compared call by call."""
    from ecic import FVector, parity_check_matrix
    from ecic.errors import InternalContradiction
    from ecic.field_linalg import row_basis, solve_linear
    from ecic.instance import receiver_frame

    frame = receiver_frame(code.inst, i)
    complement = sorted(frame.complement)
    unknown_rows = code.matrix.rows_at([frame.demand] + complement)
    basis = row_basis(unknown_rows)
    parity = parity_check_matrix(basis)
    for r in range(basis.nrows):
        if not parity.mul_col(basis.row(r)).is_zero():
            raise InternalContradiction("parity check does not annihilate the code space")
    side_rows = code.matrix.rows_at(sorted(frame.side_info))
    unit = FVector(code.field, (1,) + (0,) * (unknown_rows.nrows - 1))
    solution = solve_linear(unknown_rows, unit)
    lam = None if solution is None else solution[0]
    complement_parity = parity_check_matrix(code.matrix.rows_at(complement))
    return ReferenceDecoder(parity, side_rows, unknown_rows, lam, complement_parity)


def recover_demand(ref: ReferenceDecoder, received, side_values, error_estimate) -> int:
    """The dense solve of the demanded symbol on a `reference_decoder`:
    subtract any error estimate in the right coset and the side
    contribution, and solve for the unknown rows' coefficients.  The
    demanded coefficient must be unique (its alternatives differ only
    across the complement rows)."""
    from ecic import FVector
    from ecic.errors import InternalContradiction
    from ecic.field_linalg import solve_row_combination

    side = ref.side_rows.left_mul(FVector(received.field, tuple(side_values)))
    sol = solve_row_combination(ref.unknown_rows, received.sub(error_estimate).sub(side))
    if sol is None:
        raise InternalContradiction("residual left the receiver's code space")
    particular, kernel = sol
    if any(v.entries[0] for v in kernel):
        raise InternalContradiction("demanded symbol is not uniquely determined")
    return particular.entries[0]


def view_demand_functional(dec):
    """The dense row a receiver view's demand lane reads: entry j is the
    demand lane of the view's reading of e_j.  A view reads the demanded
    symbol off a word as this row's dot product with it; None when the
    demand is undetermined."""
    from ecic import FVector

    if not dec.determined:
        return None
    lanes, symbol = dec.lanes, (1 << dec.lanes._width) - 1
    row = [lanes._labels[column[1] >> dec.shift & symbol] for column in dec.columns]
    return FVector(dec.code.field, tuple(row))


def full_walk_direct(code, delta):
    """The packed direct route before it walked up to scaling: every
    receiver's whole odometer walk, demand values 1..q-1 and vectors other
    receivers also confuse included, with the first failing step's z as
    certificate.  The reference the reduced walk of `verify_ecic_direct` is
    checked against, verdict and certificate alike."""
    from ecic import EcicVerdict, FVector
    from ecic.instance import _odometer

    inst, field, L = code.inst, code.field, code.matrix
    need = 2 * delta + 1
    q, p, e, n, N = field.q, field.p, field.e, inst.num_messages, L.ncols
    add, mul, neg = field._add, field._mul, field._neg
    w = p.bit_length() + 1
    width = e * w
    digit_lanes = [sum(x // p**r % p << r * w for r in range(e)) for x in range(q)]
    lane_ones = sum(1 << i * w for i in range(N * e))
    symbol_ones = sum(1 << j * width for j in range(N))
    bias, top = lane_ones * ((1 << (w - 1)) - p), lane_ones << (w - 1)
    sym_bias, sym_top = symbol_ones * ((1 << (width - 1)) - 1), symbol_ones << (width - 1)

    def lane_add(a, b):
        s = a + b
        return s - (((s + bias) & top) >> (w - 1)) * p

    multiples = [
        [sum(digit_lanes[mul[a][x]] << j * width for j, x in enumerate(row)) for a in range(q)]
        for row in L.rows
    ]
    for i in range(inst.num_receivers):
        positions = (inst.demands[i], *sorted(inst.complement(i)))
        changes, wrap = [], 0
        for pos in reversed(positions):
            row = multiples[pos]
            changes.insert(0, [lane_add(wrap, row[add[c + 1][neg[c]]]) for c in range(q - 1)])
            wrap = lane_add(wrap, row[neg[q - 1]])
        acc = 0
        changes[0][0] = multiples[positions[0]][1]
        for t, c, key in _odometer(q, n, positions):
            acc = lane_add(acc, changes[t][c])
            if ((acc + sym_bias) & sym_top).bit_count() < need:
                z = tuple(key // q ** (n - 1 - j) % q for j in range(n))
                return EcicVerdict(False, delta, None, FVector(field, z))
    return EcicVerdict(True, delta, None, None)


def check_reference(code, delta):
    """`exhaustive_correctness_check` as it was written before the leader
    table: for every message vector, every error of weight <= delta and
    every receiver, the public `decode` on a validated received word, then
    `in_relevant_error_set` on `FVector`s.  The errors are spelled out with
    itertools in the same order (weight, then support, then values), so
    the check's own enumerator is checked too.  Raises InternalContradiction
    where a receiver's demanded symbol is not determined."""
    from ecic import FVector, build_receiver_decoder, decode, encode, in_relevant_error_set
    from ecic.decoder import CheckReport, Counterexample

    inst, field, N = code.inst, code.field, code.length
    errors = [FVector(field, (0,) * N)]
    for w in range(1, min(delta, N) + 1):
        for supp in itertools.combinations(range(N), w):
            for values in itertools.product(range(1, field.q), repeat=w):
                entries = [0] * N
                for j, v in zip(supp, values):
                    entries[j] = v
                errors.append(FVector(field, tuple(entries)))
    decoders = [build_receiver_decoder(code, i) for i in range(inst.num_receivers)]
    decodes = 0
    for xs in itertools.product(field.elements(), repeat=inst.num_messages):
        x = FVector(field, xs)
        y = encode(code, x)
        for err in errors:
            received = y.add(err)
            for i, dec in enumerate(decoders):
                side = [xs[j] for j in sorted(inst.side_info[i])]
                outcome = decode(dec, received, side, delta, truth=xs[inst.demands[i]])
                decodes += 1
                if not outcome.success:
                    return CheckReport(
                        False, decodes, Counterexample("wrong-output", x, err, i, outcome)
                    )
                if not in_relevant_error_set(dec, outcome.error_estimate, err):
                    return CheckReport(
                        False,
                        decodes,
                        Counterexample("estimate-outside-relevant-set", x, err, i, outcome),
                    )
    return CheckReport(True, decodes, None)


# ---------------------------------------------------------------------------
# the first-pick cover search


def class_orbits(num_classes, permutations):
    """Orbit label per class under the group the permutations generate: the
    smallest class index in its orbit."""
    parent = list(range(num_classes))

    def root(c):
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


def first_pick_cover_search(hit_sets, quotas, size, node_budget, orbits=None):
    """The cover search with symmetry at the root only: the same kernel,
    bounds and node count as `multiset_cover_search`, but only first picks
    that are not the earliest (in visit order) of their orbit under
    `orbits` (see `class_orbits`) are skipped, and nothing below them.  The
    oracle for the every-depth rule: same answer and witness, and never
    fewer nodes where the symmetries listed there generate the group whose
    orbits are given here."""
    from ecic._cover import (
        _MAX_SIZE, _WIDTH, BudgetExceeded, CapExceeded, CoverResult, _lanes, _trivial_fill,
    )

    need = max(quotas, default=0)
    if need <= 0:
        fill = _trivial_fill(hit_sets, size)
        return CoverResult(fill is not None, fill, 0)
    if size > _MAX_SIZE:
        raise CapExceeded(f"multiset size {size} exceeds packed-count cap {_MAX_SIZE}")
    if need > size:
        return CoverResult(False, None, 0)
    order = sorted(range(len(hit_sets)), key=lambda c: (-hit_sets[c].bit_count(), c))
    adds = [hit_sets[c] for c in order]
    sizes = [h.bit_count() for h in adds]
    high = _lanes([0x80] * len(quotas))
    thresh_low = _lanes(quotas)
    live_low = [0] * (len(order) + 1)
    for s in range(len(order) - 1, -1, -1):
        live_low[s] = live_low[s + 1] | adds[s]
    nodes = 0
    path = []

    def dfs(picks, rem, cnt, deficit, cut=True):
        nonlocal nodes
        short_low = (high ^ (((cnt | high) - thresh_low) & high)) >> (_WIDTH - 1)
        below = rem - 1
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
            if left > below * sizes[c]:
                continue
            child = cnt + adds[c]
            ub = child + below * live_low[c]
            if ((ub | high) - thresh_low) & high != high:
                continue
            path.append(c)
            if dfs(range(c, len(adds)), below, child, left):
                return True
            path.pop()
        return False

    seen, firsts = set(), []
    for i, c in enumerate(order):
        label = c if orbits is None else orbits[c]
        if label not in seen:
            firsts.append(i)
            seen.add(label)
    if not dfs(firsts, size, 0, sum(quotas), cut=False):
        return CoverResult(False, None, nodes)
    return CoverResult(True, tuple(sorted(order[i] for i in path)), nodes)


def class_permutation_reference(field, classes, perm):
    """Where each class goes when coordinate j is moved to perm[j], one
    class at a time: move the coordinates, scale the first nonzero symbol
    to 1, look the class up."""
    index = {c: i for i, c in enumerate(classes)}
    out = []
    for c in classes:
        moved = [0] * len(c)
        for j, x in enumerate(c):
            moved[perm[j]] = x
        lead = next(x for x in moved if x)
        out.append(index[tuple(field.div(x, lead) for x in moved)])
    return tuple(out)
