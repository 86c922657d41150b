"""The benchmark's four workloads: inputs made from a seed, the operations
that are timed, and the reference checks that run after timing.

An operation is one public library call that a CLI subcommand makes 1:1
(`verify` bundles the calls of `verify`, `radius` and `simulate` on one
matrix).  Inputs come from the benchmark's own `random.Random`, never from
the library's seeded streams, so a change to those streams cannot shift
them.  Every question is asked once per process.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

import ecic

# The paper's 5 x 9 GF(2) code for the pentagon instance; it corrects 2 errors.
PAPER_PENTAGON = (
    (1, 1, 1, 1, 1, 0, 0, 0, 0),
    (0, 1, 0, 1, 1, 0, 1, 1, 0),
    (1, 1, 0, 0, 0, 1, 1, 1, 0),
    (0, 1, 1, 0, 0, 1, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 0, 1, 1),
)

# (instance, q, delta, optimal length).  Pentagon q=2 delta=2 -> 9 is the
# paper's value and no-side-info:4 delta=1 -> 7 is the [7,4,3] Hamming code;
# the others are regression references pinned from exhaustive runs.
SEARCH = [
    ("pentagon", 2, 1, 6),
    ("pentagon", 2, 2, 9),
    ("pentagon", 2, 3, 12),
    ("odd-cycle-complement:3", 2, 1, 6),
    ("pentagon", 3, 1, 5),
    ("no-side-info:4", 2, 1, 7),
]
SEARCH_SMOKE = [SEARCH[0], SEARCH[4], SEARCH[5]]

# (q, k, d, N_q[k, d]) from the standard code tables.  Each length attains
# the Griesmer bound except N_2[5, 3] = 9, where the Hamming bound rules out 8.
CODES = [
    (2, 4, 5, 11),
    (2, 4, 7, 14),
    (3, 4, 4, 8),
    (2, 5, 3, 9),
    (4, 3, 5, 8),
    (2, 3, 7, 13),
]
CODES_SMOKE = [CODES[4], CODES[5], CODES[0]]

# (instance, q, N, delta, passing, failing).  No-side-info rows are drawn
# full rank and checked at delta=0, so every one runs the whole
# q^|complement| margin enumeration; the small-complement rows keep a fixed
# pass/fail split.  Either way the seed changes the matrices, not the work.
# The counts put op_p50 inside the small-complement block and op_p90 inside
# the no-side-info block.
VERIFY = [
    ("no-side-info:9", 2, 12, 0, 10, 0),
    ("no-side-info:6", 3, 9, 0, 10, 0),
    ("no-side-info:5", 4, 8, 0, 10, 0),
    ("pentagon", 5, 8, 1, 20, 10),
    ("odd-cycle-complement:4", 2, 12, 1, 25, 15),
    ("pentagon", 2, 9, 1, 20, 10),
]
VERIFY_SMOKE = [(name, q, n, d, 1, 1 if fail else 0) for name, q, n, d, _, fail in VERIFY]

# (instance, q, N, delta) of the seeded verifying codes checked next to the
# paper code at delta=2.  Each receiver's decoding span (demanded row plus
# complement rows) is drawn full rank with minimum distance >= 2*delta + 1:
# that makes the code correct delta errors, and it gives every error within
# the radius its own nonzero syndrome, so the coset-leader search does the
# same work whatever the seed.
DECODE = [
    ("odd-cycle-complement:3", 2, 9, 1),
    ("no-side-info:4", 3, 7, 1),
]
DECODE_SMOKE = [("example1", 3, 5, 1)]


@dataclass
class Op:
    """One timed operation and the check of its result.

    `check` runs after the timed batch and returns the problems found (empty
    when the answer is right) and counts the result reports by itself.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict[str, int]]]


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of one workload, with inputs made from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return _search_ops(SEARCH_SMOKE if smoke else SEARCH, seed, rng)
    if workload == "codes":
        return _codes_ops(CODES_SMOKE if smoke else CODES, seed, rng)
    if workload == "verify":
        return _verify_ops(VERIFY_SMOKE if smoke else VERIFY, rng)
    if workload == "decode":
        # the paper code corrects 2 errors; the smoke size checks it at 1
        return _decode_ops(1, DECODE_SMOKE, rng) if smoke else _decode_ops(2, DECODE, rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("search", "codes", "verify", "decode")


# ---------------------------------------------------------------------------
# search: optimal_length_search, one question per (instance, q, delta)


def _relabel(inst: ecic.IcsiInstance, perm: list[int]) -> ecic.IcsiInstance:
    """The same instance with message j renamed perm[j]."""
    return ecic.IcsiInstance(
        inst.num_receivers,
        inst.num_messages,
        tuple(perm[d] for d in inst.demands),
        tuple(frozenset(perm[x] for x in side) for side in inst.side_info),
    )


def _search_ops(questions, seed: int, rng: random.Random) -> list[Op]:
    questions = list(questions)
    if seed:
        rng.shuffle(questions)
    ops = []
    for name, q, delta, optimum in questions:
        inst = ecic.builtin_instance(name)
        if seed:
            perm = list(range(inst.num_messages))
            rng.shuffle(perm)
            inst = _relabel(inst, perm)
        field = ecic.make_field(q)
        ops.append(
            Op(
                f"search {name} q={q} delta={delta}",
                lambda inst=inst, field=field, delta=delta: ecic.optimal_length_search(
                    inst, field, delta
                ),
                lambda out, delta=delta, optimum=optimum: _check_search(out, delta, optimum),
            )
        )
    return ops


def _check_search(out, delta: int, optimum: int):
    problems = []
    if out.optimal_length != optimum:
        problems.append(f"optimal length {out.optimal_length}, reference {optimum}")
    if out.infeasible_below != out.optimal_length - 1:
        problems.append(f"infeasible_below {out.infeasible_below} does not bracket the optimum")
    code = out.witness
    if code.matrix.ncols != out.optimal_length:
        problems.append(f"witness has {code.matrix.ncols} columns")
    elif not ecic.verify_ecic_direct(code, delta).ok:
        problems.append("witness fails verify_ecic_direct")
    elif min(oracle_margins(code), default=2 * delta + 1) < 2 * delta + 1:
        problems.append("witness fails the brute-force margin oracle")
    return problems, {"search_nodes": out.stats.nodes}


# ---------------------------------------------------------------------------
# codes: shortest_code_length


def _codes_ops(questions, seed: int, rng: random.Random) -> list[Op]:
    questions = list(questions)
    if seed:
        rng.shuffle(questions)
    return [
        Op(
            f"codes q={q} k={k} d={d}",
            lambda q=q, k=k, d=d: ecic.shortest_code_length(q, k, d),
            lambda got, ref=ref: ([] if got == ref else [f"length {got}, reference {ref}"], {}),
        )
        for q, k, d, ref in questions
    ]


def griesmer(q: int, k: int, d: int) -> int:
    """Griesmer lower bound on the length of a linear [N, k, d]_q code."""
    return sum(-(-d // q**i) for i in range(k))


def hamming_lower(q: int, k: int, d: int) -> int:
    """Smallest N allowed by the sphere-packing bound for an [N, k, d]_q code."""
    t = (d - 1) // 2
    N = k
    while q ** (N - k) < sum(math.comb(N, i) * (q - 1) ** i for i in range(t + 1)):
        N += 1
    return N


# ---------------------------------------------------------------------------
# verify: verify_ecic + correction_radius + verify_ecic_direct (+ simulate_round)


def _random_rows(rng: random.Random, q: int, n: int, N: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(rng.randrange(q) for _ in range(N)) for _ in range(n))


def _verify_ops(mix, rng: random.Random) -> list[Op]:
    ops = []
    for name, q, N, delta, passing, failing in mix:
        inst = ecic.builtin_instance(name)
        field = ecic.make_field(q)
        want = {True: passing, False: failing}
        while want[True] or want[False]:
            rows = _random_rows(rng, q, inst.num_messages, N)
            code = ecic.LinearIndexCode(inst, field, ecic.FMatrix(field, rows, N))
            if delta == 0 and not any(inst.side_info):
                # no side information: the margins are all positive exactly when
                # L has full rank, so rank decides the verdict cheaply
                reference = None
                verdict = rank(field, rows) == inst.num_messages
            else:
                reference = oracle_margins(code)
                verdict = min(reference) >= 2 * delta + 1
            if not want[verdict]:
                continue
            want[verdict] -= 1
            x = ecic.FVector(field, tuple(rng.randrange(q) for _ in range(inst.num_messages)))
            err = [0] * N
            for pos in rng.sample(range(N), delta):
                err[pos] = rng.randrange(1, q)
            error = ecic.FVector(field, tuple(err))
            ops.append(
                Op(
                    f"verify {name} q={q} N={N} delta={delta} {'pass' if verdict else 'fail'}",
                    lambda code=code, delta=delta, x=x, error=error: _verify_op(code, delta, x, error),
                    lambda out, code=code, delta=delta, verdict=verdict, reference=reference: (
                        _check_verify(out, code, delta, verdict, reference),
                        {},
                    ),
                )
            )
    return ops


def _verify_op(code, delta: int, x, error):
    verdict = ecic.verify_ecic(code, delta)
    radius = ecic.correction_radius(code)
    direct = ecic.verify_ecic_direct(code, delta)
    rounds = ecic.simulate_round(code, x, error, delta) if verdict.ok else None
    return verdict, radius, direct, rounds


def _check_verify(out, code, delta: int, expected: bool, reference) -> list[str]:
    """`reference` holds brute-force margins, or is None for a full-rank code
    with no side information, whose lightest margin is its minimum distance."""
    verdict, radius, direct, rounds = out
    problems = []
    if verdict.ok != expected or direct.ok != expected:
        problems.append(f"verdicts margin={verdict.ok} direct={direct.ok}, reference {expected}")
    if reference is None:
        reference_min = ecic.code_min_distance(code.matrix)
    else:
        reference_min = min(reference)
        # on FAIL the verdict stops at the first failing receiver
        if tuple(reference[: len(verdict.margins)]) != verdict.margins:
            problems.append(f"margins {verdict.margins}, reference {tuple(reference)}")
    if verdict.ok and min(verdict.margins) != reference_min:
        problems.append(f"min margin {min(verdict.margins)}, reference {reference_min}")
    want_radius = None if reference_min == 0 else (reference_min - 1) // 2
    if radius != want_radius:
        problems.append(f"radius {radius}, reference (min margin - 1) // 2 = {want_radius}")
    for route, result in (("margin", verdict), ("direct", direct)):
        cert = result.certificate
        if expected and cert is not None:
            problems.append(f"{route} route returned a certificate on PASS")
        if not expected and (cert is None or combination_weight(code, cert.entries) > 2 * delta):
            problems.append(f"{route} route certificate does not violate the margin")
    if verdict.ok and (rounds is None or len(rounds) != code.inst.num_receivers):
        problems.append("simulate_round did not decode every receiver")
    elif rounds and not all(o.success for o in rounds):
        problems.append("simulate_round recovered a wrong symbol")
    return problems


# ---------------------------------------------------------------------------
# decode: exhaustive_correctness_check


def _decode_ops(paper_delta: int, seeded, rng: random.Random) -> list[Op]:
    field = ecic.make_field(2)
    codes = [
        (
            "decode paper pentagon q=2 N=9",
            ecic.LinearIndexCode(ecic.pentagon(), field, ecic.FMatrix(field, PAPER_PENTAGON, 9)),
            paper_delta,
        )
    ]
    for name, q, N, delta in seeded:
        inst = ecic.builtin_instance(name)
        fq = ecic.make_field(q)
        while True:  # rejection sampling against the brute-force oracle
            rows = _random_rows(rng, q, inst.num_messages, N)
            code = ecic.LinearIndexCode(inst, fq, ecic.FMatrix(fq, rows, N))
            if decodes_cleanly(code, 2 * delta + 1):
                break
        codes.append((f"decode {name} q={q} N={N}", code, delta))
    return [
        Op(
            f"{label} delta={delta}",
            lambda code=code, delta=delta: ecic.exhaustive_correctness_check(code, delta),
            lambda report, code=code, delta=delta: _check_decode(report, code, delta),
        )
        for label, code, delta in codes
    ]


def expected_decodes(code, delta: int) -> int:
    """q^n * V_q(N, delta) * m: every message vector, error of weight <= delta
    and receiver."""
    q, N = code.field.q, code.length
    volume = sum(math.comb(N, i) * (q - 1) ** i for i in range(delta + 1))
    return q**code.inst.num_messages * volume * code.inst.num_receivers


def _check_decode(report, code, delta: int):
    problems = []
    if not report.ok:
        problems.append(f"exhaustive check failed: {report.counterexample}")
    want = expected_decodes(code, delta)
    if report.decodes != want:
        problems.append(f"{report.decodes} decodes, expected {want}")
    return problems, {"decodes": report.decodes}


# ---------------------------------------------------------------------------
# brute-force references, independent of the library's kernels


def oracle_margins(code) -> list[int]:
    """Every receiver's margin: the least weight of its demanded row minus
    any combination of the rows it neither holds nor demands, found by
    trying every coefficient tuple."""
    inst, field = code.inst, code.field
    rows = code.matrix.rows
    out = []
    for i in range(inst.num_receivers):
        free = sorted(inst.complement(i))
        best = None
        for coeffs in itertools.product(range(field.q), repeat=len(free)):
            acc = list(rows[inst.demands[i]])
            for c, j in zip(coeffs, free):
                if c:
                    acc = [field.sub(a, field.mul(c, b)) for a, b in zip(acc, rows[j])]
            w = sum(1 for a in acc if a)
            best = w if best is None else min(best, w)
        out.append(best)
    return out


def decodes_cleanly(code, need: int) -> bool:
    """Whether every receiver's decoding span (its demanded row and the rows
    it neither holds nor demands) is full rank with no nonzero vector of
    weight below `need`."""
    inst, rows = code.inst, code.matrix.rows
    spans = {frozenset({inst.demands[i]} | inst.complement(i)) for i in range(inst.num_receivers)}
    for span in spans:
        span_rows = [rows[j] for j in sorted(span)]
        for coeffs in itertools.product(range(code.field.q), repeat=len(span_rows)):
            if any(coeffs) and combination_weight(code, coeffs, span_rows) < need:
                return False
    return True


def combination_weight(code, z, rows=None) -> int:
    """Weight of z @ L, or of z times `rows` when given."""
    field = code.field
    acc = [0] * code.length
    for c, row in zip(z, code.matrix.rows if rows is None else rows):
        if c:
            acc = [field.add(a, field.mul(c, b)) for a, b in zip(acc, row)]
    return sum(1 for a in acc if a)


def rank(field, rows) -> int:
    """Rank of a matrix given as rows, by plain Gauss-Jordan elimination."""
    work = [list(r) for r in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][col])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                c = work[i][col]
                work[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(work[i], work[r])]
        r += 1
    return r
