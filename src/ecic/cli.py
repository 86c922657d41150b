"""Command-line interface.

Subcommands: validate, params, bounds, verify, radius, search, construct,
simulate, check.  Every subcommand emits either a single JSON document
(--format json) or aligned text (--format text) on stdout; diagnostics go
to stderr.  Exit codes: 0 success or PASS, 1 a verified negative answer
(FAIL verdicts, no radius), 2 input error (a negative budget included), 3
budget exhausted or size cap exceeded (told apart on stderr).

Identical invocations (including seeds and budgets) produce byte-identical
JSON; to that end timing never appears in JSON output, only in text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import bounds as bounds_mod
from . import construct_search, decoder, index_codes
from .errors import (
    BudgetExceeded,
    CapExceeded,
    EcicError,
    UnknownCodeLength,
)
from .field_linalg import (
    DEFAULT_ENUM_BUDGET,
    FMatrix,
    FVector,
    format_matrix,
    make_field,
    parse_matrix,
)
from .instance import IcsiInstance, builtin_instance, instance_to_doc, parse_instance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_instance(spec: str) -> IcsiInstance:
    path = Path(spec)
    if path.exists():
        return parse_instance(path.read_text())
    return builtin_instance(spec)


def _load_matrix(path: str) -> FMatrix:
    return parse_matrix(Path(path).read_text())


def _emit(doc: dict, fmt: str, text: str | None = None) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(text if text is not None else json.dumps(doc, indent=2))


def _vector_doc(v: FVector) -> list[int]:
    return list(v.entries)


def _build_code(inst: IcsiInstance, matrix: FMatrix, q: Optional[int]) -> index_codes.LinearIndexCode:
    if q is not None and q != matrix.field.q:
        raise EcicError(f"--q {q} conflicts with matrix field order {matrix.field.q}")
    return index_codes.LinearIndexCode(inst, matrix.field, matrix)


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    doc = {"instance": instance_to_doc(inst), "ok": True}
    if args.matrix:
        matrix = _load_matrix(args.matrix)
        _build_code(inst, matrix, args.q)
        doc["matrix"] = {"q": matrix.field.q, "rows": matrix.nrows, "cols": matrix.ncols}
    _emit(doc, args.format, text=f"ok: {json.dumps(doc['instance'])}")
    return EXIT_PASS


def _emit_bracket(exc: BudgetExceeded, args, what: str) -> None:
    """Print the bracket a budget exhaustion proved, as data, if it has one."""
    if exc.feasible_at is not None:
        doc = {
            "status": "budget",
            "infeasible_below": exc.infeasible_below,
            "feasible_at": exc.feasible_at,
            "nodes": exc.nodes,
        }
        _emit(doc, args.format, f"{what} in [{exc.infeasible_below}, {exc.feasible_at}]")


def _cmd_params(args) -> int:
    inst = _load_instance(args.instance)
    field = make_field(args.q)
    try:
        params = index_codes.instance_params(inst, field, node_budget=args.node_budget)
    except BudgetExceeded as exc:
        _emit_bracket(exc, args, "kappa")
        raise
    doc = {
        "q": field.q,
        "alpha": params.alpha,
        "alpha_witness": [v + 1 for v in params.alpha_witness],
        "kappa": params.kappa,
        "kappa_witness": format_matrix(params.kappa_witness),
    }
    text = (
        f"alpha = {params.alpha}  (witness {{{', '.join(str(v + 1) for v in params.alpha_witness)}}})\n"
        f"kappa = {params.kappa}  over GF({field.q})\n"
        f"kappa witness rows:\n{format_matrix(params.kappa_witness)}"
    )
    _emit(doc, args.format, text)
    return EXIT_PASS


def _cmd_bounds(args) -> int:
    inst = _load_instance(args.instance)
    field = make_field(args.q)
    report = bounds_mod.bounds_report(
        inst, field, args.delta, node_budget=args.node_budget
    )
    _emit(report.to_doc(), args.format, report.to_text())
    return EXIT_PASS


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    code = _build_code(inst, _load_matrix(args.matrix), args.q)
    verdict = index_codes.verify_ecic(code, args.delta, args.enum_budget)
    radius = index_codes.radius_from_margins(verdict.margins, code.length)
    doc = {
        "delta": args.delta,
        "ok": verdict.ok,
        "margins": list(verdict.margins),
        "radius": radius,
        "certificate": None if verdict.certificate is None else _vector_doc(verdict.certificate),
    }
    lines = [f"{'PASS' if verdict.ok else 'FAIL'}: delta={args.delta}"]
    lines.append("margins: " + " ".join(str(m) for m in verdict.margins))
    lines.append(f"radius: {'none (not an index code)' if radius is None else radius}")
    if verdict.certificate is not None:
        lines.append("violating z: " + " ".join(str(v) for v in verdict.certificate.entries))
    _emit(doc, args.format, "\n".join(lines))
    return EXIT_PASS if verdict.ok else EXIT_FAIL


def _cmd_radius(args) -> int:
    inst = _load_instance(args.instance)
    code = _build_code(inst, _load_matrix(args.matrix), args.q)
    vals = index_codes.margins(code, args.enum_budget)
    radius = index_codes.radius_from_margins(vals, code.length)
    doc = {"radius": radius, "margins": list(vals)}
    text = "not an index code" if radius is None else f"radius: {radius}"
    _emit(doc, args.format, text)
    return EXIT_PASS if radius is not None else EXIT_FAIL


def _cmd_search(args) -> int:
    inst = _load_instance(args.instance)
    field = make_field(args.q)
    try:
        outcome = construct_search.optimal_length_search(
            inst, field, args.delta,
            node_budget=args.node_budget, enum_budget=args.enum_budget,
        )
    except BudgetExceeded as exc:
        _emit_bracket(exc, args, "optimum")
        raise
    stats = outcome.stats
    doc = {
        "optimal_length": outcome.optimal_length,
        "infeasible_below": outcome.infeasible_below,
        "witness": format_matrix(outcome.witness.matrix),
        "nodes": stats.nodes,
        "node_budget": stats.node_budget,
        "local_iterations": stats.local_iterations,
    }
    text = (
        f"optimal length: {outcome.optimal_length}\n"
        f"infeasible through: {outcome.infeasible_below}\n"
        f"nodes: {stats.nodes}  local search moves: {stats.local_iterations}  "
        f"wall: {stats.wall_seconds:.2f}s\n"
        f"witness:\n{format_matrix(outcome.witness.matrix)}"
    )
    _emit(doc, args.format, text)
    return EXIT_PASS


def _cmd_construct(args) -> int:
    inst = _load_instance(args.instance)
    field = make_field(args.q)
    if args.strategy == "random":
        if args.length is None:
            raise EcicError("--length is required for the random strategy")
        code = construct_search.random_construct(
            inst, field, args.delta, args.length, args.trials, args.seed,
            enum_budget=args.enum_budget,
        )
        if code is None:
            doc = {"delta": args.delta, "strategy": args.strategy, "matrix": None}
            _emit(doc, args.format, "no verifying matrix found within the trial budget")
            return EXIT_FAIL
    else:
        inner = index_codes.min_rank(
            inst, field, args.node_budget, enum_budget=args.enum_budget
        ).ic_matrix
        kappa = inner.ncols
        need = 2 * args.delta + 1
        if args.strategy == "mds-concat":
            outer = bounds_mod.mds_generator(field, kappa, kappa + 2 * args.delta)
        elif args.length is None:  # concat with a shortest distance-(2*delta+1) outer code
            outer = bounds_mod.shortest_code(field.q, kappa, need, args.node_budget,
                                             enum_budget=args.enum_budget)
        else:  # concat with an outer code of the given length
            table = bounds_mod._code_table(field.q, kappa, args.enum_budget)
            outer = bounds_mod.code_exists(field.q, kappa, need, args.length, args.node_budget,
                                           _table=table)
            if outer is None:
                raise EcicError(f"no [{args.length}, {kappa}, {need}] outer code exists")
        code = construct_search.concatenate_construction(
            inst, field, args.delta, inner, outer, enum_budget=args.enum_budget
        )
    doc = {"delta": args.delta, "strategy": args.strategy, "matrix": format_matrix(code.matrix)}
    _emit(doc, args.format, format_matrix(code.matrix).rstrip("\n"))
    return EXIT_PASS


def _seeded_vector(field, n: int, seed: int, label: str, index: int, max_weight: int | None = None) -> FVector:
    """Deterministic vector from the same hash stream as random_construct."""
    q = field.q
    stream = construct_search._seeded_bytes(f"ecic:{label}:{seed}:{index}", q)
    if max_weight is None:
        return FVector(field, tuple(next(stream) % q for _ in range(n)))
    weight = next(stream) % (min(max_weight, n) + 1)
    positions: list[int] = []
    while len(positions) < weight:
        pos = next(stream) % n
        if pos not in positions:
            positions.append(pos)
    entries = [0] * n
    for pos in positions:
        entries[pos] = 1 if q == 2 else 1 + next(stream) % (q - 1)
    return FVector(field, tuple(entries))


def _cmd_simulate(args) -> int:
    index_codes._check_delta(args.delta)  # the seeded errors are drawn before decoding
    if args.random_errors is not None and args.random_errors < 1:
        raise EcicError(f"--random-errors must be at least 1, got {args.random_errors}")
    if args.x is not None and args.error is None:
        raise EcicError("--x needs --error: the seeded rounds draw their own x")
    if args.error is not None and args.random_errors is not None:
        raise EcicError("--random-errors conflicts with --error, which makes one round")
    if args.x is not None and args.error is not None and args.seed is not None:
        raise EcicError("--seed is unused when --x and --error give the whole round")
    inst = _load_instance(args.instance)
    code = _build_code(inst, _load_matrix(args.matrix), args.q)
    field = code.field
    n, N = inst.num_messages, code.length
    rounds = []
    if args.error is not None:
        error = FVector(field, tuple(int(t) for t in args.error.split()))
        x = (
            FVector(field, tuple(int(t) for t in args.x.split()))
            if args.x is not None
            else _seeded_vector(field, n, args.seed or 0, "x", 0)
        )
        index_codes.encode(code, x).add(error)  # bad lengths exit 2 before any verdict
        rounds.append((x, error))
    else:
        for t in range(args.random_errors or 1):
            x = _seeded_vector(field, n, args.seed or 0, "x", t)
            err = _seeded_vector(field, N, args.seed or 0, "err", t, max_weight=args.delta)
            rounds.append((x, err))
    cap = args.weight_cap if args.weight_cap is not None else args.delta
    reading, build = decoder.code_reading(code), decoder.build_receiver_decoder
    decoders = [build(code, i, _reading=reading) for i in range(inst.num_receivers)]
    # a receiver whose demanded row lies in the span of its complement rows
    # has no symbol to decode: the matrix is not an index code, as in `check`
    stuck = next((i for i, dec in enumerate(decoders) if not dec.determined), None)
    if stuck is not None:
        ce = {"kind": "undetermined-demand", "receiver": stuck + 1}
        _emit({"rounds": [], "counterexample": ce}, args.format,
              f"receiver {stuck + 1}: demanded symbol is not uniquely determined")
        return EXIT_FAIL
    docs = []
    all_ok = True
    for t, (x, err) in enumerate(rounds):
        outcomes = decoder._decode_round(code, decoders, x, err, cap)
        for i, out in enumerate(outcomes):
            all_ok = all_ok and bool(out.success)
            docs.append(
                {
                    "round": t,
                    "receiver": i + 1,
                    "x": _vector_doc(x),
                    "error": _vector_doc(err),
                    "recovered": out.recovered,
                    "estimate": _vector_doc(out.error_estimate),
                    "estimate_weight": out.estimate_weight,
                    "success": out.success,
                }
            )
    text = "\n".join(
        f"round {d['round']} receiver {d['receiver']}: "
        f"recovered {d['recovered']} ({'ok' if d['success'] else 'WRONG'})"
        for d in docs
    )
    _emit({"rounds": docs}, args.format, text)
    return EXIT_PASS if all_ok else EXIT_FAIL


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    code = _build_code(inst, _load_matrix(args.matrix), args.q)
    report = decoder.exhaustive_correctness_check(code, args.delta, args.enum_budget)
    doc = {"delta": args.delta, "ok": report.ok, "decodes": report.decodes}
    text = f"{'PASS' if report.ok else 'FAIL'}: {report.decodes} decodes"
    if report.counterexample is not None:
        ce = report.counterexample
        doc["counterexample"] = {
            "kind": ce.kind,
            "x": _vector_doc(ce.x),
            "error": _vector_doc(ce.error),
            "receiver": ce.receiver + 1,
            "recovered": None if ce.outcome is None else ce.outcome.recovered,
        }
        text += (
            f"\ncounterexample ({ce.kind}): receiver {ce.receiver + 1}, "
            f"x={' '.join(map(str, ce.x.entries))}, "
            f"error={' '.join(map(str, ce.error.entries))}"
        )
    _emit(doc, args.format, text)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _nonnegative(text: str) -> int:
    """A budget's or a cap's value: a nonnegative integer (a budget of 0
    allows no work)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


_OPTIONAL_FLAGS = {
    "enum-budget": dict(type=_nonnegative, default=DEFAULT_ENUM_BUDGET),
    "node-budget": dict(type=_nonnegative, default=bounds_mod.DEFAULT_NODE_BUDGET),
    "seed": dict(type=int, default=0),
}


def _add_common(
    p: argparse.ArgumentParser, *flags: str, q: bool = False, matrix: bool = False, delta: bool = False
):
    """Arguments shared by the subcommands; `flags` names the entries of
    _OPTIONAL_FLAGS the subcommand reads."""
    p.add_argument("--instance", required=True, help="instance file or built-in name")
    if q:
        p.add_argument("--q", type=int, required=True, help="field order")
    else:
        p.add_argument("--q", type=int, default=None, help="field order cross-check")
    if matrix:
        p.add_argument("--matrix", required=True, help="matrix file (text format)")
    if delta:
        p.add_argument("--delta", type=int, required=True, help="number of correctable errors")
    for flag in flags:
        p.add_argument(f"--{flag}", **_OPTIONAL_FLAGS[flag])
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecic",
        description="Error-correcting index codes: parameters, bounds, search, decoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an instance (and matrix)")
    _add_common(p)
    p.add_argument("--matrix", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("params", help="alpha and kappa with witnesses")
    _add_common(p, "node-budget", q=True)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("bounds", help="all length bounds at one delta")
    _add_common(p, "node-budget", q=True, delta=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="verify a matrix corrects delta errors")
    _add_common(p, "enum-budget", matrix=True, delta=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("radius", help="largest delta a matrix verifies at")
    _add_common(p, "enum-budget", matrix=True)
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("search", help="exact optimal length with witness")
    _add_common(p, "enum-budget", "node-budget", q=True, delta=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("construct", help="build a code by a named strategy")
    _add_common(p, "enum-budget", "node-budget", "seed", q=True, delta=True)
    p.add_argument("--strategy", choices=("concat", "random", "mds-concat"), required=True)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("simulate", help="broadcast, corrupt, and decode")
    _add_common(p, "seed", matrix=True, delta=True)
    p.add_argument("--x", default=None, help="message vector, space separated")
    p.add_argument("--error", default=None, help="error vector, space separated")
    p.add_argument("--random-errors", type=int, default=None, help="number of seeded rounds (1)")
    p.add_argument("--weight-cap", type=_nonnegative, default=None)
    p.set_defaults(func=_cmd_simulate, seed=None)  # absent flags read as seed 0, one round

    p = sub.add_parser("check", help="exhaustive decoder correctness check")
    _add_common(p, "enum-budget", matrix=True, delta=True)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (BudgetExceeded, UnknownCodeLength) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EcicError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
