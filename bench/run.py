"""Benchmark entry point for the ecic library.

    python3 bench/run.py --workload {search,codes,verify,decode} --seed N \
        --seconds S --trace {0,1} [--smoke]

Runs rounds of the workload, each in a fresh single-threaded process
(`bench/round.py`), for about S seconds and never fewer than three rounds;
a round that would end after S seconds is not started once three are done.
Every end-to-end time is scaled to a nominal host speed by the fixed reference job
that each round runs around its batch (`bench/hostref.py`), because the
shared host's speed drifts by up to half again from minute to minute.
With --trace 0 no round is traced; setup, wall time and RSS are medians over
the rounds, and the op latency percentile runs over each op's fastest round.
With --trace 1 untraced and traced rounds alternate, at least two of each;
the per-layer metrics come from the traced rounds, `trace.overhead_frac`
compares the two kinds, and `op_p50_ms`, `decodes_per_s`, `wall_raw_s`
(unscaled) and `host.ref_s` come from the untraced ones.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_S
from metrics import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 175  # the whole run, rounds included, ends within 180 s
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2


def run_round(args, traced: bool, index: int, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "round.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(OUT / f"{args.workload}-seed{args.seed}-round{index}.csv")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=env, cwd=ROOT
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_rounds(args) -> tuple[list[dict], list[dict]]:
    """(untraced rounds, traced rounds) run within the time allowance."""
    plain, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PAIRS
        else:
            enough = len(plain) >= MIN_ROUNDS
        if enough and time.perf_counter() - start + last > args.seconds:
            break
        began = time.perf_counter()
        index = len(plain) + len(traced)
        timeout = max(1.0, DEADLINE_S - (began - start))
        if args.trace and len(traced) < len(plain):
            traced.append(run_round(args, True, index, timeout))
        else:
            plain.append(run_round(args, False, index, timeout))
        last = time.perf_counter() - began
    return plain, traced


def scale(r: dict) -> float:
    """Factor that turns a round's times into times at the nominal host
    speed: the host reference job took r["ref_s"] around the batch."""
    return NOMINAL_S / r["ref_s"]


def op_ms(rounds: list[dict], k: int) -> float:
    """k-th decile of per-operation latency, in ms.  Each op's latency is its
    fastest round, which filters the sub-second noise of a shared host out
    of short ops; the decile runs over the ops of the batch."""
    per_op = [min(r["op_s"][i] * scale(r) for r in rounds) for i in range(rounds[0]["ops"])]
    return 1000 * statistics.quantiles(per_op, n=10, method="inclusive")[k - 1]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in rounds),
        "wall_s": statistics.median(r["wall_s"] * scale(r) for r in rounds),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in rounds),
        "op_p90_ms": op_ms(rounds, 9),
    }


def is_count(name: str) -> bool:
    return PER_LAYER[name].startswith("count")


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    # counts repeat exactly between traced rounds (checked in main); times
    # and rates are medians over them
    out = {
        name: traced[0]["layers"][name]
        if is_count(name)
        else statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["op_p50_ms"] = op_ms(plain, 5)
    out["decodes_per_s"] = statistics.median(r["decodes_per_s"] for r in plain)
    out["wall_raw_s"] = statistics.median(r["wall_s"] for r in plain)
    out["host.ref_s"] = statistics.median(r["ref_s"] for r in plain)
    out["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] * scale(r) for r in traced)
        / statistics.median(r["wall_s"] * scale(r) for r in plain)
        - 1
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("search", "codes", "verify", "decode"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced-size inputs, for the tests")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ecic" / "__init__.py").is_file():
        print(f"no ecic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        plain, traced = run_rounds(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    # answers and counts must repeat exactly from round to round
    steady = all(r["counts"] == rounds[0]["counts"] for r in rounds) and all(
        r["layers"][name] == traced[0]["layers"][name]
        for r in traced
        for name in r["layers"]
        if is_count(name)
    )
    unwrapped = all(r["wrappers_left"] == 0 for r in rounds)
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        values = per_layer(plain, traced)
        units = PER_LAYER
    else:
        values = end_to_end(plain)
        units = END_TO_END
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced rounds, "
        f"{plain[0]['ops']} ops each; walls {[round(r['wall_s'], 3) for r in rounds]}",
        file=sys.stderr,
    )
    if not steady:
        print("counts differ between rounds", file=sys.stderr)
    if not unwrapped:
        print("a traced round left wrappers installed", file=sys.stderr)
    result = {
        "correct": failed == 0 and steady and unwrapped,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
