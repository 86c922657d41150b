"""One benchmark round in a fresh process.

Sets up (imports `ecic` from the checkout's `src/`, builds fields and makes
the inputs from the seed), runs the workload's batch once with timing
between two runs of the host reference job (`hostref`), checks every answer
outside the timed interval, and prints one JSON line.
A fresh process per round keeps any memo inside the library from turning a
repeated question into a cache hit that a one-question CLI user never sees.

    python3 bench/round.py --workload search --seed 0 [--trace] [--smoke]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ecic  # noqa: E402

import hostref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_batch(ops, tracer):
    """Run every op once; returns (per-op seconds, results, errors, wall)."""
    latencies, results, errors = [], [], []
    started = time.perf_counter()
    for op in ops:
        sid = tracer.begin("op") if tracer else None
        t = time.perf_counter()
        try:
            results.append(op.run())
            errors.append(None)
        except Exception as exc:  # a raising op is a failed op, not a crash
            results.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t)
        if tracer:
            tracer.end(sid)
    return latencies, results, errors, time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="reduced-size inputs")
    parser.add_argument("--spans", type=Path, help="CSV file for the spans of a traced round")
    args = parser.parse_args()

    if not Path(ecic.__file__).resolve().is_relative_to(SRC):
        print(f"imported ecic from {ecic.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - T0

    ref_before = hostref.reference_seconds()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracing.installed(tracer) as saved:
            latencies, results, errors, wall_s = run_batch(ops, tracer)
        wrappers_left = tracing.leftover(saved)
    else:
        latencies, results, errors, wall_s = run_batch(ops, None)
        wrappers_left = 0
    ref_s = (ref_before + hostref.reference_seconds()) / 2

    problems = []
    failed = 0
    counts: dict[str, int] = {}
    decodes = decode_time = 0.0
    for op, result, error, latency in zip(ops, results, errors, latencies):
        if error is not None:
            found, op_counts = [error], {}
        else:
            try:
                found, op_counts = op.check(result)
            except Exception as exc:  # a malformed result is a failed op
                found, op_counts = [f"check raised {type(exc).__name__}: {exc}"], {}
        failed += bool(found)
        problems += [f"{op.label}: {p}" for p in found]
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
        if "decodes" in op_counts:
            decodes += op_counts["decodes"]
            decode_time += latency
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)

    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": latencies,
        "ref_s": ref_s,
        "ops": len(ops),
        "failed": failed,
        "counts": counts,
        "decodes_per_s": decodes / decode_time if decode_time else 0.0,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wrappers_left": wrappers_left,
    }
    if tracer:
        doc["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
