"""Smoke test of the benchmark: every workload at reduced size, traced and
untraced.  Node counts are not pinned, so that optimisations stay free to
change them.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import ecic  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def last_json_line(cmd) -> dict:
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_run(workload: str, trace: int) -> dict:
    return last_json_line(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"]
    )


def bench_round(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, "bench/round.py", "--workload", workload, "--seed", "0", "--smoke"]
    return last_json_line(cmd + ["--trace"] if traced else cmd)


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == metrics.END_TO_END
    assert declared("per_layer") == metrics.PER_LAYER
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit_and_answers_check(workload, trace):
    result = bench_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_match_between_traced_and_untraced_rounds(workload):
    plain = bench_round(workload, traced=False)
    traced = bench_round(workload, traced=True)
    for doc in (plain, traced):
        assert doc["failed"] == 0 and doc["wrappers_left"] == 0
    assert traced["ops"] == plain["ops"]
    assert traced["counts"] == plain["counts"]
    layers = traced["layers"]
    if workload == "search":
        assert layers["exists.nodes"] == plain["counts"]["search_nodes"]
        assert layers["cover.nodes"] == layers["cover.proof_nodes"] + layers["cover.witness_nodes"]
    if workload == "codes":
        assert layers["cover.calls"] == layers["code_exists.calls"] > 0
    if workload in ("verify", "decode"):
        assert layers["cover.calls"] == 0
    if workload == "decode":
        assert layers["decode.calls"] == plain["counts"]["decodes"]


def test_no_wrapper_left_installed():
    sites = [
        (tracing._module(site.split(":")[0]), site.split(":")[1])
        for sites in tracing.SITES.values()
        for site in sites
    ]
    before = [getattr(mod, attr) for mod, attr in sites]
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as saved:
        assert all(getattr(mod, attr) is not f for (mod, attr), f in zip(sites, before))
        ecic.optimal_length_search(ecic.pentagon(), ecic.make_field(2), 1)
    assert tracing.leftover(saved) == 0
    assert [getattr(mod, attr) for mod, attr in sites] == before
    assert tracer.metrics()["exists.calls"] >= 1


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    calls, busy = tracer.self_times()
    inner_s = tracer.ends[inner] - tracer.starts[inner]
    outer_s = tracer.ends[outer] - tracer.starts[outer]
    assert calls == {"outer": 1, "inner": 1}
    assert busy["inner"] == pytest.approx(inner_s)
    assert busy["outer"] == pytest.approx(outer_s - inner_s)


def test_code_length_references_meet_the_classical_bounds():
    for q, k, d, length in workloads.CODES:
        floor = max(workloads.griesmer(q, k, d), workloads.hamming_lower(q, k, d))
        assert length == floor, (q, k, d)


def test_relabelling_is_a_bijection_on_messages():
    inst = ecic.pentagon()
    perm = [2, 0, 4, 1, 3]
    relabelled = workloads._relabel(inst, perm)
    assert sorted(len(s) for s in relabelled.side_info) == sorted(len(s) for s in inst.side_info)
    assert workloads._relabel(relabelled, [perm.index(j) for j in range(5)]) == inst


def test_end_to_end_times_are_scaled_by_the_host_reference():
    import run

    fast = {"ops": 2, "op_s": [0.1, 0.3], "setup_s": 0.05, "wall_s": 0.4, "rss_mib": 20.0}
    rounds = [dict(fast, ref_s=run.NOMINAL_S), dict(fast, ref_s=run.NOMINAL_S)]
    slow_host = [dict(r, op_s=[2 * t for t in r["op_s"]], setup_s=0.1, wall_s=0.8,
                      ref_s=2 * run.NOMINAL_S) for r in rounds]
    assert run.end_to_end(slow_host) == pytest.approx(run.end_to_end(rounds))
    assert run.end_to_end(rounds)["wall_s"] == pytest.approx(0.4)
