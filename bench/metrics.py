"""Names and units of the metrics the benchmark reports, in report order.
BENCHMARK.json lists the same names and units; the smoke test holds the two
together."""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "op_p90_ms": "ms",
}

PER_LAYER = {
    "cover.calls": "count",
    "cover.nodes": "count",
    "cover.proof_nodes": "count",
    "cover.witness_nodes": "count",
    "cover.self_s": "s",
    "cover.nodes_per_s": "1/s",
    "exists.calls": "count",
    "exists.nodes": "count",
    "exists.self_s": "s",
    "code_exists.calls": "count",
    "code_exists.infeasible": "count",
    "bounds.self_s": "s",
    "min_rank.calls": "count",
    "min_rank.self_s": "s",
    "alpha.self_s": "s",
    "margin.calls": "count",
    "margin.self_s": "s",
    "margin.combinations": "count-computed",
    "margin.combinations_per_s": "1/s",
    "verify_direct.self_s": "s",
    "confusable.vectors": "count",
    "confusable.self_s": "s",
    "decoder_build.calls": "count",
    "decoder_build.self_s": "s",
    "decode.calls": "count",
    "decode.self_s": "s",
    "relevant_set.self_s": "s",
    "coset_leader.calls": "count",
    "coset_leader.self_s": "s",
    "solve_linear.calls": "count",
    "solve_linear.self_s": "s",
    "op_p50_ms": "ms",
    "decodes_per_s": "1/s",
    "wall_raw_s": "s",
    "host.ref_s": "s",
    "trace.overhead_frac": "ratio",
}
