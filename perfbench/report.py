"""Turns the measuring program's raw output into benchmark metrics.

Everything here is a pure function of the JSON that `perfbench measure`
writes and of the generator's examples.tsv, so the reporting rules and the
output checks can be tested without building the program.
"""

import json
import math
import statistics

# A timing percentile is reported only with at least this many samples
# beyond it.
MIN_SAMPLES_BEYOND = 10

# Span names the traced run must leave in its Chrome trace, one or more per
# layer.
TRACED_SPANS = (
    "bench/graph/ReadGraphBinary",
    "bench/core/LoadModel",
    "bench/core/Train",
    "bench/core/Estimate",
    "bench/core/EstimateBatch",
    "bench/matching/ComputeCandidateSets",
    "bench/matching/ExtractSubstructures",
    "bench/core/FeatureInitializer::Compute",
    "bench/core/BuildBipartiteEdges",
    "bench/nn/WEstModel::Forward",
    "bench/nn/Tape::ForwardBackward",
    "bench/core/Discriminator::Score",
    "bench/nn/AdamOptimizer::Step",
    "bench/common/ParallelFor",
)


def samples_beyond(n, p):
    """Samples ranked beyond percentile p (0-100) in a sample of n."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def percentile(values, p):
    """Percentile p (0-100) with linear interpolation between order
    statistics."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = (n - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def timing_percentile(values, p):
    """percentile(), for a timing: raises ValueError when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond p (a median is always
    reportable)."""
    n = len(values)
    if p > 50.0 and samples_beyond(n, p) < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples give {samples_beyond(n, p)}")
    return percentile(values, p)


def qerror(estimate, truth):
    """q-error as eval/metrics.h defines it (>= 1)."""
    e = max(1.0, estimate)
    t = max(1.0, truth)
    return max(e / t, t / e)


def read_examples(path):
    """examples.tsv rows as dicts with split, size and count."""
    rows = []
    with open(path) as f:
        header = f.readline().split()
        for line in f:
            fields = dict(zip(header, line.split()))
            rows.append({
                "split": fields["split"],
                "size": int(fields["size"]),
                "count": float(fields["count"]),
            })
    return rows


def check_outputs(result, examples, trace_names=None):
    """Checks every output of a run.

    Each estimate call is one attempt; it fails on a non-ok status, a value
    that is not finite or is negative, or an early termination on a query
    whose exact count is not 0. Each batch estimate must also equal the
    sequential estimate of the same query from the same checkpoint, bit for
    bit. Run-wide checks (input fingerprints, arena growth after warm-up,
    the trace's spans) count as one attempt each.

    Returns (attempted, failed, problems) with a message per failure kind.
    """
    attempted = 0
    failed = 0
    problems = {}

    def fail(kind):
        nonlocal failed
        failed += 1
        problems[kind] = problems.get(kind, 0) + 1

    def estimate_ok(call, i):
        raw = call["estimate"][i]
        if raw.startswith("error"):
            fail("estimate returned " + raw)
            return False
        value = float.fromhex(raw)
        if not math.isfinite(value) or value < 0.0:
            fail("estimate not finite and >= 0")
            return False
        q = call["query"][i]
        if call["early"][i] and examples[q]["count"] != 0.0:
            fail("early termination on a query with a nonzero count")
            return False
        return True

    phases = ["sequential", "batch", "latency", "batch_loop",
              "traced_latency"]
    for phase in phases:
        call = result.get(phase)
        if call is None:
            continue
        for i in range(len(call["query"])):
            attempted += 1
            estimate_ok(call, i)

    seq = result["sequential"]
    batch = result["batch"]
    if seq["query"] != batch["query"]:
        attempted += 1
        fail("batch and sequential passes cover different queries")
    else:
        for s, b in zip(seq["estimate"], batch["estimate"]):
            if s != b:
                fail("EstimateBatch differs from sequential Estimate")

    attempted += 1
    if not result["fingerprints_ok"]:
        fail("input fingerprints differ from the generator's manifest")

    layers = result.get("layers")
    if layers is not None:
        attempted += 1
        if layers.get("arena_grows", 1) != 0:
            fail("EvalContext arena grew after warm-up")
        attempted += 1
        if layers.get("layer_errors"):
            fail("a layer call failed or gave a non-finite forward")
    if trace_names is not None:
        attempted += 1
        missing = [n for n in TRACED_SPANS if n not in trace_names]
        if missing:
            fail("trace lacks spans: " + ", ".join(missing))
    return attempted, failed, problems


def trace_span_names(path):
    """Names of the complete events in a Chrome trace file."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return {e["name"] for e in events}


def fastest_calls(queries, latency_ms):
    """Each query's fastest calls of the closed loop, the same number k of
    every query: the smallest k for which the pooled calls have
    MIN_SAMPLES_BEYOND calls beyond p99 (all of a query's calls when it was
    issued fewer than k times). The pool keeps the query mix of a pass, but
    a call of a few milliseconds, not a whole pass, has to miss the host's
    stalls to be kept."""
    by_query = {}
    for q, ms in zip(queries, latency_ms):
        by_query.setdefault(q, []).append(ms)
    k = 1
    while samples_beyond(k * len(by_query), 99) < MIN_SAMPLES_BEYOND:
        k += 1
    chosen = []
    for samples in by_query.values():
        chosen.extend(sorted(samples)[:k])
    return chosen


def end_to_end_metrics(result, examples):
    """The untraced run's metrics, by BENCHMARK.json name.

    The timings are the process's CPU time over each call (perfbench.cc,
    CpuSeconds). Every timing is taken many times over the run, and the
    fastest samples are kept: the latency percentiles come from each
    query's fastest calls (enough for p99), batch_qps from the fastest
    EstimateBatch call, train_examples_per_s from the fastest Train repeat.
    Other tenants of the host slow the program down for seconds at a time
    and never speed it up, so the fastest samples are the ones that repeat
    from run to run. setup_s is the median of the set-ups."""
    calls = fastest_calls(result["latency"]["query"], result["latency"]["ms"])
    n_queries = len(result["sequential"]["query"])
    test_q = [
        qerror(float.fromhex(est), examples[q]["count"])
        for q, est in zip(result["sequential"]["query"],
                          result["sequential"]["estimate"])
        if examples[q]["split"] == "test"
    ]
    train = result["train"]
    return {
        "estimate_p50_ms": timing_percentile(calls, 50),
        "estimate_p99_ms": timing_percentile(calls, 99),
        "batch_qps": n_queries / min(result["batch_pass_s"]),
        "qerror_median": percentile(test_q, 50),
        "qerror_p90": percentile(test_q, 90),
        "train_examples_per_s":
            train["examples_used"] * train["epochs"] / min(train["seconds"]),
        "train_val_qerror": train["validation_qerror"][-1],
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(result):
    """The traced run's per-layer metrics, by BENCHMARK.json name."""
    L = result["layers"]
    passes = L["layer_passes"]

    def per_pass(name):
        return sum(L[name]) / passes

    def mean(name):
        return statistics.fmean(L[name]) if L[name] else 0.0

    def p50_us(name):
        return 1e6 * statistics.median(L[name])

    prepare = sum(L["estimate_prepare_s"])
    infer = sum(L["estimate_infer_s"])
    total = sum(L["estimate_total_s"])
    train = result["train"]
    seen = train["examples_used"] + train["examples_skipped"]
    return {
        "matching.filter_us_p50": p50_us("filter_s"),
        "matching.filter_busy_s": per_pass("filter_s"),
        "matching.extract_self_s":
            per_pass("extract_s") - per_pass("filter_s"),
        "matching.candidates_per_qvertex": mean("candidates_per_qvertex"),
        "matching.prune_ratio": mean("prune_ratio"),
        "matching.substructures_per_query": mean("substructures"),
        "matching.kept_ratio":
            sum(L["components_kept"]) / max(1.0, sum(L["components_total"])),
        "matching.early_terminate_ratio": mean("early_terminated"),
        "core.features_busy_s": per_pass("features_s"),
        "core.feature_rows": L["feature_rows"],
        "core.bipartite_edges_mean": mean("bipartite_edges"),
        "core.west_forwards": len(L["west_forward_s"]) / passes,
        "core.west_forward_us_p50": p50_us("west_forward_s"),
        "core.west_forward_busy_s": per_pass("west_forward_s"),
        "nn.arena_grows": L["arena_grows"],
        "nn.arena_bytes": L["arena_bytes"],
        "nn.pool_arena_grows": L["pool_arena_grows"],
        "core.estimate_prepare_s": prepare,
        "core.estimate_infer_s": infer,
        "core.estimate_other_s": total - prepare - infer,
        "core.prepare_share": prepare / (prepare + infer),
        "core.substructures_used_ratio":
            sum(L["substructures_used"])
            / max(1.0, sum(L["substructures_total"])),
        "trace.estimate_p50_ms":
            statistics.median(result["traced_latency"]["ms"]),
        "nn.tape_fwd_bwd_us_p50": p50_us("tape_fwd_bwd_s"),
        "nn.optimizer_step_us": p50_us("optimizer_step_s"),
        "core.critic_score_us": p50_us("critic_score_s"),
        "core.train_epoch_s": statistics.median(train["epoch_s"]),
        "core.train_skipped_ratio": train["examples_skipped"] / seen,
        "common.region_overhead_us": p50_us("region_s"),
        "common.pool_threads": L["pool_threads"],
        "graph.read_s": statistics.median(result["graph_read_s"]),
        "core.load_model_s": statistics.median(result["load_model_s"]),
    }
