"""Sharded suite: collection-plane scaling and shard-count invariance.

One measurement = one workload's deterministic stream pushed through
the *full* Mint pipeline (agents, collectors, transports, backend) at a
given shard count, wall-clocked end to end.  The single-backend
:class:`~repro.framework.MintFramework` run over the
same stream is the reference: spans/sec ratios give the merge layer's
overhead (or benefit), and the reference's fingerprint
(:mod:`repro.concurrent.verify`) is the invariance oracle every sharded
run is checked against.

Unlike ``ingest_bench`` (agent hot path only), this measures the
collection plane the sharding PR actually changes: report routing,
cross-shard pattern merge, the OR'd Bloom pre-screen and notification
broadcast all sit on the measured path.

``--check`` gates: no sharded run's query signature or byte tables
diverge from the single backend's, and merge overhead (sharded over
single-backend wall clock) stays within ``--max-overhead`` — the merge
layer must stay cheap.
"""

from __future__ import annotations

from common import best_of, build_stream, per_second, span_count

from repro.analysis.metrics import hit_breakdown
from repro.concurrent.verify import compare_fingerprints, fingerprint
from repro.framework import MintFramework
from repro.transport import Deployment
from repro.workloads import WORKLOAD_BUILDERS

DEFAULTS = {
    "traces": 400,
    "warmup_traces": 100,
    "workloads": list(WORKLOAD_BUILDERS),
    "repeats": 3,
}
FLAGS = {
    "--shards": dict(type=int, nargs="+", default=[1, 2, 4, 8], help="shard counts to sweep"),
    "--max-overhead": dict(
        type=float, default=1.35, help="gate: sharded / single-backend wall-clock bound"
    ),
}
# A sharded run shares the single backend's figures and answers; its
# ledgers are per shard by construction.
INVARIANT_KEYS = ("byte_tables", "query_signature")


def _cell(workload: str, num_shards: int, stream, elapsed: float, framework, run_print) -> dict:
    """One (workload, shard count) cell of BENCH_sharded.json."""
    if framework.deployment.is_sharded:
        rows = framework.shard_meter_rows()
        shard_storage = [row.storage_bytes for row in rows]
        shard_network = [row.network_bytes for row in rows]
        replicated = framework.backend.merged.replicated_pattern_bytes()
    else:
        shard_storage = [framework.storage_bytes]
        shard_network = [framework.network_bytes]
        replicated = 0
    spans = span_count(stream)
    return {
        "workload": workload,
        "num_shards": num_shards,
        "traces": len(stream),
        "spans": spans,
        "elapsed_seconds": round(elapsed, 6),
        "spans_per_sec": round(per_second(spans, elapsed), 1),
        "network_bytes": framework.network_bytes,
        "storage_bytes": framework.storage_bytes,
        "shard_storage_bytes": shard_storage,
        "shard_network_bytes": shard_network,
        "replicated_pattern_bytes": replicated,
        # Fig. 12-style hit counts, folded from the signature's sweep.
        "hits": hit_breakdown(
            detail.split(":", 1)[0] for _, detail in run_print["query_signature"]
        ),
    }


def measure(args) -> dict:
    """Every (workload, shard count) cell plus the single-backend
    reference; every run sees the identical stream."""
    report: dict = {
        "units": {
            "spans_per_sec": "spans through the full collection plane per "
            "wall-clock second (agents + collectors + backend)",
            "merge_overhead": "sharded elapsed / single-backend elapsed "
            "over the identical stream (1.0 = free merge)",
        },
        "baseline_single": {},
        "workloads": {},
        "merge_overhead": {},
        "invariance": {},
    }
    for name in args.workloads:
        stream = build_stream(name, args.traces)
        ref_elapsed, reference = best_of(
            lambda: MintFramework(auto_warmup_traces=args.warmup_traces),
            stream,
            args.repeats,
        )
        ref_print = fingerprint(reference, stream)
        report["baseline_single"][name] = _cell(
            name, 0, stream, ref_elapsed, reference, ref_print
        )
        cells = report["workloads"][name] = {}
        overheads = report["merge_overhead"][name] = {}
        verdicts = report["invariance"][name] = {}
        for count in args.shards:
            elapsed, framework = best_of(
                lambda count=count: MintFramework(
                    deployment=Deployment.sharded(count),
                    auto_warmup_traces=args.warmup_traces,
                ),
                stream,
                args.repeats,
            )
            run_print = fingerprint(framework, stream)
            cells[str(count)] = _cell(name, count, stream, elapsed, framework, run_print)
            overheads[str(count)] = round(elapsed / ref_elapsed, 3) if ref_elapsed > 0 else 0.0
            violations = compare_fingerprints(
                ref_print, run_print, label="sharded", keys=INVARIANT_KEYS
            )
            verdicts[str(count)] = {"identical": not violations, "violations": violations}
        single = report["baseline_single"][name]["spans_per_sec"]
        line = f"{name:16s} single: {single:>9.0f} spans/s"
        for count in args.shards:
            line += (
                f"  | x{count}: {cells[str(count)]['spans_per_sec']:>9.0f} "
                f"({overheads[str(count)]:.2f}x)"
            )
        print(line)
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, by_count in report["invariance"].items():
        for count, verdict in by_count.items():
            if not verdict["identical"]:
                failures.append(f"{name} x{count}: {'; '.join(verdict['violations'])}")
    for name, by_count in report["merge_overhead"].items():
        for count, overhead in by_count.items():
            if overhead > args.max_overhead:
                failures.append(
                    f"{name} x{count}: merge overhead {overhead:.2f}x > "
                    f"allowed {args.max_overhead:.2f}x"
                )
    return failures
