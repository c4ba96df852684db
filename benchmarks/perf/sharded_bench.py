"""Sharded suite: collection-plane scaling and shard-count invariance.

One measurement = one workload's deterministic stream pushed through
the *full* Mint pipeline (agents, collectors, transports, backend) at a
given shard count, wall-clocked end to end.  The single-backend
:class:`~repro.framework.MintFramework` run over the
same stream is the reference: spans/sec ratios give the merge layer's
overhead (or benefit), and the reference's fingerprint
(:mod:`repro.verify`) is the invariance oracle every sharded
run is checked against.

Unlike ``ingest_bench`` (agent hot path only), this measures the
collection plane the sharding PR actually changes: report routing,
cross-shard pattern merge, the OR'd Bloom pre-screen and notification
broadcast all sit on the measured path.

``--check`` gates: no sharded run's query signature or byte tables
diverge from the single backend's, and merge overhead (sharded over
single-backend wall clock) stays within ``--max-overhead`` — the merge
layer must stay cheap.  Elapsed seconds, spans/sec and merge overhead
live in the ``timing`` section (:data:`WALL_CLOCK`), which ``run.py``
leaves out of the committed ``BENCH_sharded.json``.
"""

from __future__ import annotations

from common import best_of, build_stream, per_second, span_count

from repro.analysis.metrics import hit_breakdown
from repro.framework import MintFramework
from repro.transport import Deployment
from repro.verify import compare_fingerprints, fingerprint
from repro.workloads import WORKLOAD_BUILDERS

DEFAULTS = {
    "traces": 400,
    "warmup_traces": 100,
    "workloads": list(WORKLOAD_BUILDERS),
    "repeats": 3,
}
# Report sections that hold wall-clock numbers (not committed).
WALL_CLOCK = ("timing",)
FLAGS = {
    "--shards": dict(type=int, nargs="+", default=[1, 2, 4, 8], help="shard counts to sweep"),
    "--max-overhead": dict(
        type=float, default=1.35, help="gate: sharded / single-backend wall-clock bound"
    ),
}
# A sharded run shares the single backend's figures and answers; its
# ledgers are per shard by construction.
INVARIANT_KEYS = ("byte_tables", "query_signature")


def _cell(workload: str, num_shards: int, stream, framework, run_print) -> dict:
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
    return {
        "workload": workload,
        "num_shards": num_shards,
        "traces": len(stream),
        "spans": span_count(stream),
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


def _timing(stream, elapsed: float) -> dict:
    """The wall-clock half of one cell."""
    return {
        "elapsed_seconds": round(elapsed, 6),
        "spans_per_sec": round(per_second(span_count(stream), elapsed), 1),
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
        "invariance": {},
        "timing": {},
    }
    for name in args.workloads:
        stream = build_stream(name, args.traces)
        ref_elapsed, reference = best_of(
            lambda: MintFramework(auto_warmup_traces=args.warmup_traces),
            stream,
            args.repeats,
        )
        ref_print = fingerprint(reference, stream)
        report["baseline_single"][name] = _cell(name, 0, stream, reference, ref_print)
        cells = report["workloads"][name] = {}
        verdicts = report["invariance"][name] = {}
        timing = report["timing"][name] = {"single": _timing(stream, ref_elapsed)}
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
            cells[str(count)] = _cell(name, count, stream, framework, run_print)
            timing[str(count)] = {
                **_timing(stream, elapsed),
                "merge_overhead": round(elapsed / ref_elapsed, 3) if ref_elapsed > 0 else 0.0,
            }
            violations = compare_fingerprints(
                ref_print, run_print, label="sharded", keys=INVARIANT_KEYS
            )
            verdicts[str(count)] = {"identical": not violations, "violations": violations}
        line = f"{name:16s} single: {timing['single']['spans_per_sec']:>9.0f} spans/s"
        for count in args.shards:
            line += (
                f"  | x{count}: {timing[str(count)]['spans_per_sec']:>9.0f} "
                f"({timing[str(count)]['merge_overhead']:.2f}x)"
            )
        print(line)
    return report


def check(report: dict, args) -> list[str]:
    failures: list[str] = []
    for name, by_count in report["invariance"].items():
        # Absent from the committed report; every fresh run has it.
        timing = report.get("timing", {}).get(name)
        for count, verdict in by_count.items():
            if not verdict["identical"]:
                failures.append(f"{name} x{count}: {'; '.join(verdict['violations'])}")
            if timing and timing[count]["merge_overhead"] > args.max_overhead:
                failures.append(
                    f"{name} x{count}: merge overhead {timing[count]['merge_overhead']:.2f}x > "
                    f"allowed {args.max_overhead:.2f}x"
                )
    return failures
